"""A/B timing of two voipqos source trees through the benchmark's runner.

usage: python tools/ab.py --parent DIR --change DIR [--pairs N]

Each DIR holds a `voipqos` package (a checkout's `src`). Each pair starts
two fresh interpreters, one per side. Each puts its tree first on the
path, imports plain `voipqos` from it and runs operations through the
benchmark's own runner, `bench/ops.Runner`, with no golden digests, so
the timed region, the collector discipline, the run invariants and the
output digests are the benchmark's. The main process imports no voipqos:
it sends each operation, as the fields of a `bench/workloads.Op`, to one
side and then to the other. Which side runs first alternates on every
operation: operation i of a sample in pair p runs the parent first when
p + i is even, so each side runs first on every other operation.

A pair times three samples of the benchmark's golden pool on both sides:
the presets, every preset in control and baseline mode at seed 0 (the
library runs of preset-sweep); the churn sample, the 40 one-call
control-churn scenarios of CHURN_SAMPLE, each at its index as seed; and
the traced sample, the CLI runs at seed 0 of multicall-artifacts
(fig7-multicall and table4-red-10k), which write every artifact,
trace.csv included. The presets spend nearly all their time in the event
loop; the churn sample is where the controller and knowledge base take a
visible share; the traced sample adds the writing of the artifacts.

Every pair of runs must give equal outputs, compared outside the timing:
a CLI run's digest of every artifact file; a library run's summary and
knowledge base, as the benchmark digests them, plus its timeseries, its
transitions with their noop flag and its unrounded call states. An error,
a broken run invariant or differing outputs on either side stops the
tool with exit status 1, naming the operation.

Each operation's time is also put at reference speed, as `bench/run.py`
does: the main process runs the fixed kernel of `bench/hostspeed.py`
after each operation (`HostSpeed.account`), and at the end scales each
operation's host time by the host's speed around the moment it ran
(`HostSpeed.scale_at`). A side's time in a pair is the sum over its
operations, raw and scaled.

Prints each pair's two raw times for each sample as the pair ends, then
each pair's two scaled times, then, for each sample on its own lines,
each side's median and quartiles, raw and scaled, the change's wins
(ties count for neither), and the medians' difference beside the
parent's interquartile range (IQR), and whether the claim rule holds:
the change wins at least nine tenths of the pairs and the medians'
difference exceeds the parent's IQR. The wins, medians and IQR of that
line are the scaled ones. The simulated work of both sides is identical,
so the change's gain in packets (or windows) per second is the parent's
median time over the change's, less one.
"""
import argparse
import multiprocessing
import statistics
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from hostspeed import HostSpeed  # noqa: E402  (neither module imports voipqos)
from run import percentile  # noqa: E402

SIDES = ("parent", "change")
# Generated control-churn indices: even ones have one call and run to the
# end (odd ones raise a recorded KnowledgeError).
CHURN_SAMPLE = tuple(range(0, 80, 2))
# What each sample's rate counts.
UNITS = {"presets": "packets", "churn sample": "windows", "traced": "packets"}

# A worker's runner, and what its operation returned.
_runner = None
_returned = []


def start(src: str, out_dir: str) -> dict:
    """In a fresh worker: import voipqos from src and open the benchmark's
    runner. Returns each sample's operations as tuples of Op's fields."""
    global _runner
    package = Path(src, "voipqos")
    sys.path.insert(0, src)
    import voipqos

    if Path(voipqos.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported voipqos from {voipqos.__file__}, not {package}")
    from dataclasses import astuple

    from ops import Runner
    from workloads import golden_pool

    samples = {
        "presets": [
            op for op in golden_pool("preset-sweep") if op.seed == 0 and op.preset is not None
        ],
        "churn sample": [
            op for op in golden_pool("control-churn") if op.churn_index in CHURN_SAMPLE
        ],
        "traced": [op for op in golden_pool("multicall-artifacts") if op.seed == 0],
    }
    _runner = Runner(out_dir).__enter__()
    _runner.prepare([op for ops in samples.values() for op in ops])

    def capture(body):
        def returning():
            _returned.append(body())
            return _returned[-1]

        return returning

    _runner.wrap_op = capture
    return {name: [astuple(op) for op in ops] for name, ops in samples.items()}


def run_op(fields: tuple) -> tuple:
    """In a worker: run one operation. Returns its seconds, its failure (or
    None) and its output digests."""
    from ops import canonical_digest
    from workloads import Op

    outcome = _runner.run(Op(*fields))
    artifacts = _returned.pop() if _returned else None
    if outcome.error is not None:
        return outcome.host_s, f"{outcome.error}, raised at {outcome.raised_at}", {}
    if outcome.breaches:
        return outcome.host_s, "; ".join(outcome.breaches), {}
    digests = outcome.digests
    if artifacts is not None:
        ctrl = artifacts.controller
        digests["timeseries"] = canonical_digest(artifacts.timeseries)
        digests["transitions"] = canonical_digest(None if ctrl is None else [
            (t.kind, t.cause, t.at_ms, t.call_id, t.noop) for t in ctrl.transitions
        ])
        # The rows of states.csv, unrounded.
        digests["states"] = canonical_digest(None if ctrl is None else [
            (
                call.call_id, s.state_id, s.entering, s.opened_at_ms, s.closed_at_ms,
                s.avg_delay_ms, s.avg_loss, None if s.sample is None else s.sample.mos,
                None if s.category is None else s.category.name,
            )
            for call in ctrl.calls.values() for s in call.states
        ])
    return outcome.host_s, None, digests


def time_pair(workers: dict, samples: dict, pair: int, speed: HostSpeed) -> dict:
    """{sample: (runs, {side: [(seconds, moment), ...]})} of one pair, one
    entry per operation, its host time and the perf_counter() moment it ran
    around; operation i runs the parent first when pair + i is even. Stops
    on a failed run or differing outputs."""
    result = {}
    for name, ops in samples.items():
        timed = {side: [] for side in SIDES}
        for i, fields in enumerate(ops):
            key, digests = fields[0], {}
            for side in SIDES if (pair + i) % 2 == 0 else SIDES[::-1]:
                before = time.perf_counter()
                seconds, failure, digests[side] = workers[side].submit(run_op, fields).result()
                if failure is not None:
                    raise SystemExit(f"error: {key}: {side}: {failure}")
                timed[side].append((seconds, (before + time.perf_counter()) / 2))
                speed.account(seconds)
            parent, change = digests["parent"], digests["change"]
            differ = sorted(n for n in parent.keys() | change.keys() if parent.get(n) != change.get(n))
            if differ:
                raise SystemExit(f"error: {key}: outputs differ: {', '.join(differ)}")
        result[name] = (len(ops), timed)
    return result


def run_pair(srcs: dict, pair: int, speed: HostSpeed) -> dict:
    """Start one worker per side and time one pair on them."""
    spawn = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory() as tmp:
        workers = {side: ProcessPoolExecutor(1, mp_context=spawn) for side in SIDES}
        try:
            samples = {
                side: workers[side].submit(start, srcs[side], str(Path(tmp, side))).result()
                for side in SIDES
            }
            if samples["parent"] != samples["change"]:
                raise SystemExit("error: the two trees define different presets")
            return time_pair(workers, samples["parent"], pair, speed)
        finally:
            for pool in workers.values():
                pool.shutdown()


def per_pair(timed: dict, scale) -> dict:
    """{sample: {side: [seconds, per pair]}}: the sum over a pair's
    operations of each one's seconds times scale(its moment)."""
    return {
        name: {side: [sum(s * scale(t) for s, t in ops) for ops in pairs]
               for side, pairs in sides.items()}
        for name, sides in timed.items()
    }


def quartiles(values) -> str:
    return (
        f"median {statistics.median(values):.3f} s, quartiles "
        f"{percentile(values, 0.25):.3f}-{percentile(values, 0.75):.3f} s"
    )


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    srcs = {"parent": str(args.parent.resolve()), "change": str(args.change.resolve())}
    for src in srcs.values():
        if not Path(src, "voipqos", "__init__.py").is_file():
            raise SystemExit(f"error: no voipqos sources at {src}")
    speed = HostSpeed()
    # Per sample and side, one list per pair of (seconds, moment) per operation.
    timed = {name: {side: [] for side in SIDES} for name in UNITS}
    runs_of = {}
    for pair in range(args.pairs):
        line = []
        for name, (runs, ops) in run_pair(srcs, pair, speed).items():
            runs_of[name] = runs
            for side in SIDES:
                timed[name][side].append(ops[side])
            host = {side: sum(s for s, _ in ops[side]) for side in SIDES}
            line.append(f"{name} parent {host['parent']:.3f} s, change {host['change']:.3f} s")
        print(f"pair {pair + 1}: {'; '.join(line)}", flush=True)
    raw = per_pair(timed, lambda t: 1.0)
    scaled = per_pair(timed, speed.scale_at)
    for pair in range(args.pairs):
        print(f"pair {pair + 1} at reference speed: " + "; ".join(
            f"{name} parent {times['parent'][pair]:.3f} s, change {times['change'][pair]:.3f} s"
            for name, times in scaled.items()
        ))
    for name, runs in runs_of.items():
        for side in SIDES:
            print(
                f"{name}, {side}: raw {quartiles(raw[name][side])}; scaled "
                f"{quartiles(scaled[name][side])}; over {args.pairs} sweeps of {runs} runs"
            )
        parent, change = scaled[name]["parent"], scaled[name]["change"]
        wins = sum(c < p for p, c in zip(parent, change))
        iqr = percentile(parent, 0.75) - percentile(parent, 0.25)
        medians = statistics.median(parent), statistics.median(change)
        difference = medians[0] - medians[1]
        holds = 10 * wins >= 9 * args.pairs and difference > iqr
        print(
            f"{name} (scaled): change won {wins} of {args.pairs} pairs; {UNITS[name]} per "
            f"second {medians[0] / medians[1] - 1:+.1%}; median difference "
            f"{difference:.3f} s, parent IQR {iqr:.3f} s; "
            f"claim rule {'holds' if holds else 'does not hold'}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
