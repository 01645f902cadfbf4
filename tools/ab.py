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
library runs of preset-sweep); the churn sample, the one-call
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

Prints each pair's two times for each sample, then, for each sample on
its own lines, each side's median and quartiles, the change's wins (ties
count for neither), and the medians' difference beside the parent's
interquartile range (IQR), and whether the claim rule holds: the change
wins at least nine tenths of the pairs and the medians' difference
exceeds the parent's IQR. The simulated work of both sides is identical,
so the change's gain in packets (or windows) per second is the parent's
median time over the change's, less one.
"""
import argparse
import multiprocessing
import statistics
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from run import percentile  # noqa: E402  (bench/run.py imports no voipqos on import)

SIDES = ("parent", "change")
# Generated control-churn indices: even ones have one call and run to the
# end (odd ones raise a recorded KnowledgeError).
CHURN_SAMPLE = tuple(range(0, 40, 2))
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


def time_pair(workers: dict, samples: dict, pair: int) -> dict:
    """{sample: (runs, {side: seconds})} of one pair; operation i runs the
    parent first when pair + i is even. Stops on a failed run or differing
    outputs."""
    result = {}
    for name, ops in samples.items():
        total = dict.fromkeys(SIDES, 0.0)
        for i, fields in enumerate(ops):
            key, digests = fields[0], {}
            for side in SIDES if (pair + i) % 2 == 0 else SIDES[::-1]:
                seconds, failure, digests[side] = workers[side].submit(run_op, fields).result()
                if failure is not None:
                    raise SystemExit(f"error: {key}: {side}: {failure}")
                total[side] += seconds
            parent, change = digests["parent"], digests["change"]
            differ = sorted(n for n in parent.keys() | change.keys() if parent.get(n) != change.get(n))
            if differ:
                raise SystemExit(f"error: {key}: outputs differ: {', '.join(differ)}")
        result[name] = (len(ops), total)
    return result


def run_pair(srcs: dict, pair: int) -> dict:
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
            return time_pair(workers, samples["parent"], pair)
        finally:
            for pool in workers.values():
                pool.shutdown()


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
    times = {name: {side: [] for side in SIDES} for name in UNITS}
    runs_of = {}
    for pair in range(args.pairs):
        line = []
        for name, (runs, total) in run_pair(srcs, pair).items():
            runs_of[name] = runs
            for side in SIDES:
                times[name][side].append(total[side])
            line.append(f"{name} parent {total['parent']:.3f} s, change {total['change']:.3f} s")
        print(f"pair {pair + 1}: {'; '.join(line)}", flush=True)
    for name, runs in runs_of.items():
        sample_times = times[name]
        medians = {}
        for side in SIDES:
            medians[side] = statistics.median(sample_times[side])
            print(
                f"{name}, {side}: median {medians[side]:.3f} s, quartiles "
                f"{percentile(sample_times[side], 0.25):.3f}-"
                f"{percentile(sample_times[side], 0.75):.3f} s "
                f"over {args.pairs} sweeps of {runs} runs"
            )
        parent = sample_times["parent"]
        wins = sum(c < p for p, c in zip(parent, sample_times["change"]))
        iqr = percentile(parent, 0.75) - percentile(parent, 0.25)
        difference = medians["parent"] - medians["change"]
        holds = 10 * wins >= 9 * args.pairs and difference > iqr
        print(
            f"{name}: change won {wins} of {args.pairs} pairs; {UNITS[name]} per second "
            f"{medians['parent'] / medians['change'] - 1:+.1%}; median difference "
            f"{difference:.3f} s, parent IQR {iqr:.3f} s; "
            f"claim rule {'holds' if holds else 'does not hold'}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
