"""A/B timing of two voipqos source trees, one fresh interpreter per pair.

usage: python tools/ab.py --parent DIR --change DIR [--pairs N]

Each DIR holds a `voipqos` package (a checkout's `src`). Each pair runs in
a fresh interpreter that imports both trees as two packages,
`voipqos_parent` and `voipqos_change`, so both sides share the host's
speed at each moment. Which tree is imported first alternates from pair
to pair, since the first-imported tree can run a few percent faster; no
pair inherits the heap or the caches of the one before. A pair times
three samples on both sides: the presets, every preset in
control and baseline mode at seed 0; the churn sample, the one-call
control-churn scenarios of CHURN_SAMPLE, each at its index as seed, as
the benchmark runs them, from the text that `bench/workloads.py` of this
checkout generates; and the traced sample, a control run at seed 0 of
each of TRACED_PRESETS that writes its artifacts, trace.csv included, to
a fresh directory. The presets spend nearly all their time in the event
loop; the churn sample is where the controller and knowledge base take a
visible share; the traced sample adds the writing of trace.csv, as the
benchmark's multicall-artifacts workload does. Each run of one side comes
right after the same run of the other, and which side runs first
alternates every two pairs, so that four pairs take each import order
with each run order. Every pair of runs must return identical
outputs: the summary, the knowledge base a control run ends with, the
timeseries, and a control run's transitions and call states; in the
traced sample, every artifact file must also be byte-equal. They are
compared outside the timing.

Prints each pair's two times for each sample, then, for each sample on
its own lines, each side's median and quartiles, the change's wins (ties
count for neither), and the medians' difference beside the parent's
interquartile range. The simulated work of both sides is identical, so
the change's gain in packets (or windows) per second is the parent's
median time over the change's, less one.
"""
import argparse
import gc
import importlib
import importlib.util
import json
import multiprocessing
import statistics
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from run import import_voipqos, percentile  # noqa: E402

# The churn sample's scenario text comes from the benchmark's generator,
# which imports this checkout's voipqos.
import_voipqos()

from workloads import churn_json  # noqa: E402

SIDES = ("parent", "change")
MODES = ("control", "baseline")
# Generated control-churn indices: even ones have one call and run to the
# end (odd ones raise a recorded KnowledgeError).
CHURN_SAMPLE = tuple(range(0, 40, 2))
# The presets of the multicall-artifacts workload. table4-red-10k's
# trace.csv holds media and background rows and queue drops; fig7's ends
# with rows logged when its calls close, after the last advance.
TRACED_PRESETS = ("fig7-multicall", "table4-red-10k")


def import_tree(src: Path, name: str):
    """The harness module of the voipqos package in src, imported as `name`."""
    package = src / "voipqos"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no voipqos sources at {package}")
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.harness")


def preset_runs(presets, modes):
    """(label, mode, seed, scenario loader) of each preset in each mode."""
    return [
        (f"{preset} {mode}", mode, 0, lambda harness, p=preset: harness.load_scenario(p))
        for mode in modes for preset in presets
    ]


def churn_runs():
    """(label, mode, seed, scenario loader) of the churn sample."""
    return [
        (f"churn-{index}", "control", index,
         lambda harness, text=churn_json(index): harness.scenario_from_json(json.loads(text)))
        for index in CHURN_SAMPLE
    ]


def timed_run(harness, scenario, seed: int, mode: str, out_dir: Optional[Path]):
    """Seconds of one run, which writes its artifacts if out_dir is set, and
    each of its outputs as canonical JSON."""
    # As the benchmark's runner does: collect what the previous run left,
    # then freeze what survives (the two trees and the tool's own data) so
    # that the run's collections skip it.
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    artifacts = harness.run(
        scenario, seed=seed, mode=mode, out_dir=None if out_dir is None else str(out_dir)
    )
    elapsed = time.perf_counter() - start
    ctrl = artifacts.controller
    outputs = {
        "summary": artifacts.summary,
        "knowledge base": None if artifacts.kb is None else artifacts.kb.to_json(),
        "timeseries": artifacts.timeseries,
        "transitions": None if ctrl is None else [
            (t.kind, t.cause, t.at_ms, t.call_id, t.noop) for t in ctrl.transitions
        ],
        # The rows of states.csv, unrounded.
        "states": None if ctrl is None else [
            (
                call.call_id, s.state_id, s.entering, s.opened_at_ms, s.closed_at_ms,
                s.avg_delay_ms, s.avg_loss, None if s.sample is None else s.sample.mos,
                None if s.category is None else s.category.name,
            )
            for call in ctrl.calls.values() for s in call.states
        ],
    }
    return elapsed, {name: json.dumps(v, sort_keys=True) for name, v in outputs.items()}


def differing_artifacts(parent: Path, change: Path) -> list:
    """The names of the artifact files that are not byte-equal in the two
    directories, or that only one of them holds."""
    files = [{path.name: path.read_bytes() for path in d.iterdir()} for d in (parent, change)]
    names = files[0].keys() | files[1].keys()
    return sorted(n for n in names if files[0].get(n) != files[1].get(n))


def run_pair(srcs: dict, imports: tuple, runs_first: tuple) -> dict:
    """Time one pair in this interpreter: import the trees in the order of
    `imports`, then time each sample's runs on both sides, in the order of
    `runs_first`, checking that every pair of runs gives equal outputs.
    Returns {sample: (runs, unit, {side: seconds})}."""
    trees = {side: import_tree(srcs[side], f"voipqos_{side}") for side in imports}
    presets = sorted(trees["parent"].PRESETS)
    if presets != sorted(trees["change"].PRESETS):
        raise SystemExit("error: the two trees define different presets")
    # name: (runs, what the rate counts, whether the runs write artifacts)
    samples = {
        "presets": (preset_runs(presets, MODES), "packets", False),
        "churn sample": (churn_runs(), "windows", False),
        "traced": (preset_runs(TRACED_PRESETS, ("control",)), "packets", True),
    }
    result = {}
    for name, (runs, unit, traced) in samples.items():
        total = dict.fromkeys(SIDES, 0.0)
        for label, mode, seed, load in runs:
            outputs = {}
            with tempfile.TemporaryDirectory() as tmp:
                out_dirs = {side: Path(tmp, side) if traced else None for side in SIDES}
                for side in runs_first:
                    scenario = load(trees[side])
                    elapsed, outputs[side] = timed_run(
                        trees[side], scenario, seed, mode, out_dirs[side]
                    )
                    total[side] += elapsed
                differ = [
                    n for n in outputs["parent"]
                    if outputs["parent"][n] != outputs["change"][n]
                ]
                if traced:
                    differ += differing_artifacts(out_dirs["parent"], out_dirs["change"])
            if differ:
                raise SystemExit(f"error: {label}: outputs differ: {', '.join(differ)}")
        result[name] = (len(runs), unit, total)
    return result


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    srcs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spawn = multiprocessing.get_context("spawn")
    times, runs_of = {}, {}
    for pair in range(args.pairs):
        imports = SIDES if pair % 2 == 0 else SIDES[::-1]
        runs_first = SIDES if pair // 2 % 2 == 0 else SIDES[::-1]
        with ProcessPoolExecutor(1, mp_context=spawn) as pool:
            result = pool.submit(run_pair, srcs, imports, runs_first).result()
        line = []
        for name, (runs, unit, total) in result.items():
            runs_of[name] = (runs, unit)
            for side in SIDES:
                times.setdefault(name, {s: [] for s in SIDES})[side].append(total[side])
            line.append(f"{name} parent {total['parent']:.3f} s, change {total['change']:.3f} s")
        print(
            f"pair {pair + 1} ({imports[0]} imported first, {runs_first[0]} runs first): "
            f"{'; '.join(line)}",
            flush=True,
        )
    for name, (runs, unit) in runs_of.items():
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
        print(
            f"{name}: change won {wins} of {args.pairs} pairs; {unit} per second "
            f"{medians['parent'] / medians['change'] - 1:+.1%}; median difference "
            f"{medians['parent'] - medians['change']:.3f} s, parent IQR {iqr:.3f} s"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
