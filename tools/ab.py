"""In-process A/B timing of two voipqos source trees.

usage: python tools/ab.py --parent DIR --change DIR [--pairs N]

Each DIR holds a `voipqos` package (a checkout's `src`). The two trees are
imported into one interpreter as two packages, `voipqos_parent` and
`voipqos_change`, so both sides share the host's speed at each moment. A
pair runs every preset in control and baseline mode at seed 0 on both
sides, each run of one side right after the same run of the other, and
alternates from pair to pair which side runs first. Every pair of runs
must return identical outputs: the summary, the knowledge base a control
run ends with, and the timeseries. They are compared outside the timing.
Before the pairs, each side writes the artifacts of one traced control
run of TRACED_PRESET, trace.csv included, and every file must be
byte-equal across the two sides.

Prints each pair's two sweep times, then each side's median and
quartiles, the change's wins (ties count for neither), and the medians'
difference beside the parent's interquartile range. The simulated work
of both sides is identical, so the change's gain in packets per second
is the parent's median time over the change's, less one.
"""
import argparse
import gc
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from run import percentile  # noqa: E402

SIDES = ("parent", "change")
MODES = ("control", "baseline")
# Its trace.csv holds media and background rows and queue drops.
TRACED_PRESET = "table4-red-10k"


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


def timed_run(harness, preset: str, mode: str):
    """Seconds of one run, and each of its outputs as canonical JSON."""
    scenario = harness.load_scenario(preset)
    gc.collect()
    start = time.perf_counter()
    artifacts = harness.run(scenario, seed=0, mode=mode)
    elapsed = time.perf_counter() - start
    outputs = {
        "summary": artifacts.summary,
        "knowledge base": None if artifacts.kb is None else artifacts.kb.to_json(),
        "timeseries": artifacts.timeseries,
    }
    return elapsed, {name: json.dumps(v, sort_keys=True) for name, v in outputs.items()}


def traced_artifacts(harness, out_dir: Path) -> dict:
    """The bytes of each artifact of one traced control run, by file name."""
    scenario = harness.load_scenario(TRACED_PRESET)
    harness.run(scenario, seed=0, mode="control", out_dir=str(out_dir))
    return {path.name: path.read_bytes() for path in out_dir.iterdir()}


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {
        "parent": import_tree(args.parent.resolve(), "voipqos_parent"),
        "change": import_tree(args.change.resolve(), "voipqos_change"),
    }
    presets = sorted(trees["parent"].PRESETS)
    if presets != sorted(trees["change"].PRESETS):
        raise SystemExit("error: the two trees define different presets")
    with tempfile.TemporaryDirectory() as tmp:
        files = {side: traced_artifacts(trees[side], Path(tmp, side)) for side in SIDES}
    names = files["parent"].keys() | files["change"].keys()
    differ = sorted(n for n in names if files["parent"].get(n) != files["change"].get(n))
    if differ:
        raise SystemExit(f"error: {TRACED_PRESET} artifacts differ: {', '.join(differ)}")
    runs = [(preset, mode) for mode in MODES for preset in presets]
    times = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        total = dict.fromkeys(SIDES, 0.0)
        for preset, mode in runs:
            outputs = {}
            for side in order:
                elapsed, outputs[side] = timed_run(trees[side], preset, mode)
                total[side] += elapsed
            differ = [n for n in outputs["parent"] if outputs["parent"][n] != outputs["change"][n]]
            if differ:
                raise SystemExit(f"error: {preset} {mode}: outputs differ: {', '.join(differ)}")
        for side in SIDES:
            times[side].append(total[side])
        print(
            f"pair {pair + 1} ({order[0]} first): parent {total['parent']:.3f} s, "
            f"change {total['change']:.3f} s",
            flush=True,
        )
    medians = {}
    for side in SIDES:
        medians[side] = statistics.median(times[side])
        print(
            f"{side}: median {medians[side]:.3f} s, quartiles "
            f"{percentile(times[side], 0.25):.3f}-{percentile(times[side], 0.75):.3f} s "
            f"over {args.pairs} sweeps of {len(runs)} runs"
        )
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    iqr = percentile(times["parent"], 0.75) - percentile(times["parent"], 0.25)
    print(
        f"change won {wins} of {args.pairs} pairs; packets per second "
        f"{medians['parent'] / medians['change'] - 1:+.1%}; median difference "
        f"{medians['parent'] - medians['change']:.3f} s, parent IQR {iqr:.3f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
