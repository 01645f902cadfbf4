"""Command-line entry point for scenario runs."""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import harness


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voipqos",
        description="Closed-loop QoS control runs over a simulated VoIP path",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute one scenario run")
    run_p.add_argument(
        "--scenario",
        help="preset name or path to a scenario JSON file (control and baseline modes)",
    )
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--mode", choices=["calibrate", "control", "baseline"], default="control"
    )
    run_p.add_argument(
        "--learning",
        choices=["on", "off"],
        default=None,
        help="replaces the scenario's learning flag",
    )
    run_p.add_argument("--out", default=None, help="output directory for artifacts")
    sub.add_parser("presets", help="list built-in scenario presets")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "presets":
        for name in sorted(harness.PRESETS):
            print(name)
        return 0
    # Calibration measures its own analysis-phase worlds.
    if (args.mode == "calibrate") != (args.scenario is None):
        parser.error("--scenario is required, except with --mode calibrate, which takes none")
    if args.learning is not None and args.mode != "control":
        parser.error("--learning applies only to --mode control, which runs the controller")
    try:
        scenario = None if args.scenario is None else harness.load_scenario(args.scenario)
        if args.learning is not None:
            scenario = dataclasses.replace(scenario, learning=args.learning == "on")
        # harness.run makes --out before any work, so an unusable one fails at once.
        artifacts = harness.run(scenario, seed=args.seed, mode=args.mode, out_dir=args.out)
    except (harness.ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(artifacts.summary, indent=2, sort_keys=True))
    if args.mode == "control" and not artifacts.summary.get("constraints_met", False):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
