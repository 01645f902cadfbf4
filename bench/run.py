"""voipqos benchmark: one command for every workload.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark imports voipqos from
`src/` of the same checkout and drives it only through its public entry
points (`cli.main`, `harness.run`, `harness.load_scenario`,
`harness.scenario_from_json`).

--trace 0 measures the end-to-end metrics with tracing off: it times
whole rounds of operations until --seconds have passed (and always at
least every round of the workload once), then reports medians. Set-up
time is the median over fresh interpreters. Host times are reported at
reference speed: a fixed kernel interleaved with the operations
measures the host's speed around each one (hostspeed.py).

--trace 1 runs every operation of one pass twice, untraced and traced
back to back in alternating order, and reports the per-layer split of
the traced pass plus the tracing overhead. Spans are written to bench/_work/.

Every operation is checked against the digests in bench/golden.json and
against the run invariants. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
SETUP_PROBES = 15


def import_voipqos() -> None:
    """Put this checkout's sources first on the path; refuse any other copy."""
    package = SRC / "voipqos"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no voipqos sources at {package}")
    sys.path.insert(0, str(SRC))
    import voipqos

    if Path(voipqos.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported voipqos from {voipqos.__file__}, not {package}")


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """p90, or the highest lower percentile (down to p50) with ten samples beyond it."""
    return 0.9 if n >= 100 else max(0.5, 1.0 - 10.0 / n)


def setup_probe(rounds, runner):
    """A function that times one fresh interpreter's set-up and returns seconds."""
    ops = [op for ops in rounds for op in ops]
    spec = {
        "presets": sorted({op.preset for op in ops if op.preset}),
        "scenarios": [
            runner.churn_text[i]
            for i in sorted({op.churn_index for op in ops if op.churn_index is not None})
        ],
    }
    path = WORK / "setup-scenarios.json"
    path.write_text(json.dumps(spec))

    def probe() -> float:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(path)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        return float(proc.stdout.split()[-1])

    probe()  # warms the bytecode cache
    return probe


def rates(outcomes) -> tuple:
    """Simulated seconds, packets and windows per host second of returned operations."""
    ok = [o for o in outcomes if o.error is None]
    host = sum(o.host_s for o in ok)
    return (
        sum(o.sim_s for o in ok) / host,
        sum(o.packets for o in ok) / host,
        sum(o.windows for o in ok) / host,
    )


def simulated(outcomes, window_s: float) -> dict:
    """Model-time metrics over one complete execution of the workload."""
    control = [o for o in outcomes if o.error is None and o.op.mode == "control"]
    episodes = [e for o in control for e in o.summary["episodes"]]
    recovered = [e["time_to_satisfaction_s"] for e in episodes if e["satisfied"]]
    return {
        "constraints_met_frac": (
            sum(bool(o.summary["constraints_met"]) for o in control) / len(control)
            if control else 0.0
        ),
        "episode_success_frac": len(recovered) / len(episodes) if episodes else 0.0,
        # Recovery times are whole control windows; the grouped median
        # interpolates within the window that holds the middle episode.
        "recovery_p50_s": (
            statistics.median_grouped(recovered, window_s) if recovered else 0.0
        ),
    }


def timed_run(rounds, seconds: int, runner, window_s: float) -> tuple:
    from hostspeed import HostSpeed

    probe = setup_probe(rounds, runner)
    speed = HostSpeed()

    def timed(fn):
        """Run fn; return its result and the moment it was measured around."""
        before = time.perf_counter()
        result = fn()
        return result, (before + time.perf_counter()) / 2

    # Set-up probes run between the rounds of the first pass, so that they
    # sample the host's speed over the whole run rather than at its start.
    per_round = -(-SETUP_PROBES // len(rounds))
    setup = []  # (seconds, moment)
    done = []  # per round: (outcome, moment)
    start = time.perf_counter()
    i = 0
    while i < len(rounds) or time.perf_counter() - start < seconds:
        if i < len(rounds):
            for _ in range(per_round):
                setup.append(timed(probe))
                speed.account(setup[-1][0])
        outs = []
        for op in rounds[i % len(rounds)]:
            outs.append(timed(lambda: runner.run(op)))
            speed.account(outs[-1][0].host_s)
        done.append(outs)
        i += 1
        if i == len(rounds):
            # Later rounds add only the benchmark's own records, so the
            # peak is read after the first pass: the same work on every run.
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    first = [o for outs in done[: len(rounds)] for o, _ in outs]
    outcomes = [o for outs in done for o, _ in outs]
    # Every host time at reference speed (hostspeed.py), each scaled by
    # the host's speed around the moment it was measured.
    ok = [(o, o.host_s * speed.scale_at(t)) for outs in done for o, t in outs if o.error is None]
    host = [h for _, h in ok]
    total = sum(host)
    q = tail_quantile(sum(1 for o in first if o.error is None))
    metrics = {
        "setup_s": statistics.median(s * speed.scale_at(t) for s, t in setup),
        "sim_s_per_host_s": sum(o.sim_s for o, _ in ok) / total,
        "packets_per_s": sum(o.packets for o, _ in ok) / total,
        "windows_per_s": sum(o.windows for o, _ in ok) / total,
        "run_p50_s": statistics.median(host),
        "run_p90_s": percentile(host, q),
        "peak_mem_mb": peak_kb / 1024.0,
        "success_frac": 1.0 - sum(o.failed for o in outcomes) / len(outcomes),
        **simulated(first, window_s),
    }
    raw_host = [o.host_s for o, _ in ok]
    sim_rate, packet_rate, window_rate = rates(outcomes)
    info = {
        "rounds": len(done),
        "round_sim_s_per_host_s": [round(rates([o for o, _ in outs])[0], 3) for outs in done],
        "samples": len(host),
        "tail_percentile": round(q * 100, 1),
        "setup_samples_s": [s for s, _ in setup],
        "error_rate": sum(o.failed for o in outcomes) / len(outcomes),
        "host_speed_scale": total / sum(raw_host),
        "reference_samples": len(speed.took),
        "reference_share": speed.sampled_s / (time.perf_counter() - start),
        "raw.setup_s": statistics.median(s for s, _ in setup),
        "raw.sim_s_per_host_s": sim_rate,
        "raw.packets_per_s": packet_rate,
        "raw.windows_per_s": window_rate,
        "raw.run_p50_s": statistics.median(raw_host),
        "raw.run_p90_s": percentile(raw_host, q),
    }
    return outcomes, metrics, info


def traced_run(rounds, runner, spans_path: Path) -> tuple:
    from ops import NETSIM_COUNTS
    from tracer import Tracer

    tracer = Tracer()

    def traced_op(fn):
        tracer.op_id += 1
        return tracer.span("bench.op", fn)

    # Each operation runs untraced and traced back to back, in alternating
    # order, so both sides of the overhead see the same host speed.
    plain_wall = traced_wall = 0.0
    traced = []
    outcomes = []
    for k, op in enumerate(op for ops in rounds for op in ops):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                runner.wrap_op = traced_op
            start = time.perf_counter()
            outcome = runner.run(op)
            wall = time.perf_counter() - start
            if with_trace:
                tracer.uninstall()
                runner.wrap_op = lambda fn: fn
                traced_wall += wall
                traced.append(outcome)
            else:
                plain_wall += wall
            outcomes.append(outcome)
    tracer.write_spans(str(spans_path))

    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    ok = [o for o in traced if o.error is None]
    netsim = Counter()
    transitions = Counter()
    for o in ok:
        netsim.update(o.netsim)
        transitions.update(o.transitions)
    applied = calls["actions.apply"] - counts["actions.apply.failed"]
    metrics = {
        "netsim.advance.self_s": self_s["netsim.advance"],
        "netsim.advance.calls": calls["netsim.advance"],
        "netsim.measure.s": self_s["netsim.measure"],
        "netsim.measure.calls": calls["netsim.measure"],
        "netsim.ns_per_packet": (
            self_s["netsim.advance"] / netsim["packets_sent"] * 1e9
            if netsim["packets_sent"] else 0.0
        ),
        **{f"netsim.{k}": netsim[k] for k in NETSIM_COUNTS},
        "controller.on_window.self_s": self_s["controller.on_window"],
        "controller.on_window.calls": calls["controller.on_window"],
        "controller.coordinate.calls": counts["controller.coordinate.calls"],
        **{f"controller.transitions.{k}": transitions[k] for k in ("d1", "d2", "d3")},
        "knowledge.select.s": self_s["knowledge.select"],
        "knowledge.select.calls": calls["knowledge.select"],
        "knowledge.acquire.s": self_s["knowledge.acquire"],
        "knowledge.acquire.calls": calls["knowledge.acquire"],
        "knowledge.refine.s": self_s["knowledge.refine"],
        "knowledge.refine.calls": calls["knowledge.refine"],
        "knowledge.refine.changed_frac": (
            counts["knowledge.refine.changed"] / calls["knowledge.refine"]
            if calls["knowledge.refine"] else 0.0
        ),
        "actions.apply.s": self_s["actions.apply"],
        "actions.apply.calls": calls["actions.apply"],
        "actions.apply.failed": counts["actions.apply.failed"],
        "actions.apply.noop_frac": counts["actions.apply.noop"] / applied if applied else 0.0,
        "actions.stop.s": self_s["actions.stop"],
        "actions.stop.calls": calls["actions.stop"],
        "metrics.estimate_mos.calls": counts["metrics.estimate_mos.calls"],
        "harness.default_kb.s": self_s["harness.default_kb"],
        "harness.build_world.s": self_s["harness.build_world"],
        "harness.write_outputs.s": self_s["harness.write_outputs"],
        "harness.artifact_bytes": sum(o.artifact_bytes for o in ok),
        "harness.calibrate.s": self_s["harness.calibrate"],
        "harness.run.self_s": self_s["harness.run"],
        "cli.main.self_s": self_s["cli.main"],
        "bench.op.self_s": self_s["bench.op"],
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
        "trace.residual_s": traced_wall - sum(self_s.values()),
    }
    info = {
        "rounds": len(rounds),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "error_rate": sum(o.failed for o in outcomes) / len(outcomes),
    }
    return outcomes, metrics, info


def failure_causes(outcomes) -> dict:
    """Distinct failures by cause, each with how often and one operation."""
    causes = {}
    for o in outcomes:
        error = [f"{o.error} (raised at {o.raised_at})"] if o.error else []
        for reason in error + o.breaches + ([o.mismatch] if o.mismatch else []):
            kind = reason.split(":", 1)[0]
            entry = causes.setdefault(kind, {"count": 0, "example": f"{o.op.key}: {reason}"})
            entry["count"] += 1
    return causes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_voipqos()
    from voipqos import harness
    from ops import Runner
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    golden = json.loads((BENCH / "golden.json").read_text())[args.workload]
    rounds = WORKLOADS[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    with Runner(str(WORK / f"artifacts-{tag}"), golden) as runner:
        runner.prepare([op for ops in rounds for op in ops])
        if args.trace:
            outcomes, values, info = traced_run(rounds, runner, WORK / f"spans-{tag}.csv")
        else:
            outcomes, values, info = timed_run(rounds, args.seconds, runner, harness.WINDOW_S)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": all(o.mismatch is None for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    info["failures"] = failure_causes(outcomes)
    (WORK / f"result-{tag}.json").write_text(
        json.dumps({"info": info, **result}, indent=2, sort_keys=True)
    )
    for m in wanted:
        print(f"{args.workload:20s} {m['name']:32s} {values[m['name']]:14.6g} {m['unit']}")
    for key in sorted(k for k in info if k != "failures"):
        print(f"{args.workload:20s} {key:32s} {info[key]}")
    for kind, entry in sorted(info["failures"].items()):
        print(f"{args.workload:20s} failure {kind} x{entry['count']}: {entry['example']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
