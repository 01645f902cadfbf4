"""Acceptance gate: one test per system-level criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or on
failure) and asserts the same condition, so the suite doubles as a
checklist of the system-level behaviors (1, 2, 4 and 5 on seeds 0-9):

1. buffer sizing trades delay against loss
2. RED loss grows with background load at bounded delay
3. controlled load loses no more than guaranteed service
4. single-call closed loop ends inside constraints
5. multi-call coordination (d3) restores the global constraints
6. learned re-ranking at least halves the second episode
7. run-time re-ranking matches an exhaustive reference model
8. call-quality model anchors and monotonicity
9. configured random loss is calibrated
10. identical (scenario, seed, mode) gives byte-identical traces
11. every preset's control run yields a valid state trace
12. the closed-loop presets meet their constraints on seeds 0-5
"""
import dataclasses
import itertools

import pytest

from voipqos import harness
from voipqos.controller import validate_trace
from voipqos.knowledge import ScenarioCase
from voipqos.metrics import estimate_mos, mos_from_rating, satisfies
from voipqos import netsim


def _check(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


def _baseline(name, seed=0):
    return harness.run(harness.load_scenario(name), seed=seed, mode="baseline")


def _control(name, seed=0, learning=None):
    scenario = harness.load_scenario(name)
    if learning is not None:
        scenario = dataclasses.replace(scenario, learning=learning)
    return harness.run(scenario, seed=seed, mode="control")


@pytest.mark.parametrize("seed", range(10))
def test_01_buffer_tradeoff(seed):
    s1 = _baseline("table1-s1", seed).summary["calls"]["call-1"]
    s2 = _baseline("table1-s2", seed).summary["calls"]["call-1"]
    ok = (
        s1["avg_delay_ms"] >= 2.0 * s2["avg_delay_ms"]
        and s2["avg_loss"] >= 0.01
        and s1["avg_loss"] == 0.0
    )
    _check(
        "buffer trade-off: large buffer doubles delay, small buffer loses packets",
        ok,
        f"delay {s1['avg_delay_ms']:.0f} vs {s2['avg_delay_ms']:.0f} ms, "
        f"loss {s1['avg_loss']:.3f} vs {s2['avg_loss']:.3f}",
    )


@pytest.mark.parametrize("seed", range(10))
def test_02_red_congestion_trend(seed):
    light = _baseline("table4-red-1k", seed).summary["calls"]["call-1"]
    heavy = _baseline("table4-red-10k", seed).summary["calls"]["call-1"]
    ok = (
        heavy["avg_loss"] > light["avg_loss"]
        and light["avg_delay_ms"] <= 100.0
        and heavy["avg_delay_ms"] <= 100.0
    )
    _check(
        "RED trend: tenfold background raises loss while delay stays <= 100 ms",
        ok,
        f"loss {light['avg_loss']:.3f} -> {heavy['avg_loss']:.3f}, "
        f"delay {light['avg_delay_ms']:.0f} / {heavy['avg_delay_ms']:.0f} ms",
    )


def test_03_service_class_ordering():
    results = {}
    for variant in ("s3", "s4"):
        wins = 0
        for seed in range(10):
            cl = _baseline(f"fig5-{variant}-controlled", seed).summary["calls"][
                "call-1"
            ]["avg_loss"]
            g = _baseline(f"fig5-{variant}-guaranteed", seed).summary["calls"][
                "call-1"
            ]["avg_loss"]
            wins += cl <= g
        results[variant] = wins
    ok = all(w >= 9 for w in results.values())
    _check(
        "service classes: controlled load loses no more than guaranteed (9/10 seeds)",
        ok,
        f"wins s3={results['s3']}/10 s4={results['s4']}/10",
    )


@pytest.mark.parametrize("seed", range(10))
def test_04_single_call_closed_loop(seed):
    art = _control("table7-singlecall", seed)
    call = art.summary["calls"]["call-1"]
    constraints = art.scenario.constraints
    within = (
        call["avg_delay_ms"] <= constraints.delay_max_ms
        and call["avg_loss"] <= constraints.loss_max
        and call["avg_mos"] >= constraints.mos_min
    )
    closed = [e for e in art.summary["episodes"] if e["satisfied_ms"] is not None]
    assert closed, "no episode ever closed"
    convergence_s = max(e["satisfied_ms"] for e in closed) / 1000.0
    tail = [
        row
        for row in art.timeseries
        if row[1] == "call-1" and row[0] > convergence_s
    ]
    sat = sum(
        1
        for row in tail
        if row[2] <= constraints.delay_max_ms
        and row[3] <= constraints.loss_max
        and row[4] >= constraints.mos_min
    )
    frac = sat / len(tail) if tail else 0.0
    ok = within and frac >= 0.80
    _check(
        "single-call closed loop: run average within constraints, "
        ">= 80% post-convergence windows satisfied",
        ok,
        f"delay {call['avg_delay_ms']:.0f} ms, loss {call['avg_loss']:.3f}, "
        f"mos {call['avg_mos']:.2f}, tail satisfaction {frac:.2f}",
    )


@pytest.mark.parametrize("seed", range(10))
def test_05_multi_call_coordination(seed):
    art = _control("fig7-multicall", seed)
    ctrl = art.controller
    d3 = [
        t
        for t in ctrl.transitions
        if t.kind == "d3" and not t.noop and "exhausted" not in t.cause
    ]
    last_d3_s = max(t.at_ms for t in d3) / 1000.0 if d3 else float("inf")
    post = [row for row in art.timeseries if row[1] == "__global__" and row[0] > last_d3_s]
    assert post, "no post-coordination global samples"
    mean_loss = sum(r[3] for r in post) / len(post)
    mean_mos = sum(r[4] for r in post) / len(post)
    ok = bool(d3) and mean_loss <= 0.05 and mean_mos >= 2.0
    _check(
        "multi-call coordination: d3 fires and restores the global constraints",
        ok,
        f"{len(d3)} d3 transitions, post loss {mean_loss:.3f}, post mos {mean_mos:.2f}",
    )


def test_06_learning_convergence():
    art = _control("fig10-learning", learning=True)
    episodes = [e for e in art.summary["episodes"] if e["satisfied_ms"] is not None]
    by_call = {e["call_id"]: e for e in episodes}
    assert "call-1" in by_call and "call-2" in by_call, episodes
    e1, e2 = by_call["call-1"], by_call["call-2"]
    t1 = e1["time_to_satisfaction_s"]
    t2 = e2["time_to_satisfaction_s"]
    top = art.kb.entries(ScenarioCase.CASE2)[0].action.name
    rank_ok = e2["actions"][0] == e1["final_action"] and top == e1["final_action"]
    ok = t2 <= 0.5 * t1 and rank_ok
    _check(
        "learning: second identical episode resolves in half the time, "
        "with the learned action at rank 1",
        ok,
        f"episode times {t1:.0f}s -> {t2:.0f}s, learned action {e1['final_action']}",
    )


def test_07_refinement_reference_equivalence():
    # The exhaustive comparison itself lives in test_knowledge; here it
    # runs as the gate criterion with its runtime budget.
    import time

    from test_knowledge import _grid_cases, _reference_refine, CASE
    from voipqos.actions import ActionId
    from voipqos.knowledge import KnowledgeBase, refine

    start = time.monotonic()
    mismatches = 0
    total = 0
    for n in (1, 2, 3, 4):
        for names, pens, current in _grid_cases(n):
            kb = KnowledgeBase()
            for name in names:
                kb.add_entry(CASE, ActionId(name), pens[name] * 180.0, 0.0)

            refine(kb, CASE, ActionId(current))
            got = {e.action.kind: e.rank for e in kb.entries(CASE)}
            if got != _reference_refine(names, pens, current):
                mismatches += 1
            else:
                # Converged tables must be fixed points.
                refine(kb, CASE, ActionId(current))
                if got != {e.action.kind: e.rank for e in kb.entries(CASE)}:
                    mismatches += 1
            total += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 10.0
    _check(
        "re-ranking matches the exhaustive reference model and is idempotent",
        ok,
        f"{total} tables, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_08_quality_model_anchors():
    anchors = (
        mos_from_rating(0.0) == 1.0
        and mos_from_rating(100.0) == 4.5
        and 4.3 <= estimate_mos(0.0, 0.0) <= 4.5
    )
    monotone = True
    delays = [d * 10.0 for d in range(0, 41)]
    losses = [p / 50.0 for p in range(0, 51)]
    for loss in losses:
        vals = [estimate_mos(d, loss) for d in delays]
        monotone &= all(a >= b for a, b in zip(vals, vals[1:]))
    for delay in delays:
        vals = [estimate_mos(delay, p) for p in losses]
        monotone &= all(a >= b for a, b in zip(vals, vals[1:]))
    ok = anchors and monotone
    _check(
        "quality model: exact floor/ceiling anchors, monotone over the grid",
        ok,
        f"clean-call mos {estimate_mos(0.0, 0.0):.3f}",
    )


def test_09_loss_calibration():
    world = netsim.SimWorld(
        netsim.LinkConfig(latency_ms=5.0, loss_rate=0.30, capacity_kbps=10_000.0),
        netsim.QueueConfig(capacity_pkts=1000),
        seed=7,
    )
    world.add_flow(netsim.MediaFlow("m", packet_interval_ms=2.0))
    world.advance(40_000.0)
    t = world.totals("m")
    resolved = t.delivered + t.dropped
    measured = t.dropped_link / resolved
    ok = resolved >= 10_000 and abs(measured - 0.30) <= 0.015
    _check(
        "loss calibration: configured 0.30 measures within 1.5 points",
        ok,
        f"measured {measured:.4f} over {resolved} packets",
    )


def test_10_trace_determinism(tmp_path):
    blobs = {}
    for mode, name in (("baseline", "table4-red-10k"), ("control", "fig7-multicall")):
        # One scenario object for both runs: a run must not change it.
        scenario = harness.load_scenario(name)
        pair = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            harness.run(scenario, seed=0, mode=mode, out_dir=str(out))
            pair.append((out / "trace.csv").read_bytes())
        blobs[name] = pair
    ok = all(a == b and len(a) > 0 for a, b in blobs.values())
    _check(
        "determinism: repeated (scenario, seed, mode) runs emit byte-identical traces",
        ok,
        ", ".join(f"{k}: {len(v[0])} bytes" for k, v in blobs.items()),
    )


def test_11_trace_validity_all_presets():
    failures = []
    for name in sorted(harness.PRESETS):
        art = _control(name)
        errors = validate_trace(art.controller)
        if errors:
            failures.append((name, errors))
    _check(
        "trace validity: state machines of all preset control runs check out",
        not failures,
        "; ".join(f"{n}: {e}" for n, e in failures) or f"{len(harness.PRESETS)} presets",
    )


CLOSED_LOOP_PRESETS = (
    "table7-singlecall",
    "fig7-multicall",
    "fig10-learning",
    "video-loss-sweep",
)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", CLOSED_LOOP_PRESETS)
def test_12_closed_loop_across_seeds(name, seed):
    summary = _control(name, seed).summary
    _check(
        f"closed loop across seeds: {name} meets its constraints with a valid trace",
        summary["constraints_met"] and not summary["trace_errors"],
        f"seed {seed}, trace errors {summary['trace_errors']}",
    )
