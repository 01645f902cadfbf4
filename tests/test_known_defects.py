"""Known defects whose mends change fixed-seed outputs.

Each test asserts what the mended code does and is a strict xfail: it
fails today, and the change that mends the defect (re-recording
bench/golden.json, since the outputs move) must flip it to a plain test.
ROADMAP item 1 describes the defects and their mends.
"""
import copy
import json
import sys
from pathlib import Path

import pytest

from voipqos import harness
from voipqos.knowledge import KnowledgeError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import churn_json  # noqa: E402


@pytest.mark.xfail(
    strict=True,
    raises=KnowledgeError,
    reason="d3 selects from the newly detected case but acquires in the episode's",
)
def test_two_call_churn_control_run_returns():
    scenario = harness.scenario_from_json(json.loads(churn_json(1)))
    assert len(scenario.calls) == 2
    art = harness.run(scenario, seed=1, mode="control")
    assert art.summary["trace_errors"] == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="control mode closes a call before the controller samples its last window",
)
def test_control_mode_samples_every_window():
    scenario = harness.load_scenario("table1-s1")
    windows = {
        mode: harness.run(scenario, seed=0, mode=mode).summary["calls"]["call-1"]["windows"]
        for mode in ("baseline", "control")
    }
    assert windows == {"baseline": 6, "control": 6}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a call without end_s sends one more burst, at the scenario's end",
)
def test_omitted_end_s_sends_what_end_s_at_duration_sends():
    data = copy.deepcopy(harness.PRESETS["table4-red-1k"])
    omitted = harness.run(harness.scenario_from_json(data), seed=0, mode="baseline")
    data["calls"][0]["end_s"] = data["duration_s"]
    explicit = harness.run(harness.scenario_from_json(data), seed=0, mode="baseline")
    sent = [art.summary["calls"]["call-1"]["packets_sent"] for art in (omitted, explicit)]
    assert sent == [1500, 1500]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="apply_action and stop_action record the flow id as the call id",
)
def test_every_transition_carries_a_call_id():
    scenario = harness.load_scenario("fig7-multicall")
    art = harness.run(scenario, seed=0, mode="control")
    kinds = {tr.kind for tr in art.controller.transitions}
    assert kinds == {"d1", "d2", "d3"}
    call_ids = {call.call_id for call in scenario.calls}
    assert {tr.call_id for tr in art.controller.transitions} == call_ids


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the calibrate summary reports a revision that calibration never bumps",
)
def test_calibrate_summary_says_something():
    assert harness.run(None, seed=0, mode="calibrate").summary != {"revision": 0}
