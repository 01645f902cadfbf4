"""Controller tests: case detection, global check, episodes, trace validity."""
import dataclasses

import pytest

from voipqos import harness
from voipqos.actions import enable_red, increase_buffer
from voipqos.controller import (
    COORDINATE_COOLDOWN_WINDOWS,
    Call,
    Controller,
    check_global,
    detect_case,
    validate_trace,
)
from voipqos.harness import scenario_from_json
from voipqos.knowledge import KnowledgeBase, ScenarioCase, select_one_of
from voipqos.metrics import Constraints, HeuristicSample
from voipqos import netsim


class TestDetectCase:
    @pytest.mark.parametrize(
        "delay,loss,expected",
        [
            (50.0, 0.01, ScenarioCase.CASE1),
            (180.0, 0.05, ScenarioCase.CASE1),
            (50.0, 0.10, ScenarioCase.CASE2),
            (250.0, 0.01, ScenarioCase.CASE3),
            (250.0, 0.10, ScenarioCase.CASE4),
        ],
    )
    def test_quadrants(self, delay, loss, expected):
        assert detect_case((delay, loss)) is expected


class TestCheckGlobal:
    @staticmethod
    def _call(call_id, weight, delay, loss):
        call = Call(call_id, f"flow-{call_id}", weight=weight)
        call.sample = HeuristicSample.from_measurement(delay, loss)
        return call

    def test_weighted_delay_mean(self):
        calls = [self._call("a", 2.0, 50.0, 0.0), self._call("b", 1.0, 200.0, 0.0)]
        ok, means = check_global(calls)
        assert means["delay_ms"] == pytest.approx((2 * 50 + 200) / 3)
        assert ok  # 100 ms mean is inside the 180 ms threshold

    def test_violation_on_mean_loss(self):
        calls = [self._call("a", 1.0, 10.0, 0.08), self._call("b", 1.0, 10.0, 0.04)]
        ok, means = check_global(calls)
        assert means["loss"] == pytest.approx(0.06)
        assert not ok

    def test_unsampled_calls_are_ignored(self):
        quiet = Call("q", "flow-q")
        ok, means = check_global([quiet])
        assert ok and means == {}

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            check_global([])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            Call("a", "flow-a", weight=0.0)


class TestRunConstraints:
    def test_selection_follows_the_controllers_constraints(self):
        # Penalties 0.56 and 0.6 under the default constraints, 2.0 and 0.6
        # under a 50 ms delay bound.
        tight = Constraints(delay_max_ms=50.0)
        kb = KnowledgeBase()
        kb.add_entry(ScenarioCase.CASE2, increase_buffer(), 100.0, 0.0)
        kb.add_entry(ScenarioCase.CASE2, enable_red(), 0.0, 0.03)
        assert select_one_of(kb, ScenarioCase.CASE2).action == increase_buffer()
        assert select_one_of(kb, ScenarioCase.CASE2, tight).action == enable_red()
        world = harness.build_world(
            scenario_from_json({"name": "one", "duration_s": 30.0, "calls": [{"call_id": "c"}]}),
            seed=0,
        )
        ctrl = Controller(world, kb, tight)
        call = ctrl.add_call("c", "flow-c")
        call.sample = HeuristicSample.from_measurement(20.0, 0.1)
        ctrl.step_call(call)
        assert call.episode.case is ScenarioCase.CASE2
        assert call.episode.tried == [enable_red()]


def _control_run(scenario, seed=0, learning=True):
    scenario = dataclasses.replace(scenario, learning=learning)
    return harness.run(scenario, seed=seed, mode="control")


class TestEpisodeLoop:
    def test_link_loss_violation_starts_and_closes_episode(self):
        scenario = scenario_from_json({
            "name": "loss-step",
            "duration_s": 120.0,
            "link": {"latency_ms": 20.0, "loss_rate": 0.0, "capacity_kbps": 1000.0},
            "queue": {"capacity_pkts": 100, "discipline": "tail_drop"},
            "calls": [{"call_id": "c"}],
            "timeline": [{"at_s": 20.0, "kind": netsim.SET_LOSS_RATE, "value": 0.07}],
        })
        art = _control_run(scenario)
        episodes = art.controller.episodes
        assert len(episodes) >= 1
        first = episodes[0]
        assert first.case is ScenarioCase.CASE2
        assert first.satisfied_ms is not None
        assert first.last_action is not None

    def test_network_change_opens_d1_state(self):
        scenario = scenario_from_json({
            "name": "latency-step",
            "duration_s": 60.0,
            "link": {"latency_ms": 10.0, "loss_rate": 0.0, "capacity_kbps": 1000.0},
            "queue": {"capacity_pkts": 100, "discipline": "tail_drop"},
            "calls": [{"call_id": "c"}],
            "timeline": [{"at_s": 20.0, "kind": netsim.SET_LATENCY, "value": 60.0}],
        })
        art = _control_run(scenario)
        call = art.controller.calls["c"]
        kinds = [s.entering for s in call.states]
        assert kinds[0] == "start"
        assert "d1" in kinds
        assert kinds[-1] == "goal"
        d1 = [t for t in art.controller.transitions if t.kind == "d1"]
        assert any("set_latency" in t.cause for t in d1)

    def test_healthy_call_gets_no_actions(self):
        scenario = scenario_from_json({
            "name": "clean",
            "duration_s": 60.0,
            "link": {"latency_ms": 20.0, "loss_rate": 0.0, "capacity_kbps": 1000.0},
            "queue": {"capacity_pkts": 100, "discipline": "tail_drop"},
            "calls": [{"call_id": "c"}],
        })
        art = _control_run(scenario)
        assert art.controller.episodes == []
        assert [s.entering for s in art.controller.calls["c"].states] == [
            "start",
            "goal",
        ]

    def test_learning_off_keeps_ranking(self):
        scenario = scenario_from_json({
            "name": "loss-step",
            "duration_s": 200.0,
            "link": {"latency_ms": 20.0, "loss_rate": 0.0, "capacity_kbps": 1000.0},
            "queue": {"capacity_pkts": 100, "discipline": "tail_drop"},
            "calls": [{"call_id": "c"}],
            "timeline": [{"at_s": 20.0, "kind": netsim.SET_LOSS_RATE, "value": 0.07}],
        })
        art = _control_run(scenario, learning=False)
        shipped = harness.default_kb()
        got = [e.action for e in art.kb.entries(ScenarioCase.CASE2)]
        want = [e.action for e in shipped.entries(ScenarioCase.CASE2)]
        assert got == want


class TestValidator:
    def _controller(self):
        scenario = scenario_from_json({
            "name": "clean",
            "duration_s": 30.0,
            "link": {"latency_ms": 20.0, "loss_rate": 0.0, "capacity_kbps": 1000.0},
            "queue": {"capacity_pkts": 100, "discipline": "tail_drop"},
            "calls": [{"call_id": "c"}],
        })
        return _control_run(scenario).controller

    def test_clean_run_validates(self):
        assert validate_trace(self._controller()) == []

    def test_detects_bad_first_state(self):
        ctrl = self._controller()
        ctrl.calls["c"].states[0].entering = "d2"
        assert any("first state" in e for e in validate_trace(ctrl))

    def test_detects_missing_goal(self):
        ctrl = self._controller()
        ctrl.calls["c"].states[-1].entering = "d1"
        assert any("goal" in e for e in validate_trace(ctrl))

    def test_detects_unknown_interior_transition(self):
        ctrl = self._controller()
        call = ctrl.calls["c"]
        call.states.insert(1, type(call.states[0])(99, 1000.0, "jump"))
        assert any("interior" in e for e in validate_trace(ctrl))

    def test_detects_apply_while_satisfied(self):
        ctrl = self._controller()
        ctrl.apply_checks.append(False)
        assert any("satisfied" in e for e in validate_trace(ctrl))


class TestCoordination:
    def test_two_degraded_calls_trigger_d3(self):
        scenario = harness.load_scenario("fig7-multicall")
        art = _control_run(scenario)
        ctrl = art.controller
        d3_applies = [
            t
            for t in ctrl.transitions
            if t.kind == "d3" and not t.noop and "exhausted" not in t.cause
        ]
        assert d3_applies
        # Coordination is rate limited: no two d3 rounds in consecutive windows.
        times = sorted({t.at_ms for t in d3_applies})
        gap_ms = COORDINATE_COOLDOWN_WINDOWS * harness.WINDOW_S * 1000.0
        assert all(b - a >= gap_ms for a, b in zip(times, times[1:]))
