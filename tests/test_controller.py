"""Controller tests: case detection, global check, episodes, trace validity."""
import dataclasses
import json
import sys
from pathlib import Path

import pytest

from voipqos import actions, controller, harness, knowledge
from voipqos.actions import (
    controlled_load,
    decrease_buffer,
    enable_fec,
    enable_red,
    enable_wred,
    guaranteed_load,
    increase_buffer,
)
from voipqos.controller import (
    COORDINATE_COOLDOWN_WINDOWS,
    Call,
    Controller,
    check_global,
    detect_case,
    validate_trace,
)
from voipqos.harness import scenario_from_json
from voipqos.knowledge import KnowledgeBase, ScenarioCase, select_next
from voipqos.metrics import Constraints, HeuristicSample, satisfies
from voipqos import netsim

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import churn_json  # noqa: E402

# A sample or an estimate, built as netsim builds a window's.
_h = HeuristicSample.from_measurement


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
        assert detect_case(_h(delay, loss)) is expected


class TestCheckGlobal:
    @staticmethod
    def _call(call_id, weight, delay, loss):
        call = Call(call_id, f"flow-{call_id}", weight=weight)
        call.sample = HeuristicSample.from_measurement(delay, loss)
        return call

    def test_weighted_delay_mean(self):
        calls = [self._call("a", 2.0, 50.0, 0.0), self._call("b", 1.0, 200.0, 0.0)]
        means = check_global(calls)
        ok = satisfies(means, Constraints())
        assert means.delay_ms == pytest.approx((2 * 50 + 200) / 3)
        assert ok  # 100 ms mean is inside the 180 ms threshold

    def test_violation_on_mean_loss(self):
        calls = [self._call("a", 1.0, 10.0, 0.08), self._call("b", 1.0, 10.0, 0.04)]
        means = check_global(calls)
        ok = satisfies(means, Constraints())
        assert means.loss == pytest.approx(0.06)
        assert not ok

    def test_unsampled_calls_are_ignored(self):
        quiet = Call("q", "flow-q")
        assert check_global([quiet]) is None

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            Call("a", "flow-a", weight=0.0)


class TestRunConstraints:
    def test_selection_follows_the_controllers_constraints(self):
        # Penalties 0.56 and 0.6 under the default constraints, 2.0 and 0.6
        # under a 50 ms delay bound.
        tight = Constraints(delay_max_ms=50.0)
        kb = KnowledgeBase()
        kb.add_entry(ScenarioCase.CASE2, increase_buffer(), _h(100.0, 0.0))
        kb.add_entry(ScenarioCase.CASE2, enable_red(), _h(0.0, 0.03))
        assert select_next(kb, ScenarioCase.CASE2, []).action == increase_buffer()
        assert select_next(kb, ScenarioCase.CASE2, [], tight).action == enable_red()
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

    def test_detects_a_second_close(self):
        # The harness closes each call once; close_call does not guard
        # against a second close, whose second goal state is reported.
        ctrl = self._controller()
        ctrl.close_call("c")
        assert [s.entering for s in ctrl.calls["c"].states] == ["start", "goal", "goal"]
        assert "c: terminated call must end in one goal state" in validate_trace(ctrl)


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


def _world(capacity_kbps=1000.0, calls=("c",), timeline=()):
    return harness.build_world(
        scenario_from_json({
            "name": "hand-built",
            "duration_s": 60.0,
            "link": {"latency_ms": 10.0, "loss_rate": 0.0, "capacity_kbps": capacity_kbps},
            "calls": [{"call_id": c} for c in calls],
            "timeline": list(timeline),
        }),
        seed=0,
    )


class TestSearchStep:
    """The search step's rarer branches: a refused admission, which retires
    nothing, and an episode that refusals exhaust, which no preset or churn
    scenario reaches; the order of an application and the stops it causes;
    and d3 on a call without an episode."""

    # The call's flow sends 26 kbps; guaranteed service reserves 32.5 kbps.
    SMALL_LINK_KBPS = 30.0
    LOSSY = HeuristicSample.from_measurement(20.0, 0.1)  # case 2

    def test_refused_candidate_is_tried_and_the_next_applied(self):
        kb = KnowledgeBase()
        kb.add_entry(ScenarioCase.CASE2, guaranteed_load(), _h(0.0, 0.0))
        kb.add_entry(ScenarioCase.CASE2, enable_fec(), _h(10.0, 0.01))
        ctrl = Controller(_world(self.SMALL_LINK_KBPS), kb, Constraints())
        call = ctrl.add_call("c", "flow-c")
        call.sample = self.LOSSY
        ctrl.step_call(call)
        ep = call.episode
        assert ep.tried == [guaranteed_load(), enable_fec()]
        assert ep.last_action == enable_fec() and ep.settling and not ep.exhausted
        assert [(t.kind, t.cause, t.noop) for t in ctrl.transitions] == [
            ("d2", enable_fec().name, False)
        ]
        assert [s.entering for s in call.states] == ["start", "d2"]
        assert list(ctrl.world.mechanisms) == [("flow-c", enable_fec())]
        assert ctrl.apply_checks == [True]

    def test_refused_candidate_keeps_the_calls_mechanisms(self):
        kb = KnowledgeBase()
        kb.add_entry(ScenarioCase.CASE2, guaranteed_load(), _h(0.0, 0.0))
        kb.add_entry(ScenarioCase.CASE2, enable_fec(), _h(10.0, 0.01))
        ctrl = Controller(_world(self.SMALL_LINK_KBPS), kb, Constraints())
        call = ctrl.add_call("c", "flow-c")
        actions.apply_action(ctrl.world, "flow-c", controlled_load())
        call.sample = self.LOSSY
        ctrl.step_call(call)
        # guaranteed_load is refused before anything is retired.
        assert [(t.kind, t.cause, t.noop) for t in ctrl.transitions] == [
            ("d2", enable_fec().name, False)
        ]
        assert list(ctrl.world.mechanisms) == [
            ("flow-c", controlled_load()), ("flow-c", enable_fec())
        ]
        assert ctrl.world.flows["flow-c"].cfg.service == netsim.CONTROLLED_LOAD

    @pytest.mark.parametrize(
        "held, candidate, queued, capacity",
        [(increase_buffer(), decrease_buffer(), 96, 85), (enable_red(), enable_wred(), 81, 100)],
    )
    def test_retiring_after_the_application_is_stopping_before_it(
        self, held, candidate, queued, capacity
    ):
        """A 100 kbps link with a 100-packet buffer and a 150-packet burst:
        the candidate's step ends in the world that stopping the held
        mechanism and then applying the candidate gives, queue drops included."""
        def world():
            w = netsim.SimWorld(
                netsim.LinkConfig(10.0, 0.0, 100.0), netsim.QueueConfig(capacity_pkts=100),
                trace=True,
            )
            w.add_flow(netsim.MediaFlow("m", burst_pkts=150))
            actions.apply_action(w, "m", held)
            w.advance(100.0)
            return w

        kb = KnowledgeBase()
        kb.add_entry(ScenarioCase.CASE3, candidate, _h(120.0, 0.0))
        ctrl = Controller(world(), kb, Constraints())
        call = ctrl.add_call("c", "m")
        assert ctrl.world.occupancy == queued
        call.sample = HeuristicSample.from_measurement(250.0, 0.0)  # case 3
        ctrl.step_call(call)
        assert [t.cause for t in ctrl.transitions] == [f"stop:{held.name}", candidate.name]
        twin = world()
        actions.stop_action(twin, "m", held)
        actions.apply_action(twin, "m", candidate)
        assert ctrl.world.queue == twin.queue
        assert ctrl.world.queue.capacity_pkts == capacity
        assert ctrl.world.occupancy == min(queued, capacity)
        assert ctrl.world.totals("m") == twin.totals("m")
        for w in (ctrl.world, twin):
            w.advance(1_000.0)
        assert ctrl.world.totals("m") == twin.totals("m")
        assert ctrl.world.log == twin.log

    def test_every_candidate_refused_exhausts_the_episode_once(self, monkeypatch):
        kb = KnowledgeBase()
        kb.add_entry(ScenarioCase.CASE2, guaranteed_load(), _h(0.0, 0.0))
        ctrl = Controller(_world(self.SMALL_LINK_KBPS), kb, Constraints())
        call = ctrl.add_call("c", "flow-c")
        call.sample = self.LOSSY
        ctrl.step_call(call)
        ep = call.episode
        assert ep.exhausted and ep.tried == [guaranteed_load()] and ep.last_action is None
        assert [(t.kind, t.cause) for t in ctrl.transitions] == [("d2", "episode-exhausted")]
        selections = []
        select_next = knowledge.select_next
        monkeypatch.setattr(
            knowledge, "select_next", lambda *a, **k: selections.append(a) or select_next(*a, **k)
        )
        for _ in range(3):
            ctrl.step_call(call)
        assert selections == []
        assert call.episode is ep and len(ctrl.transitions) == 1
        assert ctrl.world.mechanisms == {}

    def test_d3_opens_an_episode_under_the_detected_case(self):
        kb = KnowledgeBase()
        kb.add_entry(ScenarioCase.CASE3, decrease_buffer(), _h(120.0, 0.0))
        kb.add_entry(ScenarioCase.CASE3, enable_wred(), _h(90.0, 0.0))
        ctrl = Controller(_world(calls=("a", "b")), kb, Constraints())
        ok, slow = ctrl.add_call("a", "flow-a"), ctrl.add_call("b", "flow-b")
        actions.apply_action(ctrl.world, "flow-a", enable_fec())
        ok.sample = HeuristicSample.from_measurement(20.0, 0.0)
        slow.sample = HeuristicSample.from_measurement(250.0, 0.01)  # case 3
        ctrl.coordinate([ok, slow])
        # The call within its constraints gives up its mechanisms.
        assert ok.episode is None and [s.entering for s in ok.states] == ["start", "d3"]
        ep = slow.episode
        assert ep.case is ScenarioCase.CASE3
        assert ep.tried == [enable_wred()] and ep.last_action == enable_wred() and ep.settling
        assert [(t.kind, t.cause, t.noop) for t in ctrl.transitions] == [
            ("d3", f"stop:{enable_fec().name}", False),
            ("d3", enable_wred().name, False),
        ]
        assert list(ctrl.world.mechanisms) == [("flow-b", enable_wred())]
        assert [s.entering for s in slow.states] == ["start", "d3"]


class TestRetire:
    """The two callers of `_retire` that retire all of a call's mechanisms."""

    def test_close_call_stops_every_mechanism_before_the_goal_state(self):
        ctrl = Controller(_world(), KnowledgeBase(), Constraints())
        call = ctrl.add_call("c", "flow-c")
        for action in (enable_fec(), increase_buffer()):
            actions.apply_action(ctrl.world, "flow-c", action)
        ctrl.world.advance(1_000.0)
        ctrl.close_call("c")
        assert [(t.kind, t.cause, t.noop, t.at_ms) for t in ctrl.transitions] == [
            ("d2", f"stop:{enable_fec().name}", False, 1_000.0),
            ("d2", f"stop:{increase_buffer().name}", False, 1_000.0),
        ]
        assert ctrl.world.mechanisms == {}
        assert [(s.entering, s.opened_at_ms) for s in call.states] == [
            ("start", 0.0), ("goal", 1_000.0)
        ]

    def test_coordinate_opens_no_d3_state_for_a_call_without_mechanisms(self):
        kb = KnowledgeBase()
        kb.add_entry(ScenarioCase.CASE3, enable_wred(), _h(90.0, 0.0))
        ctrl = Controller(_world(calls=("a", "b")), kb, Constraints())
        ok, slow = ctrl.add_call("a", "flow-a"), ctrl.add_call("b", "flow-b")
        ok.sample = HeuristicSample.from_measurement(20.0, 0.0)
        slow.sample = HeuristicSample.from_measurement(250.0, 0.01)  # case 3
        ctrl.coordinate([ok, slow])
        assert [s.entering for s in ok.states] == ["start"]
        assert [(t.kind, t.cause) for t in ctrl.transitions] == [("d3", enable_wred().name)]


class TestChangeLog:
    def test_a_timeline_change_opens_one_d1_in_its_window(self):
        # A 1 ms latency step moves the call's delay less than
        # SIGNIFICANT_CHANGE, so only the change itself can open a d1.
        world = _world(timeline=[{"at_s": 12.0, "kind": netsim.SET_LATENCY, "value": 11.0}])
        ctrl = Controller(world, KnowledgeBase(), Constraints())
        ctrl.add_call("c", "flow-c")
        d1_at = {}
        for t_ms in (5_000.0, 10_000.0, 15_000.0, 20_000.0, 25_000.0):
            world.advance(t_ms)
            rows, means = ctrl.on_window()
            assert rows == [("c", ctrl.calls["c"].sample)] and means is None
            d1_at[t_ms] = [t.cause for t in ctrl.transitions if t.kind == "d1" and t.at_ms == t_ms]
        assert d1_at == {
            5_000.0: [], 10_000.0: [], 15_000.0: ["set_latency=11"], 20_000.0: [], 25_000.0: []
        }


class TestClassification:
    def test_each_sample_is_classified_once(self, monkeypatch):
        # Every timeseries row of a call is one sample the controller observed.
        calls = []

        def counted(sample):
            calls.append(sample)
            return classify(sample)

        classify = controller.classify
        monkeypatch.setattr(controller, "classify", counted)
        scenario = scenario_from_json(json.loads(churn_json(0)))
        art = harness.run(scenario, seed=0, mode="control")
        rows = [row for row in art.timeseries if row[1] != harness.GLOBAL_ROW_ID]
        assert len(calls) == len(rows) == 239
