"""QoS action catalog tests: conflicts, apply/stop reversibility, defaults."""
import importlib
import itertools
import json
import shutil
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from voipqos import actions, harness, netsim
from voipqos.actions import (
    CASE_ORDER,
    conflicts,
    controlled_load,
    decrease_buffer,
    enable_fec,
    enable_red,
    enable_wred,
    guaranteed_load,
    increase_buffer,
)
from voipqos.controller import Controller
from voipqos.knowledge import (
    KnowledgeBase,
    ScenarioCase,
    acquire,
    action_from_json,
    action_to_json,
    refine,
)
from voipqos.metrics import HeuristicSample
from voipqos.netsim import (
    AdmissionRefusedError,
    BUFFER_MAX_PKTS,
    BUFFER_MIN_PKTS,
    LinkConfig,
    MediaFlow,
    NetworkChange,
    QueueConfig,
    SimWorld,
)


CATALOG = [
    increase_buffer(),
    decrease_buffer(),
    enable_red(),
    enable_wred(),
    enable_fec(),
    controlled_load(),
    guaranteed_load(),
]


def _world(capacity=1000.0, buffer_pkts=100):
    world = SimWorld(LinkConfig(10.0, 0.0, capacity), QueueConfig(capacity_pkts=buffer_pkts))
    world.add_flow(MediaFlow("m"))
    return world


class TestConflicts:
    def test_irreflexive(self):
        for a in CATALOG:
            assert not conflicts(a, a)

    def test_symmetric_over_catalog(self):
        for a, b in itertools.combinations(CATALOG, 2):
            assert conflicts(a, b) == conflicts(b, a)

    @pytest.mark.parametrize(
        "a,b",
        [
            (increase_buffer(), decrease_buffer()),
            (controlled_load(), guaranteed_load()),
            (enable_red(), enable_wred()),
        ],
    )
    def test_declared_pairs_conflict(self, a, b):
        assert conflicts(a, b)

    def test_unrelated_mechanisms_coexist(self):
        assert not conflicts(enable_fec(), increase_buffer())
        assert not conflicts(enable_fec(), controlled_load())
        assert not conflicts(enable_red(), increase_buffer())

    def test_same_mechanism_different_params_conflict(self):
        assert conflicts(enable_red(), enable_red(min_th=80, max_th=100))
        assert conflicts(increase_buffer(15), increase_buffer(30))

    def test_matches_the_pairwise_rule(self):
        # The rule conflicts follows, written out: distinct parameterizations
        # of one kind conflict, and so do two kinds in one conflict set.
        def rule(a, b):
            if a == b:
                return False
            if a.kind == b.kind:
                return True
            return any(a.kind in s and b.kind in s for s in actions.CONFLICT_SETS)

        ids = {a for order in CASE_ORDER.values() for a in order} | {
            increase_buffer(30),
            decrease_buffer(30),
            enable_red(min_th=80, max_th=100),
            enable_fec(block_k=8),
        }
        for a, b in itertools.product(sorted(ids, key=lambda a: a.name), repeat=2):
            assert conflicts(a, b) == rule(a, b), (a.name, b.name)


class TestNaming:
    def test_parameterless_name(self):
        assert controlled_load().name == "controlled_load"

    def test_parameterized_name_is_stable(self):
        assert enable_fec().name == "enable_fec(block_k=4,parity=1)"

    def test_missing_param_names_the_action(self):
        # The constructors are the one home of each parameter's value.
        assert enable_fec().param("parity") == 1.0
        with pytest.raises(KeyError, match="enable_fec"):
            actions.ActionId(actions.ENABLE_FEC).param("block_k")


class TestIdentity:
    @pytest.mark.parametrize("action", [enable_red(), enable_fec(), increase_buffer()])
    def test_rebuilt_ids_are_equal_hash_equal_and_find_the_ledger_entry(self, action):
        world = _world()
        actions.apply_action(world, "m", action)
        rebuilt = [
            actions.ActionId(action.kind, tuple(reversed(action.params))),
            action_from_json(action_to_json(action)),
            replace(action, params=tuple(reversed(action.params))),
        ]
        for other in rebuilt:
            assert other is not action
            assert other == action and hash(other) == hash(action)
            assert ("m", other) in world.mechanisms


class TestCaseOrder:
    def test_shipped_orderings(self):
        assert CASE_ORDER["case1"] == [guaranteed_load()]
        assert CASE_ORDER["case2"] == [
            increase_buffer(),
            enable_red(),
            enable_fec(),
            controlled_load(),
        ]
        assert CASE_ORDER["case3"] == [
            decrease_buffer(),
            enable_wred(),
            controlled_load(),
        ]
        assert CASE_ORDER["case4"] == [
            controlled_load(),
            enable_red(min_th=80, max_th=100),
        ]

    def test_no_case_lists_conflicting_defaults_twice(self):
        for case, order in CASE_ORDER.items():
            assert len(order) == len(set(order)), case

    def test_no_case_holds_a_conflicting_pair(self):
        # Refinement only swaps ranks and never deletes, so a case holding
        # two conflicting actions would keep both for good.
        kb = harness.default_kb()
        for case, order in CASE_ORDER.items():
            shipped = [e.action for e in kb.entries(harness.ScenarioCase(case))]
            for listed in (order, shipped):
                for a, b in itertools.combinations(listed, 2):
                    assert not conflicts(a, b), (case, a.name, b.name)


class TestApplyStop:
    def _snapshot(self, world):
        cfg = world.flows["m"].cfg
        return (
            world.queue,
            cfg.service,
            cfg.reserved_kbps,
            cfg.fec_block_k,
            world.reserved_kbps,
        )

    @pytest.mark.parametrize("action", CATALOG, ids=lambda a: a.name)
    def test_round_trip_restores_configuration(self, action):
        world = _world()
        before = self._snapshot(world)
        record = actions.apply_action(world, "m", action)
        assert not record.noop
        assert self._snapshot(world) != before
        stop = actions.stop_action(world, "m", action)
        assert not stop.noop
        assert self._snapshot(world) == before
        assert actions.active_actions(world, "m") == []

    @pytest.mark.parametrize("action", CATALOG, ids=lambda a: a.name)
    def test_reapply_is_noop(self, action):
        world = _world()
        actions.apply_action(world, "m", action)
        again = actions.apply_action(world, "m", action)
        assert again.noop

    def test_stop_inactive_is_noop(self):
        world = _world()
        record = actions.stop_action(world, "m", enable_fec())
        assert record.noop

    def test_buffer_steps_clamp(self):
        world = _world(buffer_pkts=BUFFER_MAX_PKTS - 5)
        actions.apply_action(world, "m", increase_buffer())
        assert world.queue.capacity_pkts == BUFFER_MAX_PKTS
        world2 = _world(buffer_pkts=BUFFER_MIN_PKTS + 5)
        actions.apply_action(world2, "m", decrease_buffer())
        assert world2.queue.capacity_pkts == BUFFER_MIN_PKTS

    def test_guaranteed_needs_headroom(self):
        world = _world(capacity=20.0)  # below the 26 * 1.25 reservation
        with pytest.raises(AdmissionRefusedError):
            actions.apply_action(world, "m", guaranteed_load())
        # Failure leaves no registration and no reservation behind.
        assert actions.active_actions(world, "m") == []
        assert world.reserved_kbps == 0.0

    def test_refused_admission_leaves_flow_unchanged(self):
        world = SimWorld(LinkConfig(10.0, 0.0, 20.0), QueueConfig())
        world.add_flow(MediaFlow("m", service=netsim.CONTROLLED_LOAD))
        with pytest.raises(AdmissionRefusedError):
            actions.apply_action(world, "m", guaranteed_load())
        cfg = world.flows["m"].cfg
        assert (cfg.service, cfg.reserved_kbps) == (netsim.CONTROLLED_LOAD, 0.0)

    def test_red_thresholds_scale_to_small_buffers(self):
        world = _world(buffer_pkts=40)
        actions.apply_action(world, "m", enable_red())
        params, lax = world.queue.red
        assert lax is None
        assert params.max_th <= 40

    def test_fec_toggles_leave_no_open_blocks(self):
        # Stopping FEC mid-block drops the block that never gets parity; it
        # is freed once its packets are resolved.
        world = _world()
        dropped = []
        for _ in range(50):
            actions.apply_action(world, "m", enable_fec())
            world.advance(world.clock + 50.0)
            dropped.append(weakref.ref(world.flows["m"].block))
            actions.stop_action(world, "m", enable_fec())
            assert world.flows["m"].block is None
            world.advance(world.clock + 50.0)
        world.advance(world.clock + 1000.0)
        assert all(ref() is None for ref in dropped)

    @pytest.mark.parametrize("action", CATALOG, ids=lambda a: a.name)
    def test_background_flow_takes_no_mechanism(self, action):
        world = _world()
        world.add_flow(netsim.BackgroundFlow("bg", 100.0))
        with pytest.raises(ValueError, match="media flows"):
            actions.apply_action(world, "bg", action)
        assert world.mechanisms == {}

    def test_transition_records_carry_kind(self):
        world = _world()
        record = actions.apply_action(world, "m", enable_fec(), kind="d3")
        assert record.kind == "d3"
        assert record.cause == enable_fec().name


class TestDerivedQueue:
    """The shared queue is the configured queue under the active
    world-wide mechanisms, whichever call applied or stopped them."""

    def _two_flow_world(self):
        world = SimWorld(LinkConfig(10.0, 0.0, 1000.0), QueueConfig(capacity_pkts=40))
        world.add_flow(MediaFlow("a"))
        world.add_flow(MediaFlow("b"))
        return world

    def test_stopping_one_call_keeps_the_others_mechanisms(self):
        world = self._two_flow_world()
        for flow_id, action in [
            ("a", increase_buffer()),
            ("b", increase_buffer()),
            ("a", enable_red()),
            ("b", enable_wred()),
        ]:
            actions.apply_action(world, flow_id, action)
        assert world.queue.capacity_pkts == 70
        assert world.queue.red[1] is not None  # b's WRED, the newest table, wins
        actions.stop_action(world, "a", increase_buffer())
        actions.stop_action(world, "a", enable_red())
        only_b = self._two_flow_world()
        actions.apply_action(only_b, "b", increase_buffer())
        actions.apply_action(only_b, "b", enable_wred())
        assert world.queue == only_b.queue
        assert world.queue.capacity_pkts == 55

    def test_timeline_buffer_change_survives_a_stop(self):
        world = SimWorld(
            LinkConfig(10.0, 0.0, 1000.0),
            QueueConfig(capacity_pkts=40),
            timeline=(NetworkChange(1_000.0, netsim.SET_BUFFER_SIZE, 100),),
        )
        world.add_flow(MediaFlow("m"))
        actions.apply_action(world, "m", increase_buffer())
        world.advance(2_000.0)
        assert world.queue.capacity_pkts == 115
        actions.stop_action(world, "m", increase_buffer())
        assert world.queue.capacity_pkts == 100

    def test_red_alone_leaves_capacity(self):
        world = _world(buffer_pkts=300)  # above BUFFER_MAX_PKTS
        actions.apply_action(world, "m", enable_red())
        assert world.queue.capacity_pkts == 300
        actions.stop_action(world, "m", enable_red())
        assert world.queue == QueueConfig(capacity_pkts=300)


def _contested_world():
    """A 70 kbps link: guaranteed flow a (40 kbps reserved) and best-effort
    flow b. Both fit under guaranteed_load (32.5 kbps each), but a's
    configured reservation and b's guaranteed_load do not."""
    world = SimWorld(LinkConfig(10.0, 0.0, 70.0), QueueConfig())
    world.add_flow(MediaFlow("a", service=netsim.GUARANTEED, reserved_kbps=40.0))
    world.add_flow(MediaFlow("b"))
    return world


def _expected_cfg(world, flow_id):
    """The flow's configured MediaFlow with its active mechanisms' fields."""
    fields = {}
    for action in actions.active_actions(world, flow_id):
        if action == enable_fec():
            fields["fec_block_k"] = 4
        elif action == controlled_load():
            fields.update(service=netsim.CONTROLLED_LOAD, reserved_kbps=0.0)
        elif action == guaranteed_load():
            fields.update(service=netsim.GUARANTEED, reserved_kbps=26.0 * 1.25)
    return replace(world.flows[flow_id].configured, **fields)


def _best_effort(cfg):
    return replace(cfg, service=netsim.BEST_EFFORT, reserved_kbps=0.0)


class TestRefusedReadmission:
    """A flow whose reservation cannot be re-admitted when its mechanism
    stops is served best effort (RFC 2212); the stop never raises."""

    def _contest(self, world):
        actions.apply_action(world, "a", controlled_load())
        actions.apply_action(world, "b", guaranteed_load())

    def test_stop_serves_best_effort(self):
        world = _contested_world()
        self._contest(world)
        record = actions.stop_action(world, "a", controlled_load())
        assert not record.noop
        assert world.flows["a"].cfg.service == netsim.BEST_EFFORT
        assert world.reserved_kbps == 32.5  # b's reservation only
        assert list(world.mechanisms) == [("b", guaranteed_load())]

    def test_close_call_serves_best_effort(self):
        world = _contested_world()
        controller = Controller(world, harness.default_kb())
        controller.add_call("call-a", "a")
        self._contest(world)
        controller.close_call("call-a")
        assert controller.calls["call-a"].closed
        assert world.flows["a"].cfg.service == netsim.BEST_EFFORT
        assert world.reserved_kbps == 32.5

    def test_admitted_readmission_restores_guaranteed(self):
        world = _contested_world()
        self._contest(world)
        actions.stop_action(world, "b", guaranteed_load())
        actions.stop_action(world, "a", controlled_load())
        assert world.flows["a"].cfg == world.flows["a"].configured
        assert world.reserved_kbps == 40.0  # a's configured reservation

    def test_stop_back_to_a_larger_reservation_serves_best_effort(self):
        # a stays guaranteed under guaranteed_load; stopping it brings back
        # the larger configured reservation, which no longer fits.
        world = _contested_world()
        self._contest(world)
        actions.stop_action(world, "a", controlled_load())
        actions.apply_action(world, "a", guaranteed_load())
        assert world.flows["a"].cfg.service == netsim.GUARANTEED
        assert world.reserved_kbps == 65.0
        actions.stop_action(world, "a", guaranteed_load())
        assert world.flows["a"].cfg == _best_effort(world.flows["a"].configured)
        assert world.reserved_kbps == 32.5  # b's reservation only

    def test_fallback_flow_takes_other_mechanisms(self):
        # A best-effort fallback is no reason to refuse FEC.
        world = _contested_world()
        self._contest(world)
        actions.stop_action(world, "a", controlled_load())
        actions.apply_action(world, "a", enable_fec())
        assert world.flows["a"].cfg == _best_effort(_expected_cfg(world, "a"))
        assert actions.active_actions(world, "a") == [enable_fec()]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b"]),
                st.sampled_from(CATALOG),
                st.booleans(),
                st.integers(0, 100),
            ),
            max_size=30,
        )
    )
    # Stopping a's controlled_load and then its guaranteed_load brings back
    # a's larger configured reservation while b holds its own.
    @example(
        [
            ("a", controlled_load(), True, 0),
            ("a", guaranteed_load(), True, 0),
            ("b", guaranteed_load(), True, 0),
        ]
    )
    def test_random_apply_stop_sequences(self, steps):
        world = _contested_world()
        configured_queue = world.queue

        def derived_queue():
            # The configured queue under the ledger's queue effects, oldest
            # first: buffer steps stack, clamped in turn, and the newest RED
            # table wins.
            capacity, red = world.configured_capacity_pkts, world.configured_red
            for effect in world.mechanisms.values():
                if effect.step_pkts is not None:
                    capacity += effect.step_pkts
                    capacity = min(BUFFER_MAX_PKTS, max(BUFFER_MIN_PKTS, capacity))
                if effect.red is not None:
                    red = effect.red
            return QueueConfig(capacity, tuple(netsim._clamp_red(p, capacity) for p in red))

        def check():
            assert world.queue == derived_queue()
            held = sum(
                flow.cfg.reserved_kbps
                for flow in world.flows.values()
                if flow.cfg.service == netsim.GUARANTEED
            )
            assert world.reserved_kbps == held <= world.link.capacity_kbps
            for flow_id in ("a", "b"):
                cfg, expected = world.flows[flow_id].cfg, _expected_cfg(world, flow_id)
                assert cfg == expected or (
                    expected.service == netsim.GUARANTEED and cfg == _best_effort(expected)
                )

        for flow_id, action, apply, advance_ms in steps:
            if apply:
                ledger = dict(world.mechanisms)
                try:
                    actions.apply_action(world, flow_id, action)
                except AdmissionRefusedError:
                    assert world.mechanisms == ledger
            else:
                actions.stop_action(world, flow_id, action)
            world.advance(world.clock + advance_ms)
            check()
        for flow_id, action in list(world.mechanisms):
            actions.stop_action(world, flow_id, action)
            check()
        assert world.mechanisms == {}
        assert world.queue == configured_queue
        for flow in world.flows.values():
            assert flow.cfg == flow.configured or (
                flow.configured.service == netsim.GUARANTEED
                and flow.cfg == _best_effort(flow.configured)
            )
        world.check_conservation()


class TestDefaultKnowledge:
    def test_renamed_copy_reads_its_own_seed(self, tmp_path, monkeypatch):
        # A copy of the package imported under another name reads the data
        # beside it: harness._seed_kb finds the seed through __package__,
        # not through the name "voipqos".
        copy = tmp_path / "voipqos_copy"
        shutil.copytree(
            Path(actions.__file__).parent, copy, ignore=shutil.ignore_patterns("__pycache__")
        )
        (copy / "data" / "default_kb.json").write_text('{"cases": {}, "revision": 7}')
        monkeypatch.syspath_prepend(str(tmp_path))
        try:
            copied = importlib.import_module("voipqos_copy.harness")
            assert copied.default_kb().revision == 7
        finally:
            for name in [n for n in sys.modules if n.split(".")[0] == "voipqos_copy"]:
                del sys.modules[name]

    def test_each_call_hands_out_an_independent_base(self):
        seed = json.loads((Path(harness.__file__).parent / "data" / "default_kb.json").read_text())
        expected = KnowledgeBase.from_json(seed).to_json()
        kb = harness.default_kb()
        assert kb.to_json() == expected
        # Measure case2's last-ranked action best, then refine: it swaps
        # ranks with the best-ranked action ahead of it.
        case = ScenarioCase.CASE2
        last = kb.entries(case)[-1].action
        acquire(kb, case, last, HeuristicSample.from_measurement(0.0, 0.0))
        refine(kb, case, last)
        assert kb.entry(case, last).rank == 1
        assert kb.to_json() != expected
        assert harness.default_kb().to_json() == expected

    def test_seed_loads_and_covers_all_cases(self):
        from voipqos.harness import default_kb
        from voipqos.knowledge import ScenarioCase

        kb = default_kb()
        for case_name, order in CASE_ORDER.items():
            entries = kb.entries(ScenarioCase(case_name))
            assert [e.action for e in entries] == order
            assert [e.rank for e in entries] == list(range(1, len(order) + 1))
            for e in entries:
                assert e.h.delay_ms >= 0.0
                assert 0.0 <= e.h.loss <= 1.0

    def test_seed_matches_fresh_calibration(self):
        from voipqos.harness import calibrate, default_kb

        shipped = default_kb().to_json()
        fresh = calibrate(seed=0).to_json()
        assert shipped["cases"] == fresh["cases"]
