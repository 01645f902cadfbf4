"""Network-simulation unit tests: queueing, RED, FEC, service classes."""
import csv
import hashlib
import io
import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from voipqos import actions, harness, netsim
from voipqos.netsim import (
    AdmissionRefusedError,
    BackgroundFlow,
    LinkConfig,
    MediaFlow,
    NetworkChange,
    QueueConfig,
    REDParams,
    SimWorld,
    red_drop_probability,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import churn_json  # noqa: E402


def _world(latency=10.0, loss=0.0, capacity=1000.0, buffer_pkts=100, seed=0, timeline=(), **kw):
    return SimWorld(
        LinkConfig(latency, loss, capacity),
        QueueConfig(capacity_pkts=buffer_pkts, **kw),
        seed=seed,
        timeline=timeline,
    )


class TestDeterminism:
    def _run(self, seed):
        world = SimWorld(
            LinkConfig(10.0, 0.1, 1000.0),
            QueueConfig(capacity_pkts=100, red=(REDParams(10, 50, 0.2), None)),
            seed=seed,
            trace=True,
        )
        world.add_flow(MediaFlow("m"))
        world.add_flow(BackgroundFlow("bg", rate_kbps=900.0))
        world.advance(20_000.0)
        return list(world.log)

    def test_same_seed_same_history(self):
        assert self._run(3) == self._run(3)

    def test_different_seed_differs(self):
        assert self._run(3) != self._run(4)


class TestEventOrder:
    def test_packet_log_digest(self):
        # One traced world that takes every packet branch: best-effort RED
        # and a WRED priority curve, controlled-load, guaranteed traffic
        # both conforming and policed, FEC with recoveries, link loss, a
        # flow's end, a buffer shrink that sheds packets, a latency drop
        # mid-run and a background rate change. The digest pins the order
        # of every packet outcome and of the rng draws behind them.
        world = SimWorld(
            LinkConfig(30.0, 0.05, 400.0),
            QueueConfig(40, (REDParams(5.0, 30.0, 0.2), REDParams(15.0, 40.0, 0.1))),
            seed=7,
            timeline=(
                NetworkChange(1_500.0, netsim.SET_LATENCY, 5.0),
                NetworkChange(2_500.0, netsim.SET_BUFFER_SIZE, 8.0),
                NetworkChange(3_000.0, netsim.SET_BACKGROUND_RATE, 500.0),
                NetworkChange(3_500.0, netsim.SET_LOSS_RATE, 0.1),
                NetworkChange(4_000.0, netsim.SET_BUFFER_SIZE, 40.0),
            ),
            trace=True,
        )
        world.add_flow(
            MediaFlow("cl", service=netsim.CONTROLLED_LOAD, burst_pkts=4, fec_block_k=3)
        )
        world.add_flow(
            MediaFlow("g", service=netsim.GUARANTEED, reserved_kbps=20.0, burst_pkts=6)
        )
        world.add_flow(MediaFlow("be", fec_block_k=4, burst_pkts=2, end_ms=5_000.0))
        world.add_flow(BackgroundFlow("bg", rate_kbps=350.0))
        world.advance(6_000.0)
        world.check_conservation()
        outcomes = {(fid, event) for _, fid, event, _ in world.log}
        assert {("g", "delivered"), ("g", "dropped_policer"), ("cl", "recovered"),
                ("be", "recovered"), ("bg", "dropped_link"), ("bg", "dropped_queue")} <= outcomes
        assert len(world.log) == 8087
        assert hashlib.sha256(repr(world.log).encode()).hexdigest() == (
            "4111af0089638cfa63381bd510fe109e2c61607e7de0ac44e077fa2ad19bcf02"
        )


class TestBackgroundPath:
    """A background packet takes its own inline branch of `advance`, with
    offer_packet's class-0 discipline. A best-effort media flow of the same
    packets must show the same history in the same world."""

    @staticmethod
    def _traced(pinned):
        # 800-bit packets every 4 ms from the pinned flow and a priority
        # flow overload the 200 kbps link: the buffer fills, RED (whose
        # average moves fast) drops early, and the link is nearly always busy.
        world = SimWorld(
            LinkConfig(10.0, 0.05, 200.0),
            QueueConfig(12, (REDParams(2.0, 12.0, 0.3, ewma_weight=0.2), None)),
            seed=5,
            timeline=(
                NetworkChange(900.0, netsim.SET_LATENCY, 40.0),
                NetworkChange(1_800.0, netsim.SET_BUFFER_SIZE, 4.0),
                NetworkChange(2_400.0, netsim.SET_LOSS_RATE, 0.0),
                NetworkChange(2_700.0, netsim.SET_BUFFER_SIZE, 12.0),
            ),
            trace=True,
        )
        world.add_flow(MediaFlow("cl", service=netsim.CONTROLLED_LOAD, burst_pkts=2))
        world.add_flow(pinned)
        world.add_flow(MediaFlow("fec", fec_block_k=3, burst_pkts=3, end_ms=2_000.0))
        return world

    @pytest.mark.parametrize("burst", [1, 3])
    def test_background_is_a_best_effort_media_flow(self, burst):
        bg = self._traced(BackgroundFlow("bg", rate_kbps=200.0, burst_pkts=burst))
        media = self._traced(
            MediaFlow("be", rate_kbps=200.0, packet_interval_ms=4.0, burst_pkts=burst)
        )
        assert bg.flows["bg"].cfg.packet_bits == media.flows["be"].cfg.packet_bits == 800.0
        assert bg.flows["bg"].cfg.packet_interval_ms == 4.0
        offers, seen = Counter(), Counter()

        def no_background(offer_packet):
            def offer(pkt):
                assert not isinstance(pkt[0].cfg, BackgroundFlow)
                offers[pkt[0].cfg.flow_id] += 1
                offer_packet(pkt)
            return offer

        def classify(offer_packet):
            # Notes the queue branch each of the pinned media flow's packets takes.
            def offer(pkt):
                full = media.occupancy >= media.queue.capacity_pkts
                dropped = media.flows["be"].totals.dropped_queue
                offer_packet(pkt)
                if pkt[0] is media.flows["be"]:
                    if media.flows["be"].totals.dropped_queue > dropped:
                        seen["tail_drop" if full else "red_drop"] += 1
                    elif media._tx is not pkt:
                        seen["queued"] += 1
            return offer

        bg.offer_packet = no_background(bg.offer_packet)
        media.offer_packet = classify(media.offer_packet)
        rename = {"bg": "be"}
        for stop in range(300, 3_601, 300):
            for world in (bg, media):
                world.advance(float(stop))
                world.check_conservation()
            assert [
                (at, rename.get(fid, fid), event, delay) for at, fid, event, delay in bg.log
            ] == media.log, stop
            assert bg.rng.getstate() == media.rng.getstate(), stop
            for fid, flow in bg.flows.items():
                assert repr(flow.totals) == repr(media.flows[rename.get(fid, fid)].totals), stop
        assert seen["tail_drop"] and seen["red_drop"] and seen["queued"]
        assert offers["cl"] and offers["fec"] and "bg" not in offers
        assert media.totals("be").dropped_link > 0


@pytest.mark.parametrize(
    "preset, until_ms, sent, bound",
    [("table4-red-10k", 10_000.0, 14_001, 1.3), ("fig7-multicall", 100_000.0, 35_751, 0.6)],
    ids=["table4-red-10k", "fig7-multicall"],
)
def test_frames_per_sent_packet(preset, until_ms, sent, bound):
    # Python frames per sent packet, of any module and constructors'
    # generated code included: an exact count, independent of host speed,
    # of the per-packet cost. advance runs emissions, transmission ends and
    # the background packets' queue discipline itself, settles deliveries
    # in batches and builds each packet as a tuple, so what is left is
    # near 1.2 on the RED preset with background traffic (the RED curve; a
    # media packet's queue discipline too) and 0.5 on the tail-drop
    # multi-call one, whose packets are mostly background.
    world = harness.build_world(harness.load_scenario(preset), seed=0)
    frames = 0

    def profile(frame, event, arg):
        nonlocal frames
        if event == "call":
            frames += 1

    sys.setprofile(profile)
    try:
        world.advance(until_ms)
    finally:
        sys.setprofile(None)
    assert sum(st.totals.sent for st in world.flows.values()) == sent
    assert frames / sent < bound


class TestConservation:
    def test_counts_balance_after_congested_run(self):
        world = _world(capacity=200.0, buffer_pkts=30)
        world.add_flow(MediaFlow("m", burst_pkts=40))
        world.add_flow(BackgroundFlow("bg", rate_kbps=150.0))
        world.advance(30_000.0)
        world.check_conservation()
        t = world.totals("m")
        assert t.sent > 0 and t.delivered > 0 and t.dropped_queue > 0
        assert t.in_flight >= 0


_CHANGES = st.one_of(
    st.tuples(st.just(netsim.SET_LATENCY), st.sampled_from([0.0, 40.0, 150.0])),
    st.tuples(st.just(netsim.SET_LOSS_RATE), st.sampled_from([0.0, 0.05, 0.4])),
    st.tuples(st.just(netsim.SET_BUFFER_SIZE), st.integers(1, 80).map(float)),
    st.tuples(st.just(netsim.SET_BACKGROUND_RATE), st.sampled_from([0.0, 300.0, 1200.0])),
)


@st.composite
def _busy_worlds(draw):
    """A world of 1-3 media flows, maybe background traffic, link loss and
    timeline changes, with the sorted times to stop it at."""
    capacity = draw(st.integers(2, 60))
    red = (REDParams(1.0, float(capacity), 0.3), None) if draw(st.booleans()) else (None, None)
    timeline = tuple(
        NetworkChange(at, kind, value)
        for at, (kind, value) in zip(
            draw(st.lists(st.floats(0.0, 4_000.0), max_size=4)),
            draw(st.lists(_CHANGES, min_size=4, max_size=4)),
        )
    )
    world = SimWorld(
        LinkConfig(draw(st.sampled_from([0.0, 15.0])), draw(st.sampled_from([0.0, 0.1])),
                   draw(st.sampled_from([100.0, 400.0]))),
        QueueConfig(capacity, red),
        seed=draw(st.integers(0, 9)),
        timeline=timeline,
    )
    for i in range(draw(st.integers(1, 3))):
        service = draw(st.sampled_from(netsim.SERVICES))
        start = draw(st.floats(0.0, 2_000.0))
        length = draw(st.one_of(st.none(), st.floats(1.0, 3_000.0)))
        block_k = draw(st.integers(0, 5))
        world.add_flow(MediaFlow(
            f"m{i}",
            packet_interval_ms=draw(st.sampled_from([2.0, 20.0])),
            service=service,
            # Three 32.5 kbps reservations fit the slowest link.
            reserved_kbps=32.5 if service == netsim.GUARANTEED else 0.0,
            fec_block_k=block_k,
            burst_pkts=draw(st.integers(1, 20)),
            start_ms=start,
            end_ms=None if length is None else start + length,
        ))
    if draw(st.booleans()):
        world.add_flow(BackgroundFlow("bg", rate_kbps=draw(st.sampled_from([0.0, 300.0]))))
    return world, sorted(draw(st.lists(st.floats(0.0, 5_000.0), min_size=1, max_size=5)))


@settings(max_examples=40, deadline=None)
@given(_busy_worlds())
def test_conservation_holds_at_any_instant(case):
    # Each stop may fall mid-burst, mid-transmission or mid-block; a flow
    # past its end is ended there, releasing its reservation.
    world, stops = case
    for stop in stops:
        world.advance(stop)
        world.check_conservation()
        for fid, flow in world.flows.items():
            assert flow.totals.in_flight >= 0
            assert flow.totals.recovered <= flow.totals.dropped
            if flow.cfg.end_ms is not None and flow.cfg.end_ms <= stop:
                world.end_flow(fid)
        assert world.reserved_kbps == sum(
            flow.cfg.reserved_kbps for flow in world.flows.values()
            if flow.active and flow.cfg.service == netsim.GUARANTEED
        )


class TestRed:
    def test_drop_probability_curve(self):
        p = REDParams(50, 100, 0.1)
        assert red_drop_probability(p, 0) == 0.0
        assert red_drop_probability(p, 50 - 1e-9) == 0.0
        assert red_drop_probability(p, 75) == pytest.approx(0.05)
        assert red_drop_probability(p, 100.0) == pytest.approx(0.1)
        assert red_drop_probability(p, 101) == 1.0

    def test_red_drops_before_buffer_full(self):
        world = _world(
            latency=6.0,
            capacity=1000.0,
            buffer_pkts=150,
            red=(REDParams(20, 60, 0.2), None),
        )
        world.add_flow(MediaFlow("m"))
        world.add_flow(BackgroundFlow("bg", rate_kbps=1100.0))
        world.advance(30_000.0)
        bg = world.totals("bg")
        assert bg.dropped_queue > 0
        # The average queue stays governed well below the hard limit, so
        # delay stays moderate even under a sustained 1.1x overload.
        delivered_delay = bg.delay_sum_ms / bg.delay_n
        assert delivered_delay < 150.0

    def test_priority_class_follows_its_laxer_curve(self):
        # WRED table: best effort drops early past an average of 10, the
        # priority class only past 20. Class 0's weight of 1 makes the
        # average the occupancy at each offer; class 1's weight is unused.
        strict = REDParams(5, 10, 1.0, ewma_weight=1.0)
        lax = REDParams(20, 30, 1.0, ewma_weight=0.001)
        world = _world(latency=0.0, capacity=100.0, red=(strict, lax))
        x = world.flows["x"] = netsim._FlowState(MediaFlow("x"))
        for i in range(15):
            world.offer_packet((x, 800.0, 0.0, 1, None, False))
            assert x.totals.dropped_queue == 0 and len(world._qp) == i
        assert world.occupancy == 14  # one packet is in transmission
        world.offer_packet((x, 800.0, 0.0, 0, None, False))
        assert x.totals.dropped_queue == 1 and world.occupancy == 14
        assert world._avg_queue == 14.0
        pri = (x, 800.0, 0.0, 1, None, False)
        world.offer_packet(pri)
        assert world._qp[-1] is pri and world.occupancy == 15
        assert world.flows["x"].totals.dropped_queue == 1

    @pytest.mark.parametrize(
        "red, capacity", [((1, 41, 1.0), 1), ((40, 41, 0.5), 30), ((50, 100, 0.1), 80)]
    )
    def test_shrunk_buffer_keeps_red_inside_it(self, red, capacity):
        world = _world(
            buffer_pkts=100 if red[1] <= 100 else 150,
            red=(REDParams(*red), None),
            timeline=(NetworkChange(0.0, netsim.SET_BUFFER_SIZE, capacity),),
        )
        world.advance(0.0)
        params = world.queue.red[0]
        assert world.queue.capacity_pkts == capacity
        assert 0 < params.min_th < params.max_th == capacity
        assert params.max_p == red[2]

    def test_priority_curve_needs_a_best_effort_curve(self):
        # The average queue moves with class 0's weight alone, so a
        # priority curve on its own would never see it rise.
        with pytest.raises(ValueError):
            QueueConfig(40, (None, REDParams(10, 40, 0.5)))
        QueueConfig(40, (REDParams(39, 40, 0.01, 0.5), REDParams(10, 40, 0.5)))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            REDParams(100, 50, 0.1)
        with pytest.raises(ValueError):
            REDParams(10, 50, 0.0)
        with pytest.raises(ValueError):
            QueueConfig(capacity_pkts=80, red=(REDParams(50, 100, 0.1), None))


class TestFec:
    @staticmethod
    def _residual_oracle(p, k):
        """Expected residual media-loss fraction for single-parity blocks.

        Per block of k media packets each lost independently with
        probability p: one loss is repaired iff the parity packet (also
        lost with p) arrives. Residual per media packet:
        p - p * (1-p)^(k-1) * (1-p) = p * (1 - (1-p)^k).
        """
        return p * (1.0 - (1.0 - p) ** k)

    def test_residual_loss_matches_oracle(self):
        p, k = 0.05, 4
        world = _world(latency=5.0, loss=p, capacity=10_000.0, buffer_pkts=1000, seed=11)
        world.add_flow(
            MediaFlow("m", packet_interval_ms=2.0, fec_block_k=k)
        )
        world.advance(120_000.0)
        t = world.totals("m")
        resolved = t.delivered + t.dropped
        residual = (t.dropped - t.recovered) / resolved
        expected = self._residual_oracle(p, k)
        # Binomial noise over ~60k packets is well under this tolerance.
        assert residual == pytest.approx(expected, abs=0.003)
        assert 0 < residual < p  # FEC helps but cannot erase independent loss

    def test_recovered_packets_charge_block_delay(self):
        # Recovery waits for the rest of the block, so mean delay with
        # FEC exceeds the plain-link delay.
        p = 0.08
        plain = _world(latency=5.0, loss=p, capacity=10_000.0, seed=2)
        plain.add_flow(MediaFlow("m", packet_interval_ms=2.0))
        plain.advance(60_000.0)
        fec = _world(latency=5.0, loss=p, capacity=10_000.0, seed=2)
        fec.add_flow(MediaFlow("m", packet_interval_ms=2.0, fec_block_k=4))
        fec.advance(60_000.0)
        d_plain = plain.totals("m").delay_sum_ms / plain.totals("m").delay_n
        d_fec = fec.totals("m").delay_sum_ms / fec.totals("m").delay_n
        assert d_fec > d_plain

    def test_a_drop_that_ends_a_block_follows_the_deliveries_before_it(self):
        # A guaranteed flow's conforming packets overtake its best-effort
        # ones, so a block's parity can arrive before one of its media is
        # lost, and that loss recovers the block. An untraced world lets
        # deliveries wait, but the recovery's delay must still be summed
        # after every delivery due before the loss, as in a traced world.
        for seed in range(40):
            worlds = []
            for trace in (True, False):
                world = SimWorld(
                    LinkConfig(0.3, 0.3, 100.0), QueueConfig(60), seed=seed, trace=trace
                )
                world.add_flow(MediaFlow(
                    "g", rate_kbps=26.1, packet_interval_ms=7.3, service=netsim.GUARANTEED,
                    reserved_kbps=15.0, fec_block_k=3, burst_pkts=2, start_ms=0.37,
                ))
                world.add_flow(BackgroundFlow("bg", rate_kbps=70.3))
                worlds.append(world)
            for stop in (1_000.0, 2_000.0, 3_000.0):
                for world in worlds:
                    world.advance(stop)
                traced, untraced = (world.totals("g") for world in worlds)
                assert traced.recovered
                assert repr(untraced) == repr(traced), (seed, stop)

    def test_config_validation(self):
        # A block size is 0 (no FEC) or a whole number of packets >= 1.
        for block_k in (-1, 2.5):
            with pytest.raises(ValueError, match="fec_block_k"):
                MediaFlow("m", fec_block_k=block_k)
        # FEC is single-parity, but a knowledge base's id may name any parity
        # or block size; a block size of 0 would silently turn FEC off.
        world = _world()
        world.add_flow(MediaFlow("m"))
        two = actions.ActionId(actions.ENABLE_FEC, (("block_k", 4.0), ("parity", 2.0)))
        with pytest.raises(ValueError, match="only single-parity FEC is supported"):
            actions.apply_action(world, "m", two)
        empty = actions.ActionId(actions.ENABLE_FEC, (("block_k", 0.0), ("parity", 1.0)))
        with pytest.raises(ValueError, match="block_k must be >= 1"):
            actions.apply_action(world, "m", empty)
        assert world.mechanisms == {} and world.flows["m"].cfg.fec_block_k == 0


class TestBufferSizing:
    @staticmethod
    def _stats(buffer_pkts):
        world = _world(latency=0.0, capacity=100.0, buffer_pkts=buffer_pkts)
        world.add_flow(MediaFlow("m", burst_pkts=150))
        world.advance(30_000.0)
        t = world.totals("m")
        return t.dropped_queue, t.delay_sum_ms / t.delay_n

    def test_bigger_buffer_trades_loss_for_delay(self):
        sizes = [20, 50, 100, 200]
        drops = []
        delays = []
        for size in sizes:
            d, avg = self._stats(size)
            drops.append(d)
            delays.append(avg)
        assert all(a >= b for a, b in zip(drops, drops[1:]))
        assert all(a <= b for a, b in zip(delays, delays[1:]))
        assert drops[0] > 0 and drops[-1] == 0


class TestServiceClasses:
    def test_priority_class_preempts_best_effort(self):
        world = _world(latency=0.0, capacity=500.0, buffer_pkts=40)
        world.add_flow(MediaFlow("m", service=netsim.CONTROLLED_LOAD))
        world.add_flow(BackgroundFlow("bg", rate_kbps=600.0))
        world.advance(30_000.0)
        m = world.totals("m")
        assert m.dropped == 0
        assert m.delay_sum_ms / m.delay_n < 10.0
        assert world.totals("bg").dropped_queue > 0

    def test_full_buffer_pushes_out_best_effort_for_priority(self):
        world = _world(latency=0.0, capacity=100.0, buffer_pkts=5)
        x = world.flows["x"] = netsim._FlowState(MediaFlow("x"))
        for i in range(7):
            world.offer_packet((x, 800.0, 0.0, 0, None, False))
        assert world.occupancy == 5  # full: 1 in service + 4 queued + head slot
        dropped_before = world.flows["x"].totals.dropped_queue
        pri = (x, 800.0, 0.0, 1, None, False)
        world.offer_packet(pri)
        assert world.occupancy == 5  # one best-effort shed instead
        assert pri in world._qp
        assert world.flows["x"].totals.dropped_queue == dropped_before + 1

    def test_guaranteed_policing_under_congestion(self):
        # A bursty source overruns its token bucket; non-conforming
        # packets are policed once the queue is half full.
        world = _world(latency=0.0, capacity=200.0, buffer_pkts=30)
        world.add_flow(
            MediaFlow(
                "m", burst_pkts=60, service=netsim.GUARANTEED, reserved_kbps=32.5
            )
        )
        world.advance(30_000.0)
        t = world.totals("m")
        assert t.dropped_policer > 0

    def test_admission_control(self):
        world = _world(capacity=100.0)
        world.add_flow(MediaFlow("a", service=netsim.GUARANTEED, reserved_kbps=80.0))
        with pytest.raises(AdmissionRefusedError):
            world.add_flow(
                MediaFlow("b", service=netsim.GUARANTEED, reserved_kbps=30.0)
            )
        # Releasing the first reservation frees the headroom.
        world.end_flow("a")
        world.add_flow(MediaFlow("b", service=netsim.GUARANTEED, reserved_kbps=30.0))

    def test_guaranteed_flow_defaults_its_reservation(self):
        # A reservation of 0 is the default, 1.25 x the rate, and is admitted.
        flow = MediaFlow("g", rate_kbps=40.0, service=netsim.GUARANTEED)
        assert flow.reserved_kbps == 40.0 * 1.25
        world = _world(capacity=100.0)
        world.add_flow(flow)
        assert world.reserved_kbps == 50.0
        # Only guaranteed service takes the default: best effort holds none.
        best_effort = replace(flow, service=netsim.BEST_EFFORT, reserved_kbps=0.0)
        assert best_effort.reserved_kbps == 0.0


class TestNetworkChanges:
    def test_scripted_latency_change_applies(self):
        world = SimWorld(
            LinkConfig(10.0, 0.0, 1000.0),
            QueueConfig(capacity_pkts=100),
            timeline=(
                NetworkChange(5_000.0, netsim.SET_LATENCY, 90.0),
                NetworkChange(12_000.0, netsim.SET_LOSS_RATE, 0.01),
            ),
        )
        world.add_flow(MediaFlow("m"))
        world.advance(4_000.0)
        early = world.measure("m")
        assert world.notifications == []
        world.advance(10_000.0)
        late = world.measure("m")
        assert early.delay_ms < 20.0
        assert late.delay_ms > 50.0
        # The change log keeps every applied change, in order, across advances.
        assert [(c.at_ms, c.kind) for c in world.notifications] == [
            (5_000.0, netsim.SET_LATENCY)
        ]
        world.advance(15_000.0)
        assert [(c.at_ms, c.kind) for c in world.notifications] == [
            (5_000.0, netsim.SET_LATENCY),
            (12_000.0, netsim.SET_LOSS_RATE),
        ]

    @staticmethod
    def _pending_changes(world):
        """The timeline changes in the event heap, which holds nothing but
        them and the media and background flows' emissions."""
        kinds = [kind for _, _, kind, _ in world._events]
        assert set(kinds) <= {netsim._EMIT, netsim._BACKGROUND, netsim._CHANGE}
        return kinds.count(netsim._CHANGE)

    def test_the_heap_holds_only_the_next_timeline_change(self):
        # A generated control-churn scenario: its timeline is long, but the
        # event heap holds at most its next change, at every window end.
        scenario = harness.scenario_from_json(json.loads(churn_json(0)))
        assert len(scenario.timeline) >= 150
        world = harness.build_world(scenario, seed=0)
        assert self._pending_changes(world) == 1
        world.check_conservation()
        for end_ms in range(5_000, int(scenario.duration_s * 1000) + 1, 5_000):
            world.advance(float(end_ms))
            assert self._pending_changes(world) <= 1, end_ms
            world.check_conservation()
        # Every change ran, in time order.
        assert world.notifications == sorted(scenario.timeline, key=lambda c: c.at_ms)

    def test_the_heap_holds_no_link_or_delivery_event(self):
        # A congested, lossy world with FEC and a latency drop: at every
        # stop the link is busy and deliveries wait, yet the heap holds
        # only emissions and the next timeline change, and the waiting
        # deliveries are in (due, seq) order, also at the stops that fall
        # while deliveries scheduled before the drop still wait.
        world = _world(
            latency=40.0, loss=0.1, capacity=200.0, buffer_pkts=20,
            timeline=(
                NetworkChange(1_000.0, netsim.SET_LATENCY, 5.0),
                NetworkChange(2_000.0, netsim.SET_LATENCY, 60.0),
            ),
        )
        world.add_flow(MediaFlow("fec", fec_block_k=3, burst_pkts=4))
        world.add_flow(MediaFlow("cl", service=netsim.CONTROLLED_LOAD, fec_block_k=2))
        world.add_flow(BackgroundFlow("bg", rate_kbps=140.0))
        busy = 0
        for stop in sorted([*range(50, 3_001, 50), 1_005, 1_010, 1_020, 1_030]):
            world.advance(float(stop))
            assert self._pending_changes(world) <= 1, stop
            waiting = [(due, seq) for due, seq, _ in world._fifo]
            assert waiting == sorted(waiting), stop
            busy += world._tx is not None and len(world._fifo) > 0
            world.check_conservation()
        assert busy >= 50
        fec, cl, bg = (world.totals(fid) for fid in ("fec", "cl", "bg"))
        assert fec.dropped_queue and bg.dropped_queue
        assert fec.dropped_link and cl.dropped_link and bg.dropped_link
        assert fec.recovered and cl.recovered

    def test_background_rate_change_restarts_emission(self):
        world = SimWorld(
            LinkConfig(5.0, 0.0, 1000.0),
            QueueConfig(capacity_pkts=100),
            timeline=(
                NetworkChange(2_000.0, netsim.SET_BACKGROUND_RATE, 0.0),
                NetworkChange(6_000.0, netsim.SET_BACKGROUND_RATE, 400.0),
            ),
        )
        world.add_flow(BackgroundFlow("bg", rate_kbps=400.0))
        world.advance(4_000.0)
        sent_quiet = world.totals("bg").sent
        world.advance(5_900.0)
        assert world.totals("bg").sent == sent_quiet  # silenced interval
        world.advance(10_000.0)
        assert world.totals("bg").sent > sent_quiet

    def test_rate_change_at_start_keeps_one_emission_chain(self):
        # The change supersedes the flow's start event instead of running
        # a second chain of emissions beside it.
        world = SimWorld(
            LinkConfig(5.0, 0.0, 1000.0),
            QueueConfig(capacity_pkts=100),
            timeline=(NetworkChange(0.0, netsim.SET_BACKGROUND_RATE, 80.0),),
        )
        world.add_flow(BackgroundFlow("bg", rate_kbps=80.0))
        world.advance(10_000.0)
        assert world.totals("bg").sent == 1_000  # one 800-bit packet per 10 ms

    def test_ended_flows_send_nothing_more(self):
        # end_flow starts a new epoch, which no emission event of the old
        # one survives, and a later background rate change skips the flow.
        world = SimWorld(
            LinkConfig(5.0, 0.0, 1000.0),
            QueueConfig(capacity_pkts=100),
            timeline=(NetworkChange(2_000.0, netsim.SET_BACKGROUND_RATE, 400.0),),
        )
        world.add_flow(MediaFlow("m", fec_block_k=4))
        world.add_flow(BackgroundFlow("bg", rate_kbps=200.0))
        world.advance(1_000.0)
        world.end_flow("m")
        world.end_flow("bg")
        sent = world.totals("m").sent, world.totals("bg").sent
        assert min(sent) > 0
        world.advance(5_000.0)
        assert (world.totals("m").sent, world.totals("bg").sent) == sent
        world.check_conservation()

    def test_buffer_shrink_sheds_newest_first(self):
        world = _world(
            latency=0.0, capacity=100.0, buffer_pkts=50,
            timeline=(NetworkChange(10.0, netsim.SET_BUFFER_SIZE, 20),),
        )
        world.add_flow(MediaFlow("m", burst_pkts=40))
        world.advance(9.0)
        assert world.occupancy > 20
        world.advance(10.0)
        assert world.occupancy == 20
        world.check_conservation()

    def test_unknown_change_kind_rejected(self):
        with pytest.raises(ValueError):
            NetworkChange(0.0, "set_jitter", 1.0)

    @pytest.mark.parametrize(
        "kind,value",
        [
            (netsim.SET_LATENCY, -1.0),
            (netsim.SET_LATENCY, float("nan")),
            (netsim.SET_LOSS_RATE, 1.5),
            (netsim.SET_BUFFER_SIZE, 0),
            (netsim.SET_BUFFER_SIZE, 150.9),
            (netsim.SET_BACKGROUND_RATE, float("inf")),
        ],
    )
    def test_out_of_range_change_rejected(self, kind, value):
        with pytest.raises(ValueError):
            NetworkChange(0.0, kind, value)


class TestMeasurement:
    def test_empty_window_returns_none(self):
        world = _world()
        world.add_flow(MediaFlow("m", start_ms=5_000.0))
        world.advance(1_000.0)
        assert world.measure("m") is None

    def test_window_resets_between_samples(self):
        # One 520-bit packet every 20 ms, 0.52 ms on the wire; the latency
        # steps from 5 to 50 ms at 5 s, and every packet is lost from 6 s to 7 s.
        world = _world(latency=5.0, timeline=(
            NetworkChange(5_000.0, netsim.SET_LATENCY, 50.0),
            NetworkChange(6_000.0, netsim.SET_LOSS_RATE, 1.0),
            NetworkChange(7_000.0, netsim.SET_LOSS_RATE, 0.0),
        ))
        world.add_flow(MediaFlow("m"))
        world.advance(5_000.0)
        first = world.measure("m")
        assert first.delay_ms == pytest.approx(5.52) and first.loss == 0.0
        # Nothing resolved since the last sample, so there is no window yet.
        assert world.measure("m") is None
        world.advance(6_000.0)
        second = world.measure("m")
        assert second.delay_ms == pytest.approx(50.52) and second.loss == 0.0
        # The two packets in flight at 6 s arrive, and the 50 sent since are lost.
        world.advance(7_000.0)
        third = world.measure("m")
        assert third.delay_ms == pytest.approx(50.52) and third.loss == pytest.approx(50 / 52)
        world.advance(8_000.0)
        fourth = world.measure("m")
        assert fourth.delay_ms == pytest.approx(50.52) and fourth.loss == 0.0

    def test_window_without_deliveries_reads_a_fallback_delay(self):
        # Before any delivery, the link latency.
        world = _world(latency=30.0, loss=1.0)
        world.add_flow(MediaFlow("m"))
        world.advance(5_000.0)
        assert world.measure("m").delay_ms == 30.0
        # After one, the last window's delay: here 5 ms plus the
        # transmission of a 520-bit packet at 1000 kbps.
        lossy = NetworkChange(5_000.0, netsim.SET_LOSS_RATE, 1.0)
        world = _world(latency=5.0, timeline=(lossy,))
        world.add_flow(MediaFlow("m"))
        world.advance(5_000.0)
        delivering = world.measure("m").delay_ms
        assert delivering == pytest.approx(5.52)
        world.advance(10_000.0)
        assert world.measure("m").delay_ms == delivering

    def test_loss_counts_recoveries(self):
        world = _world(latency=5.0, loss=0.05, capacity=10_000.0, seed=5)
        world.add_flow(MediaFlow("m", packet_interval_ms=2.0, fec_block_k=4))
        world.advance(30_000.0)
        sample = world.measure("m")
        t = world.totals("m")
        assert t.recovered > 0
        assert sample.loss < 0.05  # net of recoveries

    def test_advance_backwards_rejected(self):
        world = _world()
        world.advance(100.0)
        with pytest.raises(ValueError):
            world.advance(50.0)

    def test_advance_to_nan_rejected(self):
        world = _world()
        world.add_flow(MediaFlow("g", service=netsim.GUARANTEED, reserved_kbps=30.0))
        world.advance(1_000.0)
        with pytest.raises(ValueError):
            world.advance(float("nan"))
        assert world.clock == 1_000.0

    @pytest.mark.parametrize(
        "flow", [MediaFlow("m"), MediaFlow("m", start_ms=float("nan")), BackgroundFlow("m", 100.0)]
    )
    def test_flow_starting_before_the_clock_rejected(self, flow):
        # Its first emission would run the clock backwards through the missed bursts.
        world = _world()
        world.add_flow(MediaFlow("early", start_ms=500.0))
        world.advance(1_000.0)
        with pytest.raises(ValueError, match="before the clock"):
            world.add_flow(flow)
        assert "m" not in world.flows
        world.add_flow(MediaFlow("m", start_ms=1_000.0))
        world.advance(1_100.0)
        assert world.totals("m").sent == 6
        assert world.clock == 1_100.0


class TestPacketLog:
    def test_trace_csv_is_what_csv_writer_writes(self, tmp_path):
        # Call ids whose flow ids csv.writer must quote.
        scenario = harness.scenario_from_json({
            "name": "quoting",
            "duration_s": 2.0,
            "link": {"latency_ms": 5.0, "loss_rate": 0.1, "capacity_kbps": 1000.0},
            "queue": {"capacity_pkts": 5},
            "calls": [
                {"call_id": "a,b", "flow": {"burst_pkts": 8, "fec_block_k": 2}},
                {"call_id": 'q"x'},
            ],
            "background": {"rate_kbps": 300.0},
        })
        art = harness.run(scenario, seed=1, mode="baseline", out_dir=str(tmp_path))
        # The same world, advanced in one step, logs the same rows.
        world = harness.build_world(scenario, seed=1, trace=True)
        world.advance(2_000.0)
        events = {event for _, _, event, _ in world.log}
        assert {"sent", "delivered", "dropped_link", "dropped_queue", "recovered"} <= events
        assert {fid for _, fid, _, _ in world.log} == {"flow-a,b", 'flow-q"x', "bg"}
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["time_ms", "flow_id", "event", "delay_ms"])
        for at, fid, event, delay in world.log:
            writer.writerow([f"{at:.6f}", fid, event, "" if delay is None else f"{delay:.6f}"])
        assert (tmp_path / "trace.csv").read_bytes() == expected.getvalue().encode()
        assert len(art.world.log) == len(world.log)

    def test_untraced_world_keeps_no_log(self, tmp_path):
        world = _world(loss=0.1)
        world.add_flow(MediaFlow("m"))
        world.advance(2_000.0)
        assert world.totals("m").sent > 0 and world.log == []
        # harness.run writes trace.csv as a traced run goes; write_outputs never does.
        harness.write_outputs(harness.RunArtifacts(None, {}, [], world=world), str(tmp_path))
        assert not (tmp_path / "trace.csv").exists()
