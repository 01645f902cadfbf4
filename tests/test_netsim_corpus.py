"""A packet-log corpus that any rewrite of the netsim event loop must reproduce.

Each world of the corpus is drawn from `random.Random(i)`, so the worlds
never change. Half of them draw their times from the floats, like
`test_netsim._busy_worlds`; the other half are integer-timed, so that
deliveries coincide with emissions, the ends of transmissions and
timeline changes, and only the `(time, seq)` order of the events decides
what runs first. Every world is traced and advanced to several stops; its
packet log's row count and sha256 must match `data/netsim_corpus.json`.
An untraced twin of every world, which settles its deliveries lazily,
must end each stop with the traced world's counters, samples and random
state.

A change that deliberately alters the event order records the corpus again:

    PYTHONPATH=src python tests/test_netsim_corpus.py --record
"""
import hashlib
import json
import math
import random
import sys
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

from voipqos import netsim
from voipqos.netsim import (
    BackgroundFlow,
    LinkConfig,
    MediaFlow,
    NetworkChange,
    QueueConfig,
    REDParams,
    SimWorld,
)

CORPUS = Path(__file__).resolve().parent / "data" / "netsim_corpus.json"
N_WORLDS = 64
# Each packet branch is taken by at least this many worlds.
MIN_WORLDS = 5
BRANCHES = (
    "policer_drop", "priority_push_out", "red_drop", "wred_drop", "tail_drop",
    "buffer_shed", "fec_recovery", "link_loss", "latency_drop_in_flight",
    "background_rate_change", "flow_end_in_flight",
    "delivery_meets_emission", "delivery_meets_change", "delivery_meets_tx_end",
)


def _draw_world(i: int, trace: bool = True):
    """World i of the corpus, its timeline and the sorted times to stop it at."""
    rng = random.Random(i)
    exact = i % 2 == 1
    capacity = rng.randint(2, 60)
    red_table = rng.choice(["none", "red", "wred", "wred"])
    weight = rng.choice([0.002, 0.2])
    red = (
        None if red_table == "none" else REDParams(1.0, float(capacity), 0.3, weight),
        REDParams(capacity / 2, float(capacity), 0.3) if red_table == "wred" else None,
    )
    if exact:
        # Every time is a whole number of milliseconds, and every stop and
        # change an even one: packets of 400 or 800 bits on links of
        # 100-400 kbps, background packets of 800 bits.
        def when(high):
            return 2.0 * rng.randint(0, high // 2)

        link = LinkConfig(
            float(rng.choice([0, 1, 2, 4, 10, 18, 40])),
            rng.choice([0.0, 0.1]),
            rng.choice([100.0, 200.0, 400.0]),
        )
        latencies, bg_rates = [0.0, 2.0, 10.0, 40.0], [0.0, 100.0, 200.0, 400.0]
    else:
        def when(high):
            return rng.uniform(0.0, high)

        link = LinkConfig(
            rng.choice([0.0, 15.0, 40.0]), rng.choice([0.0, 0.1]), rng.choice([100.0, 400.0])
        )
        latencies, bg_rates = [0.0, 40.0, 150.0], [0.0, 300.0, 1_200.0]
    # Latency changes are drawn twice as often as the other kinds.
    changes = [
        (netsim.SET_LATENCY, latencies),
        (netsim.SET_LATENCY, latencies),
        (netsim.SET_LOSS_RATE, [0.0, 0.05, 0.4]),
        (netsim.SET_BUFFER_SIZE, [1.0, 4.0, float(rng.randint(1, 80))]),
        (netsim.SET_BACKGROUND_RATE, bg_rates),
    ]
    timeline = []
    for _ in range(rng.randint(0, 5)):
        kind, values = rng.choice(changes)
        timeline.append(NetworkChange(when(4_000), kind, rng.choice(values)))
    world = SimWorld(
        link, QueueConfig(capacity, red), seed=rng.randint(0, 9),
        timeline=tuple(timeline), trace=trace,
    )
    for k in range(rng.randint(1, 3)):
        service = rng.choice(netsim.SERVICES)
        if exact:
            interval = rng.choice([10.0, 20.0, 40.0])
            rate = 400.0 * rng.choice([1, 2]) / interval
        else:
            interval, rate = rng.choice([2.0, 20.0]), 26.0
        start = when(2_000)
        length = rng.choice([None, when(3_000) + 1.0])
        block_k = rng.randint(0, 5)
        world.add_flow(MediaFlow(
            f"m{k}",
            rate_kbps=rate,
            packet_interval_ms=interval,
            service=service,
            # Three 32.5 kbps reservations fit the slowest link.
            reserved_kbps=32.5 if service == netsim.GUARANTEED else 0.0,
            fec_block_k=block_k,
            burst_pkts=rng.randint(1, 20),
            start_ms=start,
            end_ms=None if length is None else start + length,
        ))
    if rng.random() < 0.6:
        world.add_flow(BackgroundFlow("bg", rate_kbps=rng.choice(bg_rates)))
    stops = [when(5_000) for _ in range(rng.randint(2, 5))]
    # A stop at a flow's end ends it there, often with a burst still queued.
    stops += [st.cfg.end_ms for st in world.flows.values() if st.cfg.end_ms and rng.random() < 0.5]
    return world, timeline, sorted(stops)


def _held(world) -> int:
    """Counted packets waiting in the queue or on the wire."""
    return sum(
        1 for p in chain(world._qp, world._qb, [world._tx]) if p is not None and not p.parity
    )


def _instrument(world, taken: set) -> None:
    """Wrap the world's queue discipline and drops to note the branches taken."""
    offer_packet, drop = world.offer_packet, world._drop
    offered = []  # (packet, occupancy when offered)

    def offer(pkt):
        offered.append((pkt, world.occupancy))
        try:
            offer_packet(pkt)
        finally:
            offered.pop()

    def record_drop(pkt, reason):
        if reason == "dropped_queue":
            if not offered:
                taken.add("buffer_shed")
            elif pkt is not offered[-1][0]:
                taken.add("priority_push_out")
            elif offered[-1][1] >= world.queue.capacity_pkts:
                taken.add("tail_drop")
            else:
                taken.add("wred_drop" if pkt.pclass else "red_drop")
        drop(pkt, reason)

    world.offer_packet, world._drop = offer, record_drop


def _latency_drops(timeline):
    """A stop just before each latency change, with the new latency: a stop
    there counts the packets propagating then; the world runs the same with
    or without it."""
    return {
        math.nextafter(c.at_ms, -math.inf): c.value
        for c in timeline if c.kind == netsim.SET_LATENCY and c.at_ms > 0
    }


def _end_flows(world, stop: float, taken: set) -> None:
    """End the flows whose end is at or before the stop."""
    for fid, flow in world.flows.items():
        if flow.active and flow.cfg.end_ms is not None and flow.cfg.end_ms <= stop:
            if flow.totals.in_flight:
                taken.add("flow_end_in_flight")
            world.end_flow(fid)


def run_world(i: int):
    """Row count and sha256 of world i's packet log, and the branches it took."""
    world, timeline, stops = _draw_world(i)
    taken = set()
    _instrument(world, taken)
    drops = _latency_drops(timeline)
    for stop in sorted(set(stops) | set(drops)):
        world.advance(stop)
        if stop in drops:
            in_flight = sum(st.totals.in_flight for st in world.flows.values())
            if drops[stop] < world.link.latency_ms and in_flight > _held(world):
                taken.add("latency_drop_in_flight")
            continue
        world.check_conservation()
        _end_flows(world, stop, taken)
    rows = {(at, event) for at, _, event, _ in world.log}
    outcomes = {event for _, event in rows}
    taken |= {
        branch for branch, event in [
            ("policer_drop", "dropped_policer"), ("fec_recovery", "recovered"),
            ("link_loss", "dropped_link"),
        ] if event in outcomes
    }
    delivered = {at for at, event in rows if event == "delivered"}
    if delivered & {at for at, event in rows if event == "sent"}:
        taken.add("delivery_meets_emission")
    if delivered & {at for at, event in rows if event == "dropped_link"}:
        # A link loss is logged at the end of its packet's transmission.
        taken.add("delivery_meets_tx_end")
    if delivered & {c.at_ms for c in world.notifications}:
        taken.add("delivery_meets_change")
    if "bg" in world.flows and any(
        c.kind == netsim.SET_BACKGROUND_RATE for c in world.notifications
    ):
        taken.add("background_rate_change")
    digest = hashlib.sha256(repr(world.log).encode()).hexdigest()
    return len(world.log), digest, taken


@pytest.fixture(scope="module")
def corpus():
    return [run_world(i) for i in range(N_WORLDS)]


def test_every_world_reproduces_its_log(corpus):
    recorded = json.loads(CORPUS.read_text())
    assert len(recorded) == N_WORLDS
    mismatched = [
        i for i, ((rows, digest, _), want) in enumerate(zip(corpus, recorded))
        if [rows, digest] != want
    ]
    assert mismatched == []


def test_every_branch_is_taken_by_several_worlds(corpus):
    worlds = Counter(branch for _, _, taken in corpus for branch in taken)
    assert {b: worlds[b] for b in BRANCHES if worlds[b] < MIN_WORLDS} == {}


@pytest.mark.parametrize("i", range(N_WORLDS))
def test_an_untraced_twin_matches_the_traced_world(i):
    # Only an untraced world leaves its deliveries waiting between the
    # events that could observe them; at every stop, each flow's counters
    # (to the bit), its sample and the random state must still be the
    # traced world's.
    traced, timeline, stops = _draw_world(i)
    untraced, _, _ = _draw_world(i, trace=False)
    for stop in sorted(set(stops) | set(_latency_drops(timeline))):
        for world in (traced, untraced):
            world.advance(stop)
        assert untraced.rng.getstate() == traced.rng.getstate(), stop
        for fid, flow in traced.flows.items():
            twin = untraced.flows[fid]
            assert repr(twin.totals) == repr(flow.totals), (stop, fid)
            assert repr(untraced.measure(fid)) == repr(traced.measure(fid)), (stop, fid)
        untraced.check_conservation()
        for world in (traced, untraced):
            _end_flows(world, stop, set())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    CORPUS.parent.mkdir(exist_ok=True)
    entries = [list(run_world(i)[:2]) for i in range(N_WORLDS)]
    CORPUS.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
