"""Deterministic discrete-event simulation of a shared-bottleneck VoIP path.

All flows (media calls plus CBR background) traverse one queue and one
link; a flow's kind is its config's type.  A media packet takes the
generic path, whose queue discipline is `offer_packet`; a background
packet, always best effort without FEC, takes its own short branch of
`advance` that runs the same class-0 discipline inline.  The queue has a
strict-priority class used by the IntServ-style service classes and a
per-class RED table (RED: a curve for best effort; WRED: a laxer one for
priority too).  A media flow's FEC is its block size,
`fec_block_k`, of single-parity blocks (0: no FEC), and a guaranteed
flow's `reserved_kbps` of 0 means the default, 1.25 x its rate.  The
live queue and media flows are derived from their configured values and
the applied mechanisms' ledger, `SimWorld.mechanisms`, whose one writer
is `SimWorld.set_mechanism`.  Guaranteed reservations are summed from the
live flows.  A scripted timeline of network changes is the one way to
change the network (its latency, loss rate, buffer size and background
rate); `SimWorld.notifications` logs every applied change, in order, and
every run with the same (seed, config) produces the same event history.

The event heap holds only the flows' emissions and the next timeline
change: the rest of the timeline waits, ready-made, in its own queue, so
the heap's size does not grow with the timeline.  The link is a slot,
the packet on the wire with the end of its transmission and the seq that
end would take in the heap.  Before `advance` runs a heap event it runs,
in one loop, every transmission end due before the event's (time, seq):
the link-loss draw, the scheduled delivery and the next queued packet.
So every event still runs in (time, seq) order, and every seq and random
draw is taken at the same moment as if the ends were heap events.  The
queue is empty whenever the link is idle, so a packet that finds the link
idle goes on the wire.

A delivery is due one latency after its transmission ends.  Deliveries
wait in one queue kept in (due, seq) order, where one that a latency
drop puts before those already waiting is inserted in its place, until
something could observe them, and then are settled in that order: before
a traced world's next log row, before the drop of an FEC-block packet
(whose block a delivery may resolve), at the end of `advance`, and once
`SETTLE_AFTER` more have come to wait, so the queue holds about what is
in flight.  A delivery draws no random number and touches only its
flow's counters and block, so the totals, the packet log and the random
stream are those of a world that ran every delivery at its due time.

A packet is a plain tuple, (flow state, bits, created_ms, priority class,
FEC block or None, parity), built once with every field known: a class-1
packet is a new tuple that `_offer` hands on, and a background burst's
equal packets share one.  A tuple costs no constructor frame, which a
class's `__init__` would add to every packet.  A flow holds only its open
block, and the world the one packet on the wire.  A flow's totals are its
one set of packet counters: a measurement window is three of the totals,
delivered, dropped and recovered, since the last sample, plus the
window's own delay sum.  The packet log, one row per packet outcome, is
kept only by a world built with `trace=True`; the harness gives a traced
run's world a log that it writes to trace.csv after every window.  This
module reads and writes no file.
"""
from __future__ import annotations

import math
import random
from bisect import insort
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from heapq import heappop, heappush, heapreplace
from itertools import chain, count
from typing import Dict, List, Mapping, Optional, Tuple

from .metrics import HeuristicSample, left_sum

BEST_EFFORT = "best_effort"
CONTROLLED_LOAD = "controlled_load"
GUARANTEED = "guaranteed"
SERVICES = (BEST_EFFORT, CONTROLLED_LOAD, GUARANTEED)
# Token-bucket depth of a guaranteed flow, in packets.
BUCKET_DEPTH_PKTS = 10
# The buffer capacities a buffer mechanism's step may reach.
BUFFER_MIN_PKTS = 10
BUFFER_MAX_PKTS = 200
# A guaranteed flow's default reservation per kbps of its rate: FEC and scheduling headroom.
GUARANTEED_RESERVATION_FACTOR = 1.25
# Deliveries that may come to wait between two settlements in an untraced world.
SETTLE_AFTER = 128


class AdmissionRefusedError(Exception):
    """Raised when a guaranteed-service reservation cannot be admitted."""


def _check_count(name: str, value: int) -> None:
    """Raise ValueError unless value is an int >= 1 (a packet count)."""
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class LinkConfig:
    latency_ms: float = 6.0
    loss_rate: float = 0.0
    capacity_kbps: float = 1000.0

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not 0 <= self.latency_ms < math.inf:
            raise ValueError("latency_ms must be finite and >= 0")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("loss_rate must be in [0, 1]")
        if not 0 < self.capacity_kbps < math.inf:
            raise ValueError("capacity_kbps must be finite and > 0")


@dataclass(frozen=True)
class REDParams:
    min_th: float = 50.0
    max_th: float = 100.0
    max_p: float = 0.1
    ewma_weight: float = 0.002

    def __post_init__(self) -> None:
        if not 0 < self.min_th < self.max_th:
            raise ValueError("need 0 < min_th < max_th")
        if not 0.0 < self.max_p <= 1.0:
            raise ValueError("max_p must be in (0, 1]")
        if not 0.0 < self.ewma_weight <= 1.0:
            raise ValueError("ewma_weight must be in (0, 1]")


# RED drop curve per priority class (0 = best effort, 1 = priority);
# None is tail drop only.
REDTable = Tuple[Optional[REDParams], Optional[REDParams]]


@dataclass(frozen=True)
class QueueConfig:
    capacity_pkts: int = 100
    # Class 0's EWMA weight drives the average queue of both classes.
    red: REDTable = (None, None)

    def __post_init__(self) -> None:
        _check_count("capacity_pkts", self.capacity_pkts)
        if len(self.red) != 2:
            raise ValueError("red needs one entry per priority class")
        if self.red[0] is None and self.red[1] is not None:
            raise ValueError("a priority RED curve needs a best-effort curve to drive the average")
        for params in self.red:
            if params is not None and params.max_th > self.capacity_pkts:
                raise ValueError("max_th must not exceed capacity_pkts")


@dataclass(frozen=True)
class Effect:
    """What one applied mechanism changes: the shared queue (a buffer step
    or a replacement RED table) or its flow (the MediaFlow fields it sets:
    a service class with its reservation, 0 for the default, or an FEC
    block size)."""

    step_pkts: Optional[int] = None
    red: Optional[REDTable] = None
    flow: Mapping[str, object] = field(default_factory=dict)


def red_drop_probability(params: REDParams, avg_queue: float) -> float:
    """Early-drop probability at the given average queue length."""
    if avg_queue < params.min_th:
        return 0.0
    if avg_queue > params.max_th:
        return 1.0
    span = params.max_th - params.min_th
    return params.max_p * (avg_queue - params.min_th) / span


@dataclass(frozen=True)
class MediaFlow:
    """A voice (or video-profile) media flow."""

    flow_id: str
    rate_kbps: float = 26.0
    packet_interval_ms: float = 20.0
    service: str = BEST_EFFORT
    reserved_kbps: float = 0.0
    fec_block_k: int = 0
    burst_pkts: int = 1
    start_ms: float = 0.0
    end_ms: Optional[float] = None

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not (0 < self.rate_kbps < math.inf and 0 < self.packet_interval_ms < math.inf):
            raise ValueError("rate_kbps and packet_interval_ms must be finite and > 0")
        if self.service == GUARANTEED and self.reserved_kbps == 0:
            reserved = self.rate_kbps * GUARANTEED_RESERVATION_FACTOR
            object.__setattr__(self, "reserved_kbps", reserved)
        # The default is checked too: a rate near the float limit overflows it.
        if not 0 <= self.reserved_kbps < math.inf:
            raise ValueError("reserved_kbps must be finite and >= 0")
        _check_count("burst_pkts", self.burst_pkts)
        if self.fec_block_k != 0:
            _check_count("fec_block_k", self.fec_block_k)
        if self.service not in SERVICES:
            raise ValueError(f"unknown service class {self.service!r}")

    @cached_property
    def packet_bits(self) -> float:
        return self.rate_kbps * self.packet_interval_ms


@dataclass(frozen=True)
class BackgroundFlow:
    """CBR cross traffic sharing the bottleneck."""

    flow_id: str
    rate_kbps: float = 0.0
    packet_bytes: int = 100
    burst_pkts: int = 1
    # What the world reads of a MediaFlow, as constants, not fields: a
    # background flow is best effort and runs from the start to the end.
    service = BEST_EFFORT
    start_ms = 0.0
    end_ms = None

    def __post_init__(self) -> None:
        # A rate of 0 is a silent flow that a timeline change may start.
        if not 0 <= self.rate_kbps < math.inf:
            raise ValueError("background rate_kbps must be finite and >= 0")
        _check_count("packet_bytes", self.packet_bytes)
        _check_count("burst_pkts", self.burst_pkts)

    @cached_property
    def packet_bits(self) -> float:
        return self.packet_bytes * 8.0

    @cached_property
    def packet_interval_ms(self) -> float:
        return self.packet_bits / self.rate_kbps


# Markers of the heap's events: a media flow's and a background flow's
# emission of its next burst (of a (flow state, epoch) pair), and a
# timeline change (of the change).
_EMIT = "emit"
_BACKGROUND = "background"
_CHANGE = "change"

SET_LATENCY = "set_latency"
SET_LOSS_RATE = "set_loss_rate"
SET_BUFFER_SIZE = "set_buffer_size"
SET_BACKGROUND_RATE = "set_background_rate"
# The values each change kind accepts, bounds included.
CHANGE_RANGES = {
    SET_LATENCY: (0.0, math.inf),
    SET_LOSS_RATE: (0.0, 1.0),
    SET_BUFFER_SIZE: (1.0, math.inf),
    SET_BACKGROUND_RATE: (0.0, math.inf),
}


# Read, never written, by the world and the controller. Slotted rather than
# frozen: a scenario's parse builds one per timeline entry, and a frozen
# dataclass is slower to build.
@dataclass(slots=True)
class NetworkChange:
    at_ms: float
    kind: str
    value: float

    def __post_init__(self) -> None:
        kind, value = self.kind, self.value
        if kind not in CHANGE_RANGES:
            raise ValueError(f"unknown network change kind: {kind}")
        low, high = CHANGE_RANGES[kind]
        if not (low <= value <= high and math.isfinite(value)):
            raise ValueError(
                f"{kind} value {value!r} is not a finite number in [{low:g}, {high:g}]"
            )
        if kind == SET_BUFFER_SIZE and value != int(value):
            raise ValueError(f"{kind} value {value!r} is not a whole number of packets")


@dataclass(slots=True)
class FlowCounters:
    sent: int = 0
    delivered: int = 0
    dropped_link: int = 0
    dropped_queue: int = 0
    dropped_policer: int = 0
    recovered: int = 0
    delay_sum_ms: float = 0.0

    @property
    def delay_n(self) -> int:
        return self.delivered + self.recovered

    @property
    def dropped(self) -> int:
        return self.dropped_link + self.dropped_queue + self.dropped_policer

    @property
    def in_flight(self) -> int:
        return self.sent - self.delivered - self.dropped


@dataclass
class _Block:
    """One FEC block: its media packets and the parity sent after them."""

    sent: int = 0
    media_resolved: int = 0
    # Creation times of the lost media; holding no packet, a block forms
    # no reference cycle with the packets that point to it.
    lost: List[float] = field(default_factory=list)
    parity_ok: bool = False
    last_arrival_ms: float = 0.0


class _FlowState:
    __slots__ = (
        "cfg", "configured", "derived", "epoch", "block", "tokens_bits", "tokens_at_ms",
        "totals", "mark", "window_delay_ms", "last_delay_ms", "active",
    )

    def __init__(self, cfg):
        # The caller's config; `cfg` is the live one, derived from the ledger
        # or replaced by the timeline.
        self.configured = cfg
        self.cfg = cfg
        # The flows set_mechanism has derived, by their ledger's field items.
        self.derived: Dict[tuple, MediaFlow] = {}
        # A scheduled emission runs only while its epoch is the flow's.
        self.epoch = 0
        self.block: Optional[_Block] = None  # the open FEC block
        self.tokens_bits = 0.0
        self.tokens_at_ms = 0.0
        self.totals = FlowCounters()
        # The (delivered, dropped, recovered) totals at the last sample; the
        # window's delay sum has its own accumulator.
        self.mark = (0, 0, 0)
        self.window_delay_ms = 0.0
        self.last_delay_ms: Optional[float] = None
        self.active = True


# (flow state, bits, created_ms, pclass, FEC block or None, parity); pclass 1 is priority.
Packet = Tuple[_FlowState, float, float, int, Optional[_Block], bool]


class SimWorld:
    """Single-bottleneck network world with a scripted impairment timeline."""

    def __init__(
        self,
        link: LinkConfig,
        queue: QueueConfig,
        seed: int = 0,
        timeline: Tuple[NetworkChange, ...] = (),
        trace: bool = False,
    ):
        self.clock = 0.0
        self.rng = random.Random(seed)
        self.link = link
        # The configured queue; `queue` is derived from it and the ledger.
        self.configured_capacity_pkts = queue.capacity_pkts
        self.configured_red = queue.red
        self.queue = queue
        self.flows: Dict[str, _FlowState] = {}
        # Emissions and the next timeline change, as (at_ms, seq, marker,
        # payload). Every event, a transmission end and a delivery included,
        # takes the next seq, and all of them run in (at_ms, seq) order, so
        # equal times run in the order they were scheduled.
        self._events: List[Tuple[float, int, str, object]] = []
        self._seq = count(1)
        # The key of the event running, or of the last one run: what a drop
        # settles the deliveries before.
        self._now: tuple = (0.0, 0)
        # The timeline's changes, in time order, take the first seqs. Only
        # the next one sits in the heap, and running it pushes the one after.
        self._timeline = deque(
            (change.at_ms, next(self._seq), _CHANGE, change)
            for change in sorted(timeline, key=lambda c: c.at_ms)
        )
        if self._timeline:
            heappush(self._events, self._timeline.popleft())
        self._qp: deque = deque()
        self._qb: deque = deque()
        self._avg_queue = 0.0
        # The link: the packet on the wire, its transmission's end and seq.
        self._tx: Optional[Packet] = None
        self._tx_at = 0.0
        self._tx_seq = 0
        # Deliveries waiting to be settled, as (due, seq, packet), in
        # (due, seq) order.
        self._fifo: deque = deque()
        # Rows of (time_ms, flow_id, outcome, delay_ms or None), when tracing.
        self.trace = trace
        self.log: List[Tuple[float, str, str, Optional[float]]] = []
        self.notifications: List[NetworkChange] = []
        # Applied QoS mechanisms by (flow_id, ActionId), oldest first, each
        # with its effect; written only by set_mechanism.
        self.mechanisms: Dict[Tuple[str, object], Effect] = {}

    # ---------------- event machinery ----------------

    def advance(self, until_ms: float) -> None:
        # Written so that NaN fails the check.
        if not until_ms >= self.clock:
            raise ValueError("cannot advance backwards")
        events, fifo, seq, rng = self._events, self._fifo, self._seq, self.rng
        qp, qb = self._qp, self._qb
        trace, log, settle = self.trace, self.log.append, self._settle
        end = (until_ms, math.inf)
        settle_at = len(fifo) + SETTLE_AFTER
        while True:
            head = events[0] if events and events[0][0] <= until_ms else end
            at, head_seq = head[0], head[1]
            pkt, tx_at, tx_seq = self._tx, self._tx_at, self._tx_seq
            if pkt is not None and (tx_at < at or (tx_at == at and tx_seq < head_seq)):
                # Every transmission end due before the head: link loss or
                # propagation; then the next queued packet, priority first,
                # goes on the wire. No heap event runs meanwhile, so the link
                # stays as it is.
                link = self.link
                loss, latency, capacity = link.loss_rate, link.latency_ms, link.capacity_kbps
                while True:
                    if loss > 0 and rng.random() < loss:
                        self.clock, self._now = tx_at, (tx_at, tx_seq)
                        self._drop(pkt, "dropped_link")
                    else:
                        due = tx_at + latency
                        if not fifo or due >= fifo[-1][0]:
                            fifo.append((due, next(seq), pkt))
                        else:
                            # Only a latency drop with packets in flight gets here.
                            insort(fifo, (due, next(seq), pkt))
                    if qp:
                        pkt = qp.popleft()
                    elif qb:
                        pkt = qb.popleft()
                    else:
                        pkt = None
                        break
                    tx_at += pkt[1] / capacity
                    tx_seq = next(seq)
                    if not (tx_at < at or (tx_at == at and tx_seq < head_seq)):
                        break
                self._tx, self._tx_at, self._tx_seq = pkt, tx_at, tx_seq
            if head is end:
                break
            self.clock = at
            if trace or len(fifo) > settle_at:
                # A traced world logs every row in event order; an untraced
                # one settles here only to keep the FIFO near what is in flight.
                settle(head)
                settle_at = len(fifo) + SETTLE_AFTER
            self._now = head
            marker = head[2]
            if marker is _CHANGE:
                heappop(events)
                self._do_change(head[3])
                if self._timeline:
                    heappush(events, self._timeline.popleft())
                continue
            st, epoch = arg = head[3]
            cfg = st.cfg
            # end_flow and every background rate change start a new epoch.
            if epoch != st.epoch or (cfg.end_ms is not None and at >= cfg.end_ms):
                heappop(events)
                continue
            # Nothing in a burst replaces st.cfg, so the burst reads it once.
            bits, totals = cfg.packet_bits, st.totals
            if marker is _BACKGROUND:
                # offer_packet's class-0 discipline, inline: a background
                # packet has no FEC block, no policer and no priority.
                queue = self.queue
                red, capacity = queue.red[0], queue.capacity_pkts
                pkt = (st, bits, at, 0, None, False)
                for _ in range(cfg.burst_pkts):
                    totals.sent += 1
                    if trace:
                        log((at, cfg.flow_id, "sent", None))
                    occ = len(qp) + len(qb)
                    if red is not None:
                        w = red.ewma_weight
                        self._avg_queue = (1.0 - w) * self._avg_queue + w * occ
                    if occ >= capacity:
                        self._drop(pkt, "dropped_queue")
                        continue
                    if red is not None:
                        p = red_drop_probability(red, self._avg_queue)
                        if p >= 1.0 or (p > 0.0 and rng.random() < p):
                            self._drop(pkt, "dropped_queue")
                            continue
                    if self._tx is None:
                        self._tx, self._tx_at = pkt, at + bits / self.link.capacity_kbps
                        self._tx_seq = next(seq)
                    else:
                        qb.append(pkt)
            else:
                block_k = cfg.fec_block_k
                # Only controlled-load and guaranteed packets are marked and policed.
                offer = self.offer_packet if cfg.service == BEST_EFFORT else self._offer
                block = None
                for _ in range(cfg.burst_pkts):
                    if block_k:
                        block = st.block
                        if block is None:
                            block = st.block = _Block()
                        block.sent += 1
                    totals.sent += 1
                    if trace:
                        log((at, cfg.flow_id, "sent", None))
                    offer((st, bits, at, 0, block, False))
                    if block_k and block.sent >= block_k:
                        st.block = None
                        offer((st, bits, at, 0, block, True))
            # A burst pushes nothing on the heap, so its emission is still the top.
            due = at + cfg.burst_pkts * cfg.packet_interval_ms
            heapreplace(events, (due, next(seq), marker, arg))
        settle(end)
        self.clock = until_ms

    def _settle(self, before: tuple) -> None:
        """Run every waiting delivery whose (due, seq) comes before `before`,
        an event's key, in (due, seq) order."""
        fifo = self._fifo
        trace, now = self.trace, self.clock
        while fifo and fifo[0] < before:
            due, _, pkt = fifo.popleft()
            st, _, created_ms, _, block, parity = pkt
            if not parity:
                delay = due - created_ms
                totals = st.totals
                totals.delivered += 1
                totals.delay_sum_ms += delay
                st.window_delay_ms += delay
                if trace:
                    self.log.append((due, st.cfg.flow_id, "delivered", delay))
            if block is not None:
                self.clock = due
                self._block_resolve(pkt, delivered=True)
        self.clock = now

    # ---------------- flow management ----------------

    @property
    def reserved_kbps(self) -> float:
        """Bandwidth reserved by the active guaranteed media flows."""
        return self._reserved_except(None)

    def _reserved_except(self, flow_id: Optional[str]) -> float:
        return left_sum(
            st.cfg.reserved_kbps
            for fid, st in self.flows.items()
            if fid != flow_id and st.active and st.cfg.service == GUARANTEED
        )

    def add_flow(self, cfg: MediaFlow | BackgroundFlow) -> None:
        """Add a media or background flow; one of rate 0 sends nothing yet."""
        if cfg.flow_id in self.flows:
            raise ValueError(f"duplicate flow id {cfg.flow_id}")
        # Written so that NaN fails the check.
        if not cfg.start_ms >= self.clock:
            raise ValueError(f"flow {cfg.flow_id} starts at {cfg.start_ms} ms, before the clock")
        st = _FlowState(cfg)
        if cfg.service == GUARANTEED:
            self._admit(cfg.flow_id, cfg.reserved_kbps)
            st.tokens_bits = BUCKET_DEPTH_PKTS * cfg.packet_bits
            st.tokens_at_ms = cfg.start_ms
        self.flows[cfg.flow_id] = st
        if cfg.rate_kbps > 0:
            marker = _BACKGROUND if isinstance(cfg, BackgroundFlow) else _EMIT
            heappush(self._events, (cfg.start_ms, next(self._seq), marker, (st, st.epoch)))

    def end_flow(self, flow_id: str) -> None:
        st = self.flows[flow_id]
        st.active = False
        st.epoch += 1

    def _admit(self, flow_id: str, reserved_kbps: float) -> None:
        """Raise unless the reservation fits in what the other flows leave free."""
        others = self._reserved_except(flow_id)
        if others + reserved_kbps > self.link.capacity_kbps:
            raise AdmissionRefusedError(
                f"{flow_id}: reservation {reserved_kbps} kbps exceeds headroom "
                f"({self.link.capacity_kbps - others} kbps free)"
            )

    # ---------------- the mechanism ledger ----------------

    def set_mechanism(self, flow_id: str, action: object, effect: Optional[Effect]) -> None:
        """Add the media flow's ledger entry for an action, or remove it when
        effect is None; then derive the flow (its configured MediaFlow with its
        entries' fields set, oldest first) and the queue. A flow entering
        guaranteed service, or changing its reservation, is admitted again. A
        refused admission raises AdmissionRefusedError, changing nothing, when
        the added entry asks for guaranteed service; otherwise the flow is
        served best effort.
        """
        st = self.flows[flow_id]
        if isinstance(st.cfg, BackgroundFlow):
            raise ValueError("QoS mechanisms act on behalf of media flows")
        ledger = dict(self.mechanisms)
        key = (flow_id, action)
        if effect is None:
            changed = (ledger.pop(key),)
        else:
            changed = (effect,) if key not in ledger else (ledger[key], effect)
            ledger[key] = effect
        fields = tuple(
            item for (fid, _), e in ledger.items() if fid == flow_id for item in e.flow.items()
        )
        cfg = st.derived.get(fields)
        if cfg is None:
            cfg = st.derived[fields] = replace(st.configured, **dict(fields))
        if cfg.service == GUARANTEED and (st.cfg.service, st.cfg.reserved_kbps) != (
            GUARANTEED, cfg.reserved_kbps
        ):
            try:
                self._admit(flow_id, cfg.reserved_kbps)
            except AdmissionRefusedError:
                if effect is not None and effect.flow.get("service") == GUARANTEED:
                    raise
                # Traffic outside an admitted reservation is best effort (RFC 2212).
                cfg = replace(cfg, service=BEST_EFFORT, reserved_kbps=0.0)
            else:
                st.tokens_bits = BUCKET_DEPTH_PKTS * cfg.packet_bits
                st.tokens_at_ms = self.clock
        if cfg.fec_block_k != st.cfg.fec_block_k:
            st.block = None  # the open block will never get its parity packet
        st.cfg = cfg
        self.mechanisms = ledger
        # An entry that changes only its flow leaves the derived queue as it was.
        if any(e.step_pkts is not None or e.red is not None for e in changed):
            self._derive_queue()

    def _derive_queue(self) -> None:
        """Fold the ledger's queue effects, oldest first, into the configured
        queue (buffer steps stack, clamped in turn; the newest RED table
        wins), then shed what no longer fits, newest best effort first."""
        capacity, red = self.configured_capacity_pkts, self.configured_red
        for effect in self.mechanisms.values():
            if effect.step_pkts is not None:
                capacity += effect.step_pkts
                capacity = max(BUFFER_MIN_PKTS, min(BUFFER_MAX_PKTS, capacity))
            if effect.red is not None:
                red = effect.red
        self.queue = QueueConfig(capacity, tuple(_clamp_red(p, capacity) for p in red))
        while self.occupancy > self.queue.capacity_pkts:
            pkt = self._qb.pop() if self._qb else self._qp.pop()
            self._drop(pkt, "dropped_queue")

    # ---------------- network changes ----------------

    def _do_change(self, change: NetworkChange) -> None:
        kind, value, link = change.kind, change.value, self.link
        if kind == SET_LATENCY:
            self.link = LinkConfig(value, link.loss_rate, link.capacity_kbps)
        elif kind == SET_LOSS_RATE:
            self.link = LinkConfig(link.latency_ms, value, link.capacity_kbps)
        elif kind == SET_BUFFER_SIZE:
            self.configured_capacity_pkts = int(value)
            self._derive_queue()
        elif kind == SET_BACKGROUND_RATE:
            for st in self.flows.values():
                cfg = st.cfg
                if isinstance(cfg, BackgroundFlow):
                    st.cfg = BackgroundFlow(cfg.flow_id, value, cfg.packet_bytes, cfg.burst_pkts)
                    st.epoch += 1
                    if value > 0 and st.active:
                        at = self.clock + st.cfg.packet_interval_ms
                        heappush(self._events, (at, next(self._seq), _BACKGROUND, (st, st.epoch)))
        self.notifications.append(change)

    # ---------------- policing and queueing ----------------

    def _offer(self, pkt: Packet) -> None:
        """Police a controlled-load or guaranteed packet; queue a class-1 copy
        of it unless it is guaranteed and beyond its token bucket."""
        st, bits, created_ms, _, block, parity = pkt
        cfg = st.cfg
        if cfg.service == GUARANTEED:
            # Refill the token bucket for the time since its last refill.
            depth = BUCKET_DEPTH_PKTS * cfg.packet_bits
            elapsed = self.clock - st.tokens_at_ms
            st.tokens_bits = min(depth, st.tokens_bits + cfg.reserved_kbps * elapsed)
            st.tokens_at_ms = self.clock
            if st.tokens_bits < bits:
                # Non-conforming traffic is policed under congestion,
                # otherwise sent best effort, in class 0.
                if self.occupancy >= self.queue.capacity_pkts // 2:
                    self._drop(pkt, "dropped_policer")
                else:
                    self.offer_packet(pkt)
                return
            st.tokens_bits -= bits
        self.offer_packet((st, bits, created_ms, 1, block, parity))

    @property
    def occupancy(self) -> int:
        return len(self._qp) + len(self._qb)

    def offer_packet(self, pkt: Packet) -> None:
        """Run the queue discipline for one media packet: drop it, queue it,
        or, on an idle link, whose queue is always empty, transmit it at
        once. A background packet takes the same class-0 discipline inline,
        in `advance`."""
        qb = self._qb
        occ = len(self._qp) + len(qb)
        queue = self.queue
        red = queue.red
        pclass = pkt[3]
        params = red[pclass]
        if red[0] is not None:
            w = red[0].ewma_weight
            self._avg_queue = (1.0 - w) * self._avg_queue + w * occ
        if occ >= queue.capacity_pkts:
            # A full buffer yields to priority traffic: the newest
            # best-effort packet is pushed out to make room.
            if pclass == 1 and qb:
                self._drop(qb.pop(), "dropped_queue")
            else:
                self._drop(pkt, "dropped_queue")
                return
        if params is not None:
            p = red_drop_probability(params, self._avg_queue)
            if p >= 1.0 or (p > 0.0 and self.rng.random() < p):
                self._drop(pkt, "dropped_queue")
                return
        if self._tx is None:
            self._tx = pkt
            self._tx_at = self.clock + pkt[1] / self.link.capacity_kbps
            self._tx_seq = next(self._seq)
        elif pclass == 1:
            self._qp.append(pkt)
        else:
            qb.append(pkt)

    # ---------------- terminal events ----------------

    def _record(self, st: _FlowState, outcome: str, delay: Optional[float] = None) -> None:
        """Count one drop or recovery in the flow's totals, and log it when
        tracing (`advance` counts a sent and a delivered packet).

        `outcome` names the FlowCounters field to bump; a given delay is
        added to the totals' and the window's delay sums. Parity packets
        are never recorded.
        """
        totals = st.totals
        setattr(totals, outcome, getattr(totals, outcome) + 1)
        if delay is not None:
            totals.delay_sum_ms += delay
            st.window_delay_ms += delay
        if self.trace:
            self.log.append((self.clock, st.cfg.flow_id, outcome, delay))

    def _drop(self, pkt: Packet, reason: str) -> None:
        st, _, _, _, block, parity = pkt
        if self.trace or block is not None:
            # Its log row, or its block's resolution, follows every delivery due before it.
            self._settle(self._now)
        if not parity:
            self._record(st, reason)
        if block is not None:
            self._block_resolve(pkt, delivered=False)

    def _block_resolve(self, pkt: Packet, delivered: bool) -> None:
        """Resolve one packet of a block. The block's last resolution, once
        all its media are resolved and its parity arrived, recovers its one
        lost media packet, if exactly one was lost."""
        st, _, created_ms, _, block, parity = pkt
        if parity:
            block.parity_ok = delivered
        else:
            block.media_resolved += 1
            if not delivered:
                block.lost.append(created_ms)
        if delivered:
            block.last_arrival_ms = self.clock
        if block.parity_ok and block.media_resolved == block.sent and len(block.lost) == 1:
            self._record(st, "recovered", block.last_arrival_ms - block.lost[0])

    # ---------------- measurement ----------------

    def measure(self, flow_id: str) -> Optional[HeuristicSample]:
        """Sample of the flow's window, the totals since the last sample;
        starts the next window.

        Returns None when nothing was resolved in the window (the caller
        keeps its previous sample, and the window goes on).
        """
        st = self.flows[flow_id]
        t = st.totals
        # Summed here, not by the counters' property: this runs once per window.
        dropped_total = t.dropped_link + t.dropped_queue + t.dropped_policer
        mark_delivered, mark_dropped, mark_recovered = st.mark
        delivered = t.delivered - mark_delivered
        dropped = dropped_total - mark_dropped
        resolved = delivered + dropped
        if resolved == 0:
            return None
        recovered = t.recovered - mark_recovered
        loss = min(1.0, max(0.0, (dropped - recovered) / resolved))
        delay_n = delivered + recovered
        if delay_n > 0:
            delay = st.window_delay_ms / delay_n
            st.last_delay_ms = delay
        elif st.last_delay_ms is not None:
            delay = st.last_delay_ms
        else:
            delay = self.link.latency_ms
        st.mark = (t.delivered, dropped_total, t.recovered)
        st.window_delay_ms = 0.0
        return HeuristicSample.from_measurement(delay, loss)

    def totals(self, flow_id: str) -> FlowCounters:
        return self.flows[flow_id].totals

    def check_conservation(self) -> None:
        """Each flow's in-flight count equals its packets still held.

        A counted packet is held while it waits in the queue, is on the
        link (`_tx`) or waits to be delivered (`_fifo`). The queue is empty
        whenever the link is idle, as the queue discipline assumes.
        """
        if self._tx is None and self.occupancy:
            raise AssertionError(f"{self.occupancy} packets queued on an idle link")
        pending = (pkt for _, _, pkt in self._fifo)
        held = Counter(
            p[0] for p in chain(self._qp, self._qb, [self._tx], pending)
            if p is not None and not p[5]
        )
        for fid, st in self.flows.items():
            if st.totals.in_flight != held[st]:
                raise AssertionError(
                    f"conservation violated for flow {fid}: {st.totals.in_flight} "
                    f"in flight by its counters, {held[st]} held in queue or on the link"
                )


def _clamp_red(params: Optional[REDParams], capacity: int) -> Optional[REDParams]:
    """Scale thresholds down so max_th fits the buffer."""
    if params is None or params.max_th <= capacity:
        return params
    scale = capacity / params.max_th
    min_th = max(1.0, params.min_th * scale)
    if min_th + 1.0 > capacity:
        # The one-packet floors overshoot the buffer: scale min_th alone.
        min_th = params.min_th * scale
    return REDParams(min_th, float(capacity), params.max_p, params.ewma_weight)
