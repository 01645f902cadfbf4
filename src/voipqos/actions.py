"""QoS mechanism catalog: identifiers, world effects, conflicts, defaults.

apply_action turns an action into its `netsim.Effect` (a buffer step, a
RED/WRED table, an FEC config, or a service class with its reservation)
and adds it to the world's ledger, `SimWorld.mechanisms`, keyed by
(flow_id, action) in application order; stop_action removes it.  A refusal
raises `netsim.AdmissionRefusedError`, the one refusal error.  The world
derives the shared queue and the flow from the ledger, so nothing is
snapshotted or restored, and one call's stop leaves the others' in place.
CASE_ORDER fixes each case's actions and their order in the shipped
knowledge seed, which `harness.default_kb` reads; this module reads no file.

Every ledger lookup, every `set` of tried actions and every membership test
in selection hashes an `ActionId`, so each id hashes its fields once, when
it is made. A `TransitionRecord` is built for each application, stop and d1
state, so it is slotted rather than frozen: a slotted dataclass builds
several times faster, and no record is written after it is made.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

from . import netsim
from .netsim import AdmissionRefusedError, Effect, FecConfig, REDParams, SimWorld

INCREASE_BUFFER = "increase_buffer"
DECREASE_BUFFER = "decrease_buffer"
ENABLE_RED = "enable_red"
ENABLE_WRED = "enable_wred"
ENABLE_FEC = "enable_fec"
CONTROLLED_LOAD = "controlled_load"
GUARANTEED_LOAD = "guaranteed_load"

BUFFER_STEP_PKTS = 15

# The service class each service-class action moves its flow into.
SERVICE_OF = {CONTROLLED_LOAD: netsim.CONTROLLED_LOAD, GUARANTEED_LOAD: netsim.GUARANTEED}

# Headroom factor applied to the flow rate when reserving guaranteed
# bandwidth (covers FEC parity overhead and scheduling slack).
GUARANTEED_RESERVATION_FACTOR = 1.25


# The one refusal error, under the name that bench/tracer.py catches.
ActionFailedError = AdmissionRefusedError


@dataclass(frozen=True)
class ActionId:
    kind: str
    params: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        # Canonical parameter order so identity survives serialization.
        object.__setattr__(self, "params", tuple(sorted(self.params)))
        # Hashed once, not on every lookup as dataclass's own __hash__ would.
        object.__setattr__(self, "_hash", hash((self.kind, self.params)))

    def __hash__(self) -> int:
        return self._hash

    def param(self, name: str) -> float:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(f"{self.name} has no parameter {name!r}")

    @cached_property
    def name(self) -> str:
        if not self.params:
            return self.kind
        args = ",".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.kind}({args})"


def increase_buffer(step_pkts: int = BUFFER_STEP_PKTS) -> ActionId:
    return ActionId(INCREASE_BUFFER, (("step_pkts", float(step_pkts)),))


def decrease_buffer(step_pkts: int = BUFFER_STEP_PKTS) -> ActionId:
    return ActionId(DECREASE_BUFFER, (("step_pkts", float(step_pkts)),))


def enable_red(min_th: float = 50, max_th: float = 100, max_p: float = 0.1) -> ActionId:
    return ActionId(
        ENABLE_RED, (("min_th", min_th), ("max_th", max_th), ("max_p", max_p))
    )


def enable_wred(min_th: float = 50, max_th: float = 100, max_p: float = 0.1) -> ActionId:
    return ActionId(
        ENABLE_WRED, (("min_th", min_th), ("max_th", max_th), ("max_p", max_p))
    )


def enable_fec(block_k: int = 4) -> ActionId:
    # Single parity, named in the id as knowledge-base files record it.
    return ActionId(ENABLE_FEC, (("block_k", float(block_k)), ("parity", 1.0)))


def controlled_load() -> ActionId:
    return ActionId(CONTROLLED_LOAD)


def guaranteed_load() -> ActionId:
    return ActionId(GUARANTEED_LOAD)


# Mutually exclusive mechanism groups.
CONFLICT_SETS: Tuple[frozenset, ...] = (
    frozenset({INCREASE_BUFFER, DECREASE_BUFFER}),
    frozenset({CONTROLLED_LOAD, GUARANTEED_LOAD}),
    frozenset({ENABLE_RED, ENABLE_WRED}),
)


# Each kind in CONFLICT_SETS with the kinds that share a set with it.
_CONFLICTING_KINDS: Dict[str, frozenset] = {
    kind: frozenset().union(*(s for s in CONFLICT_SETS if kind in s))
    for group in CONFLICT_SETS
    for kind in group
}


def conflicts(a: ActionId, b: ActionId) -> bool:
    """True iff the two catalog actions must not coexist."""
    if a.kind == b.kind:
        # Two parameterizations of one mechanism are mutually exclusive.
        return a != b
    return b.kind in _CONFLICTING_KINDS.get(a.kind, ())


# Read, never written, by the controller and the harness; slotted rather
# than frozen, as the module docstring says.
@dataclass(slots=True)
class TransitionRecord:
    kind: str  # "d1" | "d2" | "d3"
    cause: str
    at_ms: float
    call_id: str = ""
    noop: bool = False


def active_actions(world: SimWorld, flow_id: str) -> List[ActionId]:
    """The flow's applied mechanisms, oldest first."""
    return [a for (fid, a) in world.mechanisms if fid == flow_id]


def apply_action(
    world: SimWorld, flow_id: str, action: ActionId, kind: str = "d2"
) -> TransitionRecord:
    """Apply one QoS mechanism on behalf of the given call's flow; a flow
    already in the action's service class gets no ledger entry."""
    st = world.flows[flow_id]
    in_class = st.cfg.service == SERVICE_OF.get(action.kind)
    if (flow_id, action) in world.mechanisms or in_class:
        return TransitionRecord(kind, action.name, world.clock, flow_id, noop=True)
    world.set_mechanism(flow_id, action, _effect(action, st.cfg.rate_kbps))
    return TransitionRecord(kind, action.name, world.clock, flow_id)


def _effect(action: ActionId, rate_kbps: float) -> Effect:
    """What the action changes, for a flow sending rate_kbps."""
    if action.kind in (INCREASE_BUFFER, DECREASE_BUFFER):
        step = int(action.param("step_pkts"))
        return Effect(step_pkts=step if action.kind == INCREASE_BUFFER else -step)
    if action.kind in (ENABLE_RED, ENABLE_WRED):
        params = REDParams(action.param("min_th"), action.param("max_th"), action.param("max_p"))
        lax = None
        if action.kind == ENABLE_WRED:
            # Priority class gets a laxer drop curve than best effort.
            lax = REDParams(params.min_th * 1.2, params.max_th * 1.2, params.max_p / 2)
        return Effect(red=(params, lax))
    if action.kind == ENABLE_FEC:
        # A knowledge-base file may name any parity; netsim runs one.
        if action.param("parity") != 1:
            raise ValueError("only single-parity FEC is supported")
        return Effect(flow={"fec": FecConfig(int(action.param("block_k")))})
    if action.kind == GUARANTEED_LOAD:
        reserved = rate_kbps * GUARANTEED_RESERVATION_FACTOR
        return Effect(flow={"service": netsim.GUARANTEED, "reserved_kbps": reserved})
    if action.kind == CONTROLLED_LOAD:
        # Only guaranteed service holds a reservation.
        return Effect(flow={"service": netsim.CONTROLLED_LOAD, "reserved_kbps": 0.0})
    raise ValueError(f"unknown action kind: {action.kind}")


def stop_action(
    world: SimWorld, flow_id: str, action: ActionId, kind: str = "d2"
) -> TransitionRecord:
    """Stop a previously applied action; stopping an inactive one is a no-op."""
    applied = (flow_id, action) in world.mechanisms
    if applied:
        world.set_mechanism(flow_id, action, None)
    return TransitionRecord(kind, f"stop:{action.name}", world.clock, flow_id, noop=not applied)


# ---------------- case orderings of the knowledge seed ----------------

CASE_ORDER: Dict[str, List[ActionId]] = {
    "case1": [guaranteed_load()],
    "case2": [increase_buffer(), enable_red(), enable_fec(), controlled_load()],
    "case3": [decrease_buffer(), enable_wred(), controlled_load()],
    "case4": [controlled_load(), enable_red(min_th=80, max_th=100)],
}
