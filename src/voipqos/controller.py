"""Closed-loop call controller over the simulated network.

Each call is a chain of states opened by transitions: network/heuristic
changes (d1), single-call QoS actions (d2) and multi-call coordination
(d3).  A constraint violation starts an episode that `_pursue`, the one
search step of d2 and d3, walks through the knowledge base's candidate
actions until the call recovers, acquiring measured outcomes along the
way and, with learning enabled, re-ranking the case afterwards.  `_retire`
is the one place that stops a call's mechanisms: all of them when the
call ends (d2) or gives them up to coordination (d3), and only those a
newly applied candidate conflicts with in a search step, so a candidate
that netsim refuses with `AdmissionRefusedError`, the one refusal error,
retires nothing.  A d1 names the network changes the world logged since
the previous window.  A call's category is set with its sample, in
`_observe`, the one place that classifies; a state opens on both.  Time is
the world's clock: states, transitions and episodes are stamped with
`world.clock`.  The controller owns the run's constraints, which every
check and every knowledge-base ordering reads, and the end of each call's
flow; a state owns its g.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import actions as actions_mod
from . import knowledge as kb_mod
from .actions import ActionId, TransitionRecord
from .knowledge import KnowledgeBase, ScenarioCase
from .metrics import (
    Constraints,
    DEFAULT_CONSTRAINTS,
    HeuristicSample,
    QualityCategory,
    classify,
    left_sum,
    satisfies,
)
from .netsim import AdmissionRefusedError, SimWorld

# A heuristic move of more than this relative fraction, sustained for
# two consecutive windows, opens a new d1 state.
SIGNIFICANT_CHANGE = 0.20
SIGNIFICANT_WINDOWS = 2
# Windows after a d3 coordination round before the next one may start.
COORDINATE_COOLDOWN_WINDOWS = 2


def detect_case(
    sample: HeuristicSample, constraints: Constraints = DEFAULT_CONSTRAINTS
) -> ScenarioCase:
    """Which analysis-phase scenario the sample's delay and loss fall into."""
    delay_ok = sample.delay_ms <= constraints.delay_max_ms
    loss_ok = sample.loss <= constraints.loss_max
    if delay_ok and loss_ok:
        return ScenarioCase.CASE1
    if delay_ok:
        return ScenarioCase.CASE2
    if loss_ok:
        return ScenarioCase.CASE3
    return ScenarioCase.CASE4


@dataclass
class CallState:
    state_id: int
    opened_at_ms: float
    entering: str  # "start" | "d1" | "d2" | "d3" | "goal"
    closed_at_ms: Optional[float] = None
    # g: the running means of the samples folded into the state.
    avg_delay_ms: float = 0.0
    avg_loss: float = 0.0
    samples: int = 0
    sample: Optional[HeuristicSample] = None
    opening_sample: Optional[HeuristicSample] = None
    # The opening sample's category, set with it.
    category: Optional[QualityCategory] = None
    # Consecutive windows whose sample drifted from the opening sample.
    drift_windows: int = 0

    def add_sample(self, sample: HeuristicSample) -> None:
        """Fold a window's sample into the state's g."""
        n = self.samples
        self.avg_delay_ms = (self.avg_delay_ms * n + sample.delay_ms) / (n + 1)
        self.avg_loss = (self.avg_loss * n + sample.loss) / (n + 1)
        self.samples = n + 1
        self.sample = sample


@dataclass
class Episode:
    call_id: str
    case: ScenarioCase
    started_ms: float
    tried: List[ActionId] = field(default_factory=list)
    last_action: Optional[ActionId] = None
    settling: bool = False
    exhausted: bool = False
    satisfied_ms: Optional[float] = None


@dataclass
class Call:
    call_id: str
    flow_id: str
    weight: float = 1.0
    states: List[CallState] = field(default_factory=list)
    episode: Optional[Episode] = None
    sample: Optional[HeuristicSample] = None
    category: Optional[QualityCategory] = None
    closed: bool = False

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("call weight must be > 0")


def check_global(calls: List[Call]) -> Optional[HeuristicSample]:
    """The weighted means of the calls' current samples, which the global
    check holds to the shared thresholds; None when no call has a sample."""
    sampled = [c for c in calls if c.sample is not None]
    if not sampled:
        return None
    wsum = left_sum(c.weight for c in sampled)
    return HeuristicSample(
        left_sum(c.weight * c.sample.delay_ms for c in sampled) / wsum,
        left_sum(c.weight * c.sample.loss for c in sampled) / wsum,
        left_sum(c.weight * c.sample.mos for c in sampled) / wsum,
    )


class Controller:
    """Runs the closed loop for one SimWorld and its calls within the run's constraints."""

    def __init__(
        self,
        world: SimWorld,
        kb: KnowledgeBase,
        constraints: Constraints = DEFAULT_CONSTRAINTS,
        learning: bool = True,
    ):
        self.world = world
        self.kb = kb
        self.constraints = constraints
        self.learning = learning
        self.calls: Dict[str, Call] = {}
        self.transitions: List[TransitionRecord] = []
        self.episodes: List[Episode] = []
        self._state_seq = 0
        self._cooldown_left = 0
        # How many of the world's network changes earlier windows have seen.
        self._changes_seen = 0
        # One entry per action application: did the triggering sample
        # actually violate the call's constraints?
        self.apply_checks: List[bool] = []

    # ---------------- call lifecycle ----------------

    def add_call(self, call_id: str, flow_id: str, weight: float = 1.0) -> Call:
        call = Call(call_id, flow_id, weight)
        self.calls[call_id] = call
        self._open_state(call, "start")
        return call

    def close_call(self, call_id: str) -> None:
        """Stop the call's mechanisms, end its episode and its flow."""
        call = self.calls[call_id]
        self._retire(call, "d2")
        if call.episode is not None:
            self._finish_episode(call, satisfied=False)
        self._open_state(call, "goal")
        call.states[-1].closed_at_ms = self.world.clock
        call.closed = True
        self.world.end_flow(call.flow_id)

    # ---------------- state bookkeeping ----------------

    def _open_state(self, call: Call, entering: str) -> None:
        """Open the call's next state on its latest sample and its category."""
        if call.states:
            call.states[-1].closed_at_ms = self.world.clock
        self._state_seq += 1
        call.states.append(CallState(
            self._state_seq, self.world.clock, entering,
            opening_sample=call.sample, category=call.category,
        ))

    def _record(self, call: Call, kind: str, cause: str) -> None:
        self.transitions.append(TransitionRecord(kind, cause, self.world.clock, call.call_id))

    # ---------------- per-window loop ----------------

    def on_window(
        self,
    ) -> Tuple[List[Tuple[str, Optional[HeuristicSample]]], Optional[HeuristicSample]]:
        """One control iteration, run once the world is at the window's end.
        Returns each open call's id with its latest sample, and the calls'
        weighted means: None unless two or more calls were open and one had
        a sample."""
        changes = self.world.notifications[self._changes_seen:]
        self._changes_seen += len(changes)
        calls = [c for c in self.calls.values() if not c.closed]
        for call in calls:
            sample = self.world.measure(call.flow_id)
            if sample is not None:
                call.sample = sample
            self._observe(call, changes)
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
        means = check_global(calls) if len(calls) >= 2 else None
        violated = means is not None and not satisfies(means, self.constraints)
        multi = [c for c in calls if c.sample is not None]
        if violated and len(multi) >= 2 and self._cooldown_left == 0:
            self.coordinate(multi)
            self._cooldown_left = COORDINATE_COOLDOWN_WINDOWS
        else:
            for call in calls:
                self.step_call(call)
        return [(c.call_id, c.sample) for c in calls], means

    def _observe(self, call: Call, changes) -> None:
        """Fold the window's sample into the current state, then open one d1
        state on a network change, a category change or a drift from the
        opening sample sustained for SIGNIFICANT_WINDOWS windows."""
        sample = call.sample
        if sample is None:
            return
        category = call.category = classify(sample)
        state = call.states[-1]
        state.add_sample(sample)
        if state.opening_sample is None:
            state.opening_sample, state.category = sample, category
        ref = state.opening_sample
        drifted = _rel_change(ref.delay_ms, sample.delay_ms) > SIGNIFICANT_CHANGE or (
            _rel_change(ref.loss, sample.loss) > SIGNIFICANT_CHANGE
        )
        state.drift_windows = state.drift_windows + 1 if drifted else 0
        if changes:
            cause = ",".join(f"{c.kind}={c.value:g}" for c in changes)
        elif category != state.category:
            cause = f"category:{state.category.name}->{category.name}"
        elif state.drift_windows >= SIGNIFICANT_WINDOWS:
            cause = "heuristic-drift"
        else:
            return
        self._record(call, "d1", cause)
        self._open_state(call, "d1")
        call.states[-1].add_sample(sample)

    # ---------------- single-call control ----------------

    def step_call(self, call: Call) -> None:
        sample = call.sample
        if sample is None:
            return
        ep = call.episode
        if ep is not None and ep.settling:
            kb_mod.acquire(self.kb, ep.case, ep.last_action, sample)
            ep.settling = False
        if satisfies(sample, self.constraints):
            if ep is not None:
                self._finish_episode(call, satisfied=True)
        elif ep is None:
            self._pursue(call, detect_case(sample, self.constraints), "d2")
        elif not ep.exhausted:
            self._pursue(call, ep.case, "d2")

    def _pursue(self, call: Call, case: ScenarioCase, kind: str) -> None:
        """One search step for a call outside its constraints: open an
        episode under `case` if the call has none, apply the best untried
        candidate of `case`, then retire the call's mechanisms that conflict
        with it; on a refused application, which changes nothing, go on in
        the episode's case. With no candidate left, the episode is exhausted."""
        ep = call.episode
        if ep is None:
            ep = call.episode = Episode(call.call_id, case, self.world.clock)
        while True:
            entry = kb_mod.select_next(self.kb, case, ep.tried, self.constraints)
            if entry is None:
                ep.exhausted = True
                self._record(call, kind, "episode-exhausted")
                return
            action = entry.action
            ep.tried.append(action)
            try:
                record = actions_mod.apply_action(self.world, call.flow_id, action, kind)
            except AdmissionRefusedError:
                case = ep.case
                continue
            self._retire(call, kind, replacing=action)
            ep.last_action = action
            ep.settling = True
            self.apply_checks.append(not satisfies(call.sample, self.constraints))
            self.transitions.append(record)
            self._open_state(call, kind)
            return

    def _retire(self, call: Call, kind: str, replacing: Optional[ActionId] = None) -> bool:
        """Stop the call's mechanisms, oldest first, recording each stop: all
        of them, or with `replacing`, the action just applied, those that
        conflict with it. Returns whether any was stopped."""
        retired = [
            a for a in actions_mod.active_actions(self.world, call.flow_id)
            if replacing is None or actions_mod.conflicts(a, replacing)
        ]
        for action in retired:
            self.transitions.append(
                actions_mod.stop_action(self.world, call.flow_id, action, kind)
            )
        return bool(retired)

    def _finish_episode(self, call: Call, satisfied: bool) -> None:
        ep = call.episode
        if satisfied:
            ep.satisfied_ms = self.world.clock
            if ep.last_action is not None and not ep.exhausted and self.learning:
                kb_mod.refine(self.kb, ep.case, ep.last_action, self.constraints)
        self.episodes.append(ep)
        call.episode = None

    # ---------------- multi-call coordination ----------------

    def coordinate(self, calls: List[Call]) -> None:
        """Global-constraint recovery: free the mechanisms of calls within
        their constraints and point the knowledge base's best candidates at
        the calls outside them. Every call must have a sample."""
        constraints = self.constraints
        accepted = [c for c in calls if satisfies(c.sample, constraints)]
        degraded = [c for c in calls if not satisfies(c.sample, constraints)]
        if not degraded:
            return
        for call in accepted:
            if self._retire(call, "d3"):
                self._open_state(call, "d3")
        for call in degraded:
            # The newly detected case, not an open episode's: the d3 defect of
            # ROADMAP item 1 is exactly this argument.
            self._pursue(call, detect_case(call.sample, constraints), "d3")


def _rel_change(ref: float, value: float) -> float:
    if ref == 0.0:
        return float("inf") if value != 0.0 else 0.0
    return abs(value - ref) / abs(ref)


# ---------------- trace validation ----------------

def validate_trace(controller: Controller) -> List[str]:
    """Check state-machine soundness over all calls; returns error strings."""
    errors: List[str] = []
    for call in controller.calls.values():
        states = call.states
        if not states:
            errors.append(f"{call.call_id}: no states")
            continue
        if states[0].entering != "start":
            errors.append(f"{call.call_id}: first state is {states[0].entering}")
        goal_count = sum(1 for s in states if s.entering == "goal")
        if call.closed and (goal_count != 1 or states[-1].entering != "goal"):
            errors.append(f"{call.call_id}: terminated call must end in one goal state")
        for prev, cur in zip(states, states[1:]):
            if cur.opened_at_ms < prev.opened_at_ms:
                errors.append(f"{call.call_id}: states out of order")
            if prev.closed_at_ms is not None and prev.closed_at_ms > cur.opened_at_ms:
                errors.append(f"{call.call_id}: overlapping state intervals")
        for state in states[1:-1] if call.closed else states[1:]:
            if state.entering not in ("d1", "d2", "d3"):
                errors.append(
                    f"{call.call_id}: interior state entered by {state.entering}"
                )
    # No action application while the triggering sample satisfied constraints.
    if not all(controller.apply_checks):
        errors.append("an action was applied while constraints were satisfied")
    return errors
