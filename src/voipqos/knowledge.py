"""Ranked per-case action knowledge: selection, acquisition, refinement.

Each action's outcome is estimated by a `HeuristicSample`, the type of a
measured window too.  Estimates are ordered through a scalar penalty of
their delay and loss that is 1.0 per metric exactly at its threshold in
the constraints the caller passes, a run's own; selection picks the
minimum-penalty entry, falling back on ties to rank, unique within a
case.  Acquisition replaces an estimate with a measured outcome.
Refinement makes at most one swap after an episode that ended with an
action succeeding: the best-ranked action ahead of it that measures worse
trades ranks with it.  Nothing is ever deleted.
A case keeps its entries in the order they were added, and ranks are
unique within a case, so every lookup scans that list unsorted; only
`entries` sorts it by rank.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional

from .actions import CONFLICT_SETS, ActionId
from .metrics import Constraints, DEFAULT_CONSTRAINTS, HeuristicSample, classify


class ScenarioCase(Enum):
    CASE1 = "case1"  # delay ok, loss ok
    CASE2 = "case2"  # delay ok, loss high
    CASE3 = "case3"  # delay high, loss ok
    CASE4 = "case4"  # delay high, loss high


def penalty(h: HeuristicSample, constraints: Constraints = DEFAULT_CONSTRAINTS) -> float:
    """Scalar ordering of samples by delay and loss; 2.0 when both sit at threshold."""
    return h.delay_ms / constraints.delay_max_ms + h.loss / constraints.loss_max


@dataclass
class ActionEntry:
    action: ActionId
    rank: int
    h: HeuristicSample


class KnowledgeError(Exception):
    pass


class KnowledgeBase:
    """Per-case action lists, ranked 1..n; `revision` counts the changes."""

    def __init__(self):
        self._cases: Dict[ScenarioCase, List[ActionEntry]] = {
            case: [] for case in ScenarioCase
        }
        self.revision = 0

    # ---------------- construction ----------------

    def add_entry(self, case: ScenarioCase, action: ActionId, h: HeuristicSample) -> ActionEntry:
        listed = self._cases[case]
        if any(e.action == action for e in listed):
            raise KnowledgeError(f"{action.name} already present in {case.value}")
        entry = ActionEntry(action, len(listed) + 1, h)
        listed.append(entry)
        return entry

    # ---------------- access ----------------

    def entries(self, case: ScenarioCase) -> List[ActionEntry]:
        """Entries of a case, best rank first."""
        return sorted(self._cases[case], key=lambda e: e.rank)

    def entry(self, case: ScenarioCase, action: ActionId) -> ActionEntry:
        for e in self._cases[case]:
            if e.action == action:
                return e
        raise KnowledgeError(f"{action.name} not present in {case.value}")

    def _check(self, case: ScenarioCase) -> None:
        ranks = sorted(e.rank for e in self._cases[case])
        if ranks != list(range(1, len(ranks) + 1)):
            raise KnowledgeError(f"ranks not contiguous in {case.value}: {ranks}")

    def copy(self) -> "KnowledgeBase":
        """An independent copy: new entries sharing the ids and the unwritten estimates."""
        kb = KnowledgeBase()
        for case, listed in self._cases.items():
            kb._cases[case] = [ActionEntry(e.action, e.rank, e.h) for e in listed]
        kb.revision = self.revision
        return kb

    # ---------------- serialization ----------------

    def to_json(self) -> dict:
        def entry_json(e: ActionEntry) -> dict:
            return {
                "action": action_to_json(e.action),
                "rank": e.rank,
                "h_est": {"delay_ms": e.h.delay_ms, "loss": e.h.loss},
                "category": classify(e.h).name,
                # Constant; kept because the recorded kb.json digests include it.
                "deleted": False,
            }

        return {
            "version": 1,
            "revision": self.revision,
            "cases": {
                case.value: [entry_json(e) for e in self._cases[case]]
                for case in ScenarioCase
            },
            "conflict_sets": [sorted(s) for s in CONFLICT_SETS],
        }

    @classmethod
    def from_json(cls, data: dict):
        kb = cls()
        for case_name, entries in data["cases"].items():
            case = ScenarioCase(case_name)
            for item in entries:
                est = item["h_est"]
                h = HeuristicSample.from_measurement(est["delay_ms"], est["loss"])
                entry = ActionEntry(action_from_json(item["action"]), item["rank"], h)
                kb._cases[case].append(entry)
            kb._check(case)
        kb.revision = data.get("revision", 0)
        return kb


def action_to_json(action: ActionId) -> dict:
    return {"kind": action.kind, "params": {k: v for k, v in action.params}}


def action_from_json(data: dict) -> ActionId:
    return ActionId(data["kind"], tuple(sorted(data["params"].items())))


# ---------------- selection ----------------

def select_one_of(
    kb: KnowledgeBase, case: ScenarioCase, constraints: Constraints = DEFAULT_CONSTRAINTS
) -> Optional[ActionEntry]:
    """Best entry for the case, or None; bench/tracer.py is its only caller."""
    return select_next(kb, case, (), constraints)


def select_next(
    kb: KnowledgeBase,
    case: ScenarioCase,
    tried: Iterable[ActionId],
    constraints: Constraints = DEFAULT_CONSTRAINTS,
) -> Optional[ActionEntry]:
    """Best entry not yet tried this episode, by (penalty, rank); None
    when exhausted."""
    tried_set = set(tried)
    best = None
    # min() over a generator with a key function, unrolled: this runs at
    # every search step.
    for e in kb._cases[case]:
        if e.action in tried_set:
            continue
        key = (penalty(e.h, constraints), e.rank)
        if best is None or key < best_key:
            best, best_key = e, key
    return best


# ---------------- learning ----------------

def acquire(
    kb: KnowledgeBase, case: ScenarioCase, action: ActionId, measured: HeuristicSample
) -> None:
    """Replace an entry's estimate with the measured outcome."""
    kb.entry(case, action).h = measured
    kb.revision += 1


def refine(
    kb: KnowledgeBase,
    case: ScenarioCase,
    a_current: ActionId,
    constraints: Constraints = DEFAULT_CONSTRAINTS,
) -> None:
    """Re-rank a case after an episode that ended with a_current succeeding.

    The best-ranked action ahead of a_current whose estimate measures worse
    swaps ranks with it.  Nothing else moves, so a_current's rank never
    worsens and the ranks stay 1..n; the revision counts the swaps.
    """
    current = kb.entry(case, a_current)
    bar = penalty(current.h, constraints)
    other = min(
        (e for e in kb._cases[case]
         if e.rank < current.rank and penalty(e.h, constraints) > bar),
        key=lambda e: e.rank,
        default=None,
    )
    if other is not None:
        other.rank, current.rank = current.rank, other.rank
        kb.revision += 1
