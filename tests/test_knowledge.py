"""Knowledge-base tests: penalty ordering, selection, acquisition, refinement.

The refinement tests include an exhaustive comparison against an
independent reference implementation over every small knowledge base
(up to 4 actions on a 3-value penalty grid).
"""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from voipqos import harness
from voipqos.actions import (
    ActionId,
    enable_fec,
    enable_red,
    increase_buffer,
)
from voipqos.knowledge import (
    KnowledgeBase,
    KnowledgeError,
    ScenarioCase,
    acquire,
    action_from_json,
    action_to_json,
    penalty,
    refine,
    select_next,
)
from voipqos.metrics import (
    HeuristicSample,
    QualityCategory,
    categorize_delay,
    categorize_loss,
    classify,
)


CASE = ScenarioCase.CASE2
# An estimate, built as from_json and netsim build theirs.
_h = HeuristicSample.from_measurement


def _kb(entries):
    """Build a case-2 knowledge base from (name, delay, loss) in rank order."""
    kb = KnowledgeBase()
    for name, delay, loss in entries:
        kb.add_entry(CASE, ActionId(name), _h(delay, loss))
    return kb


class TestPenalty:
    def test_reference_points(self):
        assert penalty(_h(0.0, 0.0)) == 0.0
        assert penalty(_h(180.0, 0.05)) == pytest.approx(2.0)
        assert penalty(_h(90.0, 0.01)) == pytest.approx(0.7)

    def test_monotone_in_both_metrics(self):
        assert penalty(_h(100.0, 0.01)) < penalty(_h(120.0, 0.01))
        assert penalty(_h(100.0, 0.01)) < penalty(_h(100.0, 0.02))

    def test_category_is_worse_band_on_a_grid(self):
        # kb.json's category column is classify(h). For an estimate, the
        # MOS band never binds: the category is the worse of the delay and
        # loss bands, at every point of a grid that holds each band edge.
        assert classify(_h(90.0, 0.005)) is QualityCategory.EXCELLENT
        assert classify(_h(90.0, 0.03)) is QualityCategory.AVERAGE
        assert classify(_h(200.0, 0.0)) is QualityCategory.POOR
        for delay in range(401):
            for loss in (i / 400 for i in range(401)):
                want = min(categorize_delay(delay), categorize_loss(loss))
                assert classify(_h(delay, loss)) is want, (delay, loss)


class TestSelection:
    def test_picks_minimum_penalty(self):
        kb = _kb([("a", 100.0, 0.0), ("b", 20.0, 0.0), ("c", 150.0, 0.0)])
        assert select_next(kb, CASE, []).action == ActionId("b")

    def test_penalty_tie_breaks_on_rank(self):
        kb = _kb([("worse_name", 50.0, 0.0), ("alpha", 50.0, 0.0)])
        assert select_next(kb, CASE, []).action == ActionId("worse_name")

        # A case whose list order differs from its rank order: refining c
        # swaps it with a, so the list reads a, b, c and the ranks c, b, a.
        kb = _kb([("a", 100.0, 0.0), ("b", 150.0, 0.0), ("c", 50.0, 0.0)])
        refine(kb, CASE, ActionId("c"))
        assert [item["action"]["kind"] for item in kb.to_json()["cases"][CASE.value]] == [
            "a", "b", "c"
        ]
        assert [e.action.kind for e in kb.entries(CASE)] == ["c", "b", "a"]
        acquire(kb, CASE, ActionId("a"), _h(50.0, 0.0))
        assert select_next(kb, CASE, []).action == ActionId("c")
        for rank, name in enumerate("cba", start=1):
            assert kb.entry(CASE, ActionId(name)).rank == rank
        # Both b and c measure worse than a; c, ahead of b by rank but
        # behind it in the list, is the one that swaps.
        acquire(kb, CASE, ActionId("a"), _h(10.0, 0.0))
        names = [e.action.kind for e in kb.entries(CASE)]
        penalties = {e.action.kind: penalty(e.h) for e in kb.entries(CASE)}
        refine(kb, CASE, ActionId("a"))
        assert {e.action.kind: e.rank for e in kb.entries(CASE)} == _reference_refine(
            names, penalties, "a"
        ) == {"a": 1, "b": 2, "c": 3}

    def test_next_skips_tried_and_exhausts(self):
        kb = _kb([("a", 10.0, 0.0), ("b", 20.0, 0.0), ("c", 30.0, 0.0)])
        first = select_next(kb, CASE, [])
        assert first.action == ActionId("a")
        second = select_next(kb, CASE, [ActionId("a")])
        assert second.action == ActionId("b")
        assert select_next(kb, CASE, [ActionId(n) for n in "abc"]) is None

    def test_empty_case(self):
        kb = KnowledgeBase()
        assert select_next(kb, CASE, []) is None

    @pytest.mark.parametrize("case", list(ScenarioCase))
    def test_next_with_nothing_tried_is_best(self, case):
        # The controller opens every episode with select_next(kb, case, []).
        kb = harness.default_kb()
        best = min(kb.entries(case), key=lambda e: (penalty(e.h), e.rank))
        assert select_next(kb, case, []) is best


class TestAcquisition:
    def test_overwrites_estimate_and_category(self):
        kb = _kb([("a", 10.0, 0.0)])
        rev = kb.revision
        acquire(kb, CASE, ActionId("a"), _h(200.0, 0.08))
        entry = kb.entry(CASE, ActionId("a"))
        assert (entry.h.delay_ms, entry.h.loss) == (200.0, 0.08)
        assert classify(entry.h) is QualityCategory.POOR
        assert kb.revision == rev + 1

    def test_unknown_action_rejected(self):
        kb = _kb([("a", 10.0, 0.0)])
        with pytest.raises(KnowledgeError):
            acquire(kb, CASE, ActionId("zz"), _h(1.0, 0.0))

    def test_duplicate_entry_rejected(self):
        kb = _kb([("a", 10.0, 0.0)])
        with pytest.raises(KnowledgeError):
            kb.add_entry(CASE, ActionId("a"), _h(5.0, 0.0))


class TestSerialization:
    def test_action_json_round_trip(self):
        for action in (enable_red(), enable_fec(), increase_buffer()):
            assert action_from_json(action_to_json(action)) == action

    def test_kb_json_round_trip(self):
        kb = _kb([("a", 10.0, 0.01), ("b", 20.0, 0.0)])
        kb.entry(CASE, ActionId("b"))
        refine(kb, CASE, ActionId("b"))
        data = kb.to_json()
        back = KnowledgeBase.from_json(data)
        assert back.to_json() == data

    def test_category_is_read_from_the_estimate(self):
        data = _kb([("a", 10.0, 0.0)]).to_json()
        data["cases"][CASE.value][0]["category"] = "POOR"  # a stale copy
        kb = KnowledgeBase.from_json(data)
        assert classify(kb.entry(CASE, ActionId("a")).h) is QualityCategory.EXCELLENT
        assert kb.to_json()["cases"][CASE.value][0]["category"] == "EXCELLENT"

    @pytest.mark.parametrize(
        "delay,loss", [(float("nan"), 0.0), (float("inf"), 0.0), (float("nan"), -3.0)]
    )
    def test_non_finite_or_out_of_range_estimate_rejected(self, delay, loss):
        # A NaN delay with a negative loss would give a negative penalty,
        # selected first in every episode.
        data = _kb([("a", 10.0, 0.0)]).to_json()
        data["cases"][CASE.value][0]["h_est"] = {"delay_ms": delay, "loss": loss}
        with pytest.raises(ValueError):
            KnowledgeBase.from_json(data)


class TestRefineExamples:
    def test_swap_with_worse_nonconflicting(self):
        kb = _kb([("a", 100.0, 0.04), ("b", 20.0, 0.0)])
        refine(kb, CASE, ActionId("b"))
        assert [e.action.kind for e in kb.entries(CASE)] == ["b", "a"]

    def test_better_measuring_predecessors_untouched(self):
        kb = _kb([("a", 5.0, 0.0), ("b", 20.0, 0.0)])
        refine(kb, CASE, ActionId("b"))
        assert [e.action.kind for e in kb.entries(CASE)] == ["a", "b"]

    def test_successors_never_touched(self):
        kb = _kb([("b", 20.0, 0.0), ("z", 500.0, 0.5)])
        refine(kb, CASE, ActionId("b"))
        assert [e.action.kind for e in kb.entries(CASE)] == ["b", "z"]

    def test_current_rank_never_worsens_with_mixed_candidates(self):
        # One worse swap candidate and one better predecessor: after the
        # swap the better one no longer outranks the current action, so
        # nothing may move the current action back down.
        kb = _kb([("w", 150.0, 0.04), ("g", 10.0, 0.0), ("cur", 20.0, 0.0)])
        before = kb.entry(CASE, ActionId("cur")).rank
        refine(kb, CASE, ActionId("cur"))
        after = kb.entry(CASE, ActionId("cur")).rank
        assert after <= before
        assert after == 1

    def test_idempotent_after_convergence(self):
        kb = _kb(
            [("a", 100.0, 0.04), ("b", 20.0, 0.0), ("c", 300.0, 0.2)]
        )
        refine(kb, CASE, ActionId("b"))
        snapshot = kb.to_json()
        refine(kb, CASE, ActionId("b"))
        assert kb.to_json()["cases"] == snapshot["cases"]


# ---------------- exhaustive reference comparison ----------------

def _reference_refine(names, penalties, current):
    """Independent model of run-time re-ranking on a tiny table.

    Works on plain dicts: rank[name] (1 = most preferred). Candidates
    that the original ranking preferred over `current` are visited in
    original-preference order; each one that measured worse than
    `current` is rank-swapped with it, but only while that candidate
    still outranks `current`.
    """
    rank = {n: i + 1 for i, n in enumerate(names)}
    original_order = [n for n in names if rank[n] < rank[current]]
    for cand in original_order:
        if penalties[cand] <= penalties[current]:
            continue
        if rank[cand] >= rank[current]:
            continue
        rank[cand], rank[current] = rank[current], rank[cand]
    return rank


def _grid_cases(n):
    names = list("abcd")[:n]
    for pens in itertools.product((0.5, 1.0, 1.5), repeat=n):
        for current in names:
            yield names, dict(zip(names, pens)), current


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_refine_matches_reference_exhaustively(n):
    checked = 0
    for names, pens, current in _grid_cases(n):
        kb = KnowledgeBase()
        for name in names:
            # Encode the desired penalty purely through the delay term.
            kb.add_entry(CASE, ActionId(name), _h(pens[name] * 180.0, 0.0))
        before_rank = kb.entry(CASE, ActionId(current)).rank

        refine(kb, CASE, ActionId(current))
        got = {e.action.kind: e.rank for e in kb.entries(CASE)}
        want = _reference_refine(names, pens, current)
        assert got == want, (names, pens, current)
        # Invariants: the successful action never loses ground, and the
        # ranks stay 1..n.
        assert got[current] <= before_rank
        assert sorted(got.values()) == list(range(1, len(got) + 1))
        checked += 1
    assert checked == 3**n * n


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.floats(min_value=0.0, max_value=5.0), min_size=n, max_size=n
            ),
            # Steps of (entry to re-estimate, its new penalty, entry to refine),
            # the entries indexing them in rank order.
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.floats(min_value=0.0, max_value=5.0),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                min_size=1,
                max_size=5,
            ),
        )
    )
)
def test_refine_invariants_random(case):
    # Refines in sequence on one knowledge base, so later steps meet
    # ranks that earlier steps permuted.
    n, pens, steps = case
    names = [f"x{i}" for i in range(n)]
    kb = KnowledgeBase()
    for name, pen in zip(names, pens):
        kb.add_entry(CASE, ActionId(name), _h(pen * 180.0, 0.0))

    for estimate_i, pen, current_i in steps:
        order = [e.action.kind for e in kb.entries(CASE)]
        acquire(kb, CASE, ActionId(order[estimate_i % n]), _h(pen * 180.0, 0.0))
        current = order[current_i % n]
        penalties = {e.action.kind: penalty(e.h) for e in kb.entries(CASE)}
        before_rank = kb.entry(CASE, ActionId(current)).rank
        revision = kb.revision

        refine(kb, CASE, ActionId(current))
        ranks = {e.action.kind: e.rank for e in kb.entries(CASE)}
        assert ranks == _reference_refine(order, penalties, current)
        assert ranks[current] <= before_rank
        assert sorted(ranks.values()) == list(range(1, len(ranks) + 1))
        # The revision counts a swap, and a swap always changes the ranks.
        unchanged = ranks == {name: i for i, name in enumerate(order, start=1)}
        assert kb.revision == revision + (not unchanged)
        # A swap moves two entries and leaves the rest where they were.
        assert sum(ranks[name] != i for i, name in enumerate(order, start=1)) in (0, 2)
