"""Quality-metric unit tests: rating, MOS bands, a state's running means."""
import math

import pytest
from hypothesis import given, strategies as st

from voipqos.controller import CallState
from voipqos.metrics import (
    Constraints,
    DEFAULT_CONSTRAINTS,
    HeuristicSample,
    QualityCategory,
    categorize_delay,
    categorize_loss,
    categorize_mos,
    classify,
    estimate_mos,
    left_sum,
    mos_from_rating,
    rating_factor,
    satisfies,
)


class TestRating:
    def test_clean_path_rating(self):
        assert rating_factor(0.0, 0.0) == pytest.approx(93.2)

    def test_delay_impairment_kink(self):
        # Below the 177.3 ms knee only the linear term applies.
        assert rating_factor(100.0, 0.0) == pytest.approx(93.2 - 2.4)
        # Above it an extra slope kicks in.
        r_200 = rating_factor(200.0, 0.0)
        assert r_200 == pytest.approx(93.2 - 0.024 * 200 - 0.11 * (200 - 177.3))

    def test_loss_impairment(self):
        # 5% loss: 95 * 0.05 / 0.30
        assert rating_factor(0.0, 0.05) == pytest.approx(93.2 - 95 * 0.05 / 0.30)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            rating_factor(-1.0, 0.0)
        with pytest.raises(ValueError):
            rating_factor(0.0, 1.5)
        for delay in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                rating_factor(delay, 0.0)


class TestMos:
    def test_floor_and_ceiling_exact(self):
        assert mos_from_rating(0.0) == 1.0
        assert mos_from_rating(-20.0) == 1.0
        assert mos_from_rating(100.0) == 4.5
        assert mos_from_rating(150.0) == 4.5

    def test_clean_call_mos(self):
        assert estimate_mos(0.0, 0.0) == pytest.approx(4.409, abs=0.01)

    def test_range_everywhere(self):
        for r in [x * 0.5 for x in range(-40, 300)]:
            assert 1.0 <= mos_from_rating(r) <= 4.5

    def test_monotone_in_delay_and_loss(self):
        delays = [x * 10.0 for x in range(0, 41)]
        losses = [x / 100.0 for x in range(0, 101)]
        for loss in (0.0, 0.02, 0.1, 0.5):
            vals = [estimate_mos(d, loss) for d in delays]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
        for delay in (0.0, 100.0, 200.0):
            vals = [estimate_mos(delay, p) for p in losses]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    @given(
        st.floats(min_value=0, max_value=1000),
        st.floats(min_value=0, max_value=1),
    )
    def test_mos_always_in_range(self, delay, loss):
        assert 1.0 <= estimate_mos(delay, loss) <= 4.5


class TestCategories:
    @pytest.mark.parametrize(
        "delay,expected",
        [
            (0.0, QualityCategory.EXCELLENT),
            (100.0, QualityCategory.EXCELLENT),
            (100.1, QualityCategory.GOOD),
            (150.0, QualityCategory.GOOD),
            (180.0, QualityCategory.AVERAGE),
            (180.1, QualityCategory.POOR),
        ],
    )
    def test_delay_bands(self, delay, expected):
        assert categorize_delay(delay) is expected

    @pytest.mark.parametrize(
        "loss,expected",
        [
            (0.0, QualityCategory.EXCELLENT),
            (0.01, QualityCategory.EXCELLENT),
            (0.02, QualityCategory.GOOD),
            (0.05, QualityCategory.AVERAGE),
            (0.051, QualityCategory.POOR),
        ],
    )
    def test_loss_bands(self, loss, expected):
        assert categorize_loss(loss) is expected

    @pytest.mark.parametrize(
        "mos,expected",
        [
            (4.5, QualityCategory.EXCELLENT),
            (4.0, QualityCategory.EXCELLENT),
            (3.5, QualityCategory.GOOD),
            (2.0, QualityCategory.AVERAGE),
            (1.9, QualityCategory.POOR),
        ],
    )
    def test_mos_bands(self, mos, expected):
        assert categorize_mos(mos) is expected

    def test_overall_is_worst_of_three(self):
        assert classify(HeuristicSample(90.0, 0.005, 4.2)) is QualityCategory.EXCELLENT
        # Loss drags an otherwise excellent sample down.
        assert classify(HeuristicSample(90.0, 0.03, 4.2)) is QualityCategory.AVERAGE
        assert classify(HeuristicSample(160.0, 0.03, 2.5)) is QualityCategory.AVERAGE
        assert classify(HeuristicSample(200.0, 0.0, 4.0)) is QualityCategory.POOR

    def test_measured_sample_category(self):
        # 160 ms with 2% loss lands in the Average band via its delay.
        sample = HeuristicSample.from_measurement(160.0, 0.02)
        assert classify(sample) is QualityCategory.AVERAGE


class TestSample:
    def test_from_measurement_fills_mos(self):
        s = HeuristicSample.from_measurement(50.0, 0.01)
        assert s.mos == pytest.approx(estimate_mos(50.0, 0.01))

    @pytest.mark.parametrize(
        "delay,loss,mos",
        [(-1.0, 0.0, 3.0), (0.0, 1.5, 3.0), (0.0, 0.0, 0.5), (0.0, 0.0, 5.0),
         (float("nan"), 0.0, 3.0), (float("inf"), 0.0, 3.0)],
    )
    def test_rejects_out_of_range(self, delay, loss, mos):
        with pytest.raises(ValueError):
            HeuristicSample(delay, loss, mos)


def _state_of(samples) -> CallState:
    """A state with the (delay, loss) samples folded into its g."""
    state = CallState(1, 0.0, "start")
    for d, p in samples:
        state.add_sample(HeuristicSample.from_measurement(d, p))
    return state


class TestCallStateMeans:
    def test_running_mean_matches_direct_mean(self):
        delays = [10.0, 30.0, 20.0, 40.0, 0.0]
        losses = [0.0, 0.1, 0.05, 0.2, 0.0]
        state = _state_of(zip(delays, losses))
        assert state.samples == len(delays)
        assert abs(state.avg_delay_ms - sum(delays) / len(delays)) <= 1e-9
        assert abs(state.avg_loss - sum(losses) / len(losses)) <= 1e-9
        assert state.sample == HeuristicSample.from_measurement(0.0, 0.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e4),
                st.floats(min_value=0, max_value=1),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_running_mean_property(self, samples):
        state = _state_of(samples)
        direct_d = sum(d for d, _ in samples) / len(samples)
        direct_p = sum(p for _, p in samples) / len(samples)
        assert state.samples == len(samples)
        assert math.isclose(state.avg_delay_ms, direct_d, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(state.avg_loss, direct_p, rel_tol=1e-9, abs_tol=1e-9)


class TestConstraints:
    def test_defaults(self):
        assert DEFAULT_CONSTRAINTS.delay_max_ms == 180.0
        assert DEFAULT_CONSTRAINTS.loss_max == 0.05
        assert DEFAULT_CONSTRAINTS.mos_min == 2.0

    def test_satisfies_boundaries(self):
        c = DEFAULT_CONSTRAINTS
        assert satisfies(HeuristicSample(180.0, 0.05, 2.0), c)
        assert not satisfies(HeuristicSample(180.1, 0.0, 4.0), c)
        assert not satisfies(HeuristicSample(0.0, 0.051, 4.0), c)
        assert not satisfies(HeuristicSample(0.0, 0.0, 1.9), c)

    def test_rejects_nonpositive_thresholds(self):
        with pytest.raises(ValueError):
            Constraints(delay_max_ms=0.0)


def test_left_sum_adds_left_to_right():
    # Python 3.12's compensated sum() gives 1.0 here; outputs pin the
    # left-to-right result on every Python version.
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert left_sum([]) == 0
