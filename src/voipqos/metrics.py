"""Call-quality metrics: E-model rating, quality bands, samples and constraints.

A `HeuristicSample` is built once per sampled window, so it is slotted
rather than frozen: a slotted dataclass builds several times faster, and
no sample is ever written after it is made.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable


class QualityCategory(IntEnum):
    """User-satisfaction band. Higher value = better quality."""

    POOR = 0
    AVERAGE = 1
    GOOD = 2
    EXCELLENT = 3


@dataclass(frozen=True)
class Constraints:
    """Per-call quality thresholds a call must stay within."""

    delay_max_ms: float = 180.0
    loss_max: float = 0.05
    mos_min: float = 2.0

    def __post_init__(self) -> None:
        # Written so that NaN fails.
        if not all(0 < v < math.inf for v in (self.delay_max_ms, self.loss_max, self.mos_min)):
            raise ValueError("constraint thresholds must be finite and strictly positive")

    def met_by(self, delay_ms: float, loss: float, mos: float) -> bool:
        """True iff the delay, loss and MOS are all within the thresholds."""
        return delay_ms <= self.delay_max_ms and loss <= self.loss_max and mos >= self.mos_min


DEFAULT_CONSTRAINTS = Constraints()


def rating_factor(delay_ms: float, loss: float) -> float:
    """Transmission rating R from one-way delay and loss fraction.

    R = 93.2 - Id - Ie_eff with the standard delay impairment
    (0.024*d plus an extra 0.11*(d-177.3) term past 177.3 ms) and a
    packet-loss impairment Ie_eff = 95*loss/(loss + 0.25), i.e. a
    loss robustness of 25 when loss is expressed in percent.
    """
    if delay_ms < 0:
        raise ValueError(f"delay_ms must be >= 0, got {delay_ms}")
    if not 0.0 <= loss <= 1.0:
        raise ValueError(f"loss must be in [0, 1], got {loss}")
    i_delay = 0.024 * delay_ms
    if delay_ms > 177.3:
        i_delay += 0.11 * (delay_ms - 177.3)
    i_loss = 95.0 * loss / (loss + 0.25)
    return 93.2 - i_delay - i_loss


def mos_from_rating(r: float) -> float:
    """Map a transmission rating onto the 1.0-4.5 MOS scale."""
    if r < 0.0:
        return 1.0
    if r > 100.0:
        return 4.5
    mos = 1.0 + 0.035 * r + 7e-6 * r * (r - 60.0) * (100.0 - r)
    # The cubic dips fractionally below 1 for tiny positive R.
    return max(1.0, mos)


def estimate_mos(delay_ms: float, loss: float) -> float:
    """MOS estimate for the given one-way delay (ms) and loss fraction."""
    return mos_from_rating(rating_factor(delay_ms, loss))


# Read, never written, by the controller and the harness; slotted rather
# than frozen, as the module docstring says.
@dataclass(slots=True)
class HeuristicSample:
    """One (delay, loss, MOS) measurement for a call state."""

    delay_ms: float
    loss: float
    mos: float

    def __post_init__(self) -> None:
        if self.delay_ms < 0:
            raise ValueError(f"delay_ms must be >= 0, got {self.delay_ms}")
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError(f"loss must be in [0, 1], got {self.loss}")
        if not 1.0 <= self.mos <= 4.5:
            raise ValueError(f"mos must be in [1.0, 4.5], got {self.mos}")

    @classmethod
    def from_measurement(cls, delay_ms: float, loss: float) -> "HeuristicSample":
        return cls(delay_ms, loss, estimate_mos(delay_ms, loss))


def categorize_delay(delay_ms: float) -> QualityCategory:
    if delay_ms <= 100.0:
        return QualityCategory.EXCELLENT
    if delay_ms <= 150.0:
        return QualityCategory.GOOD
    if delay_ms <= 180.0:
        return QualityCategory.AVERAGE
    return QualityCategory.POOR


def categorize_loss(loss: float) -> QualityCategory:
    if loss <= 0.01:
        return QualityCategory.EXCELLENT
    if loss <= 0.02:
        return QualityCategory.GOOD
    if loss <= 0.05:
        return QualityCategory.AVERAGE
    return QualityCategory.POOR


def categorize_mos(mos: float) -> QualityCategory:
    if mos >= 4.0:
        return QualityCategory.EXCELLENT
    if mos >= 3.5:
        return QualityCategory.GOOD
    if mos >= 2.0:
        return QualityCategory.AVERAGE
    return QualityCategory.POOR


def classify(sample: HeuristicSample) -> QualityCategory:
    """Overall category: the worst of the three per-metric bands."""
    return min(
        categorize_delay(sample.delay_ms),
        categorize_loss(sample.loss),
        categorize_mos(sample.mos),
    )


def satisfies(sample: HeuristicSample, constraints: Constraints) -> bool:
    """True iff the sample is within every local constraint."""
    return constraints.met_by(sample.delay_ms, sample.loss, sample.mos)


def left_sum(values: Iterable[float]) -> float:
    """The values added left to right, as sum() adds floats before Python
    3.12, whose sum() compensates rounding; results match on every version."""
    total = 0
    for value in values:
        total += value
    return total
