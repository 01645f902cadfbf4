"""Closed-loop QoS control for simulated VoIP calls.

Maps call-quality maintenance onto an incremental heuristic search over
call states, applies ranked QoS mechanisms on a simulated bottleneck,
and refines the action ranking online from measured outcomes.
"""

__version__ = "0.1.0"

from .metrics import (  # noqa: F401
    Constraints,
    HeuristicSample,
    QualityCategory,
    classify,
    estimate_mos,
)
from .knowledge import KnowledgeBase, ScenarioCase, penalty  # noqa: F401
from .netsim import LinkConfig, MediaFlow, QueueConfig, SimWorld  # noqa: F401
