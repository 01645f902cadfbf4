"""The benchmark's per-layer tracer still sees every layer of a control run.

`bench/tracer.py` wraps the names each voipqos layer calls through. A
change that renames one of them, or calls around a module attribute,
leaves its span empty; this test catches that on every Python that runs
the suite.
"""
import sys
from pathlib import Path

from voipqos import actions, harness, netsim

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracer import Tracer  # noqa: E402

# The spans that the per-layer table reads from a library control run.
CONTROL_SPANS = (
    "netsim.advance",
    "netsim.measure",
    "controller.on_window",
    "knowledge.select",
    "knowledge.acquire",
    "knowledge.refine",
    "actions.apply",
    "actions.stop",
    "harness.default_kb",
    "harness.build_world",
    "harness.run",
)


def test_tracer_spans_every_layer_of_a_control_run():
    tracer = Tracer()
    tracer.install()
    patched = list(tracer._patched)
    try:
        harness.run(harness.load_scenario("fig10-learning"), seed=0, mode="control")
    finally:
        tracer.uninstall()
    empty = [name for name in CONTROL_SPANS if tracer.calls[name] < 1]
    assert empty == []
    assert tracer.counts["metrics.estimate_mos.calls"] >= 1
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
    # The tracer counts refused applications by this name.
    assert actions.ActionFailedError is netsim.AdmissionRefusedError
