"""Fixed-seed runs match bench/golden.json and keep the run invariants.

Each operation runs through the benchmark's own runner, `bench/ops.py`,
which compares its output digests, or the error it raised, with the
recorded entry and checks packet conservation, the reservation ledger,
knowledge-base ranks and trace errors. A refactor that changes behaviour
or breaks an invariant fails. The file is only read here;
`bench/record_golden.py` re-records it after a deliberate output change.
"""
import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

from voipqos import harness

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from ops import Runner  # noqa: E402
from workloads import WORKLOADS, golden_pool  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text())


def _check(workload, key, tmp_path):
    """Run the golden-pool operation `key` and require its recorded outcome
    and no invariant breach."""
    op = next(op for op in golden_pool(workload) if op.key == key)
    with Runner(str(tmp_path / "artifacts"), GOLDEN[workload]) as runner:
        runner.prepare([op])
        try:
            outcome = runner.run(op)
        finally:
            gc.unfreeze()  # Runner.run freezes what survives the collection
    assert outcome.mismatch is None, outcome.mismatch
    assert outcome.breaches == [], outcome.breaches


@pytest.mark.parametrize("mode", ["control", "baseline"])
@pytest.mark.parametrize("preset", sorted(harness.PRESETS))
def test_preset_digests(preset, mode, tmp_path):
    _check("preset-sweep", f"{preset}/{mode}/s0", tmp_path)


def test_calibrate_digests(tmp_path):
    _check("preset-sweep", "calibrate/s0", tmp_path)


@pytest.mark.parametrize("index", range(8))
def test_churn_outcomes(index, tmp_path):
    # Generated control-churn scenarios: even indices have one call, odd
    # ones two, and those raise the KnowledgeError that was recorded.
    _check("control-churn", f"churn-{index}", tmp_path)


def test_cli_artifact_digests(tmp_path):
    # Every file a CLI run writes, trace.csv included. fig7-multicall's
    # trace.csv ends with rows logged after the last advance, when a call
    # closes; table4-red-10k's has none.
    for preset in ("table4-red-10k", "fig7-multicall"):
        _check("multicall-artifacts", f"{preset}/s0", tmp_path)


def test_check_golden_rejects_an_unknown_workload():
    tool = BENCH.parent / "tools" / "check_golden.py"
    done = subprocess.run(
        [sys.executable, str(tool), "preset_sweep"], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("usage:")
    assert f"valid: {', '.join(WORKLOADS)}" in done.stderr
