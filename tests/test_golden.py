"""Fixed-seed outputs match the digests recorded in bench/golden.json.

A refactor that changes behaviour changes a digest. The file is only
read here; `bench/record_golden.py` re-records it after a deliberate
output change.
"""
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from voipqos import cli, harness
from voipqos.knowledge import KnowledgeError

BENCH = Path(__file__).resolve().parents[1] / "bench"
GOLDEN = BENCH / "golden.json"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, churn_json  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(art) -> dict:
    kb = None if art.kb is None else art.kb.to_json()
    return {"summary": _digest(art.summary), "kb": _digest(kb)}


@pytest.mark.parametrize("mode", ["control", "baseline"])
@pytest.mark.parametrize("preset", sorted(harness.PRESETS))
def test_preset_digests(golden, preset, mode):
    art = harness.run(harness.load_scenario(preset), seed=0, mode=mode)
    assert _digests(art) == golden["preset-sweep"][f"{preset}/{mode}/s0"]["digests"]


def test_calibrate_digests(golden):
    art = harness.run(None, seed=0, mode="calibrate")
    assert _digests(art) == golden["preset-sweep"]["calibrate/s0"]["digests"]


@pytest.mark.parametrize("index", range(8))
def test_churn_outcomes(golden, index):
    # Generated control-churn scenarios: even indices have one call, odd
    # ones two, and those raise the KnowledgeError that was recorded.
    scenario = harness.scenario_from_json(json.loads(churn_json(index)))
    try:
        got = {"digests": _digests(harness.run(scenario, seed=index, mode="control"))}
    except KnowledgeError as exc:
        got = {"raises": f"{type(exc).__name__}: {exc}"}
    assert got == golden["control-churn"][f"churn-{index}"]


def test_cli_artifact_digests(golden, tmp_path):
    # Every file a CLI run writes, trace.csv included. fig7-multicall's
    # trace.csv ends with rows logged after the last advance, when a call
    # closes; table4-red-10k's has none.
    for preset in ("table4-red-10k", "fig7-multicall"):
        out = tmp_path / preset
        argv = ["run", "--scenario", preset, "--seed", "0", "--out", str(out)]
        assert cli.main(argv) in (0, 2)
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert got == golden["multicall-artifacts"][f"{preset}/s0"]["digests"], preset


def test_check_golden_rejects_an_unknown_workload():
    tool = BENCH.parent / "tools" / "check_golden.py"
    done = subprocess.run(
        [sys.executable, str(tool), "preset_sweep"], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("usage:")
    assert f"valid: {', '.join(WORKLOADS)}" in done.stderr
