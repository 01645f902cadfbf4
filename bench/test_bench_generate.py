"""Determinism and coverage of the benchmark's generated inputs."""
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from voipqos import harness  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from run import percentile, tail_quantile  # noqa: E402


def test_same_index_gives_byte_identical_json():
    for i in (0, 1, 7, workloads.CHURN_POOL - 1):
        assert workloads.churn_json(i) == workloads.churn_json(i)
    assert workloads.churn_json(0) != workloads.churn_json(2)


def test_generated_json_is_identical_across_processes():
    code = (
        "import hashlib, workloads; "
        "print(hashlib.sha256(''.join(workloads.churn_json(i) for i in range(64)).encode()).hexdigest())"
    )
    here = hashlib.sha256("".join(workloads.churn_json(i) for i in range(64)).encode()).hexdigest()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(BENCH), str(BENCH.parent / "src")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == here


def test_every_generated_scenario_validates():
    for i in range(workloads.CHURN_POOL):
        data = workloads.generate_churn(i)
        scenario = harness.scenario_from_json(json.loads(workloads.churn_json(i)))
        scenario.validate()
        assert len(scenario.calls) == 1 + i % 2
        assert {e["value"] for e in data["timeline"] if e["kind"] == "set_loss_rate"} <= set(
            workloads.CHURN_LOSS
        )
        steps = sorted({e["at_s"] for e in data["timeline"]})
        gaps = [b - a for a, b in zip([0.0] + steps, steps)]
        assert all(10.0 <= g <= 20.0 for g in gaps)


def test_rounds_are_deterministic_and_evenly_mixed():
    for name, make in workloads.WORKLOADS.items():
        rounds = make(5)
        assert rounds == make(5)
        assert rounds != make(6)
        assert len({mix(ops) for ops in rounds}) == 1, name


def mix(ops) -> tuple:
    """Operation types of a round: preset, mode, and call count of generated ones."""
    types = Counter(
        (op.preset, op.mode, None if op.churn_index is None else op.churn_index % 2)
        for op in ops
    )
    return tuple(sorted(types.items(), key=repr))


def test_golden_digests_cover_every_selectable_operation():
    golden = json.loads((BENCH / "golden.json").read_text())
    for name, make in workloads.WORKLOADS.items():
        pool = {op.key for op in workloads.golden_pool(name)}
        assert set(golden[name]) == pool
        for seed in range(20):
            assert {op.key for ops in make(seed) for op in ops} <= pool


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_quantile(1000) == 0.9
    assert tail_quantile(87) == 1 - 10 / 87
    assert tail_quantile(16) == 0.5
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5


def test_reference_kernel_is_fixed_and_keeps_its_share():
    assert hostspeed.reference_unit() == hostspeed.REF_RESULT
    speed = hostspeed.HostSpeed()
    speed.account(0.05)
    assert speed.sampled_s >= hostspeed.REF_SHARE * 0.05
    assert len(speed.took) == len(speed.at) >= 1
    assert speed.scale_at(speed.at[0]) > 0
    assert speed.scale_at(speed.at[-1] + 10 * hostspeed.WINDOW_S) > 0
