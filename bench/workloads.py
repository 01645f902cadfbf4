"""Benchmark workloads: the operations each one runs, made from a seed.

An operation is one scenario run. Every operation is drawn from a finite
pool (preset x mode x simulation seed, or a generated scenario index),
so that `golden.json` can hold the recorded output digests of every
operation any benchmark seed can select.

A workload is a list of rounds. All rounds of a workload have the same
mix of operation types, so the host-time percentiles do not depend on
how many rounds fit into the measured time.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import List, Optional

from voipqos import harness, netsim

# Simulation seeds the preset workloads draw from (golden digests exist
# for each of them).
SIM_SEED_POOL = 32
# Generated control-churn scenarios: even indices have one call, odd
# indices two.
CHURN_POOL = 2048

CHURN_DURATION_S = 1200.0
CHURN_LOSS = (0.0, 0.02, 0.07, 0.10)
CHURN_LATENCY_MS = (20.0, 120.0, 200.0)
CHURN_PACKET_INTERVAL_MS = 1000.0

MULTICALL_ROUNDS = 3
MULTICALL_RED_SEEDS_PER_ROUND = 7
SWEEP_ROUNDS = 3
CHURN_ROUNDS = 8
CHURN_PER_ROUND = 50  # of each call count


@dataclass(frozen=True)
class Op:
    key: str  # golden-digest key, unique within the workload
    via: str  # "cli" or "lib"
    mode: str  # "control" | "baseline" | "calibrate"
    seed: int
    preset: Optional[str] = None
    churn_index: Optional[int] = None


def generate_churn(index: int) -> dict:
    """Scenario JSON for control-churn pool entry `index`.

    Sparse flows (one packet per second) under a timeline that sets link
    loss and latency every 10-20 s. Each cycle of steps visits all twelve
    (loss, latency) pairs in a seeded order, so every scenario spends a
    similar share of its time in each condition.
    """
    rng = random.Random(index)
    timeline = []
    pending: List[tuple] = []
    t = 0.0
    while True:
        t += rng.randint(20, 40) / 2.0
        if t >= CHURN_DURATION_S:
            break
        if not pending:
            pending = [(loss, lat) for loss in CHURN_LOSS for lat in CHURN_LATENCY_MS]
            rng.shuffle(pending)
        loss, latency = pending.pop()
        timeline.append({"at_s": t, "kind": netsim.SET_LATENCY, "value": latency})
        timeline.append({"at_s": t, "kind": netsim.SET_LOSS_RATE, "value": loss})
    calls = [
        {
            "call_id": f"call-{i + 1}",
            "flow": {"rate_kbps": 26.0, "packet_interval_ms": CHURN_PACKET_INTERVAL_MS},
        }
        for i in range(1 + index % 2)
    ]
    return {
        "name": f"churn-{index}",
        "duration_s": CHURN_DURATION_S,
        "link": {"latency_ms": 20.0, "loss_rate": 0.0, "capacity_kbps": 1000.0},
        "queue": {"capacity_pkts": 100, "discipline": "tail_drop"},
        "calls": calls,
        "timeline": timeline,
        "learning": True,
    }


def churn_json(index: int) -> str:
    """Canonical text of a generated scenario (what voipqos is given)."""
    return json.dumps(generate_churn(index), sort_keys=True)


def _cli_run(preset: str, seed: int) -> Op:
    return Op(f"{preset}/s{seed}", "cli", "control", seed, preset)


def _sweep_round(seed: int) -> List[Op]:
    # The control and baseline runs of a preset sit half a round apart, so
    # the few heavy runs that set the tail percentile are timed at more
    # different moments of the host's speed.
    def runs(mode: str) -> List[Op]:
        return [
            Op(f"{name}/{mode}/s{seed}", "lib", mode, seed, name)
            for name in sorted(harness.PRESETS)
        ]

    return runs("control") + [Op(f"calibrate/s{seed}", "lib", "calibrate", seed)] + runs("baseline")


def _churn_run(index: int) -> Op:
    return Op(f"churn-{index}", "lib", "control", index, churn_index=index)


def multicall_rounds(seed: int) -> List[List[Op]]:
    rng = random.Random(seed)
    per_round = MULTICALL_RED_SEEDS_PER_ROUND
    seeds = rng.sample(range(SIM_SEED_POOL), MULTICALL_ROUNDS * per_round)
    rounds = []
    for r in range(MULTICALL_ROUNDS):
        mine = seeds[r * per_round:(r + 1) * per_round]
        rounds.append(
            [_cli_run("fig7-multicall", mine[0])] + [_cli_run("table4-red-10k", s) for s in mine]
        )
    return rounds


def sweep_rounds(seed: int) -> List[List[Op]]:
    rng = random.Random(seed)
    return [_sweep_round(s) for s in rng.sample(range(SIM_SEED_POOL), SWEEP_ROUNDS)]


def churn_rounds(seed: int) -> List[List[Op]]:
    rng = random.Random(seed)
    n = CHURN_ROUNDS * CHURN_PER_ROUND
    single = rng.sample(range(0, CHURN_POOL, 2), n)
    double = rng.sample(range(1, CHURN_POOL, 2), n)
    return [
        [
            _churn_run(j)
            for i in range(r * CHURN_PER_ROUND, (r + 1) * CHURN_PER_ROUND)
            for j in (single[i], double[i])
        ]
        for r in range(CHURN_ROUNDS)
    ]


WORKLOADS = {
    "multicall-artifacts": multicall_rounds,
    "preset-sweep": sweep_rounds,
    "control-churn": churn_rounds,
}


def golden_pool(workload: str) -> List[Op]:
    """Every operation the workload can select, for any benchmark seed."""
    if workload == "multicall-artifacts":
        return [
            _cli_run(p, s)
            for p in ("fig7-multicall", "table4-red-10k")
            for s in range(SIM_SEED_POOL)
        ]
    if workload == "preset-sweep":
        return [op for s in range(SIM_SEED_POOL) for op in _sweep_round(s)]
    return [_churn_run(j) for j in range(CHURN_POOL)]
