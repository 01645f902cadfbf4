"""Run one operation through voipqos's public entry points and check it.

Each operation is timed from the call into voipqos to its return. The
checks run afterwards, outside the timed region: output digests against
`golden.json` and the run invariants (packet conservation, trace errors,
knowledge-base rank contiguity, reservation ledger).
"""
from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import shutil
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from voipqos import cli, harness, netsim
from voipqos.knowledge import KnowledgeBase, KnowledgeError, ScenarioCase

from workloads import Op, churn_json

NETSIM_COUNTS = (
    "packets_sent",
    "packets_delivered",
    "drops_queue",
    "drops_link",
    "drops_policer",
    "fec_recovered",
    "log_rows",
)


@dataclass
class Outcome:
    op: Op
    host_s: float
    error: Optional[str] = None  # "Type: message" when the operation raised
    raised_at: Optional[str] = None  # innermost frame of that exception
    digests: Dict[str, str] = field(default_factory=dict)
    breaches: List[str] = field(default_factory=list)
    mismatch: Optional[str] = None
    sim_s: float = 0.0
    windows: int = 0
    summary: Optional[dict] = None
    netsim: Dict[str, int] = field(default_factory=dict)
    transitions: Dict[str, int] = field(default_factory=dict)
    artifact_bytes: int = 0

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.breaches) or self.mismatch is not None

    @property
    def packets(self) -> int:
        return self.netsim.get("packets_sent", 0)


def canonical_digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def expected_outcome(golden: dict) -> str:
    return golden.get("raises") or "returned"


class Runner:
    """Executes operations; records every SimWorld that voipqos builds."""

    def __init__(self, out_dir: str, golden: Optional[Dict[str, dict]] = None):
        self.out_dir = out_dir  # artifact directory of CLI operations
        self.golden = golden
        self.worlds: List[netsim.SimWorld] = []
        self.churn_text: Dict[int, str] = {}
        # The tracer replaces this to put a root span around each operation.
        self.wrap_op: Callable[[Callable], Callable] = lambda fn: fn
        self._build_world = harness.build_world

    def __enter__(self) -> "Runner":
        original = self._build_world

        def build_world(*args, **kwargs):
            world = original(*args, **kwargs)
            self.worlds.append(world)
            return world

        harness.build_world = build_world
        return self

    def __exit__(self, *exc) -> None:
        harness.build_world = self._build_world

    def prepare(self, ops: List[Op]) -> None:
        """Generate the scenario texts the operations will load (untimed)."""
        for op in ops:
            if op.churn_index is not None and op.churn_index not in self.churn_text:
                self.churn_text[op.churn_index] = churn_json(op.churn_index)

    def run(self, op: Op) -> Outcome:
        # Each operation starts with no garbage left by the previous one (a
        # SimWorld's scheduled closures form cycles, so only the collector
        # frees it). Everything that survives is the benchmark's own data;
        # freezing it keeps it out of the operation's collections.
        gc.collect()
        gc.freeze()
        self.worlds = []
        if op.via == "cli":
            shutil.rmtree(self.out_dir, ignore_errors=True)
        body = self.wrap_op(lambda: self._execute(op))
        start = time.perf_counter()
        try:
            artifacts = body()
        except Exception as exc:  # a failed operation is a result, not a stop
            host_s = time.perf_counter() - start
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            outcome = Outcome(
                op, host_s, error=f"{type(exc).__name__}: {exc}",
                raised_at=f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}",
            )
        else:
            outcome = Outcome(op, time.perf_counter() - start)
            self._collect(outcome, artifacts)
        self._check_golden(outcome)
        self.worlds = []
        return outcome

    # ---------------- the timed call ----------------

    def _execute(self, op: Op):
        if op.via == "cli":
            argv = ["run", "--scenario", op.preset, "--seed", str(op.seed), "--out", self.out_dir]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code not in (0, 2):  # 2 = constraints unmet, still a result
                raise RuntimeError(f"voipqos run exited with code {code}")
            return None
        if op.mode == "calibrate":
            scenario = None
        elif op.churn_index is not None:
            scenario = harness.scenario_from_json(json.loads(self.churn_text[op.churn_index]))
        else:
            scenario = harness.load_scenario(op.preset)
        return harness.run(scenario, seed=op.seed, mode=op.mode)

    # ---------------- outputs and invariants ----------------

    def _collect(self, outcome: Outcome, artifacts) -> None:
        if outcome.op.via == "cli":
            out_dir = self.out_dir
            names = sorted(os.listdir(out_dir))
            for name in names:
                path = os.path.join(out_dir, name)
                outcome.digests[name] = file_digest(path)
                outcome.artifact_bytes += os.path.getsize(path)
            with open(os.path.join(out_dir, "summary.json")) as fh:
                summary = json.load(fh)
            with open(os.path.join(out_dir, "kb.json")) as fh:
                kb_json = json.load(fh)
            with open(os.path.join(out_dir, "timeseries.csv"), newline="") as fh:
                calls = [row["call_id"] for row in csv.DictReader(fh)]
            with open(os.path.join(out_dir, "transitions.csv"), newline="") as fh:
                kinds = [row["kind"] for row in csv.DictReader(fh)]
            shutil.rmtree(out_dir, ignore_errors=True)
            outcome.breaches += _kb_breaches_from_json(kb_json)
        else:
            summary = artifacts.summary
            kb = artifacts.kb
            outcome.digests = {
                "summary": canonical_digest(summary),
                "kb": canonical_digest(None if kb is None else kb.to_json()),
            }
            calls = [row[1] for row in artifacts.timeseries]
            ctrl = artifacts.controller
            kinds = [] if ctrl is None else [tr.kind for tr in ctrl.transitions]
            if kb is not None:
                outcome.breaches += _kb_breaches(kb)
        outcome.summary = summary
        outcome.windows = sum(1 for c in calls if c != "__global__")
        outcome.transitions = {k: kinds.count(k) for k in ("d1", "d2", "d3")}
        if summary.get("trace_errors"):
            outcome.breaches.append(f"trace_errors: {summary['trace_errors']}")
        counts = dict.fromkeys(NETSIM_COUNTS, 0)
        for world in self.worlds:
            outcome.sim_s += world.clock / 1000.0
            for st in world.flows.values():
                t = st.totals
                counts["packets_sent"] += t.sent
                counts["packets_delivered"] += t.delivered
                counts["drops_queue"] += t.dropped_queue
                counts["drops_link"] += t.dropped_link
                counts["drops_policer"] += t.dropped_policer
                counts["fec_recovered"] += t.recovered
            counts["log_rows"] += len(world.log)
            outcome.breaches += _world_breaches(world)
        outcome.netsim = counts

    def _check_golden(self, outcome: Outcome) -> None:
        if self.golden is None:
            return
        key = outcome.op.key
        expected = self.golden.get(key)
        if expected is None:
            outcome.mismatch = f"{key}: no recorded digest"
            return
        got = outcome.error or "returned"
        if got != expected_outcome(expected):
            outcome.mismatch = f"{key}: expected {expected_outcome(expected)}, got {got}"
        elif outcome.error is None and outcome.digests != expected["digests"]:
            differ = sorted(
                k for k in set(outcome.digests) | set(expected["digests"])
                if outcome.digests.get(k) != expected["digests"].get(k)
            )
            outcome.mismatch = f"{key}: digest mismatch in {', '.join(differ)}"


def golden_entry(outcome: Outcome) -> dict:
    if outcome.error is not None:
        return {"raises": outcome.error}
    return {"digests": outcome.digests}


def _world_breaches(world: netsim.SimWorld) -> List[str]:
    out = []
    try:
        world.check_conservation()
    except AssertionError as exc:
        out.append(f"conservation: {exc}")
    held = sum(
        st.cfg.reserved_kbps
        for st in world.flows.values()
        if st.active
        and isinstance(st.cfg, netsim.MediaFlow)
        and st.cfg.service == netsim.GUARANTEED
    )
    if not math.isclose(world.reserved_kbps, held, abs_tol=1e-9):
        out.append(
            f"reservation ledger: {world.reserved_kbps:g} kbps reserved, "
            f"{held:g} kbps held by active guaranteed flows"
        )
    return out


def _kb_breaches(kb: KnowledgeBase) -> List[str]:
    out = []
    for case in ScenarioCase:
        ranks = [e.rank for e in kb.entries(case)]
        if ranks != list(range(1, len(ranks) + 1)):
            out.append(f"kb ranks not contiguous in {case.value}: {ranks}")
    return out


def _kb_breaches_from_json(data: dict) -> List[str]:
    try:
        kb = KnowledgeBase.from_json(data)
    except (KnowledgeError, KeyError, ValueError) as exc:  # from_json checks ranks
        return [f"kb.json: {type(exc).__name__}: {exc}"]
    return _kb_breaches(kb)
