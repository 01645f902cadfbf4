"""Scenario configuration, run orchestration and artifact emission."""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from . import actions as actions_mod
from . import netsim
from .controller import Controller, Episode, check_global, validate_trace
from .knowledge import KnowledgeBase, ScenarioCase
from .metrics import (
    Constraints,
    DEFAULT_CONSTRAINTS,
    HeuristicSample,
    estimate_mos,
    satisfies,
)
from .netsim import (
    BackgroundFlow,
    FecConfig,
    LinkConfig,
    MediaFlow,
    NetworkChange,
    QueueConfig,
    REDParams,
    SimWorld,
)

SCHEMA_VERSION = 1
WINDOW_S = 5.0
# The call id of the timeseries rows that hold the calls' weighted means.
GLOBAL_ROW_ID = "__global__"


class ScenarioError(Exception):
    pass


@dataclass
class FlowSpec:
    rate_kbps: float = 26.0
    packet_interval_ms: float = 20.0
    burst_pkts: int = 1
    service: str = netsim.BEST_EFFORT
    reserved_kbps: float = 0.0
    fec_block_k: int = 0  # 0 = no FEC


@dataclass
class CallSpec:
    call_id: str
    flow: FlowSpec = field(default_factory=FlowSpec)
    weight: float = 1.0
    start_s: float = 0.0
    end_s: Optional[float] = None


@dataclass
class TimelineEntry:
    at_s: float
    kind: str
    value: float


@dataclass
class Scenario:
    name: str
    duration_s: float
    link: Dict[str, float] = field(
        default_factory=lambda: {"latency_ms": 6.0, "loss_rate": 0.0, "capacity_kbps": 1000.0}
    )
    queue: Dict[str, object] = field(
        default_factory=lambda: {"capacity_pkts": 100, "discipline": "tail_drop"}
    )
    calls: List[CallSpec] = field(default_factory=list)
    background: Optional[Dict[str, float]] = None
    timeline: List[TimelineEntry] = field(default_factory=list)
    learning: bool = True
    constraints: Optional[Dict[str, float]] = None
    version: int = SCHEMA_VERSION

    def validate(self) -> None:
        """Raise ScenarioError unless the scenario can run.

        Builds the link, queue and flow configs the scenario describes, so
        every input their constructors reject is rejected here. Each
        timeline entry gets the check a NetworkChange runs, without being
        built: building the timeline costs as much as parsing a long
        scenario. A wrongly typed field is reported as a ScenarioError too.
        """
        try:
            self._check_fields()
            _, _, media, background = _netsim_configs(self)
            self._check_emission_gaps(media, background)
            self.get_constraints()
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{self.name}: {exc}") from exc

    def _check_fields(self) -> None:
        """What no config built from the scenario checks; a wrongly typed
        field raises TypeError."""
        if self.version != SCHEMA_VERSION:
            raise ScenarioError(f"{self.name}: unsupported version {self.version!r}")
        # Written so that NaN fails.
        if not 0 < self.duration_s < math.inf:
            raise ScenarioError(f"{self.name}: duration_s must be finite and > 0")
        at = [e.at_s for e in self.timeline]
        if at != sorted(at):
            raise ScenarioError(f"{self.name}: timeline must be sorted by at_s")
        for entry in self.timeline:
            if not 0 <= entry.at_s <= self.duration_s:
                raise ScenarioError(
                    f"{self.name}: timeline at_s {entry.at_s!r} is outside [0, duration_s]"
                )
            netsim.check_change(entry.kind, entry.value)
        ids = [call.call_id for call in self.calls]
        if len(set(ids)) != len(ids):
            raise ScenarioError(f"{self.name}: duplicate call_id")
        if GLOBAL_ROW_ID in ids:
            raise ScenarioError(f"{self.name}: call_id {GLOBAL_ROW_ID!r} is reserved")
        for call in self.calls:
            if not 0 <= call.start_s < _end_s(call, self) <= self.duration_s:
                raise ScenarioError(
                    f"{self.name}: call {call.call_id} interval outside duration"
                )
            if not 0 < call.weight < math.inf:
                raise ScenarioError(
                    f"{self.name}: call {call.call_id} weight must be finite and > 0"
                )

    def _check_emission_gaps(
        self, media: List[MediaFlow], background: List[BackgroundFlow]
    ) -> None:
        """Raise unless every emission gap moves the clock: the clock never
        passes the run's end, where floats are spaced widest, so a gap of
        at least that spacing always lands later."""
        resolution = math.ulp(self.duration_s * 1000.0)
        gaps = [(f.flow_id, f.burst_pkts * f.packet_interval_ms) for f in media]
        rates = [e.value for e in self.timeline if e.kind == netsim.SET_BACKGROUND_RATE]
        for bg in background:
            gaps += [(bg.flow_id, bg.packet_bits / r) for r in [bg.rate_kbps, *rates] if r > 0]
        for flow_id, gap in gaps:
            if not gap >= resolution:
                raise ScenarioError(
                    f"{self.name}: {flow_id} emits every {gap:g} ms, finer than "
                    f"the clock's {resolution:g} ms step at duration_s"
                )

    def get_constraints(self) -> Constraints:
        if self.constraints is None:
            return DEFAULT_CONSTRAINTS
        return Constraints(**self.constraints)


def scenario_to_json(scenario: Scenario) -> dict:
    return asdict(scenario)


def scenario_from_json(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError(f"a scenario is a JSON object, not {type(data).__name__}")
    unknown = sorted(set(data) - {f.name for f in fields(Scenario)})
    if unknown:
        raise ScenarioError(f"unknown scenario field(s): {', '.join(unknown)}")
    try:
        scenario = Scenario(
            name=data["name"],
            duration_s=data["duration_s"],
            link=dict(data.get("link", {})) or Scenario("_", 1).link,
            queue=dict(data.get("queue", {})) or Scenario("_", 1).queue,
            # An unknown call or flow key is a TypeError, so never dropped.
            calls=[
                CallSpec(**{**c, "flow": FlowSpec(**c.get("flow", {}))})
                for c in data.get("calls", [])
            ],
            background=data.get("background"),
            timeline=[TimelineEntry(**t) for t in data.get("timeline", [])],
            learning=data.get("learning", True),
            constraints=data.get("constraints"),
            version=data.get("version", SCHEMA_VERSION),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid scenario field: {exc}") from exc
    scenario.validate()
    return scenario


def write_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_json(scenario), fh, indent=2)


def load_scenario(path_or_preset: str) -> Scenario:
    if path_or_preset in PRESETS:
        return PRESETS[path_or_preset]()
    if not os.path.exists(path_or_preset):
        raise ScenarioError(
            f"{path_or_preset!r} is neither a preset ({', '.join(sorted(PRESETS))}) "
            "nor an existing file"
        )
    try:
        with open(path_or_preset) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ScenarioError(f"{path_or_preset}: {exc}") from exc
    return scenario_from_json(data)


# ---------------- presets ----------------

def _table1(name: str, loss: float, buffer_pkts: int, service: str = "best_effort") -> Scenario:
    return Scenario(
        name=name,
        duration_s=30.0,
        link={"latency_ms": 100.0, "loss_rate": loss, "capacity_kbps": 100.0},
        queue={"capacity_pkts": buffer_pkts, "discipline": "tail_drop"},
        calls=[
            CallSpec(
                "call-1",
                FlowSpec(burst_pkts=150, service=service, reserved_kbps=32.5),
            )
        ],
        learning=False,
    )


def _table4(name: str, bg_kbps: float) -> Scenario:
    return Scenario(
        name=name,
        duration_s=30.0,
        link={"latency_ms": 6.0, "loss_rate": 0.0, "capacity_kbps": 1000.0},
        queue={
            "capacity_pkts": 150,
            "discipline": "red",
            "red": {"min_th": 50, "max_th": 100, "max_p": 0.1, "ewma_weight": 0.002},
        },
        calls=[CallSpec("call-1", FlowSpec())],
        background={"rate_kbps": bg_kbps, "packet_bytes": 100, "burst_pkts": 1},
        learning=False,
    )


def _table7_singlecall() -> Scenario:
    return Scenario(
        name="table7-singlecall",
        duration_s=600.0,
        link={"latency_ms": 6.0, "loss_rate": 0.0, "capacity_kbps": 400.0},
        queue={"capacity_pkts": 120, "discipline": "tail_drop"},
        calls=[CallSpec("call-1", FlowSpec())],
        background={"rate_kbps": 0.0, "packet_bytes": 100, "burst_pkts": 1},
        timeline=[
            TimelineEntry(30.0, netsim.SET_LATENCY, 50.0),
            TimelineEntry(90.0, netsim.SET_LATENCY, 65.0),
            TimelineEntry(150.0, netsim.SET_LATENCY, 120.0),
            TimelineEntry(210.0, netsim.SET_BACKGROUND_RATE, 380.0),
            TimelineEntry(390.0, netsim.SET_BACKGROUND_RATE, 80.0),
            TimelineEntry(400.0, netsim.SET_LOSS_RATE, 0.065),
        ],
        learning=True,
    )


def _fig7_multicall() -> Scenario:
    return Scenario(
        name="fig7-multicall",
        duration_s=400.0,
        link={"latency_ms": 30.0, "loss_rate": 0.0, "capacity_kbps": 500.0},
        queue={"capacity_pkts": 40, "discipline": "tail_drop"},
        calls=[
            CallSpec("call-1", FlowSpec()),
            CallSpec("call-2", FlowSpec()),
        ],
        background={"rate_kbps": 0.0, "packet_bytes": 100, "burst_pkts": 1},
        timeline=[TimelineEntry(60.0, netsim.SET_BACKGROUND_RATE, 515.0)],
        learning=True,
    )


def _fig10_learning() -> Scenario:
    return Scenario(
        name="fig10-learning",
        duration_s=700.0,
        link={"latency_ms": 20.0, "loss_rate": 0.0, "capacity_kbps": 1000.0},
        queue={"capacity_pkts": 100, "discipline": "tail_drop"},
        calls=[
            CallSpec("call-1", FlowSpec(), start_s=0.0, end_s=340.0),
            CallSpec("call-2", FlowSpec(), start_s=350.0, end_s=690.0),
        ],
        timeline=[
            TimelineEntry(30.0, netsim.SET_LOSS_RATE, 0.06),
            TimelineEntry(330.0, netsim.SET_LOSS_RATE, 0.0),
            TimelineEntry(380.0, netsim.SET_LOSS_RATE, 0.06),
        ],
        learning=True,
    )


def _video_loss_sweep() -> Scenario:
    return Scenario(
        name="video-loss-sweep",
        duration_s=360.0,
        link={"latency_ms": 20.0, "loss_rate": 0.0, "capacity_kbps": 2000.0},
        queue={"capacity_pkts": 100, "discipline": "tail_drop"},
        calls=[CallSpec("call-1", FlowSpec(rate_kbps=512.0))],
        timeline=[
            TimelineEntry(60.0, netsim.SET_LOSS_RATE, 0.01),
            TimelineEntry(120.0, netsim.SET_LOSS_RATE, 0.03),
            TimelineEntry(180.0, netsim.SET_LOSS_RATE, 0.06),
        ],
        learning=True,
    )


PRESETS = {
    "table1-s1": lambda: _table1("table1-s1", 0.0, 200),
    "table1-s2": lambda: _table1("table1-s2", 0.0, 20),
    "table1-s3": lambda: _table1("table1-s3", 0.30, 200),
    "table1-s4": lambda: _table1("table1-s4", 0.30, 20),
    "fig5-s3-controlled": lambda: _table1("fig5-s3-controlled", 0.30, 200, "controlled_load"),
    "fig5-s3-guaranteed": lambda: _table1("fig5-s3-guaranteed", 0.30, 200, "guaranteed"),
    "fig5-s4-controlled": lambda: _table1("fig5-s4-controlled", 0.30, 20, "controlled_load"),
    "fig5-s4-guaranteed": lambda: _table1("fig5-s4-guaranteed", 0.30, 20, "guaranteed"),
    "table4-red-1k": lambda: _table4("table4-red-1k", 900.0),
    "table4-red-10k": lambda: _table4("table4-red-10k", 1080.0),
    "table7-singlecall": _table7_singlecall,
    "fig7-multicall": _fig7_multicall,
    "fig10-learning": _fig10_learning,
    "video-loss-sweep": _video_loss_sweep,
}


# ---------------- world construction ----------------

def build_world(scenario: Scenario, seed: int, trace: bool = False) -> SimWorld:
    """The scenario's world; only a traced world keeps the packet log that
    trace.csv is written from."""
    scenario.validate()
    link, queue, media, background = _netsim_configs(scenario)
    timeline = tuple(
        NetworkChange(e.at_s * 1000.0, e.kind, e.value) for e in scenario.timeline
    )
    world = SimWorld(link, queue, seed=seed, timeline=timeline, trace=trace)
    for flow in media:
        world.add_media_flow(flow)
    for flow in background:
        world.add_background_flow(flow)
    return world


def _netsim_configs(scenario: Scenario) -> tuple:
    """The link, queue, media flows and background flows a scenario
    describes; raises the constructors' ValueError (or TypeError for an
    unknown field) on bad input."""
    link = LinkConfig(**scenario.link)
    queue = _queue_config(scenario.queue)
    media = [_media_flow(call, scenario) for call in scenario.calls]
    # Every media flow is admitted when the world is built.
    reserved = sum(f.reserved_kbps for f in media if f.service == netsim.GUARANTEED)
    if reserved > link.capacity_kbps:
        raise ValueError(
            f"guaranteed calls reserve {reserved:g} kbps, more than the link's "
            f"{link.capacity_kbps:g} kbps"
        )
    background = []
    if scenario.background is not None:
        bg = _known_fields(
            scenario.background, "background", ("rate_kbps", "packet_bytes", "burst_pkts")
        )
        background.append(BackgroundFlow("bg", **{"rate_kbps": 0.0, **bg}))
    return link, queue, media, background


def _known_fields(obj: dict, what: str, allowed: Tuple[str, ...]) -> dict:
    """The object itself; raises ValueError if it has a key not allowed."""
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {what} field(s): {', '.join(unknown)}")
    return obj


def _queue_config(queue: Dict[str, object]) -> QueueConfig:
    """The queue a scenario's queue object describes: "tail_drop" has no
    RED curve, "red" drops best-effort packets early."""
    _known_fields(queue, "queue", ("capacity_pkts", "discipline", "red"))
    discipline = queue.get("discipline", "tail_drop")
    red = queue.get("red")
    if discipline not in ("tail_drop", "red"):
        raise ValueError(f"unknown queue discipline {discipline!r}")
    if (discipline == "red") != (red is not None):
        raise ValueError("the red discipline needs red parameters, and only it takes them")
    table = (None, None) if red is None else (REDParams(**red), None)  # type: ignore[arg-type]
    return QueueConfig(queue.get("capacity_pkts", 100), table)  # type: ignore[arg-type]


def _flow_id(call_id: str) -> str:
    return f"flow-{call_id}"


def _media_flow(call: CallSpec, scenario: Scenario) -> MediaFlow:
    f = call.flow
    service = f.service
    reserved = f.reserved_kbps
    if service == "guaranteed" and reserved <= 0:
        reserved = f.rate_kbps * actions_mod.GUARANTEED_RESERVATION_FACTOR
    return MediaFlow(
        flow_id=_flow_id(call.call_id),
        rate_kbps=f.rate_kbps,
        packet_interval_ms=f.packet_interval_ms,
        burst_pkts=f.burst_pkts,
        service=service,
        reserved_kbps=reserved,
        fec=FecConfig(f.fec_block_k) if f.fec_block_k else None,
        start_ms=call.start_s * 1000.0,
        end_ms=None if call.end_s is None else call.end_s * 1000.0,
    )


# ---------------- calibration (analysis phase) ----------------

def _calibration_scenario(case: ScenarioCase) -> Scenario:
    if case == ScenarioCase.CASE1:
        return Scenario(
            name="calib-case1",
            duration_s=40.0,
            link={"latency_ms": 30.0, "loss_rate": 0.0, "capacity_kbps": 1000.0},
            queue={"capacity_pkts": 100, "discipline": "tail_drop"},
            calls=[CallSpec("cal", FlowSpec())],
        )
    if case == ScenarioCase.CASE2:
        # Loss from the call's own bursts overflowing a small buffer.
        return Scenario(
            name="calib-case2",
            duration_s=40.0,
            link={"latency_ms": 20.0, "loss_rate": 0.0, "capacity_kbps": 500.0},
            queue={"capacity_pkts": 25, "discipline": "tail_drop"},
            calls=[CallSpec("cal", FlowSpec(burst_pkts=30))],
        )
    if case == ScenarioCase.CASE3:
        # Delay from a standing queue under slight oversubscription.
        return Scenario(
            name="calib-case3",
            duration_s=40.0,
            link={"latency_ms": 100.0, "loss_rate": 0.0, "capacity_kbps": 400.0},
            queue={"capacity_pkts": 200, "discipline": "tail_drop"},
            calls=[CallSpec("cal", FlowSpec())],
            background={"rate_kbps": 380.0, "packet_bytes": 100, "burst_pkts": 1},
        )
    return Scenario(
        name="calib-case4",
        duration_s=40.0,
        link={"latency_ms": 190.0, "loss_rate": 0.08, "capacity_kbps": 500.0},
        queue={"capacity_pkts": 25, "discipline": "tail_drop"},
        calls=[CallSpec("cal", FlowSpec(burst_pkts=30))],
    )


def calibrate(seed: int = 0) -> KnowledgeBase:
    """Analysis phase: measure each catalog action once per case."""
    kb = KnowledgeBase()
    for case_name, action_list in actions_mod.CASE_ORDER.items():
        case = ScenarioCase(case_name)
        scenario = _calibration_scenario(case)
        for action in action_list:
            world = build_world(scenario, seed)
            flow_id = _flow_id(scenario.calls[0].call_id)
            world.advance(10_000.0)
            world.measure(flow_id)  # discard warmup window
            try:
                actions_mod.apply_action(world, flow_id, action)
            except actions_mod.ActionFailedError:
                kb.add_entry(case, action, scenario.link["latency_ms"], 1.0)
                continue
            world.advance(15_000.0)
            world.measure(flow_id)  # discard settling window
            world.advance(35_000.0)
            sample = world.measure(flow_id)
            if sample is None:
                kb.add_entry(case, action, scenario.link["latency_ms"], 0.0)
            else:
                kb.add_entry(case, action, sample.delay_ms, sample.loss)
    return kb


def default_kb() -> KnowledgeBase:
    """Knowledge base from the shipped calibration seed."""
    return KnowledgeBase.from_json(actions_mod.default_knowledge())


# ---------------- runs ----------------

@dataclass
class RunArtifacts:
    scenario: Scenario
    summary: dict
    timeseries: List[Tuple[float, str, float, float, float]]
    world: Optional[SimWorld] = None
    controller: Optional[Controller] = None
    kb: Optional[KnowledgeBase] = None


def run(
    scenario: Scenario,
    seed: int = 0,
    mode: str = "control",
    learning: Optional[bool] = None,
    out_dir: Optional[str] = None,
) -> RunArtifacts:
    if mode == "calibrate":
        kb = calibrate(seed)
        artifacts = RunArtifacts(scenario, {"revision": kb.revision}, [], kb=kb)
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, "kb.json"), "w") as fh:
                json.dump(kb.to_json(), fh, indent=2, sort_keys=True)
        return artifacts
    if mode not in ("baseline", "control"):
        raise ValueError(f"unknown mode: {mode}")
    # Only the artifacts in out_dir include trace.csv, the packet log.
    artifacts = _run_windows(scenario, seed, mode, learning, trace=out_dir is not None)
    if out_dir is not None:
        write_outputs(artifacts, out_dir)
    return artifacts


def _run_windows(
    scenario: Scenario, seed: int, mode: str, learning: Optional[bool], trace: bool
) -> RunArtifacts:
    """The 5 s window loop; baseline mode runs it without a controller."""
    world = build_world(scenario, seed, trace=trace)
    constraints = scenario.get_constraints()
    controller = kb = None
    if mode == "control":
        kb = default_kb()
        kb.constraints = constraints
        learn = scenario.learning if learning is None else learning
        controller = Controller(world, kb, learning=learn)
    timeseries = []
    t = 0.0
    end_ms = scenario.duration_s * 1000.0
    while t < end_ms - 1e-9:
        # Open the calls that start in the window [t_prev, t); close those
        # that end in (t_prev, t]. Windows tile the run, so each call opens
        # and closes exactly once.
        t_prev, t = t, t + WINDOW_S * 1000.0
        if t >= end_ms - 1e-9:
            # The last window runs to the end itself, so no call outlives it.
            t = end_ms
        if controller is not None:
            for call in scenario.calls:
                if t_prev <= call.start_s * 1000.0 < t:
                    controller.add_call(call.call_id, _flow_id(call.call_id), call.weight)
        world.advance(t)
        for call in scenario.calls:
            if t_prev < _end_s(call, scenario) * 1000.0 <= t:
                # Closing first stops the call's mechanisms, so end_flow
                # releases whatever reservation the restored flow holds.
                if controller is not None:
                    controller.close_call(call.call_id)
                world.end_flow(_flow_id(call.call_id))
        if controller is None:
            world.pop_notifications()
            flows = [(c.call_id, world.measure(_flow_id(c.call_id))) for c in scenario.calls]
        else:
            controller.on_window()
            live = controller.active_calls()
            flows = [(c.call_id, c.sample) for c in live]
        for call_id, sample in flows:
            if sample is not None:
                row = (t / 1000.0, call_id, sample.delay_ms, sample.loss, sample.mos)
                timeseries.append(row)
        if controller is not None and len(live) >= 2:
            _, means = check_global(live, constraints)
            if means:
                timeseries.append(
                    (t / 1000.0, GLOBAL_ROW_ID, means["delay_ms"], means["loss"], means["mos"])
                )
    # Validation keeps end_s <= duration_s, so every call has ended here.
    episodes = [] if controller is None else controller.episodes
    summary = _summary(scenario, world, timeseries, constraints, episodes)
    if controller is not None:
        summary["trace_errors"] = validate_trace(controller)
    return RunArtifacts(
        scenario, summary, timeseries, world=world, controller=controller, kb=kb
    )


def _end_s(call: CallSpec, scenario: Scenario) -> float:
    return call.end_s if call.end_s is not None else scenario.duration_s


def _summary(
    scenario: Scenario,
    world: SimWorld,
    timeseries: List[Tuple[float, str, float, float, float]],
    constraints: Constraints,
    episodes: List[Episode],
) -> dict:
    windows_of: Dict[str, List[HeuristicSample]] = {c.call_id: [] for c in scenario.calls}
    for _, call_id, delay_ms, loss, mos in timeseries:
        if call_id in windows_of:  # not a GLOBAL_ROW_ID row
            windows_of[call_id].append(HeuristicSample(delay_ms, loss, mos))
    per_call = {}
    all_ok = bool(scenario.calls)
    for call in scenario.calls:
        totals = world.totals(_flow_id(call.call_id))
        resolved = totals.delivered + totals.dropped
        avg_loss = (totals.dropped - totals.recovered) / resolved if resolved else 0.0
        avg_delay = totals.delay_sum_ms / totals.delay_n if totals.delay_n else 0.0
        windows = windows_of[call.call_id]
        ok_windows = sum(1 for s in windows if satisfies(s, constraints))
        avg_mos = sum(s.mos for s in windows) / len(windows) if windows else estimate_mos(
            avg_delay, min(1.0, avg_loss)
        )
        call_ok = constraints.met_by(avg_delay, avg_loss, avg_mos)
        all_ok = all_ok and call_ok
        per_call[call.call_id] = {
            "avg_delay_ms": avg_delay,
            "avg_loss": avg_loss,
            "avg_mos": avg_mos,
            "windows": len(windows),
            "satisfied_windows": ok_windows,
            "satisfaction_fraction": ok_windows / len(windows) if windows else 0.0,
            "packets_sent": totals.sent,
            "packets_delivered": totals.delivered,
            "packets_recovered": totals.recovered,
            "constraints_met": call_ok,
        }
    ep_out = []
    for ep in episodes:
        entry = {
            "call_id": ep.call_id,
            "case": ep.case.value,
            "started_ms": ep.started_ms,
            "satisfied_ms": ep.satisfied_ms,
            "actions": [a.name for a in ep.tried],
            "final_action": ep.last_action.name if ep.last_action else None,
            "exhausted": ep.exhausted,
            "satisfied": ep.satisfied_ms is not None,
        }
        if ep.satisfied_ms is not None:
            entry["time_to_satisfaction_s"] = (ep.satisfied_ms - ep.started_ms) / 1000.0
        ep_out.append(entry)
    return {
        "scenario": scenario.name,
        "calls": per_call,
        "episodes": ep_out,
        "constraints_met": all_ok,
    }


# ---------------- artifact emission ----------------

def write_outputs(artifacts: RunArtifacts, out_dir: str) -> List[str]:
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def path(name: str) -> str:
        written.append(os.path.join(out_dir, name))
        return written[-1]

    if artifacts.world is not None:
        artifacts.world.export_trace_csv(path("trace.csv"))
    with open(path("states.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "state_id", "call_id", "entering", "opened_ms", "closed_ms",
                "avg_delay", "avg_loss", "mos", "category",
            ]
        )
        if artifacts.controller is not None:
            for call in artifacts.controller.calls.values():
                for s in call.states:
                    writer.writerow(
                        [
                            s.state_id,
                            call.call_id,
                            s.entering,
                            f"{s.opened_at_ms:.3f}",
                            "" if s.closed_at_ms is None else f"{s.closed_at_ms:.3f}",
                            f"{s.g.avg_delay_ms:.3f}",
                            f"{s.g.avg_loss:.6f}",
                            "" if s.sample is None else f"{s.sample.mos:.3f}",
                            "" if s.category is None else s.category.name,
                        ]
                    )
    with open(path("transitions.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["at_ms", "call_id", "kind", "cause"])
        if artifacts.controller is not None:
            for tr in artifacts.controller.transitions:
                writer.writerow([f"{tr.at_ms:.3f}", tr.call_id, tr.kind, tr.cause])
    with open(path("timeseries.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "call_id", "delay_ms", "loss", "mos"])
        for row in artifacts.timeseries:
            writer.writerow(
                [f"{row[0]:.3f}", row[1], f"{row[2]:.6f}", f"{row[3]:.8f}", f"{row[4]:.6f}"]
            )
    if artifacts.kb is not None:
        with open(path("kb.json"), "w") as fh:
            json.dump(artifacts.kb.to_json(), fh, indent=2, sort_keys=True)
    with open(path("summary.json"), "w") as fh:
        json.dump(artifacts.summary, fh, indent=2, sort_keys=True)
    return written
