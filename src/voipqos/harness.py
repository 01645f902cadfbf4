"""Scenario parsing, run orchestration and artifact emission.

A scenario is parsed once. `scenario_from_json`, the one maker of a
`Scenario`, builds the netsim configs a scenario object describes, each
checking its own fields, and `Scenario.validate` then runs the checks that
span several of them. The presets and the calibration worlds are scenario
objects too, so they are checked by the code that checks a file.
`build_world` only instantiates a `SimWorld` from the configs, and a world
never writes to them, so one `Scenario` can be run any number of times.
`run` drives the 5 s window loop, with or without the controller, writing
trace.csv as it goes: each window's packet rows are formatted a chunk of
rows per `%` call, so writing them holds about 130 KB at a time, well
under the 3 MB a traced run is tested against. `write_outputs` writes the
other artifacts. This is the one module that reads or writes files:
scenario files, the shipped knowledge seed and the artifacts, trace.csv
included.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
from dataclasses import dataclass, fields, replace
from importlib import resources
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, TextIO, Tuple

from . import actions as actions_mod
from . import netsim
from .controller import Controller, Episode, validate_trace
from .knowledge import KnowledgeBase, ScenarioCase
from .metrics import (
    Constraints,
    DEFAULT_CONSTRAINTS,
    HeuristicSample,
    estimate_mos,
    left_sum,
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


class Call(NamedTuple):
    """One call of a scenario: its media flow, whose start_ms and end_ms
    are the call's interval (end_ms None: to the scenario's end), and its
    weight in the calls' global means."""

    call_id: str
    flow: MediaFlow
    weight: float


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: the configs its world is built from, and what the
    run needs besides. Made by `scenario_from_json` alone."""

    name: str
    duration_s: float
    link: LinkConfig
    queue: QueueConfig
    calls: Tuple[Call, ...]
    background: Optional[BackgroundFlow]
    timeline: Tuple[NetworkChange, ...]
    learning: bool
    constraints: Constraints

    def validate(self) -> None:
        """Raise ScenarioError unless the scenario can run.

        Each config checked its own fields when it was built; these are the
        checks that span several of them. A wrongly typed field is reported
        as a ScenarioError too.
        """
        try:
            # Written so that NaN fails.
            if not 0 < self.duration_s < math.inf:
                raise ValueError("duration_s must be finite and > 0")
            if not isinstance(self.name, str):
                raise ValueError(f"name must be text, not {type(self.name).__name__}")
            if not isinstance(self.learning, bool):
                raise ValueError(f"learning must be true or false, not {self.learning!r}")
            end_ms = self.duration_s * 1000.0
            ids = [call.call_id for call in self.calls]
            if len(set(ids)) != len(ids):
                raise ValueError("duplicate call_id")
            if GLOBAL_ROW_ID in ids:
                raise ValueError(f"call_id {GLOBAL_ROW_ID!r} is reserved")
            for call_id, flow, weight in self.calls:
                call_end_ms = end_ms if flow.end_ms is None else flow.end_ms
                if not 0 <= flow.start_ms < call_end_ms <= end_ms:
                    raise ValueError(f"call {call_id} interval outside duration")
                if not 0 < weight < math.inf:
                    raise ValueError(f"call {call_id} weight must be finite and > 0")
            # Every media flow is admitted when the world is built.
            reserved = left_sum(
                c.flow.reserved_kbps for c in self.calls if c.flow.service == netsim.GUARANTEED
            )
            if reserved > self.link.capacity_kbps:
                raise ValueError(
                    f"guaranteed calls reserve {reserved!r} kbps, more than the link's "
                    f"{self.link.capacity_kbps!r} kbps"
                )
            at = [change.at_ms for change in self.timeline]
            if at != sorted(at):
                raise ValueError("timeline must be sorted by at_s")
            for at_ms in at:
                if not 0 <= at_ms <= end_ms:
                    raise ValueError(
                        f"timeline at_s {at_ms / 1000.0!r} is outside [0, duration_s]"
                    )
            # Every emission gap must move the clock: the clock never passes
            # the run's end, where floats are spaced widest, so a gap of at
            # least that spacing always lands later.
            resolution = math.ulp(end_ms)
            gaps = [(c.flow.flow_id, c.flow.burst_pkts * c.flow.packet_interval_ms)
                    for c in self.calls]
            bg = self.background
            if bg is not None:
                rates = [c.value for c in self.timeline if c.kind == netsim.SET_BACKGROUND_RATE]
                gaps += [(bg.flow_id, bg.packet_bits / r) for r in [bg.rate_kbps, *rates] if r > 0]
            for flow_id, gap in gaps:
                if not gap >= resolution:
                    raise ValueError(
                        f"{flow_id} emits every {gap:g} ms, finer than the clock's "
                        f"{resolution:g} ms step at duration_s"
                    )
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{self.name}: {exc}") from exc


# A scenario object's keys: the Scenario's fields and the schema version.
_FIELDS = {"version", *(f.name for f in fields(Scenario))}


def scenario_from_json(data: dict) -> Scenario:
    """The scenario a scenario object describes, its configs built and the
    whole validated; raises ScenarioError on any input that cannot run."""
    if not isinstance(data, dict):
        raise ScenarioError(f"a scenario is a JSON object, not {type(data).__name__}")
    unknown = sorted(set(data) - _FIELDS)
    if unknown:
        raise ScenarioError(f"unknown scenario field(s): {', '.join(unknown)}")
    try:
        # JSON's true and false would pass as 1 and 0; a timeline's are caught below.
        path = _boolean_path({k: v for k, v in data.items() if k not in ("learning", "timeline")})
        if path is not None:
            raise ScenarioError(f"{path[1:]} is true or false, not a number or text")
        if data.get("version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ScenarioError(f"unsupported version {data['version']!r}")
        background = data.get("background")
        constraints = data.get("constraints")
        timeline = data.get("timeline", ())
        scenario = Scenario(
            name=data["name"],
            duration_s=data["duration_s"],
            # An unknown key of an object is a TypeError, so never dropped.
            link=LinkConfig(**data.get("link", {})),
            queue=_queue_config(**data.get("queue", {})),
            calls=tuple(_call(**c) for c in data.get("calls", ())),
            background=None if background is None else BackgroundFlow(
                "bg", **{"rate_kbps": 0.0, **background}
            ),
            # Built inline: a long timeline is most of a scenario's parse.
            timeline=tuple(
                NetworkChange(e["at_s"] * 1000.0, e["kind"], e["value"]) for e in timeline
            ),
            learning=data.get("learning", True),
            constraints=DEFAULT_CONSTRAINTS if constraints is None else Constraints(**constraints),
        )
        # Each entry has at_s, kind and value, so a fourth key is unknown.
        if any(
            len(e) != 3 or type(e["at_s"]) is bool or type(e["value"]) is bool for e in timeline
        ):
            raise ValueError("a timeline entry has exactly the keys at_s, kind and number value")
        scenario.validate()
    # RecursionError: an object nested too deeply to walk or print.
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ScenarioError(f"invalid scenario field: {exc}") from exc
    return scenario


def _boolean_path(value) -> Optional[str]:
    """The ".key" and "[index]" path to a JSON container's first boolean, or None."""
    for key, item in value.items() if isinstance(value, dict) else enumerate(value):
        path = "" if item is True or item is False else (
            _boolean_path(item) if isinstance(item, (dict, list)) else None
        )
        if path is not None:
            return (f".{key}" if isinstance(key, str) else f"[{key}]") + path
    return None


def _queue_config(
    capacity_pkts: int = 100, discipline: str = "tail_drop", red: Optional[dict] = None
) -> QueueConfig:
    """A queue object's config: "tail_drop" has no RED curve, "red" drops
    best-effort packets early."""
    if discipline not in ("tail_drop", "red"):
        raise ValueError(f"unknown queue discipline {discipline!r}")
    if (discipline == "red") != (red is not None):
        raise ValueError("the red discipline needs red parameters, and only it takes them")
    return QueueConfig(capacity_pkts, (None if red is None else REDParams(**red), None))


def _call(
    call_id: str,
    flow: Mapping[str, object] = MappingProxyType({}),
    weight: float = 1.0,
    start_s: float = 0.0,
    end_s: Optional[float] = None,
) -> Call:
    """A call object's call. Its flow object holds MediaFlow fields, and
    fec_block_k for the FEC block size (0: none); a guaranteed flow's
    reserved_kbps of 0 is its default reservation, 1.25 x its rate."""
    if not isinstance(call_id, str):
        raise ValueError(f"call_id must be text, not {call_id!r}")
    params = {"fec_block_k": 0, **flow}
    block_k = params.pop("fec_block_k")
    media = MediaFlow(
        f"flow-{call_id}",
        **params,
        fec=FecConfig(block_k) if block_k else None,
        start_ms=start_s * 1000.0,
        end_ms=None if end_s is None else end_s * 1000.0,
    )
    if media.service == netsim.GUARANTEED and media.reserved_kbps == 0:
        reserved = media.rate_kbps * actions_mod.GUARANTEED_RESERVATION_FACTOR
        media = replace(media, reserved_kbps=reserved)
    return Call(call_id, media, weight)


def load_scenario(path_or_preset: str) -> Scenario:
    if path_or_preset in PRESETS:
        return scenario_from_json(PRESETS[path_or_preset])
    if not os.path.exists(path_or_preset):
        raise ScenarioError(
            f"{path_or_preset!r} is neither a preset ({', '.join(sorted(PRESETS))}) "
            "nor an existing file"
        )
    try:
        with open(path_or_preset) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ScenarioError(f"{path_or_preset}: {exc}") from exc
    return scenario_from_json(data)


# ---------------- presets ----------------
# Scenario objects, as a scenario file holds them.

def _change(at_s: float, kind: str, value: float) -> dict:
    return {"at_s": at_s, "kind": kind, "value": value}


def _table1(name: str, loss: float, buffer_pkts: int, service: str = "best_effort") -> dict:
    return {
        "name": name,
        "duration_s": 30.0,
        "link": {"latency_ms": 100.0, "loss_rate": loss, "capacity_kbps": 100.0},
        "queue": {"capacity_pkts": buffer_pkts},
        "calls": [
            {
                "call_id": "call-1",
                "flow": {"burst_pkts": 150, "service": service, "reserved_kbps": 32.5},
            }
        ],
        "learning": False,
    }


def _table4(name: str, bg_kbps: float) -> dict:
    return {
        "name": name,
        "duration_s": 30.0,
        "link": {"latency_ms": 6.0, "loss_rate": 0.0, "capacity_kbps": 1000.0},
        "queue": {
            "capacity_pkts": 150,
            "discipline": "red",
            "red": {"min_th": 50, "max_th": 100, "max_p": 0.1, "ewma_weight": 0.002},
        },
        "calls": [{"call_id": "call-1"}],
        "background": {"rate_kbps": bg_kbps, "packet_bytes": 100, "burst_pkts": 1},
        "learning": False,
    }


PRESETS = {
    preset["name"]: preset
    for preset in (
        _table1("table1-s1", 0.0, 200),
        _table1("table1-s2", 0.0, 20),
        _table1("table1-s3", 0.30, 200),
        _table1("table1-s4", 0.30, 20),
        _table1("fig5-s3-controlled", 0.30, 200, "controlled_load"),
        _table1("fig5-s3-guaranteed", 0.30, 200, "guaranteed"),
        _table1("fig5-s4-controlled", 0.30, 20, "controlled_load"),
        _table1("fig5-s4-guaranteed", 0.30, 20, "guaranteed"),
        _table4("table4-red-1k", 900.0),
        _table4("table4-red-10k", 1080.0),
        {
            "name": "table7-singlecall",
            "duration_s": 600.0,
            "link": {"latency_ms": 6.0, "loss_rate": 0.0, "capacity_kbps": 400.0},
            "queue": {"capacity_pkts": 120},
            "calls": [{"call_id": "call-1"}],
            "background": {"rate_kbps": 0.0, "packet_bytes": 100, "burst_pkts": 1},
            "timeline": [
                _change(30.0, netsim.SET_LATENCY, 50.0),
                _change(90.0, netsim.SET_LATENCY, 65.0),
                _change(150.0, netsim.SET_LATENCY, 120.0),
                _change(210.0, netsim.SET_BACKGROUND_RATE, 380.0),
                _change(390.0, netsim.SET_BACKGROUND_RATE, 80.0),
                _change(400.0, netsim.SET_LOSS_RATE, 0.065),
            ],
        },
        {
            "name": "fig7-multicall",
            "duration_s": 400.0,
            "link": {"latency_ms": 30.0, "loss_rate": 0.0, "capacity_kbps": 500.0},
            "queue": {"capacity_pkts": 40},
            "calls": [{"call_id": "call-1"}, {"call_id": "call-2"}],
            "background": {"rate_kbps": 0.0, "packet_bytes": 100, "burst_pkts": 1},
            "timeline": [_change(60.0, netsim.SET_BACKGROUND_RATE, 515.0)],
        },
        {
            "name": "fig10-learning",
            "duration_s": 700.0,
            "link": {"latency_ms": 20.0, "loss_rate": 0.0, "capacity_kbps": 1000.0},
            "queue": {"capacity_pkts": 100},
            "calls": [
                {"call_id": "call-1", "start_s": 0.0, "end_s": 340.0},
                {"call_id": "call-2", "start_s": 350.0, "end_s": 690.0},
            ],
            "timeline": [
                _change(30.0, netsim.SET_LOSS_RATE, 0.06),
                _change(330.0, netsim.SET_LOSS_RATE, 0.0),
                _change(380.0, netsim.SET_LOSS_RATE, 0.06),
            ],
        },
        {
            "name": "video-loss-sweep",
            "duration_s": 360.0,
            "link": {"latency_ms": 20.0, "loss_rate": 0.0, "capacity_kbps": 2000.0},
            "queue": {"capacity_pkts": 100},
            "calls": [{"call_id": "call-1", "flow": {"rate_kbps": 512.0}}],
            "timeline": [
                _change(60.0, netsim.SET_LOSS_RATE, 0.01),
                _change(120.0, netsim.SET_LOSS_RATE, 0.03),
                _change(180.0, netsim.SET_LOSS_RATE, 0.06),
            ],
        },
    )
}


# ---------------- world construction ----------------

def build_world(scenario: Scenario, seed: int, trace: bool = False) -> SimWorld:
    """The scenario's world; only a traced world keeps the packet log that
    trace.csv is written from."""
    world = SimWorld(
        scenario.link, scenario.queue, seed=seed, timeline=scenario.timeline, trace=trace
    )
    for call in scenario.calls:
        world.add_flow(call.flow)
    if scenario.background is not None:
        world.add_flow(scenario.background)
    return world


# ---------------- calibration (analysis phase) ----------------

def _calibration(name: str, latency_ms: float, loss: float, capacity_kbps: float,
                 buffer_pkts: int, burst_pkts: int = 1) -> dict:
    return {
        "name": name,
        "duration_s": 40.0,
        "link": {"latency_ms": latency_ms, "loss_rate": loss, "capacity_kbps": capacity_kbps},
        "queue": {"capacity_pkts": buffer_pkts},
        "calls": [{"call_id": "cal", "flow": {"burst_pkts": burst_pkts}}],
    }


# The analysis-phase world of each case, as a scenario object.
_CALIBRATION = {
    ScenarioCase.CASE1: _calibration("calib-case1", 30.0, 0.0, 1000.0, 100),
    # Loss from the call's own bursts overflowing a small buffer.
    ScenarioCase.CASE2: _calibration("calib-case2", 20.0, 0.0, 500.0, 25, burst_pkts=30),
    # Delay from a standing queue under slight oversubscription.
    ScenarioCase.CASE3: {
        **_calibration("calib-case3", 100.0, 0.0, 400.0, 200),
        "background": {"rate_kbps": 380.0, "packet_bytes": 100, "burst_pkts": 1},
    },
    ScenarioCase.CASE4: _calibration("calib-case4", 190.0, 0.08, 500.0, 25, burst_pkts=30),
}


def calibrate(seed: int = 0) -> KnowledgeBase:
    """Analysis phase: measure each catalog action once per case."""
    kb = KnowledgeBase()
    for case_name, action_list in actions_mod.CASE_ORDER.items():
        case = ScenarioCase(case_name)
        scenario = scenario_from_json(_CALIBRATION[case])
        flow_id = scenario.calls[0].flow.flow_id
        for action in action_list:
            world = build_world(scenario, seed)
            world.advance(10_000.0)
            world.measure(flow_id)  # discard warmup window
            try:
                actions_mod.apply_action(world, flow_id, action)
            except netsim.AdmissionRefusedError:
                h = HeuristicSample.from_measurement(scenario.link.latency_ms, 1.0)
            else:
                world.advance(15_000.0)
                world.measure(flow_id)  # discard settling window
                world.advance(35_000.0)
                h = world.measure(flow_id)
                if h is None:
                    h = HeuristicSample.from_measurement(scenario.link.latency_ms, 0.0)
            kb.add_entry(case, action, h)
    return kb


def default_kb() -> KnowledgeBase:
    """A fresh knowledge base holding the shipped calibration seed, which
    is read once per process; each call returns an independent copy."""
    return _seed_kb().copy()


@functools.cache
def _seed_kb() -> KnowledgeBase:
    """The shipped calibration seed, found relative to this package, so
    that a copy imported under another name reads its own."""
    seed = resources.files(f"{__package__}.data").joinpath("default_kb.json")
    return KnowledgeBase.from_json(json.loads(seed.read_text()))


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
    out_dir: Optional[str] = None,
) -> RunArtifacts:
    if mode not in ("calibrate", "baseline", "control"):
        raise ValueError(f"unknown mode: {mode}")
    # Made before any work, so that an unusable out_dir fails at once.
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    if mode == "calibrate":
        kb = calibrate(seed)
        artifacts = RunArtifacts(scenario, {"revision": kb.revision}, [], kb=kb)
        if out_dir is not None:
            _write_json(os.path.join(out_dir, "kb.json"), kb.to_json())
        return artifacts
    if out_dir is None:
        return _run_windows(scenario, seed, mode, None)
    # Only the artifacts in out_dir include trace.csv, the packet log.
    with open(os.path.join(out_dir, "trace.csv"), "w", newline="") as trace:
        artifacts = _run_windows(scenario, seed, mode, trace)
    write_outputs(artifacts, out_dir)
    return artifacts


def _run_windows(scenario: Scenario, seed: int, mode: str,
                 trace: Optional[TextIO]) -> RunArtifacts:
    """The 5 s window loop; baseline mode runs it without a controller."""
    world = build_world(scenario, seed, trace=trace is not None)
    if trace is not None:
        world.log = log = _PacketLog(trace, world.flows)
    controller = kb = None
    if mode == "control":
        kb = default_kb()
        controller = Controller(world, kb, scenario.constraints, learning=scenario.learning)
    timeseries = []
    windows_of: Dict[str, List[HeuristicSample]] = {c.call_id: [] for c in scenario.calls}
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
                if t_prev <= call.flow.start_ms < t:
                    controller.add_call(call.call_id, call.flow.flow_id, call.weight)
        world.advance(t)
        for call in scenario.calls:
            # A call without end_s runs to the scenario's end.
            call_end_ms = end_ms if call.flow.end_ms is None else call.flow.end_ms
            if t_prev < call_end_ms <= t:
                if controller is not None:
                    controller.close_call(call.call_id)
                else:
                    world.end_flow(call.flow.flow_id)
        if controller is None:
            flows = [(c.call_id, world.measure(c.flow.flow_id)) for c in scenario.calls]
            means = None
        else:
            flows, means = controller.on_window()
        for call_id, sample in flows:
            if sample is not None:
                timeseries.append((t / 1000.0, call_id, sample.delay_ms, sample.loss, sample.mos))
                windows_of[call_id].append(sample)
        if means is not None:
            timeseries.append((t / 1000.0, GLOBAL_ROW_ID, means.delay_ms, means.loss, means.mos))
        if trace is not None:
            # Last in the window: close_call and on_window log rows too.
            log.flush()
    # Validation keeps end_s <= duration_s, so every call has ended here.
    episodes = [] if controller is None else controller.episodes
    summary = _summary(scenario, world, windows_of, episodes)
    if controller is not None:
        summary["trace_errors"] = validate_trace(controller)
    return RunArtifacts(
        scenario, summary, timeseries, world=world, controller=controller, kb=kb
    )


def _summary(
    scenario: Scenario,
    world: SimWorld,
    windows_of: Dict[str, List[HeuristicSample]],
    episodes: List[Episode],
) -> dict:
    constraints = scenario.constraints
    per_call = {}
    all_ok = bool(scenario.calls)
    for call in scenario.calls:
        totals = world.totals(call.flow.flow_id)
        resolved = totals.delivered + totals.dropped
        avg_loss = (totals.dropped - totals.recovered) / resolved if resolved else 0.0
        avg_delay = totals.delay_sum_ms / totals.delay_n if totals.delay_n else 0.0
        windows = windows_of[call.call_id]
        ok_windows = sum(1 for s in windows if satisfies(s, constraints))
        avg_mos = left_sum(s.mos for s in windows) / len(windows) if windows else estimate_mos(
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

# trace.csv's rows per `%` call: a chunk's template, arguments and text peak
# near 130 KB, whatever the size of a window.
_CHUNK_ROWS = 1024
# A row with a delay, and one without: `%.0s` prints the missing delay, None,
# as nothing.
_ROW_DELAY = "%.6f,%s,%s,%.6f\r\n"
_ROW_NO_DELAY = "%.6f,%s,%s,%.0s\r\n"


class _PacketLog(list):
    """A traced run's packet log, streamed to trace.csv: the rows logged since
    the last `flush`. A list, so that the world's append stays a list append;
    len() counts every row of the run. `flush` formats the rows a chunk at a
    time, one `%` call per chunk, so that the text of a whole window is never
    held at once and a traced run stays well under 3 MB."""

    def __init__(self, fh: TextIO, flow_ids: Iterable[str]) -> None:
        fh.write("time_ms,flow_id,event,delay_ms\r\n")
        self.fh, self.flushed = fh, 0
        self.ids = {fid: _csv_field(fid) for fid in flow_ids}

    def __len__(self) -> int:
        return self.flushed + super().__len__()

    def flush(self) -> None:
        """Write the rows, formatted as csv.writer would, and drop them. Each
        chunk of rows is one `%` over its rows' templates and one write. The
        quoted ids are arguments, never template text, so a `%` in an id is
        only text."""
        ids, write, pending = self.ids, self.fh.write, super().__len__()
        for start in range(0, pending, _CHUNK_ROWS):
            templates, args = [], []
            for at, fid, event, delay in self[start:start + _CHUNK_ROWS]:
                templates.append(_ROW_NO_DELAY if delay is None else _ROW_DELAY)
                args += (at, ids[fid], event, delay)
            write("".join(templates) % tuple(args))
        self.flushed += pending
        self.clear()


def write_outputs(artifacts: RunArtifacts, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "states.csv"), "w", newline="") as fh:
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
                            f"{s.avg_delay_ms:.3f}",
                            f"{s.avg_loss:.6f}",
                            "" if s.sample is None else f"{s.sample.mos:.3f}",
                            "" if s.category is None else s.category.name,
                        ]
                    )
    with open(os.path.join(out_dir, "transitions.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["at_ms", "call_id", "kind", "cause"])
        if artifacts.controller is not None:
            for tr in artifacts.controller.transitions:
                writer.writerow([f"{tr.at_ms:.3f}", tr.call_id, tr.kind, tr.cause])
    with open(os.path.join(out_dir, "timeseries.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "call_id", "delay_ms", "loss", "mos"])
        for row in artifacts.timeseries:
            writer.writerow(
                [f"{row[0]:.3f}", row[1], f"{row[2]:.6f}", f"{row[3]:.8f}", f"{row[4]:.6f}"]
            )
    if artifacts.kb is not None:
        _write_json(os.path.join(out_dir, "kb.json"), artifacts.kb.to_json())
    _write_json(os.path.join(out_dir, "summary.json"), artifacts.summary)


def _write_json(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)


def _csv_field(value: str) -> str:
    """The value as csv.writer writes it inside a row, quoted if need be."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[:-len(",\r\n")]
