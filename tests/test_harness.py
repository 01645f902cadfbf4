"""Harness tests: scenario serialization, runs, artifact files, CLI."""
import copy
import csv
import dataclasses
import gc
import io
import json
import os
import re
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from voipqos import cli, harness, netsim
from voipqos.harness import (
    PRESETS,
    ScenarioError,
    load_scenario,
    scenario_from_json,
)
from voipqos.knowledge import ScenarioCase, penalty
from voipqos.metrics import HeuristicSample, satisfies


def _edited(preset: str, edit):
    """Maker of the preset's scenario JSON after `edit` changes it in place."""

    def make() -> dict:
        data = copy.deepcopy(PRESETS[preset])
        edit(data)
        return data

    return make


# Inputs that used to pass validation, then failed mid-run with a
# traceback or ran silently.
BAD_SCENARIOS = {
    "wred-discipline": _edited("table4-red-1k", lambda d: d["queue"].update(discipline="wred")),
    "unknown-timeline-kind": _edited(
        "table7-singlecall", lambda d: d["timeline"][0].update(kind="set_jitter")
    ),
    "duplicate-call-id": _edited(
        "fig7-multicall", lambda d: d["calls"][1].update(call_id=d["calls"][0]["call_id"])
    ),
    "red-without-params": _edited("table1-s1", lambda d: d["queue"].update(discipline="red")),
    "red-max-th-above-capacity": _edited(
        "table4-red-1k", lambda d: d["queue"].update(capacity_pkts=80)
    ),
    "negative-latency": _edited("table1-s1", lambda d: d["link"].update(latency_ms=-1.0)),
    "zero-rate": _edited("table1-s1", lambda d: d["calls"][0]["flow"].update(rate_kbps=0)),
    "zero-weight": _edited("fig7-multicall", lambda d: d["calls"][0].update(weight=0)),
    "nan-capacity": _edited(
        "table1-s1", lambda d: d["link"].update(capacity_kbps=float("nan"))
    ),
    "unknown-service": _edited(
        "table1-s1", lambda d: d["calls"][0]["flow"].update(service="gold")
    ),
    "version-2": _edited("table1-s1", lambda d: d.update(version=2)),
    "zero-loss-max": _edited("table1-s1", lambda d: d.update(constraints={"loss_max": 0.0})),
    "unknown-top-level-key": _edited("table1-s1", lambda d: d.update(priority=1)),
    "negative-latency-step": _edited(
        "table7-singlecall", lambda d: d["timeline"][0].update(value=-1.0)
    ),
    "nan-latency-step": _edited(
        "table7-singlecall", lambda d: d["timeline"][0].update(value=float("nan"))
    ),
    "loss-step-above-one": _edited(
        "table7-singlecall", lambda d: d["timeline"][5].update(value=1.5)
    ),
    "negative-loss-step": _edited(
        "table7-singlecall", lambda d: d["timeline"][5].update(value=-0.1)
    ),
    "zero-buffer-step": _edited(
        "table7-singlecall",
        lambda d: d["timeline"][0].update(kind=netsim.SET_BUFFER_SIZE, value=0),
    ),
    "negative-background-step": _edited(
        "table7-singlecall", lambda d: d["timeline"][3].update(value=-5.0)
    ),
    # Timeline changes run inside the scenario's duration, bounds included.
    "timeline-before-start": _edited(
        "table7-singlecall", lambda d: d["timeline"][0].update(at_s=-1.0)
    ),
    "timeline-after-end": _edited(
        "table7-singlecall", lambda d: d["timeline"][5].update(at_s=601.0)
    ),
    "non-number-step": _edited(
        "table7-singlecall", lambda d: d["timeline"][0].update(value="fast")
    ),
    "invalid-json": lambda: '{"name": "x", "duration_s": 10,',
    "top-level-list": lambda: [1, 2],
    "string-duration": _edited("table1-s1", lambda d: d.update(duration_s="10")),
    "null-call-start": _edited("table1-s1", lambda d: d["calls"][0].update(start_s=None)),
    "negative-background-rate": _edited(
        "table4-red-1k", lambda d: d["background"].update(rate_kbps=-50)
    ),
    "zero-background-packet-bytes": _edited(
        "table4-red-1k", lambda d: d["background"].update(packet_bytes=0)
    ),
    "background-not-object": _edited("table4-red-1k", lambda d: d.update(background=5)),
    "link-not-object": _edited("table1-s1", lambda d: d.update(link="fast")),
    "zero-background-burst": _edited(
        "table4-red-1k", lambda d: d["background"].update(burst_pkts=0)
    ),
    # The call id of the timeseries' global rows.
    "reserved-call-id": _edited(
        "table1-s1", lambda d: d["calls"][0].update(call_id="__global__")
    ),
    # Packet counts are integers: no silent truncation, no mid-run TypeError.
    "float-burst": _edited("table1-s1", lambda d: d["calls"][0]["flow"].update(burst_pkts=1.5)),
    "float-queue-capacity": _edited(
        "table4-red-1k", lambda d: d["queue"].update(capacity_pkts=150.9)
    ),
    "float-fec-block": _edited(
        "table1-s1", lambda d: d["calls"][0]["flow"].update(fec_block_k=2.5)
    ),
    "negative-fec-block": _edited(
        "table1-s1", lambda d: d["calls"][0]["flow"].update(fec_block_k=-1)
    ),
    # 1.25 x the rate overflows to an infinite default reservation.
    "overflowing-default-reservation": _edited(
        "fig5-s3-guaranteed",
        lambda d: d["calls"][0]["flow"].update(rate_kbps=1.5e308, reserved_kbps=0.0),
    ),
    "float-background-packet-bytes": _edited(
        "table4-red-1k", lambda d: d["background"].update(packet_bytes=100.5)
    ),
    "unknown-queue-key": _edited("table1-s1", lambda d: d["queue"].update(capacity=20)),
    "unknown-background-key": _edited("table1-s1", lambda d: d.update(background={"rate": 900})),
    "red-params-with-tail-drop": _edited(
        "table4-red-1k", lambda d: d["queue"].update(discipline="tail_drop")
    ),
    "float-timeline-buffer": _edited(
        "table7-singlecall",
        lambda d: d["timeline"][0].update(kind=netsim.SET_BUFFER_SIZE, value=150.9),
    ),
    # A misspelled "end_s": the call would silently run to the scenario's end.
    "unknown-call-key": _edited("fig10-learning", lambda d: d["calls"][0].update(end=10.0)),
    # Two 32.5 kbps guaranteed reservations on a 50 kbps link.
    "over-reserved-link": _edited(
        "fig7-multicall",
        lambda d: [
            d["link"].update(capacity_kbps=50.0),
            *(c.setdefault("flow", {}).update(service="guaranteed") for c in d["calls"]),
        ],
    ),
    # JSON's NaN and Infinity: each hung the run or reported a false result.
    "infinite-duration": _edited("table1-s1", lambda d: d.update(duration_s=float("inf"))),
    "infinite-background-rate": _edited(
        "table4-red-1k", lambda d: d["background"].update(rate_kbps=float("inf"))
    ),
    "nan-call-rate": _edited(
        "table1-s1", lambda d: d["calls"][0]["flow"].update(rate_kbps=float("nan"))
    ),
    "nan-packet-interval": _edited(
        "table1-s1", lambda d: d["calls"][0]["flow"].update(packet_interval_ms=float("nan"))
    ),
    "infinite-latency": _edited(
        "table1-s1", lambda d: d["link"].update(latency_ms=float("inf"))
    ),
    "nan-reserved": _edited(
        "fig5-s3-guaranteed",
        lambda d: d["calls"][0]["flow"].update(reserved_kbps=float("nan")),
    ),
    "nan-delay-max": _edited(
        "table1-s1", lambda d: d.update(constraints={"delay_max_ms": float("nan")})
    ),
    "infinite-weight": _edited(
        "fig7-multicall", lambda d: d["calls"][0].update(weight=float("inf"))
    ),
    # Finite gaps between emissions too small to move the clock: the event
    # loop ran forever at one clock value.
    "tiny-packet-interval": _edited(
        "table1-s1", lambda d: d["calls"][0]["flow"].update(packet_interval_ms=1e-300)
    ),
    "huge-background-rate": _edited(
        "table4-red-1k", lambda d: d["background"].update(rate_kbps=1e300)
    ),
    "huge-timeline-background-rate": _edited(
        "table7-singlecall",
        lambda d: d["timeline"][3].update(kind=netsim.SET_BACKGROUND_RATE, value=1e300),
    ),
    # A string is truthy: "off" ran with learning on.
    "string-learning": _edited("table1-s1", lambda d: d.update(learning="off")),
    # A guaranteed call silently got the default reservation instead.
    "negative-reserved": _edited(
        "fig5-s3-guaranteed", lambda d: d["calls"][0]["flow"].update(reserved_kbps=-5)
    ),
    # A timeline entry has exactly at_s, kind and value.
    "unknown-timeline-key": _edited(
        "table7-singlecall", lambda d: d["timeline"][0].update(at=30.0)
    ),
    # 0.1 + 0.2 + 0.3 > 0.6 when added left to right, as the world admits
    # them; a compensated sum let the scenario load, then crash in build_world.
    "reservation-sum-rounding": _edited(
        "fig7-multicall",
        lambda d: d.update(
            link={**d["link"], "capacity_kbps": 0.6},
            calls=[
                {"call_id": f"call-{i}", "flow": {"service": "guaranteed", "reserved_kbps": r}}
                for i, r in enumerate((0.1, 0.2, 0.3), start=1)
            ],
        ),
    ),
    # Flow ids flow-1 and flow-1: the run died with a duplicate flow id.
    "numeric-call-id": _edited(
        "fig7-multicall",
        lambda d: [d["calls"][0].update(call_id=1), d["calls"][1].update(call_id="1")],
    ),
    # Ran, and the summary reported the list as the scenario.
    "list-name": _edited("table1-s1", lambda d: d.update(name=["x"])),
    # JSON's true and false passed as 1 and 0: a 1-packet buffer, a 1 s run.
    "boolean-queue-capacity": _edited(
        "table1-s1", lambda d: d["queue"].update(capacity_pkts=True)
    ),
    "boolean-duration": _edited("table1-s1", lambda d: d.update(duration_s=True)),
    "boolean-burst": _edited(
        "table1-s1", lambda d: d["calls"][0]["flow"].update(burst_pkts=True)
    ),
    "boolean-weight": _edited("table1-s1", lambda d: d["calls"][0].update(weight=True)),
    "boolean-latency": _edited("table1-s1", lambda d: d["link"].update(latency_ms=True)),
    "boolean-call-start": _edited("table1-s1", lambda d: d["calls"][0].update(start_s=False)),
    "boolean-version": _edited("table1-s1", lambda d: d.update(version=True)),
    "boolean-timeline-value": _edited(
        "table7-singlecall", lambda d: d["timeline"][0].update(value=True)
    ),
    "boolean-timeline-at": _edited(
        "table7-singlecall", lambda d: d["timeline"][0].update(at_s=True)
    ),
    # json.load raised RecursionError, and the CLI printed its traceback.
    "deeply-nested-json": lambda: "[" * 5000 + "]" * 5000,
}


def _write_bad(case: str, tmp_path) -> str:
    """Path of a file holding the case's scenario (raw text or JSON)."""
    data = BAD_SCENARIOS[case]()
    path = tmp_path / "bad.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


class TestScenarioSerialization:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_round_trip(self, name, tmp_path):
        # A preset's object, dumped to a file, loads as the preset.
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(PRESETS[name]))
        assert load_scenario(str(path)) == load_scenario(name)

    def test_unknown_source_rejected(self):
        with pytest.raises(ScenarioError):
            load_scenario("no-such-preset-or-file")

    def test_unsorted_timeline_rejected(self):
        data = copy.deepcopy(PRESETS["table7-singlecall"])
        data["timeline"][0], data["timeline"][1] = data["timeline"][1], data["timeline"][0]
        with pytest.raises(ScenarioError):
            scenario_from_json(data)

    def test_call_outside_duration_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_from_json({
                "name": "bad",
                "duration_s": 10.0,
                "calls": [{"call_id": "c", "start_s": 5.0, "end_s": 20.0}],
            })

    def test_bad_field_reported_as_scenario_error(self):
        with pytest.raises(ScenarioError):
            scenario_from_json({"name": "x"})  # missing duration_s

    @pytest.mark.parametrize("case", sorted(BAD_SCENARIOS))
    def test_unrunnable_input_rejected_at_load(self, case, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(_write_bad(case, tmp_path))

    @pytest.mark.parametrize("key", ["name", "link", "learning", "constraints"])
    def test_deeply_nested_object_rejected(self, key):
        # Too deep for a recursive walk: it raised RecursionError.
        deep = {}
        for _ in range(5000):
            deep = {"x": deep}
        data = {**PRESETS["table7-singlecall"], key: deep}
        with pytest.raises(ScenarioError):
            scenario_from_json(data)

    def test_reservation_overflow_names_two_different_numbers(self):
        with pytest.raises(ScenarioError) as exc:
            scenario_from_json(BAD_SCENARIOS["reservation-sum-rounding"]())
        reserved, capacity = re.search(
            r"reserve (\S+) kbps, more than the link's (\S+) kbps", str(exc.value)
        ).groups()
        assert float(reserved) > float(capacity)

    def test_parsed_flows_are_frozen(self):
        scenario = load_scenario("table7-singlecall")
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.calls[0].flow.rate_kbps = 64.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.background.rate_kbps = 64.0

    def test_readme_flow_rows_are_the_configs_fields(self):
        # A scenario's flow objects are the configs' keyword arguments, so
        # README's table documents exactly their fields, less the ones the
        # call or the harness sets.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        names = set()
        for line in readme.read_text().splitlines():
            if line.startswith("| `"):
                # A row's first cell: `a.b.c`, then `.d` for a.b.d.
                first, *more = re.findall(r"`([^`]+)`", line.split("|")[1])
                prefix = first[: first.rfind(".")]
                names |= {first, *(prefix + name for name in more if name.startswith("."))}

        def rows(obj):
            return {name[len(obj):] for name in names if name.startswith(obj)}

        def config_fields(cls, *set_elsewhere):
            return {f.name for f in dataclasses.fields(cls)} - {"flow_id", *set_elsewhere}

        assert rows("calls[].flow.") == config_fields(netsim.MediaFlow, "start_ms", "end_ms")
        assert rows("background.") == config_fields(netsim.BackgroundFlow)


class TestRuns:
    def test_baseline_summary_consistent_with_world_totals(self):
        scenario = load_scenario("table1-s2")
        art = harness.run(scenario, seed=0, mode="baseline")
        t = art.world.totals("flow-call-1")
        resolved = t.delivered + t.dropped
        expected_loss = (t.dropped - t.recovered) / resolved
        got = art.summary["calls"]["call-1"]
        assert got["avg_loss"] == pytest.approx(expected_loss)
        assert got["avg_delay_ms"] == pytest.approx(t.delay_sum_ms / t.delay_n)
        art.world.check_conservation()

    def test_control_summary_includes_trace_check(self):
        scenario = load_scenario("table1-s1")
        art = harness.run(scenario, seed=0, mode="control")
        assert art.summary["trace_errors"] == []
        assert "episodes" in art.summary

    def test_calibrate_mode_returns_kb(self):
        art = harness.run(load_scenario("table1-s1"), mode="calibrate")
        assert art.kb is not None
        assert art.kb.entries(harness.ScenarioCase.CASE2)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            harness.run(load_scenario("table1-s1"), mode="replay")

    @pytest.mark.parametrize("preset", ["fig5-s3-guaranteed", "fig5-s4-guaranteed"])
    def test_ended_call_holds_no_reservation(self, preset):
        # The call ends with controlled_load active over a guaranteed
        # start; stopping it must not re-admit a reservation that outlives
        # the flow.
        art = harness.run(load_scenario(preset), seed=0, mode="control")
        assert not art.world.flows["flow-call-1"].active
        assert art.world.reserved_kbps == 0.0

    def test_multicall_ends_with_configured_queue(self):
        # Every call has stopped its mechanisms, so the queue is the
        # scenario's 40-packet tail-drop queue again.
        art = harness.run(load_scenario("fig7-multicall"), seed=0, mode="control")
        assert art.world.mechanisms == {}
        assert art.world.queue == netsim.QueueConfig(40)

    def test_counter_drift_breaks_conservation(self):
        art = harness.run(load_scenario("table4-red-10k"), seed=0, mode="baseline")
        art.world.check_conservation()
        art.world.flows["bg"].totals.sent += 1
        with pytest.raises(AssertionError, match="flow bg"):
            art.world.check_conservation()

    def test_last_window_ends_at_duration(self):
        # 32 s is not a multiple of the 5 s window: the last window ends at
        # 32 s, not 35 s, in both modes.
        scenario = scenario_from_json(
            {"name": "short", "duration_s": 32.0, "calls": [{"call_id": "c"}]}
        )
        art = harness.run(scenario, seed=0, mode="baseline")
        assert [row[0] for row in art.timeseries] == [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 32.0]
        art = harness.run(scenario, seed=0, mode="control")
        assert max(row[0] for row in art.timeseries) <= 32.0

    def test_call_starting_inside_the_last_window_runs(self):
        # Call b starts at 7 s, inside the last 5 s window of a 10 s run.
        scenario = scenario_from_json({
            "name": "late",
            "duration_s": 10.0,
            "calls": [{"call_id": "a"}, {"call_id": "b", "start_s": 7.0}],
        })
        art = harness.run(scenario, seed=0, mode="control")
        assert sorted(art.controller.calls) == ["a", "b"]
        assert all(call.closed for call in art.controller.calls.values())
        assert not art.world.flows["flow-b"].active
        assert art.summary["calls"]["b"]["packets_sent"] > 0

    def test_call_ends_when_duration_is_a_hair_past_a_window(self):
        # 10.000000000000002 s leaves a last window shorter than the loop's
        # tolerance; the run still ends every call at the scenario's end.
        scenario = scenario_from_json(
            {"name": "hair", "duration_s": 10.000000000000002, "calls": [{"call_id": "a"}]}
        )
        art = harness.run(scenario, seed=0, mode="baseline")
        assert not art.world.flows["flow-a"].active
        assert art.timeseries[-1][0] == scenario.duration_s

    def test_timeseries_covers_run(self):
        scenario = load_scenario("table4-red-1k")
        art = harness.run(scenario, seed=0, mode="baseline")
        times = [row[0] for row in art.timeseries]
        assert times == sorted(times)
        assert times[-1] == pytest.approx(scenario.duration_s)

    @pytest.mark.parametrize("mode", ["baseline", "control"])
    def test_summary_windows_are_the_timeseries_rows(self, mode):
        # A call's window counts and mean MOS are its timeseries rows, the
        # MOS added in row order.
        scenario = load_scenario("fig10-learning")
        art = harness.run(scenario, seed=0, mode=mode)
        for call_id, got in art.summary["calls"].items():
            rows = [row for row in art.timeseries if row[1] == call_id]
            assert rows
            mos_sum = 0.0
            for row in rows:
                mos_sum += row[4]
            assert got["windows"] == len(rows)
            assert got["satisfied_windows"] == sum(
                satisfies(HeuristicSample(*row[2:]), scenario.constraints) for row in rows
            )
            assert got["avg_mos"] == mos_sum / len(rows)


def _num(low, high):
    return st.floats(low, high, allow_nan=False)


# Scenario JSON within the documented ranges, plus at most one edit that
# a scenario must not survive.
_FLOW = st.fixed_dictionaries({}, optional={
    "rate_kbps": _num(1.0, 300.0),
    "packet_interval_ms": _num(10.0, 60.0),
    "burst_pkts": st.integers(1, 4),
    "service": st.sampled_from(netsim.SERVICES),
    "fec_block_k": st.integers(0, 6),
})
_CALL = st.fixed_dictionaries({"call_id": st.sampled_from("abc")}, optional={
    "flow": _FLOW,
    "weight": _num(0.1, 3.0),
    "start_s": _num(0.0, 10.0),
})
_CHANGE = st.one_of(
    st.fixed_dictionaries({"kind": st.just(netsim.SET_LATENCY), "value": _num(0.0, 200.0)}),
    st.fixed_dictionaries({"kind": st.just(netsim.SET_LOSS_RATE), "value": _num(0.0, 0.3)}),
    st.fixed_dictionaries({"kind": st.just(netsim.SET_BUFFER_SIZE), "value": st.integers(1, 250)}),
    st.fixed_dictionaries(
        {"kind": st.just(netsim.SET_BACKGROUND_RATE), "value": _num(0.0, 600.0)}
    ),
)
_SCENARIO = st.fixed_dictionaries({
    "name": st.just("generated"),
    "duration_s": _num(10.0, 30.0),
    "link": st.fixed_dictionaries({
        "latency_ms": _num(0.0, 200.0),
        "loss_rate": _num(0.0, 0.3),
        "capacity_kbps": _num(20.0, 2000.0),
    }),
    "queue": st.one_of(
        st.fixed_dictionaries({"capacity_pkts": st.integers(1, 250)}),
        st.fixed_dictionaries({
            "capacity_pkts": st.integers(60, 250),
            "discipline": st.just("red"),
            "red": st.fixed_dictionaries(
                {"min_th": _num(1.0, 40.0), "max_th": _num(41.0, 60.0), "max_p": _num(0.01, 1.0)}
            ),
        }),
    ),
    "calls": st.lists(_CALL, max_size=3, unique_by=lambda c: c["call_id"]),
    "timeline": st.lists(
        st.tuples(_num(0.0, 30.0), _CHANGE).map(lambda t: {"at_s": t[0], **t[1]}), max_size=4
    ).map(lambda entries: sorted(entries, key=lambda e: e["at_s"])),
}, optional={
    "background": st.fixed_dictionaries({
        "rate_kbps": _num(0.0, 600.0),
        "packet_bytes": st.sampled_from([40, 100, 1000]),
        "burst_pkts": st.integers(1, 3),
    }),
})


def _latency_step(at_s):
    return {"at_s": at_s, "kind": netsim.SET_LATENCY, "value": 10.0}


_BREAKS = {
    "zero-duration": lambda d: d.update(duration_s=0),
    "loss-above-one": lambda d: d["link"].update(loss_rate=1.5),
    "empty-buffer": lambda d: d["queue"].update(capacity_pkts=0),
    "unsorted-timeline": lambda d: d["timeline"].extend([_latency_step(20.0), _latency_step(10.0)]),
    "call-after-end": lambda d: d["calls"].append({"call_id": "x", "start_s": 40.0}),
    "misspelled-call-key": lambda d: d["calls"].append({"call_id": "x", "end": 5.0}),
    "unknown-service": lambda d: d["calls"].append({"call_id": "x", "flow": {"service": "gold"}}),
}


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_SCENARIO, st.one_of(st.none(), st.sampled_from(sorted(_BREAKS))))
def test_generated_scenario_loads_valid_or_fails_early(data, edit):
    """Generated scenario JSON either raises ScenarioError at load or runs
    a baseline to the end with every packet accounted for; a scenario of at
    most one call also runs in control mode with a sound trace, every packet
    accounted for and contiguous knowledge-base ranks.

    Two-call control runs stay covered by the golden pool in
    bench/golden.json: they can still raise the known KnowledgeError of
    multi-call coordination, which is not a scenario fault.
    """
    if edit is not None:
        _BREAKS[edit](data)
    try:
        scenario = scenario_from_json(data)
    except ScenarioError:
        return
    art = harness.run(scenario, seed=0, mode="baseline")
    art.world.check_conservation()
    assert art.world.reserved_kbps <= art.world.link.capacity_kbps
    assert not any(
        flow.active for flow in art.world.flows.values()
        if isinstance(flow.cfg, netsim.MediaFlow)
    )
    if len(scenario.calls) <= 1:
        art = harness.run(scenario, seed=0, mode="control")
        assert art.summary["trace_errors"] == []
        art.world.check_conservation()
        for case in ScenarioCase:
            ranks = [e.rank for e in art.kb.entries(case)]
            assert ranks == list(range(1, len(ranks) + 1))


class TestWorldRelease:
    """A world is freed by reference counting alone, without the cycle collector."""

    @pytest.fixture(autouse=True)
    def _collector_off(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_half_advanced_world(self):
        world = harness.build_world(load_scenario("fig7-multicall"), seed=0)
        world.advance(70_000.0)
        ref = weakref.ref(world)
        del world
        assert ref() is None

    def test_run_result(self):
        art = harness.run(load_scenario("fig5-s3-controlled"), seed=0)
        assert art.controller.transitions
        ref = weakref.ref(art.world)
        del art
        assert ref() is None

    def test_fec_blocks_of_pending_packets(self):
        # A block that held its lost packets would form a cycle with them.
        world = netsim.SimWorld(netsim.LinkConfig(20.0, 0.2, 1000.0), netsim.QueueConfig())
        world.add_flow(netsim.MediaFlow("m", packet_interval_ms=1.0, fec_block_k=4))
        world.advance(1_000.5)
        # The packet on the link and those waiting to be delivered.
        pending = [world._tx] + [pkt for _, _, pkt in world._fifo]
        blocks = {id(p.block): p.block for p in pending if p is not None and p.block is not None}
        assert any(block.lost for block in blocks.values())
        refs = [weakref.ref(block) for block in blocks.values()]
        del world, pending, blocks
        assert all(ref() is None for ref in refs)


class TestPacketLog:
    """Only a run that writes trace.csv logs packets, it writes them as it
    goes, and no other output depends on them."""

    @pytest.mark.parametrize(
        "preset, mode", [("table4-red-10k", "control"), ("fig5-s4-guaranteed", "baseline")]
    )
    def test_outputs_equal_with_and_without_log(self, preset, mode, tmp_path):
        untraced = harness.run(load_scenario(preset), seed=0, mode=mode)
        traced = harness.run(load_scenario(preset), seed=0, mode=mode, out_dir=str(tmp_path))
        assert untraced.world.log == [] and traced.world.log
        assert untraced.summary == traced.summary
        assert untraced.timeseries == traced.timeseries
        kb_json = [None if art.kb is None else art.kb.to_json() for art in (untraced, traced)]
        assert kb_json[0] == kb_json[1]
        assert (kb_json[0] is None) == (mode == "baseline")

    def test_untraced_run_memory(self):
        scenario = load_scenario("table4-red-10k")
        tracemalloc.start()
        try:
            harness.run(scenario, seed=0, mode="control")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The packet log alone peaked near 9.5 MB here.
        assert peak < 1_000_000

    def test_traced_run_memory(self, tmp_path):
        # trace.csv is written after every window, so the log never holds
        # the run's rows; kept until the end, they peaked near 9.8 MB here.
        scenario = load_scenario("table4-red-10k")
        tracemalloc.start()
        try:
            harness.run(scenario, seed=0, mode="control", out_dir=str(tmp_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    def test_log_counts_every_row(self, tmp_path):
        scenario = load_scenario("table4-red-10k")
        traced = harness.run(scenario, seed=0, mode="control", out_dir=str(tmp_path))
        with open(tmp_path / "trace.csv", newline="") as fh:
            rows = sum(1 for _ in csv.reader(fh)) - 1
        assert len(traced.world.log) == rows == 83_898
        assert len(harness.run(scenario, seed=0, mode="control").world.log) == 0

    def test_chunked_rows_equal_csv_writer(self, tmp_path, monkeypatch):
        # One 5 s window that logs several chunks of rows and a part chunk,
        # with every packet outcome and call ids that csv.writer quotes or
        # that hold a `%`.
        scenario = scenario_from_json({
            "name": "trace-edges",
            "duration_s": 5.0,
            "link": {"loss_rate": 0.05, "capacity_kbps": 300.0},
            "queue": {"capacity_pkts": 20},
            "background": {"rate_kbps": 300.0},
            "calls": [
                {"call_id": "a,b", "flow": {"packet_interval_ms": 5.0, "fec_block_k": 4}},
                {"call_id": 'q"x', "flow": {
                    "packet_interval_ms": 5.0, "service": "guaranteed",
                    "reserved_kbps": 5.0, "burst_pkts": 4,
                }},
                {"call_id": "100%s", "flow": {"packet_interval_ms": 5.0}},
            ],
        })
        flushed = []
        flush = harness._PacketLog.flush

        def recording_flush(log):
            flushed.append(list(log))
            flush(log)

        monkeypatch.setattr(harness._PacketLog, "flush", recording_flush)
        art = harness.run(scenario, seed=0, mode="baseline", out_dir=str(tmp_path))
        [rows] = flushed
        assert len(rows) > 3 * harness._CHUNK_ROWS and len(rows) % harness._CHUNK_ROWS
        assert {event for _, _, event, _ in rows} == {
            "sent", "delivered", "dropped_link", "dropped_queue", "dropped_policer", "recovered",
        }
        assert {fid for _, fid, _, _ in rows} == {"bg", "flow-a,b", 'flow-q"x', "flow-100%s"}
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["time_ms", "flow_id", "event", "delay_ms"])
        writer.writerows(
            [f"{at:.6f}", fid, event, "" if delay is None else f"{delay:.6f}"]
            for at, fid, event, delay in rows
        )
        assert (tmp_path / "trace.csv").read_bytes().decode() == expected.getvalue()
        assert len(art.world.log) == len(rows)


class TestArtifacts:
    def test_output_files_written_and_parse(self, tmp_path):
        scenario = load_scenario("fig7-multicall")
        out = tmp_path / "run"
        harness.run(scenario, seed=0, mode="control", out_dir=str(out))
        names = sorted(os.listdir(out))
        assert names == [
            "kb.json",
            "states.csv",
            "summary.json",
            "timeseries.csv",
            "trace.csv",
            "transitions.csv",
        ]
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["scenario"] == "fig7-multicall"
        with open(out / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {"time_ms", "flow_id", "event", "delay_ms"}
        events = {r["event"] for r in rows}
        assert "sent" in events and "delivered" in events

    def test_trace_loss_recomputable(self, tmp_path):
        scenario = load_scenario("table1-s2")
        out = tmp_path / "run"
        art = harness.run(scenario, seed=0, mode="baseline", out_dir=str(out))
        with open(out / "trace.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r["flow_id"] == "flow-call-1"]
        dropped = sum(1 for r in rows if r["event"].startswith("dropped"))
        recovered = sum(1 for r in rows if r["event"] == "recovered")
        delivered = sum(1 for r in rows if r["event"] == "delivered")
        loss = (dropped - recovered) / (delivered + dropped)
        assert loss == pytest.approx(art.summary["calls"]["call-1"]["avg_loss"])


class TestCalibration:
    def test_entries_follow_case_order(self):
        from voipqos.actions import CASE_ORDER

        kb = harness.calibrate(seed=0)
        for case_name, order in CASE_ORDER.items():
            entries = kb.entries(harness.ScenarioCase(case_name))
            assert [e.action for e in entries] == order

    def test_case2_prefers_buffer_growth(self):
        # The analysis-phase world for loss-dominant congestion must rate
        # buffer enlargement best and single-parity FEC worst, or the
        # run-time learning walk cannot show improvement.
        kb = harness.calibrate(seed=0)
        entries = kb.entries(harness.ScenarioCase.CASE2)
        pens = {e.action.kind: penalty(e.h) for e in entries}
        assert pens["increase_buffer"] == min(pens.values())
        assert pens["enable_fec"] == max(pens.values())


class TestRunOutDir:
    @pytest.mark.parametrize("mode", ["control", "calibrate"])
    def test_out_dir_naming_a_file_fails_before_any_world(self, mode, tmp_path, monkeypatch):
        def no_world(*args, **kwargs):
            raise AssertionError("a world was built before out_dir was made")

        monkeypatch.setattr(harness, "build_world", no_world)
        afile = tmp_path / "afile"
        afile.write_text("kept")
        with pytest.raises(FileExistsError):
            harness.run(load_scenario("table1-s1"), seed=0, mode=mode, out_dir=str(afile))
        assert afile.read_text() == "kept"


class TestCli:
    def test_presets_listing(self, capsys):
        assert cli.main(["presets"]) == 0
        out = capsys.readouterr().out.split()
        assert "table7-singlecall" in out

    def test_run_baseline_prints_summary(self, capsys):
        assert cli.main(
            ["run", "--scenario", "table4-red-1k", "--mode", "baseline"]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["scenario"] == "table4-red-1k"

    def test_unknown_scenario_exit_code(self, capsys):
        assert cli.main(["run", "--scenario", "nope"]) == 1

    @pytest.mark.parametrize("case", sorted(BAD_SCENARIOS))
    def test_unrunnable_scenario_exit_code(self, case, tmp_path, capsys):
        assert cli.main(["run", "--scenario", _write_bad(case, tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_calibrate_needs_no_scenario(self, tmp_path, capsys):
        assert cli.main(["run", "--mode", "calibrate", "--out", str(tmp_path)]) == 0
        kb = json.loads((tmp_path / "kb.json").read_text())
        assert kb["cases"] == harness.default_kb().to_json()["cases"]

    @pytest.mark.parametrize("args", [["--scenario", "table1-s1"], ["--mode", "calibrate"]])
    def test_out_naming_a_file_exit_code(self, args, tmp_path, capsys):
        # Reported before the run, not as a traceback after it.
        afile = tmp_path / "afile"
        afile.write_text("kept")
        assert cli.main(["run", *args, "--out", str(afile)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert afile.read_text() == "kept"

    def test_calibrate_rejects_a_scenario(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--mode", "calibrate", "--scenario", "table1-s1"])
        assert exc.value.code == 2

    # Neither mode runs a controller, so the flag would be silently ignored.
    @pytest.mark.parametrize(
        "args",
        [["--mode", "calibrate"], ["--mode", "baseline", "--scenario", "table1-s1"]],
        ids=["calibrate", "baseline"],
    )
    def test_learning_outside_control_mode_rejected(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", *args, "--learning", "off"])
        assert exc.value.code == 2
        assert "--learning" in capsys.readouterr().err

    def test_run_needs_a_scenario(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, in_file", [("off", True), ("on", False)])
    def test_learning_flag_replaces_the_scenario_flag(self, flag, in_file, tmp_path, capsys):
        # The loss-step scenario of test_learning_off_keeps_ranking: its
        # episode ends with enable_fec, which learning moves to rank 1.
        path = tmp_path / "loss-step.json"
        path.write_text(json.dumps({
            "name": "loss-step",
            "duration_s": 200.0,
            "link": {"latency_ms": 20.0, "loss_rate": 0.0, "capacity_kbps": 1000.0},
            "queue": {"capacity_pkts": 100, "discipline": "tail_drop"},
            "calls": [{"call_id": "c"}],
            "timeline": [{"at_s": 20.0, "kind": netsim.SET_LOSS_RATE, "value": 0.07}],
            "learning": in_file,
        }))
        out = tmp_path / "out"
        cli.main(["run", "--scenario", str(path), "--learning", flag, "--out", str(out)])
        kb = json.loads((out / "kb.json").read_text())
        case2 = sorted(kb["cases"]["case2"], key=lambda e: e["rank"])
        shipped = harness.default_kb().to_json()["cases"]["case2"]
        if flag == "off":
            assert [e["action"] for e in case2] == [e["action"] for e in shipped]
            assert kb["revision"] == 4
        else:
            assert case2[0]["action"]["kind"] == "enable_fec"
            assert kb["revision"] == 5

    def test_control_failure_exit_code(self, capsys):
        # 30% link loss cannot be brought inside constraints; the control
        # run reports failure through the exit status.
        assert cli.main(["run", "--scenario", "table1-s3", "--seed", "0"]) == 2
