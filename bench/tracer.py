"""Layer spans for the traced benchmark run.

`Tracer.install()` replaces the public functions of each voipqos layer
with wrappers that record a span (operation id, name, start, end,
parent) and accumulate self time: a span's duration minus the time its
child spans cover. Each wrapper patches the attribute its caller looks
up: module globals for functions called through a module (`kb_mod.*`,
`actions_mod.*`, `harness.*`), class attributes for methods.
`uninstall()` restores the originals.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable, List, Optional, Tuple

from voipqos import actions, cli, controller, harness, knowledge, metrics, netsim

Span = Tuple[int, str, float, float, int]  # op id, name, start, end, parent index


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []  # None while a span is open
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id = 0
        self._stack: List[list] = []  # [span index, time covered by children]
        self._patched: List[tuple] = []

    def span(self, name: str, fn: Callable) -> Callable:
        spans, stack, self_s, calls = self.spans, self._stack, self.self_s, self.calls

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                spans[frame[0]] = (self.op_id, name, start, end, parent)

        return wrapper

    def count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        counts = self.counts
        span, count, patch = self.span, self.count, self._patch

        patch(netsim.SimWorld, "advance", span("netsim.advance", netsim.SimWorld.advance))
        patch(netsim.SimWorld, "measure", span("netsim.measure", netsim.SimWorld.measure))
        patch(
            controller.Controller,
            "on_window",
            span("controller.on_window", controller.Controller.on_window),
        )
        patch(
            controller.Controller,
            "coordinate",
            count("controller.coordinate.calls", controller.Controller.coordinate),
        )

        patch(knowledge, "select_one_of", span("knowledge.select", knowledge.select_one_of))
        patch(knowledge, "select_next", span("knowledge.select", knowledge.select_next))
        patch(knowledge, "acquire", span("knowledge.acquire", knowledge.acquire))
        refine = knowledge.refine

        def refine_counted(kb, *args, **kwargs):
            before = kb.revision
            refine(kb, *args, **kwargs)
            counts["knowledge.refine.changed"] += kb.revision != before

        patch(knowledge, "refine", span("knowledge.refine", refine_counted))

        apply_action = actions.apply_action

        def apply_counted(*args, **kwargs):
            try:
                record = apply_action(*args, **kwargs)
            except actions.ActionFailedError:
                counts["actions.apply.failed"] += 1
                raise
            counts["actions.apply.noop"] += record.noop
            return record

        patch(actions, "apply_action", span("actions.apply", apply_counted))
        patch(actions, "stop_action", span("actions.stop", actions.stop_action))

        # harness imported estimate_mos by name; metrics calls its own global.
        patch(metrics, "estimate_mos", count("metrics.estimate_mos.calls", metrics.estimate_mos))
        patch(harness, "estimate_mos", count("metrics.estimate_mos.calls", harness.estimate_mos))

        for name in ("default_kb", "build_world", "write_outputs", "calibrate", "run"):
            patch(harness, name, span(f"harness.{name}", getattr(harness, name)))
        patch(cli, "main", span("cli.main", cli.main))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: str) -> None:
        """Spans as CSV, times in ns from the first span's start."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("op,name,start_ns,end_ns,parent\n")
            for op, name, start, end, parent in self.spans:
                fh.write(f"{op},{name},{round((start - t0) * 1e9)},{round((end - t0) * 1e9)},{parent}\n")
