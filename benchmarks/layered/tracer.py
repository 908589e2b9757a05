"""Per-layer host-time tracer built on ``sys.setprofile``.

The hook maps every Python frame's code object to a *layer* (a name),
keeps the layer of every active frame on a stack, and opens a span —
(layer, start ns, end ns, parent span id) — whenever a call enters code
of a different layer than the one currently innermost, closing it when
that frame returns.  Generator resumes, callback-FSM callbacks and
closures produce ordinary ``call``/``return`` events, so they are
charged to the layer that owns their code; frames the classifier does
not know (stdlib, builtins) inherit their caller's layer.

Self time is accounted online: whenever the innermost layer changes the
time since the previous change is added to the layer that was running,
so a layer's self time is its spans' duration minus the part covered by
child spans, by construction, and the per-layer self times partition
the traced interval exactly.  The hook's own cost is then removed by
:func:`attribute`: :func:`calibrate` measures ns per profile event and
extra ns per span on a toy, the hook counts events and spans per layer,
and both costs are scaled by one factor so that the corrected total
equals the same run's untraced host time (the toy misses what profiling
costs the interpreter itself on deep stacks).

Nothing here imports ``repro``; ``repro_classifier`` only looks at file
paths.  Works on CPython 3.10 and 3.11 (``sys.monitoring`` is 3.12+).
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time

#: The repo's packages, as they appear in metric names.
LAYERS = ("sim", "net", "grid", "data", "engine", "engine.exchange",
          "recovery", "core", "policy", "services", "dqp", "planner",
          "sched", "telemetry", "chaos")
#: Everything that is not a layer: the benchmark itself plus the
#: ``repro.workloads`` / ``repro.config`` glue it calls directly.
ROOT = "harness"

#: Source-path prefixes (relative to the ``repro`` package) that do not
#: follow the one-package-one-layer rule; longest prefix wins.
_SPECIAL_PREFIXES = (
    ("engine/operators/exchange", "engine.exchange"),
    ("engine/distribution", "engine.exchange"),
)


def repro_classifier(package_dir: str):
    """A classifier for code objects under the ``repro`` package.

    Returns the layer name, :data:`ROOT` for package files outside the
    fifteen layers, or ``None`` (inherit the caller's layer) for code
    that is not part of the package at all.
    """
    package_dir = os.path.join(os.path.abspath(package_dir), "")

    def classify(code) -> str | None:
        filename = code.co_filename
        if not filename.startswith(package_dir):
            return None
        relative = filename[len(package_dir):].replace(os.sep, "/")
        for prefix, layer in _SPECIAL_PREFIXES:
            if relative.startswith(prefix):
                return layer
        package = relative.split("/", 1)[0]
        return package if package in LAYERS else ROOT

    return classify


@dataclasses.dataclass(frozen=True)
class HookCost:
    """Calibrated cost of the profile hook itself."""

    ns_per_event: float
    ns_per_span: float


class LayerTracer:
    """Attributes host time to layers while :meth:`run` executes.

    ``classify(code)`` names the layer of a code object (``None`` =
    inherit).  Spans beyond ``max_spans`` are counted but not retained
    (a one-second run opens about a million), which bounds memory and
    the JSONL file without touching the self-time accounting.
    """

    def __init__(self, classify, max_spans: int = 50_000) -> None:
        self._classify = classify
        self._max_spans = max_spans
        self.names: list[str] = [ROOT]
        self._ids: dict[str, int] = {ROOT: 0}
        self._code_layer: dict = {}
        #: Raw nanoseconds during which each layer was innermost.
        self.self_ns: list[int] = [0]
        #: Spans opened per layer.
        self.entries: list[int] = [0]
        #: Profile events charged to each layer (hook-cost bookkeeping).
        self.events: list[int] = [0]
        #: Span opens in which the layer was parent or child.
        self.switches: list[int] = [0]
        #: Retained spans as ``[layer id, start ns, end ns, parent]``.
        self.spans: list[list] = []
        self.spans_dropped = 0
        self.total_ns = 0

    def _layer_id(self, name: str) -> int:
        layer = self._ids.get(name)
        if layer is None:
            layer = self._ids[name] = len(self.names)
            self.names.append(name)
            for column in (self.self_ns, self.entries, self.events,
                           self.switches):
                column.append(0)
        return layer

    def _resolve(self, code) -> int:
        name = self._classify(code)
        layer = -1 if name is None else self._layer_id(name)
        self._code_layer[code] = layer
        return layer

    def run(self, function):
        """Call ``function()`` under the hook; returns its result.

        The hook is installed and removed inside this frame, so this
        frame never returns while profiling and the layer stack cannot
        underflow.
        """
        code_layer = self._code_layer
        resolve = self._resolve
        self_ns, entries = self.self_ns, self.entries
        events, switches = self.events, self.switches
        spans, max_spans = self.spans, self._max_spans
        clock = time.perf_counter_ns
        stack = [0]          # layer id of every active frame
        open_spans = []      # span ids (-1 = not retained), innermost last
        dropped = [0]
        last = [0]

        def hook(frame, event, _arg):
            if event == "call":
                code = frame.f_code
                layer = code_layer.get(code)
                if layer is None:
                    layer = resolve(code)
                top = stack[-1]
                if layer < 0:
                    layer = top
                stack.append(layer)
                events[top] += 1
                if layer != top:
                    now = clock()
                    self_ns[top] += now - last[0]
                    last[0] = now
                    entries[layer] += 1
                    switches[layer] += 1
                    switches[top] += 1
                    if len(spans) < max_spans:
                        parent = open_spans[-1] if open_spans else -1
                        open_spans.append(len(spans))
                        spans.append([layer, now, 0, parent])
                    else:
                        open_spans.append(-1)
                        dropped[0] += 1
            elif event == "return":
                if len(stack) > 1:
                    layer = stack.pop()
                    events[layer] += 1
                    if layer != stack[-1]:
                        now = clock()
                        self_ns[layer] += now - last[0]
                        last[0] = now
                        span = open_spans.pop()
                        if span >= 0:
                            spans[span][2] = now
            else:  # c_call / c_return / c_exception: the caller's layer
                events[stack[-1]] += 1

        started = last[0] = clock()
        sys.setprofile(hook)
        try:
            return function()
        finally:
            sys.setprofile(None)
            ended = clock()
            # Whatever is still on the stack (an exception unwound past
            # run()) is closed here so the partition stays exact.
            self_ns[stack[-1]] += ended - last[0]
            for span in open_spans:
                if span >= 0 and spans[span][2] == 0:
                    spans[span][2] = ended
            self.total_ns += ended - started
            self.spans_dropped += dropped[0]

    # -- results ---------------------------------------------------------

    def layer_table(self) -> dict:
        """Raw per-layer tallies: self ns, spans opened, hook events."""
        return {name: {"self_ns": self.self_ns[layer],
                       "entries": self.entries[layer],
                       "events": self.events[layer],
                       "switches": self.switches[layer]}
                for layer, name in enumerate(self.names)}

    def write_jsonl(self, path, run_id: str) -> int:
        """Write the retained spans, one JSON object per line."""
        names = self.names
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "run": run_id, "spans": len(self.spans),
                "spans_dropped": self.spans_dropped,
                "total_ns": self.total_ns}) + "\n")
            for span_id, (layer, start, end, parent) in enumerate(
                    self.spans):
                handle.write(json.dumps({
                    "run": run_id, "id": span_id, "parent": parent,
                    "layer": names[layer], "start_ns": start,
                    "end_ns": end}) + "\n")
        return len(self.spans)


# -- hook-cost calibration ----------------------------------------------

def _leaf_same():
    return None


def _leaf_other():
    return None


def _loop_same(count: int) -> None:
    for _ in range(count):
        _leaf_same()


def _loop_other(count: int) -> None:
    for _ in range(count):
        _leaf_other()


def _calibration_classifier(code) -> str | None:
    return "other" if code is _leaf_other.__code__ else "same"


def calibrate(count: int = 40_000, rounds: int = 5) -> HookCost:
    """Estimate the hook's cost per profile event and per span.

    Two toy loops make ``count`` calls each: one stays inside a single
    layer (two events per iteration, no span), the other crosses into a
    second layer on every call (two events and one span).  The cheapest
    of ``rounds`` measurements is kept for each, since interference
    only ever adds time.
    """
    def cheapest(function, traced: bool) -> int:
        best = None
        for _ in range(rounds):
            if traced:
                tracer = LayerTracer(_calibration_classifier,
                                     max_spans=count)
                tracer.run(lambda: function(count))
                elapsed = tracer.total_ns
            else:
                started = time.perf_counter_ns()
                function(count)
                elapsed = time.perf_counter_ns() - started
            best = elapsed if best is None else min(best, elapsed)
        return best

    per_event = (cheapest(_loop_same, True)
                 - cheapest(_loop_same, False)) / (2.0 * count)
    per_crossing = (cheapest(_loop_other, True)
                    - cheapest(_loop_other, False)) / count
    return HookCost(ns_per_event=max(0.0, per_event),
                    ns_per_span=max(0.0, per_crossing - 2.0 * per_event))


def attribute(layers: dict, cost: HookCost, untraced_ns: float) -> tuple:
    """Per-layer self seconds with the hook's cost removed.

    ``layers`` is :meth:`LayerTracer.layer_table` of a traced run and
    ``untraced_ns`` the host time of the same run without the hook.
    Returns ``(self seconds by layer, effective HookCost)``; the self
    times sum to ``untraced_ns`` unless a layer had to be clipped at 0.
    """
    weights = {name: tally["events"] * cost.ns_per_event
               + tally["switches"] * cost.ns_per_span / 2.0
               for name, tally in layers.items()}
    overhead_ns = sum(tally["self_ns"]
                      for tally in layers.values()) - untraced_ns
    total_weight = sum(weights.values())
    scale = max(0.0, overhead_ns / total_weight) if total_weight else 0.0
    self_s = {name: max(0.0, tally["self_ns"] - scale * weights[name]) / 1e9
              for name, tally in layers.items()}
    return self_s, HookCost(cost.ns_per_event * scale,
                            cost.ns_per_span * scale)
