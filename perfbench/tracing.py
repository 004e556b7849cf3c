"""Span recorder for the traced run, installed from outside the program.

The recorder wraps public functions at the attribute their caller looks up
(class methods, looked up through the instance), so the program under test
is not edited.  Each wrapped call becomes a span with a name, start, end,
parent and op id.  Three recording modes trade detail for overhead:

* ``span``  -- aggregated and kept as an individual span for the trace file;
  used for calls made a few hundred times per op at most;
* ``agg``   -- aggregated only (calls, inclusive and self seconds); used for
  calls made once per batch or request, where one record per call would
  hold hundreds of thousands of spans in memory;
* ``count`` -- call count only, no clock reads; used for the fault
  schedule queries, which run millions of times per op.

A span's self time is its duration minus the time of its wrapped children,
so a layer's self time never counts a nested layer twice.  Spans stay in
memory until :meth:`Tracer.chrome_trace` writes them out at the end.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from typing import Dict, List, Tuple

#: Layer lane of every span-name prefix (the program's module names).
LANES = {
    "op": "benchmark",
    "requests": "serving.requests",
    "scheduler": "serving.scheduler",
    "engine": "serving.engine",
    "service": "system.service",
    "variants": "system.variants",
    "control": "serving.control",
    "faults": "serving.faults",
    "report": "analysis.report",
    "graph": "graph.dynamic",
    "device": "core.accelerator",
    "kernels": "core.kernels",
}

#: The layer -> end-to-end map: which metric, on which workloads, a change
#: to the layer should move.  Later changes cite these names.
MOVES = {
    "serving.requests": "sim_rps: every serving workload",
    "serving.scheduler": "sim_rps: offline-tableii, offline-faulted",
    "serving.engine": "sim_rps: offline-tableii, online-bursty",
    "system.service": "sim_rps: offline-tableii (misses), online-bursty (estimates)",
    "system.variants": "sim_rps: offline-tableii",
    "serving.control": "sim_rps: online-bursty",
    "serving.faults": "sim_rps: offline-faulted",
    "analysis.report": "sim_rps: every serving workload",
    "graph.dynamic": "sim_rps: preprocess-dynamic",
    "core.accelerator": "sim_rps: preprocess-dynamic",
    "core.kernels": "sim_rps: preprocess-dynamic",
}

#: The functions the traced run wraps: (module, class, method, span, mode).
#: Calls the benchmark makes itself (trace generation, report rendering)
#: are spans opened in ``workloads.py`` instead.
TARGETS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("repro.serving.cluster", "ShardedServiceCluster", "serve_trace", "engine.serve", "span"),
    ("repro.serving.cluster", "ShardedServiceCluster", "serve_online", "engine.serve", "span"),
    ("repro.serving.scheduler", "BatchScheduler", "schedule_fast", "scheduler.plan", "span"),
    ("repro.serving.scheduler", "BatchScheduler", "schedule_arrays", "scheduler.plan", "span"),
    ("repro.serving.engine", "ShardHeap", "pick", "engine.pick", "agg"),
    ("repro.system.service", "GNNService", "serve", "service.miss", "span"),
    ("repro.system.service", "GNNService", "estimate_service_seconds", "service.estimate", "agg"),
    ("repro.system.variants", "DynPreSystem", "apply_state", "service.hit", "agg"),
    ("repro.system.variants", "DynPreSystem", "choose_config", "variants.choose_config", "span"),
    ("repro.serving.control", "AdmissionController", "decide", "control.decide", "agg"),
    ("repro.serving.control", "Autoscaler", "observe", "control.observe", "agg"),
    ("repro.serving.faults", "DrainPlanner", "plan", "control.drain", "agg"),
    ("repro.serving.faults", "DrainPlanner", "commit_next", "control.drain", "agg"),
    ("repro.serving.faults", "FaultRuntime", "dispatch", "faults.dispatch", "agg"),
    ("repro.serving.faults", "FaultRuntime", "flush", "faults.flush", "span"),
    ("repro.serving.faults", "FaultRuntime", "dead_until", "faults.schedule_query", "count"),
    ("repro.serving.faults", "FaultRuntime", "next_crash_after", "faults.schedule_query", "count"),
    ("repro.graph.dynamic", "DynamicGraph", "apply", "graph.apply", "span"),
    ("repro.core.accelerator", "AutoGNNDevice", "preprocess", "device.preprocess", "span"),
    ("repro.core.kernels", "UPEKernel", "edge_ordering", "kernels.ordering", "span"),
    ("repro.core.kernels", "SCRKernel", "data_reshaping", "kernels.reshaping", "span"),
    ("repro.core.kernels", "UPEKernel", "unique_random_selection", "kernels.selecting", "span"),
    ("repro.core.kernels", "SCRKernel", "subgraph_reindexing", "kernels.reindexing", "span"),
)


class NullTracer:
    """The untraced run's stand-in: benchmark-side spans cost nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """In-memory span recorder with per-name call, inclusive and self totals."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        #: Kept spans: (name, start, end, parent name, op id).
        self.spans: List[Tuple[str, float, float, str, int]] = []
        #: Per-op totals of the aggregated-only names, for the trace file.
        self.op_summaries: List[Dict[str, List[float]]] = []
        self.op_id = 0
        # Open spans, innermost last: [name, start, child seconds].
        self._stack: List[list] = []
        self._saved: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------ recording
    def _close(self, frame: list, end: float, keep: bool) -> None:
        name, start, child = frame
        duration = end - start
        stack = self._stack
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        if keep:
            self.spans.append(
                (name, start, end, parent[0] if parent is not None else "", self.op_id)
            )

    @contextlib.contextmanager
    def span(self, name: str):
        """A kept span around a call the benchmark makes itself."""
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._close(frame, time.perf_counter(), True)

    @contextlib.contextmanager
    def op(self):
        """The root span of one op; snapshots the aggregated-only totals."""
        before = {
            name: (calls, self.total.get(name, 0.0)) for name, calls in self.calls.items()
        }
        try:
            with self.span("op"):
                yield
        finally:
            summary = {}
            for name, calls in self.calls.items():
                prior_calls, prior_total = before.get(name, (0, 0.0))
                if calls != prior_calls:
                    summary[name] = [
                        calls - prior_calls,
                        self.total.get(name, 0.0) - prior_total,
                    ]
            self.op_summaries.append(summary)
            self.op_id += 1

    def _wrap(self, fn, name: str, mode: str):
        calls = self.calls
        if mode == "count":

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            return counted
        stack = self._stack
        close = self._close
        clock = time.perf_counter
        keep = mode == "span"

        def timed(*args, **kwargs):
            # A call nested directly in a span of the same name (such as
            # schedule_fast -> schedule_arrays) belongs to the outer span.
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, clock(), keep)

        return timed

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        for module_name, owner_name, attr, name, mode in TARGETS:
            owner = getattr(importlib.import_module(module_name), owner_name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, mode))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- reports
    def per_op(self, name: str, table: Dict) -> float:
        """``table[name]`` averaged over the recorded ops."""
        return table.get(name, 0) / max(self.op_id, 1)

    def self_time_table(self) -> str:
        """Per-name calls, inclusive and self seconds per op, self-time first."""
        op_seconds = self.per_op("op", self.total)
        rows = sorted(self.calls, key=lambda name: -self.self_time.get(name, 0.0))
        lines = [
            f"{'span':<24} {'layer':<18} {'calls/op':>11} {'incl s/op':>10} "
            f"{'self s/op':>10} {'self %':>7}  moves"
        ]
        for name in rows:
            lane = LANES[name.split(".")[0]]
            if name in self.self_time:
                self_s = self.per_op(name, self.self_time)
                timing = (
                    f"{self.per_op(name, self.total):>10.4f} {self_s:>10.4f} "
                    f"{100.0 * self_s / max(op_seconds, 1e-12):>6.1f}%"
                )
            else:  # count-only names carry no clock readings
                timing = f"{'-':>10} {'-':>10} {'-':>7}"
            lines.append(
                f"{name:<24} {lane:<18} {self.per_op(name, self.calls):>11.1f} "
                f"{timing}  {MOVES.get(lane, '')}"
            )
        return "\n".join(lines)

    def chrome_trace(self, metadata: Dict) -> Dict:
        """Trace-event JSON (opens in Perfetto): one lane (tid) per layer."""
        lanes = list(LANES.values())
        tid = {lane: index for index, lane in enumerate(lanes)}
        events: List[Dict] = [
            {"ph": "M", "pid": 1, "tid": tid[lane], "name": "thread_name",
             "args": {"name": lane}}
            for lane in lanes
        ]
        for name, start, end, parent, op_id in self.spans:
            args = {"op": op_id, "parent": parent}
            if name == "op":
                args["aggregated"] = self.op_summaries[op_id]
            events.append(
                {
                    "ph": "X",
                    "pid": 1,
                    "tid": tid[LANES[name.split(".")[0]]],
                    "name": name,
                    "ts": (start - self.origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata}
