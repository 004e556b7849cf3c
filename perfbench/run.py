"""The repository benchmark: one workload per process, host wall-clock.

Usage::

    python3 perfbench/run.py --workload offline-tableii --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workloads (see ``workloads.py``) are
``offline-tableii``, ``online-bursty``, ``offline-faulted`` and
``preprocess-dynamic``.  The loop is closed: each timed op starts when the
previous one returns; the simulated traffic inside a serving op is open.

``--trace 0`` times ops for ``--seconds`` seconds with tracing off and
reports the end-to-end metrics: ``setup_s`` (median of five set-ups, each
in a fresh interpreter: imports, input generation and one warm-up op),
``sim_rps`` (requests per second of op time: the simulated requests one
serving replay offers, or the one preprocessing request of a
``preprocess-dynamic`` update step) and ``peak_rss_mb``.  The op latency's
lower quartile and median, and its p90 once a run has 100 ops, are printed
above the result.

Both times are scaled to one reference host speed.  A shared host's speed
drifts by up to 2x over seconds to minutes as other tenants load its cores,
which no choice of quantile hides.  So a sub-millisecond calibration kernel
that uses none of the program (an interpreter loop for the serving
workloads, a NumPy sort for ``preprocess-dynamic``) is timed every
``SAMPLE_INTERVAL`` seconds while an op runs, from a timer signal, and
before and after each set-up; its time over its time on a quiet host is the
host's slowdown at that moment.  The samples' own time is taken out of the
op's time, and each ``SEGMENT_SECONDS`` of op time is converted to reference
seconds by dividing it by the slowdowns sampled during it.  ``sim_rps`` is
the mean of the middle half of the segments' rates and ``setup_s`` the
median over set-ups.  A change to the program moves op time but not the
kernel, so it still shows in full.  The unscaled host figures are printed
above the result.

``--trace 1`` is the separate traced run: a fixed number of ops untraced,
then the same ops under the span recorder of ``tracing.py``.  It reports the
per-layer metrics, including the ``model.*`` counts of the simulation (they
depend only on the seed, so a speed-only change must leave them identical)
and ``trace.overhead``, prints a self-time table and writes a Chrome
trace-event file to ``.perfbench-out/`` that opens in Perfetto.

Every op's output is checked outside the timed region; an op that raises or
fails its check counts in ``failed``.  The last line of standard output is
the JSON result.  Seed ``HELD_OUT_SEED`` is kept out of tuning, so a claim
can be re-checked on a seed it was not tuned on.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent

#: Seed never used while tuning the benchmark or a change measured with it.
HELD_OUT_SEED = 9001

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5

#: Op time per segment; ``sim_rps`` is taken over segments.
SEGMENT_SECONDS = 1.0

#: Wall seconds between two host-speed samples while an op runs.
SAMPLE_INTERVAL = 0.05

_SORT_INPUT = np.random.default_rng(0).random(100_000)


def _interpreter_kernel() -> int:
    table = {}
    total = 0
    for i in range(5_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += i * i
    return total


def _sort_kernel() -> None:
    np.sort(_SORT_INPUT)


#: Calibration kernel per workload kind, with its time on a quiet host
#: (2-vCPU Xeon VM at 2.1 GHz, CPython 3, NumPy sort) in seconds.
HOST_KERNELS = {
    "interpreter": (_interpreter_kernel, 0.0007),
    "sort": (_sort_kernel, 0.0005),
}


def host_slowdown(kind: str, repeats: int = 1) -> float:
    """How much slower than the quiet reference the host runs right now:
    the median time of the calibration kernel over its reference time."""
    kernel, reference = HOST_KERNELS[kind]
    seconds = []
    for _ in range(repeats):
        started = time.perf_counter()
        kernel()
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds) / reference


class HostSpeedSampler:
    """Samples the host slowdown every ``SAMPLE_INTERVAL`` of wall time while
    :meth:`armed`, from a ``SIGALRM`` handler that interrupts the op, and adds
    up the time the samples took so it can be taken out of the op's time."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.slowdowns = []
        self.spent = 0.0
        self.active = False
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        if not self.active:
            return
        started = time.perf_counter()
        self.slowdowns.append(host_slowdown(self.kind))
        self.spent += time.perf_counter() - started

    @contextlib.contextmanager
    def armed(self):
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.active = False

END_TO_END = {"setup_s": "s", "sim_rps": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "requests.gen_s": "s",
    "scheduler.plan_s": "s",
    "scheduler.batches": "count",
    "engine.self_s": "s",
    "engine.pick_calls": "count",
    "engine.pick_s": "s",
    "service.miss_calls": "count",
    "service.miss_s": "s",
    "service.hit_calls": "count",
    "service.hit_ratio": "ratio",
    "service.estimate_calls": "count",
    "service.estimate_s": "s",
    "variants.choose_config_calls": "count",
    "variants.choose_config_s": "s",
    "control.decide_calls": "count",
    "control.decide_s": "s",
    "control.observe_s": "s",
    "control.drain_calls": "count",
    "control.shed": "count",
    "control.degraded": "count",
    "control.scale_events": "count",
    "faults.dispatch_calls": "count",
    "faults.dispatch_s": "s",
    "faults.flush_calls": "count",
    "faults.flush_s": "s",
    "faults.dispatch_per_batch": "ratio",
    "faults.schedule_query_calls": "count",
    "report.render_s": "s",
    "graph.apply_s": "s",
    "kernels.ordering_s": "s",
    "kernels.reshaping_s": "s",
    "kernels.selecting_s": "s",
    "kernels.reindexing_s": "s",
    "model.served": "count",
    "model.shed": "count",
    "model.degraded": "count",
    "model.failed": "count",
    "model.p99_s": "s",
    "model.makespan_s": "s",
    "model.cycles": "cycles",
    "model.sampled_edges": "count",
    "trace.overhead": "x",
}

MODEL_KEYS = (
    "served", "shed", "degraded", "failed", "p99_s", "makespan_s", "cycles", "sampled_edges",
)


def setup_probe(name: str, seed: int, host_kernel: str) -> None:
    """Time one set-up from a fresh interpreter: imports, input generation
    and a warm-up op, scaled to the reference host speed by calibrations
    just before and after it.  Runs in a child process, see
    :func:`measure_setup`."""
    before = host_slowdown(host_kernel, repeats=15)
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workloads.WORKLOADS[name](seed).warm_up(NullTracer())
    seconds = time.perf_counter() - started
    print(seconds * 2 / (before + host_slowdown(host_kernel, repeats=15)))


def measure_setup(name: str, seed: int, host_kernel: str) -> float:
    """Median scaled set-up seconds over ``SETUP_REPEATS`` fresh interpreters."""
    seconds = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [
                sys.executable,
                "-c",
                f"import run; run.setup_probe({name!r}, {seed}, {host_kernel!r})",
            ],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        seconds.append(float(child.stdout.split()[-1]))
    return statistics.median(seconds)


def _run_op(workload, tracer, stats, scope=contextlib.nullcontext) -> tuple:
    """One op timed inside ``scope``, then checked; returns (seconds, outcome).

    The outcome is None when the op raised.
    """
    gc.collect()
    stats["attempted"] += 1
    started = time.perf_counter()
    try:
        with scope():
            outcome = workload.op(tracer)
    except Exception:
        traceback.print_exc()
        stats["failed"] += 1
        return time.perf_counter() - started, None
    seconds = time.perf_counter() - started
    problems = workload.check(outcome)
    if problems:
        stats["failed"] += 1
        print(f"op {stats['attempted']} failed its check: {problems}", file=sys.stderr)
    return seconds, outcome


def _result(stats, metrics, units) -> str:
    return json.dumps(
        {
            "correct": stats["failed"] == 0,
            "attempted": stats["attempted"],
            "failed": stats["failed"],
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
    )


def interquartile_mean(values) -> float:
    """Mean of the middle half of ``values`` (of all of them when fewer than four)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def timed_run(workload, setup_s: float, seconds: float, stats) -> dict:
    """Ops for ``seconds`` with the host speed sampled while they run; each
    segment of ``SEGMENT_SECONDS`` of op time gives one scaled rate."""
    tracer = NullTracer()
    sampler = HostSpeedSampler(workload.host_kernel)
    samples = []
    segment_rates = []
    segment_ops, segment_seconds, segment_start = 0, 0.0, 0
    first = None
    deadline = time.perf_counter() + seconds
    while True:
        spent, taken = sampler.spent, len(sampler.slowdowns)
        elapsed, outcome = _run_op(workload, tracer, stats, sampler.armed)
        if outcome is None:
            # A failed op's host-speed samples belong to no segment.
            del sampler.slowdowns[taken:]
        else:
            elapsed -= sampler.spent - spent
            samples.append(elapsed)
            segment_ops += 1
            segment_seconds += elapsed
            if first is None:
                first = workload.model(outcome)
        done = time.perf_counter() >= deadline
        if segment_seconds >= SEGMENT_SECONDS or (done and segment_ops):
            slowdowns = sampler.slowdowns[segment_start:]
            if not slowdowns:
                slowdowns = [host_slowdown(workload.host_kernel, repeats=15)]
            # Reference seconds of the segment: its host seconds, each
            # divided by the slowdown the host had at that moment.
            reference_seconds = segment_seconds * statistics.fmean(1 / s for s in slowdowns)
            segment_rates.append(segment_ops * workload.requests_per_op / reference_seconds)
            segment_ops, segment_seconds = 0, 0.0
            segment_start = len(sampler.slowdowns)
        if done:
            break
    if first is not None:
        print("# model " + " ".join(f"{k}={v}" for k, v in first.items()))
    if not samples:
        return {"setup_s": setup_s, "sim_rps": 0.0, "peak_rss_mb": 0.0}
    p50 = statistics.median(samples)
    p25 = statistics.quantiles(samples, n=4)[0] if len(samples) > 1 else p50
    line = f"# unscaled op p25 {p25 * 1e3:.3f} ms, p50 {p50 * 1e3:.3f} ms"
    if len(samples) >= 100:
        line += f", p90 {statistics.quantiles(samples, n=10)[-1] * 1e3:.3f} ms"
    print(
        f"{line} over {len(samples)} ops in {len(segment_rates)} segments; "
        f"requests/s at p50 {workload.requests_per_op / p50:.6g}"
    )
    if sampler.slowdowns:
        slowdowns = sampler.slowdowns
        print(
            f"# host slowdown vs reference ({workload.host_kernel} kernel, "
            f"{len(slowdowns)} samples): min {min(slowdowns):.3f}, "
            f"median {statistics.median(slowdowns):.3f}, max {max(slowdowns):.3f}"
        )
    return {
        "setup_s": setup_s,
        "sim_rps": interquartile_mean(segment_rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(workload, seed: int, stats) -> dict:
    untraced = [
        _run_op(workload, NullTracer(), stats)[0] for _ in range(workload.traced_ops)
    ]
    workload.rewind()
    tracer = Tracer()
    traced = []
    models = []
    tracer.install()
    try:
        for _ in range(workload.traced_ops):
            seconds, outcome = _run_op(workload, tracer, stats, tracer.op)
            traced.append(seconds)
            if outcome is not None:
                models.append(workload.model(outcome))
    finally:
        tracer.uninstall()

    model = {
        key: statistics.fmean(m.get(key, 0) for m in models) if models else 0.0
        for key in MODEL_KEYS + ("batches", "scale_events")
    }
    calls = lambda name: tracer.per_op(name, tracer.calls)
    secs = lambda name: tracer.per_op(name, tracer.total)
    miss, hit = calls("service.miss"), calls("service.hit")
    dispatches = calls("faults.dispatch")
    metrics = {
        "requests.gen_s": secs("requests.gen"),
        "scheduler.plan_s": secs("scheduler.plan"),
        "scheduler.batches": model["batches"],
        "engine.self_s": tracer.per_op("engine.serve", tracer.self_time),
        "engine.pick_calls": calls("engine.pick"),
        "engine.pick_s": secs("engine.pick"),
        "service.miss_calls": miss,
        "service.miss_s": secs("service.miss"),
        "service.hit_calls": hit,
        "service.hit_ratio": hit / (hit + miss) if hit + miss else 0.0,
        "service.estimate_calls": calls("service.estimate"),
        "service.estimate_s": secs("service.estimate"),
        "variants.choose_config_calls": calls("variants.choose_config"),
        "variants.choose_config_s": secs("variants.choose_config"),
        "control.decide_calls": calls("control.decide"),
        "control.decide_s": secs("control.decide"),
        "control.observe_s": secs("control.observe"),
        "control.drain_calls": calls("control.drain"),
        "control.shed": model["shed"],
        "control.degraded": model["degraded"],
        "control.scale_events": model["scale_events"],
        "faults.dispatch_calls": dispatches,
        "faults.dispatch_s": secs("faults.dispatch"),
        "faults.flush_calls": calls("faults.flush"),
        "faults.flush_s": secs("faults.flush"),
        "faults.dispatch_per_batch": (
            dispatches / model["batches"] if dispatches and model["batches"] else 0.0
        ),
        "faults.schedule_query_calls": calls("faults.schedule_query"),
        "report.render_s": secs("report.render"),
        "graph.apply_s": secs("graph.apply"),
        "kernels.ordering_s": secs("kernels.ordering"),
        "kernels.reshaping_s": secs("kernels.reshaping"),
        "kernels.selecting_s": secs("kernels.selecting"),
        "kernels.reindexing_s": secs("kernels.reindexing"),
        "trace.overhead": statistics.median(traced) / statistics.median(untraced),
    }
    metrics.update({f"model.{key}": model[key] for key in MODEL_KEYS})

    print(f"# self time per op over {tracer.op_id} traced ops ({workload.name}, seed {seed})")
    print(tracer.self_time_table())
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps(tracer.chrome_trace({"workload": workload.name, "seed": seed})))
    print(f"# chrome trace: {path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; expected one of "
            f"{sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    print(
        f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
        f"seconds={args.seconds:g} nproc={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"held_out_seed={HELD_OUT_SEED}"
    )
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm_up(NullTracer())
    stats = {"attempted": 0, "failed": 0}

    if args.trace:
        metrics = traced_run(workload, args.seed, stats)
        units = PER_LAYER
    else:
        setup_s = measure_setup(args.workload, args.seed, workload.host_kernel)
        metrics = timed_run(workload, setup_s, args.seconds, stats)
        units = END_TO_END
        print(
            "# " + " ".join(f"{name}={metrics[name]:.6g} {units[name]}" for name in units)
            + f" ops={stats['attempted']} ops_failed={stats['failed']}"
        )
    print(_result(stats, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
