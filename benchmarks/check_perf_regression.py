"""Benchmark-regression gates for the fast paths.

Committed-vs-fresh comparisons:

* **Preprocessing** — reads the committed ``BENCH_perf_preprocessing.json``,
  runs a fresh ``--quick`` pass of ``benchmarks/bench_perf_preprocessing.py``,
  and fails when the fresh vectorized/reference speedup at any shared scale
  drops below ``tolerance * committed_speedup`` or below an absolute floor,
  or when the device model's time exceeds ``DEVICE_RATIO_CEILING`` times the
  vectorized pipeline's at the gated scale (same process, same graph, so the
  ratio needs no machine normalization).
* **Serving engine** — reads the committed ``BENCH_engine_speed.json``, runs
  a fresh ``--quick`` pass of ``benchmarks/bench_engine_speed.py``, and fails
  when (a) the fresh fast/reference speedup drops below
  ``tolerance * committed_speedup`` or the scale's own gate, (b) the fresh
  chunked-vs-per-event speedup drops below ``tolerance * committed`` or the
  scale's own floor (catching a quietly disabled array-native loop), or
  (c) the fast engine's *wall-clock* regresses by more than
  ``--engine-wall-tolerance`` (default 20%) after normalizing out the
  machine: the reference engine runs the identical simulation, so
  ``fresh_reference / committed_reference`` is the machine-speed factor and
  the check is ``fresh_fast <= tolerance * machine_factor * committed_fast``.
  With ``--engine-million`` (opt-in; ~30s) it additionally re-runs the
  fast-only 1M-request tier and gates the chunked-vs-per-event speedup at
  ``max(tolerance * committed, 3.0)`` plus a machine-normalized wall-clock
  budget (normalizer: the per-event leg — the fast engine's event loop
  over ``TraceArrivals`` — since the reference engine is absent at that
  scale).
* **Fault tolerance** — reads the committed ``BENCH_fault_tolerance.json``,
  runs a fresh ``--quick`` pass of ``benchmarks/bench_fault_tolerance.py``,
  and fails when the fresh fault-aware/fault-oblivious goodput ratio drops
  below ``tolerance * committed_ratio`` or the benchmark's own absolute
  gate, or when the stress run's conservation invariant breaks.
* **Failure domains** — reads the committed ``BENCH_failure_domains.json``,
  runs a fresh ``--quick`` pass of ``benchmarks/bench_failure_domains.py``,
  and fails when the fresh domain-aware/domain-oblivious goodput ratio under
  chained rack outages drops below ``tolerance * committed_ratio`` or the
  benchmark's own absolute gate, when the correlated-fault stress run breaks
  conservation, or when it stops observing whole-rack outages.
* **Graceful degradation** — reads the committed
  ``BENCH_graceful_degradation.json``, runs a fresh ``--quick`` pass of
  ``benchmarks/bench_graceful_degradation.py``, and fails when the fresh
  tiered/binary SLO-weighted goodput ratio drops below
  ``tolerance * committed_ratio`` or the benchmark's own absolute gate, or
  when either run breaks the per-tier conservation invariant.
* **Elastic scaling** — reads the committed ``BENCH_elastic_scaling.json``,
  runs a fresh ``--quick`` pass of ``benchmarks/bench_elastic_scaling.py``,
  and fails when the fresh drain-aware/drain-less goodput ratio or the
  drain-less/drain-aware shard-seconds ratio drops below
  ``tolerance * committed_ratio`` or the benchmark's own absolute gates,
  when a run breaks conservation, or when the drained run stops migrating
  queued work at scale-down.

Relative tolerances absorb CI-runner noise; the absolute floors catch a
fast path that was quietly disabled altogether.

The fresh runs overwrite the ``BENCH_*.json`` files on disk (CI uploads
them as artifacts); the committed baselines are read into memory first, so
each comparison is committed-vs-fresh.  Locally, restore the committed
files with ``git checkout -- 'BENCH_*.json'``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = REPO_ROOT / "src"
for path in (str(_SRC), str(REPO_ROOT / "benchmarks")):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_elastic_scaling
import bench_engine_speed
import bench_failure_domains
import bench_fault_tolerance
import bench_graceful_degradation
import bench_perf_preprocessing

#: Fresh speedup must reach this fraction of the committed speedup.
DEFAULT_TOLERANCE = 0.5

#: ... and never fall below this absolute vectorized/reference ratio.
DEFAULT_MIN_SPEEDUP = 5.0

#: Engine-bench wall-clock budget: fresh fast-engine seconds may exceed the
#: machine-normalized committed seconds by at most this factor (20%).
DEFAULT_ENGINE_WALL_TOLERANCE = 1.2


def _check_preprocessing(args) -> List[str]:
    committed = json.loads(args.baseline.read_text())
    committed_by_scale = {
        entry["scale"]: entry["speedup"] for entry in committed["results"]
    }

    print("running fresh --quick preprocessing benchmark...\n")
    fresh = bench_perf_preprocessing.run(quick=True)

    failures: List[str] = []
    fresh_scales = {entry["scale"] for entry in fresh["results"]}
    unchecked = sorted(set(committed_by_scale) - fresh_scales)
    if unchecked:
        print(
            f"note: committed scales not covered by the quick run (unchecked): {unchecked}"
        )
    for entry in fresh["results"]:
        scale = entry["scale"]
        if scale not in committed_by_scale:
            continue
        baseline_speedup = committed_by_scale[scale]
        floor = max(args.tolerance * baseline_speedup, args.min_speedup)
        verdict = "ok" if entry["speedup"] >= floor else "REGRESSION"
        print(
            f"{scale:>5}: committed {baseline_speedup:6.2f}x | "
            f"fresh {entry['speedup']:6.2f}x | floor {floor:6.2f}x | {verdict}"
        )
        if entry["speedup"] < floor:
            failures.append(
                f"preprocessing {scale}: fresh speedup {entry['speedup']:.2f}x below "
                f"floor {floor:.2f}x (committed {baseline_speedup:.2f}x, "
                f"tolerance {args.tolerance})"
            )
        if scale == bench_perf_preprocessing.GATE_SCALE:
            ceiling = bench_perf_preprocessing.DEVICE_RATIO_CEILING
            ok = bench_perf_preprocessing.device_ratio_ok(entry)
            print(
                f"{scale:>5}: device model {entry['device_ratio']:.2f}x vectorized | "
                f"ceiling {ceiling:.2f}x | {'ok' if ok else 'REGRESSION'}"
            )
            if not ok:
                failures.append(
                    f"preprocessing {scale}: device model takes {entry['device_ratio']:.2f}x "
                    f"the vectorized pipeline's time, above the {ceiling:.2f}x ceiling"
                )
    return failures


def _check_engine(args) -> List[str]:
    if not args.engine_baseline.exists():
        # Fail loudly, like the preprocessing gate's FileNotFoundError: a
        # missing baseline must not silently disable the engine check.
        return [
            f"engine: committed baseline {args.engine_baseline} is missing — "
            "regenerate with `python benchmarks/bench_engine_speed.py` and commit it"
        ]
    committed = json.loads(args.engine_baseline.read_text())
    committed_by_scale = {entry["scale"]: entry for entry in committed["results"]}

    print("\nrunning fresh --quick serving-engine benchmark...\n")
    fresh = bench_engine_speed.run(quick=True)

    failures: List[str] = []
    for entry in fresh["results"]:
        scale = entry["scale"]
        baseline = committed_by_scale.get(scale)
        if baseline is None:
            continue
        # Speedup floor: relative to the committed ratio, never below the
        # scale's own absolute gate (machine-independent).
        floor = max(args.tolerance * baseline["speedup"], entry["min_speedup"])
        speedup_ok = entry["speedup"] >= floor
        # Wall-clock: normalize out the machine via the reference engine
        # (same simulation, same Python), then flag a >20% fast regression.
        machine_factor = entry["reference_seconds"] / max(
            baseline["reference_seconds"], 1e-12
        )
        wall_budget = args.engine_wall_tolerance * machine_factor * baseline["fast_seconds"]
        wall_ok = entry["fast_seconds"] <= wall_budget
        # Chunked floor: the array-native loop must keep beating the
        # per-event loop (a silent fallback to per-event would still pass
        # the fast-vs-reference gate).  Pre-chunked baselines lack the
        # field; fall back to the scale's own absolute floor then.
        chunked_floor = max(
            args.tolerance * baseline.get("chunked_speedup", 0.0),
            entry["min_chunked_speedup"],
        )
        chunked_ok = entry["chunked_speedup"] >= chunked_floor
        verdict = "ok" if (speedup_ok and wall_ok and chunked_ok) else "REGRESSION"
        print(
            f"{scale:>7}: committed {baseline['speedup']:6.2f}x | "
            f"fresh {entry['speedup']:6.2f}x | floor {floor:6.2f}x | "
            f"chunked {entry['chunked_speedup']:5.2f}x (floor {chunked_floor:4.2f}x) | "
            f"fast {entry['fast_seconds']:6.3f}s (budget {wall_budget:6.3f}s) | {verdict}"
        )
        if not speedup_ok:
            failures.append(
                f"engine {scale}: fresh speedup {entry['speedup']:.2f}x below "
                f"floor {floor:.2f}x (committed {baseline['speedup']:.2f}x)"
            )
        if not chunked_ok:
            failures.append(
                f"engine {scale}: fresh chunked-vs-per-event speedup "
                f"{entry['chunked_speedup']:.2f}x below floor {chunked_floor:.2f}x "
                f"(committed {baseline.get('chunked_speedup', 'n/a')})"
            )
        if not wall_ok:
            failures.append(
                f"engine {scale}: fast wall-clock {entry['fast_seconds']:.3f}s exceeds "
                f"{args.engine_wall_tolerance:.0%} of the machine-normalized committed "
                f"{baseline['fast_seconds']:.3f}s (budget {wall_budget:.3f}s)"
            )

    if args.engine_million:
        baseline_million = committed.get("million")
        if baseline_million is None:
            failures.append(
                "engine 1M: committed baseline has no 'million' section — "
                "regenerate with `python benchmarks/bench_engine_speed.py` and commit it"
            )
            return failures
        print("\nrunning fresh fast-only 1M-request tier (--engine-million)...\n")
        fresh_million = bench_engine_speed.run_million()
        floor = max(
            args.tolerance * baseline_million["chunked_speedup"],
            fresh_million["min_chunked_speedup"],
        )
        speedup_ok = fresh_million["chunked_speedup"] >= floor
        # No reference run at 1M; the per-event fast leg (the event loop over
        # TraceArrivals) is the identical simulation on both machines, so it
        # is the machine normalizer.
        machine_factor = fresh_million["event_seconds"] / max(
            baseline_million["event_seconds"], 1e-12
        )
        wall_budget = (
            args.engine_wall_tolerance
            * machine_factor
            * baseline_million["chunked_seconds"]
        )
        wall_ok = fresh_million["chunked_seconds"] <= wall_budget
        verdict = "ok" if (speedup_ok and wall_ok) else "REGRESSION"
        print(
            f"{fresh_million['scale']:>7}: committed "
            f"{baseline_million['chunked_speedup']:6.2f}x | "
            f"fresh {fresh_million['chunked_speedup']:6.2f}x | floor {floor:6.2f}x | "
            f"chunked {fresh_million['chunked_seconds']:6.3f}s "
            f"(budget {wall_budget:6.3f}s) | {verdict}"
        )
        if not speedup_ok:
            failures.append(
                f"engine 1M: fresh chunked-vs-per-event speedup "
                f"{fresh_million['chunked_speedup']:.2f}x below floor {floor:.2f}x "
                f"(committed {baseline_million['chunked_speedup']:.2f}x)"
            )
        if not wall_ok:
            failures.append(
                f"engine 1M: chunked wall-clock "
                f"{fresh_million['chunked_seconds']:.3f}s exceeds "
                f"{args.engine_wall_tolerance:.0%} of the machine-normalized "
                f"committed {baseline_million['chunked_seconds']:.3f}s "
                f"(budget {wall_budget:.3f}s)"
            )
    return failures


def _check_fault_tolerance(args) -> List[str]:
    if not args.fault_baseline.exists():
        return [
            f"fault-tolerance: committed baseline {args.fault_baseline} is missing — "
            "regenerate with `python benchmarks/bench_fault_tolerance.py` and commit it"
        ]
    committed = json.loads(args.fault_baseline.read_text())

    print("\nrunning fresh --quick fault-tolerance benchmark...\n")
    fresh = bench_fault_tolerance.run(quick=True)

    failures: List[str] = []
    floor = max(
        args.tolerance * committed["goodput_ratio"], fresh["min_goodput_ratio"]
    )
    verdict = "ok" if fresh["goodput_ratio"] >= floor else "REGRESSION"
    print(
        f"recovery: committed {committed['goodput_ratio']:6.2f}x | "
        f"fresh {fresh['goodput_ratio']:6.2f}x | floor {floor:6.2f}x | {verdict}"
    )
    if fresh["goodput_ratio"] < floor:
        failures.append(
            f"fault-tolerance: fresh fault-aware/oblivious goodput ratio "
            f"{fresh['goodput_ratio']:.2f}x below floor {floor:.2f}x "
            f"(committed {committed['goodput_ratio']:.2f}x, tolerance {args.tolerance})"
        )
    if not fresh["stress"]["conserved"]:
        failures.append(
            "fault-tolerance: stress run broke conservation "
            "(offered != served + shed + failed)"
        )
    return failures


def _check_failure_domains(args) -> List[str]:
    if not args.failure_domain_baseline.exists():
        return [
            f"failure-domains: committed baseline {args.failure_domain_baseline} "
            "is missing — regenerate with "
            "`python benchmarks/bench_failure_domains.py` and commit it"
        ]
    committed = json.loads(args.failure_domain_baseline.read_text())

    print("\nrunning fresh --quick failure-domain benchmark...\n")
    fresh = bench_failure_domains.run(quick=True)

    failures: List[str] = []
    floor = max(
        args.tolerance * committed["goodput_ratio"], fresh["min_goodput_ratio"]
    )
    verdict = "ok" if fresh["goodput_ratio"] >= floor else "REGRESSION"
    print(
        f"placement: committed {committed['goodput_ratio']:6.2f}x | "
        f"fresh {fresh['goodput_ratio']:6.2f}x | floor {floor:6.2f}x | {verdict}"
    )
    if fresh["goodput_ratio"] < floor:
        failures.append(
            f"failure-domains: fresh domain-aware/oblivious goodput ratio "
            f"{fresh['goodput_ratio']:.2f}x below floor {floor:.2f}x "
            f"(committed {committed['goodput_ratio']:.2f}x, tolerance {args.tolerance})"
        )
    if not fresh["stress"]["conserved"]:
        failures.append(
            "failure-domains: correlated-fault stress run broke conservation "
            "(offered != served + shed + failed)"
        )
    if fresh["stress"]["domain_outages"] <= 0:
        failures.append(
            "failure-domains: correlated-fault stress run observed no whole-rack "
            "outages (correlated generator quietly disabled?)"
        )
    return failures


def _check_graceful_degradation(args) -> List[str]:
    if not args.degradation_baseline.exists():
        return [
            f"graceful-degradation: committed baseline {args.degradation_baseline} "
            "is missing — regenerate with "
            "`python benchmarks/bench_graceful_degradation.py` and commit it"
        ]
    committed = json.loads(args.degradation_baseline.read_text())

    print("\nrunning fresh --quick graceful-degradation benchmark...\n")
    fresh = bench_graceful_degradation.run(quick=True)

    failures: List[str] = []
    floor = max(
        args.tolerance * committed["weighted_goodput_ratio"],
        fresh["min_weighted_goodput_ratio"],
    )
    verdict = "ok" if fresh["weighted_goodput_ratio"] >= floor else "REGRESSION"
    print(
        f"tiering: committed {committed['weighted_goodput_ratio']:6.2f}x | "
        f"fresh {fresh['weighted_goodput_ratio']:6.2f}x | floor {floor:6.2f}x | {verdict}"
    )
    if fresh["weighted_goodput_ratio"] < floor:
        failures.append(
            f"graceful-degradation: fresh tiered/binary SLO-weighted goodput ratio "
            f"{fresh['weighted_goodput_ratio']:.2f}x below floor {floor:.2f}x "
            f"(committed {committed['weighted_goodput_ratio']:.2f}x, "
            f"tolerance {args.tolerance})"
        )
    for label in ("binary", "tiered"):
        if not fresh[label]["conserved"]:
            failures.append(
                f"graceful-degradation: {label} run broke conservation "
                "(offered != served_full + served_degraded + shed + failed)"
            )
    return failures


def _check_elastic_scaling(args) -> List[str]:
    if not args.elastic_baseline.exists():
        return [
            f"elastic-scaling: committed baseline {args.elastic_baseline} is missing — "
            "regenerate with `python benchmarks/bench_elastic_scaling.py` and commit it"
        ]
    committed = json.loads(args.elastic_baseline.read_text())

    print("\nrunning fresh --quick elastic-scaling benchmark...\n")
    fresh = bench_elastic_scaling.run(quick=True)

    failures: List[str] = []
    for key, label in (
        ("goodput_ratio", "drain-aware/drain-less goodput"),
        ("shard_seconds_ratio", "drain-less/drain-aware shard-seconds"),
    ):
        floor = max(args.tolerance * committed[key], fresh[f"min_{key}"])
        verdict = "ok" if fresh[key] >= floor else "REGRESSION"
        print(
            f"{label}: committed {committed[key]:6.2f}x | "
            f"fresh {fresh[key]:6.2f}x | floor {floor:6.2f}x | {verdict}"
        )
        if fresh[key] < floor:
            failures.append(
                f"elastic-scaling: fresh {label} ratio {fresh[key]:.3f}x below "
                f"floor {floor:.3f}x (committed {committed[key]:.3f}x, "
                f"tolerance {args.tolerance})"
            )
    for label in ("drain_aware", "drain_less"):
        if not fresh[label]["conserved"]:
            failures.append(
                f"elastic-scaling: {label} run broke conservation "
                "(offered != served + shed + failed)"
            )
    if fresh["drain_aware"]["migrated"] <= 0:
        failures.append(
            "elastic-scaling: drained run migrated no queued work at scale-down "
            "(drain-and-migrate quietly disabled?)"
        )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        type=Path,
        default=bench_perf_preprocessing.RESULT_PATH,
        help="committed preprocessing benchmark JSON to compare against",
    )
    parser.add_argument(
        "--engine-baseline",
        type=Path,
        default=bench_engine_speed.RESULT_PATH,
        help="committed serving-engine benchmark JSON to compare against",
    )
    parser.add_argument(
        "--fault-baseline",
        type=Path,
        default=bench_fault_tolerance.RESULT_PATH,
        help="committed fault-tolerance benchmark JSON to compare against",
    )
    parser.add_argument(
        "--failure-domain-baseline",
        type=Path,
        default=bench_failure_domains.RESULT_PATH,
        help="committed failure-domain benchmark JSON to compare against",
    )
    parser.add_argument(
        "--degradation-baseline",
        type=Path,
        default=bench_graceful_degradation.RESULT_PATH,
        help="committed graceful-degradation benchmark JSON to compare against",
    )
    parser.add_argument(
        "--elastic-baseline",
        type=Path,
        default=bench_elastic_scaling.RESULT_PATH,
        help="committed elastic-scaling benchmark JSON to compare against",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="fresh speedup must be >= tolerance * committed speedup",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=DEFAULT_MIN_SPEEDUP,
        help="absolute lower bound on the fresh preprocessing speedup",
    )
    parser.add_argument(
        "--engine-wall-tolerance",
        type=float,
        default=DEFAULT_ENGINE_WALL_TOLERANCE,
        help="allowed machine-normalized fast-engine wall-clock growth factor",
    )
    parser.add_argument(
        "--engine-million",
        action="store_true",
        help="also re-run the fast-only 1M-request engine tier and gate the "
             "chunked-vs-per-event speedup against the committed baseline",
    )
    args = parser.parse_args(argv)

    failures = _check_preprocessing(args)
    failures += _check_engine(args)
    failures += _check_fault_tolerance(args)
    failures += _check_failure_domains(args)
    failures += _check_graceful_degradation(args)
    failures += _check_elastic_scaling(args)

    if failures:
        print("\nPERF REGRESSION DETECTED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nno perf regression: fast-path speedups and wall-clock hold within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
