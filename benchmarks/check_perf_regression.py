"""Benchmark-regression check: fresh quick gates against the committed ones.

Every gated bench declares its acceptance gates once, as the ``"gates"`` list
of the document its ``run()`` returns (format: ``common.gate_failures``).
For each bench in ``BENCHES`` this script reads the committed ``RESULT_PATH``
document (a full run), runs a fresh ``run(quick=True)`` and evaluates the
fresh gates with the committed gates as the baseline: a gate with ``keep``
must reach that fraction of the committed gate of the same name as well as
its own floor.

* A committed gate the quick run does not produce is reported as unchecked.
* A missing committed file fails the check.

Quick runs write under ``benchmarks/results/``, never to the committed files,
so the working tree stays clean.  Run with no options::

    python benchmarks/check_perf_regression.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Sequence

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
import bench_serving_throughput
import bench_slo_control
import bench_tenant_fairness
from common import gate_failures

#: The benches CI gates, each with ``RESULT_PATH`` and ``run(quick=...)``.
BENCHES = (
    bench_perf_preprocessing,
    bench_engine_speed,
    bench_fault_tolerance,
    bench_failure_domains,
    bench_graceful_degradation,
    bench_elastic_scaling,
    bench_serving_throughput,
    bench_slo_control,
    bench_tenant_fairness,
)


def main(benches: Sequence = BENCHES) -> int:
    failures: List[str] = []
    for bench in benches:
        label = bench.RESULT_PATH.name
        print(f"\n== {label}: fresh quick run vs committed baseline\n")
        if not bench.RESULT_PATH.exists():
            failures.append(
                f"{label}: committed baseline is missing; regenerate it with a full "
                "run of the bench and commit it"
            )
            continue
        committed = json.loads(bench.RESULT_PATH.read_text())["gates"]
        fresh = bench.run(quick=True)["gates"]
        print(f"\n{label} gates:")
        failures += [f"{label}: {failure}" for failure in gate_failures(fresh, committed)]
        unchecked = sorted({g["name"] for g in committed} - {g["name"] for g in fresh})
        if unchecked:
            print(f"  note: committed gates the quick run does not produce (unchecked): "
                  f"{', '.join(unchecked)}")

    if failures:
        print("\nPERF REGRESSION DETECTED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nno perf regression: every declared gate holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
