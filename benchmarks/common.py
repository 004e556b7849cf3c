"""Shared helpers for the benchmark harness.

Every ``bench_fig*`` / ``bench_table*`` module reproduces one table or
figure of the paper: it computes the same rows or series the paper reports
(using the full-scale Table II workload parameters through the analytic
models, or the functional simulator on scaled synthetic graphs where noted),
prints them, and times the computation through pytest-benchmark.

The gated system benches (``bench_perf_preprocessing``, ``bench_engine_speed``
and the serving benches) declare their acceptance gates in the document their
``run()`` returns, as a ``"gates"`` list that :func:`gate_failures` evaluates
(see DESIGN.md, "Benchmark gates"), and persist that document with
:func:`write_result`.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Callable, Dict, List, Sequence

from repro.analysis.report import format_series, format_table
from repro.graph.datasets import DATASET_ORDER
from repro.system.service import GNNService
from repro.system.workload import WorkloadProfile

#: Directory where every reproduced table/figure is also written as a text
#: file, so the harness output survives pytest's stdout capture, and where
#: ``--quick`` bench documents go (gitignored: only a full run writes the
#: committed ``BENCH_*.json`` baselines).
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Fraction of its committed value a relative gate keeps by default: wide
#: enough to absorb CI-runner noise, tight enough to catch a fast path that
#: lost half its advantage.
DEFAULT_KEEP = 0.5


def _show(number) -> str:
    return repr(number) if isinstance(number, bool) else f"{number:.4g}"


def gate_failures(gates: Sequence[Dict], committed: Sequence[Dict] = ()) -> List[str]:
    """Print a verdict line per gate and return one message per failed gate.

    A gate is ``{"name", "value"}`` plus either ``"floor"`` (holds when
    ``value >= floor``; a boolean gate has ``floor: true``) or ``"ceiling"``
    (holds when ``value <= ceiling``).  A floor gate with ``"keep"`` must also
    reach ``keep`` times the value of the ``committed`` gate of the same name,
    when there is one.
    """
    baseline = {gate["name"]: gate["value"] for gate in committed}
    failures: List[str] = []
    for gate in gates:
        name, value = gate["name"], gate["value"]
        if "ceiling" in gate:
            bound, relation = gate["ceiling"], "<="
            ok = value <= bound
        else:
            bound, relation = gate["floor"], ">="
            if "keep" in gate and name in baseline:
                bound = max(bound, gate["keep"] * baseline[name])
            ok = value >= bound
        verdict = "ok" if ok else "FAIL"
        print(f"  {verdict:<4} {name}: {_show(value)} (gate {relation} {_show(bound)})")
        if not ok:
            failures.append(f"{name} = {_show(value)}, gate {relation} {_show(bound)}")
    return failures


def write_result(document: Dict, result_path: Path) -> Path:
    """Persist a bench document and return where it went.

    A full run writes the committed baseline ``result_path``; a quick run
    (``document["quick"]``) writes the same file name under ``RESULTS_DIR``.
    """
    path = RESULTS_DIR / result_path.name if document["quick"] else result_path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"\nresults written to {path}")
    return path


def _save_result(title: str, text: str) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    slug = re.sub(r"[^a-z0-9]+", "_", title.lower()).strip("_")[:80]
    (RESULTS_DIR / f"{slug}.txt").write_text(text + "\n")


def all_workloads(**kwargs) -> Dict[str, WorkloadProfile]:
    """Full-scale workload profiles for the 11 Table II datasets."""
    return {key: WorkloadProfile.from_dataset(key, **kwargs) for key in DATASET_ORDER}


def steady_state_report(service: GNNService, workload: WorkloadProfile):
    """Serve twice and return the second (steady-state) report.

    The first pass lets reconfigurable systems adapt to the workload so that
    per-dataset comparisons (Fig. 18 style) are not charged the one-off
    reconfiguration cost; the time-series benchmarks charge it explicitly.
    """
    service.serve(workload)
    return service.serve(workload)


def print_figure(title: str, columns: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Format, print, persist and return a figure/table reproduction."""
    text = format_table(title, columns, rows)
    print("\n" + text)
    _save_result(title, text)
    return text


def print_series(title: str, x_label: str, x_values, series: Dict[str, Sequence[float]]) -> str:
    """Format, print, persist and return an x/y series reproduction."""
    text = format_series(title, x_label, x_values, series)
    print("\n" + text)
    _save_result(title, text)
    return text


def run_once(benchmark, fn: Callable[[], object]):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
