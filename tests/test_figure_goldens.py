"""Golden copies of every reproduced paper figure and table.

Each ``reproduce_*`` function in ``benchmarks/bench_fig*.py`` and
``benchmarks/bench_table*.py`` returns the rows the paper reports.  The
figure checks there assert only orderings and magnitude bands, so a
performance change could still move a reproduced number.  This module pins
every row set byte-for-byte as JSON under ``tests/golden/figures/``.

Regenerate after an *intentional* model change with::

    PYTHONPATH=src python tests/test_figure_goldens.py --regen
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
GOLDEN_DIR = Path(__file__).parent / "golden" / "figures"

#: (golden name, benchmark module, reproduce function, positional arguments).
FIGURES = [
    ("fig05", "bench_fig05_preprocessing_share", "reproduce_fig5", ()),
    ("fig06", "bench_fig06_breakdown", "reproduce_fig6", ()),
    ("fig07_SO", "bench_fig07_dynamic_breakdown", "reproduce_fig7", ("SO",)),
    ("fig07_TB", "bench_fig07_dynamic_breakdown", "reproduce_fig7", ("TB",)),
    ("fig10", "bench_fig10_gpu_serialization", "reproduce_fig10", ()),
    ("fig18", "bench_fig18_end_to_end", "reproduce_fig18", ()),
    ("fig19", "bench_fig19_power_energy", "reproduce_fig19", ()),
    ("fig20", "bench_fig20_transfer", "reproduce_fig20", ()),
    ("fig21", "bench_fig21_lut_utilization", "reproduce_fig21", ()),
    ("fig22", "bench_fig22_reconfig_ablation", "reproduce_fig22", ()),
    ("fig23a", "bench_fig23_hw_configuration", "reproduce_fig23a", ("AX",)),
    ("fig23b", "bench_fig23_hw_configuration", "reproduce_fig23b", ("AM",)),
    ("fig24a", "bench_fig24_cost_model_accuracy", "reproduce_fig24a", ()),
    ("fig24b", "bench_fig24_cost_model_accuracy", "reproduce_fig24b", ()),
    ("fig25", "bench_fig25_model_sensitivity", "reproduce_fig25", ()),
    ("fig26a", "bench_fig26_cost_effectiveness", "reproduce_fig26a", ()),
    ("fig26b", "bench_fig26_cost_effectiveness", "reproduce_fig26b", ()),
    ("fig27", "bench_fig27_other_accelerators", "reproduce_fig27", ()),
    ("fig28a", "bench_fig28_consecutive_graphs", "reproduce_fig28a", ()),
    ("fig28b", "bench_fig28_consecutive_graphs", "reproduce_fig28b", ()),
    ("fig29a", "bench_fig29_graph_updates", "reproduce_fig29a", ()),
    ("fig29b", "bench_fig29_graph_updates", "reproduce_fig29b", ()),
    ("fig30", "bench_fig30_dynamic_graph", "reproduce_fig30", ()),
    ("fig31", "bench_fig31_mixed_edges", "reproduce_fig31", ()),
    ("table1", "bench_table1_cost_model", "reproduce_table1", ()),
    ("table2", "bench_table2_datasets", "reproduce_table2", ()),
]


def _render(module: str, function: str, args) -> str:
    # The benchmark modules import their shared helpers as ``common``.
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    rows = getattr(importlib.import_module(module), function)(*args)
    return json.dumps(rows, indent=1) + "\n"


def _golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


@pytest.mark.parametrize("name,module,function,args", FIGURES, ids=[f[0] for f in FIGURES])
def test_figure_rows_match_golden(name, module, function, args):
    assert _render(module, function, args) == _golden_path(name).read_text(), (
        f"{function}{args} drifted from tests/golden/figures/{name}.json; if the "
        "change is intentional, regenerate with "
        "`PYTHONPATH=src python tests/test_figure_goldens.py --regen`"
    )


def test_every_reproduce_function_is_pinned():
    pinned = {(module, function) for _, module, function, _ in FIGURES}
    found = set()
    for path in sorted(BENCH_DIR.glob("bench_fig*.py")) + sorted(BENCH_DIR.glob("bench_table*.py")):
        for line in path.read_text().splitlines():
            if line.startswith("def reproduce_"):
                found.add((path.stem, line[len("def "):line.index("(")]))
    assert found == pinned


def regenerate_all() -> None:
    """Rewrite every figure golden from the current implementation."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, module, function, args in FIGURES:
        _golden_path(name).write_text(_render(module, function, args))
        print(f"wrote {_golden_path(name)}")


if __name__ == "__main__":  # pragma: no cover
    if "--regen" in sys.argv:
        regenerate_all()
    else:
        sys.exit(pytest.main([__file__, "-q"]))
