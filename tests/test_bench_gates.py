"""The benchmark gate evaluator and the committed-vs-fresh checker.

Fixture documents only: no bench runs here.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import check_perf_regression  # noqa: E402
from common import gate_failures  # noqa: E402


def _ratio(value, keep=None):
    gate = {"name": "ratio", "value": value, "floor": 3.0}
    if keep is not None:
        gate["keep"] = keep
    return gate


@pytest.mark.parametrize(
    "value,committed_value,failed",
    [
        (4.0, 10.0, True),  # above the absolute floor, below half the baseline
        (6.0, 10.0, False),
        (2.5, 4.0, True),  # half the baseline (2.0) is below the absolute floor
        (3.0, 4.0, False),
    ],
)
def test_floor_is_the_larger_of_absolute_and_kept_fraction(value, committed_value, failed):
    committed = [_ratio(committed_value)]
    assert bool(gate_failures([_ratio(value, keep=0.5)], committed)) == failed


def test_relative_part_needs_a_committed_gate_of_the_same_name():
    assert not gate_failures([_ratio(4.0, keep=0.5)])
    assert not gate_failures([_ratio(4.0, keep=0.5)], [dict(_ratio(10.0), name="other")])
    # Without ``keep`` the committed value is ignored.
    assert not gate_failures([_ratio(4.0)], [_ratio(10.0)])


def test_ceiling():
    gate = {"name": "device_ratio", "value": 1.6, "ceiling": 1.5}
    assert gate_failures([gate]) == ["device_ratio = 1.6, gate <= 1.5"]
    assert not gate_failures([dict(gate, value=1.5)])


def test_boolean_and_count_gates():
    failures = gate_failures(
        [
            {"name": "bit_exact", "value": False, "floor": True},
            {"name": "conserved", "value": True, "floor": True},
            {"name": "migrated", "value": 0, "floor": 1},
        ]
    )
    assert failures == ["bit_exact = False, gate >= True", "migrated = 0, gate >= 1"]


def _bench(path: Path, fresh_gates):
    def run(quick):
        assert quick
        return {"quick": True, "gates": fresh_gates}

    return SimpleNamespace(RESULT_PATH=path, run=run)


def _commit(path: Path, gates) -> Path:
    path.write_text(json.dumps({"quick": False, "gates": gates}))
    return path


def test_checker_compares_fresh_with_committed_by_name(tmp_path, capsys):
    path = _commit(tmp_path / "BENCH_a.json", [_ratio(10.0), dict(_ratio(1.0), name="gone")])
    assert check_perf_regression.main([_bench(path, [_ratio(6.0, keep=0.5)])]) == 0
    assert "(unchecked): gone" in capsys.readouterr().out
    assert check_perf_regression.main([_bench(path, [_ratio(4.0, keep=0.5)])]) == 1
    assert "BENCH_a.json: ratio = 4, gate >= 5" in capsys.readouterr().err


def test_checker_fails_on_a_missing_baseline(tmp_path, capsys):
    present = _commit(tmp_path / "BENCH_a.json", [_ratio(10.0)])
    benches = [
        _bench(tmp_path / "BENCH_missing.json", []),
        _bench(present, [_ratio(10.0, keep=0.5)]),
    ]
    assert check_perf_regression.main(benches) == 1
    assert "BENCH_missing.json: committed baseline is missing" in capsys.readouterr().err
