"""Fig. 21: average LUT utilisation of AutoPre vs StatPre."""

from repro.system.variants import AutoPreSystem, StatPreSystem

from common import all_workloads, print_figure, run_once


def reproduce_fig21():
    """Per-dataset LUT utilisation of the two static AutoGNN variants."""
    auto = AutoPreSystem()
    stat = StatPreSystem()
    rows = []
    totals = {"AutoPre": 0.0, "StatPre": 0.0}
    workloads = all_workloads()
    for key, workload in workloads.items():
        a = auto.evaluate(workload).lut_utilization
        s = stat.evaluate(workload).lut_utilization
        totals["AutoPre"] += a
        totals["StatPre"] += s
        rows.append([key, round(100 * a, 1), round(100 * s, 1)])
    n = len(workloads)
    rows.append(["avg", round(100 * totals["AutoPre"] / n, 1), round(100 * totals["StatPre"] / n, 1)])
    return rows


def test_fig21_lut_utilization(benchmark):
    rows = run_once(benchmark, reproduce_fig21)
    print_figure(
        "Fig. 21: LUT utilisation (paper: AutoPre 47%, StatPre 82.2%, a 1.7x gap)",
        ["dataset", "AutoPre_%", "StatPre_%"],
        rows,
    )
    avg_auto, avg_stat = rows[-1][1], rows[-1][2]
    assert avg_stat > avg_auto
    assert avg_stat / max(avg_auto, 1e-9) >= 1.3
