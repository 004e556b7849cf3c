"""The chaos-sweep invariant harness (tier-1 budget).

CI runs the same harness with a larger ``--examples`` budget as a separate
job (``python -m repro.serving.chaos``); this tier keeps a small sweep in
the default test run so invariant regressions surface locally.
"""

import json
import os
import subprocess
import sys

import pytest

import repro.serving.chaos as chaos_module
from repro.serving import DISPATCH_POLICIES, POLICY_LEAST_LOADED, POLICY_LOCALITY
from repro.serving.chaos import (
    INVARIANTS,
    ChaosInvariantError,
    chaos_scenarios,
    run_chaos_sweep,
    run_scenario,
)

#: Tier-1 sweep budget — the CI chaos job runs a much larger one.
TEST_SWEEP_EXAMPLES = 10


def test_scenarios_are_deterministic_and_cover_required_races():
    first = chaos_scenarios(TEST_SWEEP_EXAMPLES, seed=1)
    second = chaos_scenarios(TEST_SWEEP_EXAMPLES, seed=1)
    assert len(first) == TEST_SWEEP_EXAMPLES
    assert [s.as_dict() for s in first] == [s.as_dict() for s in second]
    names = {s.name for s in first}
    # The handcrafted edge scenarios always lead the sweep.
    assert {
        "edge-recover-same-instant",
        "edge-outage-races-drain",
        "edge-retry-storm-budget0",
        "edge-whole-cluster-outage",
    } <= names
    # Whole-domain outages race autoscaler drains: every scenario scales and
    # most inject correlated domain events.
    assert sum(1 for s in first if s.faults.domain_events) >= len(first) // 2
    # Retry budgets vary, including the zero-budget storm.
    assert {s.faults.retry_budget for s in first} != {0}
    assert any(s.faults.retry_budget == 0 for s in first)


def test_random_scenarios_cycle_policies_and_fair_batching():
    scenarios = chaos_scenarios(4 + 12, seed=0)
    edges = [s for s in scenarios if s.name.startswith("edge-")]
    random = [s for s in scenarios if s.name.startswith("random-")]
    # The handcrafted edges keep their least-loaded, non-fair dispatch.
    assert {(s.policy, s.fair) for s in edges} == {(POLICY_LEAST_LOADED, False)}
    # Twelve random scenarios cover every policy with fair batching on and off.
    assert {(s.policy, s.fair) for s in random} == {
        (policy, fair) for policy in DISPATCH_POLICIES for fair in (False, True)
    }
    # Every third block of four runs locality; the rest run least-loaded.
    assert [i for i, s in enumerate(random) if s.policy == POLICY_LOCALITY] == [
        8, 9, 10, 11
    ]
    # Both are recorded in the reproduction artifact.
    record = random[2].as_dict()
    assert (record["policy"], record["fair"]) == (random[2].policy, random[2].fair)


def test_sweep_passes_all_invariants(services):
    summary = run_chaos_sweep(num_examples=TEST_SWEEP_EXAMPLES, seed=0, services=services)
    assert summary["examples"] == TEST_SWEEP_EXAMPLES
    assert tuple(summary["invariants"]) == INVARIANTS
    totals = summary["totals"]
    assert totals["offered"] == (
        totals["served"] + totals["shed"] + totals["failed"]
    )
    assert totals["offered"] > 0 and totals["served"] > 0
    # The sweep must actually exercise correlated whole-domain outages.
    assert totals["domain_outages"] > 0
    assert len(summary["runs"]) == TEST_SWEEP_EXAMPLES


def test_single_scenario_rows_agree_with_sweep(services):
    scenario = chaos_scenarios(1, seed=0)[0]
    row = run_scenario(services, scenario)
    assert row["scenario"] == scenario.name
    assert row["offered"] == row["served"] + row["shed"] + row["failed"]


def test_violation_writes_reproduction_artifact(services, tmp_path, monkeypatch):
    artifact_path = tmp_path / "chaos_failure.json"

    def broken_check(scenario, report, source, min_shards):
        raise ChaosInvariantError(
            "conservation", scenario.name, "forced for the artifact test",
            scenario.as_dict(),
        )

    monkeypatch.setattr(chaos_module, "_check_run", broken_check)
    with pytest.raises(ChaosInvariantError) as excinfo:
        run_chaos_sweep(
            num_examples=1, seed=0, services=services, artifact_path=artifact_path
        )
    assert excinfo.value.invariant == "conservation"
    artifact = json.loads(artifact_path.read_text())
    assert artifact["invariant"] == "conservation"
    assert artifact["name"] == excinfo.value.scenario
    # The artifact embeds enough to rebuild the failing schedule.
    assert "schedule" in artifact and "provenance" in artifact


def test_random_172_standby_substitution_ends_with_the_outage(services):
    """Scenario 172 of the seed-2 sweep: a batch parked during a prefix
    shard's outage must not start on a standby shard after that shard
    recovers.  ``run_scenario`` replays it through both engines and checks
    the no-dead-dispatch invariant on each report."""
    scenario = chaos_scenarios(4 + 173, seed=2)[-1]
    assert scenario.name == "random-172"
    row = run_scenario(services, scenario)
    assert row["offered"] == row["served"] + row["shed"] + row["failed"]


def test_module_entry_point_runs_without_runpy_warning():
    """``python -m repro.serving.chaos`` is the CI sweep command: the
    package must not import the harness before runpy executes it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    completed = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.serving.chaos", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr


def test_serving_package_does_not_import_the_harness():
    """Importing ``repro.serving`` leaves the chaos harness unloaded, which
    is what keeps runpy from warning when it then executes the module."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    probe = "import sys, repro.serving; assert 'repro.serving.chaos' not in sys.modules"
    completed = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert completed.returncode == 0, completed.stderr
