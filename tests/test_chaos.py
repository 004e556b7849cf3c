"""The chaos-sweep invariant harness (tier-1 budget).

CI runs the same harness with a larger ``--examples`` budget as a separate
job (``python -m repro.serving.chaos``); this tier keeps a small sweep in
the default test run so invariant regressions surface locally.
"""

import json

import pytest

import repro.serving.chaos as chaos_module
from repro.serving import (
    DISPATCH_POLICIES,
    INVARIANTS,
    POLICY_LEAST_LOADED,
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
    # Both config-override and constructor topology paths are exercised.
    assert any(s.via_config_override for s in first)
    assert any(not s.via_config_override for s in first)


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
