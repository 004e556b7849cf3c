"""Trace capture/replay: ``RequestTrace.to_jsonl`` / ``from_jsonl``.

The golden fixture (``tests/golden/request_trace.jsonl``) pins the format:
overload scenarios captured in one PR must replay byte-identically in later
ones, so both the serialization *bytes* and the replayed trace *behaviour*
(serving it produces the same report) are asserted.

Regenerate after an intentional format change with::

    PYTHONPATH=src python tests/test_trace_roundtrip.py --regen
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.serving import (
    DEFAULT_TENANT,
    BatchScheduler,
    BurstyArrivals,
    InferenceRequest,
    OpenLoopArrivals,
    RequestTrace,
    ShardedServiceCluster,
    merge_traces,
)
from repro.system.service import build_services
from repro.system.workload import WorkloadProfile

GOLDEN_PATH = Path(__file__).parent / "golden" / "request_trace.jsonl"

#: A pre-tenancy (version 1) capture of the same golden trace, kept to pin
#: backwards compatibility: old fixtures must keep loading, with every
#: request assigned the default tenant.
GOLDEN_V1_PATH = Path(__file__).parent / "golden" / "request_trace_v1.jsonl"

#: The fixed mix the golden trace was generated from (same profiles as the
#: golden cluster reports, so the two suites pin consistent scenarios).
GOLDEN_MIX = [
    WorkloadProfile(name="gold-a", num_nodes=30_000, num_edges=240_000, avg_degree=8.0,
                    batch_size=600),
    WorkloadProfile(name="gold-b", num_nodes=90_000, num_edges=990_000, avg_degree=11.0,
                    batch_size=1200),
]


def _golden_trace() -> RequestTrace:
    return OpenLoopArrivals(GOLDEN_MIX, rate_rps=300.0, seed=13).trace(12)


class TestGoldenFixture:
    def test_serialization_is_byte_stable(self, tmp_path):
        captured = _golden_trace().to_jsonl(tmp_path / "trace.jsonl")
        assert captured.read_text() == GOLDEN_PATH.read_text(), (
            "trace capture drifted from its golden fixture; if intentional, "
            "regenerate with `PYTHONPATH=src python tests/test_trace_roundtrip.py --regen`"
        )

    def test_replay_equals_generated_trace(self):
        replayed = RequestTrace.from_jsonl(GOLDEN_PATH)
        assert replayed == _golden_trace()

    def test_v1_capture_still_loads_with_default_tenant(self):
        replayed = RequestTrace.from_jsonl(GOLDEN_V1_PATH)
        assert replayed == _golden_trace()
        assert all(r.tenant == DEFAULT_TENANT for r in replayed)
        assert replayed.tenants() == [DEFAULT_TENANT]

    def test_v1_capture_upgrades_to_v2_on_recapture(self, tmp_path):
        upgraded = RequestTrace.from_jsonl(GOLDEN_V1_PATH).to_jsonl(
            tmp_path / "upgraded.jsonl"
        )
        assert upgraded.read_text() == GOLDEN_PATH.read_text()

    def test_replayed_trace_serves_identically(self):
        services = build_services()
        scheduler = BatchScheduler(max_batch_size=3, max_wait_seconds=0.004)

        def report(trace):
            cluster = ShardedServiceCluster(
                services["StatPre"], num_shards=2, scheduler=scheduler
            )
            return json.dumps(cluster.serve_trace(trace).as_dict(), sort_keys=True)

        assert report(RequestTrace.from_jsonl(GOLDEN_PATH)) == report(_golden_trace())


class TestRoundTrip:
    def test_list_built_trace_round_trips(self, tmp_path):
        # Arbitrary ids and coincident timestamps survive the round trip.
        w = GOLDEN_MIX[0]
        trace = RequestTrace(
            [
                InferenceRequest(7, 0.5, w),
                InferenceRequest(3, 0.5, GOLDEN_MIX[1]),
                InferenceRequest(9, 0.25, w),
            ]
        )
        path = trace.to_jsonl(tmp_path / "trace.jsonl")
        replayed = RequestTrace.from_jsonl(path)
        assert replayed == trace
        assert [r.request_id for r in replayed] == [9, 3, 7]

    def test_multi_tenant_trace_round_trips(self, tmp_path):
        streams = [
            BurstyArrivals(
                GOLDEN_MIX, base_rate_rps=50.0, peak_rate_rps=400.0,
                period_seconds=0.5, burst_fraction=0.3, phase_seconds=phase,
                tenant=tenant, seed=seed,
            )
            for tenant, phase, seed in [("free", 0.0, 1), ("pro", 0.2, 2)]
        ]
        trace = merge_traces([stream.trace(10) for stream in streams])
        path = trace.to_jsonl(tmp_path / "tenants.jsonl")
        replayed = RequestTrace.from_jsonl(path)
        assert replayed == trace
        assert [r.tenant for r in replayed] == [r.tenant for r in trace]
        assert sorted(replayed.tenants()) == ["free", "pro"]

    def test_explicit_tenant_objects_round_trip(self, tmp_path):
        w = GOLDEN_MIX[0]
        trace = RequestTrace(
            [
                InferenceRequest(0, 0.0, w, tenant="acme"),
                InferenceRequest(1, 0.1, w),
                InferenceRequest(2, 0.2, w, tenant="acme"),
            ]
        )
        replayed = RequestTrace.from_jsonl(trace.to_jsonl(tmp_path / "t.jsonl"))
        assert replayed == trace
        assert [r.tenant for r in replayed] == ["acme", DEFAULT_TENANT, "acme"]

    def test_double_round_trip_is_stable(self, tmp_path):
        first = _golden_trace().to_jsonl(tmp_path / "a.jsonl")
        second = RequestTrace.from_jsonl(first).to_jsonl(tmp_path / "b.jsonl")
        assert first.read_text() == second.read_text()

    def test_rejects_corrupt_captures(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            RequestTrace.from_jsonl(empty)

        bad_header = tmp_path / "bad_header.jsonl"
        bad_header.write_text(json.dumps({"kind": "request"}) + "\n")
        with pytest.raises(ValueError, match="header"):
            RequestTrace.from_jsonl(bad_header)

        bad_version = tmp_path / "bad_version.jsonl"
        bad_version.write_text(
            json.dumps({"kind": "trace", "version": 99, "num_requests": 0,
                        "num_workloads": 0}) + "\n"
        )
        with pytest.raises(ValueError, match="version"):
            RequestTrace.from_jsonl(bad_version)

        truncated = tmp_path / "truncated.jsonl"
        lines = GOLDEN_PATH.read_text().splitlines()
        truncated.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            RequestTrace.from_jsonl(truncated)

        missing_tenant = tmp_path / "missing_tenant.jsonl"
        missing_tenant.write_text(
            json.dumps({"kind": "trace", "version": 2, "num_requests": 0,
                        "num_workloads": 0, "num_tenants": 1}) + "\n"
        )
        with pytest.raises(ValueError, match="tenant"):
            RequestTrace.from_jsonl(missing_tenant)

    def test_rejects_tampered_timestamps(self, tmp_path):
        """``from_arrays`` sorts by arrival, so a capture with shuffled or
        negative timestamps would load "successfully" with silently repaired
        ordering — replay must reject it instead of masking the corruption."""
        lines = GOLDEN_PATH.read_text().splitlines()
        first_request = next(
            i for i, line in enumerate(lines)
            if json.loads(line).get("kind") == "request"
        )

        negative = tmp_path / "negative.jsonl"
        record = json.loads(lines[first_request])
        record["arrival_seconds"] = -0.5
        negative.write_text(
            "\n".join(lines[:first_request] + [json.dumps(record, sort_keys=True)]
                      + lines[first_request + 1:]) + "\n"
        )
        with pytest.raises(ValueError, match="negative"):
            RequestTrace.from_jsonl(negative)

        shuffled = tmp_path / "shuffled.jsonl"
        swapped = list(lines)
        swapped[first_request], swapped[-1] = swapped[-1], swapped[first_request]
        shuffled.write_text("\n".join(swapped) + "\n")
        with pytest.raises(ValueError, match="monotonic"):
            RequestTrace.from_jsonl(shuffled)

        non_finite = tmp_path / "non_finite.jsonl"
        record = json.loads(lines[first_request])
        record["arrival_seconds"] = float("nan")
        non_finite.write_text(
            "\n".join(lines[:first_request] + [json.dumps(record, sort_keys=True)]
                      + lines[first_request + 1:]) + "\n"
        )
        with pytest.raises(ValueError, match="negative or non-finite"):
            RequestTrace.from_jsonl(non_finite)


class TestMergeContract:
    """``merge_traces``: id reassignment + input validation, pinned."""

    def _streams(self):
        return [
            BurstyArrivals(
                GOLDEN_MIX, base_rate_rps=50.0, peak_rate_rps=400.0,
                period_seconds=0.5, burst_fraction=0.3, phase_seconds=phase,
                tenant=tenant, seed=seed,
            )
            for tenant, phase, seed in [
                ("ent", 0.0, 1), ("free", 0.17, 2), ("pro", 0.33, 3),
            ]
        ]

    def test_ids_reassigned_in_merged_arrival_order(self):
        merged = merge_traces([s.trace(8) for s in self._streams()])
        assert [r.request_id for r in merged] == list(range(len(merged)))
        arrivals = [r.arrival_seconds for r in merged]
        assert arrivals == sorted(arrivals)

    def test_same_instant_requests_keep_input_order(self):
        w = GOLDEN_MIX[0]
        first = RequestTrace([InferenceRequest(0, 0.5, w, tenant="a")])
        second = RequestTrace([InferenceRequest(0, 0.5, w, tenant="b")])
        merged = merge_traces([first, second])
        # Stable by input position at the tie; ids renumber over that order.
        assert [(r.request_id, r.tenant) for r in merged] == [(0, "a"), (1, "b")]

    def test_rejects_unsorted_input(self):
        w = GOLDEN_MIX[0]
        sorted_trace = RequestTrace([InferenceRequest(0, 0.0, w)])
        # Every public constructor sorts, so an unsorted trace can only come
        # from a corrupted SoA view; forge one the way a buggy capture
        # loader would to exercise the defence.
        unsorted = RequestTrace(
            [InferenceRequest(0, 0.5, w), InferenceRequest(1, 1.0, w)]
        )
        arrays = unsorted.arrays()
        unsorted._arrays = arrays._replace(
            arrival_seconds=arrays.arrival_seconds[::-1].copy()
        )
        with pytest.raises(ValueError, match="input 1 is not sorted"):
            merge_traces([sorted_trace, unsorted])

    def test_rejects_non_finite_input(self):
        w = GOLDEN_MIX[0]
        # The constructors refuse non-finite arrivals, so forge the SoA view
        # as above to exercise the defence.
        bad = RequestTrace([InferenceRequest(0, 0.5, w)])
        bad._arrays = bad.arrays()._replace(
            arrival_seconds=np.array([float("inf")])
        )
        with pytest.raises(ValueError, match="non-finite"):
            merge_traces([bad])

    def test_merged_multi_tenant_trace_round_trips_and_serves(self, tmp_path):
        """The full capture path: merge → JSONL → replay → identical serve."""
        merged = merge_traces([s.trace(8) for s in self._streams()])
        replayed = RequestTrace.from_jsonl(merged.to_jsonl(tmp_path / "m.jsonl"))
        assert replayed == merged
        assert [r.request_id for r in replayed] == [r.request_id for r in merged]
        assert sorted(replayed.tenants()) == ["ent", "free", "pro"]
        services = build_services()
        scheduler = BatchScheduler(max_batch_size=3, max_wait_seconds=0.004)

        def report(trace):
            cluster = ShardedServiceCluster(
                services["StatPre"], num_shards=2, scheduler=scheduler,
                engine="fast",
            )
            return json.dumps(cluster.serve_trace(trace).as_dict(), sort_keys=True)

        assert report(replayed) == report(merged)


def regenerate() -> None:
    path = _golden_trace().to_jsonl(GOLDEN_PATH)
    print(f"wrote {path}")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        sys.exit(pytest.main([__file__, "-q"]))
