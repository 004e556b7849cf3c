"""Streaming latency accumulator: exact summary and bulk extend.

The fast engine's report aggregates are only sound if
``StreamingLatencyStats.stats()`` is *bit-identical* to
``LatencyStats.from_samples`` over the same push sequence — every field,
not approximately: the golden-report suite compares rendered JSON bytes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import (
    LatencyStats,
    StreamingLatencyStats,
    percentile,
)

samples_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=200,
)


class TestStreamingExactFallback:
    @settings(max_examples=50, deadline=None)
    @given(samples=samples_lists)
    def test_stats_bit_identical_to_from_samples(self, samples):
        accumulator = StreamingLatencyStats()
        for sample in samples:
            accumulator.push(sample)
        streamed = accumulator.stats()
        batch = LatencyStats.from_samples(samples)
        assert streamed.count == batch.count
        assert streamed.mean == batch.mean
        assert streamed.p50 == batch.p50
        assert streamed.p95 == batch.p95
        assert streamed.p99 == batch.p99
        assert streamed.max == batch.max

    def test_empty_accumulator(self):
        accumulator = StreamingLatencyStats()
        assert len(accumulator) == 0
        assert accumulator.stats() == LatencyStats()

    def test_running_totals(self):
        accumulator = StreamingLatencyStats()
        for sample in (0.5, 1.5, 1.0):
            accumulator.push(sample)
        assert accumulator.count == 3
        assert accumulator.total == pytest.approx(3.0)

    def test_percentile_helper_unchanged(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.5
        with pytest.raises(ValueError):
            percentile(values, -1)


class TestBulkExtend:
    """``StreamingLatencyStats.extend`` must be bit-identical to pushes."""

    @settings(max_examples=50, deadline=None)
    @given(samples=samples_lists, split=st.integers(min_value=0, max_value=200))
    def test_extend_bit_identical_to_pushes(self, samples, split):
        import numpy as np

        split = min(split, len(samples))
        pushed = StreamingLatencyStats()
        for sample in samples:
            pushed.push(sample)
        extended = StreamingLatencyStats()
        # Prefix via pushes, remainder via one ndarray extend: the chunked
        # engine's pattern (per-tenant folds resume mid-stream).
        for sample in samples[:split]:
            extended.push(sample)
        extended.extend(np.asarray(samples[split:], dtype=np.float64))
        assert extended.count == pushed.count
        assert extended.total == pushed.total
        assert extended.stats() == pushed.stats()

    def test_extend_accepts_plain_iterables(self):
        extended = StreamingLatencyStats()
        extended.extend([0.5, 1.5, 2.5])
        pushed = StreamingLatencyStats()
        for sample in (0.5, 1.5, 2.5):
            pushed.push(sample)
        assert extended.stats() == pushed.stats()

    def test_extend_empty_chunk_is_noop(self):
        import numpy as np

        accumulator = StreamingLatencyStats()
        accumulator.push(1.0)
        accumulator.extend(np.empty(0, dtype=np.float64))
        assert accumulator.count == 1
        assert accumulator.total == 1.0
