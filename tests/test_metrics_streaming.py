"""Array latency summary: exact, left-fold mean.

The fast engine's report aggregates are only sound if
``LatencyStats.from_array`` is *bit-identical* to
``LatencyStats.from_samples`` over the same sample order — every field,
not approximately: the golden-report suite compares rendered JSON bytes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import LatencyStats, left_fold_sum, percentile

samples_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=200,
)


class TestStreamingExactFallback:
    @settings(max_examples=50, deadline=None)
    @given(samples=samples_lists)
    def test_stats_bit_identical_to_from_samples(self, samples):
        streamed = LatencyStats.from_array(np.asarray(samples, dtype=np.float64))
        batch = LatencyStats.from_samples(samples)
        assert streamed.count == batch.count
        assert streamed.mean == batch.mean
        assert streamed.p50 == batch.p50
        assert streamed.p95 == batch.p95
        assert streamed.p99 == batch.p99
        assert streamed.max == batch.max

    def test_empty_sample(self):
        assert LatencyStats.from_array(np.empty(0, dtype=np.float64)) == LatencyStats()

    def test_mean_is_a_left_fold(self):
        # A pairwise sum rounds these differently from ``sum``'s left fold.
        samples = [1.0] + [1e-16] * 200
        assert sum(samples) != float(np.sum(np.asarray(samples)))
        stats = LatencyStats.from_array(np.asarray(samples, dtype=np.float64))
        assert stats.mean == sum(samples) / len(samples)

    @pytest.mark.parametrize(
        "values",
        [[], [-0.0], [1.0] + [1e-16] * 200, [1e16, 1.0, -1e16, 3.0]],
        ids=["empty", "negative-zero", "small-tail", "cancellation"],
    )
    def test_left_fold_sum_is_a_plus_equals_chain(self, values):
        total = 0.0
        for value in values:
            total += value
        folded = left_fold_sum(np.asarray(values, dtype=np.float64))
        assert type(folded) is float
        assert math.copysign(1.0, folded) == math.copysign(1.0, total)
        assert folded == total

    def test_percentile_helper_unchanged(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.5
        with pytest.raises(ValueError):
            percentile(values, -1)
