"""Latency containers and metric helpers shared across baselines and systems."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence

#: Task names in the paper's presentation order.
TASK_NAMES = ("ordering", "reshaping", "selecting", "reindexing")


@dataclass
class TaskLatencies:
    """Per-task preprocessing latency in seconds.

    Attributes mirror the paper's four preprocessing tasks.
    """

    ordering: float = 0.0
    reshaping: float = 0.0
    selecting: float = 0.0
    reindexing: float = 0.0

    @property
    def total(self) -> float:
        """Total preprocessing latency."""
        return self.ordering + self.reshaping + self.selecting + self.reindexing

    def as_dict(self) -> Dict[str, float]:
        """Latencies keyed by task name."""
        return {
            "ordering": self.ordering,
            "reshaping": self.reshaping,
            "selecting": self.selecting,
            "reindexing": self.reindexing,
        }

    def scaled(self, factor: float) -> "TaskLatencies":
        """Return a copy with every task latency multiplied by ``factor``."""
        return TaskLatencies(
            ordering=self.ordering * factor,
            reshaping=self.reshaping * factor,
            selecting=self.selecting * factor,
            reindexing=self.reindexing * factor,
        )

    def __add__(self, other: "TaskLatencies") -> "TaskLatencies":
        return TaskLatencies(
            ordering=self.ordering + other.ordering,
            reshaping=self.reshaping + other.reshaping,
            selecting=self.selecting + other.selecting,
            reindexing=self.reindexing + other.reindexing,
        )

    @classmethod
    def from_dict(cls, values: Mapping[str, float]) -> "TaskLatencies":
        """Build from a mapping keyed by task name (missing tasks default to 0)."""
        return cls(
            ordering=float(values.get("ordering", 0.0)),
            reshaping=float(values.get("reshaping", 0.0)),
            selecting=float(values.get("selecting", 0.0)),
            reindexing=float(values.get("reindexing", 0.0)),
        )


@dataclass
class EndToEndLatency:
    """End-to-end GNN service latency decomposition in seconds.

    Attributes:
        preprocessing: per-task preprocessing latencies.
        transfer: host/accelerator/GPU data-movement latency.
        inference: GNN model execution latency.
        reconfiguration: FPGA partial-reconfiguration latency (AutoGNN only).
    """

    preprocessing: TaskLatencies = field(default_factory=TaskLatencies)
    transfer: float = 0.0
    inference: float = 0.0
    reconfiguration: float = 0.0

    @property
    def total(self) -> float:
        """Total service latency."""
        return self.preprocessing.total + self.transfer + self.inference + self.reconfiguration

    @property
    def preprocessing_share(self) -> float:
        """Fraction of the total spent in preprocessing (+ transfers)."""
        if self.total == 0:
            return 0.0
        return (self.preprocessing.total + self.transfer + self.reconfiguration) / self.total

    def as_dict(self) -> Dict[str, float]:
        """Flat component dictionary, preprocessing expanded per task."""
        out = self.preprocessing.as_dict()
        out["transfer"] = self.transfer
        out["inference"] = self.inference
        out["reconfiguration"] = self.reconfiguration
        return out


def _percentile_sorted(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile of an already-sorted sequence.

    Shared by :func:`percentile`, :meth:`LatencyStats.from_samples` and
    :meth:`LatencyStats.from_array`, so all produce bit-identical values
    from the same sample multiset.
    """
    if not 0 <= q <= 100:
        raise ValueError("q must be within [0, 100]")
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return float(ordered[lower])
    weight = rank - lower
    return float(ordered[lower] * (1.0 - weight) + ordered[upper] * weight)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile of ``values`` (0 when empty).

    Matches ``numpy.percentile``'s default (linear) method; implemented on
    plain sequences so small report aggregations skip array round trips and
    this module keeps its no-import policy.
    """
    if not 0 <= q <= 100:
        raise ValueError("q must be within [0, 100]")
    return _percentile_sorted(sorted(values), q)


def left_fold_sum(values) -> float:
    """Sequential left-to-right sum of a float64 ndarray, from ``0.0``.

    Bit-identical to ``sum(values.tolist())``: ``numpy.add.accumulate`` is a
    sequential fold (unlike ``numpy.sum``'s pairwise reduction), so it
    carries the exact rounding trail of a ``+=`` chain over the same order,
    which the golden-report byte-stability tests rely on.
    """
    import numpy as np

    acc = np.empty(len(values) + 1, dtype=np.float64)
    acc[0] = 0.0
    acc[1:] = values
    return float(np.add.accumulate(acc)[-1])


@dataclass
class LatencyStats:
    """Summary statistics of a latency sample (seconds).

    Attributes:
        count: number of samples.
        mean: arithmetic mean.
        p50: median.
        p95: 95th percentile.
        p99: 99th percentile.
        max: largest sample.
    """

    count: int = 0
    mean: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0
    max: float = 0.0

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        """Compute the summary of a (possibly empty) latency sample."""
        if not samples:
            return cls()
        ordered = sorted(samples)
        return cls(
            count=len(samples),
            mean=sum(samples) / len(samples),
            p50=_percentile_sorted(ordered, 50),
            p95=_percentile_sorted(ordered, 95),
            p99=_percentile_sorted(ordered, 99),
            max=float(ordered[-1]),
        )

    @classmethod
    def from_array(cls, samples) -> "LatencyStats":
        """:meth:`from_samples` of a float64 ndarray, bit-identical to
        ``from_samples(samples.tolist())`` for samples without NaN or
        negative zeros (``numpy.sort`` orders the rest exactly as ``sorted``).

        The mean's sum folds left to right (:func:`left_fold_sum`), so it
        carries the rounding trail of ``sum`` over the same order.  This is
        the serving fast engine's report-time latency summary.
        """
        import numpy as np

        count = len(samples)
        if count == 0:
            return cls()
        ordered = np.sort(samples).tolist()
        return cls(
            count=count,
            mean=left_fold_sum(samples) / count,
            p50=_percentile_sorted(ordered, 50),
            p95=_percentile_sorted(ordered, 95),
            p99=_percentile_sorted(ordered, 99),
            max=float(ordered[-1]),
        )

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary of the summary (for JSON reports)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }


@dataclass
class GoodputStats:
    """Offered/served/shed/failed accounting of one SLO-scored serving run.

    ``offered == served + shed + failed`` by construction (the control plane
    either admits a request or sheds it at arrival, and an admitted request
    either completes or permanently fails under fault injection; nothing is
    dropped silently), and ``goodput_rps <= throughput_rps`` because only
    served requests that met their SLO count as goodput.

    ``served`` further splits by quality tier: under a degradation policy
    (see :class:`~repro.serving.control.DegradationPolicy`) a request may
    complete at a cheaper degraded profile instead of being shed, so
    ``served == served_full + served_degraded`` and the full conservation
    identity is ``offered == served_full + served_degraded + shed + failed``
    — exact integers, property-tested.

    Attributes:
        offered: requests that reached the cluster front-end.
        served: requests that completed service (any quality tier).
        shed: requests rejected at admission.
        failed: admitted requests lost to shard faults (retry budget spent).
        slo_met: served requests whose sojourn met their SLO (any tier).
        served_degraded: served requests executed at the degraded tier.
        slo_met_degraded: degraded-tier served requests that met their SLO.
        makespan_seconds: first arrival to last completion.
    """

    offered: int = 0
    served: int = 0
    shed: int = 0
    slo_met: int = 0
    makespan_seconds: float = 0.0
    failed: int = 0
    served_degraded: int = 0
    slo_met_degraded: int = 0

    @property
    def served_full(self) -> int:
        """Served requests executed at full quality."""
        return self.served - self.served_degraded

    @property
    def slo_met_full(self) -> int:
        """Full-quality served requests that met their SLO."""
        return self.slo_met - self.slo_met_degraded

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests rejected at admission."""
        if self.offered <= 0:
            return 0.0
        return self.shed / self.offered

    @property
    def slo_attainment(self) -> float:
        """Fraction of served requests that met their SLO."""
        if self.served <= 0:
            return 0.0
        return self.slo_met / self.served

    @property
    def throughput_rps(self) -> float:
        """Served requests per second of makespan."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.served / self.makespan_seconds

    @property
    def goodput_rps(self) -> float:
        """SLO-met served requests per second of makespan."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.slo_met / self.makespan_seconds

    def slo_weighted_goodput_rps(self, degraded_utility: float) -> float:
        """Goodput with degraded completions discounted to their utility.

        A full-quality SLO-met completion is worth 1, a degraded one
        ``degraded_utility`` (the :class:`DegradationPolicy` knob) — the
        headline the graceful-degradation benchmark compares against binary
        shedding.
        """
        if self.makespan_seconds <= 0:
            return 0.0
        weighted = self.slo_met_full + degraded_utility * self.slo_met_degraded
        return weighted / self.makespan_seconds

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary of the accounting (for JSON reports)."""
        return {
            "offered": self.offered,
            "served": self.served,
            "served_full": self.served_full,
            "served_degraded": self.served_degraded,
            "shed": self.shed,
            "failed": self.failed,
            "shed_rate": self.shed_rate,
            "slo_met": self.slo_met,
            "slo_met_full": self.slo_met_full,
            "slo_met_degraded": self.slo_met_degraded,
            "slo_attainment": self.slo_attainment,
            "goodput_rps": self.goodput_rps,
        }


@dataclass
class TenantStats:
    """Per-tenant slice of one serving run's accounting.

    Attributes:
        tenant: tenant name.
        offered: requests of the tenant that reached the cluster front-end.
        served: requests of the tenant that completed service (any tier).
        shed: requests of the tenant rejected at admission.
        slo_met: served requests of the tenant that met their SLO.
        latency: sojourn-time summary of the tenant's served requests.
        served_degraded: the tenant's served requests executed at the
            degraded quality tier.
        slo_met_degraded: the tenant's degraded-tier served requests that
            met their SLO.
    """

    tenant: str
    offered: int = 0
    served: int = 0
    shed: int = 0
    slo_met: int = 0
    latency: LatencyStats = field(default_factory=LatencyStats)
    served_degraded: int = 0
    slo_met_degraded: int = 0

    @property
    def served_full(self) -> int:
        """The tenant's served requests executed at full quality."""
        return self.served - self.served_degraded

    @property
    def slo_met_full(self) -> int:
        """The tenant's full-quality served requests that met their SLO."""
        return self.slo_met - self.slo_met_degraded

    @property
    def shed_rate(self) -> float:
        """Fraction of the tenant's offered requests rejected at admission."""
        if self.offered <= 0:
            return 0.0
        return self.shed / self.offered

    @property
    def slo_attainment(self) -> float:
        """Fraction of the tenant's served requests that met their SLO."""
        if self.served <= 0:
            return 0.0
        return self.slo_met / self.served

    def slo_weighted_goodput(self, degraded_utility: float) -> float:
        """SLO-met completions weighted by degraded-tier utility.

        A full-quality SLO-met completion counts 1, a degraded one
        ``degraded_utility`` — the per-tenant analogue of
        :meth:`GoodputStats.slo_weighted_goodput_rps` (a count, not a rate:
        tenants share the run's makespan, so callers divide once).
        """
        return self.slo_met_full + degraded_utility * self.slo_met_degraded

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary of the per-tenant accounting (for JSON reports)."""
        return {
            "offered": self.offered,
            "served": self.served,
            "served_degraded": self.served_degraded,
            "shed": self.shed,
            "shed_rate": self.shed_rate,
            "slo_met": self.slo_met,
            "slo_met_degraded": self.slo_met_degraded,
            "slo_attainment": self.slo_attainment,
            "latency": self.latency.as_dict(),
        }


def attainment_spread(tenant_stats: Iterable[TenantStats]) -> float:
    """Max-over-min per-tenant SLO attainment — the fairness headline.

    1.0 means every tenant sees the same attainment; large values mean some
    tenant is starved relative to another.  Tenants that served nothing are
    scored 0 attainment (they count as maximally starved); returns 0.0 when
    there are no tenants.
    """
    values = [stats.slo_attainment for stats in tenant_stats]
    if not values:
        return 0.0
    worst = min(values)
    best = max(values)
    if worst <= 0.0:
        return math.inf if best > 0.0 else 0.0
    return best / worst


def jain_fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index of a non-negative allocation (1.0 = equal).

    ``(sum x)^2 / (n * sum x^2)``, the standard [1/n, 1] fairness score;
    0.0 when the input is empty or all-zero.
    """
    values = [max(v, 0.0) for v in values]
    total = sum(values)
    if not values or total <= 0:
        return 0.0
    return total * total / (len(values) * sum(v * v for v in values))


def speedup(baseline: float, candidate: float) -> float:
    """Baseline-over-candidate latency ratio (``>1`` means candidate is faster)."""
    if candidate <= 0:
        return math.inf
    return baseline / candidate


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values; 0 when the input is empty."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def normalize(values: Sequence[float], reference: float) -> List[float]:
    """Divide every value by ``reference`` (guarding against zero)."""
    if reference == 0:
        return [0.0 for _ in values]
    return [v / reference for v in values]


def breakdown_percentages(components: Mapping[str, float]) -> Dict[str, float]:
    """Convert a component dictionary to percentages of its sum."""
    total = sum(components.values())
    if total <= 0:
        return {key: 0.0 for key in components}
    return {key: 100.0 * value / total for key, value in components.items()}
