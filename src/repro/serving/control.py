"""SLO-aware serving control plane: admission control and autoscaling.

The control plane layers three deterministic policies on top of the sharded
cluster's online event loop (:meth:`~repro.serving.cluster.ShardedServiceCluster.serve_online`):

* :class:`SLOPolicy` — per-workload latency objectives (a default plus
  per-workload-name overrides), and — for multi-tenant clusters — per-tenant
  :class:`TenantQuota`\\ s (guaranteed rate, excess weight, SLO override,
  hard rate limit) plus an optional shared excess budget.
* :class:`AdmissionController` — sheds a request at arrival when its
  predicted sojourn (the chosen shard's queued backlog, i.e. queue depth
  times the calibrated per-batch cost, plus the request's own estimated
  service time) would violate the workload's SLO.  A run with
  ``ServingConfig(record_decisions=True)`` (the default) records every
  decision in its report, so the prediction invariant (admit ⇔ predicted ≤
  SLO) is testable after the fact; with ``False`` no record is built, which
  bounds a 100k-request run's memory and leaves the verdicts unchanged.
  With tenant quotas configured the controller is
  tiered: a hard ``limit_rps`` cap sheds first; traffic within a tenant's
  ``guaranteed_rps`` token bucket is always admitted (quota conservation —
  a tenant inside its guarantee is never shed); the remainder rides the
  SLO prediction, and overloaded *excess* traffic is shed proportionally
  to each tenant's weighted share of the policy's ``excess_rps`` budget
  (weighted shedding) instead of first-come-first-served.
* :class:`Autoscaler` — grows or shrinks the active shard set from observed
  queue depth with hysteresis (several consecutive breaches are required
  before acting) and a warm-up penalty on newly activated shards (an AutoGNN
  shard must program its bitstreams before it can serve).

Everything here is pure simulated-time bookkeeping: no wall clock, no
randomness, so controlled runs are exactly reproducible.  The policies are
backend-agnostic: the one online event loop drives the same controller
objects with the same observation sequences on either backend
(:mod:`repro.serving.engine`), which keeps controlled runs byte-identical
across them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Tuple

from repro.serving.requests import DEFAULT_TENANT
from repro.system.workload import (
    QUALITY_DEGRADED, WorkloadProfile, check_count, check_degradation,
)


@dataclass(frozen=True)
class TenantQuota:
    """Rate/share quota of one tenant on a shared cluster.

    Attributes:
        guaranteed_rps: request rate the tenant is always entitled to.
            Traffic within this token bucket is admitted unconditionally —
            a tenant inside its guarantee is never shed, which is the quota
            conservation invariant the property tests pin (the operator is
            responsible for keeping the sum of guarantees within cluster
            capacity, like any oversubscription-free reservation scheme).
        weight: share of the policy's ``excess_rps`` budget this tenant gets
            when the cluster is overloaded (weighted shedding: excess
            traffic beyond the guarantee is admitted in proportion to
            weight, everything above that is shed).
        slo_seconds: per-tenant latency objective; overrides both the
            per-workload and default SLO when set.
        limit_rps: hard offered-rate cap; arrivals beyond it are shed even
            when the cluster is idle (``None`` disables the cap).
        burst_seconds: token-bucket depth, in seconds of accrual at the
            bucket's rate — a tenant may burst ``rate * burst_seconds``
            requests after an idle stretch before its steady rate applies.
            The credit is additionally clamped to
            :data:`MAX_BURST_TOKENS` requests, so a long-silent
            high-guarantee tenant cannot flood an unbounded instantaneous
            burst past its steady ``guaranteed_rps`` on return.
        no_degrade: a tenant that bought out of the degraded tier — its
            requests are never admitted at degraded quality (the degraded
            prediction tier is skipped; the verdict falls through to the
            excess budget / shed).  Full-quality admission is unaffected.
        degraded_utility: per-tenant floor on the SLO-weighted value of one
            degraded completion, in ``[0, 1]``.  Goodput scoring uses
            ``max(policy.degraded_utility, quota.degraded_utility)`` for the
            tenant (see :meth:`DegradationPolicy.utility_for`), so a paying
            tenant's degraded completions are never scored below its floor.
            ``None`` defers to the policy-wide knob.
    """

    guaranteed_rps: float = 0.0
    weight: float = 1.0
    slo_seconds: Optional[float] = None
    limit_rps: Optional[float] = None
    burst_seconds: float = 1.0
    no_degrade: bool = False
    degraded_utility: Optional[float] = None

    def __post_init__(self) -> None:
        # Negated comparisons (``not x > 0``, not ``x <= 0``) also reject NaN.
        if not self.guaranteed_rps >= 0:
            raise ValueError(
                f"guaranteed_rps must be a number >= 0, got {self.guaranteed_rps}"
            )
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError(f"weight must be a finite number > 0, got {self.weight}")
        if self.slo_seconds is not None and not self.slo_seconds > 0:
            raise ValueError(
                f"slo_seconds must be a number > 0 (inf: no objective), "
                f"got {self.slo_seconds}"
            )
        if self.limit_rps is not None and not self.limit_rps > 0:
            raise ValueError(
                f"limit_rps must be a number > 0 (None: no cap), got {self.limit_rps}"
            )
        if not (math.isfinite(self.burst_seconds) and self.burst_seconds > 0):
            raise ValueError(
                f"burst_seconds must be a finite number > 0, got {self.burst_seconds}"
            )
        if self.degraded_utility is not None and not 0.0 <= self.degraded_utility <= 1.0:
            raise ValueError("degraded_utility must be in [0, 1]")

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable form."""
        return {
            "guaranteed_rps": self.guaranteed_rps,
            "weight": self.weight,
            "slo_seconds": self.slo_seconds,
            "limit_rps": self.limit_rps,
            "burst_seconds": self.burst_seconds,
            "no_degrade": self.no_degrade,
            "degraded_utility": self.degraded_utility,
        }


#: Quota applied to tenants without an explicit entry: no guarantee, no cap,
#: unit weight — exactly the pre-tenancy admission behaviour.
DEFAULT_TENANT_QUOTA = TenantQuota()


@dataclass(frozen=True)
class SLOPolicy:
    """Per-workload latency objectives in simulated seconds, plus the
    per-tenant quota table of a multi-tenant cluster.

    Attributes:
        default_slo_seconds: objective applied to workloads without an override.
        per_workload: overrides keyed by ``WorkloadProfile.name``.
        per_tenant: :class:`TenantQuota` overrides keyed by tenant name;
            tenants without an entry get :data:`DEFAULT_TENANT_QUOTA`.
        excess_rps: operator-granted overflow budget shared by the
            *quota-listed* tenants' excess (beyond-guarantee) traffic
            during overload, split proportionally to quota weights
            (unlisted tenants get no slice — they would otherwise each
            mint a fresh budget).  0 (the default) sheds all overloaded
            excess traffic.
    """

    default_slo_seconds: float
    per_workload: Mapping[str, float] = field(default_factory=dict)
    per_tenant: Mapping[str, TenantQuota] = field(default_factory=dict)
    excess_rps: float = 0.0

    def __post_init__(self) -> None:
        # Negated comparisons (``not x > 0``, not ``x <= 0``) also reject
        # NaN; an infinite SLO is valid and never sheds.
        if not self.default_slo_seconds > 0:
            raise ValueError(
                f"default_slo_seconds must be a number > 0 (inf: no objective), "
                f"got {self.default_slo_seconds}"
            )
        for name, slo in self.per_workload.items():
            if not slo > 0:
                raise ValueError(
                    f"SLO for workload {name!r} must be a number > 0, got {slo}"
                )
        if not self.excess_rps >= 0:
            raise ValueError(f"excess_rps must be a number >= 0, got {self.excess_rps}")

    def quota_for(self, tenant: str) -> TenantQuota:
        """The quota of ``tenant`` (the permissive default when unlisted)."""
        return self.per_tenant.get(tenant, DEFAULT_TENANT_QUOTA)

    def slo_for(self, workload: WorkloadProfile, tenant: Optional[str] = None) -> float:
        """The latency objective of ``workload`` (tenant override wins)."""
        if tenant is not None:
            quota = self.per_tenant.get(tenant)
            if quota is not None and quota.slo_seconds is not None:
                return quota.slo_seconds
        return self.per_workload.get(workload.name, self.default_slo_seconds)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable form (overrides sorted for byte stability)."""
        return {
            "default_slo_seconds": self.default_slo_seconds,
            "per_workload": {k: self.per_workload[k] for k in sorted(self.per_workload)},
            "per_tenant": {
                k: self.per_tenant[k].as_dict() for k in sorted(self.per_tenant)
            },
            "excess_rps": self.excess_rps,
        }


@dataclass(frozen=True)
class DegradationPolicy:
    """Quality-latency degradation knobs for graceful overload handling.

    When admission predicts an SLO violation at full quality, the request is
    re-priced at a cheaper execution profile —
    :meth:`~repro.system.workload.WorkloadProfile.degrade` with these knobs —
    and admitted at the degraded tier when *that* prediction meets the SLO.
    Overload then has three outcomes (full, degraded, shed) instead of two.

    Attributes:
        k_factor: factor applied to the neighbours sampled per node
            (``k``), in ``(0, 1]``.
        min_k: lower clamp on the degraded ``k``.
        layer_drop: sampling hops removed from the degraded profile.
        min_layers: lower clamp on the degraded layer count.
        degraded_utility: SLO-weighted value of one degraded completion
            relative to a full-quality one, in ``[0, 1]`` — used by goodput
            scoring (``full + degraded_utility * degraded``), not by the
            admission verdict itself.
    """

    k_factor: float = 0.5
    min_k: int = 1
    layer_drop: int = 1
    min_layers: int = 1
    degraded_utility: float = 0.5

    def __post_init__(self) -> None:
        check_degradation(self.k_factor, self.min_k, self.layer_drop, self.min_layers)
        if not 0.0 <= self.degraded_utility <= 1.0:
            raise ValueError("degraded_utility must be in [0, 1]")

    def apply(self, workload: WorkloadProfile) -> WorkloadProfile:
        """The degraded execution profile of ``workload`` (idempotent)."""
        if workload.quality == QUALITY_DEGRADED:
            return workload
        return workload.degrade(
            k_factor=self.k_factor,
            min_k=self.min_k,
            layer_drop=self.layer_drop,
            min_layers=self.min_layers,
        )

    def utility_for(self, quota: Optional[TenantQuota]) -> float:
        """The effective degraded utility for a tenant under ``quota``.

        A quota's :attr:`TenantQuota.degraded_utility` is a *floor*: the
        tenant's degraded completions are scored at
        ``max(policy.degraded_utility, quota.degraded_utility)``, so a
        per-tenant override can only raise the value of degraded work,
        never silently discount a paying tenant below the policy-wide knob.
        """
        if quota is None or quota.degraded_utility is None:
            return self.degraded_utility
        return max(self.degraded_utility, quota.degraded_utility)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable form."""
        return {
            "k_factor": self.k_factor,
            "min_k": self.min_k,
            "layer_drop": self.layer_drop,
            "min_layers": self.min_layers,
            "degraded_utility": self.degraded_utility,
        }


@dataclass(frozen=True)
class AdmissionDecision:
    """One admission-control verdict, recorded at request arrival.

    Attributes:
        request_id: the request the verdict applies to.
        seconds: simulated arrival time at which the verdict was made.
        predicted_sojourn: backlog + estimated service time at that instant.
        slo_seconds: the workload's latency objective.
        admitted: whether the request entered the cluster.
        tenant: the requesting tenant.
        reason: which admission tier produced the verdict — ``"predicted"``
            / ``"overload"`` for the SLO prediction (the only tier of a
            quota-free policy), ``"guaranteed"`` for the tenant's guaranteed
            token bucket, ``"degraded"`` for the degraded-quality
            prediction, ``"weighted-excess"`` for the shared overflow
            budget and ``"rate-limit"`` for the hard per-tenant cap.
        degraded: whether the request was admitted at the degraded quality
            tier (``reason == "degraded"``); ``predicted_sojourn`` is then
            the degraded-profile prediction.
    """

    request_id: int
    seconds: float
    predicted_sojourn: float
    slo_seconds: float
    admitted: bool
    tenant: str = DEFAULT_TENANT
    reason: str = "predicted"
    degraded: bool = False


#: Hard cap on a token bucket's burst credit, in requests.  ``burst_seconds``
#: scales a bucket's depth with its rate (``rate * burst_seconds``), so
#: without an absolute ceiling a high-rate tenant that goes silent
#: accumulates an effectively unbounded instantaneous burst allowance and
#: floods far past its ``guaranteed_rps`` the moment it returns.  The clamp
#: bounds that post-idle flood while leaving every small-rate bucket (and
#: the steady-state refill behaviour) untouched.
MAX_BURST_TOKENS = 64.0


class _TokenBucket:
    """Deterministic token bucket (simulated time, no wall clock).

    Starts full, so a tenant gets its burst allowance immediately; refills
    continuously at ``rate`` tokens per simulated second up to ``capacity``
    (itself clamped to :data:`MAX_BURST_TOKENS` by the controller).
    """

    __slots__ = ("rate", "capacity", "tokens", "last_seconds")

    def __init__(self, rate: float, capacity: float, now_seconds: float) -> None:
        self.rate = rate
        self.capacity = capacity
        self.tokens = capacity
        self.last_seconds = now_seconds

    def take(self, now_seconds: float) -> bool:
        """Consume one token if available at ``now_seconds``."""
        elapsed = now_seconds - self.last_seconds
        if elapsed > 0:
            self.tokens = min(self.capacity, self.tokens + elapsed * self.rate)
            self.last_seconds = now_seconds
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


def _bucket(
    rate: Optional[float], burst_seconds: float, now_seconds: float
) -> Optional[_TokenBucket]:
    """A token bucket started at ``now_seconds`` (None without a rate)."""
    if rate is None or rate <= 0:
        return None
    capacity = max(1.0, min(rate * burst_seconds, MAX_BURST_TOKENS))
    return _TokenBucket(rate, capacity, now_seconds)


class AdmissionController:
    """Predictive, tenant-aware admission control against an :class:`SLOPolicy`.

    Without tenant quotas a request is admitted iff its predicted sojourn —
    the backlog of the least-loaded active shard (queue depth × calibrated
    per-batch cost, as accumulated in the shard's busy horizon) plus the
    request's own estimated service seconds — does not exceed its SLO.

    With quotas (``policy.per_tenant``) the verdict is tiered, in order:

    1. **rate limit** — a tenant above its hard ``limit_rps`` cap is shed
       regardless of load;
    2. **guaranteed** — traffic within the tenant's ``guaranteed_rps``
       token bucket is admitted unconditionally (a tenant inside its
       guarantee is never shed);
    3. **prediction** — remaining traffic is admitted when the predicted
       sojourn meets the (tenant-aware) SLO;
    4. **weighted excess** — overloaded excess traffic draws on the
       policy's shared ``excess_rps`` budget in proportion to quota
       weights; what the budget cannot cover is shed.  With the default
       budget of 0 every overloaded excess request is shed, which makes
       per-tenant shed counts proportional to each tenant's excess over its
       guarantee — weighted shedding instead of arrival-order shedding.

    All tiers are pure simulated-time bookkeeping on the arrival sequence,
    so both serving engines drive identical decisions.  :meth:`decide`
    returns the verdict as plain values, ``(admitted, degraded,
    predicted_sojourn, slo_seconds)``, and builds an
    :class:`AdmissionDecision` only for a ``log`` list it is handed.
    Whether the report logs the decisions and whether an estimate is priced
    at the marginal cost of joining a forming batch are the run's choices
    (``ServingConfig.record_decisions`` and ``batch_aware``): the serving
    loop makes both, because only it sees the open batches, and the
    controller only ever sees the estimates it is handed.

    ``degradation`` (a :class:`DegradationPolicy`) inserts a degraded-quality
    prediction tier between the full-quality prediction and the weighted
    excess budget: a request whose full-quality prediction violates the SLO
    is re-priced at its cheaper :meth:`DegradationPolicy.apply` profile and
    admitted *degraded* when that prediction fits.  The loops pass the
    degraded-profile estimate in (only they see the open batches); the
    controller owns the tier ordering and the verdict.  A tenant whose quota
    sets ``no_degrade`` has bought out of the tier: :meth:`degraded_profile`
    returns ``None`` for it and :meth:`decide` never admits it degraded.
    """

    def __init__(
        self,
        policy: SLOPolicy,
        degradation: Optional[DegradationPolicy] = None,
    ) -> None:
        self.policy = policy
        self.degradation = degradation
        # Per tenant, resolved at its first decision (when its buckets
        # start): ``(quota, limit bucket, guaranteed bucket, excess bucket,
        # SLO by workload name)``.  A bucket starts full, never holds more,
        # and sees decisions in time order, so starting the excess bucket
        # before its first use changes no verdict.
        self._tenants: Dict[str, tuple] = {}
        self._degraded_profiles: Dict[WorkloadProfile, Optional[WorkloadProfile]] = {}
        weights = [quota.weight for quota in policy.per_tenant.values()]
        self._total_weight = sum(weights) if weights else 1.0

    def degraded_profile(
        self, workload: WorkloadProfile, tenant: Optional[str] = None
    ) -> Optional[WorkloadProfile]:
        """The memoized degraded profile of ``workload`` for ``tenant``.

        ``None`` when no degradation policy is configured, when degrading
        would not change the execution (already at the floor), or when the
        tenant's quota sets :attr:`TenantQuota.no_degrade` — the loops then
        skip the degraded tier entirely for that request.  The memo is keyed
        by workload only; the tenant buy-out is a cheap table lookup.
        """
        if self.degradation is None:
            return None
        if tenant is not None and self.policy.quota_for(tenant).no_degrade:
            return None
        if workload not in self._degraded_profiles:
            degraded = self.degradation.apply(workload)
            cheaper = (degraded.k, degraded.num_layers) != (workload.k, workload.num_layers)
            self._degraded_profiles[workload] = degraded if cheaper else None
        return self._degraded_profiles[workload]

    def _tenant(self, tenant: str, now_seconds: float):
        """Resolve ``tenant``'s quota and start its buckets at
        ``now_seconds``, its first decision."""
        quota = self.policy.quota_for(tenant)
        # Only quota-listed tenants share the excess budget: an unlisted
        # tenant minting its own weight-1 slice would oversubscribe the
        # "shared" excess_rps by a full budget per tenant.
        excess_rate = self.policy.excess_rps * quota.weight / self._total_weight
        state = self._tenants[tenant] = (
            quota,
            _bucket(quota.limit_rps, quota.burst_seconds, now_seconds),
            _bucket(quota.guaranteed_rps, quota.burst_seconds, now_seconds),
            _bucket(
                excess_rate if tenant in self.policy.per_tenant else None,
                quota.burst_seconds,
                now_seconds,
            ),
            {},
        )
        return state

    def decide(
        self,
        request,
        now_seconds: float,
        backlog_seconds: float,
        service_estimate_seconds: float,
        degraded_estimate_seconds: Optional[float] = None,
        log: Optional[List[AdmissionDecision]] = None,
    ) -> Tuple[bool, bool, float, float]:
        """Admit or shed ``request`` given the cluster's current backlog.

        ``degraded_estimate_seconds`` — the estimated service seconds of the
        request's degraded profile, supplied by the serving loop when a
        degradation policy is configured — enables the degraded-quality
        prediction tier; ``None`` keeps the verdict binary (admit/shed).
        Returns ``(admitted, degraded, predicted_sojourn, slo_seconds)``
        and appends the verdict's :class:`AdmissionDecision` to ``log``
        when one is given.
        """
        backlog = max(backlog_seconds, 0.0)
        predicted = backlog + max(service_estimate_seconds, 0.0)
        tenant = request.tenant
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenant(tenant, now_seconds)
        quota, limit, guaranteed, excess, slos = state
        # ``slo_for`` depends only on the workload's name and the tenant.
        workload = request.workload
        slo = slos.get(workload.name)
        if slo is None:
            slo = slos[workload.name] = self.policy.slo_for(workload, tenant)
        degraded = False
        if limit is not None and not limit.take(now_seconds):
            admitted, reason = False, "rate-limit"
        elif guaranteed is not None and guaranteed.take(now_seconds):
            admitted, reason = True, "guaranteed"
        elif predicted <= slo:
            admitted, reason = True, "predicted"
        elif (
            degraded_estimate_seconds is not None
            and not quota.no_degrade
            and backlog + max(degraded_estimate_seconds, 0.0) <= slo
        ):
            predicted = backlog + max(degraded_estimate_seconds, 0.0)
            admitted, reason, degraded = True, "degraded", True
        elif excess is not None and excess.take(now_seconds):
            admitted, reason = True, "weighted-excess"
        else:
            admitted, reason = False, "overload"
        if log is not None:
            log.append(
                AdmissionDecision(
                    request.request_id, now_seconds, predicted, slo, admitted,
                    tenant, reason, degraded,
                )
            )
        return admitted, degraded, predicted, slo


@dataclass(frozen=True)
class ScalingEvent:
    """One autoscaler action on the active shard set.

    Attributes:
        seconds: simulated time of the action.
        active_shards: shard count in effect from this instant.
        reason: ``"init"``, ``"scale-up"`` or ``"scale-down"``.
        migrated: requests whose planned-but-unstarted batches were drained
            off the leaving shard and re-dispatched among the survivors
            (scale-down events on a draining scaler; 0 otherwise).
        completed: requests still in flight on the leaving shard at the
            scale-down instant, left to run to completion.
    """

    seconds: float
    active_shards: int
    reason: str
    migrated: int = 0
    completed: int = 0


class Autoscaler:
    """Queue-depth autoscaler with hysteresis and warm-up awareness.

    The event loop reports the observed queue depth (requests waiting in
    open batches plus requests in flight on the shards) at every arrival.
    When the per-active-shard depth stays above ``scale_up_depth`` for
    ``hysteresis_observations`` consecutive observations, one shard is
    activated; when it stays below ``scale_down_depth`` for as many
    observations, one is drained.  Depths inside the dead band reset both
    streaks, which is what makes the shard count stable under constant load.

    Args:
        min_shards: lower bound of the active set (>= 1).
        max_shards: upper bound of the active set (>= ``min_shards``).
        scale_up_depth: per-shard queue depth that starts an up streak.
        scale_down_depth: per-shard queue depth that starts a down streak
            (must be strictly below ``scale_up_depth`` to form a dead band).
        hysteresis_observations: consecutive breaches required to act.
        warmup_seconds: warm-up charged to a newly activated shard; ``None``
            defers to the shard's own ``warmup_seconds`` (bitstream load for
            the AutoGNN variants, 0 for the software baselines).
        drain: drain-and-migrate on voluntary scale-down (the default).
            The serving loops then defer commits through a
            :class:`~repro.serving.faults.DrainPlanner`: a scale-down hands
            the leaving shard's planned-but-unstarted backlog to the
            survivors, in-flight work runs to completion, and the event's
            ``migrated`` / ``completed`` counts are recorded via
            :meth:`record_drain`.  ``drain=False`` restores the drain-less
            commit-at-dispatch behaviour (the pre-drain baseline the
            elastic-scaling bench compares against).
    """

    def __init__(
        self,
        min_shards: int = 1,
        max_shards: int = 8,
        scale_up_depth: float = 4.0,
        scale_down_depth: float = 1.0,
        hysteresis_observations: int = 3,
        warmup_seconds: Optional[float] = None,
        drain: bool = True,
    ) -> None:
        check_count("min_shards", min_shards, 1)
        check_count("max_shards", max_shards, min_shards)
        check_count("hysteresis_observations", hysteresis_observations, 1)
        if not 0 <= scale_down_depth < scale_up_depth:
            raise ValueError(
                "scale_down_depth and scale_up_depth must be numbers with "
                "0 <= scale_down_depth < scale_up_depth, got "
                f"{scale_down_depth} and {scale_up_depth}"
            )
        if warmup_seconds is not None and not warmup_seconds >= 0:
            raise ValueError(
                "warmup_seconds must be a number >= 0 (None: the shard's own), "
                f"got {warmup_seconds}"
            )
        self.min_shards = min_shards
        self.max_shards = max_shards
        self.scale_up_depth = scale_up_depth
        self.scale_down_depth = scale_down_depth
        self.hysteresis_observations = hysteresis_observations
        self.warmup_seconds = warmup_seconds
        self.drain = drain
        self.active = min_shards
        self.events: List[ScalingEvent] = []
        self._above = 0
        self._below = 0

    def start(self, now_seconds: float = 0.0) -> int:
        """Reset to the initial active set and record the starting point."""
        self.active = self.min_shards
        self._above = 0
        self._below = 0
        self.events = [ScalingEvent(now_seconds, self.active, "init")]
        return self.active

    def observe(self, now_seconds: float, queue_depth: float) -> int:
        """Feed one queue-depth observation; returns the new active count."""
        per_shard = queue_depth / max(self.active, 1)
        if per_shard > self.scale_up_depth:
            self._above += 1
            self._below = 0
        elif per_shard < self.scale_down_depth:
            self._below += 1
            self._above = 0
        else:
            self._above = 0
            self._below = 0
        if self._above >= self.hysteresis_observations and self.active < self.max_shards:
            self.active += 1
            self._above = 0
            self._below = 0
            self.events.append(ScalingEvent(now_seconds, self.active, "scale-up"))
        elif self._below >= self.hysteresis_observations and self.active > self.min_shards:
            self.active -= 1
            self._above = 0
            self._below = 0
            self.events.append(ScalingEvent(now_seconds, self.active, "scale-down"))
        return self.active

    def record_drain(self, migrated: int, completed: int) -> None:
        """Attach drain outcomes to the most recent scaling event.

        The serving loops call this right after the scale-down they just
        observed: ``migrated`` planned requests re-picked a surviving
        shard, ``completed`` were in flight on the leaving shard and ran
        to completion.
        """
        if not self.events:
            return
        last = self.events[-1]
        self.events[-1] = replace(
            last,
            migrated=last.migrated + migrated,
            completed=last.completed + completed,
        )

    def timeline(self) -> List[ScalingEvent]:
        """The scaling history, oldest first."""
        return list(self.events)

