"""Cluster failure-domain topology: shards grouped into racks / power domains.

Real outages are correlated — a rack loses power, a top-of-rack switch
drops, a PDU trips — and every shard behind the failed element goes down
*together*.  :class:`ClusterTopology` gives the serving stack a first-class
model of that blast radius: a named partition of the shard ids into
failure domains.  It feeds three consumers:

* **fault injection** — :class:`~repro.serving.faults.FaultSchedule` accepts
  domain-level ``crash_domain`` / ``recover_domain`` events that expand to
  per-shard events, and :class:`~repro.serving.faults.RandomFaults` with
  ``correlated=`` generates seeded whole-domain outages;
* **placement** — :meth:`activation_order` linearises the shards so the
  autoscaler's active prefix spreads across domains instead of filling one
  rack first, and locality dispatch hashes request keys to a *domain*
  before picking a member shard;
* **reporting** — :class:`~repro.serving.faults.FaultStats` aggregates
  outage intervals per domain for the cluster report / timeline renderer.

The topology is a strict partition: every shard id in ``range(num_shards)``
appears in exactly one domain, and domain names are unique and non-empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple


@dataclass(frozen=True)
class ClusterTopology:
    """A partition of shard ids into named failure domains.

    Attributes:
        domains: mapping of domain name to the sorted tuple of member shard
            ids.  Together the domains must cover ``range(num_shards)``
            exactly once.
    """

    domains: Mapping[str, Tuple[int, ...]]
    _domain_of: Dict[int, str] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if not self.domains:
            raise ValueError("topology needs at least one failure domain")
        normalized: Dict[str, Tuple[int, ...]] = {}
        domain_of: Dict[int, str] = {}
        for name, members in self.domains.items():
            if not isinstance(name, str) or not name:
                raise ValueError(f"domain name must be a non-empty string, got {name!r}")
            shard_ids = tuple(sorted(int(s) for s in members))
            if not shard_ids:
                raise ValueError(f"domain {name!r} has no member shards")
            for shard_id in shard_ids:
                if shard_id < 0:
                    raise ValueError(
                        f"domain {name!r} member {shard_id} must be non-negative"
                    )
                if shard_id in domain_of:
                    raise ValueError(
                        f"shard {shard_id} appears in domains "
                        f"{domain_of[shard_id]!r} and {name!r}"
                    )
                domain_of[shard_id] = name
            normalized[name] = shard_ids
        covered = sorted(domain_of)
        if covered != list(range(len(covered))):
            raise ValueError(
                f"domains must partition range({len(covered)}) exactly; got shard "
                f"ids {covered}"
            )
        object.__setattr__(self, "domains", normalized)
        object.__setattr__(self, "_domain_of", domain_of)

    # ------------------------------------------------------------- accessors
    @property
    def num_shards(self) -> int:
        return len(self._domain_of)

    @property
    def num_domains(self) -> int:
        return len(self.domains)

    @property
    def domain_names(self) -> Tuple[str, ...]:
        """Domain names in declaration order (dict order is preserved)."""
        return tuple(self.domains)

    def domain_of(self, shard_id: int) -> str:
        """The failure domain that shard ``shard_id`` belongs to."""
        try:
            return self._domain_of[shard_id]
        except KeyError:
            raise ValueError(
                f"shard {shard_id} is outside this topology "
                f"(num_shards={self.num_shards})"
            ) from None

    def shards_in(self, domain: str) -> Tuple[int, ...]:
        """Sorted member shard ids of ``domain``."""
        try:
            return self.domains[domain]
        except KeyError:
            raise ValueError(
                f"unknown failure domain {domain!r}; expected one of "
                f"{sorted(self.domains)}"
            ) from None

    def validate_for(self, num_shards: int) -> None:
        """Raise unless this topology covers exactly ``num_shards`` shards."""
        if self.num_shards != num_shards:
            raise ValueError(
                f"topology covers {self.num_shards} shards but the cluster has "
                f"{num_shards}"
            )

    # ------------------------------------------------------------- placement
    def activation_order(self) -> Tuple[int, ...]:
        """Linearise the shards for autoscaler activation.

        The order round-robins across the domains in declaration order so
        any active prefix spans as many failure domains as possible — the
        k-th activated shard is the ``k // num_domains``-th member of the
        ``k % num_domains``-th domain (skipping exhausted domains).
        """
        pools: List[List[int]] = [list(members) for members in self.domains.values()]
        order: List[int] = []
        cursor = 0
        while len(order) < self.num_shards:
            pool = pools[cursor % len(pools)]
            if pool:
                order.append(pool.pop(0))
            cursor += 1
        return tuple(order)

    # ------------------------------------------------------------- factories
    @staticmethod
    def uniform(num_shards: int, num_domains: int, prefix: str = "rack") -> "ClusterTopology":
        """Contiguous equal-ish blocks: ``rack0 = {0, 1}, rack1 = {2, 3}, ...``

        The first ``num_shards % num_domains`` domains get one extra shard.
        """
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if not 0 < num_domains <= num_shards:
            raise ValueError(
                f"num_domains must be in [1, num_shards={num_shards}], got {num_domains}"
            )
        base, extra = divmod(num_shards, num_domains)
        domains: Dict[str, Tuple[int, ...]] = {}
        start = 0
        for index in range(num_domains):
            size = base + (1 if index < extra else 0)
            domains[f"{prefix}{index}"] = tuple(range(start, start + size))
            start += size
        return ClusterTopology(domains)

    # ------------------------------------------------------------- reporting
    def as_dict(self) -> Dict[str, List[int]]:
        """JSON-friendly ``{domain: [shard ids]}`` in declaration order."""
        return {name: list(members) for name, members in self.domains.items()}

    @staticmethod
    def from_dict(data: Mapping[str, Sequence[int]]) -> "ClusterTopology":
        """Inverse of :meth:`as_dict` (used by chaos artifact replay)."""
        return ClusterTopology({name: tuple(members) for name, members in data.items()})
