"""The GNN service: preprocessing system + transfers + GPU inference.

This is the layer the end-to-end experiments run on.  A service pairs one
compared preprocessing system (CPU / GPU / GSamp / FPGA / AutoPre / StatPre /
DynPre) with the analytic GPU inference-latency model and produces the
end-to-end latency decomposition the paper's figures report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.metrics import EndToEndLatency
from repro.system.base import PreprocessingSystem, SystemLatency
from repro.baselines.cpu import CPUPreprocessingSystem
from repro.baselines.fpga_sampler import FPGASamplerSystem
from repro.baselines.gpu import GPUPreprocessingSystem
from repro.baselines.gsamp import GSampSystem
from repro.core.bitstream import generate_bitstream_library
from repro.gnn.inference import InferenceLatencyModel
from repro.system.power import EnergyReport, PowerModel
from repro.system.variants import AutoPreSystem, DynPreSystem, StatPreSystem, tuned_config_for
from repro.system.workload import WorkloadProfile


@dataclass
class ServiceReport:
    """End-to-end latency, energy and utilisation of one service pass.

    Attributes:
        system: name of the preprocessing system.
        workload: the workload the pass executed.
        latency: end-to-end latency decomposition.
        system_latency: the raw preprocessing-system report.
        energy: energy decomposition for the pass.
    """

    system: str
    workload: WorkloadProfile
    latency: EndToEndLatency
    system_latency: SystemLatency
    energy: EnergyReport

    @property
    def total_seconds(self) -> float:
        """End-to-end latency of the pass."""
        return self.latency.total

    @property
    def preprocessing_share(self) -> float:
        """Fraction of the pass spent on preprocessing and data movement."""
        return self.latency.preprocessing_share

    def breakdown(self) -> Dict[str, float]:
        """Flat component breakdown (task latencies, transfer, inference)."""
        return self.latency.as_dict()


class GNNService:
    """One deployable GNN inference service."""

    def __init__(
        self,
        preprocessing: PreprocessingSystem,
        inference: Optional[InferenceLatencyModel] = None,
        power_platform: Optional[str] = None,
    ) -> None:
        self.preprocessing = preprocessing
        self.inference = inference or InferenceLatencyModel()
        self.power = PowerModel(
            preprocessing_platform=power_platform or preprocessing.power_platform
        )
        # Calibrated per-batch cost estimates, keyed by (preprocessing state,
        # batch_key, batch_size): a post-reconfigure estimate must never reuse
        # a pre-reconfigure cost, so the system's state_key is part of the key.
        self._cost_cache: Dict[tuple, float] = {}
        # Modelled inference latency is pure in the workload's subgraph shape.
        self._inference_cache: Dict[tuple, float] = {}

    # ---------------------------------------------------------------- serving
    def inference_latency(self, workload: WorkloadProfile) -> float:
        """Modelled GPU inference latency for the workload's sampled subgraph.

        Memoized on the subgraph shape: the latency model is deterministic in
        (nodes, edges, dims, model), and rebuilding the model's FLOP profile
        per request dominated the per-pass cost of the serving loops.
        """
        key = (
            workload.model_name,
            workload.num_layers,
            workload.feature_dim,
            workload.sampled_nodes,
            workload.sampled_edges,
        )
        cached = self._inference_cache.get(key)
        if cached is None:
            cached = self.inference.latency_from_counts(
                num_nodes=workload.sampled_nodes,
                num_edges=workload.sampled_edges,
                hidden_dim=workload.feature_dim,
                num_layers=workload.num_layers,
                model_name=workload.model_name,
            )
            self._inference_cache[key] = cached
        return cached

    def serve(self, workload: WorkloadProfile) -> ServiceReport:
        """Model one end-to-end inference pass of ``workload``."""
        system_latency = self.preprocessing.evaluate(workload)
        inference_seconds = self.inference_latency(workload)
        latency = system_latency.end_to_end(inference_seconds)
        energy = self.power.energy(latency)
        return ServiceReport(
            system=self.preprocessing.name,
            workload=workload,
            latency=latency,
            system_latency=system_latency,
            energy=energy,
        )

    def estimate_service_seconds(self, workload: WorkloadProfile) -> float:
        """Calibrated end-to-end cost estimate of one pass, side-effect free.

        The admission controller multiplies queue depth by this per-batch
        cost to predict a request's sojourn before letting it in.  The
        estimate is one full pass (preprocessing, transfers and any
        reconfiguration) evaluated on a throwaway replica, so stateful
        systems are not perturbed, plus the modelled inference latency.  It
        is memoized per batch-compatible workload shape *and* per
        preprocessing state: a stateful system's pass depends on what is
        currently loaded (a DynPre replica starts from this service's
        configuration and may pay a reconfiguration), so an estimate taken
        after a reconfiguration must not reuse the cost cached before it.
        """
        key = (self.preprocessing.state_key(), workload.batch_key, workload.batch_size)
        if key not in self._cost_cache:
            self._cost_cache[key] = self.preprocessing.replicate().evaluate(
                workload
            ).total + self.inference_latency(workload)
        return self._cost_cache[key]

    def configured_for(self, workload: WorkloadProfile) -> bool:
        """Whether this service's preprocessing state already suits ``workload``."""
        return self.preprocessing.configured_for(workload)

    @property
    def warmup_seconds(self) -> float:
        """Latency to bring a fresh shard of this service online (bitstream load)."""
        return self.preprocessing.warmup_seconds

    def serve_many(self, workloads: List[WorkloadProfile]) -> List[ServiceReport]:
        """Model a sequence of passes over this service, in list order.

        Contract:

        * ``workloads`` must be non-empty (a ``ValueError`` is raised
          otherwise — an empty pass would silently produce no report and
          mask caller bugs).
        * Passes execute sequentially on this service's single preprocessing
          system, so stateful systems (e.g. DynPre's reconfiguration state)
          carry their state from one pass to the next.
        * Exactly one report is returned per workload, in input order.  A
          1-shard, batch-size-1 serving cluster over the same workloads
          reproduces this report list exactly (test-enforced).
        """
        if not workloads:
            raise ValueError("serve_many requires a non-empty workload list")
        return [self.serve(w) for w in workloads]

    def replicate(self) -> "GNNService":
        """A fresh service over a replicated preprocessing system.

        The replica shares the stateless inference-latency model but gets
        its own preprocessing-system instance (per-shard bitstream/LUT
        state) and inherits this service's power platform.  The sharded
        serving cluster builds its shards with :meth:`replicas`.
        """
        return self.replicas(1)[0]

    def replicas(self, count: int) -> List["GNNService"]:
        """``count`` replicas for one serving cluster's shards.

        Like :meth:`replicate`, over ``PreprocessingSystem.replicas``: the
        replicas may share pure preprocessing memos with each other, never
        with this service.
        """
        return [
            GNNService(
                preprocessing,
                inference=self.inference,
                power_platform=self.power.preprocessing_platform,
            )
            for preprocessing in self.preprocessing.replicas(count)
        ]


def build_reference_systems(
    tuning_workload: Optional[WorkloadProfile] = None,
) -> Dict[str, PreprocessingSystem]:
    """The seven compared systems of Fig. 18, keyed by the paper's labels.

    ``tuning_workload`` fixes the configuration of AutoPre and StatPre (the
    paper tunes them for the MV dataset); DynPre starts from the same
    configuration and reconfigures per dataset.
    """
    if tuning_workload is None:
        tuning_workload = WorkloadProfile.from_dataset("MV")
    library = generate_bitstream_library()
    tuned = tuned_config_for(tuning_workload, library)
    return {
        "CPU": CPUPreprocessingSystem(),
        "GPU": GPUPreprocessingSystem(),
        "GSamp": GSampSystem(),
        "FPGA": FPGASamplerSystem(),
        "AutoPre": AutoPreSystem(config=tuned),
        "StatPre": StatPreSystem(config=tuned),
        "DynPre": DynPreSystem(library=library, config=tuned),
    }


def build_services(
    tuning_workload: Optional[WorkloadProfile] = None,
) -> Dict[str, GNNService]:
    """GNN services wrapping each of the seven compared systems."""
    return {
        name: GNNService(system)
        for name, system in build_reference_systems(tuning_workload).items()
    }
