"""Exact golden of DynPre's configuration choices.

``DynPreSystem.choose_config`` ranks the staged bitstream pairs with the
Table I cost model, keeps the top eight and picks among them and the loaded
pair with the bandwidth-aware latency model.  A refactor of either model can
reorder tied candidates or move a latency by one ulp without moving any
figure, so this module pins, per workload and loaded pair, the pick, the
ordered shortlist and the ``repr`` of every latency the pick compares.

The workloads are the eleven Table II datasets x merged batch sizes
{1000, 2000, 3000, 4000, 6000, 9000, 12000} x ``k`` in {1, 10} x layers in
{1, 2}: the serving loops merge requests into batches of several thousand
seeds.  The loaded pairs are the default configuration and the pair tuned
for MV (StatPre's).

The whole file is compared as text.  Regenerate after an *intentional*
model change with::

    PYTHONPATH=src python tests/test_dynpre_choice_golden.py --regen
"""

import json
import sys
from pathlib import Path

import pytest

from repro.core.bitstream import generate_bitstream_library
from repro.core.config import VPK180, scaled_default_config
from repro.graph.datasets import DATASETS
from repro.system.variants import DynPreSystem, tuned_config_for
from repro.system.workload import WorkloadProfile

GOLDEN_PATH = Path(__file__).parent / "golden" / "dynpre_choices.json"

BATCH_SIZES = (1000, 2000, 3000, 4000, 6000, 9000, 12000)
KS = (1, 10)
LAYERS = (1, 2)
SHORTLIST = 8


def _workloads():
    for key in DATASETS:
        for batch_size in BATCH_SIZES:
            for k in KS:
                for layers in LAYERS:
                    yield f"{key}/b{batch_size}/k{k}/l{layers}", WorkloadProfile.from_dataset(
                        key, k=k, batch_size=batch_size, num_layers=layers
                    )


def _loaded_pairs(library):
    return {
        "default": scaled_default_config(VPK180),
        "mv-tuned": tuned_config_for(WorkloadProfile.from_dataset("MV"), library),
    }


def _choice(system, workload):
    """``pick | shortlist keys | latencies of shortlist + loaded`` as one row."""
    pick = system.choose_config(workload)
    shortlist = system._shortlists[workload.to_cost_params()]
    compared = shortlist + [system.config]
    latencies = " ".join(repr(system._latency_with(config, workload)) for config in compared)
    return f"{pick.key()} | {' '.join(config.key() for config in shortlist)} | {latencies}"


def render() -> str:
    """The golden document for the current implementation."""
    library = generate_bitstream_library()
    workloads = list(_workloads())
    document = {
        "row": "pick | ordered top-8 shortlist | _latency_with of shortlist + loaded pair",
        "loaded": {},
    }
    for name, loaded in _loaded_pairs(library).items():
        system = DynPreSystem(library=library, config=loaded)
        document["loaded"][name] = {
            "config": loaded.key(),
            "choices": {label: _choice(system, workload) for label, workload in workloads},
        }
    return json.dumps(document, indent=1) + "\n"


def test_choices_match_golden_exactly():
    assert render() == GOLDEN_PATH.read_text(), (
        "a DynPre choice moved; if the change is intentional, regenerate with "
        "`PYTHONPATH=src python tests/test_dynpre_choice_golden.py --regen`"
    )


def test_golden_covers_every_workload():
    document = json.loads(GOLDEN_PATH.read_text())
    assert len(document["loaded"]) == 2
    for entry in document["loaded"].values():
        rows = entry["choices"]
        assert len(rows) == len(DATASETS) * len(BATCH_SIZES) * len(KS) * len(LAYERS)
        for row in rows.values():
            pick, shortlist, latencies = row.split(" | ")
            assert len(shortlist.split()) == SHORTLIST
            assert len(latencies.split()) == SHORTLIST + 1
            assert pick in shortlist.split() or pick == entry["config"]


if __name__ == "__main__":  # pragma: no cover
    if "--regen" in sys.argv:
        GOLDEN_PATH.write_text(render())
        print(f"wrote {GOLDEN_PATH}")
    else:
        sys.exit(pytest.main([__file__, "-q"]))
