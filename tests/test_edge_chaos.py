"""Edge chaos containment: serving faults never reach node commitments.

Each site of the table's ``edge`` layer runs at its sweep rate through
a serving scenario (mirroring tests/test_chaos_degradation.py for the
pipeline layer).  The containment contract: a faulted request can only
change *that request's* response — per-block state roots and receipt
cores are byte-identical to the fault-free serving run, and no fault
ever surfaces as an uncaught exception.
"""

from __future__ import annotations

import pytest

from repro.edge import ScenarioConfig, build_scenario, run_serving
from repro.faults.injector import FaultPlan
from repro.faults.sites import layer_sites
from repro.p2p.latency import LatencyModel
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.workloads.mixed import TrafficConfig

from tests.conftest import sweep_params


@pytest.fixture(scope="module")
def dataset():
    return record_dataset(DatasetConfig(
        name="edge-chaos-test",
        traffic=TrafficConfig(duration=12.0, seed=2021),
        observers={"live": LatencyModel()},
        seed=2021))


@pytest.fixture(scope="module")
def scenario(dataset):
    return build_scenario(dataset, ScenarioConfig(seed=0, load=2.0))


@pytest.fixture(scope="module")
def clean(dataset, scenario):
    return run_serving(dataset, scenario)


@pytest.mark.parametrize(**sweep_params("edge", seed=0))
def test_single_site_at_full_rate_is_contained(dataset, scenario,
                                               clean, site, plan):
    faulted = run_serving(dataset, scenario, fault_plan=plan)
    # The site genuinely fired ...
    assert faulted.injector.fired(site) > 0, site
    # ... every fault surfaced as a structured response, never an
    # uncaught exception ...
    assert faulted.server.c_internal_errors.value == 0
    # ... and node commitments are byte-identical to the clean run.
    assert faulted.commitments() == clean.commitments(), site


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_faulted_serving_is_deterministic(dataset, scenario, seed):
    plan = FaultPlan.uniform(seed, 0.3, sites=layer_sites("edge"))
    runs = [run_serving(dataset, scenario, fault_plan=plan)
            for _ in range(2)]
    assert runs[0].trace_lines == runs[1].trace_lines
    assert (runs[0].injector.fire_summary()
            == runs[1].injector.fire_summary())


def test_all_sites_together_still_contained(dataset, scenario, clean):
    plan = FaultPlan.uniform(3, 0.5, sites=layer_sites("edge"))
    faulted = run_serving(dataset, scenario, fault_plan=plan)
    assert faulted.injector.total_fired() > 0
    assert faulted.server.c_internal_errors.value == 0
    assert faulted.commitments() == clean.commitments()
