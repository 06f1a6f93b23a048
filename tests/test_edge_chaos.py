"""Edge chaos containment: serving faults never reach node commitments.

Each ``edge.*`` fault site runs at 100% probability through a serving
scenario (mirroring tests/test_chaos_degradation.py for the pipeline
sites).  The containment contract: a faulted request can only change
*that request's* response — per-block state roots and receipt cores
are byte-identical to the fault-free serving run, and no fault ever
surfaces as an uncaught exception.
"""

from __future__ import annotations

import pytest

from repro.edge import ScenarioConfig, build_scenario, run_serving
from repro.edge.faults import EDGE_SITES, edge_fault_plan
from repro.p2p.latency import LatencyModel
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.workloads.mixed import TrafficConfig


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


@pytest.mark.parametrize("site", EDGE_SITES)
def test_single_site_at_full_rate_is_contained(dataset, scenario,
                                               clean, site):
    plan = edge_fault_plan(seed=0, probability=1.0, sites=(site,))
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
    plan = edge_fault_plan(seed=seed, probability=0.3)
    runs = [run_serving(dataset, scenario, fault_plan=plan)
            for _ in range(2)]
    assert runs[0].trace_lines == runs[1].trace_lines
    assert (runs[0].injector.fire_summary()
            == runs[1].injector.fire_summary())


def test_all_sites_together_still_contained(dataset, scenario, clean):
    plan = edge_fault_plan(seed=3, probability=0.5)
    faulted = run_serving(dataset, scenario, fault_plan=plan)
    assert faulted.injector.total_fired() > 0
    assert faulted.server.c_internal_errors.value == 0
    assert faulted.commitments() == clean.commitments()
