"""The five workloads: inputs built from ``--seed``, sized by ``--seconds``.

``--seed`` reaches only the generators below; the program sees nothing
but the dataset / scenario they return.  The simulated *network* —
miners, PoW schedule, gossip RNG — is held fixed (``NETWORK_SEED``) so
every seed has the same block times: block count and block size would
otherwise swing per-block metrics by 2x between seeds.  Traffic
(senders, amounts, kinds, arrival times) is what the seed varies.

Sizes are calibrated so that ``--seconds 10`` is about 10 s of timed
work per workload on a 2-core sandbox, and scale linearly with it.
"""

from __future__ import annotations

import os
import shutil
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, partial
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from repro.edge.clients import ScenarioConfig, build_scenario
from repro.fleet.serve import send_storm_scenario
from repro.fleet.supervisor import FleetConfig
from repro.fleet.wire import WireConfig
from repro.p2p.latency import LatencyModel
from repro.sim.recorder import DatasetConfig, record_dataset
from repro.workloads.mixed import MixedWorkload, TrafficConfig

from . import ROOT
from .loops import OBSERVER, FleetSystem, NodeSystem

NETWORK_SEED = 2021
#: Scratch space inside the checkout (journals, traces, reports).
OUT_DIR = ROOT / "perf" / "out"

WORKLOADS: Dict[str, str] = {
    "replay_defi":
        "The paper's L1 shape: DeFi traffic heard over gossip, so the "
        "speculation pipeline does almost all the work and blocks "
        "commit on the AP/JIT tiers; edge, fleet and wire are idle.",
    "replay_compute":
        "The same driver with a few long-trace compute transactions "
        "(Fig. 12's tail): build_shortcuts, translate and JIT compile "
        "of large APs dominate, 100x the cost of a DeFi job.",
    "replay_unheard":
        "The bypass: the DeFi blocks on a node that never hears a "
        "transaction, so interpreter, executor, StateDB and trie root "
        "do all the work and speculation changes must show no change.",
    "serve_mixed":
        "Reads beside writes on one node: receipts, eth_call "
        "(memo/AP/plain), traces and sends through one EdgeServer "
        "while the node replays and speculates; no wire plane.",
    "fleet_storm":
        "The write path at overload: a send storm through router, wire "
        "envelopes, shard pool and per-shard journals of a 4-shard "
        "fleet; half the frames are refused by backpressure by design.",
}


@dataclass
class Inputs:
    """One workload's generated inputs plus how to build its system."""

    dataset: object
    make_system: Callable[[], object]
    scenario: List = field(default_factory=list)
    heard: bool = True
    #: Whole passes to repeat (``replay_unheard`` only; each pass gets
    #: a fresh system).
    passes: int = 1
    #: Wall spent inside the named generators during this build.
    generator_s: Dict[str, float] = field(default_factory=dict)


def _traffic(duration: float, traffic_seed: int,
             compute_rate: float = 0.0) -> TrafficConfig:
    return TrafficConfig(duration=duration, compute_rate=compute_rate,
                         seed=traffic_seed)


def _record(duration: float, traffic_seed: int, compute_rate: float = 0.0):
    return record_dataset(DatasetConfig(
        traffic=_traffic(duration, traffic_seed, compute_rate),
        observers={OBSERVER: LatencyModel(median=1.3, sigma=0.5)},
        seed=NETWORK_SEED))


def _near(value: float, expected: float, tolerance: float) -> bool:
    return abs(value - expected) <= tolerance * expected


def _profile(stream) -> Tuple[int, int, List[int]]:
    """``(txs, registerMany items, compute rounds per tx)`` of a
    generated stream, read back from the gas limits the workloads set:
    ``100_000 + 60_000 * items`` for a registry batch (a single
    registration has 180_000), ``200_000 + 40_000 * rounds`` for
    compute."""
    items, rounds = 0, []
    for timed in stream:
        gas = timed.tx.gas_limit
        if timed.kind == "registry" and gas != 180_000:
            items += (gas - 100_000) // 60_000
        elif timed.kind == "compute":
            rounds.append((gas - 200_000) // 40_000)
    return len(stream), items, rounds


@lru_cache(maxsize=None)
def _reference_rates() -> Tuple[float, float]:
    """Long-run ``(txs, registerMany items)`` per simulated second of
    the default DeFi mix, from one long reference stream."""
    duration = 4000.0
    _, stream = MixedWorkload(
        _traffic(duration, NETWORK_SEED)).generate()
    txs, items, _ = _profile(stream)
    return txs / duration, items / duration


def _heads_pending(dataset, tx_hash: int) -> int:
    """Blocks the observer sees between hearing ``tx_hash`` and its
    inclusion, plus one; 0 when it is never heard, never included, or
    heard only after its block.  The node speculates 4 contexts per
    head a transaction is pending for."""
    heard = next((at for at, tx in dataset.tx_arrivals[OBSERVER]
                  if tx.hash == tx_hash), float("inf"))
    arrivals = [at for at, _ in dataset.blocks]
    included = next((index for index, (_, block)
                     in enumerate(dataset.blocks)
                     if any(tx.hash == tx_hash
                            for tx in block.transactions)), None)
    if included is None or heard >= arrivals[included]:
        return 0
    return 1 + sum(1 for at in arrivals[:included] if at > heard)


@lru_cache(maxsize=None)
def _traffic_seed(duration: float, compute_rate: float, seed: int) -> int:
    """The first traffic seed derived from ``seed`` whose stream is a
    *typical* draw in the few properties that swing total work.

    Between seeds, work per transaction is chaotic enough already
    (which contexts get speculated); on top of that, two inputs move a
    10 s workload's wall by 10-50%: the Poisson transaction count and
    the heavy-tailed ``registerMany`` batches (7% of transactions, a
    third of all traced instructions).  Both are held within a few
    percent of their long-run rates.  With compute traffic, one job
    costs ~100x a DeFi job, grows faster than linearly in its rounds
    (uniform 50-150) and runs 4x per head the transaction is pending
    for, so the compute count, the first two moments of the rounds and
    one-head pending are held too (2.3-8.9 s over ten seeds without).
    Everything else about the traffic is the seed's.  A candidate
    stream costs 5-10 ms to generate; only the few that pass the
    stream checks are recorded to check the heads.
    """
    txs_per_s, items_per_s = _reference_rates()
    want_compute = round(duration * compute_rate)
    for attempt in range(50_000):
        candidate = seed * 1_000_003 + attempt
        _, stream = MixedWorkload(
            _traffic(duration, candidate, compute_rate)).generate()
        txs, items, rounds = _profile(stream)
        if not _near(txs, (txs_per_s + compute_rate) * duration, 0.04):
            continue
        if not compute_rate:
            if _near(items, items_per_s * duration, 0.06):
                return candidate
            continue
        # Uniform 50..150: E[r] = 100, E[r^2] = 10_850.
        if len(rounds) != want_compute \
                or not _near(sum(rounds), 100 * want_compute, 0.05) \
                or not _near(sum(r * r for r in rounds),
                             10_850 * want_compute, 0.10):
            continue
        dataset = _record(duration, candidate, compute_rate)
        if all(_heads_pending(dataset, tx_hash) == 1
               for tx_hash, kind in dataset.kinds.items()
               if kind == "compute"):
            return candidate
    raise RuntimeError("no typical traffic seed found")


#: Simulated seconds of traffic and compute txs per second, per
#: workload, at ``--seconds 10``.
TRAFFIC: Dict[str, Tuple[float, float]] = {
    "replay_defi": (200.0, 0.0),
    "replay_compute": (27.0, 4 / 27.0),
    "replay_unheard": (200.0, 0.0),
    "serve_mixed": (90.0, 0.0),
    "fleet_storm": (35.0, 0.0),
}


def build(workload: str, seed: int, scale: float) -> Inputs:
    """Generate ``workload``'s inputs for ``seed`` at ``scale``
    (``--seconds / 10``)."""
    if workload not in TRAFFIC:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    generator_s: Dict[str, float] = {}

    def timed(name: str, generator: Callable, *args, **kwargs):
        start = perf_counter()
        made = generator(*args, **kwargs)
        generator_s[name] = perf_counter() - start
        return made

    duration, rate = TRAFFIC[workload][0] * scale, TRAFFIC[workload][1]
    dataset = timed("sim.record_dataset_s", _record, duration,
                    _traffic_seed(duration, rate, seed), rate)
    inputs = Inputs(dataset, make_system=partial(NodeSystem, dataset),
                    generator_s=generator_s)
    if workload == "replay_unheard":
        inputs.heard, inputs.passes = False, max(2, round(30 * scale))
    elif workload == "serve_mixed":
        inputs.scenario = timed(
            "edge.clients.build_scenario_s", build_scenario, dataset,
            ScenarioConfig(seed=seed, load=1.0, clients=48))
        inputs.make_system = partial(NodeSystem, dataset, edge=True)
    elif workload == "fleet_storm":
        inputs.scenario = timed(
            "edge.clients.build_scenario_s", send_storm_scenario,
            seed=seed, rate_per_second=600, duration=20.0 * scale)
        inputs.make_system = partial(_fleet_system, dataset)
    return inputs


def _journal_dir():
    """Per-process, so concurrent runs in one checkout do not collide."""
    return OUT_DIR / "journals" / str(os.getpid())


def _fleet_system(dataset) -> FleetSystem:
    """4 shards over the wire plane on a clean network, journals on
    disk inside the checkout (a fresh directory per system)."""
    remove_journals()
    _journal_dir().mkdir(parents=True)
    return FleetSystem(dataset, FleetConfig(
        shards=4, wire=WireConfig(), journal_dir=str(_journal_dir())))


def remove_journals() -> None:
    shutil.rmtree(_journal_dir(), ignore_errors=True)


def describe(inputs: Inputs) -> dict:
    """Deterministic facts about generated inputs, for the report."""
    dataset = inputs.dataset
    by_kind = Counter(dataset.kinds.get(tx.hash, "?")
                      for _, block in dataset.blocks
                      for tx in block.transactions)
    return {"txs_by_kind": dict(sorted(by_kind.items())),
            "blocks": len(dataset.blocks),
            "txs": dataset.tx_count,
            "gossiped": len(dataset.tx_arrivals[OBSERVER]),
            "requests": len(inputs.scenario),
            "passes": inputs.passes}
