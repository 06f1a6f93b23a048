"""Traffic recorder: generates a dataset of timed transactions + blocks.

Plays the role of the paper's dedicated recorder node (§5.4): it
captures "all the pending transactions and the blocks ... with precise
timings".  Here the worldwide network itself is simulated — workload
generators produce transactions, a gossip model disseminates them, a
PoW schedule selects miners, and each miner packs blocks from its own
view of the pool.  The result is a :class:`Dataset` that the emulator
replays faithfully into evaluation nodes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.chain.block import Block, BlockHeader
from repro.chain.transaction import Transaction
from repro.consensus.miner import Miner
from repro.consensus.pow import PowSchedule
from repro.constants import DEFAULT_BLOCK_GAS_LIMIT
from repro.evm.interpreter import EVM
from repro.p2p.gossip import GossipNetwork
from repro.p2p.latency import LatencyModel
from repro.state.statedb import StateDB
from repro.state.world import WorldState
from repro.workloads.mixed import MixedWorkload, TimedTx, TrafficConfig

MINERS = 8
#: Zipf-ish hash power skew exponent (no miner dominates).
HASH_POWER_SKEW = 0.7
#: Probability a height produces a competing (temporary-fork) block.
FORK_PROBABILITY = 0.07
#: Block propagation delay to observers (seconds).
BLOCK_PROPAGATION = 0.8
#: Extra seconds after traffic stops, to drain the pool.
DRAIN_SECONDS = 45.0


@dataclass
class DatasetConfig:
    """Shape of one recorded period."""

    name: str = "L1"
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    mean_block_interval: float = 13.0
    #: Observer gossip models (name -> latency).  The same network can
    #: be observed through different connections (L1 vs R1, §5.1).
    observers: Dict[str, LatencyModel] = field(default_factory=dict)
    seed: int = 2021


@dataclass
class Dataset:
    """A recorded traffic period, replayable by the emulator."""

    name: str
    config: DatasetConfig
    genesis_world: WorldState
    genesis_block: Block
    #: Canonical blocks with observer arrival times, in order.
    blocks: List[Tuple[float, Block]]
    #: Temporary-fork blocks (never executed; counted like Table 1).
    fork_blocks: List[Tuple[float, Block]]
    #: Per-observer transaction arrival streams (time-sorted).
    tx_arrivals: Dict[str, List[Tuple[float, Transaction]]]
    #: All generated transactions with workload labels.
    all_txs: List[TimedTx]
    #: tx hash -> workload kind.
    kinds: Dict[int, str]

    @property
    def block_count(self) -> int:
        """Blocks including temporary forks (Table 1 convention)."""
        return len(self.blocks) + len(self.fork_blocks)

    @property
    def tx_count(self) -> int:
        return sum(len(b.transactions) for _, b in self.blocks)

    def block_number_range(self) -> Tuple[int, int]:
        if not self.blocks:
            return (0, 0)
        return (self.blocks[0][1].number, self.blocks[-1][1].number)


def _hash_powers(count: int, skew: float) -> Dict[int, float]:
    from repro.workloads.base import MINER_BASE
    return {
        MINER_BASE + i: 1.0 / ((i + 1) ** skew)
        for i in range(count)
    }


def record_dataset(config: Optional[DatasetConfig] = None) -> Dataset:
    """Generate one traffic period and record it."""
    config = config or DatasetConfig()
    rng = random.Random(config.seed)

    hash_power = _hash_powers(MINERS, HASH_POWER_SKEW)
    miner_ids = list(hash_power)
    traffic = config.traffic
    if not traffic.miner_ids:
        traffic.miner_ids = tuple(miner_ids)

    workload = MixedWorkload(traffic)
    genesis_world, stream = workload.generate()
    kinds = {timed.tx.hash: timed.kind for timed in stream}

    # Dissemination: arrival times per miner and per observer.
    observers = dict(config.observers)
    if not observers:
        observers = {"live": LatencyModel()}
    gossip = GossipNetwork(miner_ids=miner_ids, seed=config.seed + 1)
    for name, model in observers.items():
        gossip.add_observer(name, model)

    miners = {
        miner_id: Miner(
            miner_id=miner_id,
            clock_skew=rng.uniform(-2.0, 6.0),
            gas_limit=DEFAULT_BLOCK_GAS_LIMIT,
            seed=config.seed + index,
        )
        for index, miner_id in enumerate(miner_ids)
    }
    tx_arrivals: Dict[str, List[Tuple[float, Transaction]]] = {
        name: [] for name in observers
    }
    for timed in stream:
        dissemination = gossip.disseminate(timed.tx, timed.time)
        for miner_id, arrival in dissemination.miner_arrivals.items():
            miners[miner_id].hear(timed.tx, arrival)
        for name, arrival in dissemination.observer_arrivals.items():
            if arrival != float("inf"):
                tx_arrivals[name].append((arrival, timed.tx))
    for arrivals in tx_arrivals.values():
        arrivals.sort(key=lambda item: item[0])

    # Mining + truth execution.
    genesis_header = BlockHeader(number=0, timestamp=0, coinbase=0)
    genesis_block = Block(header=genesis_header)
    # Root first, copy second: every later ``genesis_world.copy()``
    # (each replay, node and replica) inherits the commitment instead
    # of re-hashing the whole genesis state at its first root().
    genesis_block.state_root = genesis_world.root()
    truth_world = genesis_world.copy()

    schedule = PowSchedule(hash_power,
                           mean_interval=config.mean_block_interval,
                           seed=config.seed + 2)
    blocks: List[Tuple[float, Block]] = []
    fork_blocks: List[Tuple[float, Block]] = []
    packed: Set[int] = set()
    parent = genesis_block
    now = 0.0
    end_time = traffic.duration + DRAIN_SECONDS
    while True:
        now, winner = schedule.next_block(now)
        if now >= end_time:
            break
        next_nonces = {
            address: account.nonce
            for address, account in truth_world.accounts().items()
        }
        block = miners[winner].build_block(now, parent, next_nonces, packed)
        # Execute on the truth world to stamp the post-state root.
        state = StateDB(truth_world)
        for tx in block.transactions:
            EVM(state, block.header, tx).execute_transaction()
        state.commit()
        block.state_root = truth_world.root()
        blocks.append((now + BLOCK_PROPAGATION, block))
        # Temporary fork: a competing miner found a same-height block
        # that lost the race — built from ITS view, without knowledge of
        # the winner (overlapping contents, like real uncles).
        if schedule.uniform() < FORK_PROBABILITY:
            rival_id = schedule.competing_miner(winner)
            rival = miners[rival_id].build_block(
                now + 0.4, parent, next_nonces, packed)
            fork_blocks.append((now + 0.4 + BLOCK_PROPAGATION, rival))
        packed.update(tx.hash for tx in block.transactions)
        parent = block

    return Dataset(
        name=config.name,
        config=config,
        genesis_world=genesis_world,
        genesis_block=genesis_block,
        blocks=blocks,
        fork_blocks=fork_blocks,
        tx_arrivals=tx_arrivals,
        all_txs=stream,
        kinds=kinds,
    )
