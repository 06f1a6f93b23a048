"""Traffic composer: mixes workloads into one nonce-consistent stream."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chain.transaction import Transaction
from repro.state.world import WorldState
from repro.workloads.auctions import AuctionWorkload
from repro.workloads.base import SENDER_BASE, TxIntent, fund_senders, \
    poisson_times
from repro.workloads.compute import ComputeWorkload
from repro.workloads.deployments import DeploymentWorkload
from repro.workloads.dex import DexWorkload
from repro.workloads.gasprice import GasPriceModel
from repro.workloads.lending import LendingWorkload
from repro.workloads.names import RegistryWorkload
from repro.workloads.oracle import OracleWorkload
from repro.workloads.tokens import TokenWorkload

#: Funded accounts per workload.
DEX_TRADERS = 25
REGISTRY_USERS = 20
LENDING_USERS = 15
#: Fraction of transactions submitted privately to a miner.
PRIVATE_FRACTION = 0.02


@dataclass
class TrafficConfig:
    """Shape of one generated traffic period."""

    duration: float = 600.0
    seed: int = 42
    oracle_feeds: int = 2
    oracle_reporters: int = 5
    token_holders: int = 60
    token_rate: float = 1.2
    dex_rate: float = 0.5
    auction_rate: float = 0.15
    registry_rate: float = 0.25
    lending_rate: float = 0.2
    compute_rate: float = 0.04
    deploy_rate: float = 0.01
    #: Plain ETH transfer rate (transactions/second).
    eth_transfer_rate: float = 0.6
    eth_senders: int = 30
    miner_ids: Tuple[int, ...] = ()


@dataclass
class TimedTx:
    """A fully-formed transaction with its creation time."""

    time: float
    tx: Transaction
    kind: str


class MixedWorkload:
    """Builds (genesis world, timed transaction stream) pairs."""

    def __init__(self, config: Optional[TrafficConfig] = None) -> None:
        self.config = config or TrafficConfig()
        self.prices = GasPriceModel()
        self.oracle = OracleWorkload(
            feeds=self.config.oracle_feeds,
            reporters_per_feed=self.config.oracle_reporters)
        self.tokens = TokenWorkload(
            holders=self.config.token_holders, rate=self.config.token_rate)
        self.dex = DexWorkload(traders=DEX_TRADERS,
                               rate=self.config.dex_rate)
        self.auctions = AuctionWorkload(
            rate=self.config.auction_rate,
            horizon=self.config.duration * 2)
        self.registry = RegistryWorkload(users=REGISTRY_USERS,
                                         rate=self.config.registry_rate)
        self.lending = LendingWorkload(users=LENDING_USERS,
                                       rate=self.config.lending_rate)
        self.compute = ComputeWorkload(rate=self.config.compute_rate)
        self.deployments = DeploymentWorkload(rate=self.config.deploy_rate)
        self.eth_senders: List[int] = []

    def build_world(self) -> WorldState:
        """Genesis world with every contract deployed and account funded."""
        world = WorldState()
        self.oracle.prepare(world)
        self.tokens.prepare(world)
        self.dex.prepare(world)
        self.auctions.prepare(world)
        self.registry.prepare(world)
        self.lending.prepare(world)
        self.compute.prepare(world)
        self.deployments.prepare(world)
        self.eth_senders = fund_senders(
            world, SENDER_BASE + 0x5000, self.config.eth_senders)
        return world

    def _eth_transfers(self, rng: random.Random, start: float,
                       duration: float) -> List[TxIntent]:
        intents = []
        for when in poisson_times(rng, self.config.eth_transfer_rate,
                                  duration, start):
            sender = rng.choice(self.eth_senders)
            receiver = rng.choice(self.eth_senders)
            intents.append(TxIntent(
                time=when, sender=sender, to=receiver,
                value=rng.randint(1, 10**18),
                gas_price=self.prices.sample(rng),
                gas_limit=21_000, kind="eth",
            ))
        return intents

    def generate(self, start_time: float = 0.0
                 ) -> Tuple[WorldState, List[TimedTx]]:
        """Produce the genesis world and the full transaction stream."""
        config = self.config
        rng = random.Random(config.seed)
        world = self.build_world()

        intents: List[TxIntent] = []
        intents += self.oracle.events(rng, start_time, config.duration,
                                      self.prices)
        intents += self.tokens.events(rng, start_time, config.duration,
                                      self.prices)
        intents += self.dex.events(rng, start_time, config.duration,
                                   self.prices)
        intents += self.auctions.events(rng, start_time, config.duration,
                                        self.prices)
        intents += self.registry.events(rng, start_time, config.duration,
                                        self.prices)
        intents += self.lending.events(rng, start_time, config.duration,
                                       self.prices)
        intents += self.compute.events(rng, start_time, config.duration,
                                       self.prices)
        intents += self.deployments.events(rng, start_time,
                                           config.duration, self.prices)
        intents += self._eth_transfers(rng, start_time, config.duration)
        intents.sort(key=lambda intent: intent.time)

        # Nonces follow creation order per sender.
        next_nonce: Dict[int, int] = {}
        stream: List[TimedTx] = []
        for intent in intents:
            nonce = next_nonce.get(intent.sender, 0)
            next_nonce[intent.sender] = nonce + 1
            origin_miner = intent.origin_miner
            if (origin_miner is None and config.miner_ids
                    and rng.random() < PRIVATE_FRACTION):
                origin_miner = rng.choice(config.miner_ids)
            tx = Transaction(
                sender=intent.sender,
                to=intent.to,
                data=intent.data,
                value=intent.value,
                gas_price=intent.gas_price,
                gas_limit=intent.gas_limit,
                nonce=nonce,
                origin_miner=origin_miner,
            )
            stream.append(TimedTx(time=intent.time, tx=tx,
                                  kind=intent.kind))
        return world, stream
