"""Dataset persistence: save/load recorded traffic as JSON.

The paper publishes its recorded datasets alongside the code; this
module gives the reproduction the same property — a recorded period can
be saved, shared, and replayed byte-identically (`load` rebuilds the
same transactions, hence the same hashes and Merkle roots).

The header and world codecs are public: crash-recovery snapshots
(:mod:`repro.recovery.snapshot`) persist worlds with the exact same
byte-stable encoding datasets use, and both persist transactions in
the wire form (:func:`repro.chain.transaction.tx_to_wire` plus the
``origin_miner`` of a private transaction), so a state saved by one
layer round-trips through the other.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.chain.block import Block, BlockHeader
from repro.chain.transaction import Transaction, tx_from_wire, tx_to_wire
from repro.sim.recorder import Dataset, DatasetConfig
from repro.state.account import Account
from repro.state.world import WorldState
from repro.workloads.mixed import TimedTx

FORMAT_VERSION = 2


def header_to_json(header: BlockHeader) -> dict:
    return {
        "number": header.number,
        "timestamp": header.timestamp,
        "coinbase": hex(header.coinbase),
        "parent_hash": hex(header.parent_hash),
        "gas_limit": header.gas_limit,
        "difficulty": header.difficulty,
        "chain_id": header.chain_id,
    }


def header_from_json(payload: dict) -> BlockHeader:
    return BlockHeader(
        number=payload["number"],
        timestamp=payload["timestamp"],
        coinbase=int(payload["coinbase"], 16),
        parent_hash=int(payload["parent_hash"], 16),
        gas_limit=payload["gas_limit"],
        difficulty=payload["difficulty"],
        chain_id=payload["chain_id"],
    )


def _block_to_json(block: Block, tx_index: Dict[int, int]) -> dict:
    return {
        "header": header_to_json(block.header),
        "txs": [tx_index[tx.hash] for tx in block.transactions],
        "state_root": (hex(block.state_root)
                       if block.state_root is not None else None),
        "miner_id": (hex(block.miner_id)
                     if block.miner_id is not None else None),
    }


def world_to_json(world: WorldState) -> list:
    accounts = []
    for address, account in sorted(world.accounts().items()):
        accounts.append({
            "address": hex(address),
            "balance": str(account.balance),
            "nonce": account.nonce,
            "code": account.code.hex(),
            "storage": {hex(k): hex(v)
                        for k, v in sorted(account.storage.items())},
        })
    return accounts


def world_from_json(payload: list) -> WorldState:
    world = WorldState()
    for entry in payload:
        account = Account(
            balance=int(entry["balance"]),
            nonce=entry["nonce"],
            code=bytes.fromhex(entry["code"]),
            storage={int(k, 16): int(v, 16)
                     for k, v in entry["storage"].items()},
        )
        world.accounts()[int(entry["address"], 16)] = account
    return world


def save_dataset(dataset: Dataset, path: str) -> None:
    """Serialize ``dataset`` to JSON at ``path``."""
    # Deduplicate transactions through an index table.
    all_txs: List[Transaction] = [t.tx for t in dataset.all_txs]
    tx_index = {tx.hash: i for i, tx in enumerate(all_txs)}
    payload = {
        "version": FORMAT_VERSION,
        "name": dataset.name,
        "genesis_world": world_to_json(dataset.genesis_world),
        "genesis_block": _block_to_json(dataset.genesis_block, tx_index),
        "txs": [dict(tx_to_wire(tx), origin_miner=tx.origin_miner)
                for tx in all_txs],
        "kinds": [dataset.kinds.get(tx.hash, "?") for tx in all_txs],
        "times": [t.time for t in dataset.all_txs],
        "blocks": [
            {"arrival": arrival, **_block_to_json(block, tx_index)}
            for arrival, block in dataset.blocks
        ],
        "fork_blocks": [
            {"arrival": arrival, **_block_to_json(block, tx_index)}
            for arrival, block in dataset.fork_blocks
        ],
        "tx_arrivals": {
            observer: [[arrival, tx_index[tx.hash]]
                       for arrival, tx in arrivals]
            for observer, arrivals in dataset.tx_arrivals.items()
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def load_dataset(path: str) -> Dataset:
    """Load a dataset previously written by :func:`save_dataset`."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported dataset format {payload.get('version')!r}")
    txs = [tx_from_wire(entry) for entry in payload["txs"]]

    def block_from(entry) -> Tuple[float, Block]:
        block = Block(
            header=header_from_json(entry["header"]),
            transactions=[txs[i] for i in entry["txs"]],
            state_root=(int(entry["state_root"], 16)
                        if entry["state_root"] is not None else None),
            miner_id=(int(entry["miner_id"], 16)
                      if entry["miner_id"] is not None else None),
        )
        return entry["arrival"], block

    genesis_entry = dict(payload["genesis_block"])
    genesis_entry["arrival"] = 0.0
    _, genesis_block = block_from(genesis_entry)
    genesis_world = world_from_json(payload["genesis_world"])
    genesis_world.root()  # as record_dataset: copies inherit it
    all_txs = [TimedTx(time=t, tx=tx, kind=kind)
               for t, tx, kind in zip(payload["times"], txs,
                                      payload["kinds"])]
    return Dataset(
        name=payload["name"],
        config=DatasetConfig(name=payload["name"]),
        genesis_world=genesis_world,
        genesis_block=genesis_block,
        blocks=[block_from(e) for e in payload["blocks"]],
        fork_blocks=[block_from(e) for e in payload["fork_blocks"]],
        tx_arrivals={
            observer: [(arrival, txs[i]) for arrival, i in arrivals]
            for observer, arrivals in payload["tx_arrivals"].items()
        },
        all_txs=all_txs,
        kinds={tx.hash: kind for tx, kind in zip(txs, payload["kinds"])},
    )
