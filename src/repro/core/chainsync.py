"""Chain synchronization: block-tree tracking and reorg handling.

The paper's motivation includes temporary forks (§1: 8.4% of mined
blocks land on forks).  A node occasionally has to *switch* branches:
abandon the blocks it executed, restore the fork-point state, and
execute the winning branch.  :class:`ChainManager` wraps an execution
node with exactly that machinery, keeping bounded world snapshots per
recent block.

Speculation interacts nicely with reorgs: the transactions of abandoned
blocks return to the pending pool, and their (dropped) APs are simply
re-synthesized against the new head — correctness never depends on the
branch history because every execution path re-validates its guards
against the live state.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.chain.block import Block
from repro.chain.blockchain import Blockchain
from repro.errors import ChainError
from repro.state.world import WorldState


class ChainManager:
    """Drives a node (Baseline or Forerunner) through a block tree.

    ``node`` must expose ``world`` (a WorldState it executes into) and
    ``process_block(block, now)``; ForerunnerNode additionally gets its
    pool replenished with un-executed transactions after a reorg.
    """

    def __init__(self, node, genesis: Block,
                 snapshot_depth: int = 8) -> None:
        if genesis.state_root is None:
            genesis.state_root = node.world.root()
        self.node = node
        self.chain = Blockchain(genesis)
        self.snapshot_depth = snapshot_depth
        #: The newest ``snapshot_depth`` executed blocks, oldest first: a
        #: FIFO window, not an LRU — the reorg depth a node can absorb
        #: is counted in blocks executed since, whatever a reorg read.
        self._snapshots: Dict[int, WorldState] = {}
        self._snapshot(genesis)
        self.reorgs = 0
        self.blocks_reexecuted = 0

    # -- internals ----------------------------------------------------------

    def _snapshot(self, block: Block) -> None:
        snapshots = self._snapshots
        snapshots[block.hash] = self.node.world.copy()
        while len(snapshots) > self.snapshot_depth:
            del snapshots[next(iter(snapshots))]

    def _restore(self, block_hash: int) -> None:
        snapshot = self._snapshots.get(block_hash)
        if snapshot is None:
            raise ChainError(
                f"reorg beyond snapshot depth (fork point "
                f"{block_hash:#x} not retained)")
        # Replace the node's world contents in place: every component
        # holding a reference (speculator, prefetcher) keeps working,
        # and the version bump keeps version-keyed overlay caches from
        # serving state of the abandoned branch.
        self.node.world.replace_contents(snapshot)

    def _branch_to(self, block: Block):
        """(branch blocks, fork point): the path from the nearest
        snapshotted ancestor down to ``block``."""
        branch: List[Block] = []
        cursor: Optional[Block] = block
        while cursor is not None and cursor.hash not in self._snapshots:
            branch.append(cursor)
            cursor = self.chain.get(cursor.header.parent_hash)
        if cursor is None:
            raise ChainError("branch does not connect to a snapshot")
        branch.reverse()
        return branch, cursor

    def _requeue_abandoned(self, old_head: Block, fork_point: Block,
                           now: float) -> None:
        """Return abandoned blocks' transactions to the node's pool."""
        if not hasattr(self.node, "requeue"):
            return
        cursor: Optional[Block] = old_head
        while cursor is not None and cursor.hash != fork_point.hash:
            for tx in cursor.transactions:
                self.node.requeue(tx, now)
            cursor = self.chain.get(cursor.header.parent_hash)

    # -- public API ------------------------------------------------------------

    @property
    def head(self) -> Block:
        return self.chain.head

    def receive_block(self, block: Block, now: float = 0.0):
        """Insert ``block``; execute it (and reorg) if it wins the race.

        Returns the node's BlockReport when the block extended or
        switched the head, None when it landed on a losing fork.
        """
        old_head = self.chain.head
        became_head = self.chain.add(block)
        if not became_head:
            return None
        if block.header.parent_hash == old_head.hash:
            report = self.node.process_block(block, now) \
                if _takes_now(self.node) else \
                self.node.process_block(block)
            self._snapshot(block)
            return report
        # Reorg: restore the fork point, replay the winning branch.
        self.reorgs += 1
        branch, fork_point = self._branch_to(block)
        self._restore(fork_point.hash)
        on_reorg = getattr(self.node, "on_reorg", None)
        if on_reorg is not None:
            # Overlay caches (the speculator's prefix cache) were built
            # on the abandoned branch's state; drop them before the
            # winning branch executes.
            on_reorg()
        self._requeue_abandoned(old_head, fork_point, now)
        report = None
        for ancestor in branch:
            # Executed transactions on the new branch leave the pool
            # again via process_block's own bookkeeping.
            report = self.node.process_block(ancestor, now) \
                if _takes_now(self.node) else \
                self.node.process_block(ancestor)
            self._snapshot(ancestor)
            self.blocks_reexecuted += 1
        return report


def _takes_now(node) -> bool:
    """ForerunnerNode.process_block takes a ``now`` argument."""
    return hasattr(node, "run_speculation")
