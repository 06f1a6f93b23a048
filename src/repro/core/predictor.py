"""Multi-future predictor (paper §4.4).

Two sub-components:

* the **next-block predictor** simulates how miners pack blocks: it
  ranks the pending pool by gas price (random tie-breaking — official
  geth orders same-price transactions randomly), honours miner
  self-priority, caps how many transactions are speculated per cycle
  (recall over precision, bounded by a capping mechanism), and predicts
  header fields (timestamp from observed inter-block statistics,
  coinbase from the observed miner distribution);
* the **context constructor** groups inter-dependent pending
  transactions (heuristically: same receiving contract, or same sender)
  and enumerates orderings of each transaction's predecessors within
  its group, sampling when the ordering space is too large.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.chain.block import Block, BlockHeader
from repro.chain.transaction import Transaction
from repro.constants import DEFAULT_BLOCK_INTERVAL
from repro.core.speculator import FutureContext
from repro.obs.registry import MetricsRegistry, get_registry


@dataclass
class HeaderStats:
    """Online statistics about observed blocks (for header prediction)."""

    last_number: int = 0
    last_timestamp: int = 0
    last_hash: int = 0
    intervals: List[float] = field(default_factory=list)
    miner_counts: Dict[int, int] = field(default_factory=dict)

    def observe(self, block: Block) -> None:
        if self.last_timestamp and block.header.timestamp > self.last_timestamp:
            self.intervals.append(
                block.header.timestamp - self.last_timestamp)
            if len(self.intervals) > 200:
                del self.intervals[0]
        self.last_number = block.header.number
        self.last_timestamp = block.header.timestamp
        self.last_hash = block.hash
        coinbase = block.header.coinbase
        self.miner_counts[coinbase] = self.miner_counts.get(coinbase, 0) + 1

    def mean_interval(self) -> float:
        if not self.intervals:
            return DEFAULT_BLOCK_INTERVAL
        return sum(self.intervals) / len(self.intervals)

    def top_miners(self, count: int) -> List[int]:
        ranked = sorted(self.miner_counts.items(),
                        key=lambda item: -item[1])
        return [miner for miner, _ in ranked[:count]]


#: Maximum pending transactions selected per prediction cycle (the
#: capping mechanism: recall over precision, but bounded).
MAX_CANDIDATES = 400
#: How many future contexts to construct per transaction.
MAX_CONTEXTS_PER_TX = 4
#: Longest predecessor prefix applied when enumerating orderings.
MAX_PREDECESSORS = 3
#: Header variants: the timestamp offsets combined.
TIMESTAMP_VARIANTS: Tuple[int, ...] = (0, 7)
#: How many top miners to consider as coinbase candidates.
COINBASE_VARIANTS = 2
#: Overselection factor over one block's gas limit (recall-oriented).
GAS_RECALL_FACTOR = 2.0
#: RNG seed (tie-breaking and ordering shuffles are random, like geth's
#: same-price packing order — deterministic per seed here).
PREDICTOR_SEED = 20211026


@dataclass
class Prediction:
    """Output of one prediction cycle."""

    #: Transactions predicted to be packed soon, most likely first.
    candidates: List[Transaction]
    #: Future contexts per transaction hash.
    contexts: Dict[int, List[FutureContext]]


class MultiFuturePredictor:
    """Builds (transaction, future contexts) pairs from the pool."""

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 injector=None) -> None:
        self.stats = HeaderStats()
        self._rng = random.Random(PREDICTOR_SEED)
        self._next_context_id = 1
        #: Chaos hook (:mod:`repro.faults`); faults raised here are
        #: contained by the node's guard (one skipped cycle).
        self.injector = injector
        obs = (registry or get_registry()).scope("predictor")
        self.c_cycles = obs.counter("cycles")
        self.c_candidates = obs.counter("candidates")
        self.c_contexts = obs.counter("contexts")
        self.c_blocks_observed = obs.counter("blocks_observed")
        self.h_contexts_per_tx = obs.histogram(
            "contexts_per_tx", bounds=(0, 1, 2, 4, 8, 16, 32))

    def observe_block(self, block: Block) -> None:
        """Feed every received block to keep header statistics fresh."""
        self.c_blocks_observed.inc()
        self.stats.observe(block)

    # -- next-block prediction ------------------------------------------------

    def rank_pending(self, pending: Sequence[Transaction],
                     block_gas_limit: int) -> List[Transaction]:
        """Predict which pending transactions get packed next.

        Gas-price priority with random tie-breaking, miner self-origin
        priority, overselected by :data:`GAS_RECALL_FACTOR` and capped.
        """
        def sort_key(tx: Transaction):
            self_priority = 1 if tx.origin_miner is not None else 0
            return (-self_priority, -tx.gas_price, self._rng.random())

        ranked = sorted(pending, key=sort_key)
        budget = int(block_gas_limit * GAS_RECALL_FACTOR)
        selected: List[Transaction] = []
        for tx in ranked:
            if len(selected) >= MAX_CANDIDATES:
                break
            if budget - tx.gas_limit < 0:
                continue
            budget -= tx.gas_limit
            selected.append(tx)
        return selected

    def predict_headers(self) -> List[BlockHeader]:
        """Enumerate likely next-block headers (timestamp x coinbase)."""
        stats = self.stats
        base_ts = stats.last_timestamp or 0
        interval = max(1, int(round(stats.mean_interval())))
        miners = stats.top_miners(COINBASE_VARIANTS) or [0]
        headers = []
        for delta in TIMESTAMP_VARIANTS:
            for coinbase in miners:
                headers.append(BlockHeader(
                    number=stats.last_number + 1,
                    timestamp=base_ts + interval + delta,
                    coinbase=coinbase,
                    parent_hash=stats.last_hash,
                ))
        return headers

    # -- context construction -------------------------------------------------------

    def group_dependencies(self, candidates: Sequence[Transaction]
                           ) -> Dict[int, List[Transaction]]:
        """Group candidates that plausibly affect each other's context.

        Heuristic: transactions calling the same contract form a group
        (they may share storage); same-sender transactions are
        nonce-ordered within it.
        """
        groups: Dict[int, List[Transaction]] = {}
        for tx in candidates:
            groups.setdefault(tx.to, []).append(tx)
        return groups

    def contexts_for(self, tx: Transaction, group: Sequence[Transaction],
                     sender_chain: Sequence[Transaction] = ()
                     ) -> List[FutureContext]:
        """Enumerate future contexts for ``tx`` (paper Figure 5).

        Combines header variants with orderings of the transaction's
        potential predecessors from its dependency group, enumerating
        orderings in random order (sampling when too many).  The
        sender's own earlier-nonce pending transactions are *mandatory*
        predecessors in every context — without them the target cannot
        execute at all.
        """
        mandatory = tuple(sorted(sender_chain, key=lambda t: t.nonce))
        if len(mandatory) > 2 * MAX_PREDECESSORS:
            # Too deep a nonce chain to speculate usefully right now.
            return []
        headers = self.predict_headers()
        others = [t for t in group
                  if t.hash != tx.hash and t.sender != tx.sender]
        # Likely predecessors: higher-priority members of the group.
        others.sort(key=lambda t: -t.gas_price)
        pool = others[:MAX_PREDECESSORS]

        orderings: List[Tuple[Transaction, ...]] = [()]
        for size in range(1, len(pool) + 1):
            for combo in itertools.permutations(pool, size):
                orderings.append(combo)
        self._rng.shuffle(orderings)
        # The single most likely future goes FIRST: every strictly
        # higher-priced group member executes before the target, in
        # price order (miners' modal behaviour).  Then the empty
        # ordering, then the random exploration of the rest.
        greedy = tuple(t for t in pool if t.gas_price > tx.gas_price)
        preferred = [greedy, ()]
        orderings = preferred + [
            o for o in orderings if o not in preferred]

        contexts: List[FutureContext] = []
        # Interleave variation across BOTH axes: each context takes the
        # next ordering paired with a cycling header variant, so a small
        # context budget still explores ordering *and* header diversity.
        for index in range(min(MAX_CONTEXTS_PER_TX,
                               len(orderings) * len(headers))):
            ordering = orderings[index % len(orderings)]
            header = headers[(index + index // len(orderings))
                             % len(headers)]
            context = FutureContext(
                context_id=self._next_context_id,
                header=header,
                predecessors=mandatory + ordering,
            )
            self._next_context_id += 1
            contexts.append(context)
        return contexts

    def predict(self, pending: Sequence[Transaction],
                block_gas_limit: int) -> Prediction:
        """One full prediction cycle over the current pending pool."""
        if self.injector is not None:
            self.injector.maybe_raise("predictor.predict")
        candidates = self.rank_pending(pending, block_gas_limit)
        groups = self.group_dependencies(candidates)
        by_sender: Dict[int, List[Transaction]] = {}
        for tx in pending:
            by_sender.setdefault(tx.sender, []).append(tx)
        contexts = {}
        for tx in candidates:
            chain = [t for t in by_sender.get(tx.sender, [])
                     if t.nonce < tx.nonce]
            contexts[tx.hash] = self.contexts_for(
                tx, groups[tx.to], sender_chain=chain)
            self.c_contexts.inc(len(contexts[tx.hash]))
            self.h_contexts_per_tx.observe(len(contexts[tx.hash]))
        self.c_cycles.inc()
        self.c_candidates.inc(len(candidates))
        return Prediction(candidates=candidates, contexts=contexts)
