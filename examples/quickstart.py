"""Quickstart: the paper's running example, in ~80 lines of API use.

Reproduces §4.2/§4.3: transaction Tx_e submits a price to the PriceFeed
oracle (Figure 4).  We speculate it in two future contexts (FC1's
"later submission" path and FC4's "first submission of a fresh round"
path), merge the synthesized accelerated programs, and execute against
actual contexts — including one that matches no speculated context
perfectly yet still satisfies the CD-Equiv constraints.

Run:  python examples/quickstart.py
"""

from repro.chain import BlockHeader, Transaction
from repro.contracts import pricefeed
from repro.core.accelerator import TransactionAccelerator
from repro.core.prefetcher import Prefetcher
from repro.core.speculator import FutureContext, Speculator
from repro.evm.interpreter import EVM
from repro.state import NodeCache, StateDB, WorldState

ALICE = 0xA11CE
FEED = 0xFEED
ROUND = 3990300
PF = pricefeed()


def make_world(active_round, price=2000, count=4):
    """A world with the PriceFeed deployed and one funded sender."""
    world = WorldState()
    world.create_account(ALICE, balance=10**24)
    world.create_account(FEED, code=PF.code)
    feed = world.get_account(FEED)
    feed.set_storage(PF.slot_of("activeRoundID"), active_round)
    if active_round == ROUND:
        feed.set_storage(PF.slot_of("prices", ROUND), price)
        feed.set_storage(PF.slot_of("submissionCounts", ROUND), count)
    return world


def main():
    tx_e = Transaction(sender=ALICE, to=FEED,
                       data=PF.calldata("submit", ROUND, 1980), nonce=0)
    print(f"Tx_e: submit(roundID={ROUND}, price=1980)  "
          f"[{len(tx_e.data)} bytes of calldata]\n")

    # --- Speculation phase (off the critical path) --------------------
    speculator = Speculator(make_world(ROUND))
    speculator.speculate(
        tx_e, FutureContext(1, BlockHeader(1, 3990462, 0xBEEF)))
    # FC4: a fresh round (activeRoundID behind), different timestamp.
    speculator.world = make_world(3990000)
    speculator.speculate(
        tx_e, FutureContext(4, BlockHeader(1, 3990478, 0xBEEF)))

    ap = speculator.get_ap(tx_e.hash)
    path = ap.paths[0]
    print("Accelerated Program synthesized:")
    print(f"  EVM trace length:      {path.stats.trace_len} instructions")
    print(f"  optimized AP path:     {path.stats.final_len} instructions "
          f"({path.stats.final_len / path.stats.trace_len:.1%} of trace)")
    print(f"  constraint section:    {path.stats.constraint_section_len}")
    print(f"  fast path:             {path.stats.fast_path_len}")
    print(f"  merged paths:          {ap.path_count} "
          f"(FC1 else-branch + FC4 if-branch)")
    print(f"  shortcut nodes:        {ap.shortcut_count}\n")

    # --- Execution phase (the critical path) --------------------------
    accelerator = TransactionAccelerator()
    scenarios = [
        ("perfect match (FC1 exactly)", make_world(ROUND), 3990462),
        ("imperfect match (new values, same constraints)",
         make_world(ROUND, price=2024, count=7), 3990555),
        ("other branch (fresh round, FC4)", make_world(3990000), 3990478),
        ("constraint violation (stale round -> fallback)",
         make_world(ROUND), ROUND + 900),
    ]
    for label, world, timestamp in scenarios:
        header = BlockHeader(1, timestamp, 0xBEEF)
        # Ground truth: plain EVM execution on a copy.
        truth_world = world.copy()
        truth_state = StateDB(truth_world)
        EVM(truth_state, header, tx_e).execute_transaction()
        truth_state.commit()
        # Accelerated execution: the prefetcher has warmed the caches
        # with the speculated read set (off the critical path, §4.4).
        cache = NodeCache()
        Prefetcher(world, cache).prefetch(
            ap.prefetch_keys, tx_sender=tx_e.sender, tx_to=tx_e.to,
            coinbase=0xBEEF)
        state = StateDB(world, node_cache=cache)
        plain = accelerator.execute_plain(tx_e, header, StateDB(world.copy()))
        receipt = accelerator.execute(tx_e, header, state, ap)
        state.commit()
        speedup = plain.tally.total / receipt.tally.total
        roots = "OK" if world.root() == truth_world.root() else "MISMATCH"
        print(f"{label}:")
        print(f"  outcome={receipt.outcome}  "
              f"perfect_contexts={receipt.perfect_context_ids}  "
              f"speedup={speedup:.1f}x  state-root {roots}")
    print("\nEvery outcome is bit-identical to a plain EVM execution.")


if __name__ == "__main__":
    main()
