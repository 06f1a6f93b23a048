"""DeFi swaps: the many-future problem and multi-future speculation.

Concurrent AMM swaps are densely inter-dependent — the pool's reserves
change with every swap, so the *order* miners pick changes everyone's
output (the paper's §4.2 cause (i)).  A single-future speculator
predicts one order and loses whenever reality picks another; Forerunner
speculates several orderings and merges them into one AP whose guards
case-branch between the constraint sets.

This example sets up one pool and two pending swaps, speculates the
second swap under both orderings, and executes it under each reality.

Run:  python examples/defi_swaps.py
"""

from repro.chain import BlockHeader, Transaction
from repro.contracts import amm, erc20
from repro.core.accelerator import TransactionAccelerator
from repro.core.speculator import FutureContext, Speculator
from repro.evm.interpreter import EVM
from repro.minisol import decode_uint
from repro.state import StateDB, WorldState

ALICE, BOB = 0xA11CE, 0xB0B
TOKEN0, TOKEN1, POOL = 0x70, 0x71, 0xF00
AMM = amm()
TOK = erc20()


def make_world():
    world = WorldState()
    for trader in (ALICE, BOB):
        world.create_account(trader, balance=10**24)
    world.create_account(TOKEN0, code=TOK.code)
    world.create_account(TOKEN1, code=TOK.code)
    world.create_account(POOL, code=AMM.code)
    pool = world.get_account(POOL)
    pool.set_storage(AMM.slot_of("reserve0"), 10**9)
    pool.set_storage(AMM.slot_of("reserve1"), 10**9)
    pool.set_storage(AMM.slot_of("token0"), TOKEN0)
    pool.set_storage(AMM.slot_of("token1"), TOKEN1)
    pool.set_storage(AMM.slot_of("selfAddr"), POOL)
    for trader in (ALICE, BOB):
        world.get_account(TOKEN0).set_storage(
            TOK.slot_of("balanceOf", trader), 10**12)
        world.get_account(TOKEN0).set_storage(
            TOK.slot_of("allowance", trader, POOL), 10**18)
    world.get_account(TOKEN1).set_storage(
        TOK.slot_of("balanceOf", POOL), 10**12)
    return world


def main():
    header = BlockHeader(1, 1000, 0xBEEF)
    bob_swap = Transaction(sender=BOB, to=POOL,
                           data=AMM.calldata("swap0to1", 5_000_000, 0),
                           nonce=0)
    alice_swap = Transaction(sender=ALICE, to=POOL,
                             data=AMM.calldata("swap0to1", 5_000_000, 0),
                             nonce=0)

    # Speculate ALICE's swap under both orderings miners might pick.
    speculator = Speculator(make_world())
    speculator.speculate(alice_swap, FutureContext(1, header))  # Alice first
    speculator.speculate(alice_swap, FutureContext(
        2, header, predecessors=(bob_swap,)))                   # Bob first
    ap = speculator.get_ap(alice_swap.hash)
    print(f"AP for Alice's swap: {len(ap.paths)} speculated futures, "
          f"{ap.path_count} distinct control path(s), "
          f"{ap.shortcut_count} shortcuts\n")

    accelerator = TransactionAccelerator()
    for label, predecessors in (("Alice's swap executes FIRST", ()),
                                ("Bob's swap lands BEFORE Alice's",
                                 (bob_swap,))):
        world = make_world()
        state = StateDB(world)
        for predecessor in predecessors:
            EVM(state, header, predecessor).execute_transaction()
        receipt = accelerator.execute(alice_swap, header, state, ap)
        out = decode_uint(receipt.result.return_data)
        print(f"{label}:")
        print(f"  outcome={receipt.outcome}  amountOut={out:,}  "
              f"perfect_contexts={receipt.perfect_context_ids}")
        shortcut = receipt.ap_stats
        if shortcut:
            print(f"  nodes executed={shortcut.executed_nodes} "
                  f"skipped={shortcut.skipped_nodes} "
                  f"(shortcut hits={shortcut.shortcut_hits})")
        print()

    print("Both orderings were covered by ONE merged AP; the ordering")
    print("only changes which memoized values apply — Figure 10's")
    print("\"stitching together the correct parts of several predicted")
    print("contexts\".")


if __name__ == "__main__":
    main()
