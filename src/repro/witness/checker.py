"""WitnessChecker: validate speculative results without re-execution.

Forerunner's bet is that a constraint check is vastly cheaper than
re-execution; the checker is that bet made independently verifiable.
Given the stream of per-transaction witnesses and the block headers, a
client that trusts *nothing else* can reconstruct the entire chain
state by, per transaction:

1. **constraint replay** — probe its own state view for every
   recorded constraint and compare against the witnessed value;
2. **delta verification** — check each delta's pre-value against the
   view, then apply the post-value;

and, per block, compare its reconstructed Merkle root against the
committed one.  No EVM instruction is interpreted, no AP is walked:
the work is dict probes and compares, charged at
:func:`repro.core.costmodel.witness_check_cost` — a small fraction of
any execution tier's cost units (the ``repro verify`` report and
``BENCH_witness.json`` quantify the ratio).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.chain.block import blockhash
from repro.core import costmodel
from repro.state.account import Account
from repro.state.world import WorldState
from repro.witness.format import ExecutionWitness, decode_value


@dataclass
class CheckFailure:
    """One mismatch between a witness and the shadow state."""

    tx_hash: int
    stage: str          # "constraint" | "delta-pre" | "created-pre" | "root"
    kind: str
    key: list
    expected: object
    actual: object

    def as_dict(self) -> dict:
        def enc(value):
            return value.hex() if isinstance(value, bytes) else value
        return {
            "tx_hash": self.tx_hash,
            "stage": self.stage,
            "kind": self.kind,
            "key": self.key,
            "expected": enc(self.expected),
            "actual": enc(self.actual),
        }


@dataclass
class RunValidation:
    """Aggregate result of validating one replay's witness stream."""

    witnesses: int = 0
    constraints_checked: int = 0
    deltas_applied: int = 0
    blocks_checked: int = 0
    roots_matched: int = 0
    checker_cost_units: int = 0
    original_cost_units: int = 0
    #: Satisfied (speculative fast path) slice: the acceptance
    #: criterion's <= 20% bound is judged on these.
    speculative_witnesses: int = 0
    speculative_checker_cost: int = 0
    speculative_original_cost: int = 0
    failures: List[CheckFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (not self.failures
                and self.roots_matched == self.blocks_checked)

    def cost_ratio(self) -> float:
        if not self.original_cost_units:
            return 0.0
        return self.checker_cost_units / self.original_cost_units

    def speculative_cost_ratio(self) -> float:
        if not self.speculative_original_cost:
            return 0.0
        return (self.speculative_checker_cost
                / self.speculative_original_cost)

    def as_dict(self) -> dict:
        return {
            "witnesses": self.witnesses,
            "constraints_checked": self.constraints_checked,
            "deltas_applied": self.deltas_applied,
            "blocks_checked": self.blocks_checked,
            "roots_matched": self.roots_matched,
            "checker_cost_units": self.checker_cost_units,
            "original_cost_units": self.original_cost_units,
            "cost_ratio_permille": int(self.cost_ratio() * 1000),
            "speculative": {
                "witnesses": self.speculative_witnesses,
                "checker_cost_units": self.speculative_checker_cost,
                "original_cost_units": self.speculative_original_cost,
                "cost_ratio_permille": int(
                    self.speculative_cost_ratio() * 1000),
            },
            "failures": [f.as_dict() for f in self.failures],
            "ok": self.ok,
        }


class WitnessChecker:
    """Replays constraints and applies deltas against a shadow world.

    The shadow is a plain :class:`WorldState` mutated directly — no
    disk model, no journal — because the checker *is* the cost story:
    everything it does is accounted through ``witness_check_cost``.
    """

    def __init__(self, world: WorldState) -> None:
        self.world = world

    # -- shadow reads -----------------------------------------------------

    def _read(self, kind: str, key: tuple, header) -> object:
        if kind == "storage":
            account = self.world.get_account(key[0])
            return account.get_storage(key[1]) if account else 0
        if kind == "balance":
            account = self.world.get_account(key[0])
            return account.balance if account else 0
        if kind == "nonce":
            account = self.world.get_account(key[0])
            return account.nonce if account else 0
        if kind == "code":
            account = self.world.get_account(key[0])
            return account.code if account else b""
        if kind == "extcodesize":
            account = self.world.get_account(key[0])
            return len(account.code) if account else 0
        if kind == "header":
            return getattr(header, key[0])
        if kind == "blockhash":
            return blockhash(key[0])
        return None

    def _dirty_account(self, dirty: Dict[int, Account],
                       address: int) -> Account:
        account = dirty.get(address)
        if account is None:
            committed = self.world.get_account(address)
            account = committed.copy() if committed else Account()
            dirty[address] = account
        return account

    def _apply(self, dirty: Dict[int, Account], kind: str, key: tuple,
               value: object) -> None:
        account = self._dirty_account(dirty, key[0])
        if kind == "storage":
            account.set_storage(key[1], value)
        elif kind == "balance":
            account.balance = value
        elif kind == "nonce":
            account.nonce = value
        elif kind == "code":
            account.code = value

    # -- per-transaction validation ---------------------------------------

    def check_transaction(self, witness: ExecutionWitness, header
                          ) -> Tuple[int, List[CheckFailure]]:
        """Replay one witness: constraints, delta pre-check, apply.

        Returns ``(cost_units, failures)``.  The shadow world advances
        by the witnessed delta regardless of failures, so one bad
        transaction surfaces both itself and the block-root mismatch.
        """
        failures: List[CheckFailure] = []
        dirty: Dict[int, Account] = {}
        for kind, key, expected in witness.constraints:
            actual = self._read(kind, tuple(key), header)
            if actual != expected:
                failures.append(CheckFailure(
                    witness.tx_hash, "constraint", kind, key,
                    expected, actual))
        for address, pre_desc in witness.created:
            account = self.world.get_account(address)
            actual = (None if account is None else
                      [account.balance, account.nonce,
                       account.code.hex()])
            if actual != pre_desc:
                failures.append(CheckFailure(
                    witness.tx_hash, "created-pre", "account",
                    [address], pre_desc, actual))
            dirty[address] = Account()
        for kind, key, pre, post in witness.delta:
            pre = decode_value(pre)
            post = decode_value(post)
            if pre is not None:
                actual = self._read(kind, tuple(key), header)
                if actual != pre:
                    failures.append(CheckFailure(
                        witness.tx_hash, "delta-pre", kind, key,
                        pre, actual))
            self._apply(dirty, kind, tuple(key), post)
        # Writes land through ``apply`` (fresh Account copies) so the
        # world's incremental leaf cache stays sound for root().
        self.world.apply(dirty)
        cost = costmodel.witness_check_cost(
            len(witness.constraints),
            len(witness.delta) + len(witness.created))
        return cost, failures

    # -- whole-run validation ---------------------------------------------

    def validate_run(self, blocks) -> RunValidation:
        """Validate a replay's witness stream block by block.

        ``blocks`` is an iterable of ``(header, witnesses,
        committed_root)`` triples in chain order.  After applying each
        block's deltas the shadow root must equal the committed root —
        that closes the loop: every accepted speculative result is
        re-derived from constraint replay + delta application alone.
        """
        report = RunValidation()
        for header, witnesses, committed_root in blocks:
            for witness in witnesses:
                cost, failures = self.check_transaction(witness, header)
                report.witnesses += 1
                report.constraints_checked += len(witness.constraints)
                report.deltas_applied += (len(witness.delta)
                                          + len(witness.created))
                report.checker_cost_units += cost
                report.original_cost_units += witness.cost_units
                report.failures.extend(failures)
                if witness.outcome == "satisfied":
                    report.speculative_witnesses += 1
                    report.speculative_checker_cost += cost
                    report.speculative_original_cost += \
                        witness.cost_units
            report.blocks_checked += 1
            shadow_root = self.world.root()
            if shadow_root == committed_root:
                report.roots_matched += 1
            else:
                report.failures.append(CheckFailure(
                    0, "root", "block", [header.number],
                    committed_root, shadow_root))
        return report
