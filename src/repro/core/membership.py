"""Group-membership state at the sender (paper sections 3 and 4.2).

For each receiver the sender keeps a small structure -- the (unicast)
IP address and the next sequence number that receiver expects.  The
paper's kernel stores it both in a doubly linked list and in a hash
table (``mem_hash`` in ``hrmc_opt``), so lookup by address and
iteration over all members are both cheap.  One insertion-ordered dict
gives both: lookup by address is a dict lookup, iteration runs in join
order, and a removal keeps the order of the rest.  Every piece of
feedback (NAK, rate request, UPDATE, JOIN) carries the receiver's next
expected sequence number, and updates this table.

Each member also owns the estimator of its round-trip time, so the
table decides both who is a member and whose RTT counts: the sender
paces, holds and probes by :attr:`MemberTable.rtt_us`, the worst
smoothed RTT over the sampled members (paper section 2).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.config import INITIAL_RTT_US, MIN_RTT_US
from repro.core.rtt import RttEstimator
from repro.core.seq import SEQ_HALF, seq_gt, seq_lt

__all__ = ["Member", "MemberTable"]


class Member:
    """Per-receiver state (cf. ``struct mc_member``)."""

    __slots__ = ("addr", "next_expected", "last_feedback_us", "rtt",
                 # probe bookkeeping
                 "last_probe_us", "probe_tries", "probe_sent_us",
                 "probe_ambiguous")

    def __init__(self, addr: str, next_expected: int, now_us: int):
        self.addr = addr
        self.next_expected = next_expected
        self.last_feedback_us = now_us
        self.rtt: Optional[RttEstimator] = None  # from the first sample on
        self.last_probe_us = -(10 ** 12)
        self.probe_tries = 0
        self.probe_sent_us = -1      # outstanding probe timestamp (-1: none)
        self.probe_ambiguous = False  # re-probed: Karn says discard sample

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Member({self.addr}, next={self.next_expected})"


class MemberTable:
    """The members by address, in join order."""

    def __init__(self) -> None:
        self._members: dict[str, Member] = {}
        # a live view, taken once: the release queries walk it per skb
        self._values = self._members.values()
        self.joins = 0
        self._departed: set[str] = set()  # addresses whose LEAVE was seen
        #: worst smoothed RTT over the sampled members (the initial
        #: estimate until one is); recomputed when it can move, so a
        #: read is a value
        self.rtt_us = INITIAL_RTT_US

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[Member]:
        return iter(self._values)

    def __contains__(self, addr: str) -> bool:
        return addr in self._members

    def get(self, addr: str) -> Optional[Member]:
        return self._members.get(addr)

    # -- add/remove (cf. add_member / rm_member) ---------------------------

    def add(self, addr: str, next_expected: int, now_us: int) -> Member:
        """Add a member; duplicate JOINs return the existing entry."""
        member = self._members.get(addr)
        if member is not None:
            return member
        member = self._members[addr] = Member(addr, next_expected, now_us)
        self.joins += 1
        self._departed.discard(addr)  # re-join after an earlier leave
        return member

    def remove(self, addr: str) -> bool:
        """Remove a member; unknown addresses are a no-op (idempotent).

        A LEAVE from an address that never made it into the table still
        counts toward the join tally (once): it proves a receiver whose
        JOIN was lost existed and is done -- on a transfer shorter than
        the join-retry period the JOIN is never retried, and without
        this the sender would wait forever for a join quorum that can
        no longer form.
        """
        member = self._members.pop(addr, None)
        if member is None:
            if addr not in self._departed:
                self._departed.add(addr)
                self.joins += 1
            return False
        self._departed.add(addr)  # retried LEAVEs must not re-count
        if member.rtt is not None:
            self._recompute_rtt()  # the worst receiver may have left
        return True

    # -- feedback (cf. update_mem) ----------------------------------------

    def update_feedback(self, addr: str, next_expected: int,
                        now_us: int) -> Optional[Member]:
        """Record feedback from a member; next_expected only advances."""
        member = self._members.get(addr)
        if member is None:
            return None
        if seq_gt(next_expected, member.next_expected):
            member.next_expected = next_expected
        member.last_feedback_us = now_us
        if member.probe_sent_us >= 0:
            member.probe_sent_us = -1  # probe answered
        return member

    def sample_rtt(self, member: Member, rtt_us: int) -> None:
        """Feed one unambiguous RTT measurement of ``member``."""
        if member.rtt is None:
            member.rtt = RttEstimator(INITIAL_RTT_US, MIN_RTT_US)
        member.rtt.sample(rtt_us)
        self._recompute_rtt()

    def _recompute_rtt(self) -> None:
        sampled = [m.rtt.rtt_us for m in self._values if m.rtt is not None]
        self.rtt_us = max(sampled) if sampled else INITIAL_RTT_US

    # -- release queries -------------------------------------------------

    def lacking(self, boundary_seq: int) -> list[Member]:
        """Members not known to have every byte below ``boundary_seq``."""
        return [m for m in self._values
                if seq_lt(m.next_expected, boundary_seq)]

    def all_have(self, boundary_seq: int) -> bool:
        """Every member is known to have every byte below
        ``boundary_seq``.  Asked for every skb the sender releases, so
        ``seq_geq`` is spelled inline (tests/core/test_inlined_forms.py)."""
        for m in self._values:
            if (m.next_expected - boundary_seq) & SEQ_HALF:  # seq_lt
                return False
        return True
