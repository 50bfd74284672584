"""Group-membership state at the sender (paper sections 3 and 4.2).

For each receiver the sender keeps a small structure -- the (unicast)
IP address and the next sequence number that receiver expects -- stored
both in a doubly linked list and in a hash table (``mem_hash`` with
``RMC_HTABLE_SIZE`` buckets in the paper's ``hrmc_opt``), so lookup by
address and iteration over all members are both cheap.  Every piece of
feedback (NAK, rate request, UPDATE, JOIN) carries the receiver's next
expected sequence number, and updates this table.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.seq import SEQ_HALF, seq_gt, seq_lt
from repro.net.addr import addr_hash

__all__ = ["Member", "MemberTable", "RMC_HTABLE_SIZE"]

RMC_HTABLE_SIZE = 32


class Member:
    """Per-receiver state (cf. ``struct mc_member``)."""

    __slots__ = ("addr", "next_expected", "have_info", "last_feedback_us",
                 "joined_us",
                 # probe bookkeeping
                 "last_probe_us", "probe_tries", "probe_sent_us",
                 "probe_ambiguous",
                 # intrusive links
                 "prev", "next", "hnext")

    def __init__(self, addr: str, next_expected: int, now_us: int):
        self.addr = addr
        self.next_expected = next_expected
        self.have_info = False       # any feedback since the tracked seq?
        self.last_feedback_us = now_us
        self.joined_us = now_us
        self.last_probe_us = -(10 ** 12)
        self.probe_tries = 0
        self.probe_sent_us = -1      # outstanding probe timestamp (-1: none)
        self.probe_ambiguous = False  # re-probed: Karn says discard sample
        self.prev: Optional["Member"] = None
        self.next: Optional["Member"] = None
        self.hnext: Optional["Member"] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Member({self.addr}, next={self.next_expected})"


class MemberTable:
    """Doubly linked list + hash table of members, as in the paper."""

    def __init__(self, buckets: int = RMC_HTABLE_SIZE):
        self._buckets: list[Optional[Member]] = [None] * buckets
        self._nbuckets = buckets
        self._head: Optional[Member] = None
        self._tail: Optional[Member] = None
        self._count = 0
        self.joins = 0
        self.leaves = 0
        self._departed: set[str] = set()  # addresses whose LEAVE was seen

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Member]:
        node = self._head
        while node is not None:
            yield node
            node = node.next

    def __contains__(self, addr: str) -> bool:
        return self.get(addr) is not None

    # -- hash helpers ----------------------------------------------------

    def _bucket(self, addr: str) -> int:
        return addr_hash(addr, self._nbuckets)

    def get(self, addr: str) -> Optional[Member]:
        node = self._buckets[self._bucket(addr)]
        while node is not None:
            if node.addr == addr:
                return node
            node = node.hnext
        return None

    # -- add/remove (cf. add_member / rm_member) ---------------------------

    def add(self, addr: str, next_expected: int, now_us: int) -> Member:
        """Add a member; duplicate JOINs return the existing entry."""
        existing = self.get(addr)
        if existing is not None:
            return existing
        member = Member(addr, next_expected, now_us)
        # hash chain
        idx = self._bucket(addr)
        member.hnext = self._buckets[idx]
        self._buckets[idx] = member
        # list tail insert
        member.prev = self._tail
        if self._tail is not None:
            self._tail.next = member
        else:
            self._head = member
        self._tail = member
        self._count += 1
        self.joins += 1
        self._departed.discard(addr)  # re-join after an earlier leave
        return member

    def remove(self, addr: str) -> bool:
        """Remove a member; unknown addresses are a no-op (idempotent).

        A LEAVE from an address that never made it into the table still
        counts toward the join/leave tallies (once): it proves a
        receiver whose JOIN was lost existed and is done -- on a
        transfer shorter than the join-retry period the JOIN is never
        retried, and without this the sender would wait forever for a
        join quorum that can no longer form.
        """
        member = self.get(addr)
        if member is None:
            if addr not in self._departed:
                self._departed.add(addr)
                self.joins += 1
                self.leaves += 1
            return False
        # hash chain unlink
        idx = self._bucket(addr)
        node = self._buckets[idx]
        prev_h: Optional[Member] = None
        while node is not None:
            if node is member:
                if prev_h is None:
                    self._buckets[idx] = node.hnext
                else:
                    prev_h.hnext = node.hnext
                break
            prev_h, node = node, node.hnext
        # list unlink
        if member.prev is not None:
            member.prev.next = member.next
        else:
            self._head = member.next
        if member.next is not None:
            member.next.prev = member.prev
        else:
            self._tail = member.prev
        member.prev = member.next = member.hnext = None
        self._count -= 1
        self.leaves += 1
        self._departed.add(addr)  # retried LEAVEs must not re-count
        return True

    # -- feedback (cf. update_mem) ----------------------------------------

    def update_feedback(self, addr: str, next_expected: int,
                        now_us: int) -> Optional[Member]:
        """Record feedback from a member; next_expected only advances."""
        member = self.get(addr)
        if member is None:
            return None
        if seq_gt(next_expected, member.next_expected):
            member.next_expected = next_expected
        member.have_info = True
        member.last_feedback_us = now_us
        if member.probe_sent_us >= 0:
            member.probe_sent_us = -1  # probe answered
        return member

    # -- release queries -------------------------------------------------

    def lacking(self, boundary_seq: int) -> list[Member]:
        """Members not known to have every byte below ``boundary_seq``."""
        return [m for m in self if seq_lt(m.next_expected, boundary_seq)]

    def all_have(self, boundary_seq: int) -> bool:
        """Every member is known to have every byte below
        ``boundary_seq``.  Asked for every skb the sender releases, so
        it walks the list itself, with ``seq_geq`` spelled inline
        (tests/core/test_inlined_forms.py)."""
        node = self._head
        while node is not None:
            if (node.next_expected - boundary_seq) & SEQ_HALF:  # seq_lt
                return False
            node = node.next
        return True

    # -- invariant check (used by tests) ---------------------------------

    def check_consistency(self) -> None:
        """Hash table and linked list must contain exactly the same
        members; raises AssertionError otherwise."""
        via_list = list(self)
        via_hash = []
        for head in self._buckets:
            node = head
            while node is not None:
                via_hash.append(node)
                node = node.hnext
        assert len(via_list) == self._count, "list length mismatch"
        assert (
            sorted(id(m) for m in via_list) ==
            sorted(id(m) for m in via_hash)
        ), "hash/list disagree"
        # doubly linked integrity
        for m in via_list:
            if m.prev is not None:
                assert m.prev.next is m
            if m.next is not None:
                assert m.next.prev is m
