"""Connection tracking and client affinity.

Two concerns from §4.2:

1. *Connection affinity within a flow*: after a SYN is assigned a server,
   every subsequent packet of that connection must reach the same server
   (handled with :class:`repro.l4.nat.ArenaNatTable` mappings keyed by
   4-tuple; this tracker owns their lifecycle and expiry).
2. *Client-machine affinity across connections*: "our implementation
   maintains connection affinity between client machines and servers to
   the extent allowed by the sharing agreements", which makes
   SSL-session-key reuse possible.
   :meth:`ArenaConnTracker.preferred_server` remembers each (client,
   principal)'s last server so the switch can keep routing there while
   the allocation still permits it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.l4.packets import FourTuple

__all__ = ["ArenaConnTracker"]


class ArenaConnTracker:
    """Live connections and per-(client, principal) server affinity.

    Connections live in parallel slot arrays (no object per flow) indexed
    through one ``tuple -> slot`` dict, with an intrusive doubly-linked
    *expiry ring* threaded through the slots in opening order.  Simulated
    time is monotone, so the ring head is always the most idle flow and
    :meth:`expire_stale` walks from the head and stops at the first fresh
    entry: O(expired) instead of a scan over every live flow per sweep.
    """

    _NIL = -1

    def __init__(self, idle_timeout: float = 60.0):
        if idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive")
        self.idle_timeout = float(idle_timeout)
        self._index: Dict[FourTuple, int] = {}
        # Read-only alias for hot-path membership tests (the switch's port
        # allocator probes it directly, skipping a __contains__ frame).
        self.live: Dict[FourTuple, int] = self._index
        # Parallel slot arrays; a slot on the free list holds stale values.
        self._tuples: List[Optional[FourTuple]] = []
        self._servers: List[str] = []
        self._principals: List[str] = []
        self._last_seen: List[float] = []
        # Expiry ring: slot links ordered by last_seen (head = most idle).
        self._next: List[int] = []
        self._prev: List[int] = []
        self._head = self._NIL
        self._tail = self._NIL
        self._free: List[int] = []
        self._affinity: Dict[Tuple[str, str], str] = {}
        self.expired = 0

    def __len__(self) -> int:
        return len(self._index)

    # -- ring maintenance ---------------------------------------------------

    def _link_tail(self, slot: int) -> None:
        self._prev[slot] = self._tail
        self._next[slot] = self._NIL
        if self._tail != self._NIL:
            self._next[self._tail] = slot
        else:
            self._head = slot
        self._tail = slot

    def _unlink(self, slot: int) -> None:
        prv, nxt = self._prev[slot], self._next[slot]
        if prv != self._NIL:
            self._next[prv] = nxt
        else:
            self._head = nxt
        if nxt != self._NIL:
            self._prev[nxt] = prv
        else:
            self._tail = prv

    # -- connection lifecycle ----------------------------------------------

    def open_slot(
        self, client_tuple: FourTuple, server: str, principal: str, now: float
    ) -> int:
        """Record the flow and the client's affinity; return its slot."""
        free = self._free
        if free:
            slot = free.pop()
            self._tuples[slot] = client_tuple
            self._servers[slot] = server
            self._principals[slot] = principal
            self._last_seen[slot] = now
        else:
            slot = len(self._tuples)
            self._tuples.append(client_tuple)
            self._servers.append(server)
            self._principals.append(principal)
            self._last_seen.append(now)
            self._next.append(self._NIL)
            self._prev.append(self._NIL)
        self._index[client_tuple] = slot
        self._link_tail(slot)
        self._affinity[(client_tuple[0], principal)] = server
        return slot

    def close(self, client_tuple: FourTuple) -> bool:
        """Remove a connection; True iff state was actually removed, so
        callers can gate companion-state teardown on it."""
        slot = self._index.pop(client_tuple, None)
        if slot is None:
            return False
        self._unlink(slot)
        self._tuples[slot] = None
        self._free.append(slot)
        return True

    def expire_stale(self, now: float) -> List[FourTuple]:
        """Drop idle connections and return their client tuples, walking
        the expiry ring from the head.

        Stops at the first fresh entry — the ring is last-seen-ordered
        (simulated time is monotone), so everything behind it is fresher.
        Callers owning companion tables keyed by the same tuples (the
        switch's NAT table) must drop those entries too — conservation:
        NAT rewrite entries stay equal to open conntrack flows.
        """
        stale: List[FourTuple] = []
        timeout = self.idle_timeout
        slot = self._head
        while slot != self._NIL and now - self._last_seen[slot] > timeout:
            nxt = self._next[slot]
            tup = self._tuples[slot]
            assert tup is not None
            stale.append(tup)
            del self._index[tup]
            self._tuples[slot] = None
            self._free.append(slot)
            slot = nxt
        # Detach the expired prefix in one cut.
        self._head = slot
        if slot != self._NIL:
            self._prev[slot] = self._NIL
        else:
            self._tail = self._NIL
        self.expired += len(stale)
        return stale

    # -- affinity -----------------------------------------------------------

    def preferred_server(self, client_ip: str, principal: str) -> Optional[str]:
        return self._affinity.get((client_ip, principal))
