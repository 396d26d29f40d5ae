"""Network address translation table.

The paper's switch "rewrites the destination address and the port of the
packet to those of the selected server, forwards the packet ..., and
records current connection information"; responses are rewritten back so
clients only ever see the virtual service address.  :class:`ArenaNatTable`
holds those mappings keyed on the client-side 4-tuple.
"""

from __future__ import annotations

from typing import Dict, List

from repro.l4.packets import FourTuple

__all__ = ["ArenaNatTable"]


class ArenaNatTable:
    """NAT mappings in parallel slot arrays behind one ``tuple -> slot`` dict.

    Installing a flow writes a few list cells instead of constructing an
    entry object, and a removed mapping's slot is recycled.  The switch
    completes each flow through its :class:`~repro.l4.packets.FlowRecord`,
    so the response rewrite back to the virtual address is the
    ``rewrites_out`` counter, not a reverse lookup.
    """

    def __init__(self) -> None:
        self._index: Dict[FourTuple, int] = {}
        # Read-only alias for hot-path membership tests (the switch's port
        # allocator probes it directly, skipping a __contains__ frame).
        self.live: Dict[FourTuple, int] = self._index
        self._server_ip: List[str] = []
        self._server_port: List[int] = []
        self._free: List[int] = []
        self.rewrites_out = 0

    def __len__(self) -> int:
        return len(self._index)

    def install_slot(
        self, client_tuple: FourTuple, server_ip: str, server_port: int
    ) -> int:
        """Record the mapping ``client_tuple -> (server_ip, server_port)``
        and return its slot."""
        if client_tuple in self._index:
            raise ValueError(f"mapping for {client_tuple} already exists")
        free = self._free
        if free:
            slot = free.pop()
            self._server_ip[slot] = server_ip
            self._server_port[slot] = server_port
        else:
            slot = len(self._server_ip)
            self._server_ip.append(server_ip)
            self._server_port.append(server_port)
        self._index[client_tuple] = slot
        return slot

    def remove(self, client_tuple: FourTuple) -> bool:
        """Remove a mapping; True iff one existed, so callers can gate
        follow-up teardown — e.g. ephemeral-port release — on it."""
        slot = self._index.pop(client_tuple, None)
        if slot is None:
            return False
        self._free.append(slot)
        return True
