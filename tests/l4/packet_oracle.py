"""The L4 switch on TCP segments: the bit-exact reference for the flow path.

:class:`PacketL4Switch` is :class:`repro.l4.switch.L4Switch` with every
connection materialised as :class:`TcpPacket` segments — a SYN, its
destination rewrite, the response and its source rewrite — over dict
NAT and conntrack tables, one engine event per reinjected SYN and a
linear best-slack scan for server picks.  That is the paper's §4.2 packet
model written out step by step.  It draws quota, checks queues, breaks
ties and schedules admissions exactly as the production flow path does,
so the two must produce bit-identical traces; the tests diff them.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.request import Request
from repro.l4.packets import FourTuple
from repro.l4.switch import L4Switch

_packet_ids = itertools.count(1)


class TcpFlags(enum.Flag):
    NONE = 0
    SYN = enum.auto()
    ACK = enum.auto()
    FIN = enum.auto()
    RST = enum.auto()


@dataclass(frozen=True)
class TcpPacket:
    """One TCP segment; ``request`` rides on the SYN only."""

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    flags: TcpFlags = TcpFlags.NONE
    payload_bytes: int = 0
    request: Optional[Request] = None
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if not 0 < port < 65536:
                raise ValueError(f"invalid port {port}")
        if self.payload_bytes < 0:
            raise ValueError("payload must be non-negative")

    @property
    def is_syn(self) -> bool:
        return bool(self.flags & TcpFlags.SYN) and not (self.flags & TcpFlags.ACK)

    @property
    def four_tuple(self) -> FourTuple:
        return (self.src_ip, self.src_port, self.dst_ip, self.dst_port)

    @property
    def reverse_tuple(self) -> FourTuple:
        return (self.dst_ip, self.dst_port, self.src_ip, self.src_port)

    def rewritten(self, dst_ip: str, dst_port: int) -> "TcpPacket":
        """Destination NAT: the switch's inbound rewrite."""
        return replace(self, dst_ip=dst_ip, dst_port=dst_port)

    def rewritten_source(self, src_ip: str, src_port: int) -> "TcpPacket":
        """Source NAT: the switch's outbound (response) rewrite."""
        return replace(self, src_ip=src_ip, src_port=src_port)


@dataclass(frozen=True)
class NatEntry:
    virtual: Tuple[str, int]   # the advertised service address
    server: Tuple[str, int]    # the chosen real server
    created_at: float


class NatTable:
    """Bidirectional NAT mappings keyed by client-side 4-tuples."""

    def __init__(self) -> None:
        self.live: Dict[FourTuple, NatEntry] = {}
        # (server_ip, server_port, client_ip, client_port) -> client tuple.
        self._rev: Dict[Tuple[str, int, str, int], FourTuple] = {}
        self.rewrites_in = 0
        self.rewrites_out = 0

    def __len__(self) -> int:
        return len(self.live)

    def install(
        self, client_tuple: FourTuple, server_ip: str, server_port: int,
        now: float,
    ) -> NatEntry:
        if client_tuple in self.live:
            raise ValueError(f"mapping for {client_tuple} already exists")
        entry = NatEntry(
            virtual=(client_tuple[2], client_tuple[3]),
            server=(server_ip, server_port),
            created_at=now,
        )
        self.live[client_tuple] = entry
        self._rev[(server_ip, server_port, client_tuple[0], client_tuple[1])] = client_tuple
        return entry

    def lookup(self, client_tuple: FourTuple) -> Optional[NatEntry]:
        return self.live.get(client_tuple)

    def remove(self, client_tuple: FourTuple) -> Optional[NatEntry]:
        entry = self.live.pop(client_tuple, None)
        if entry is not None:
            self._rev.pop(
                (entry.server[0], entry.server[1], client_tuple[0], client_tuple[1]),
                None,
            )
        return entry

    def translate_in(self, pkt: TcpPacket) -> Optional[TcpPacket]:
        """Client -> server rewrite; None if no mapping exists."""
        entry = self.live.get(pkt.four_tuple)
        if entry is None:
            return None
        self.rewrites_in += 1
        return pkt.rewritten(*entry.server)

    def translate_out(self, pkt: TcpPacket) -> Optional[TcpPacket]:
        """Server -> client rewrite: restore the virtual source address."""
        client_tuple = self._rev.get(
            (pkt.src_ip, pkt.src_port, pkt.dst_ip, pkt.dst_port)
        )
        if client_tuple is None:
            return None
        self.rewrites_out += 1
        return pkt.rewritten_source(*self.live[client_tuple].virtual)


@dataclass
class Connection:
    client_tuple: FourTuple
    server: str
    principal: str
    created_at: float
    last_seen: float
    packets: int = 1
    closed: bool = False


class ConnTracker:
    """Live connections (one object each) and per-(client, principal)
    server affinity; expiry scans every live connection."""

    def __init__(self, idle_timeout: float = 60.0):
        if idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive")
        self.idle_timeout = float(idle_timeout)
        self.live: Dict[FourTuple, Connection] = {}
        self._affinity: Dict[Tuple[str, str], str] = {}
        self.expired = 0

    def __len__(self) -> int:
        return len(self.live)

    def __contains__(self, client_tuple: FourTuple) -> bool:
        return client_tuple in self.live

    def open(
        self, client_tuple: FourTuple, server: str, principal: str, now: float
    ) -> Connection:
        conn = Connection(client_tuple, server, principal, now, now)
        self.live[client_tuple] = conn
        self._affinity[(client_tuple[0], principal)] = server
        return conn

    def touch(self, client_tuple: FourTuple, now: float) -> Optional[Connection]:
        conn = self.live.get(client_tuple)
        if conn is not None:
            conn.last_seen = now
            conn.packets += 1
        return conn

    def close(self, client_tuple: FourTuple) -> Optional[Connection]:
        conn = self.live.pop(client_tuple, None)
        if conn is not None:
            conn.closed = True
        return conn

    def lookup(self, client_tuple: FourTuple) -> Optional[Connection]:
        return self.live.get(client_tuple)

    def expire(self, now: float) -> int:
        return len(self.expire_stale(now))

    def expire_stale(self, now: float) -> List[FourTuple]:
        stale = [
            t for t, c in self.live.items()
            if now - c.last_seen > self.idle_timeout
        ]
        for t in stale:
            del self.live[t]
        self.expired += len(stale)
        return stale

    def preferred_server(self, client_ip: str, principal: str) -> Optional[str]:
        return self._affinity.get((client_ip, principal))

    def forget_affinity(self, client_ip: str, principal: str) -> None:
        self._affinity.pop((client_ip, principal), None)


class PacketL4Switch(L4Switch):
    """:class:`L4Switch` on per-segment packets and dict tables."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.nat = NatTable()
        self.conntrack = ConnTracker()
        self._nat_live = self.nat.live
        self._ct_live = self.conntrack.live

    def _handle_flow(self, request: Request, done: Optional[Callable]):
        """Wrap the request in a SYN and run the packet path."""
        syn = TcpPacket(
            src_ip=request.client_id,
            src_port=self._claim_tuple(request.client_id)[1],
            dst_ip=self.virtual_ip,
            dst_port=self.virtual_port,
            flags=TcpFlags.SYN,
            request=request,
        )
        return self._held if self.on_packet(syn, done=done) else self._defer

    def on_packet(self, pkt: TcpPacket, done: Optional[Callable] = None) -> bool:
        """Process one inbound packet; returns False if it was dropped."""
        if pkt.is_syn:
            return self._on_syn(pkt, done)
        # Data/FIN segment of an (expectedly) admitted connection.
        conn = self.conntrack.touch(pkt.four_tuple, self.sim.now)
        translated = self.nat.translate_in(pkt)
        if conn is None or translated is None:
            return False  # no state: the real switch would RST
        if pkt.flags & TcpFlags.FIN:
            # The port is not released here: the server completion for
            # this flow may still be in flight and reference the tuple.
            self.conntrack.close(pkt.four_tuple)
            self.nat.remove(pkt.four_tuple)
        return True

    def _on_syn(self, pkt: TcpPacket, done: Optional[Callable]) -> bool:
        request = pkt.request
        if request is None or request.principal not in self.quota.principals:
            return False
        p = request.principal
        self._arrivals[p] += request.cost
        if self.quota.try_admit(p, cost=request.cost):
            return self._admit(pkt, done)
        q = self._syn_queues[p]
        if len(q) >= self.max_syn_queue:
            self.dropped[p] += 1
            return False
        q.append((pkt, done))
        self._pending_tuples.add(pkt.four_tuple)
        self.queued[p] += 1
        return True

    def _admit(self, pkt: TcpPacket, done: Optional[Callable]) -> bool:
        request = pkt.request
        assert request is not None
        self._pending_tuples.discard(pkt.four_tuple)
        p = request.principal
        server = self._pick_server(p, pkt.src_ip)
        if server is None:
            self.dropped[p] += 1
            self._release_port(pkt.src_ip, pkt.src_port)
            return False
        srv = self._server_by_name[server][1]
        self.nat.install(pkt.four_tuple, server, self.virtual_port, self.sim.now)
        self.conntrack.open(pkt.four_tuple, server, p, self.sim.now)
        rewritten = pkt.rewritten(server, self.virtual_port)
        accepted = srv.submit(
            rewritten.request,
            done=lambda req, t=pkt.four_tuple, d=done: self._on_response(req, t, d),
        )
        if not accepted:
            self.conntrack.close(pkt.four_tuple)
            if self.nat.remove(pkt.four_tuple):
                self._release_port(pkt.src_ip, pkt.src_port)
            self.dropped[p] += 1
            return False
        self.admitted[p] += 1
        return True

    def _on_response(
        self, request: Request, client_tuple: FourTuple, done: Optional[Callable]
    ) -> None:
        """Server completed: rewrite the response and tear down the flow."""
        resp = TcpPacket(
            src_ip=request.served_by or "",
            src_port=self.virtual_port,
            dst_ip=client_tuple[0],
            dst_port=client_tuple[1],
            flags=TcpFlags.ACK | TcpFlags.FIN,
            payload_bytes=request.size_bytes,
        )
        self.nat.translate_out(resp)  # restore the virtual source address
        self.conntrack.close(client_tuple)
        if self.nat.remove(client_tuple):
            self._release_port(client_tuple[0], client_tuple[1])
        if done is not None:
            done(request)

    def _pick_from_heap(self, principal, budget, used):
        """Linear scan for the usable server with the most slack."""
        best = None
        best_slack = 0.0
        for name, b in budget.items():
            if not self._usable(name):
                continue
            slack = b - used.get(name, 0.0)
            if slack > best_slack:
                best, best_slack = name, slack
        return best

    def _schedule_reinjection(self) -> None:
        """Spend the new window's quota on queued SYNs, oldest first, and
        schedule one reinjection event per released SYN."""
        releases = []
        for p in self.principals:
            q = self._syn_queues[p]
            while q:
                pkt, done = q[0]
                if not self.quota.try_admit(p, cost=pkt.request.cost):
                    break
                q.popleft()
                self.reinjected[p] += 1
                releases.append((pkt, done))
        n = len(releases)
        for idx, (pkt, done) in enumerate(releases):
            delay = (idx / n) * self.window.length if self.spread_reinjection else 0.0
            self.sim.schedule(delay, self._admit, pkt, done)
