"""Real asyncio Layer-7 redirector.

The network twin of :class:`repro.l7.redirector.L7Redirector`: an HTTP/1.1
front end that, per the paper's shipped design, answers every request with
an HTTP 302 — either to a back-end server chosen by the current window's
allocation (admission) or to *itself* (self-redirection, the implicit
queue) when the principal's quota for this window is exhausted.

Coordination between redirectors uses a line-delimited-JSON combining
protocol over TCP (:class:`AsyncCombiner`): children push their local
demand vector every period; the root sums the latest vectors and pushes
the global aggregate back.  The allocator consumes it through the same
snapshot-consistent :class:`~repro.coordination.protocol.GlobalView`
interface the simulated protocol provides.
"""

from __future__ import annotations

import asyncio
import json
import time  # real-network stack: wall clock is the actual clock (SIM001 suppressed per use)
from typing import Dict, List, Mapping, Optional, Tuple

from repro.coordination.aggregation import VectorAggregate
from repro.coordination.protocol import GlobalView
from repro.core.access import AccessLevels
from repro.l7.asyncio_origin import principal_from_path
from repro.l7.http import HttpError, HttpResponse, parse_request
from repro.scheduling.allocator import WindowAllocator
from repro.scheduling.queueing import ImplicitQuota
from repro.scheduling.window import WindowConfig, roll_ewma
from repro.scheduling.wrr import SmoothWeightedRoundRobin

__all__ = ["AsyncRedirector", "AsyncCombiner"]


class AsyncCombiner:
    """Push-style combining node exposing a ``view`` like AggregationNode.

    Root: accepts child connections, keeps each child's latest vector, and
    every ``period`` broadcasts the sum (children + own local).  Child:
    connects to the root, pushes its local vector every period, receives
    broadcasts.  Aggregates therefore lag by at most one period plus
    network latency — the real-network analogue of the paper's tree.
    """

    def __init__(
        self,
        name: str,
        local_supplier,
        period: float = 0.1,
        host: str = "127.0.0.1",
        port: int = 0,
        root_addr: Optional[Tuple[str, int]] = None,
    ):
        self.name = name
        self.local_supplier = local_supplier
        self.period = float(period)
        self.host = host
        self.port = port
        self.root_addr = root_addr
        self.is_root = root_addr is None
        self.view = GlobalView()
        self._children: Dict[str, Dict[str, float]] = {}
        self._child_writers: List[asyncio.StreamWriter] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: List[asyncio.Task] = []
        self._last_sent: Dict[str, float] = {}
        self._round = 0

    async def start(self) -> None:
        if self.is_root:
            self._server = await asyncio.start_server(self._accept, self.host, self.port)
            self.port = self._server.sockets[0].getsockname()[1]
            self._tasks.append(asyncio.create_task(self._root_loop()))
        else:
            self._tasks.append(asyncio.create_task(self._child_loop()))

    async def stop(self) -> None:
        for t in self._tasks:
            t.cancel()
        for t in self._tasks:
            try:
                await t
            except (asyncio.CancelledError, Exception):
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- root side -----------------------------------------------------------

    async def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._child_writers.append(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                msg = json.loads(line)
                self._children[msg["name"]] = msg["vector"]
        except (ConnectionError, json.JSONDecodeError, asyncio.CancelledError):
            pass
        finally:
            if writer in self._child_writers:
                self._child_writers.remove(writer)
            writer.close()

    async def _root_loop(self) -> None:
        while True:
            await asyncio.sleep(self.period)
            local = dict(self.local_supplier())
            total: Dict[str, float] = dict(local)
            for vec in self._children.values():
                for k, v in vec.items():
                    total[k] = total.get(k, 0.0) + v
            self._round += 1
            self._deliver(total, local)
            payload = (json.dumps({"round": self._round, "vector": total}) + "\n").encode()
            for w in list(self._child_writers):
                try:
                    w.write(payload)
                    await w.drain()
                except ConnectionError:
                    pass

    # -- child side ---------------------------------------------------------------

    async def _child_loop(self) -> None:
        assert self.root_addr is not None
        reader = writer = None
        while reader is None:
            try:
                reader, writer = await asyncio.open_connection(*self.root_addr)
            except ConnectionError:
                await asyncio.sleep(0.05)
        recv = asyncio.create_task(self._child_recv(reader))
        try:
            while True:
                local = dict(self.local_supplier())
                self._last_sent = local
                writer.write((json.dumps({"name": self.name, "vector": local}) + "\n").encode())
                await writer.drain()
                await asyncio.sleep(self.period)
        finally:
            recv.cancel()
            writer.close()

    async def _child_recv(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            msg = json.loads(line)
            self._deliver(msg["vector"], dict(self._last_sent))

    def _deliver(self, total: Mapping[str, float], local_then: Mapping[str, float]) -> None:
        self.view = GlobalView(
            aggregate=VectorAggregate(values=dict(total), contributors=1),
            round_id=self.view.round_id + 1,
            received_at=time.monotonic(),  # simlint: disable=SIM001
            local_contribution=VectorAggregate(values=dict(local_then), contributors=1),
        )


class AsyncRedirector:
    """HTTP 302 front end enforcing agreements on real sockets."""

    def __init__(
        self,
        name: str,
        access: AccessLevels,
        backends: Mapping[str, List[Tuple[str, int]]],
        host: str = "127.0.0.1",
        port: int = 0,
        window: WindowConfig = WindowConfig(0.1),
        mode: str = "community",
        prices: Optional[Mapping[str, float]] = None,
        n_redirectors: int = 1,
        retry_after: float = 0.1,
    ):
        self.name = name
        self.access = access
        self.backends = {owner: list(addrs) for owner, addrs in backends.items()}
        self.host = host
        self.port = port
        self.window = window
        self.retry_after = float(retry_after)
        self.allocator = WindowAllocator(
            access, window=window, mode=mode, prices=prices,
            n_redirectors=n_redirectors,
        )
        self.principals = access.names
        self.quota = ImplicitQuota(self.principals)
        self._wrr: Dict[str, SmoothWeightedRoundRobin] = {
            p: SmoothWeightedRoundRobin() for p in self.principals
        }
        self._backend_rr: Dict[str, int] = {}
        self._arrivals: Dict[str, float] = {p: 0.0 for p in self.principals}
        self.demand_estimate: Dict[str, float] = {p: 0.0 for p in self.principals}
        self.admitted: Dict[str, int] = {p: 0 for p in self.principals}
        self.self_redirects: Dict[str, int] = {p: 0 for p in self.principals}
        self.bad_requests = 0
        self.combiner: Optional[AsyncCombiner] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: List[asyncio.Task] = []

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise RuntimeError("redirector not started")
        return self._server.sockets[0].getsockname()[:2]

    def local_demand(self) -> Dict[str, float]:
        return dict(self.demand_estimate)

    async def start(self, combiner: Optional[AsyncCombiner] = None) -> None:
        self.combiner = combiner
        if combiner is not None:
            self.allocator.attach(combiner)  # duck-typed: exposes .view
            await combiner.start()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self.address[1]
        self._tasks.append(asyncio.create_task(self._window_loop()))

    async def stop(self) -> None:
        for t in self._tasks:
            t.cancel()
        for t in self._tasks:
            try:
                await t
            except (asyncio.CancelledError, Exception):
                pass
        if self.combiner is not None:
            await self.combiner.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- scheduling ---------------------------------------------------------------

    async def _window_loop(self) -> None:
        while True:
            await asyncio.sleep(self.window.length)
            roll_ewma(self.demand_estimate, self._arrivals, 0.7)
            alloc = self.allocator.compute(self.local_demand())
            self.quota.new_window(alloc.quotas)
            for p, w in alloc.weights.items():
                self._wrr[p].set_weights(
                    {o: v for o, v in w.items() if o in self.backends}
                )

    # -- request path ----------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            data = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=10.0)
            request, _ = parse_request(data)
        except (asyncio.IncompleteReadError, asyncio.TimeoutError, HttpError):
            self.bad_requests += 1
            writer.close()
            return
        principal = principal_from_path(request.path)
        if principal is None or principal not in self._arrivals:
            resp = HttpResponse(status=404)
        else:
            self._arrivals[principal] += 1.0
            if self.quota.try_admit(principal):
                addr = self._pick_backend(principal)
                if addr is not None:
                    self.admitted[principal] += 1
                    resp = HttpResponse.redirect(
                        f"http://{addr[0]}:{addr[1]}{request.path}"
                    )
                else:
                    resp = self._self_redirect(principal, request.path)
            else:
                resp = self._self_redirect(principal, request.path)
        try:
            writer.write(resp.encode())
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    def _self_redirect(self, principal: str, path: str) -> HttpResponse:
        self.self_redirects[principal] += 1
        return HttpResponse.redirect(
            f"http://{self.host}:{self.port}{path}", retry_after=self.retry_after
        )

    def _pick_backend(self, principal: str) -> Optional[Tuple[str, int]]:
        owner = self._wrr[principal].next()
        if owner is None:
            # No allocation yet: any owner this principal has mandatory
            # entitlement on.
            i = self.access.index(principal)
            candidates = [
                k for k in self.principals
                if k in self.backends
                and self.access.MI[i, self.access.index(k)] > 1e-12
            ]
            if not candidates:
                return None
            owner = candidates[0]
        pool = self.backends.get(owner)
        if not pool:
            return None
        idx = self._backend_rr.get(owner, 0)
        self._backend_rr[owner] = (idx + 1) % len(pool)
        return pool[idx % len(pool)]
