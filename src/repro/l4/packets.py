"""Flow records for the Layer-4 switch model.

Only what the switch inspects is modelled: the client 4-tuple and the
connection's payload.  In the simulation the SYN of each connection carries
the :class:`repro.cluster.request.Request` it initiates (the paper's
switch likewise classifies on the connection-establishment packet; the
request URL identifies the principal owning the target service).

Each connection travels the switch as one :class:`FlowRecord`: SYN
classification, payload and response sizes ride in one slotted, callable
record that doubles as the server completion callback, so an admitted flow
costs one allocation instead of a chain of segments plus a closure.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.cluster.request import Request

__all__ = ["FlowRecord", "FourTuple"]

FourTuple = Tuple[str, int, str, int]


class FlowRecord:
    """One admitted (or queued) flow, aggregated to a single object.

    A TCP connection through a NAT switch is a SYN, its destination
    rewrite, the response and its source rewrite, plus a per-flow closure
    to route the server completion back to the switch.  A ``FlowRecord``
    collapses all of that: the client 4-tuple, the request (the SYN's
    payload), the chosen server and the response size live in one
    ``__slots__`` object, and the record itself is the server's ``done``
    callback (``__call__`` forwards to the switch's flow teardown), so
    admission allocates nothing else.
    """

    __slots__ = ("switch", "request", "done", "tup", "server",
                 "response_bytes")

    def __init__(
        self,
        switch: Any,
        request: Request,
        done: Optional[Callable[[Request], None]],
        tup: FourTuple,
    ) -> None:
        self.switch = switch
        self.request = request
        self.done = done
        self.tup = tup
        self.server: Optional[str] = None
        self.response_bytes = 0

    @property
    def principal(self) -> str:
        return self.request.principal

    def __call__(self, request: Request) -> None:
        """Server completion: the record *is* the ``done`` callback."""
        self.switch._on_response_flow(self, request)

    def __repr__(self) -> str:
        return (f"FlowRecord({self.tup!r}, principal={self.principal!r}, "
                f"server={self.server!r})")
