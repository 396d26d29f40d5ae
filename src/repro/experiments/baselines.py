"""Baseline enforcement strategies for comparison experiments.

The paper's §6 surveys the two families its redirectors are *not*:
load-balancing front ends (weighted round-robin and variants) and
content-aware distributors.  Neither looks at agreements.  This module
implements that class of baseline — a pass-through redirector that admits
everything and spreads load across servers by capacity-weighted WRR — and
a comparison harness quantifying the SLA violation it produces next to
the coordinated scheduler on the same workload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Union

from repro.cluster.client import Decision, Drop, Redirect
from repro.cluster.request import Request
from repro.cluster.server import Server
from repro.scheduling.wrr import SmoothWeightedRoundRobin
from repro.sim.engine import Simulator

__all__ = ["PassthroughRedirector", "BaselineComparison", "run_enforcement_comparison"]


class PassthroughRedirector:
    """Admits every request; balances load by capacity-weighted WRR.

    No agreements, no windows, no coordination — the classical cluster
    front end the paper contrasts with.
    """

    def __init__(self, sim: Simulator, name: str,
                 servers: Mapping[str, Union[Server, List[Server]]],
                 weights: Optional[Mapping[str, float]] = None):
        self.sim = sim
        self.name = name
        self.pool: List[Server] = []
        for s in servers.values():
            self.pool.extend(s if isinstance(s, (list, tuple)) else [s])
        if not self.pool:
            raise ValueError("need at least one server")
        # weights: explicit per-server forwarding bias (e.g. Fig 1's 75/25
        # locality preference); defaults to capacity-proportional.  The
        # rotation state is per *principal*: a shared rotor would alias
        # with deterministic client interleavings and steer whole
        # principals to single servers.
        self._weights = (
            dict(weights) if weights else {s.name: s.capacity for s in self.pool}
        )
        self._wrr: Dict[str, SmoothWeightedRoundRobin] = {}
        self._by_name = {s.name: s for s in self.pool}
        self.admitted: Dict[str, int] = {}

    def handle(self, request: Request, done: Optional[Callable] = None) -> Decision:
        rotor = self._wrr.get(request.principal)
        if rotor is None:
            rotor = SmoothWeightedRoundRobin(self._weights)
            self._wrr[request.principal] = rotor
        name = rotor.next()
        if name is None:
            return Drop()
        self.admitted[request.principal] = self.admitted.get(request.principal, 0) + 1
        return Redirect(self._by_name[name])

    def park(self, client, request: Request) -> bool:
        """No windows, no quota to wait for: a server-rejected request is dropped."""
        return False


@dataclass
class BaselineComparison:
    """Measured rates under both strategies for the same workload."""

    coordinated: Dict[str, float]
    passthrough: Dict[str, float]
    guarantees: Dict[str, float]
    demands: Dict[str, float]

    def violation(self, strategy: str, principal: str) -> float:
        """Shortfall below the effective guarantee min(demand, MC)."""
        rates = self.coordinated if strategy == "coordinated" else self.passthrough
        floor = min(self.demands[principal], self.guarantees[principal])
        return max(0.0, floor - rates.get(principal, 0.0))

    @property
    def passthrough_violates(self) -> bool:
        return any(
            self.violation("passthrough", p) > 0.05 * max(1.0, self.guarantees[p])
            for p in self.guarantees
        )


def run_enforcement_comparison(
    duration: float = 30.0, seed: int = 0
) -> BaselineComparison:
    """Fig 6-shaped workload under coordinated vs pass-through front ends.

    A floods at 405 req/s against a 20% guarantee; B offers 135 req/s
    against an 80% guarantee (256 req/s).  Coordinated enforcement serves
    B fully; capacity-weighted WRR splits by offered load and squeezes B
    to ~a quarter of the server.  Both run
    :func:`repro.experiments.sweeps.contended_world`, the second with the
    redirector swapped for a :class:`PassthroughRedirector`.
    """
    from repro.core.access import compute_access_levels
    from repro.experiments.figures import run_figure
    from repro.experiments.sweeps import contended_world

    world = contended_world(duration, min(10.0, duration / 3.0), seed)
    # A pass-through front end has no columnar form.
    wrr = replace(world, nodes=tuple(replace(n, kind="passthrough") for n in world.nodes),
                  lane="slotted")
    access = compute_access_levels(world.graph())
    return BaselineComparison(
        coordinated=run_figure(world).phases[0].rates,
        passthrough=run_figure(wrr).phases[0].rates,
        guarantees={p: access.mandatory(p) for p in world.keys},
        demands={c.principal: c.rate for c in world.clients},
    )
