"""Runtime conservation invariants (``repro check`` / ``REPRO_CHECK=1``).

The figures' tolerances check that enforcement *looks* right; this layer
checks that the accounting underneath cannot be wrong, window by window:

- **Tickets**: mandatory tickets allocated out of a currency never exceed
  the currency issued (Σ lb ≤ 1 per grantor; the paper's "a principal
  cannot guarantee more than 100% of its resources").
- **Quotas**: a window allocation hands out non-negative quotas, never
  more than a principal's local demand, and never more than the community
  capacity for the window.
- **Service**: a server completes at most ``capacity × window`` request
  units per window (plus one in-flight request of carry-over slack).
- **Flows**: NAT rewrite entries stay in bijection with open conntrack
  flows (installed together, removed together, expired together).
- **Parking**: ``issued == admitted + dropped + parked`` per open-loop
  client, and a redirector holds exactly what its clients count as parked.
- **LP**: every accepted LP solution is primal-feasible within ``eps``.

Checks are attached by :class:`repro.experiments.harness.Scenario` when
``check_invariants=True`` (or the ``REPRO_CHECK`` environment variable is
set) and cost nothing when off: the only residue on the hot path is one
``is None`` test per completion.  Checker callbacks are strictly
read-only, so an instrumented run produces bit-identical traces to an
unchecked one — ``repro check`` asserts exactly that.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Mapping, Optional

__all__ = [
    "ENV_VAR",
    "InvariantViolation",
    "InvariantChecker",
    "check_enabled",
]

ENV_VAR = "REPRO_CHECK"

_TRUE_VALUES = frozenset({"1", "true", "yes", "on"})


def check_enabled(default: bool = False) -> bool:
    """Resolve the ``REPRO_CHECK`` environment toggle."""
    raw = os.environ.get(ENV_VAR, "")
    if not raw:
        return default
    return raw.strip().lower() in _TRUE_VALUES


class InvariantViolation(AssertionError):
    """A conservation invariant failed; the message names the ledger."""


class _ServerWatch:
    """Per-server completion accounting between window ticks."""

    __slots__ = ("units", "max_cost", "capacity_high")

    def __init__(self, capacity: float) -> None:
        self.units = 0.0
        self.max_cost = 0.0
        self.capacity_high = capacity


class InvariantChecker:
    """Asserts per-window conservation; see the module docstring.

    ``strict=True`` (the default) raises :class:`InvariantViolation` at the
    first failure; ``strict=False`` records failures in :attr:`violations`
    for post-run inspection (used by the fixture tests).
    """

    def __init__(self, eps: float = 1e-6, strict: bool = True) -> None:
        if eps < 0:
            raise ValueError("eps must be >= 0")
        self.eps = float(eps)
        self.strict = bool(strict)
        self.checks_run = 0
        self.violations: List[str] = []
        self._server_watch: Dict[str, _ServerWatch] = {}

    # -- outcome plumbing --------------------------------------------------

    def _fail(self, message: str) -> None:
        self.violations.append(message)
        if self.strict:
            raise InvariantViolation(message)

    def _passed(self) -> None:
        self.checks_run += 1

    # -- ticket conservation ----------------------------------------------

    def check_ticket_conservation(self, graph: Any) -> None:
        """Σ tickets allocated ≤ currency issued, per principal.

        Accepts an :class:`repro.core.agreements.AgreementGraph` (lb sums
        per grantor) or an iterable of :class:`repro.core.tickets.Currency`
        (mandatory issued fractions).  Construction-time guards enforce the
        same bound; this re-checks the live ledgers so state mutated behind
        the constructors (deserialisation, dynamic renegotiation, bugs)
        cannot slip through.
        """
        tol = self.eps
        if hasattr(graph, "agreements") and hasattr(graph, "names"):
            granted: Dict[str, float] = {}
            for ag in graph.agreements():
                if not (-tol <= ag.lb <= ag.ub <= 1.0 + tol):
                    self._fail(
                        f"agreement {ag}: bounds outside 0 <= lb <= ub <= 1"
                    )
                    return
                granted[ag.grantor] = granted.get(ag.grantor, 0.0) + ag.lb
            for name in graph.names:
                total = granted.get(name, 0.0)
                if total > 1.0 + tol:
                    self._fail(
                        f"principal {name!r} granted {total:.6f} > 1.0 of "
                        "its currency in mandatory tickets"
                    )
                    return
        else:
            for currency in graph:
                for ticket in currency.issued:
                    if ticket.amount < -tol:
                        self._fail(
                            f"currency {currency.owner!r}: negative ticket "
                            f"amount {ticket.amount}"
                        )
                        return
                frac = currency.mandatory_issued_fraction()
                if frac > 1.0 + tol:
                    self._fail(
                        f"currency {currency.owner!r}: mandatory issuance "
                        f"{frac:.6f} exceeds the full currency"
                    )
                    return
        self._passed()

    # -- window allocations ------------------------------------------------

    def check_allocation(
        self,
        quotas: Mapping[str, float],
        local: Mapping[str, float],
        capacity_per_window: float,
        node: str = "?",
    ) -> None:
        """One window's admission quotas at one redirector.

        Quotas are denominated in requests/window against this node's
        ``local`` demand; the community cannot admit more than its total
        capacity for the window.
        """
        tol = self.eps * max(1.0, capacity_per_window)
        total = 0.0
        for principal, quota in quotas.items():
            if quota < -tol:
                self._fail(f"{node}: negative quota {quota} for {principal!r}")
                return
            if quota > local.get(principal, 0.0) + tol + 1e-9:
                self._fail(
                    f"{node}: quota {quota:.6f} for {principal!r} exceeds "
                    f"local demand {local.get(principal, 0.0):.6f}"
                )
                return
            total += quota
        if capacity_per_window > 0 and total > capacity_per_window + tol:
            self._fail(
                f"{node}: window quotas sum to {total:.6f} > community "
                f"capacity {capacity_per_window:.6f} requests/window"
            )
            return
        self._passed()

    def watch_allocator(
        self, name: str, allocator: Any, capacity_per_window: float
    ) -> None:
        """Wrap ``allocator.compute`` so every window's output is checked."""
        inner = allocator.compute

        def checked(local: Mapping[str, float], now: Optional[float] = None) -> Any:
            alloc = inner(local, now=now)
            self.check_allocation(
                alloc.quotas, local, capacity_per_window, node=name
            )
            return alloc

        allocator.compute = checked

    # -- server admission ---------------------------------------------------

    def observe_completion(self, server_name: str, cost: float) -> None:
        watch = self._server_watch.get(server_name)
        if watch is not None:
            watch.units += cost
            if cost > watch.max_cost:
                watch.max_cost = cost

    def watch_server(self, sim: Any, server: Any, window: float) -> None:
        """Check ``completed units ≤ capacity × window`` every window.

        Chains onto ``server.on_complete`` (read-only bookkeeping) and
        registers a periodic tick.  The bound carries one ``max_cost`` of
        slack: a request finishing just inside a window may have occupied
        the server since the previous one.
        """
        if window <= 0:
            raise ValueError("window must be positive")
        watch = _ServerWatch(server.capacity)
        self._server_watch[server.name] = watch
        inner = server.on_complete

        def hooked(request: Any, srv: Any) -> None:
            self.observe_completion(srv.name, request.cost)
            if inner is not None:
                inner(request, srv)

        server.on_complete = hooked
        sim.every(window, self._server_window_tick, server, window,
                  start=window)

    def _server_window_tick(self, server: Any, window: float) -> None:
        watch = self._server_watch[server.name]
        # set_capacity may change mid-window; bound by the highest rate seen.
        if server.capacity > watch.capacity_high:
            watch.capacity_high = server.capacity
        bound = watch.capacity_high * window + watch.max_cost
        if watch.units > bound * (1.0 + self.eps) + self.eps:
            self._fail(
                f"server {server.name!r} completed {watch.units:.6f} "
                f"request-units in one {window}s window; capacity allows "
                f"{bound:.6f}"
            )
            return
        watch.units = 0.0
        watch.capacity_high = server.capacity
        self._passed()

    # -- NAT / conntrack ----------------------------------------------------

    def check_nat_conntrack(self, switch: Any) -> None:
        """NAT rewrite entries must equal open conntrack flows."""
        nat_entries = len(switch.nat)
        flows = len(switch.conntrack)
        if nat_entries != flows:
            self._fail(
                f"switch {switch.name!r}: {nat_entries} NAT entries vs "
                f"{flows} open conntrack flows (install/remove/expire "
                "must keep them in bijection)"
            )
            return
        self._passed()

    def watch_switch(self, sim: Any, switch: Any, window: float) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        sim.every(window, self.check_nat_conntrack, switch, start=window)

    # -- refusal queues -------------------------------------------------------

    def check_parking(self, clients: Any, redirectors: Any) -> None:
        """Open-loop conservation across clients and ``ParkedRequests``."""
        for c in clients:
            if c.mode == "open" and c.issued != c.admitted + c.dropped + c.parked:
                self._fail(
                    f"client {c.name!r}: issued {c.issued} != admitted "
                    f"{c.admitted} + dropped {c.dropped} + parked {c.parked}")
                return
        for red in redirectors:
            pooled = sum(c.parked for c in clients if c.redirector is red)
            if len(red.parked) != pooled:
                self._fail(
                    f"redirector {red.name!r} holds {len(red.parked)} parked "
                    f"requests, its clients count {pooled}")
                return
        self._passed()

    # -- LP feasibility ------------------------------------------------------

    def check_lp_solution(self, model: Any, solution: Any) -> None:
        """Primal feasibility of an accepted solution within ``eps``.

        Non-optimal statuses pass through untouched — infeasibility is a
        legitimate solver outcome the schedulers handle; this check guards
        against *claimed-optimal* points that violate their own rows.
        """
        if not getattr(solution, "optimal", False) or solution.x is None:
            self._passed()
            return
        import numpy as np

        _c, A_ub, b_ub, A_eq, b_eq, bounds = model.to_arrays()
        x = np.asarray(solution.x, dtype=float)
        scale = max(
            1.0,
            float(np.max(np.abs(b_ub))) if b_ub.size else 1.0,
            float(np.max(np.abs(b_eq))) if b_eq.size else 1.0,
        )
        tol = max(self.eps, 1e-7) * scale
        if A_ub.size:
            slack = A_ub @ x - b_ub
            worst = float(np.max(slack))
            if worst > tol:
                self._fail(
                    f"LP {model.name!r}: inequality row violated by "
                    f"{worst:.3e} (> {tol:.1e})"
                )
                return
        if A_eq.size:
            gap = float(np.max(np.abs(A_eq @ x - b_eq)))
            if gap > tol:
                self._fail(
                    f"LP {model.name!r}: equality row violated by "
                    f"{gap:.3e} (> {tol:.1e})"
                )
                return
        for i, (lb, ub) in enumerate(bounds):
            if x[i] < lb - tol or x[i] > ub + tol:
                self._fail(
                    f"LP {model.name!r}: x[{i}]={x[i]:.6f} outside "
                    f"[{lb}, {ub}]"
                )
                return
        self._passed()

    # -- post-fault liveness -------------------------------------------------

    def arm_liveness(
        self,
        sim: Any,
        meter: Any,
        quotas: Mapping[str, float],
        heal_at: float,
        k_windows: int,
        window: float,
        eps: float = 0.15,
        span: Optional[float] = None,
        abs_floor: float = 5.0,
    ) -> None:
        """Recovery ledger: after the last heal at ``heal_at``, every
        principal's admitted rate must return to within ``eps`` (relative,
        with ``abs_floor`` req/s of absolute slack) of its no-fault quota
        within ``k_windows`` scheduling windows — the bounded-recovery
        guarantee the fault experiments assert.

        The check fires once, at ``heal_at + k_windows * window``, and
        measures the trailing ``span`` seconds of the rate meter (default:
        the last quarter of the convergence budget).  Read-only: it only
        reads meter bins, so traces stay bit-identical with the checker on
        or off.  The deadline must fall inside the run, or the check never
        fires.
        """
        if k_windows < 1 or window <= 0:
            raise ValueError("need k_windows >= 1 and window > 0")
        deadline = heal_at + k_windows * window
        if span is None:
            span = max(window, 0.25 * k_windows * window)
        sim.schedule_at(
            deadline, self._liveness_check,
            meter, dict(quotas), deadline, float(span), float(eps),
            float(abs_floor),
        )

    def _liveness_check(
        self,
        meter: Any,
        quotas: Dict[str, float],
        deadline: float,
        span: float,
        eps: float,
        abs_floor: float,
    ) -> None:
        import numpy as np

        for principal in sorted(quotas):
            want = quotas[principal]
            times, rates = meter.series(principal)
            times = np.asarray(times, dtype=float)
            rates = np.asarray(rates, dtype=float)
            mask = (times >= deadline - span) & (times <= deadline)
            got = float(rates[mask].mean()) if mask.any() else 0.0
            tol = max(eps * want, abs_floor)
            if abs(got - want) > tol:
                self._fail(
                    f"liveness: {principal!r} at {got:.1f} req/s "
                    f"{deadline - span:.1f}-{deadline:.1f}s, expected "
                    f"{want:.1f}±{tol:.1f} within {span:.1f}s of the "
                    "recovery deadline"
                )
                return
        self._passed()

    # -- reporting -----------------------------------------------------------

    def summary(self) -> Dict[str, int]:
        return {
            "checks_run": self.checks_run,
            "violations": len(self.violations),
        }
