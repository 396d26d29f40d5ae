"""Per-figure experiment definitions (paper §1 Fig 1, §2.3 Fig 3, §5 Figs 6-10).

Each ``run_figN`` builds the paper's exact scenario — same agreements, same
server capacities, same client counts and per-client rate limits, same
phase timeline — executes it on the simulated testbed, and returns the
measured per-phase service rates next to the values the paper reports.

``duration_scale`` shortens every phase proportionally (tests and
benchmarks use ~0.2-0.4; 1.0 is the paper's full timeline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.agreements import Agreement, AgreementGraph
from repro.core.tickets import TicketKind
from repro.core.valuation import value_currencies
from repro.experiments.harness import FigureResult, PhaseExpectation, Scenario
from repro.scheduling.community import CommunityScheduler
from repro.scheduling.endpoint import endpoint_allocate
from repro.scheduling.window import WindowConfig
from repro.sim.monitor import PhaseStats

__all__ = [
    "run_fig1", "run_fig1_distributed", "run_fig3", "run_fig6", "run_fig7",
    "run_fig8", "run_fig9", "run_fig10", "fig6_scenario", "fig9_scenario",
    "fig10_scenario", "ALL_FIGURES", "Fig1Result", "Fig3Result",
]


# ---------------------------------------------------------------------------
# Fig 1 — the motivating example: end-point enforcement violates the SLA
# ---------------------------------------------------------------------------

@dataclass
class Fig1Result:
    """Aggregate service rates under the two enforcement strategies."""

    endpoint: Dict[str, float]
    coordinated: Dict[str, float]
    expected_endpoint: Dict[str, float] = field(
        default_factory=lambda: {"A": 30.0, "B": 70.0}
    )
    expected_coordinated: Dict[str, float] = field(
        default_factory=lambda: {"A": 20.0, "B": 80.0}
    )
    tolerance: float = 1.0   # absolute req/s (the arithmetic form is exact;
                             # the simulated form passes 4.0)

    @property
    def ok(self) -> bool:
        return all(
            abs(self.endpoint[p] - self.expected_endpoint[p]) <= self.tolerance
            and abs(self.coordinated[p] - self.expected_coordinated[p]) <= self.tolerance
            for p in ("A", "B")
        )


def run_fig1() -> Fig1Result:
    """Fig 1: redirectors R1/R2 see loads (A20,B20)/(A20,B60), bias their
    forwarding 75/25 to servers S1/S2 (50 req/s each); A has 20% and B 80%
    of the aggregate.  Independent per-server enforcement yields (A30,B70);
    coordinated scheduling restores (A20,B80)."""
    shares = {"A": 0.2, "B": 0.8}
    r1_load = {"A": 20.0, "B": 20.0}
    r2_load = {"A": 20.0, "B": 60.0}
    # Locality bias: R1 forwards 75% to S1, 25% to S2; R2 the reverse.
    s1_demand = {p: 0.75 * r1_load[p] + 0.25 * r2_load[p] for p in shares}
    s2_demand = {p: 0.25 * r1_load[p] + 0.75 * r2_load[p] for p in shares}

    a1 = endpoint_allocate(s1_demand, shares, capacity=50.0)
    a2 = endpoint_allocate(s2_demand, shares, capacity=50.0)
    endpoint = {p: a1[p] + a2[p] for p in shares}

    # Coordinated: one community LP over the aggregate demand and servers.
    g = AgreementGraph()
    g.add_principal("S1", capacity=50.0)
    g.add_principal("S2", capacity=50.0)
    g.add_principal("A")
    g.add_principal("B")
    for server in ("S1", "S2"):
        g.add_agreement(Agreement(server, "A", 0.2, 1.0))
        g.add_agreement(Agreement(server, "B", 0.8, 1.0))
    from repro.core.access import compute_access_levels

    access = compute_access_levels(g)
    sched = CommunityScheduler(access, WindowConfig(1.0))
    plan = sched.schedule(
        {"A": r1_load["A"] + r2_load["A"], "B": r1_load["B"] + r2_load["B"]}
    )
    coordinated = {p: plan.served(p) for p in shares}
    return Fig1Result(endpoint=endpoint, coordinated=coordinated)


def run_fig1_distributed(duration: float = 30.0, seed: int = 0) -> Fig1Result:
    """Fig 1 as a *full simulation*, not arithmetic.

    End-point side: two :class:`EndpointEnforcingServer` s behind locality-
    biased pass-through redirectors (75/25 and 25/75); clients are bound to
    their redirector and do not retry (requests cannot migrate — the
    paper's locality premise).  Coordinated side: the same demand through
    two agreement-enforcing L7 redirectors over a combining tree.
    """
    from repro.experiments.baselines import PassthroughRedirector

    shares = {"A": 0.2, "B": 0.8}
    settle = duration / 3.0

    def client_set(sc, r1, r2, retries: bool):
        # Jittered spacing: strictly periodic arrivals alias with the
        # windowed quota state and bias which principal's requests hit the
        # rounding residue, while full Poisson variance would waste the
        # tiny per-window quotas (no retries on the end-point side).
        pool = None if retries else 0
        for name, p, red, rate in (
            ("CA1", "A", r1, 20.0), ("CB1", "B", r1, 20.0),
            ("CA2", "A", r2, 20.0), ("CB2", "B", r2, 60.0),
        ):
            sc.client(name, p, red, rate=rate, max_retry_pool=pool, jitter=0.4)

    # --- end-point enforcement ------------------------------------------
    g1 = AgreementGraph()
    for name in ("S1", "S2"):
        g1.add_principal(name, capacity=50.0)
    g1.add_principal("A")
    g1.add_principal("B")
    sc1 = Scenario(g1, seed=seed)
    # End-point enforcers run a coarser window (the paper's §6 notes such
    # systems operate at coarse granularity — Oceano at minutes); at 0.1 s
    # their per-window quotas here would round to ~2 requests and the
    # rounding noise, not the policy, would dominate.
    ep_window = WindowConfig(0.5)
    s1 = sc1.endpoint_server("S1", "S1", 50.0, shares, window=ep_window)
    s2 = sc1.endpoint_server("S2", "S2", 50.0, shares, window=ep_window)
    r1 = PassthroughRedirector(sc1.sim, "R1", {"S1": s1, "S2": s2},
                               weights={"S1": 3.0, "S2": 1.0})
    r2 = PassthroughRedirector(sc1.sim, "R2", {"S1": s1, "S2": s2},
                               weights={"S1": 1.0, "S2": 3.0})
    client_set(sc1, r1, r2, retries=False)
    sc1.run(duration)
    endpoint = {
        p: sc1.meter.mean_rate(p, settle, duration) for p in ("A", "B")
    }

    # --- coordinated enforcement -------------------------------------------
    g2 = AgreementGraph()
    g2.add_principal("S1", capacity=50.0)
    g2.add_principal("S2", capacity=50.0)
    g2.add_principal("A")
    g2.add_principal("B")
    for server in ("S1", "S2"):
        g2.add_agreement(Agreement(server, "A", 0.2, 1.0))
        g2.add_agreement(Agreement(server, "B", 0.8, 1.0))
    sc2 = Scenario(g2, seed=seed)
    cs1 = sc2.server("S1", "S1", 50.0)
    cs2 = sc2.server("S2", "S2", 50.0)
    cr1 = sc2.l7("R1", {"S1": cs1, "S2": cs2}, n_redirectors=2)
    cr2 = sc2.l7("R2", {"S1": cs1, "S2": cs2}, n_redirectors=2)
    sc2.connect_tree(link_delay=0.005)
    client_set(sc2, cr1, cr2, retries=True)
    sc2.run(duration)
    coordinated = {
        p: sc2.meter.mean_rate(p, settle, duration) for p in ("A", "B")
    }
    return Fig1Result(endpoint=endpoint, coordinated=coordinated, tolerance=4.0)


# ---------------------------------------------------------------------------
# Fig 3 — the ticket/currency worked example
# ---------------------------------------------------------------------------

@dataclass
class Fig3Result:
    finals: Dict[str, Tuple[float, float]]
    tickets: Dict[str, float]
    expected_finals: Dict[str, Tuple[float, float]] = field(
        default_factory=lambda: {
            "A": (600.0, 400.0), "B": (760.0, 1340.0), "C": (1140.0, 960.0),
        }
    )
    expected_tickets: Dict[str, float] = field(
        default_factory=lambda: {
            "M-Ticket1": 400.0, "O-Ticket2": 200.0,
            "M-Ticket3": 1140.0, "O-Ticket4": 960.0,
        }
    )

    @property
    def ok(self) -> bool:
        tol = 1e-6
        return all(
            abs(self.finals[p][0] - self.expected_finals[p][0]) < tol
            and abs(self.finals[p][1] - self.expected_finals[p][1]) < tol
            for p in self.expected_finals
        ) and all(
            abs(self.tickets[t] - self.expected_tickets[t]) < tol
            for t in self.expected_tickets
        )


def run_fig3() -> Fig3Result:
    """Fig 3: A (1000 u/s) grants B [0.4,0.6]; B (1500 u/s) grants C
    [0.6,1.0].  Final (mandatory, optional) values must be A (600,400),
    B (760,1340), C (1140,960)."""
    g = AgreementGraph()
    g.add_principal("A", capacity=1000.0)
    g.add_principal("B", capacity=1500.0)
    g.add_principal("C", capacity=0.0)
    g.add_agreement(Agreement("A", "B", 0.4, 0.6))
    g.add_agreement(Agreement("B", "C", 0.6, 1.0))
    val = value_currencies(g)
    return Fig3Result(
        finals=val.as_dict(),
        tickets={
            "M-Ticket1": val.ticket_value("A", "B", TicketKind.MANDATORY),
            "O-Ticket2": val.ticket_value("A", "B", TicketKind.OPTIONAL),
            "M-Ticket3": val.ticket_value("B", "C", TicketKind.MANDATORY),
            "O-Ticket4": val.ticket_value("B", "C", TicketKind.OPTIONAL),
        },
    )


# The lane run_fig6 / run_fig9 / run_fig10 run when the caller names none.
# Every lane lands on the same digests; slotted is the oracle repro check
# diffs it against.
DEFAULT_LANE = "columnar"

# Paper-reported phase rates of the two figures every lane reproduces
# (event lanes here, the sharded lane in experiments/sharded.py): phase i
# spans [(i-1)·T, i·T) with T = 100 s × duration_scale.
PAPER_PHASES = {
    "fig6": (
        PhaseExpectation("phase1", {"A": 185.0, "B": 135.0}),
        PhaseExpectation("phase2", {"A": 270.0, "B": 0.0}),
        PhaseExpectation("phase3", {"A": 185.0, "B": 135.0}),
    ),
    "fig9": (
        PhaseExpectation("phase1", {"A": 480.0, "B": 160.0}),
        PhaseExpectation("phase2", {"A": 0.0, "B": 320.0}),
        PhaseExpectation("phase3", {"A": 400.0, "B": 240.0}),
        PhaseExpectation("phase4", {"A": 0.0, "B": 320.0}),
    ),
}


def paper_phases(
    figure: str, T: float
) -> Tuple[List[Tuple[str, float, float]], List[PhaseExpectation], float]:
    """``(phases, expected, settle)`` for fig6/fig9 at phase length ``T``."""
    expected = list(PAPER_PHASES[figure])
    phases = [(e.phase, i * T, (i + 1) * T) for i, e in enumerate(expected)]
    return phases, expected, min(5.0, T * 0.2)


# ---------------------------------------------------------------------------
# Fig 6 — L7: sharing agreements in a service-provider context
# ---------------------------------------------------------------------------

def _run_sharded(
    figure: str, duration_scale: float, seed: int, lane: Optional[str],
    shards: int,
) -> FigureResult:
    """Route ``run_fig6`` / ``run_fig9`` to the sharded lane; a lane the
    caller chose is an error, since the sharded lane is its own."""
    if lane is not None:
        raise ValueError(
            f"lane={lane!r} and shards={shards} select different execution "
            "lanes; give one or the other"
        )
    from repro.experiments.sharded import run_sharded_figure

    return run_sharded_figure(figure, duration_scale=duration_scale,
                              seed=seed, shards=shards)


def _on_lane(build, duration_scale: float, seed: int, lane: Optional[str]):
    """Build and run a fig6/fig9/fig10 world on ``lane`` (:data:`DEFAULT_LANE`
    when the caller named none); returns ``(scenario, phase_length)``."""
    return build(duration_scale, seed,
                 lane=DEFAULT_LANE if lane is None else lane)


def _fig6_graph(capacity: float, a_lb: float, b_lb: float) -> AgreementGraph:
    g = AgreementGraph()
    g.add_principal("S", capacity=capacity)
    g.add_principal("A")
    g.add_principal("B")
    g.add_agreement(Agreement("S", "A", a_lb, 1.0))
    g.add_agreement(Agreement("S", "B", b_lb, 1.0))
    return g


def fig6_scenario(
    duration_scale: float = 1.0, seed: int = 0,
    check_invariants: Optional[bool] = None,
    lane: str = "slotted",
) -> Tuple[Scenario, float]:
    """Build and run the fig6 world; returns ``(scenario, phase_length)``.

    Shared between :func:`run_fig6` and the replay-determinism harness
    (:mod:`repro.analysis.replay`), which replays *this exact scenario*
    twice — plus once with ``check_invariants=True`` — and compares trace
    digests, and diffs it across lanes.
    """
    T = 100.0 * duration_scale
    sc = Scenario(_fig6_graph(320.0, 0.2, 0.8), seed=seed,
                  check_invariants=check_invariants, lane=lane)
    server = sc.server("S", "S", 320.0)
    r1 = sc.l7("R1", {"S": server}, n_redirectors=2)
    r2 = sc.l7("R2", {"S": server}, n_redirectors=2)
    sc.connect_tree(link_delay=0.005)
    a_windows = [(0.0, 3 * T)]
    b_windows = [(0.0, T), (2 * T, 3 * T)]
    sc.client("C1", "A", r1, rate=135.0, windows=a_windows)
    sc.client("C2", "A", r1, rate=135.0, windows=a_windows)
    sc.client("C3", "B", r2, rate=135.0, windows=b_windows)
    sc.run(3 * T)
    return sc, T


def run_fig6(
    duration_scale: float = 1.0, seed: int = 0, lane: Optional[str] = None,
    shards: Optional[int] = None,
) -> FigureResult:
    """Fig 6: V=320; A [0.2,1] with two 135 req/s clients at R1; B [0.8,1]
    with one client at R2.  Three phases: both active / only A / both.

    ``lane`` defaults to ``"columnar"`` (:data:`DEFAULT_LANE`); every lane
    produces the same digests, and ``repro check`` diffs them against the
    slotted oracle.  ``shards`` routes to the sharded lane (one worker
    process per shard, window-epoch barriers — see
    :mod:`repro.experiments.sharded`); results there are digest-identical
    for every shard count.  The sharded lane is its own execution model,
    so ``shards`` with an explicit ``lane`` is an error.
    """
    if shards is not None and shards > 0:
        return _run_sharded("fig6", duration_scale, seed, lane, shards)
    sc, T = _on_lane(fig6_scenario, duration_scale, seed, lane)
    phases, expected, settle = paper_phases("fig6", T)
    return FigureResult(
        figure="fig6",
        title="L7: agreements respected in a service-provider context",
        phases=sc.phase_rates(phases, keys=["A", "B"], settle=settle),
        expected=expected,
        series=sc.series(["A", "B"]),
        notes="Paper: phase1 ~ (A 190, B 135); phase2 A 270 (client-limited).",
    )


# ---------------------------------------------------------------------------
# Fig 7 — L7: optimisation of the community metric
# ---------------------------------------------------------------------------

def run_fig7(duration_scale: float = 1.0, seed: int = 0) -> FigureResult:
    """Fig 7: V=250; both A and B have [0.2,1]; A has two clients, B one.
    The community objective serves A at twice B's rate."""
    T = 150.0 * duration_scale
    sc = Scenario(_fig6_graph(250.0, 0.2, 0.2), seed=seed)
    server = sc.server("S", "S", 250.0)
    r1 = sc.l7("R1", {"S": server}, n_redirectors=2)
    r2 = sc.l7("R2", {"S": server}, n_redirectors=2)
    sc.connect_tree(link_delay=0.005)
    sc.client("C1", "A", r1, rate=135.0)
    sc.client("C2", "A", r1, rate=135.0)
    sc.client("C3", "B", r2, rate=135.0)
    sc.run(T)
    settle = min(5.0, T * 0.2)
    phases = [("steady", 0.0, T)]
    return FigureResult(
        figure="fig7",
        title="L7: global response time minimised (A served at 2x B)",
        phases=sc.phase_rates(phases, keys=["A", "B"], settle=settle),
        expected=[PhaseExpectation("steady", {"A": 166.7, "B": 83.3})],
        series=sc.series(["A", "B"]),
        notes="Optional capacity follows offered load 2:1 after guarantees.",
    )


# ---------------------------------------------------------------------------
# Fig 8 — impact of network delay on the combining tree
# ---------------------------------------------------------------------------

def run_fig8(
    duration_scale: float = 1.0, seed: int = 0, lag: Optional[float] = None,
) -> FigureResult:
    """Fig 8: V=320; A [0.8,1] (two clients at R1), B [0.2,1] (one at R2);
    combining-tree broadcasts lag by ~``lag`` seconds.  Reproduces the
    conservative half-mandatory start, the ~lag-long competition transient
    when A appears, and convergence to the agreed (A 255, B 65) split.

    ``lag`` defaults to the paper's 10 s, clamped so scaled-down runs keep
    a steady phase after the transient.
    """
    T1 = 60.0 * duration_scale   # B alone
    T2 = 100.0 * duration_scale  # A + B
    T3 = 60.0 * duration_scale   # B alone again
    if lag is None:
        lag = min(10.0, 0.5 * T1)
    # Fine measurement bins: phase boundaries sit at the information lag,
    # which rarely aligns with 1 s bins, and the post-lag surge must not
    # smear into the conservative phase's mean.
    sc = Scenario(_fig8_graph(), seed=seed, bin_width=0.2)
    server = sc.server("S", "S", 320.0)
    r1 = sc.l7("R1", {"S": server}, n_redirectors=2)
    r2 = sc.l7("R2", {"S": server}, n_redirectors=2)
    # Dedicated aggregator root so both redirectors see the same up+down
    # latency: reports take lag/2 up, broadcasts lag/2 down.
    sc.connect_tree(link_delay=lag / 2.0, extra_root=True)
    t_a0, t_a1 = T1, T1 + T2
    if lag >= 0.7 * T1:
        raise ValueError(
            f"lag {lag}s leaves no steady phase within T1={T1}s; "
            "increase duration_scale or reduce lag"
        )
    sc.client("C1", "A", r1, rate=135.0, windows=[(t_a0, t_a1)])
    sc.client("C2", "A", r1, rate=135.0, windows=[(t_a0, t_a1)])
    sc.client("C3", "B", r2, rate=135.0, windows=[(0.0, T1 + T2 + T3)])
    sc.run(T1 + T2 + T3)
    # Post-lag settle, scaled so short runs keep non-empty steady phases.
    settle = min(5.0, 0.25 * (T1 - lag))
    phases = [
        ("p1_conservative", 0.0, lag),
        ("p2_full", lag + settle, T1),
        ("p3_compete", t_a0, t_a0 + lag),
        ("p4_agreed", t_a0 + lag + settle, t_a1),
        ("p5_transition", t_a1, t_a1 + lag),
        ("p6_full", t_a1 + lag + settle, T1 + T2 + T3),
    ]
    return FigureResult(
        figure="fig8",
        title="L7: graceful behaviour under combining-tree delay",
        phases=sc.phase_rates(phases, keys=["A", "B"], settle=0.0),
        expected=[
            PhaseExpectation("p1_conservative", {"B": 32.0}, tolerance=0.35),
            PhaseExpectation("p2_full", {"B": 135.0}),
            PhaseExpectation("p4_agreed", {"A": 255.0, "B": 65.0}, tolerance=0.2),
            PhaseExpectation("p6_full", {"B": 135.0}),
        ],
        series=sc.series(["A", "B"]),
        notes=(
            "p3/p5 are the ~lag-long transients where stale information lets "
            "requests compete; the paper reports the same shape."
        ),
    )


def _fig8_graph() -> AgreementGraph:
    g = AgreementGraph()
    g.add_principal("S", capacity=320.0)
    g.add_principal("A")
    g.add_principal("B")
    g.add_agreement(Agreement("S", "A", 0.8, 1.0))
    g.add_agreement(Agreement("S", "B", 0.2, 1.0))
    return g


# ---------------------------------------------------------------------------
# Fig 9 — L4: sharing agreements in a community context
# ---------------------------------------------------------------------------

def fig9_scenario(
    duration_scale: float = 1.0, seed: int = 0,
    check_invariants: Optional[bool] = None,
    lane: str = "slotted",
) -> Tuple[Scenario, float]:
    """Build and run the fig9 world; returns ``(scenario, phase_length)``.

    Shared between :func:`run_fig9` and the replay harness
    (:mod:`repro.analysis.replay`), which replays *this exact scenario*
    and diffs the per-window admitted-rate trace digests across runs and
    across lanes — ``lane="columnar"`` must be bit-identical to
    ``lane="slotted"``.
    """
    T = 100.0 * duration_scale
    g = AgreementGraph()
    g.add_principal("A", capacity=320.0)
    g.add_principal("B", capacity=320.0)
    g.add_agreement(Agreement("B", "A", 0.5, 0.5))
    sc = Scenario(g, seed=seed, check_invariants=check_invariants, lane=lane)
    sa = sc.server("SA", "A", 320.0)
    sb = sc.server("SB", "B", 320.0)
    switch = sc.l4("SW", {"A": sa, "B": sb})
    sc.client("C1", "A", switch, rate=400.0, windows=[(0, T), (2 * T, 3 * T)])
    sc.client("C2", "A", switch, rate=400.0, windows=[(0, T)])
    sc.client("C3", "B", switch, rate=400.0, windows=[(0, 4 * T)])
    sc.run(4 * T)
    return sc, T


def run_fig9(
    duration_scale: float = 1.0, seed: int = 0, lane: Optional[str] = None,
    shards: Optional[int] = None,
) -> FigureResult:
    """Fig 9: A and B each own a 320 req/s server; B grants A [0.5, 0.5].
    Four phases: A 2 clients / none / 1 client / none, B always one client;
    all clients 400 req/s through one L4 switch.

    ``lane`` and ``shards`` as in :func:`run_fig6`.
    """
    if shards is not None and shards > 0:
        return _run_sharded("fig9", duration_scale, seed, lane, shards)
    sc, T = _on_lane(fig9_scenario, duration_scale, seed, lane)
    phases, expected, settle = paper_phases("fig9", T)
    return FigureResult(
        figure="fig9",
        title="L4: agreements respected in a community context",
        phases=sc.phase_rates(phases, keys=["A", "B"], settle=settle),
        expected=expected,
        series=sc.series(["A", "B"]),
        notes="Phase 3: A limited to ~400 by the single client machine.",
    )


# ---------------------------------------------------------------------------
# Fig 10 — L4: maximisation of service-provider income
# ---------------------------------------------------------------------------

def fig10_scenario(
    duration_scale: float = 1.0, seed: int = 0,
    check_invariants: Optional[bool] = None,
    lane: str = "slotted",
) -> Tuple[Scenario, float]:
    """Build and run the fig10 world; returns ``(scenario, phase_length)``.

    Shared between :func:`run_fig10` and the replay harness, like
    :func:`fig9_scenario` (provider/price mode variant —
    the columnar lane replays admission against the live switch, so the
    provider's price-ordered picks are exercised identically).
    """
    T = 100.0 * duration_scale
    g = AgreementGraph()
    g.add_principal("P", capacity=640.0)
    g.add_principal("A")
    g.add_principal("B")
    g.add_agreement(Agreement("P", "A", 0.8, 1.0))
    g.add_agreement(Agreement("P", "B", 0.2, 1.0))
    sc = Scenario(g, seed=seed, check_invariants=check_invariants, lane=lane)
    s1 = sc.server("S1", "P", 320.0)
    s2 = sc.server("S2", "P", 320.0)
    switch = sc.l4(
        "SW", {"P": [s1, s2]}, mode="provider", prices={"A": 2.0, "B": 1.0},
    )
    sc.client("C1", "A", switch, rate=400.0, windows=[(0, T), (2 * T, 3 * T)])
    sc.client("C2", "A", switch, rate=400.0, windows=[(0, T)])
    sc.client("C3", "B", switch, rate=400.0, windows=[(0, 4 * T)])
    sc.run(4 * T)
    return sc, T


def run_fig10(
    duration_scale: float = 1.0, seed: int = 0, lane: Optional[str] = None,
) -> FigureResult:
    """Fig 10: provider with two 320 req/s servers; A [0.8,1] pays more than
    B [0.2,1].  Same client timeline as Fig 9; the provider admits the
    highest payer first while honouring B's mandatory floor.  ``lane`` as
    in :func:`run_fig6`."""
    sc, T = _on_lane(fig10_scenario, duration_scale, seed, lane)
    settle = min(5.0, T * 0.2)
    phases = [
        ("phase1", 0.0, T), ("phase2", T, 2 * T),
        ("phase3", 2 * T, 3 * T), ("phase4", 3 * T, 4 * T),
    ]
    return FigureResult(
        figure="fig10",
        title="L4: provider income maximised",
        phases=sc.phase_rates(phases, keys=["A", "B"], settle=settle),
        expected=[
            PhaseExpectation("phase1", {"A": 512.0, "B": 128.0}),
            PhaseExpectation("phase2", {"A": 0.0, "B": 400.0}),
            PhaseExpectation("phase3", {"A": 400.0, "B": 240.0}),
            PhaseExpectation("phase4", {"A": 0.0, "B": 400.0}),
        ],
        series=sc.series(["A", "B"]),
        notes="B held to its mandatory 128 while A (higher price) is active.",
    )


def run_faultmatrix(**kw) -> FigureResult:
    """Fault-matrix (partition → degrade → heal); see experiments.faultmatrix."""
    from repro.experiments.faultmatrix import run_fault_matrix

    return run_fault_matrix(**kw)


ALL_FIGURES = {
    "fig1": run_fig1,
    "fig1d": run_fig1_distributed,
    "fig3": run_fig3,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "faultmatrix": run_faultmatrix,
}
