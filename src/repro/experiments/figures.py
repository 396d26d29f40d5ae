"""Per-figure experiment definitions (paper §1 Fig 1, §2.3 Fig 3, §5 Figs 6-10).

Each §5 figure is written once, as a :class:`FigureWorld` record returned
by ``figN_world``: the paper's exact scenario — same agreements, same
server capacities, same client counts and per-client rate limits, same
phase timeline — with the rates the paper reports for each phase.
:meth:`FigureWorld.scenario` builds and runs it on the simulated testbed,
:func:`run_figure` measures it, and the sharded lane derives its own world
from the same record (:func:`repro.experiments.sharded.shard_world`).
:data:`WORLDS` is the registry every caller reads the figure names from.

``duration_scale`` shortens every phase proportionally (tests and
benchmarks use ~0.2-0.4; 1.0 is the paper's full timeline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.core.agreements import Agreement, AgreementGraph
from repro.core.tickets import TicketKind
from repro.core.valuation import value_currencies
from repro.experiments.harness import FigureResult, PhaseExpectation, Scenario
from repro.scheduling.community import CommunityScheduler
from repro.scheduling.endpoint import endpoint_allocate
from repro.scheduling.window import WindowConfig

__all__ = [
    "run_fig1", "run_fig1_distributed", "run_fig3", "run_fig6", "run_fig7",
    "run_fig8", "run_fig9", "run_fig10", "run_figure", "fig6_world",
    "fig7_world", "fig8_world", "fig9_world", "fig10_world", "FigureWorld",
    "NodeSpec", "ClientSpec", "WORLDS", "ALL_FIGURES", "Fig1Result",
    "Fig3Result",
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


def _fig1_graph() -> AgreementGraph:
    """Servers S1 and S2 (50 req/s each), each granting A [0.2, 1] and
    B [0.8, 1]."""
    g = AgreementGraph()
    g.add_principal("S1", capacity=50.0)
    g.add_principal("S2", capacity=50.0)
    g.add_principal("A")
    g.add_principal("B")
    for server in ("S1", "S2"):
        g.add_agreement(Agreement(server, "A", 0.2, 1.0))
        g.add_agreement(Agreement(server, "B", 0.8, 1.0))
    return g


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
    from repro.core.access import compute_access_levels

    access = compute_access_levels(_fig1_graph())
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
    sc2 = Scenario(_fig1_graph(), seed=seed)
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


# ---------------------------------------------------------------------------
# §5 — Figs 6-10: one world record per figure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClientSpec:
    """An open-loop client: ``rate`` req/s of ``principal`` offered to the
    front end ``node`` while inside one of ``windows`` (None: the whole
    run); ``options`` are further :meth:`Scenario.client` arguments."""

    name: str
    principal: str
    node: str
    rate: float
    windows: Optional[Tuple[Tuple[float, float], ...]] = None
    options: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class NodeSpec:
    """A front end, built by the :class:`Scenario` method ``kind`` (``"l7"``
    or ``"l4"``) over ``pools`` — each owner's servers, by name — with
    ``options`` as its further arguments."""

    name: str
    kind: str
    pools: Mapping[str, Tuple[str, ...]]
    options: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class FigureWorld:
    """One §5 figure, whole: the world it simulates and what the paper
    reports for it.

    ``principals`` are the agreement graph's ``(name, capacity)`` pairs in
    declaration order and ``servers`` its ``(name, owner, capacity)``
    machines.  ``tree`` holds the :meth:`Scenario.connect_tree` arguments
    of the combining tree over every node (None: no tree).  The phases are
    measured after ``settle`` seconds each, on the principals the clients
    send for (:attr:`keys`), against ``expected``.  ``lane`` is where
    :func:`run_figure` runs the world when the caller names none;
    ``sharded`` says the world also runs on the sharded lane
    (:func:`repro.experiments.sharded.shard_world`).
    """

    figure: str
    title: str
    principals: Tuple[Tuple[str, float], ...]
    agreements: Tuple[Agreement, ...]
    servers: Tuple[Tuple[str, str, float], ...]
    nodes: Tuple[NodeSpec, ...]
    clients: Tuple[ClientSpec, ...]
    horizon: float
    phases: Tuple[Tuple[str, float, float], ...]
    expected: Tuple[PhaseExpectation, ...]
    settle: float
    seed: int = 0
    tree: Optional[Mapping[str, Any]] = None
    bin_width: float = 1.0
    lane: str = "columnar"
    sharded: bool = False
    notes: str = ""

    @property
    def keys(self) -> Tuple[str, ...]:
        """The principals the clients send for, in first-seen order."""
        return tuple(dict.fromkeys(c.principal for c in self.clients))

    def graph(self, replicas: int = 1, load_scale: float = 1.0) -> AgreementGraph:
        """The agreement graph, every capacity × ``replicas`` × ``load_scale``."""
        g = AgreementGraph()
        for name, capacity in self.principals:
            g.add_principal(name, capacity=capacity * replicas * load_scale)
        for agreement in self.agreements:
            g.add_agreement(agreement)
        return g

    def scenario(
        self, lane: Optional[str] = None, check_invariants: Optional[bool] = None,
    ) -> Scenario:
        """Build this world on ``lane`` (the record's own when None), run it
        to the horizon and return the finished :class:`Scenario`."""
        sc = Scenario(self.graph(), seed=self.seed, bin_width=self.bin_width,
                      check_invariants=check_invariants,
                      lane=self.lane if lane is None else lane)
        servers = {name: sc.server(name, owner, capacity)
                   for name, owner, capacity in self.servers}
        nodes = {
            node.name: getattr(sc, node.kind)(
                node.name,
                {owner: [servers[s] for s in names]
                 for owner, names in node.pools.items()},
                **node.options,
            )
            for node in self.nodes
        }
        if self.tree is not None:
            sc.connect_tree(**self.tree)
        for c in self.clients:
            sc.client(c.name, c.principal, nodes[c.node], rate=c.rate,
                      windows=c.windows, **c.options)
        sc.run(self.horizon)
        return sc


def run_figure(
    world: FigureWorld, lane: Optional[str] = None, shards: Optional[int] = None,
) -> FigureResult:
    """Run a figure's world and measure its phases against the paper.

    ``lane`` defaults to the record's; every lane produces the same
    digests, and ``repro check`` diffs them against the slotted oracle.
    ``shards`` routes a sharded world to the sharded lane (one worker
    process per shard, window-epoch barriers — see
    :mod:`repro.experiments.sharded`), digest-identical for every shard
    count.  The sharded lane is its own execution model, so ``shards``
    with an explicit ``lane`` is an error.
    """
    title, notes = world.title, world.notes
    if shards is not None and shards > 0:
        if lane is not None:
            raise ValueError(
                f"lane={lane!r} and shards={shards} select different execution "
                "lanes; give one or the other"
            )
        from repro.experiments.sharded import ShardedRunner, shard_world

        run = ShardedRunner(shard_world(world), shards=shards).run()
        title += " (sharded lane)"
        notes = (f"sharded lane: shards={run.shards}, "
                 f"data plane {run.data_plane}, "
                 f"{run.n_windows} window epochs, "
                 f"{run.lp_solves} window plans, "
                 f"{len(run.restarts)} restarts, "
                 f"{len(run.reassignments)} reassignments")
    else:
        run = world.scenario(lane)
    keys = list(world.keys)
    return FigureResult(
        figure=world.figure,
        title=title,
        phases=run.phase_rates(list(world.phases), keys=keys, settle=world.settle),
        expected=list(world.expected),
        series=run.series(keys),
        notes=notes,
    )


def _phases(T: float, *expected: PhaseExpectation) -> Dict[str, object]:
    """Phase i of ``expected`` spans [i·T, (i+1)·T), measured after
    min(5 s, T/5)."""
    return dict(
        phases=tuple((e.phase, i * T, (i + 1) * T) for i, e in enumerate(expected)),
        expected=expected,
        settle=min(5.0, T * 0.2),
    )


def _l7_world(
    capacity: float, a_lb: float, b_lb: float,
    a_windows: Optional[Tuple[Tuple[float, float], ...]],
    b_windows: Optional[Tuple[Tuple[float, float], ...]],
) -> Dict[str, object]:
    """What figs 6-8 share: one server S of ``capacity``, whose owner grants
    A [a_lb, 1] and B [b_lb, 1], behind redirectors R1 and R2; two 135
    req/s clients of A at R1, one of B at R2."""
    return dict(
        principals=(("S", capacity), ("A", 0.0), ("B", 0.0)),
        agreements=(Agreement("S", "A", a_lb, 1.0),
                    Agreement("S", "B", b_lb, 1.0)),
        servers=(("S", "S", capacity),),
        nodes=tuple(NodeSpec(r, "l7", {"S": ("S",)}, {"n_redirectors": 2})
                    for r in ("R1", "R2")),
        clients=(
            ClientSpec("C1", "A", "R1", 135.0, a_windows),
            ClientSpec("C2", "A", "R1", 135.0, a_windows),
            ClientSpec("C3", "B", "R2", 135.0, b_windows),
        ),
    )


def _l4_clients(T: float) -> Tuple[ClientSpec, ...]:
    """Figs 9-10's timeline: A has two 400 req/s clients, then none, then
    one, then none; B one throughout; all through switch SW."""
    return (
        ClientSpec("C1", "A", "SW", 400.0, ((0.0, T), (2 * T, 3 * T))),
        ClientSpec("C2", "A", "SW", 400.0, ((0.0, T),)),
        ClientSpec("C3", "B", "SW", 400.0, ((0.0, 4 * T),)),
    )


def fig6_world(duration_scale: float = 1.0, seed: int = 0) -> FigureWorld:
    """Fig 6 — L7, a service-provider context: V=320; A [0.2,1] with two
    135 req/s clients at R1; B [0.8,1] with one client at R2.  Three
    phases: both active / only A / both."""
    T = 100.0 * duration_scale
    return FigureWorld(
        figure="fig6",
        title="L7: agreements respected in a service-provider context",
        **_l7_world(320.0, 0.2, 0.8, ((0.0, 3 * T),), ((0.0, T), (2 * T, 3 * T))),
        tree={"link_delay": 0.005},
        horizon=3 * T,
        **_phases(
            T,
            PhaseExpectation("phase1", {"A": 185.0, "B": 135.0}),
            PhaseExpectation("phase2", {"A": 270.0, "B": 0.0}),
            PhaseExpectation("phase3", {"A": 185.0, "B": 135.0}),
        ),
        seed=seed,
        sharded=True,
        notes="Paper: phase1 ~ (A 190, B 135); phase2 A 270 (client-limited).",
    )


def fig7_world(duration_scale: float = 1.0, seed: int = 0) -> FigureWorld:
    """Fig 7 — L7, the community metric: V=250; both A and B have [0.2,1];
    A has two clients, B one.  The community objective serves A at twice
    B's rate."""
    T = 150.0 * duration_scale
    return FigureWorld(
        figure="fig7",
        title="L7: global response time minimised (A served at 2x B)",
        **_l7_world(250.0, 0.2, 0.2, None, None),
        tree={"link_delay": 0.005},
        horizon=T,
        **_phases(T, PhaseExpectation("steady", {"A": 166.7, "B": 83.3})),
        seed=seed,
        notes="Optional capacity follows offered load 2:1 after guarantees.",
    )


def fig8_world(
    duration_scale: float = 1.0, seed: int = 0, lag: Optional[float] = None,
) -> FigureWorld:
    """Fig 8 — network delay on the combining tree: V=320; A [0.8,1] (two
    clients at R1), B [0.2,1] (one at R2); tree broadcasts lag by ~``lag``
    seconds.  Reproduces the conservative half-mandatory start, the
    ~lag-long competition transient when A appears, and convergence to
    the agreed (A 255, B 65) split.

    ``lag`` defaults to the paper's 10 s, clamped so scaled-down runs keep
    a steady phase after the transient.
    """
    T1 = 60.0 * duration_scale   # B alone
    T2 = 100.0 * duration_scale  # A + B
    T3 = 60.0 * duration_scale   # B alone again
    if lag is None:
        lag = min(10.0, 0.5 * T1)
    if lag >= 0.7 * T1:
        raise ValueError(
            f"lag {lag}s leaves no steady phase within T1={T1}s; "
            "increase duration_scale or reduce lag"
        )
    t_a0, t_a1 = T1, T1 + T2
    end = T1 + T2 + T3
    # Post-lag settle, scaled so short runs keep non-empty steady phases.
    settle = min(5.0, 0.25 * (T1 - lag))
    return FigureWorld(
        figure="fig8",
        title="L7: graceful behaviour under combining-tree delay",
        **_l7_world(320.0, 0.8, 0.2, ((t_a0, t_a1),), ((0.0, end),)),
        # Dedicated aggregator root so both redirectors see the same up+down
        # latency: reports take lag/2 up, broadcasts lag/2 down.
        tree={"link_delay": lag / 2.0, "extra_root": True},
        horizon=end,
        phases=(
            ("p1_conservative", 0.0, lag),
            ("p2_full", lag + settle, T1),
            ("p3_compete", t_a0, t_a0 + lag),
            ("p4_agreed", t_a0 + lag + settle, t_a1),
            ("p5_transition", t_a1, t_a1 + lag),
            ("p6_full", t_a1 + lag + settle, end),
        ),
        expected=(
            PhaseExpectation("p1_conservative", {"B": 32.0}, tolerance=0.35),
            PhaseExpectation("p2_full", {"B": 135.0}),
            PhaseExpectation("p4_agreed", {"A": 255.0, "B": 65.0}, tolerance=0.2),
            PhaseExpectation("p6_full", {"B": 135.0}),
        ),
        settle=0.0,
        seed=seed,
        # Fine measurement bins: phase boundaries sit at the information
        # lag, which rarely aligns with 1 s bins, and the post-lag surge
        # must not smear into the conservative phase's mean.
        bin_width=0.2,
        lane="slotted",
        notes=(
            "p3/p5 are the ~lag-long transients where stale information lets "
            "requests compete; the paper reports the same shape."
        ),
    )


def fig9_world(duration_scale: float = 1.0, seed: int = 0) -> FigureWorld:
    """Fig 9 — L4, a community context: A and B each own a 320 req/s
    server; B grants A [0.5, 0.5].  Four phases: A 2 clients / none /
    1 client / none, B always one client; all clients 400 req/s through
    one L4 switch."""
    T = 100.0 * duration_scale
    return FigureWorld(
        figure="fig9",
        title="L4: agreements respected in a community context",
        principals=(("A", 320.0), ("B", 320.0)),
        agreements=(Agreement("B", "A", 0.5, 0.5),),
        servers=(("SA", "A", 320.0), ("SB", "B", 320.0)),
        nodes=(NodeSpec("SW", "l4", {"A": ("SA",), "B": ("SB",)}),),
        clients=_l4_clients(T),
        horizon=4 * T,
        **_phases(
            T,
            PhaseExpectation("phase1", {"A": 480.0, "B": 160.0}),
            PhaseExpectation("phase2", {"A": 0.0, "B": 320.0}),
            PhaseExpectation("phase3", {"A": 400.0, "B": 240.0}),
            PhaseExpectation("phase4", {"A": 0.0, "B": 320.0}),
        ),
        seed=seed,
        sharded=True,
        notes="Phase 3: A limited to ~400 by the single client machine.",
    )


def fig10_world(duration_scale: float = 1.0, seed: int = 0) -> FigureWorld:
    """Fig 10 — L4, provider income: a provider with two 320 req/s servers;
    A [0.8,1] pays more than B [0.2,1].  Same client timeline as Fig 9;
    the provider admits the highest payer first while honouring B's
    mandatory floor."""
    T = 100.0 * duration_scale
    return FigureWorld(
        figure="fig10",
        title="L4: provider income maximised",
        principals=(("P", 640.0), ("A", 0.0), ("B", 0.0)),
        agreements=(Agreement("P", "A", 0.8, 1.0), Agreement("P", "B", 0.2, 1.0)),
        servers=(("S1", "P", 320.0), ("S2", "P", 320.0)),
        nodes=(NodeSpec("SW", "l4", {"P": ("S1", "S2")},
                        {"mode": "provider", "prices": {"A": 2.0, "B": 1.0}}),),
        clients=_l4_clients(T),
        horizon=4 * T,
        **_phases(
            T,
            PhaseExpectation("phase1", {"A": 512.0, "B": 128.0}),
            PhaseExpectation("phase2", {"A": 0.0, "B": 400.0}),
            PhaseExpectation("phase3", {"A": 400.0, "B": 240.0}),
            PhaseExpectation("phase4", {"A": 0.0, "B": 400.0}),
        ),
        seed=seed,
        notes="B held to its mandatory 128 while A (higher price) is active.",
    )


# The §5 figures, by name: the one place that says which exist.
WORLDS: Dict[str, Callable[..., FigureWorld]] = {
    "fig6": fig6_world,
    "fig7": fig7_world,
    "fig8": fig8_world,
    "fig9": fig9_world,
    "fig10": fig10_world,
}


def run_fig6(
    duration_scale: float = 1.0, seed: int = 0, lane: Optional[str] = None,
    shards: Optional[int] = None,
) -> FigureResult:
    """:func:`fig6_world` through :func:`run_figure`."""
    return run_figure(fig6_world(duration_scale, seed), lane, shards)


def run_fig7(
    duration_scale: float = 1.0, seed: int = 0, lane: Optional[str] = None,
) -> FigureResult:
    """:func:`fig7_world` through :func:`run_figure`."""
    return run_figure(fig7_world(duration_scale, seed), lane)


def run_fig8(
    duration_scale: float = 1.0, seed: int = 0, lag: Optional[float] = None,
    lane: Optional[str] = None,
) -> FigureResult:
    """:func:`fig8_world` through :func:`run_figure`."""
    return run_figure(fig8_world(duration_scale, seed, lag), lane)


def run_fig9(
    duration_scale: float = 1.0, seed: int = 0, lane: Optional[str] = None,
    shards: Optional[int] = None,
) -> FigureResult:
    """:func:`fig9_world` through :func:`run_figure`."""
    return run_figure(fig9_world(duration_scale, seed), lane, shards)


def run_fig10(
    duration_scale: float = 1.0, seed: int = 0, lane: Optional[str] = None,
) -> FigureResult:
    """:func:`fig10_world` through :func:`run_figure`."""
    return run_figure(fig10_world(duration_scale, seed), lane)


def run_faultmatrix(
    duration_scale: float = 1.0, seed: int = 0,
    check_invariants: Optional[bool] = None,
) -> FigureResult:
    """Fault-matrix (partition → degrade → heal); see experiments.faultmatrix."""
    from repro.experiments.faultmatrix import run_fault_matrix

    return run_fault_matrix(duration_scale, seed, check_invariants)


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
