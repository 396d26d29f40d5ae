"""Random worlds through both lanes: columnar must equal slotted bit for bit.

The pinned figures cover five worlds; a tie-order bug once slipped past
every one of them and surfaced only in random fig6-shaped worlds.  This
draws :class:`~repro.experiments.figures.FigureWorld` records — one owner
S granting 1-3 consumers ``[lb, ub]`` slices on a 0.1 grid, sole or pooled
L7 redirectors or L4 switches, 1-5 open-loop clients at 10-400 req/s whose
activity edges fall on and off the 0.1 s window grid (equal starts
included), retry pools on or off, tree link delay 0-0.5 s — and runs each
on both lanes.  The columnar run must not fall back, and its
:func:`~repro.analysis.replay.combined_digest` (world plus every
redirector's and daemon's per-window admission trace) must equal the
slotted one.
"""

from hypothesis import example, given, settings, strategies as st

from repro.analysis.replay import combined_digest
from repro.core.agreements import Agreement
from repro.experiments.figures import ClientSpec, FigureWorld, NodeSpec


def _edge(T):
    """A time in [0, T]: on the 0.1 s grid, or just off it."""
    return st.builds(
        lambda k, off: min(T, k / 10 + off),
        st.integers(0, int(T * 10)), st.sampled_from([0.0, 0.0, 0.037, 0.05]),
    )


@st.composite
def worlds(draw):
    T = draw(st.sampled_from([2.0, 3.0]))
    consumers = ("A", "B", "C")[:draw(st.integers(1, 3))]
    agreements, budget = [], 10
    for p in consumers:
        lb = draw(st.integers(0, budget))
        budget -= lb
        ub = draw(st.integers(max(lb, 1), 10))
        agreements.append(Agreement("S", p, lb / 10, ub / 10))
    kind = draw(st.sampled_from(["sole", "pooled", "l4"]))
    n_servers = 1 if kind == "sole" else 2 if kind == "pooled" else draw(
        st.integers(1, 2))
    servers = tuple(
        (f"S{i}", "S", float(draw(st.integers(5, 40)) * 10))
        for i in range(n_servers)
    )
    pools = {"S": tuple(name for name, _, _ in servers)}
    n_nodes = draw(st.integers(1, 2))
    options = {"n_redirectors": n_nodes}
    if kind == "l4" and draw(st.booleans()):
        options.update(mode="provider", prices={
            p: float(draw(st.integers(1, 3))) for p in consumers})
    nodes = tuple(
        NodeSpec(f"R{i}", "l4" if kind == "l4" else "l7", pools, options)
        for i in range(n_nodes)
    )
    clients = []
    for i in range(draw(st.integers(1, 5))):
        edges = sorted(draw(st.lists(_edge(T), max_size=6)))
        edges = edges[:len(edges) // 2 * 2]
        windows = tuple(zip(edges[::2], edges[1::2])) or None
        pool = draw(st.sampled_from([{}, {"max_retry_pool": 0},
                                     {"max_retry_pool": 2}]))
        clients.append(ClientSpec(
            f"C{i}", draw(st.sampled_from(consumers)),
            f"R{draw(st.integers(0, n_nodes - 1))}",
            float(draw(st.integers(10, 400))), windows, pool,
        ))
    return FigureWorld(
        figure="fuzz",
        title="random world",
        principals=(("S", sum(cap for _, _, cap in servers)),
                    *((p, 0.0) for p in consumers)),
        agreements=tuple(agreements),
        servers=servers,
        nodes=nodes,
        clients=tuple(clients),
        horizon=T,
        phases=(),
        expected=(),
        settle=0.0,
        seed=draw(st.integers(0, 3)),
        tree={"link_delay": draw(st.integers(0, 50)) / 100},
    )


# The first disagreement this strategy found: a client opening exactly on a
# window boundary.  Its tick there was scheduled (by the idle tick at 0)
# before the boundary's own events, so the slotted lane fires it in the
# window that ends at 0.2; the columnar pump used to defer every arrival at
# its boundary to the next window.
BOUNDARY_OPENING = FigureWorld(
    figure="fuzz", title="random world",
    principals=(("S", 50.0), ("A", 0.0)),
    agreements=(Agreement("S", "A", 0.0, 0.1),),
    servers=(("S0", "S", 50.0),),
    nodes=(NodeSpec("R0", "l7", {"S": ("S0",)}, {"n_redirectors": 1}),),
    clients=(ClientSpec("C0", "A", "R0", 10.0, ((0.2, 0.3),)),),
    horizon=2.0, phases=(), expected=(), settle=0.0,
    tree={"link_delay": 0.0},
)


# An open bug: two L4 switches in front of one server pool.  Each install
# at a boundary releases queued SYNs at that instant; the event lanes fire
# the switches' releases in install (switch creation) order, while the
# columnar server lane merges equal-time releases of different switches by
# client code.  S1 then serves one request of A in place of one of B.
SHARED_POOL_SWITCHES = FigureWorld(
    figure="fuzz", title="random world",
    principals=(("S", 150.0), ("A", 0.0), ("B", 0.0)),
    agreements=(Agreement("S", "A", 0.0, 0.1), Agreement("S", "B", 0.0, 0.9)),
    servers=(("S0", "S", 70.0), ("S1", "S", 80.0)),
    nodes=tuple(NodeSpec(f"R{i}", "l4", {"S": ("S0", "S1")},
                         {"n_redirectors": 2}) for i in range(2)),
    clients=(ClientSpec("C0", "B", "R0", 282.0),
             ClientSpec("C1", "A", "R1", 14.0),
             ClientSpec("C2", "B", "R0", 126.0)),
    horizon=1.0, phases=(), expected=(), settle=0.0,
    tree={"link_delay": 0.0},
)


@settings(max_examples=25, deadline=None)
@given(world=worlds())
@example(world=BOUNDARY_OPENING)
@example(world=SHARED_POOL_SWITCHES).xfail(
    reason="columnar orders equal-time L4 releases of different switches "
           "by client code, the event lanes by install order",
    raises=AssertionError,
)
def test_random_world_is_bit_identical_on_both_lanes(world):
    # Invariant hooks off on both lanes, as in ``repro check``'s lane diff:
    # under REPRO_CHECK=1 they would demote the columnar run.
    columnar = world.scenario("columnar", check_invariants=False)
    assert (columnar.lane, columnar.lane_fallback) == ("columnar", None)
    slotted = world.scenario("slotted", check_invariants=False)
    assert combined_digest(columnar) == combined_digest(slotted)
