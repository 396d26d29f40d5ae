"""The event-lane figures, bit for bit, against constants from the past.

``repro check`` proves runs agree with *each other*; this pins them to the
past: a solver, scheduler or request-path change that moves a single
admitted request in fig6-fig10, the fault matrix or the simulated fig1 at
1/20 scale shows up here as a digest mismatch, not as a tolerance drift.

The event-lane constants were captured at the commit that parked refused
requests in a per-principal FIFO at the redirector instead of retrying each
one through the event heap — a change of simulated behaviour by design
(CHANGES.md lists every old -> new value).  Before it they had held since
the parents of the commits that compiled the window LP (fig6/7/8) and that
made ``lane=`` the only execution selector (fig9/10, fault matrix, fig1).

fig6, fig9 and fig10 have run on the columnar lane by default since the
commit that let it park refused requests, fig7 since the commit that made
the server lanes drain in request blocks; their constants did not move.
fig7 runs here on slotted as well, and fig8, which defaults to slotted, on
columnar, against the same constants.
The columnar server lanes drain in blocks of about a thousand requests,
so the figures' drains reach the busy-period pass as well;
``PINNED_COLUMNAR_LOAD`` pins the benchmark's 100x columnar world, whose
every window is a mixed batch of thousands of requests, on both lanes.

Beside each fig6-fig10 digest, ``PINNED_COSTS`` pins two deterministic
costs of the run: events scheduled (``Simulator._seq``) and LP solves
summed over every redirector's and daemon's allocator.  They were captured
at the parent of the commit that made the L4 flow path the only one in
production, on the default lanes and under ``REPRO_CHECK=1``.
``PINNED_COLUMNAR_LOAD_COSTS`` pins the same two, plus the busy-period
passes, beside the columnar load world's digests on both lanes.
``PINNED_HANDLE_CALLS`` pins a third cost of the fig6-fig10 runs, the
``L7Redirector.handle`` and ``L4Switch.handle`` calls; on the columnar lane
they are the parked re-offers.  It was captured at the parent of the commit
that gave both front ends one window loop (``EnforcementNode``).
``PINNED_METER_CALLS`` pins a fourth on the columnar lane, the
``RateMeter.record_many`` calls: the server lanes commit completions once
per drained block of requests, not once per window.

The sharded lane was pinned at the parent of the commit that made the
shared-memory plane its only boundary transport: ``shards=1``, ``shards=4``
and the four crash cells (recovery by respawn and by reassignment) must all
land on the digests the inline path produced there.
"""

import pytest

import repro.cluster.columnar as columnar
import repro.experiments.figures as figures
from repro.analysis.replay import (
    admission_digest, chaos_replay, scenario_digest,
)
from repro.core.agreements import Agreement, AgreementGraph
from repro.experiments.faultmatrix import run_crash_recovery_matrix
from repro.experiments.harness import Scenario
from repro.experiments.sharded import run_sharded
from repro.l4.switch import L4Switch
from repro.l7.redirector import L7Redirector
from repro.sim.monitor import RateMeter

PINNED = {
    "fig6": (
        "7143835c10feb6b8444c9df230443934f15093779576e733db50a03820974228",
        {"R1": "9111c6490487105bfe40626b4569984dec97cee73bdb6c8d424ed89acd2548d1",
         "R2": "b7ffd25bf289e829a7f5eb19f849309a6440864a639f4262d6fa4e3327d340da"},
    ),
    "fig7": (
        "25fdb3d783d9458f4cb43b0d823ab901c31d58213297ae76cf7b7f21d79391f8",
        {"R1": "92afb60680c7e113a3d3a767785af1a7b1846b8f62bc32156f149b322744df47",
         "R2": "b6a93bfc451f0ade707c083280aa39923bb4cd4907e940663297e588c063bfe1"},
    ),
    "fig8": (
        "7db85863f06e605808061672f4a0548d198344d4683a818819a360d1bfdfeeaa",
        {"R1": "9ad5985782def67f63a8209546ab0d03bf684c7853d1e2dbf02d0b68a599c330",
         "R2": "7e9154b3f864557e357c74756f3ad654816953fb5fa9ef9500bb8cec96afd2cc"},
    ),
}

PINNED_L4 = {
    "fig9": (
        "322da75164e94b87535ea329040cab53cc195f396decad5c48cf10d9e247c423",
        {"SW": "ccb30099eb00b10f827cf48ef92caab5b0bd43ca4ec1362714dfe71f869b67c9"},
    ),
    "fig10": (
        "7f5d988ca6bfa9a992b7d0604b48fd0c49e9b732ad9ff968dcaedf34fdf1367e",
        {"SW": "5740b83786d4f16958d8407ebf961976212da115a678245784f79695c835b809"},
    ),
}

# figure -> (ShardedResult.digest(), final_checkpoint_digest) at 4 replicas.
# figure -> run mode -> (events scheduled, LP solves).  The mode is the
# lane the figure ran on, "+check" when the invariant hooks were on: they
# schedule events of their own, and under REPRO_CHECK=1 fig6/9/10 run slotted.
PINNED_COSTS = {
    "fig6": {"columnar": (1362, 134), "slotted+check": (11481, 134)},
    "fig7": {"columnar": (687, 32), "slotted": (5474, 32),
             "slotted+check": (5628, 32)},
    "fig8": {"columnar": (1432, 85), "slotted": (6521, 85),
             "slotted+check": (6745, 85)},
    "fig9": {"columnar": (405, 43), "slotted+check": (32399, 43)},
    "fig10": {"columnar": (405, 87), "slotted+check": (33452, 87)},
}

# figure -> run mode (as PINNED_COSTS) -> (L7Redirector.handle calls,
# L4Switch.handle calls), counted on the class so every instance is seen.
PINNED_HANDLE_CALLS = {
    "fig6": {"columnar": (2786, 0), "slotted+check": (8166, 0)},
    "fig7": {"columnar": (2043, 0), "slotted": (5062, 0),
             "slotted+check": (5062, 0)},
    "fig8": {"columnar": (1979, 0), "slotted": (4804, 0),
             "slotted+check": (4804, 0)},
    "fig9": {"columnar": (0, 7090), "slotted+check": (0, 21029)},
    "fig10": {"columnar": (0, 4707), "slotted+check": (0, 18646)},
}

# figure -> RateMeter.record_many calls of its columnar run, counted on the
# class.  Captured at the commit that made the server lanes drain in blocks
# of _DRAIN_BLOCK requests; committing every window made 647, 370, 437,
# 1118 and 1612 calls.
PINNED_METER_CALLS = {
    "fig6": 25, "fig7": 10, "fig8": 13, "fig9": 73, "fig10": 104,
}

PINNED_SHARDED = {
    "fig6": (
        "7679f693c4bb53f3cd6400baa8c556595eb29413cff2418892ee05db8489d315",
        "dbb9d2e15b8cf759869ce6efaaff74bf9dcf05f72ad5d5ab882848ea9c4b389b",
    ),
    "fig9": (
        "d99641ae642bf11b7334088694d08bc56a706d5dafef3016066bc0a585b65f4d",
        "fe967f5bf6f9d2b53e18485e8f2b0b807426e847d91eb7c408059cb9cd8c1c0b",
    ),
}

# The same, at 2 replicas and 100x load: 1.5k-2.7k admitted requests per
# cluster-window, the batch sizes the benchmark's sharded workload runs
# (PINNED_SHARDED runs about 40).  Captured before the sharded epoch went
# columnar, which must leave them alone.
PINNED_SHARDED_LOAD = {
    "fig6": (
        "eec910838de86f2d8540165de961b88e0e4c1cc64d6f3b60d829129edfe7edfa",
        "f536098998a6767e161a940e43718ea4b223373eaf4639cd38b83fe163566977",
    ),
    "fig9": (
        "c8c7ea366d8c23227444ac162325761695cc085c9e9cc7640bdc46c9d20c0d27",
        "2ee6c016d6bf505bda6f311136dd0618a94391ed80294488bee497909000efb3",
    ),
}

# seed -> scenario_digest of the benchmark's columnar world (fig6 x100:
# capacity 32k, A one 27k client, B one 13.5k client, jitter 0.4, no retry
# pool) at T = 0.5.  Its server drains batches of up to ~3.6k requests, so
# mixed busy/idle batches take the busy-period drain rather than the scalar
# loop.  Captured before that drain existed; both lanes must land on them.
PINNED_COLUMNAR_LOAD = {
    0: "a490a4dcda25e96ae1d8422dba556721858860033748d08a55f13a4018da0589",
    1: "d8b99eac1e46e5aed7cdd39a7ddce3f92a2763eef09d8ac45c4600050c1b3e9c",
}

# seed -> lane -> (events scheduled, LP solves, busy-period passes) of the
# same world, as PINNED_COSTS pins them beside the figures.  Captured at the
# parent of the commit that merged every columnar gather through one
# ColumnarEngine.merge; they catch a change that keeps the digest but
# schedules, solves or drains more.
PINNED_COLUMNAR_LOAD_COSTS = {
    0: {"columnar": (139, 24, 8), "slotted": (94302, 24, 0)},
    1: {"columnar": (139, 24, 7), "slotted": (94443, 24, 0)},
}

PINNED_FAULT_MATRIX = (
    "038a99cf5f49d0ddc20f7c461a9025dd951a7cbc63f7f46f89f534de550dcacd"
)

PINNED_FIG1D = {
    "endpoint": {"A": "0x1.cd9999999999ap+4", "B": "0x1.149999999999ap+6"},
    "coordinated": {"A": "0x1.4000000000000p+4", "B": "0x1.4000000000000p+6"},
}


def _run_recorded(figure, monkeypatch, seed=0, lane=None):
    """Run one figure at 1/20 scale on ``lane`` (its record's default when
    None); returns (its Scenario, its result).

    The Scenario's ``handle_calls`` is the (L7, L4) ``handle`` call count,
    its ``meter_calls`` the ``RateMeter.record_many`` call count.
    """
    worlds = []
    calls = [0, 0]
    meter_calls = [0]

    class Recorded(figures.Scenario):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.handle_calls = calls
            self.meter_calls = meter_calls
            worlds.append(self)

    def spy(i, handle):
        def counted(self, *args, **kwargs):
            calls[i] += 1
            return handle(self, *args, **kwargs)
        return counted

    monkeypatch.setattr(figures, "Scenario", Recorded)
    for i, cls in enumerate((L7Redirector, L4Switch)):
        monkeypatch.setattr(cls, "handle", spy(i, cls.handle))
    record_many = RateMeter.record_many

    def counted_record_many(self, *args, **kwargs):
        meter_calls[0] += 1
        return record_many(self, *args, **kwargs)

    monkeypatch.setattr(RateMeter, "record_many", counted_record_many)
    result = figures.ALL_FIGURES[figure](duration_scale=0.05, seed=seed,
                                         lane=lane)
    (sc,) = worlds
    if (lane or figures.WORLDS[figure]().lane) == "columnar":
        # Under REPRO_CHECK=1 the invariant hooks run the same world on the
        # event path, against the same constants.
        assert (sc.lane, sc.lane_fallback) == (
            ("columnar", None) if sc.invariants is None
            else ("slotted", "invariant hooks need per-request events"))
    return sc, result


def _costs(sc):
    """(events scheduled, LP solves over every redirector and daemon)."""
    return sc.sim._seq, sum(
        owner.allocator.lp_solves
        for owners in (sc.l7_redirectors, sc.l4_daemons)
        for owner in owners.values()
    )


def _assert_pinned_costs(figure, sc):
    mode = sc.lane + ("+check" if sc.invariants is not None else "")
    assert _costs(sc) == PINNED_COSTS[figure][mode], mode
    assert tuple(sc.handle_calls) == PINNED_HANDLE_CALLS[figure][mode], mode
    if mode == "columnar":
        assert sc.meter_calls[0] == PINNED_METER_CALLS[figure]


def _assert_pinned_l7(figure, sc, result):
    world, admission = PINNED[figure]
    assert scenario_digest(sc) == world
    assert {
        name: admission_digest(red) for name, red in sc.l7_redirectors.items()
    } == admission
    _assert_pinned_costs(figure, sc)
    assert result.figure == figure


@pytest.mark.parametrize("figure", sorted(PINNED))
def test_l7_figure_reproduces_parent_digests(figure, monkeypatch):
    sc, result = _run_recorded(figure, monkeypatch)
    _assert_pinned_l7(figure, sc, result)


@pytest.mark.parametrize("figure", ["fig8"])
def test_slotted_default_figure_reproduces_parent_digests_on_columnar(
        figure, monkeypatch):
    # The constants were captured on the slotted lane; columnar must land
    # on the same bits, at the costs of its own PINNED_COSTS row.
    sc, result = _run_recorded(figure, monkeypatch, lane="columnar")
    _assert_pinned_l7(figure, sc, result)


@pytest.mark.parametrize("figure", ["fig7"])
def test_columnar_default_figure_reproduces_parent_digests_on_slotted(
        figure, monkeypatch):
    # The record's default lane moved to columnar under these constants;
    # the slotted oracle must still land on them, at its own costs.
    sc, result = _run_recorded(figure, monkeypatch, lane="slotted")
    _assert_pinned_l7(figure, sc, result)


@pytest.mark.parametrize("figure", sorted(PINNED_L4))
def test_l4_figure_reproduces_parent_digests(figure, monkeypatch):
    sc, result = _run_recorded(figure, monkeypatch)
    world, admission = PINNED_L4[figure]
    assert scenario_digest(sc) == world
    assert {
        name: admission_digest(daemon) for name, daemon in sc.l4_daemons.items()
    } == admission
    _assert_pinned_costs(figure, sc)
    assert result.figure == figure


@pytest.mark.parametrize("figure", sorted(PINNED_SHARDED))
def test_sharded_figure_reproduces_parent_digests(figure):
    for shards in (1, 4):
        res = run_sharded(figure, duration_scale=0.05, seed=0, shards=shards,
                          replicas=4)
        assert (res.digest(), res.final_checkpoint_digest) == \
            PINNED_SHARDED[figure], f"shards={shards}"
    assert res.data_plane == "shm"
    matrix = run_crash_recovery_matrix(figure, duration_scale=0.05, seed=0,
                                       shards=4, replicas=4)
    assert sorted(matrix["cells"]) == ["exc", "kill", "multi", "reassign"]
    for name, cell in matrix["cells"].items():
        assert cell["digest"] == PINNED_SHARDED[figure][0], name
        assert cell["ok"] and cell["checkpoint_match"], name


@pytest.mark.parametrize("figure", sorted(PINNED_SHARDED_LOAD))
@pytest.mark.parametrize("shards", [1, 2])
def test_sharded_load_reproduces_parent_digests(figure, shards):
    res = run_sharded(figure, duration_scale=0.02, seed=0, shards=shards,
                      replicas=2, load_scale=100.0)
    assert (res.digest(), res.final_checkpoint_digest) == \
        PINNED_SHARDED_LOAD[figure]
    assert res.data_plane == ("inline" if shards == 1 else "shm")


def _columnar_load_world(seed, lane, T=0.5):
    g = AgreementGraph()
    g.add_principal("S", capacity=32_000.0)
    g.add_principal("A")
    g.add_principal("B")
    g.add_agreement(Agreement("S", "A", 0.2, 1.0))
    g.add_agreement(Agreement("S", "B", 0.8, 1.0))
    sc = Scenario(g, seed=seed, lane=lane)
    server = sc.server("S", "S", 32_000.0)
    r1 = sc.l7("R1", {"S": server}, n_redirectors=2)
    r2 = sc.l7("R2", {"S": server}, n_redirectors=2)
    sc.connect_tree(link_delay=0.005)
    sc.client("C1", "A", r1, rate=27_000.0, windows=[(0.0, 3 * T)],
              max_retry_pool=0, jitter=0.4)
    sc.client("C2", "B", r2, rate=13_500.0,
              windows=[(0.0, T), (2 * T, 3 * T)], max_retry_pool=0, jitter=0.4)
    sc.run(3 * T)
    return sc


@pytest.mark.parametrize("seed", sorted(PINNED_COLUMNAR_LOAD))
def test_columnar_load_reproduces_parent_digests(seed, monkeypatch):
    passes = []
    busy_pass = columnar._busy_pass

    def spy(*args):
        passes.append(args[0].shape[0])
        return busy_pass(*args)

    monkeypatch.setattr(columnar, "_busy_pass", spy)
    for lane in ("columnar", "slotted"):
        passes.clear()
        sc = _columnar_load_world(seed, lane)
        assert (sc.lane, sc.lane_fallback) == (lane, None)
        assert scenario_digest(sc) == PINNED_COLUMNAR_LOAD[seed], lane
        assert (*_costs(sc), len(passes)) == \
            PINNED_COLUMNAR_LOAD_COSTS[seed][lane], lane
        if lane == "columnar":
            # Mixed batches of >= 64 requests took the busy-period drain.
            assert min(passes) >= columnar._BUSY_MIN


def test_fault_matrix_reproduces_parent_digest():
    report = chaos_replay(duration_scale=0.4, seed=0, with_invariants=False)
    assert report.digests[0] == PINNED_FAULT_MATRIX


def test_fig1_distributed_reproduces_parent_rates():
    result = figures.run_fig1_distributed(duration=20, seed=0)
    assert {
        "endpoint": {p: r.hex() for p, r in result.endpoint.items()},
        "coordinated": {p: r.hex() for p, r in result.coordinated.items()},
    } == PINNED_FIG1D
