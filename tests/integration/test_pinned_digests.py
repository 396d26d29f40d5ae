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
commit that let it park refused requests; their constants did not move.

The sharded lane was pinned at the parent of the commit that made the
shared-memory plane its only boundary transport: ``shards=1``, ``shards=4``
and the four crash cells (recovery by respawn and by reassignment) must all
land on the digests the inline path produced there.
"""

import pytest

import repro.experiments.figures as figures
from repro.analysis.replay import (
    admission_digest, chaos_replay, scenario_digest,
)
from repro.experiments.faultmatrix import run_crash_recovery_matrix
from repro.experiments.sharded import run_sharded

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

PINNED_FAULT_MATRIX = (
    "038a99cf5f49d0ddc20f7c461a9025dd951a7cbc63f7f46f89f534de550dcacd"
)

PINNED_FIG1D = {
    "endpoint": {"A": "0x1.cd9999999999ap+4", "B": "0x1.149999999999ap+6"},
    "coordinated": {"A": "0x1.4000000000000p+4", "B": "0x1.4000000000000p+6"},
}


# Figures whose entry point takes a lane; they run columnar by default, and
# the constants above are what the slotted lane produced before that.
COLUMNAR_BY_DEFAULT = {"fig6", "fig9", "fig10"}


def _run_recorded(figure, monkeypatch, seed=0):
    """Run one figure at 1/20 scale; returns (its Scenario, its result)."""
    worlds = []

    class Recorded(figures.Scenario):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            worlds.append(self)

    monkeypatch.setattr(figures, "Scenario", Recorded)
    result = figures.ALL_FIGURES[figure](duration_scale=0.05, seed=seed)
    (sc,) = worlds
    if figure in COLUMNAR_BY_DEFAULT:
        # Under REPRO_CHECK=1 the invariant hooks run the same world on the
        # event path, against the same constants.
        assert (sc.lane, sc.lane_fallback) == (
            ("columnar", None) if sc.invariants is None
            else ("slotted", "invariant hooks need per-request events"))
    return sc, result


@pytest.mark.parametrize("figure", sorted(PINNED))
def test_l7_figure_reproduces_parent_digests(figure, monkeypatch):
    sc, result = _run_recorded(figure, monkeypatch)
    world, admission = PINNED[figure]
    assert scenario_digest(sc) == world
    assert {
        name: admission_digest(red) for name, red in sc.l7_redirectors.items()
    } == admission
    assert result.figure == figure


@pytest.mark.parametrize("figure", sorted(PINNED_L4))
def test_l4_figure_reproduces_parent_digests(figure, monkeypatch):
    sc, result = _run_recorded(figure, monkeypatch)
    world, admission = PINNED_L4[figure]
    assert scenario_digest(sc) == world
    assert {
        name: admission_digest(daemon) for name, daemon in sc.l4_daemons.items()
    } == admission
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


def test_fault_matrix_reproduces_parent_digest():
    report = chaos_replay(duration_scale=0.4, seed=0, with_invariants=False)
    assert report.digests[0] == PINNED_FAULT_MATRIX


def test_fig1_distributed_reproduces_parent_rates():
    result = figures.run_fig1_distributed(duration=20, seed=0)
    assert {
        "endpoint": {p: r.hex() for p, r in result.endpoint.items()},
        "coordinated": {p: r.hex() for p, r in result.coordinated.items()},
    } == PINNED_FIG1D
