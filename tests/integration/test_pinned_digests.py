"""The L7 figures, bit for bit, against constants from before the window LP
was compiled (scipy/HiGHS solving a freshly built model every window).

``repro check`` proves runs agree with *each other*; this pins them to the
past.  The constants were captured at the parent of the commit that made the
warm-started bounded simplex the only solver: a solver or scheduler change
that moves a single admitted request in fig6 / fig7 / fig8 at 1/20 scale
shows up here as a digest mismatch, not as a tolerance drift.

The L4 figures, the fault matrix and the simulated fig1 were pinned the same
way at the parent of the commit that made ``lane=`` the only execution
selector (every one of their entry points changed signature there).

The sharded lane was pinned at the parent of the commit that made the
shared-memory plane its only boundary transport: ``shards=1``, ``shards=4``
and the four crash cells (recovery by respawn and by reassignment) must all
land on the digests the inline path produced there.
"""

import pytest

import repro.experiments.figures as figures
from repro.analysis.replay import (
    chaos_replay, l4_admission_digest, l7_admission_digest, scenario_digest,
)
from repro.experiments.faultmatrix import run_crash_recovery_matrix
from repro.experiments.sharded import run_sharded

PINNED = {
    "fig6": (
        "912035a6c4d2e3dcd079cae8fb98b36372dd53c882cede676a2fac35c1dee593",
        {"R1": "d9e6752c6b9c8d08b1dcf5487e9b2b25bb16d9eaae537fe3ddf24046a0b205d9",
         "R2": "62e64c0736b30e7b1a65ade28cff7143ff0679569b17dde31e5a68109c587289"},
    ),
    "fig7": (
        "0e6cb1396ebededa4c69716dd23eda6fc09753766e28d2bbb338d4eae302dc73",
        {"R1": "82b0b39a746abd0c2d7268b3cc4d511d272cc60700232c64c28948bc8cc6cdb0",
         "R2": "926c1f055e0bb8ae1139bbd0f07ac691b1c59524e5d849e47561bad61eb6b1a2"},
    ),
    "fig8": (
        "28b457e790da70f79f7d649ca36da9b6e1c6d2229b2f759b4f1246166ee0bec6",
        {"R1": "f7fe3fe05b4e0e25a73627de3a0f2f5907c50fe1167600c66d9e511b65d5c079",
         "R2": "0444572f926f7b13bf46fca9ec7ba2239609fc6ba0a7435995ce45e25dbe53a5"},
    ),
}

PINNED_L4 = {
    "fig9": (
        "c3f3bb981efd1896cfd8510460f1b782c9c85e4a93536a594dfcc61d2615c926",
        {"SW": "c4dec87ffcbcebdf6e18ae8ecdd047e53b361320a7d45167307fd83168174ced"},
    ),
    "fig10": (
        "b801b3a14bda7f8925a9f9eef14348da4e3a0e5bcb685f3ce14f090740ea6fc5",
        {"SW": "84374b3ca066197c85f915a566e5292945c6a9c722ffc7823e3f5d0bdb995cb0"},
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
    "d50e8bae17ce97240aa20f84c4d12424e7f52eddbd378370499625c034b63e7a"
)

PINNED_FIG1D = {
    "endpoint": {"A": "0x1.cd9999999999ap+4", "B": "0x1.149999999999ap+6"},
    "coordinated": {"A": "0x1.40ccccccccccdp+4", "B": "0x1.3f33333333334p+6"},
}


def _run_recorded(figure, monkeypatch):
    """Run one figure at 1/20 scale; returns (its Scenario, its result)."""
    worlds = []

    class Recorded(figures.Scenario):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            worlds.append(self)

    monkeypatch.setattr(figures, "Scenario", Recorded)
    result = figures.ALL_FIGURES[figure](duration_scale=0.05, seed=0)
    (sc,) = worlds
    return sc, result


@pytest.mark.parametrize("figure", sorted(PINNED))
def test_l7_figure_reproduces_parent_digests(figure, monkeypatch):
    sc, result = _run_recorded(figure, monkeypatch)
    world, admission = PINNED[figure]
    assert scenario_digest(sc) == world
    assert {
        name: l7_admission_digest(red) for name, red in sc.l7_redirectors.items()
    } == admission
    assert result.figure == figure


@pytest.mark.parametrize("figure", sorted(PINNED_L4))
def test_l4_figure_reproduces_parent_digests(figure, monkeypatch):
    sc, result = _run_recorded(figure, monkeypatch)
    world, admission = PINNED_L4[figure]
    assert scenario_digest(sc) == world
    assert {
        name: l4_admission_digest(daemon) for name, daemon in sc.l4_daemons.items()
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
