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

Every figure constant but fig10's, and the sharded and columnar-load
constants, moved once more at the commit that made each window's plan the
exact optimum for its estimate, computed in closed form with no plan
reused (CHANGES.md lists old -> new); fig10, the fault matrix and fig1d
held.

fig6, fig9 and fig10 have run on the columnar lane by default since the
commit that let it park refused requests, fig7 since the commit that made
the server lanes drain in request blocks; their constants did not move.
fig7 runs here on slotted as well, and fig8, which defaults to slotted, on
columnar, against the same constants.
The columnar server lanes drain in blocks of about a thousand requests,
so the figures' drains reach the busy-period pass as well;
``PINNED_COLUMNAR_LOAD`` pins the benchmark's 100x columnar world, whose
every window is a mixed batch of thousands of requests, on both lanes.

What each of those runs cost (events, plans, handle and meter calls) is
pinned in ``tests/integration/test_cost_budgets.py``, against the same
recorded runs (``tests/integration/recorded.py``).

The sharded lane was pinned at the parent of the commit that made the
shared-memory plane its only boundary transport: ``shards=1``, ``shards=4``
and the four crash cells (recovery by respawn and by reassignment) must all
land on the digests the inline path produced there.
"""

import pytest

import repro.experiments.figures as figures
from repro.analysis.replay import chaos_replay
from repro.experiments.faultmatrix import run_crash_recovery_matrix
from repro.experiments.sharded import run_sharded
from tests.integration.recorded import columnar_load_run, figure_run

PINNED = {
    "fig6": (
        "3f4f1761218ec9fa9d17d723b80a71e92269d0b33ef08be589104fbce148effe",
        {"R1": "f20991dfe52812c893ab4063e09b108df6a09468dab5329e297506d18b43840e",
         "R2": "1575e0607fcbae554719bcc0a486327fabf6dac0d2ee6208e78db5a79ea4acac"},
    ),
    "fig7": (
        "b02acf5272d65ef056f78ea86ec2aa1300fb41de911c7ffab1801049667f96fa",
        {"R1": "75d9f52f224433251794345edb1b755430032f0f0c73ebe6e42081ecb9521d09",
         "R2": "b1b0676ce1028fc2bda3d81a22eb49d9a224809417091e1edefa2afdffa54d09"},
    ),
    "fig8": (
        "a21cf3fa0ff62c91218f2b3ffa6b536a7ef986f50743b8000d1dd50cb1780838",
        {"R1": "9ad5985782def67f63a8209546ab0d03bf684c7853d1e2dbf02d0b68a599c330",
         "R2": "49afa335b3b5432f11aff53c183d396fb728ce759fd3be528d4760b84d2e8826"},
    ),
}

PINNED_L4 = {
    "fig9": (
        "9e0d1f4f6f4d5dce75227631e3a46f34efb6ad7bb8433d3b61ae6150c8a7ed15",
        {"SW": "14d1a39d7342e954886be98a80bfc415c2f7f36cdb7f44a64e9b46252a64a82c"},
    ),
    "fig10": (
        "7f5d988ca6bfa9a992b7d0604b48fd0c49e9b732ad9ff968dcaedf34fdf1367e",
        {"SW": "5740b83786d4f16958d8407ebf961976212da115a678245784f79695c835b809"},
    ),
}

# figure -> (ShardedResult.digest(), final_checkpoint_digest) at 4 replicas.
PINNED_SHARDED = {
    "fig6": (
        "c7bd5258f61e203c04773fec7e8cff01143b48e41ba78b4c0522b750d2bb7f1d",
        "d90ee009b88734ca4a064e1021a73d4687ba1fbf178cbf497d90c04a0ce00f03",
    ),
    "fig9": (
        "3d51e2445b81482c0fa24babc587bc29091e6cb78542cda18cd210cd9f27504c",
        "a665dd83be4b88f804a30a3092548a7f49549578f34efee6c0437896f4e42150",
    ),
}

# The same, at 2 replicas and 100x load: 1.5k-2.7k admitted requests per
# cluster-window, the batch sizes the benchmark's sharded workload runs
# (PINNED_SHARDED runs about 40).  Captured before the sharded epoch went
# columnar, which must leave them alone.
PINNED_SHARDED_LOAD = {
    "fig6": (
        "04d524bb63bf2333d616d7343ffbab6903ea791fb2ab42ee8437561822ae890f",
        "f80a841b3d8ba602af62984b98efa799a6d2a6baa4aeda951675dc0dac26cb13",
    ),
    "fig9": (
        "930ae848046559d8b2bc0bea2cada4a79e80a7890ae39f1063c5e0c5e108fc10",
        "3ddbe3ace0a193fe52dad30d024ac723009d5b9cb8763de298194d6d8247b076",
    ),
}

# seed -> scenario_digest of the benchmark's columnar world (fig6 x100:
# capacity 32k, A one 27k client, B one 13.5k client, jitter 0.4, no retry
# pool) at T = 0.5.  Its server drains batches of up to ~3.6k requests, so
# mixed busy/idle batches take the busy-period drain rather than the scalar
# loop.  Captured before that drain existed; both lanes must land on them.
PINNED_COLUMNAR_LOAD = {
    0: "9035da7f1c37b851560d164a15ed9fdc0b5415a71915aa52aaaef6732a8c7933",
    1: "5adb0a7584bae4d2df11b0995834faf0591dd1f125837bea8efe5e7f35d901b9",
}

PINNED_FAULT_MATRIX = (
    "038a99cf5f49d0ddc20f7c461a9025dd951a7cbc63f7f46f89f534de550dcacd"
)

PINNED_FIG1D = {
    "endpoint": {"A": "0x1.cd9999999999ap+4", "B": "0x1.149999999999ap+6"},
    "coordinated": {"A": "0x1.4000000000000p+4", "B": "0x1.4000000000000p+6"},
}


def _assert_pinned(figure, pinned, lane=None):
    """``figure``'s shared recorded run (tests/integration/recorded.py)
    against its world and admission digests."""
    run = figure_run(figure, lane)
    if (lane or figures.WORLDS[figure]().lane) == "columnar":
        # Under REPRO_CHECK=1 the invariant hooks run the same world on the
        # event path, against the same constants.
        assert (run.mode, run.lane_fallback) == (
            ("columnar", None) if run.mode == "columnar"
            else ("slotted+check", "invariant hooks need per-request events"))
    world, admission = pinned[figure]
    assert run.digest == world
    assert run.admission == admission
    assert run.figure == figure


@pytest.mark.parametrize("figure", sorted(PINNED))
def test_l7_figure_reproduces_parent_digests(figure):
    _assert_pinned(figure, PINNED)


@pytest.mark.parametrize("figure", ["fig8"])
def test_slotted_default_figure_reproduces_parent_digests_on_columnar(figure):
    # The constants were captured on the slotted lane; columnar must land
    # on the same bits.
    _assert_pinned(figure, PINNED, lane="columnar")


@pytest.mark.parametrize("figure", ["fig7"])
def test_columnar_default_figure_reproduces_parent_digests_on_slotted(figure):
    # The record's default lane moved to columnar under these constants;
    # the slotted oracle must still land on them.
    _assert_pinned(figure, PINNED, lane="slotted")


@pytest.mark.parametrize("figure", sorted(PINNED_L4))
def test_l4_figure_reproduces_parent_digests(figure):
    _assert_pinned(figure, PINNED_L4)


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


@pytest.mark.parametrize("seed", sorted(PINNED_COLUMNAR_LOAD))
def test_columnar_load_reproduces_parent_digests(seed):
    for lane in ("columnar", "slotted"):
        run = columnar_load_run(seed, lane)
        assert (run.mode, run.lane_fallback) == (lane, None)
        assert run.digest == PINNED_COLUMNAR_LOAD[seed], lane


def test_fault_matrix_reproduces_parent_digest():
    report = chaos_replay(duration_scale=0.4, seed=0, with_invariants=False)
    assert report.digests[0] == PINNED_FAULT_MATRIX


def test_fig1_distributed_reproduces_parent_rates():
    result = figures.run_fig1_distributed(duration=20, seed=0)
    assert {
        "endpoint": {p: r.hex() for p, r in result.endpoint.items()},
        "coordinated": {p: r.hex() for p, r in result.coordinated.items()},
    } == PINNED_FIG1D
