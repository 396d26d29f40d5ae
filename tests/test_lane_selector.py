"""A world's record is the only place that chooses its lane: no figure
runner, batch helper or CLI option takes one (nor a shard count), and
``Scenario`` takes ``lane=`` but no tracer.  The four A/B accelerator switches stay deleted
everywhere (the schedulers' ``lp_cache=`` too: plan reuse is the window
allocator's policy, with no switch), and so do the sharded lane's
transport and checkpoint-store knobs, the strict open-loop world variant
the columnar lane once needed, and the L4 switch's per-packet lane (now a
test oracle)."""

import inspect

import pytest

from repro.analysis import replay
from repro.cli import build_parser
from repro.cluster.client import ClientMachine
from repro.experiments import faultmatrix, figures, parallel, sharded
from repro.experiments.harness import Scenario
from repro.l4.columnar import ColumnarL4Switch
from repro.l4.daemon import L4Daemon
from repro.l4.switch import L4Switch
from repro.l7.redirector import L7Redirector
from repro.scheduling.allocator import WindowAllocator
from repro.scheduling.community import CommunityScheduler
from repro.scheduling.multiresource import MultiResourceCommunityScheduler
from repro.scheduling.provider import ProviderScheduler
from repro.sim.engine import Simulator

GONE = {"lp_cache", "fast_periodic", "fast_lane", "l4_fast_lane",
        "transport", "checkpoint_spill", "checkpoint_retain",
        "strict_open_loop"}

SWITCHLESS = [
    Scenario,
    figures.run_fig1, figures.run_fig1_distributed, figures.run_fig3,
    figures.run_fig6, figures.run_fig7, figures.run_fig8, figures.run_fig9,
    figures.run_fig10, figures.run_faultmatrix,
    *figures.WORLDS.values(), figures.FigureWorld.build,
    figures.FigureWorld.scenario, figures.run_figure,
    parallel.run_figures_parallel,
    faultmatrix.fault_matrix_world, faultmatrix.run_fault_matrix,
    faultmatrix.run_crash_recovery_matrix,
    replay.figure_replay, replay.chaos_replay,
    replay.columnar_replay, replay.sharded_replay,
    sharded.ShardedRunner, sharded.run_sharded, sharded.shard_world,
    WindowAllocator, L7Redirector, L4Daemon, L4Switch, ColumnarL4Switch,
    ClientMachine, Simulator,
    CommunityScheduler, ProviderScheduler, MultiResourceCommunityScheduler,
]


def _accepts(fn, name):
    params = inspect.signature(fn).parameters
    if name in params:
        return True
    # A **kwargs catch-all is a pass-through in disguise.
    # ColumnarL4Switch's forwards to L4Switch, which is checked by name.
    return fn is not ColumnarL4Switch and any(
        p.kind is p.VAR_KEYWORD for p in params.values()
    )


@pytest.mark.parametrize(
    "fn", SWITCHLESS, ids=lambda fn: f"{fn.__module__}.{fn.__qualname__}"
)
def test_accelerator_switches_are_gone(fn):
    # run_sharded alone still takes transport="shm": the frozen e2e
    # benchmark passes it, and anything else is a ValueError.
    gone = GONE - {"transport"} if fn is sharded.run_sharded else GONE
    assert not [name for name in sorted(gone) if _accepts(fn, name)]


@pytest.mark.parametrize("name", list(figures.ALL_FIGURES))
def test_no_figure_runner_takes_the_lane(name):
    # The record chooses; FigureWorld.build(lane) alone reaches the oracle.
    assert not _accepts(figures.ALL_FIGURES[name], "lane")


@pytest.mark.parametrize("fn", [figures.run_figure,
                                parallel.run_figures_parallel])
def test_no_figure_batch_takes_the_lane(fn):
    assert not _accepts(fn, "lane")


@pytest.mark.parametrize(
    "fn", [*figures.ALL_FIGURES.values(), figures.run_figure,
           parallel.run_figures_parallel],
    ids=[*figures.ALL_FIGURES, "run_figure", "run_figures_parallel"],
)
def test_no_figure_runner_takes_shards(fn):
    # The sharded lane is its own model, reached through ShardedRunner,
    # run_sharded and `check` / `chaos --shards`, never under a figure's
    # name.
    assert not _accepts(fn, "shards")


@pytest.mark.parametrize("name", list(figures.ALL_FIGURES))
def test_every_figure_takes_scale_and_seed(name):
    # One uniform call: ALL_FIGURES[name](duration_scale, seed).
    inspect.signature(figures.ALL_FIGURES[name]).bind(0.05, 0)


def test_scenario_takes_the_lane_and_nothing_else():
    params = inspect.signature(Scenario).parameters
    assert list(params) == [
        "graph", "window", "seed", "bin_width", "check_invariants", "lane",
    ]
    assert "trace" not in params
    assert params["lane"].default == "slotted"


@pytest.mark.parametrize("flag", [
    "--no-lp-cache", "--no-fast-lane", "--no-l4-fast-lane", "--columnar",
])
def test_parser_rejects_the_old_flags(flag, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figures", flag])
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["figures", "check", "chaos"])
def test_parser_rejects_transport(command, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--shards", "2", "--transport", "shm"])
    assert "unrecognized arguments" in capsys.readouterr().err


def test_check_has_no_columnar_flag(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["check", "--no-columnar"])
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("lane", ["slotted", "columnar"])
def test_parser_rejects_lane(lane, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["figures", "--lane", lane])
    assert exc.value.code == 2
    assert "unrecognized arguments: --lane" in capsys.readouterr().err


def test_parser_rejects_the_scalar_lane(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["figures", "--lane", "scalar"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --lane scalar" in capsys.readouterr().err
