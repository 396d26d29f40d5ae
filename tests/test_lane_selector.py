"""``lane=`` is the only execution selector: the four A/B accelerator
switches stay deleted everywhere (the schedulers' ``lp_cache=`` too: plan
reuse is the window allocator's policy, with no switch), and
so do the sharded lane's transport and checkpoint-store knobs, the strict
open-loop world variant the columnar lane once needed, and the L4
switch's per-packet lane (now a test oracle)."""

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
    *figures.ALL_FIGURES.values(),
    *figures.WORLDS.values(), figures.FigureWorld.build,
    figures.FigureWorld.scenario, figures.run_figure,
    parallel.figure_kwargs, parallel.run_figures_parallel,
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


@pytest.mark.parametrize("name", list(figures.WORLDS))
def test_every_figure_runner_takes_the_lane(name):
    # The registry's figures all select a lane, fig7 and fig8 included.
    assert "lane" in inspect.signature(figures.ALL_FIGURES[name]).parameters


def test_scenario_takes_the_lane_and_nothing_else():
    assert list(inspect.signature(Scenario).parameters) == [
        "graph", "window", "seed", "bin_width", "trace", "check_invariants",
        "lane",
    ]
    assert inspect.signature(Scenario).parameters["lane"].default == "slotted"


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
def test_parser_accepts_lane(lane):
    assert build_parser().parse_args(["figures", "--lane", lane]).lane == lane


def test_parser_rejects_the_scalar_lane(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["figures", "--lane", "scalar"])
    assert exc.value.code == 2
    assert "invalid choice: 'scalar'" in capsys.readouterr().err
