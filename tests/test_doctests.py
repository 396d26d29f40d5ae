"""Run the executable examples embedded in module docstrings."""

import doctest

import pytest

import repro.coordination.tree
import repro.experiments.ascii
import repro.scheduling.wrr
import repro.sim.engine
import repro.sim.monitor
import repro.sim.rng

MODULES = [
    repro.sim.engine,
    repro.sim.monitor,
    repro.sim.rng,
    repro.scheduling.wrr,
    repro.experiments.ascii,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, tests = doctest.testmod(module).failed, doctest.testmod(module).attempted
    assert tests > 0, f"{module.__name__} has no doctests (remove it from the list)"
    assert failures == 0
