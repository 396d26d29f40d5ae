"""Discrete-event simulation kernel.

This package is the substrate that stands in for the paper's physical
testbed (1 GHz PCs on a 100 Mbps switched LAN).  It provides:

- :class:`repro.sim.engine.Simulator` — a heapq-based event kernel with
  generator-style processes (a deliberately small simpy-like core).
- :class:`repro.sim.network.Link` — latency-modelled message delivery.
- :class:`repro.sim.monitor.RateMeter` / :class:`repro.sim.monitor.TimeSeries`
  — measurement instruments used by the experiment harness.
- :class:`repro.sim.stats.StreamingStats` — bounded running moments +
  reservoir quantiles for per-request measurements at scale.
- :mod:`repro.sim.rng` — reproducible named random substreams.
"""

from repro.sim.engine import (
    Event, Interrupt, PeriodicTimer, Process, Simulator, Timer,
)
from repro.sim.monitor import PhaseStats, RateMeter, TimeSeries
from repro.sim.network import Link, Endpoint
from repro.sim.rng import RngStreams
from repro.sim.stats import StreamingStats

__all__ = [
    "Simulator",
    "Process",
    "Event",
    "Interrupt",
    "Timer",
    "PeriodicTimer",
    "Link",
    "Endpoint",
    "RateMeter",
    "TimeSeries",
    "PhaseStats",
    "RngStreams",
    "StreamingStats",
]
