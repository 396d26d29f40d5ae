"""Scaling study: many principals per redirector.

The paper argues the per-window LP is cheap because "the complexity of
this strategy only depends on the number of principals involved in the
agreements; this latter number is expected to be small."  This module
measures what happens when it is not small: communities of up to dozens of
principals sharing several servers through one redirector, reporting

- wall-clock allocation cost per scheduling window (closed-form plan),
- guarantee satisfaction (fraction of principals at >= their effective
  mandatory level),
- aggregate throughput against capacity (work conservation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.access import compute_access_levels
from repro.core.agreements import Agreement, AgreementGraph
from repro.experiments.harness import Scenario
from repro.experiments.parallel import parallel_map

__all__ = ["ScalingPoint", "random_community", "run_scaling_point", "run_scaling_sweep"]


@dataclass
class ScalingPoint:
    n_principals: int
    plan_ms_mean: float
    plan_ms_p95: float
    guarantee_satisfaction: float     # fraction of principals meeting floors
    throughput: float                 # aggregate req/s
    capacity: float
    plans: int
    extra: Dict[str, float] = field(default_factory=dict)


def random_community(n: int, seed: int = 0, servers: int = 4) -> AgreementGraph:
    """A community of ``n`` principals: ``servers`` of them own capacity and
    grant overlapping [lb, ub] slices to consumer principals."""
    rng = np.random.default_rng(seed)
    g = AgreementGraph()
    owner_names = [f"srv{i}" for i in range(servers)]
    consumer_names = [f"org{i}" for i in range(n - servers)]
    for name in owner_names:
        g.add_principal(name, capacity=float(rng.choice([200.0, 320.0, 400.0])))
    for name in consumer_names:
        g.add_principal(name)
    for owner in owner_names:
        # Each owner guarantees slices to a random subset of consumers.
        k = max(1, len(consumer_names) // 2)
        grantees = rng.choice(consumer_names, size=k, replace=False)
        budget = 0.9
        for grantee in grantees:
            if budget < 0.06:
                break
            lb = round(float(rng.uniform(0.05, min(0.3, budget))), 3)
            if lb <= 0.0 or budget - lb < 0:
                break
            ub = round(float(min(1.0, lb + rng.uniform(0.0, 0.4))), 3)
            g.add_agreement(Agreement(owner, str(grantee), lb, ub))
            budget -= lb
    return g


def run_scaling_point(
    n: int, seed: int = 0, duration: float = 12.0, servers: int = 4
) -> ScalingPoint:
    """Simulate one community size; see module docstring for the metrics."""
    g = random_community(n, seed=seed, servers=servers)
    access = compute_access_levels(g)
    sc = Scenario(g, seed=seed)
    server_objs = {
        name: sc.server(f"S_{name}", name, g.principal(name).capacity)
        for name in g.names
        if g.principal(name).capacity > 0
    }
    red = sc.l7("R", server_objs)

    # Time every window's allocation.
    plan_times: List[float] = []
    inner = red.allocator.compute

    # Wall-clock here times the *plan*, not simulated behaviour: the
    # measured milliseconds never feed back into the event stream.
    def timed(local, now=None):
        t0 = time.perf_counter()  # simlint: disable=SIM001
        out = inner(local, now=now)
        plan_times.append((time.perf_counter() - t0) * 1000.0)  # simlint: disable=SIM001
        return out

    red.allocator.compute = timed  # type: ignore[assignment]

    rng = np.random.default_rng(seed + 1)
    demands = {}
    for name in g.names:
        if g.principal(name).capacity > 0:
            continue
        rate = float(rng.choice([30.0, 80.0, 200.0]))
        demands[name] = rate
        sc.client(f"C_{name}", name, red, rate=rate)
    sc.run(duration)

    satisfied = 0
    considered = 0
    total = 0.0
    settle = duration / 3.0
    for name, offered in demands.items():
        measured = sc.meter.mean_rate(name, settle, duration)
        total += measured
        floor = min(offered, access.mandatory(name))
        if floor <= 1e-9:
            continue
        considered += 1
        if measured >= 0.85 * floor:
            satisfied += 1
    capacity = float(sum(g.principal(p).capacity for p in g.names))
    times = np.asarray(plan_times) if plan_times else np.zeros(1)
    return ScalingPoint(
        n_principals=n,
        plan_ms_mean=float(times.mean()),
        plan_ms_p95=float(np.percentile(times, 95)),
        guarantee_satisfaction=satisfied / considered if considered else 1.0,
        throughput=total,
        capacity=capacity,
        plans=red.allocator.plans_computed,
    )


def _scaling_task(task) -> ScalingPoint:
    n, seed, duration = task
    return run_scaling_point(n, seed=seed, duration=duration)


def run_scaling_sweep(
    sizes=(6, 10, 18, 30), seed: int = 0, duration: float = 12.0, jobs=1
) -> List[ScalingPoint]:
    """One :class:`ScalingPoint` per community size.

    Points are independent simulations; ``jobs`` fans them out across
    processes (results identical for any job count).
    """
    return parallel_map(
        _scaling_task, [(n, seed, duration) for n in sizes], jobs=jobs
    )
