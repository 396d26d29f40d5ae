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

from repro.core.agreements import Agreement, AgreementGraph
from repro.experiments.figures import ClientSpec, FigureWorld, NodeSpec
from repro.experiments.parallel import parallel_map

__all__ = [
    "ScalingPoint", "random_community", "scaling_world", "run_scaling_point",
    "run_scaling_sweep",
]


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


def scaling_world(
    n: int, seed: int = 0, duration: float = 12.0, servers: int = 4
) -> FigureWorld:
    """:func:`random_community` behind one redirector R, one server per
    owner; each consumer sends 30, 80 or 200 req/s."""
    g = random_community(n, seed=seed, servers=servers)
    capacity = {p: g.principal(p).capacity for p in g.names}
    owners = [p for p, c in capacity.items() if c > 0]
    rng = np.random.default_rng(seed + 1)
    return FigureWorld(
        figure=f"scaling-{n}",
        title=f"{n} principals behind one redirector",
        principals=tuple(capacity.items()),
        agreements=tuple(g.agreements()),
        servers=tuple((f"S_{p}", p, capacity[p]) for p in owners),
        nodes=(NodeSpec("R", "l7", {p: (f"S_{p}",) for p in owners}),),
        clients=tuple(ClientSpec(f"C_{p}", p, "R", float(rng.choice([30.0, 80.0, 200.0])))
                      for p in g.names if p not in owners),
        horizon=duration,
        phases=(("steady", duration / 3.0, duration),),
        seed=seed,
    )


def run_scaling_point(
    n: int, seed: int = 0, duration: float = 12.0, servers: int = 4
) -> ScalingPoint:
    """Simulate one community size; see module docstring for the metrics."""
    world = scaling_world(n, seed, duration, servers)
    sc = world.build()
    red = sc.l7_redirectors["R"]

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
    sc.run(world.horizon)

    (steady,) = world.measure(sc).phases
    floors = {c.principal: min(c.rate, sc.access.mandatory(c.principal)) for c in world.clients}
    met = [steady.rates[p] >= 0.85 * floor for p, floor in floors.items() if floor > 1e-9]
    times = np.asarray(plan_times) if plan_times else np.zeros(1)
    return ScalingPoint(
        n_principals=n,
        plan_ms_mean=float(times.mean()),
        plan_ms_p95=float(np.percentile(times, 95)),
        guarantee_satisfaction=sum(met) / len(met) if met else 1.0,
        throughput=sum(steady.rates.values()),
        capacity=float(sum(capacity for _, capacity in world.principals)),
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
