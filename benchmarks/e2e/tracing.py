"""Per-layer spans recorded from outside the program.

Imported by the traced pass only.  ``Tracer.install()`` replaces public
functions of each ``src/repro/`` layer — on the class, or on the importing
module's binding — with wrappers that time the call and charge it to a
(parent span, span) edge; ``uninstall()`` puts every original back.  Spans
are aggregated in memory and written by the caller at exit.

Self time of a span is its duration minus the part its child spans cover,
so self times of everything under ``sim.run`` add up to ``sim.run``.  What a
wrapper at a public boundary cannot see stays in the caller's self time:
the client-tick and server-finish callbacks the kernel fires are private,
so they are folded into ``sim.run``'s self time together with heap traffic.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.experiments.harness as harness
import repro.scheduling.community as community
import repro.scheduling.multiresource as multiresource
import repro.scheduling.provider as provider
from repro.cluster.client import Held, Redirect
from repro.cluster.columnar import ColumnarClient, _ServerLane
from repro.cluster.server import Server
from repro.cluster.workload import WorkloadStream
from repro.coordination.protocol import AggregationNode
from repro.experiments.sharded import ShardedRunner
from repro.l4.switch import L4Switch
from repro.l7.redirector import L7Redirector
from repro.lp.cache import SolveCache
from repro.scheduling.allocator import WindowAllocator
from repro.sim.engine import Simulator
from repro.sim.monitor import RateMeter

ROOT = "<root>"

# (owner, attribute, span name, outcome classifier or None)
_SPANS: List[Tuple[Any, str, str, Optional[Callable[[Any], str]]]] = [
    (community, "solve", "lp.solve", None),
    (provider, "solve", "lp.solve", None),
    (multiresource, "solve", "lp.solve", None),
    (SolveCache, "get", "lp.cache_get",
     lambda hit: "miss" if hit is None else "hit"),
    (WindowAllocator, "compute", "scheduling.compute", None),
    (community.CommunityScheduler, "schedule", "scheduling.schedule", None),
    (provider.ProviderScheduler, "schedule", "scheduling.schedule", None),
    (L7Redirector, "handle", "l7.handle",
     lambda d: "admit" if isinstance(d, Redirect) else "other"),
    (L4Switch, "handle", "l4.handle",
     lambda d: "admit" if isinstance(d, Held) else "other"),
    (L4Switch, "install", "l4.install", None),
    (L4Switch, "sweep_idle", "l4.sweep_idle", None),
    (Server, "submit", "cluster.submit", None),
    (WorkloadStream, "draw_next", "cluster.draw", None),
    (ColumnarClient, "take_until", "cluster.columnar_take", None),
    (_ServerLane, "advance", "cluster.columnar_drain", None),
    (Simulator, "run", "sim.run", None),
    (RateMeter, "record", "sim.meter", None),
    (RateMeter, "record_many", "sim.meter", None),
    (AggregationNode, "on_message", "coordination.on_message", None),
    (harness, "compute_access_levels", "core.access", None),
    (harness.Scenario, "run", "experiments.scenario_run", None),
    (ShardedRunner, "run", "experiments.sharded_run", None),
]

# Count-only (no clock reads): every heap push from outside the kernel goes
# through one of these two; call_later/every/process land in schedule().
_COUNTS = [
    (Simulator, "schedule", "sim.scheduled"),
    (Simulator, "schedule_at", "sim.scheduled"),
]

# The run call that splits an entry point into build / run / summarise
# (patched a second time, outside its span wrapper above).
_RUNS = [(harness.Scenario, "run"), (ShardedRunner, "run")]


class Tracer:
    def __init__(self) -> None:
        # (parent, name) -> [calls, total_s, self_s]
        self.edges: Dict[Tuple[str, str], List[float]] = {}
        self.outcomes: Dict[str, Dict[str, int]] = {}
        self.counts: Dict[str, int] = {}
        self.run_marks: List[Tuple[float, float]] = []
        self.tree_msgs = 0
        self.columnar_requests = 0
        self._stack: List[List[Any]] = [[ROOT, 0.0]]
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn: Callable,
              classify: Optional[Callable[[Any], str]]) -> Callable:
        stack = self._stack
        edges = self.edges
        by_parent: Dict[str, List[float]] = {}
        tally = self.outcomes.setdefault(name, {}) if classify else None

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent[1] += dt
                rec = by_parent.get(parent[0])
                if rec is None:
                    rec = by_parent[parent[0]] = edges.setdefault(
                        (parent[0], name), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if tally is not None:
                key = classify(result)
                tally[key] = tally.get(key, 0) + 1
            return result

        traced.__wrapped__ = fn          # type: ignore[attr-defined]
        return traced

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn         # type: ignore[attr-defined]
        return counted

    def _run(self, fn: Callable) -> Callable:
        """Mark the run call's start/end and read the world's public
        counters once it returns."""
        tracer = self

        def marked(world: Any, *args: Any, **kwargs: Any) -> Any:
            t0 = perf_counter()
            try:
                return fn(world, *args, **kwargs)
            finally:
                tracer.run_marks.append((t0, perf_counter()))
                counter = getattr(world, "counter", None)
                if counter is not None:
                    tracer.tree_msgs += counter.total
                columnar = getattr(world, "columnar", None)
                if columnar is not None:
                    tracer.columnar_requests += columnar.requests

        marked.__wrapped__ = fn          # type: ignore[attr-defined]
        return marked

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> "Tracer":
        for owner, attr, name, classify in _SPANS:
            self._patch(owner, attr,
                        lambda fn, n=name, c=classify: self._span(n, fn, c))
        for owner, attr, name in _COUNTS:
            self._patch(owner, attr, lambda fn, n=name: self._count(n, fn))
        for owner, attr in _RUNS:
            self._patch(owner, attr, self._run)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @staticmethod
    def patched_sites() -> List[Tuple[Any, str]]:
        return ([(o, a) for o, a, *_ in _SPANS] + [(o, a) for o, a, _ in _COUNTS]
                + list(_RUNS))

    # -- aggregation -------------------------------------------------------

    def by_name(self) -> Dict[str, List[float]]:
        """name -> [calls, total_s, self_s] summed over parents."""
        out: Dict[str, List[float]] = {}
        for (_parent, name), (calls, total, self_s) in self.edges.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        return out

    def spans_json(self) -> List[Dict[str, Any]]:
        return [
            {"span": name, "parent": parent, "calls": int(calls),
             "total_s": total, "self_s": self_s}
            for (parent, name), (calls, total, self_s) in sorted(self.edges.items())
        ]

    def layer_metrics(self, entry_marks: List[Tuple[float, float]]) -> Dict[str, float]:
        """The per-layer metrics spans and counters can give for one traced
        call.  ``entry_marks`` are the (start, end) clock readings the
        workload took around each entry point; the run call inside each
        splits it into build / run / summarise."""
        s = self.by_name()

        def column(i: int) -> Callable[[str], float]:
            return lambda n: float(s.get(n, (0, 0.0, 0.0))[i])

        calls, total, self_s = column(0), column(1), column(2)

        def ratio(n: str, key: str) -> float:
            return self.outcomes[n].get(key, 0) / calls(n) if calls(n) else 0.0

        cache = self.outcomes["lp.cache_get"]
        build = summarise = 0.0
        for e0, e1 in entry_marks:
            for r0, r1 in self.run_marks:
                if e0 <= r0 and r1 <= e1:
                    build += r0 - e0
                    summarise += e1 - r1
        return {
            "lp.solve_calls": calls("lp.solve"),
            "lp.solve_s": total("lp.solve"),
            "lp.cache_hits": float(cache.get("hit", 0)),
            "lp.cache_misses": float(cache.get("miss", 0)),
            "scheduling.compute_calls": calls("scheduling.compute"),
            "scheduling.compute_self_s": self_s("scheduling.compute"),
            "scheduling.schedule_calls": calls("scheduling.schedule"),
            "scheduling.schedule_self_s": self_s("scheduling.schedule"),
            "l7.handle_calls": calls("l7.handle"),
            "l7.handle_self_s": self_s("l7.handle"),
            "l7.admit_ratio": ratio("l7.handle", "admit"),
            "l4.handle_calls": calls("l4.handle"),
            "l4.handle_self_s": self_s("l4.handle"),
            "l4.install_s": total("l4.install"),
            "l4.sweep_idle_s": total("l4.sweep_idle"),
            "l4.admit_ratio": ratio("l4.handle", "admit"),
            "cluster.submit_calls": calls("cluster.submit"),
            "cluster.submit_self_s": self_s("cluster.submit"),
            "cluster.draw_calls": calls("cluster.draw"),
            "cluster.draw_s": total("cluster.draw"),
            "cluster.columnar_take_s": total("cluster.columnar_take"),
            "cluster.columnar_drain_s": total("cluster.columnar_drain"),
            "cluster.columnar_requests": float(self.columnar_requests),
            "sim.run_s": total("sim.run"),
            "sim.kernel_self_s": self_s("sim.run"),
            "sim.scheduled": float(self.counts["sim.scheduled"]),
            "sim.meter_calls": calls("sim.meter"),
            "sim.meter_s": total("sim.meter"),
            "coordination.on_message_calls": calls("coordination.on_message"),
            "coordination.on_message_self_s": self_s("coordination.on_message"),
            "coordination.tree_msgs": float(self.tree_msgs),
            "experiments.build_s": build,
            "experiments.summarise_s": summarise,
            "core.access_s": total("core.access"),
        }

    def table(self, wall_s: float) -> str:
        """The ``repro profile``-style table: layer, function, calls, self s,
        % of wall."""
        rows = sorted(self.by_name().items(), key=lambda kv: -kv[1][2])
        lines = [f"{'layer':<14}{'function':<18}{'calls':>12}{'self s':>10}{'% wall':>8}"]
        for name, (n, _total, self_s) in rows:
            layer, _, func = name.partition(".")
            lines.append(f"{layer:<14}{func:<18}{int(n):>12}{self_s:>10.3f}"
                         f"{100.0 * self_s / wall_s:>8.1f}")
        traced = sum(rec[2] for _, rec in rows)
        lines.append(f"{'experiments':<14}{'build+summarise':<18}{'':>12}"
                     f"{wall_s - traced:>10.3f}{100.0 * (wall_s - traced) / wall_s:>8.1f}")
        return "\n".join(lines)
