"""Correctness check run on every timed call, tracing on or off.

Host time may move between commits; simulated statistics may not.  The
check looks at the result from outside: paper phase rates within the
harness tolerance, conservation against constants restated in
``workloads.py``, and the lane/plane the workload is meant to exercise.
Digest equality across passes is checked by the caller, which sees all
passes.
"""

from __future__ import annotations

import math
from typing import List

from workloads import SHARD_WORKERS, Outcome, served_requests


def check(name: str, out: Outcome, paper_rates: bool = True) -> List[str]:
    """Problems found in one outcome (empty list = correct).

    ``paper_rates=False`` skips (a): at ``--smoke`` scale the phases are
    2 s long and the paper's steady-state rates are not expected.
    """
    problems: List[str] = []

    # (a) every figure within the harness tolerance of the paper's rates.
    if paper_rates:
        for fig in out.figures:
            if not fig.ok:
                bad = [(ph, p, round(got, 1), want)
                       for ph, p, got, want, ok in fig.deviations() if not ok]
                problems.append(f"{fig.figure}: outside tolerance {bad}")

    # (c) conservation from outside.
    for fig, cap, offered in zip(out.figures, out.capacity_s, out.offered):
        served = served_requests(fig)
        if served > cap + 1.0:
            problems.append(
                f"{fig.figure}: served {served:.0f} > capacity x duration {cap:.0f}")
        if served > offered + 6.0 * math.sqrt(offered) + 1.0:
            problems.append(
                f"{fig.figure}: served {served:.0f} > offered {offered:.0f}")

    f = out.facts
    if name == "mega_columnar":
        if f["lane"] != "columnar" or f["lane_fallback"] is not None:
            problems.append(
                f"lane {f['lane']!r}, fell back: {f['lane_fallback']!r}")
        if f["columnar_requests"] != f["issued"]:
            problems.append(
                f"columnar engine carried {f['columnar_requests']} of "
                f"{f['issued']} issued requests")
        if f["completed"] > f["issued"]:
            problems.append(f"completed {f['completed']} > issued {f['issued']}")
    elif name == "sharded_2":
        if f["shards"] != SHARD_WORKERS or f["data_plane"] != "shm":
            problems.append(
                f"ran shards={f['shards']} on the {f['data_plane']!r} plane "
                f"({f['transport_fallback']})")
        if f["restarts"] or f["reassignments"]:
            problems.append(
                f"{f['restarts']} restarts, {f['reassignments']} reassignments")
        # Window 0 has no global view yet and always runs the conservative
        # split; any further fallback window means the plane went stale.
        if f["fallback_windows"] > 1:
            problems.append(f"{f['fallback_windows']} fallback windows")
        if f["admitted"] > f["demand"]:
            problems.append(f"admitted {f['admitted']:.0f} > demand {f['demand']:.0f}")
    return problems

