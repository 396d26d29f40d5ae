"""One workload in one fresh process: set up, time one call, check, report.

Started by ``run.py`` (never concurrently with another worker).  Prints one
JSON object as the last line of stdout.  One timed call per process, always:
a second call in the same process runs on a grown heap and reads several
percent slower, which would make the median depend on the call count.  Set-up is everything from process
start to ready-to-time: importing the entry points and a discarded 1/50-scale
warm-up of the same entry points.  Worker spawn and shm creation of
``sharded_2`` are inside ``run_sharded``, hence inside the timed call.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple


def _peak_rss_mb() -> float:
    """Max resident set of this process and of its reaped children, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0          # Linux reports KiB


def _timed_call(name: str, scale: float, seed: int, paper_rates: bool,
                warm_problem: Optional[str]) -> Tuple[Dict[str, Any], Any]:
    """One timed call: (record for the report, Outcome or None if it raised)."""
    from check import check
    from workloads import WORKLOADS

    try:
        out = WORKLOADS[name](scale, seed)
    except Exception:                        # a raised run is a failed run
        return {"problems": [traceback.format_exc(limit=8)]}, None
    problems = check(name, out, paper_rates=paper_rates)
    if warm_problem:
        problems.append(warm_problem)
    digest = out.output_digest()
    devs = out.paper_deviations()
    return {
        "wall_s": out.wall_s(),
        "served": out.served(),
        # The worst row (the number a reader of the paper would quote) and
        # the fit over all rows (steadier across seeds, so it is the one
        # BENCHMARK.json bounds).
        "paper_dev_pct": 100.0 * max(devs),
        "paper_match_pct": 100.0 - 100.0 * sum(devs) / len(devs),
        "output_digest": digest,
        "digest_s": out.digest_s,
        "problems": problems,
    }, out


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--ref-wall", type=float, default=None,
                    help="untraced wall to compute trace overhead against; "
                         "measured here when not given")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    spawned = float(os.environ["E2E_SPAWNED_AT"])     # time.monotonic() of parent
    from workloads import sharded_inline, warm_up

    warm_problem = warm_up(args.workload, args.seed)
    setup_s = time.monotonic() - spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    name, scale, seed = args.workload, args.scale, args.seed
    # Below half scale the phases are too short for the paper's steady rates.
    paper_rates = scale >= 0.5
    report: Dict[str, Any] = {"workload": name, "setup_s": setup_s}

    if not args.trace:
        report["call"] = _timed_call(name, scale, seed, paper_rates, warm_problem)[0]
    else:
        ref_wall = args.ref_wall
        if ref_wall is None:
            ref_wall = _timed_call(name, scale, seed, paper_rates, None)[0].get("wall_s")
        from tracing import Tracer          # untraced runs never import this

        tracer = Tracer().install()
        try:
            call, out = _timed_call(name, scale, seed, paper_rates, warm_problem)
        finally:
            tracer.uninstall()
        report["call"] = call
        if out is not None:
            layer = tracer.layer_metrics(out.entry_marks)
            layer.update(out.layer)
            layer["analysis.digest_s"] = call["digest_s"]
            layer["experiments.cores"] = float(len(os.sched_getaffinity(0)))
            if ref_wall:
                layer["trace_overhead_pct"] = 100.0 * (call["wall_s"] / ref_wall - 1.0)
            if name == "sharded_2":
                inline = sharded_inline(scale, seed)
                layer["experiments.sharded_inline_wall_s"] = inline.wall_s()
                # Meaningless on one core: report the counts, omit the ratio.
                if layer["experiments.cores"] > 1 and ref_wall:
                    layer["experiments.shard_speedup_x"] = inline.wall_s() / ref_wall
                if inline.digest_parts != out.digest_parts:
                    call["problems"].append("shards=1 digest differs from shards=2")
            report["per_layer"] = layer
            report["profile"] = tracer.table(call["wall_s"])
            report["spans"] = {"seed": seed, "scale": scale,
                               "wall_s": call["wall_s"],
                               "spans": tracer.spans_json(),
                               "outcomes": tracer.outcomes,
                               "counts": tracer.counts}

    report["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
