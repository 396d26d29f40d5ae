#!/usr/bin/env python3
"""Compare two results files of ``run.py --out``: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first of two sets of runs of one
commit), B the change.  For every workload and every end-to-end metric of
``BENCHMARK.json`` it prints both medians with min-max and sample count, the
ratio B/A, and a verdict under the metric's bound:

* ``regressed``  B's median is worse than A's by more than the bound;
* ``unresolved`` within the bound, but the run-to-run spread of A or B is
  wider than the bound, so "unchanged" cannot be claimed — unless every run
  of B reads better than every run of A (``better``);
* ``unchanged``  within the bound, spread within the bound.

Exit 1 on any ``regressed`` row, any ``output_digest`` difference, or any
increase in ``failed_runs``; 0 otherwise.  Different machine fingerprints
are refused without ``--force``: a median from one box says nothing about
another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any, Dict, List

from run import load_contract

FINGERPRINT_KEYS = ("cores", "python", "numpy", "scipy", "platform")
# Counts of host-side polling: they follow host timing, not the simulation.
HOST_COUNTS = ("coordination.barrier_polls", "coordination.plane_polls")


def spread(samples: List[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile range
    where there are enough samples for quartiles, else the full range."""
    med = statistics.median(samples)
    if len(samples) < 2 or med == 0:
        return 0.0
    if len(samples) >= 4:
        q = statistics.quantiles(samples, n=4)
        return (q[2] - q[0]) / abs(med)
    return (max(samples) - min(samples)) / abs(med)


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = (med_b - med_a) / med_a if better == "lower" else (med_a - med_b) / med_a
    if worse_by > bound:
        return "regressed"
    if max(spread(a), spread(b)) > bound:
        all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return "better" if all_better else "unresolved"
    return "unchanged"


def fmt(samples: List[float]) -> str:
    return (f"{statistics.median(samples):.4f} "
            f"({min(samples):.4f}-{max(samples):.4f}, n={len(samples)})")


def compare(a: Dict[str, Any], b: Dict[str, Any], contract: Dict[str, Any]) -> int:
    bad = 0
    for w in contract["workloads"]:
        name = w["name"]
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            print(f"\n== {name}: missing from {'A' if wa is None else 'B'}")
            bad += 1
            continue
        print(f"\n== {name}")
        for m in contract["end_to_end"]:
            sa, sb = wa["samples"].get(m["name"]), wb["samples"].get(m["name"])
            if not sa or not sb:
                print(f"   {m['name']:<16} no samples")
                bad += 1
                continue
            v = verdict(sa, sb, m["better"], m["bound"])
            bad += v == "regressed"
            ratio = statistics.median(sb) / statistics.median(sa)
            print(f"   {m['name']:<16}{m['unit']:<5} A {fmt(sa)}  B {fmt(sb)}  "
                  f"B/A {ratio:.4f}  bound {m['bound']:.0%} {m['better']:<6} -> {v}")
        da, db = wa["samples"].get("paper_dev_pct"), wb["samples"].get("paper_dev_pct")
        if da and db:
            print(f"   paper_dev_pct   %    A {fmt(da)}  B {fmt(db)}  (worst row; not bounded)")
        fa, fb = wa["failed_runs"], wb["failed_runs"]
        note = "  -> INCREASED" if fb > fa else ""
        print(f"   failed_runs      A {fa} of {wa['runs_attempted']}  "
              f"B {fb} of {wb['runs_attempted']}{note}")
        bad += fb > fa
        same = wa["output_digest"] == wb["output_digest"]
        print(f"   output_digest    A {str(wa['output_digest'])[:16]}  "
              f"B {str(wb['output_digest'])[:16]}  -> "
              f"{'identical' if same else 'DIFFERENT: simulated statistics changed'}")
        bad += not same
        ca, cb = wa.get("per_layer"), wb.get("per_layer")
        if ca and cb:
            moved = [k for k, unit in ((m["name"], m["unit"]) for m in contract["per_layer"])
                     if unit in ("count", "B") and k not in HOST_COUNTS
                     and ca.get(k) != cb.get(k)]
            print(f"   simulated counts -> "
                  f"{'repeat exactly' if not moved else 'differ: ' + ', '.join(moved)}")
    return 1 if bad else 0


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--force", action="store_true",
                    help="compare even though the machine fingerprints differ")
    args = ap.parse_args(argv)
    with open(args.a) as fh:
        a = json.load(fh)
    with open(args.b) as fh:
        b = json.load(fh)

    differing = [k for k in FINGERPRINT_KEYS
                 if a["fingerprint"].get(k) != b["fingerprint"].get(k)]
    for k in FINGERPRINT_KEYS + ("loadavg_1m",):
        print(f"{k:<12} A {a['fingerprint'].get(k)}   B {b['fingerprint'].get(k)}")
    if (a["seed"], a["scale"]) != (b["seed"], b["scale"]):
        print(f"seed/scale differ: A {a['seed']}/{a['scale']}  B {b['seed']}/{b['scale']}")
        differing.append("seed/scale")
    if differing and not args.force:
        print(f"refusing to compare: {', '.join(differing)} differ (--force to override)",
              file=sys.stderr)
        return 1
    return compare(a, b, load_contract())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
