#!/usr/bin/env python3
"""End-to-end benchmark of the enforcement loop.

Two ways in, one measurement underneath (``worker.py``, one fresh process
per workload, never two at once):

* the suite, for people::

      python benchmarks/e2e/run.py [--seed N] [--repeats 5] [--trace]
                                   [--out results.json] [--smoke]

  runs the four workloads in interleaved passes, prints every metric by name
  with its unit, checks correctness on every pass, and writes a results file
  that ``compare.py`` reads;

* one workload for one run, for the driver that reads ``BENCHMARK.json``::

      python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

  prints one JSON object as its last line.

This is a host-time benchmark of a deterministic simulator: host time may
move between commits, simulated statistics may not.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SMOKE_SCALE = 0.02
SETUP_SAMPLES = 3            # set-ups per driver run; their median is setup_s
WORKER_TIMEOUT_S = 150.0     # a timed pass that takes longer is a failed run


def load_contract() -> Dict[str, Any]:
    """BENCHMARK.json: the one place metric names, units and bounds live."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def fingerprint() -> Dict[str, Any]:
    """The machine a timing is valid on (ROADMAP "ledger v2")."""
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
        "loadavg_1m": os.getloadavg()[0],
    }


def spawn_worker(workload: str, seed: int, scale: float, *, trace: bool = False,
                 setup_only: bool = False,
                 ref_wall: Optional[float] = None) -> Dict[str, Any]:
    """Run one worker process to completion and return its report.

    A worker that exits non-zero, prints no report or runs past the timeout
    yields ``{"call": {"problems": [...]}}`` — one failed run.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--scale", repr(scale),
           "--trace", "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    if ref_wall is not None:
        cmd += ["--ref-wall", repr(ref_wall)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["E2E_SPAWNED_AT"] = repr(time.monotonic())
    # Own session, so a timed-out sharded_2 takes its shard workers with it.
    proc = subprocess.Popen(cmd, env=env, cwd=str(ROOT), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"call": {"problems": [f"timed out after {WORKER_TIMEOUT_S:.0f} s"]}}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"call": {"problems": [
            f"worker exit {proc.returncode}: {err.strip()[-2000:]}"]}}
    return json.loads(lines[-1])


def digest_problems(calls: List[Dict[str, Any]]) -> List[str]:
    """(b): the output digest is identical across all passes of one seed."""
    digests = sorted({c["output_digest"] for c in calls if "output_digest" in c})
    if len(digests) > 1:
        return [f"output_digest differs between passes: {[d[:12] for d in digests]}"]
    return []


def collect(reports: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold single-call worker reports into samples, counts and problems."""
    calls = [r["call"] for r in reports]
    good = [r for r in reports if not r["call"]["problems"]]
    samples: Dict[str, List[float]] = {}
    for r in good:
        call = r["call"]
        row = {
            "wall_s": call["wall_s"],
            "sim_req_per_s": call["served"] / call["wall_s"],
            "setup_s": r["setup_s"],
            "peak_rss_mb": r["peak_rss_mb"],
            "paper_match_pct": call["paper_match_pct"],
            "paper_dev_pct": call["paper_dev_pct"],
        }
        for k, v in row.items():
            samples.setdefault(k, []).append(v)
    problems = [p for c in calls for p in c["problems"]] + digest_problems(calls)
    return {
        "runs_attempted": len(calls),
        "failed_runs": len(calls) - len(good),
        "correct": not problems,
        "problems": problems,
        "output_digest": next((c["output_digest"] for c in calls
                               if "output_digest" in c), None),
        "samples": samples,
    }


# -- one workload, one run (the BENCHMARK.json driver) -------------------------

def driver_run(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    scale = SMOKE_SCALE if args.smoke else 1.0
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    if args.trace:
        report = spawn_worker(args.workload, args.seed, scale, trace=True)
        entry = collect([report])
        print(report.get("profile", ""))
        values = report.get("per_layer", {})
        declared = contract["per_layer"]
    else:
        # One timed call per fresh process, until 3/4 of the run's seconds
        # are measured; a failed run ends the loop.
        reports, measured = [], 0.0
        while measured < 0.75 * seconds or not reports:
            reports.append(spawn_worker(args.workload, args.seed, scale))
            measured += reports[-1]["call"].get("wall_s", seconds)
        entry = collect(reports)
        samples = entry["samples"]
        while 0 < len(samples.get("setup_s", ())) < SETUP_SAMPLES:
            extra = spawn_worker(args.workload, args.seed, scale, setup_only=True)
            samples["setup_s"].append(extra["setup_s"])
        values = {k: statistics.median(v) for k, v in samples.items()}
        declared = contract["end_to_end"]
    for p in entry["problems"]:
        print(f"PROBLEM {args.workload}: {p}", file=sys.stderr)
    if not entry["samples"]:
        return 1                     # nothing measured: no result line
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": entry["correct"],
                      "attempted": entry["runs_attempted"],
                      "failed": entry["failed_runs"], "metrics": metrics}))
    return 0


# -- the suite ------------------------------------------------------------------

def suite(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    scale = SMOKE_SCALE if args.smoke else 1.0
    repeats = args.repeats if args.repeats is not None else (1 if args.smoke else 5)
    names = [w["name"] for w in contract["workloads"]]
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    units["paper_dev_pct"] = "%"
    results: Dict[str, Any] = {
        "schema": 1, "seed": args.seed, "repeats": repeats, "scale": scale,
        "claim": None, "fingerprint": fingerprint(), "workloads": {},
    }
    reports: Dict[str, List[Dict[str, Any]]] = {n: [] for n in names}
    # Interleaved passes: machine drift hits all workloads alike.
    for i in range(repeats):
        for name in names:
            print(f"pass {i + 1}/{repeats}  {name} ...", file=sys.stderr, flush=True)
            reports[name].append(spawn_worker(name, args.seed, scale))

    spans = {}
    for name in names:
        entry = collect(reports[name])
        entry["metrics"] = {
            k: {"median": statistics.median(v), "min": min(v), "max": max(v),
                "n": len(v), "unit": units[k]}
            for k, v in entry["samples"].items()}
        if args.trace and entry["samples"]:
            print(f"traced pass  {name} ...", file=sys.stderr, flush=True)
            traced = spawn_worker(name, args.seed, scale, trace=True,
                                  ref_wall=statistics.median(entry["samples"]["wall_s"]))
            entry["problems"] += traced["call"]["problems"]
            if traced["call"].get("output_digest") != entry["output_digest"]:
                entry["problems"].append("traced pass: output_digest differs")
            entry["correct"] = not entry["problems"]
            entry["per_layer"] = {
                m["name"]: float(traced.get("per_layer", {}).get(m["name"], 0.0))
                for m in contract["per_layer"]}
            entry["profile"] = traced.get("profile", "")
            spans[name] = traced.get("spans")
        results["workloads"][name] = entry
        print_workload(name, entry, units)

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)
        if args.trace:
            with open(f"{args.out}.trace.json", "w") as fh:
                json.dump(spans, fh, indent=1)
    return 0 if all(e["correct"] for e in results["workloads"].values()) else 1


def print_workload(name: str, entry: Dict[str, Any], units: Dict[str, str]) -> None:
    ok = entry["runs_attempted"] - entry["failed_runs"]
    digest = entry["output_digest"] or "-"
    print(f"\n== {name}: {ok} of {entry['runs_attempted']} runs correct "
          f"(failed_runs {entry['failed_runs']} of runs_attempted "
          f"{entry['runs_attempted']}), output_digest {digest}")
    for p in entry["problems"]:
        print(f"   PROBLEM: {p}")
    for k, m in entry["metrics"].items():
        print(f"   {k:<18}{m['median']:>16.4f} {m['unit']:<6} "
              f"min {m['min']:.4f}  max {m['max']:.4f}  n={m['n']}")
    if entry["metrics"]:
        n = entry["runs_attempted"]
        print(f"   (medians of {n} passes; with {n} samples no percentile above "
              "the median is reported)")
    if "per_layer" in entry:
        print("   -- per layer (one traced pass) --")
        for k, v in entry["per_layer"].items():
            digits = 0 if units[k] in ("count", "B") else 6
            print(f"   {k:<38}{v:>18.{digits}f} {units[k]}")
        print("\n".join("   " + line for line in entry["profile"].splitlines()))


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=None,
                    help="timed passes per workload (default 5, not below 3 "
                         "for a number you mean to compare)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    help="add one traced pass per workload (per-layer metrics)")
    ap.add_argument("--out", default=None, help="write results JSON here")
    ap.add_argument("--smoke", action="store_true",
                    help="all four workloads at 1/50 scale (harness self-test)")
    ap.add_argument("--workload", default=None,
                    help="driver mode: run this one workload once")
    ap.add_argument("--seconds", type=float, default=None,
                    help="driver mode: how long one run measures "
                         "(default: BENCHMARK.json's run_seconds)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'} not found: the benchmark measures the "
              "program in this checkout and has nothing to run", file=sys.stderr)
        return 2
    contract = load_contract()
    if args.workload is not None:
        return driver_run(args, contract)
    return suite(args, contract)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
