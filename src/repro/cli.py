"""Command-line interface.

::

    python -m repro figures [--scale 0.3] [--seed 0] [--only fig6,fig9]
    python -m repro report  [--scale 0.5] [-o EXPERIMENTS.md]
    python -m repro inspect A:1000 B:1500 C A-B:0.4:0.6 B-C:0.6:1.0
    python -m repro baseline [--duration 20]
    python -m repro check   [--scenario fig6 [--scenario fig9 ...]] [--runs 2]
    python -m repro chaos   [--random N | --plan plan.json] [--replay 2]

``figures`` reruns the paper's evaluation and prints pass/fail per figure;
``report`` renders the full paper-vs-measured markdown; ``inspect`` values
an agreement graph given on the command line; ``baseline`` compares
coordinated enforcement against a WRR front end; ``check`` replays one
or more scenarios and compares trace digests, with
the runtime invariant checker on the final run — for the §5 figures it
also diffs the columnar lane against the slotted oracle — and
``check --shards N`` instead proves the sharded lane's window-epoch
barrier parity (``shards=1`` vs ``shards=N`` digests on the sharded
worlds; a
``shards=N`` run that fell back inline for want of shared memory reads
DIVERGED, never vacuously IDENTICAL), and ``--with-crashes`` additionally kills workers mid-run (exception and
SIGKILL deaths, plus a forced shard retirement) and requires the
recovered digests to match bit-for-bit;
``chaos`` injects faults (the canonical coordination partition, a seeded
random plan, or a JSON plan file) into the fault-matrix world and reports
degradation and recovery (see docs/FAULTS.md); ``chaos --shards R`` runs
the crash-recovery matrix on the sharded execution lane instead (a plan
with ``revoke_shard`` events, or the canonical exc+kill matrix), exit
0 parity held / 1 diverged / 2 invalid plan.

The static determinism lint is not a subcommand: it is the stand-alone
``tools/simlint`` package, run as ``PYTHONPATH=tools python -m simlint``
(see docs/DETERMINISM.md §2).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core.agreements import Agreement, AgreementGraph
from repro.core.valuation import value_currencies
from repro.core.access import compute_access_levels

__all__ = ["main", "build_parser", "parse_graph_spec"]


def build_parser() -> argparse.ArgumentParser:
    # Figure names are checked against the world registry when a command
    # runs (_check_figure_names), so building the parser imports no
    # experiment module.
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Enforcing Resource Sharing Agreements "
                    "among Distributed Server Clusters' (IPDPS 2002)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figures", help="rerun the paper's figures")
    p_fig.add_argument("--scale", type=float, default=0.3,
                       help="phase-duration scale (1.0 = paper timeline)")
    p_fig.add_argument("--seed", type=int, default=0)
    p_fig.add_argument("--only", type=str, default="",
                       help="comma-separated figure ids (default: all)")
    p_fig.add_argument("--plot", action="store_true",
                       help="render each figure's rate series as a terminal chart")
    p_fig.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the figure batch "
                            "(results are independent of this)")
    p_fig.add_argument("--check-invariants", action="store_true",
                       help="enable the runtime conservation checker "
                            "(equivalent to REPRO_CHECK=1; traces stay "
                            "bit-identical, violations raise)")

    p_rep = sub.add_parser("report", help="render the paper-vs-measured report")
    p_rep.add_argument("--scale", type=float, default=0.5)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("-o", "--output", type=str, default="",
                       help="write to a file instead of stdout")

    p_ins = sub.add_parser(
        "inspect", help="value an agreement graph (CLI spec or JSON file)"
    )
    p_ins.add_argument(
        "spec", nargs="*",
        help="principals as NAME[:CAPACITY], agreements as FROM-TO:LB[:UB]",
    )
    p_ins.add_argument("--file", type=str, default="",
                       help="load the graph from a JSON file instead")
    p_ins.add_argument("--save", type=str, default="",
                       help="also write the graph to this JSON file")

    p_base = sub.add_parser("baseline", help="coordinated vs WRR comparison")
    p_base.add_argument("--duration", type=float, default=20.0)
    p_base.add_argument("--seed", type=int, default=0)

    p_chk = sub.add_parser(
        "check", help="replay-determinism harness with runtime invariants"
    )
    p_chk.add_argument("--scenario", type=str, action="append", default=None,
                       help="scenario to replay, a §5 figure or "
                            "faultmatrix; repeatable (default: fig6). "
                            "The L7 figures cover the full stack, the L4 "
                            "ones the switch; faultmatrix adds fault "
                            "injection, failure detection and tree healing; "
                            "the figure scenarios also diff the columnar "
                            "lane against the slotted oracle")
    p_chk.add_argument("--scale", type=float, default=0.05,
                       help="phase-duration scale for each replay run")
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--runs", type=int, default=2,
                       help="plain runs to compare before the checked run")
    p_chk.add_argument("--check-invariants", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="add a final run with the runtime invariant "
                            "checker on; its digest must match too")
    p_chk.add_argument("--shards", type=int, default=0, metavar="R",
                       help="shard-parity mode: run each scenario's sharded "
                            "world with shards=1 and shards=R and require "
                            "bit-identical digests (sharded figures only; "
                            "skips the ordinary replay diff)")
    p_chk.add_argument("--with-crashes", action="store_true",
                       help="with --shards: also run the crash-recovery "
                            "paths — worker deaths (exception and SIGKILL "
                            "at two distinct epochs) recovered by respawn, "
                            "and a forced shard retirement recovered by "
                            "reassignment — all digest-identical")

    p_chaos = sub.add_parser(
        "chaos", help="fault injection: partition/heal matrix or a custom plan"
    )
    p_chaos.add_argument("--scale", type=float, default=0.4,
                         help="phase-duration scale for the fault-matrix world")
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--plan", type=str, default="",
                         help="JSON fault plan to inject instead of the "
                              "canonical coordination partition")
    p_chaos.add_argument("--random", type=int, default=0, metavar="N",
                         help="inject N seeded random faults instead of "
                              "the canonical partition")
    p_chaos.add_argument("--save-plan", type=str, default="",
                         help="write the executed plan (JSON) to this file")
    p_chaos.add_argument("--replay", type=int, default=0, metavar="RUNS",
                         help="also rerun the faulted scenario RUNS times "
                              "and require identical SHA-256 digests")
    p_chaos.add_argument("--check-invariants", action="store_true",
                         help="run with the runtime invariant checker on "
                              "(includes the post-heal liveness ledger)")
    p_chaos.add_argument("--plot", action="store_true",
                         help="render the A/B rate series as a terminal chart")
    p_chaos.add_argument("--shards", type=int, default=0, metavar="R",
                         help="crash-recovery mode: drive the sharded "
                              "execution lane with R shards through worker "
                              "deaths (a --plan with revoke_shard events, or "
                              "the canonical exc+SIGKILL matrix) and require "
                              "digest parity with the unfaulted shards=1 run")
    p_chaos.add_argument("--figure", type=str, default="fig6",
                         help="sharded figure for --shards mode")
    return parser


def parse_graph_spec(tokens: List[str]) -> AgreementGraph:
    """Build a graph from CLI tokens.

    ``A:1000`` declares principal A with 1000 units/s (``A`` alone means
    zero capacity); ``A-B:0.4:0.6`` is an agreement A->B [0.4, 0.6]
    (``A-B:0.4`` means [0.4, 0.4]).
    """
    g = AgreementGraph()
    agreements = []
    for tok in tokens:
        head = tok.split(":", 1)[0]
        if "-" in head:
            parts = tok.split(":")
            endpoints = parts[0].split("-")
            if len(endpoints) != 2 or len(parts) not in (2, 3):
                raise ValueError(f"malformed agreement {tok!r}")
            lb = float(parts[1])
            ub = float(parts[2]) if len(parts) == 3 else lb
            agreements.append((endpoints[0], endpoints[1], lb, ub))
        else:
            parts = tok.split(":")
            if len(parts) > 2:
                raise ValueError(f"malformed principal {tok!r}")
            capacity = float(parts[1]) if len(parts) == 2 else 0.0
            g.add_principal(parts[0], capacity=capacity)
    for grantor, grantee, lb, ub in agreements:
        g.add_agreement(Agreement(grantor, grantee, lb, ub))
    return g


def _cmd_figures(args) -> int:
    from repro.experiments.figures import ALL_FIGURES
    from repro.experiments.parallel import run_figures_parallel

    wanted = [f.strip() for f in args.only.split(",") if f.strip()] or list(ALL_FIGURES)
    # The checker is switched on by environment (not a kwarg) so forked
    # pool workers inherit it, and only for this batch.
    saved = os.environ.get("REPRO_CHECK")
    if getattr(args, "check_invariants", False):
        os.environ["REPRO_CHECK"] = "1"
    try:
        results = dict(run_figures_parallel(
            [n for n in wanted if n in ALL_FIGURES], scale=args.scale,
            seed=args.seed, jobs=max(1, getattr(args, "jobs", 1)),
        ))
    finally:
        if saved is None:
            os.environ.pop("REPRO_CHECK", None)
        else:
            os.environ["REPRO_CHECK"] = saved
    failures = 0
    for name in wanted:
        result = results.get(name)
        if result is None:
            print(f"{name}: unknown figure (have {', '.join(ALL_FIGURES)})")
            failures += 1
            continue
        status = "ok" if result.ok else "FAILED"
        print(f"{name}: {status}")
        if not result.ok and hasattr(result, "deviations"):
            for phase, principal, got, want, ok in result.deviations():
                if not ok:
                    print(f"    {phase}/{principal}: measured {got:.1f}, "
                          f"paper {want:.1f}")
        if args.plot and getattr(result, "series", None):
            from repro.experiments.ascii import timeseries_plot

            print(timeseries_plot(result.series, title=f"  {result.title}"))
        failures += 0 if result.ok else 1
    return 1 if failures else 0


def _cmd_report(args) -> int:
    from repro.experiments.report import render_all

    text = render_all(duration_scale=args.scale, seed=args.seed)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_inspect(args) -> int:
    from repro.core.serialization import dump_graph, load_graph

    if args.file:
        if args.spec:
            raise ValueError("give either a CLI spec or --file, not both")
        g = load_graph(args.file)
    elif args.spec:
        g = parse_graph_spec(args.spec)
    else:
        raise ValueError("need a graph: CLI spec tokens or --file")
    if args.save:
        dump_graph(g, args.save)
        print(f"wrote {args.save}\n")
    val = value_currencies(g)
    access = compute_access_levels(g)
    print(f"{'principal':>12} | {'capacity':>9} | {'mandatory':>9} | {'optional':>9}")
    for name in g.names:
        m, o = val.final(name)
        print(f"{name:>12} | {g.principal(name).capacity:9.1f} | {m:9.1f} | {o:9.1f}")
    print("\nper-pair mandatory entitlements (holder on owner's servers):")
    for holder in g.names:
        for owner in g.names:
            mi, oi = access.entitlement(holder, owner)
            if mi > 1e-9 or oi > 1e-9:
                print(f"  {holder} on {owner}: mandatory {mi:.1f}, optional {oi:.1f}")
    return 0


def _cmd_baseline(args) -> int:
    from repro.experiments.baselines import run_enforcement_comparison

    cmp = run_enforcement_comparison(duration=args.duration, seed=args.seed)
    print(f"{'strategy':>12} | {'A req/s':>8} | {'B req/s':>8}")
    print(f"{'coordinated':>12} | {cmp.coordinated['A']:8.1f} | {cmp.coordinated['B']:8.1f}")
    print(f"{'wrr':>12} | {cmp.passthrough['A']:8.1f} | {cmp.passthrough['B']:8.1f}")
    floor = min(cmp.demands["B"], cmp.guarantees["B"])
    print(f"\nB's effective guarantee: {floor:.0f} req/s — "
          f"{'violated by WRR' if cmp.passthrough_violates else 'met by both'}")
    return 0


def _cmd_check(args) -> int:
    from repro.analysis.replay import (
        chaos_replay, columnar_replay, figure_replay, sharded_replay,
    )

    scenarios = args.scenario or ["fig6"]
    failures = 0
    if getattr(args, "shards", 0):
        # Shard-parity mode: prove the window-epoch barrier moves no bits.
        for scenario in scenarios:
            report = sharded_replay(
                figure=scenario, duration_scale=args.scale, seed=args.seed,
                shards=args.shards,
                with_crashes=getattr(args, "with_crashes", False),
            )
            print(report.render())
            failures += 0 if report.ok else 1
        return 1 if failures else 0
    replay_args = dict(
        duration_scale=args.scale, seed=args.seed, runs=args.runs,
        with_invariants=args.check_invariants,
    )
    for scenario in scenarios:
        if scenario == "faultmatrix":
            reports = [chaos_replay(**replay_args)]
        else:
            reports = [
                figure_replay(scenario, **replay_args),
                columnar_replay(figure=scenario, duration_scale=args.scale,
                                seed=args.seed),
            ]
        for report in reports:
            print(report.render())
            failures += 0 if report.ok else 1
    return 1 if failures else 0


def _chaos_plan(args):
    """Resolve the plan for ``repro chaos``: file, seeded random, or None."""
    from repro.experiments.faultmatrix import fault_matrix_world
    from repro.faults.plan import FaultPlan, random_plan
    from repro.sim.rng import RngStreams

    if args.plan and args.random:
        raise ValueError("give either --plan or --random, not both")
    if args.plan:
        with open(args.plan) as fh:
            return FaultPlan.from_json(fh.read())
    if args.random:
        # A dedicated substream: plan generation never perturbs the
        # scenario's own streams, so --random N is reproducible per seed.
        rng = RngStreams(args.seed).get("faults:plan")
        return random_plan(
            rng, duration=fault_matrix_world(args.scale).horizon,
            nodes=("R1", "R2", "__root__"), servers=("S",),
            links=(("R1", "__root__"), ("R2", "__root__")),
            n_faults=args.random, name=f"random-{args.seed}",
        )
    return None


def _cmd_chaos_sharded(args) -> int:
    """``chaos --shards R``: worker deaths on the sharded execution lane.

    With ``--plan`` the plan's ``revoke_shard`` events are bound to window
    epochs (a shard index out of range is a typed
    :class:`~repro.faults.plan.FaultPlanError`, surfaced by :func:`main`
    as exit 2); without one the canonical crash-recovery matrix runs.
    Either way the recovered run must reproduce the unfaulted ``shards=1``
    digest bit-for-bit: exit 0 on parity, 1 on divergence.
    """
    from repro.experiments.faultmatrix import (
        canonical_shard_plan, run_crash_recovery_matrix,
    )

    if args.random:
        raise ValueError(
            "--random drives the fault-matrix world; give --plan with "
            "revoke_shard events (or no plan for the canonical matrix) "
            "with --shards"
        )
    figure, replicas = args.figure, 4
    if args.plan:
        from repro.experiments.sharded import (
            SHARDED_WORLDS, run_sharded, shard_faults_from_plan,
        )
        from repro.faults.plan import FaultPlan

        with open(args.plan) as fh:
            plan = FaultPlan.from_json(fh.read())
        world = SHARDED_WORLDS[figure](
            duration_scale=args.scale, seed=args.seed, replicas=replicas,
        )
        bound = shard_faults_from_plan(
            plan, world.window, world.n_windows, args.shards,
        )
        print(f"plan {plan.name or '(unnamed)'}  events={len(plan.events)}  "
              f"digest={plan.digest()[:16]}")
        for shard, epoch, mode in bound:
            print(f"  shard {shard}: {mode} at epoch {epoch}")
        baseline = run_sharded(figure, duration_scale=args.scale,
                               seed=args.seed, shards=1, replicas=replicas)
        res = run_sharded(figure, duration_scale=args.scale, seed=args.seed,
                          shards=args.shards, replicas=replicas, faults=bound)
        match = res.digest() == baseline.digest()
        print(f"  restarts={len(res.restarts)} "
              f"reassignments={len(res.reassignments)}")
        print(f"  digest {'match' if match else 'MISMATCH'}: "
              f"{res.digest()[:16]} vs {baseline.digest()[:16]}")
        ok = match
    else:
        report = run_crash_recovery_matrix(
            figure=figure, duration_scale=args.scale, seed=args.seed,
            shards=args.shards, replicas=replicas,
        )
        e1, e2 = report["epochs"]
        print(f"crash-recovery matrix ({figure}, shards={args.shards}, "
              f"deaths at epochs {e1}/{e2}): "
              f"{'ok' if report['ok'] else 'FAILED'}")
        for name, cell in report["cells"].items():
            print(f"  {name:9s} {'ok' if cell['ok'] else 'FAILED':6s} "
                  f"digest={'match' if cell['match'] else 'MISMATCH'} "
                  f"restarts={cell['restarts']} "
                  f"reassignments={cell['reassignments']}")
        ok = report["ok"]
    if args.save_plan:
        executed = (plan if args.plan
                    else canonical_shard_plan(figure, args.scale, args.shards))
        with open(args.save_plan, "w") as fh:
            fh.write(executed.to_json() + "\n")
        print(f"wrote {args.save_plan}")
    return 0 if ok else 1


def _cmd_chaos(args) -> int:
    from repro.experiments.faultmatrix import (
        CONSERVATIVE_B, fault_matrix_world, run_fault_matrix,
    )

    if getattr(args, "shards", 0):
        return _cmd_chaos_sharded(args)
    plan = _chaos_plan(args)
    world = fault_matrix_world(args.scale, args.seed, plan)
    check = True if args.check_invariants else None
    failures = 0
    if plan is None:
        result = run_fault_matrix(
            duration_scale=args.scale, seed=args.seed, check_invariants=check,
        )
        print(f"fault matrix: {'ok' if result.ok else 'FAILED'}")
        print(f"  {result.notes}")
        for phase in result.phases:
            rates = "  ".join(f"{k}={v:7.1f}" for k, v in sorted(phase.rates.items()))
            print(f"  {phase.name:14s} {rates}")
        floor = result.phase("p2_partition").rates.get("B", 0.0)
        print(f"  B through partition: {floor:.1f} req/s "
              f"(conservative floor {CONSERVATIVE_B:.0f})")
        for ph, principal, got, want, ok in result.deviations():
            if not ok:
                print(f"  DEVIATION {ph}/{principal}: measured {got:.1f}, "
                      f"expected {want:.1f}")
        failures += 0 if result.ok else 1
        series = result.series
    else:
        print(f"plan {plan.name or '(unnamed)'}  "
              f"events={len(plan.events)}  digest={plan.digest()[:16]}")
        sc = world.scenario(check_invariants=check)
        for when, kind, target in sc.injector.log:
            print(f"  t={when:7.2f}  {kind:18s} {target}")
        stats = sc.phase_rates([("overall", 0.0, world.horizon)],
                               keys=["A", "B"], settle=3.0)[0]
        rates = "  ".join(f"{k}={v:7.1f}" for k, v in sorted(stats.rates.items()))
        print(f"  overall        {rates}")
        membership = sc.membership
        if membership is not None:
            print(f"  evictions={membership.reconfigurations} "
                  f"rejoins={membership.rejoins}")
        series = sc.series(["A", "B"])
    if args.save_plan:
        with open(args.save_plan, "w") as fh:
            fh.write(world.faults.to_json() + "\n")
        print(f"wrote {args.save_plan}")
    if args.replay:
        from repro.analysis.replay import chaos_replay

        report = chaos_replay(
            duration_scale=args.scale, seed=args.seed, runs=args.replay,
            with_invariants=bool(args.check_invariants), plan=plan,
        )
        print(report.render())
        failures += 0 if report.ok else 1
    if args.plot and series:
        from repro.experiments.ascii import timeseries_plot

        print(timeseries_plot(series, title="  fault matrix (A/B req/s)"))
    return 1 if failures else 0


def _check_figure_names(parser: argparse.ArgumentParser, args) -> None:
    """The argparse choices of ``check --scenario`` and ``chaos --figure``,
    read from the world registry only by the commands that take them: an
    unknown name is a usage error (exit 2), as any invalid choice is."""
    if args.command == "check":
        from repro.experiments.figures import WORLDS

        option, names, valid = "--scenario", args.scenario or [], [
            *WORLDS, "faultmatrix"]
    elif args.command == "chaos":
        from repro.experiments.sharded import SHARDED_WORLDS

        option, names, valid = "--figure", [args.figure], list(SHARDED_WORLDS)
    else:
        return
    for name in names:
        if name not in valid:
            parser.error(
                f"argument {option}: invalid choice: {name!r} "
                f"(choose from {', '.join(map(repr, valid))})")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_figure_names(parser, args)
    handlers = {
        "figures": _cmd_figures,
        "report": _cmd_report,
        "inspect": _cmd_inspect,
        "baseline": _cmd_baseline,
        "check": _cmd_check,
        "chaos": _cmd_chaos,
    }
    try:
        return handlers[args.command](args)
    except Exception as exc:  # surfaced as a message, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
