"""Text rendering of experiment results (the tables in EXPERIMENTS.md)."""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.experiments.figures import ALL_FIGURES, Fig1Result, Fig3Result
from repro.experiments.harness import FigureResult

__all__ = ["render_result", "render_all"]


def _render_figure(result: FigureResult) -> str:
    lines = [f"## {result.figure} — {result.title}", ""]
    lines.append("| phase | principal | measured (req/s) | paper | within tolerance |")
    lines.append("|---|---|---:|---:|---|")
    for phase, principal, got, want, ok in result.deviations():
        lines.append(
            f"| {phase} | {principal} | {got:.1f} | {want:.1f} | {'yes' if ok else 'NO'} |"
        )
    if result.notes:
        lines += ["", f"*{result.notes}*"]
    lines += ["", f"**shape reproduced: {'yes' if result.ok else 'NO'}**", ""]
    return "\n".join(lines)


def _render_fig1(result: Fig1Result) -> str:
    lines = [
        "## fig1 — motivating example: end-point vs coordinated enforcement", "",
        "| strategy | A (req/s) | B (req/s) | paper |",
        "|---|---:|---:|---|",
        f"| end-point (baseline) | {result.endpoint['A']:.1f} | "
        f"{result.endpoint['B']:.1f} | (30, 70) — SLA violated |",
        f"| coordinated | {result.coordinated['A']:.1f} | "
        f"{result.coordinated['B']:.1f} | (20, 80) — SLA respected |",
        "", f"**shape reproduced: {'yes' if result.ok else 'NO'}**", "",
    ]
    return "\n".join(lines)


def _render_fig3(result: Fig3Result) -> str:
    lines = [
        "## fig3 — ticket/currency valuation worked example", "",
        "| principal | final (mandatory, optional) | paper |",
        "|---|---|---|",
    ]
    for p, (m, o) in sorted(result.finals.items()):
        em, eo = result.expected_finals[p]
        lines.append(f"| {p} | ({m:.0f}, {o:.0f}) | ({em:.0f}, {eo:.0f}) |")
    lines += ["", "| ticket | real value | paper |", "|---|---:|---:|"]
    for t, v in result.tickets.items():
        lines.append(f"| {t} | {v:.0f} | {result.expected_tickets[t]:.0f} |")
    lines += ["", f"**reproduced exactly: {'yes' if result.ok else 'NO'}**", ""]
    return "\n".join(lines)


def render_result(result) -> str:
    """Render any figure result to markdown."""
    if isinstance(result, FigureResult):
        return _render_figure(result)
    if isinstance(result, Fig1Result):
        return _render_fig1(result)
    if isinstance(result, Fig3Result):
        return _render_fig3(result)
    raise TypeError(f"unknown result type {type(result)!r}")


def render_all(
    duration_scale: float = 1.0,
    figures: Optional[Iterable[str]] = None,
    seed: int = 0,
) -> str:
    """Run every requested figure (default: all of ``ALL_FIGURES``) and
    render one combined report."""
    parts: List[str] = ["# Experiment report (paper vs measured)", ""]
    for name in ALL_FIGURES if figures is None else figures:
        if name == "fig1d":
            parts.append(
                "*(fig1d is Fig 1 as a full simulation: biased pass-through "
                "redirectors in front of independently enforcing servers, "
                "versus coordinated L7 redirectors — same demand, real "
                "clients and windows.)*\n"
            )
        result = ALL_FIGURES[name](duration_scale, seed)
        parts.append(render_result(result))
    return "\n".join(parts)
