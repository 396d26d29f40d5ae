"""The finding formatter: one human-readable line per finding."""

from __future__ import annotations

from typing import Dict, List

from simlint.local import Violation

__all__ = ["format_text"]


def format_text(violations: List[Violation]) -> str:
    """One ``path:line:col: CODE message`` line per finding + a summary."""
    lines = [v.format() for v in violations]
    if violations:
        counts: Dict[str, int] = {}
        for v in violations:
            counts[v.code] = counts.get(v.code, 0) + 1
        summary = ", ".join(f"{c}×{counts[c]}" for c in sorted(counts))
        lines.append(f"simlint: {len(violations)} violation(s) ({summary})")
    else:
        lines.append("simlint: clean")
    return "\n".join(lines)
