"""Whole-program lint engine: parse every file once, run both rule
layers, apply suppressions, print.

The flow per invocation::

    paths -> iter_python_files -> parse each file once
          -> per-file rules + fact extraction
          -> ProjectIR over all facts -> cross-module rules (SIM008/SIM009)
          -> per-line suppressions -> sorted findings

Every finding list is sorted on ``(path, line, col, code)``, so the
output depends on the files' contents alone.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, TextIO, Tuple

from simlint.ir import ModuleFacts, ProjectIR, collect_facts
from simlint.local import (
    Violation,
    filter_suppressed,
    lint_tree,
    suppressions_for,
)
from simlint.output import format_text
from simlint.project import project_violations

__all__ = ["analyze_source", "iter_python_files", "lint_files", "lint_paths", "run"]


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths.

    A path that exists as neither file nor directory is a usage error
    (``ValueError`` — the CLI maps it to exit status 2).
    """
    seen: List[str] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            seen.extend(str(f) for f in path.rglob("*.py"))
        elif path.is_file():
            seen.append(str(path))
        else:
            raise ValueError(f"no such file or directory: {p}")
    yield from sorted(dict.fromkeys(seen))


def analyze_source(
    source: str, path: str = "<string>"
) -> Tuple[ModuleFacts, List[Violation]]:
    """Parse once; return (facts for the project rules, per-file findings).

    The findings are *unfiltered* — suppression comments are recorded in
    ``facts.suppressions`` and applied by the caller, so project-rule
    findings share the same disable machinery.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from exc
    suppressions = suppressions_for(source)
    facts = collect_facts(tree, path, suppressions=suppressions)
    return facts, lint_tree(tree, path=path)


def lint_files(files: Sequence[str]) -> List[Violation]:
    """Per-file and cross-module findings for ``files``, suppressions applied."""
    analyzed = [
        analyze_source(Path(path).read_bytes().decode("utf-8"), path=path)
        for path in files
    ]
    cross_by_path: Dict[str, List[Violation]] = {}
    for v in project_violations(ProjectIR([facts for facts, _ in analyzed])):
        cross_by_path.setdefault(v.path, []).append(v)
    violations: List[Violation] = []
    for facts, local in analyzed:
        merged = local + cross_by_path.get(facts.path, [])
        violations.extend(filter_suppressed(merged, facts.suppressions))
    violations.sort(key=Violation.sort_key)
    return violations


def lint_paths(paths: Sequence[str]) -> List[Violation]:
    """Whole-program lint of every ``.py`` file under ``paths``."""
    return lint_files(list(iter_python_files(paths)))


def run(paths: Sequence[str], stream: Optional[TextIO] = None) -> int:
    """Lint ``paths`` and print the findings.  Returns the exit status.

    Exit codes: 0 clean, 1 findings; usage errors raise ``ValueError``
    for the CLI to map to 2.
    """
    out: TextIO = stream if stream is not None else sys.stdout
    files = list(iter_python_files(paths))
    violations = lint_files(files)
    print(format_text(violations), file=out)
    print(f"simlint: {len(files)} file(s), {len(violations)} finding(s)",
          file=out)
    return 1 if violations else 0
