"""Census: every simulator module is named in docs/PAPER_MAP.md, and every
path the map and DESIGN.md's figure and ablation tables cite exists.

A module is named when its path relative to ``src/repro`` (for example
``l4/switch.py``) appears in the map, either beside the paper claim it
reproduces or in the "Support modules" table.
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PKG = REPO / "src" / "repro"

# A backticked file or directory, optionally followed by a pytest node id:
# `tests/l4/`, `l4/switch.py`, `tests/x/test_y.py::TestZ::test_w`.
CITED_PATH = re.compile(r"`([\w./-]+(?:\.py|\.md|/))((?:::\w+)*)`")


def _missing_citations(text):
    """Cited paths that exist neither under the repo root nor under
    ``src/repro``, and node ids naming a class or test the file lacks."""
    missing = []
    for path, node in CITED_PATH.findall(text):
        target = next(
            (base / path for base in (REPO, PKG) if (base / path).exists()),
            None,
        )
        if target is None:
            missing.append(path)
        elif node:
            source = target.read_text(encoding="utf-8")
            if not all(
                re.search(rf"^\s*(?:def|class) {name}\b", source, re.M)
                for name in node.split("::")[1:]
            ):
                missing.append(path + node)
    return missing


def test_every_module_is_named_in_the_paper_map():
    text = (REPO / "docs" / "PAPER_MAP.md").read_text(encoding="utf-8")
    missing = []
    for path in sorted(PKG.rglob("*.py")):
        if path.name in ("__init__.py", "__main__.py"):
            continue
        rel = path.relative_to(PKG).as_posix()
        if not re.search(rf"(?<![\w/]){re.escape(rel)}(?!\w)", text):
            missing.append(rel)
    assert missing == [], f"not in docs/PAPER_MAP.md: {missing}"


def test_paper_map_cites_only_existing_paths():
    text = (REPO / "docs" / "PAPER_MAP.md").read_text(encoding="utf-8")
    assert _missing_citations(text) == []


def test_design_experiment_tables_cite_only_existing_paths():
    text = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    section = re.search(
        r"^## 3\. Experiment index[^\n]*\n(.*?)^### Extension modules", text,
        re.M | re.S,
    )
    assert section is not None, "DESIGN.md lost its experiment index"
    assert CITED_PATH.search(section.group(1)), "no validation cited"
    assert _missing_citations(section.group(1)) == []
