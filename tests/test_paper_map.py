"""Census: every simulator module is named in docs/PAPER_MAP.md.

A module is named when its path relative to ``src/repro`` (for example
``l4/switch.py``) appears in the map, either beside the paper claim it
reproduces or in the "Support modules" table.
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PKG = REPO / "src" / "repro"


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
