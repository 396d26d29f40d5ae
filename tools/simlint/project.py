"""Cross-module rules SIM008 and SIM009, run on the :class:`ProjectIR`.

SIM008 — RNG substream label hygiene.  Every ``RngStreams.get``/``spawn``
label names an independent random substream; two *different* modules
acquiring the same label shape (f-string fields unified to ``{}``) share
one stream, so their draws interleave and adding a draw in one component
silently perturbs the other — the exact hazard class that breaks
``shards=1 ≡ shards=R`` parity.  Labels that cannot be resolved to a
static shape (even through one helper-call hop via the symbol table) are
flagged too: an unanalyzable label cannot be audited for collisions.

One sharing pattern is sanctioned: when *every* acquisition of a shape
funnels through the same canonical helper function (``link_stream_name``
style, resolved via the symbol table), the helper is the single audit
point and the sharing is explicit coordination, not an accident —
``membership`` healing a link deliberately continues the stream
``protocol`` created for it.  Two independent spellings (or two
different helpers) producing one shape are still collisions.

SIM009 — transitive worker impurity.  SIM007 flags a worker function
(``*_task``/``*_worker``/``*_main``) reading module-level mutable state
*directly*; SIM009 closes the gap by walking the call graph (bounded
transitive closure) from each worker: any reachable function — in any
module — that reads module-level mutable state makes the worker's result
depend on per-process module state, which forked/spawned workers do not
share.  The finding is anchored at the worker's first call-site hop so a
suppression sits next to the code that takes the risk.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from simlint.ir import (
    MAX_CLOSURE_DEPTH,
    CallSite,
    LabelUse,
    ModuleFacts,
    ProjectIR,
)
from simlint.local import Violation

__all__ = ["project_violations", "sim008_labels", "sim009_worker_impurity"]


def sim008_labels(ir: ProjectIR) -> List[Violation]:
    """Label collisions across modules + statically unresolvable labels."""
    out: List[Violation] = []
    # shape -> [(facts, use, origin)]; origin is the module for inline
    # labels, the resolved helper symbol for helper-produced ones.
    by_shape: Dict[str, List[Tuple[ModuleFacts, LabelUse, str]]] = {}
    for facts in ir.modules:
        for use in facts.labels:
            shape, origin = ir.resolve_label(facts, use)
            if shape is None:
                hint = (f" (helper `{use.call}` has no static string "
                        "return)" if use.call is not None else "")
                out.append(Violation(
                    path=facts.path, line=use.line, col=use.col,
                    code="SIM008",
                    message=(f"substream label passed to .{use.method}() is "
                             f"not statically resolvable{hint}; use a "
                             "literal or f-string label (or a helper that "
                             "returns one) so collisions stay auditable"),
                ))
            else:
                by_shape.setdefault(shape, []).append((facts, use, origin))
    for shape in sorted(by_shape):
        uses = by_shape[shape]
        modules = sorted({facts.module for facts, _, _ in uses})
        origins = sorted({origin for _, _, origin in uses})
        if len(modules) < 2:
            continue
        if len(origins) == 1 and ":" in origins[0]:
            # Every acquisition funnels through one shared helper: the
            # helper is the single audit point for the deliberate sharing.
            continue
        for facts, use, _ in uses:
            others = ", ".join(m for m in modules if m != facts.module)
            out.append(Violation(
                path=facts.path, line=use.line, col=use.col,
                code="SIM008",
                message=(f"substream label shape `{shape}` is also spawned "
                         f"by {others}: two components sharing one "
                         "substream interleave draws, so adding a draw in "
                         "one silently perturbs the other; give each "
                         "component its own label (or mint both through "
                         "one shared helper)"),
            ))
    return out


def sim009_worker_impurity(
    ir: ProjectIR, max_depth: int = MAX_CLOSURE_DEPTH
) -> List[Violation]:
    """Workers that *transitively* reach module-level mutable state."""
    out: List[Violation] = []
    for facts in ir.modules:
        for qualname in sorted(facts.functions):
            fn = facts.functions[qualname]
            if not fn.is_worker:
                continue
            start = f"{facts.module}:{qualname}"
            chains = ir.reachable(start, max_depth=max_depth)
            for target in sorted(chains):
                t_facts, t_fn = ir.symbols[target]
                if not t_fn.impure_reads:
                    continue
                chain = chains[target]
                first_hop: CallSite = chain[0][1]
                path_desc = " -> ".join(
                    key.partition(":")[2] for key, _ in chain
                )
                name, read_line, _ = t_fn.impure_reads[0]
                out.append(Violation(
                    path=facts.path, line=first_hop.line, col=first_hop.col,
                    code="SIM009",
                    message=(f"worker `{qualname}` transitively reads "
                             f"module-level mutable `{name}` via "
                             f"{path_desc} ({t_facts.module}:{read_line}): "
                             "worker processes see a private (under spawn, "
                             "freshly re-imported) copy, so shared state "
                             "silently diverges; pass state through the "
                             "task argument"),
                ))
    return out


def project_violations(ir: ProjectIR) -> List[Violation]:
    """All cross-module findings, in stable (path, line, col, code) order."""
    out = sim008_labels(ir) + sim009_worker_impurity(ir)
    out.sort(key=Violation.sort_key)
    return out
