"""Project IR: the whole-program facts the cross-module rules run on.

Per-file AST passes (``local.py``) cannot see that a ``*_worker`` function
calls a helper in another module that reads module state, or that two
components spawn the *same* RNG substream label from different files.
This module extracts, per file, a compact :class:`ModuleFacts` record —
imports, module-level mutable bindings, function definitions with their
outgoing calls and impure reads, RNG substream label acquisitions, and
string-returning helpers — and assembles the records into a
:class:`ProjectIR`:

- a **module index** (dotted module name -> facts),
- an **import graph** (who imports whom, with aliases resolved),
- a **symbol table** (``module.qualname`` -> function fact),
- a **call graph** whose edges are resolved lazily from each function's
  recorded call spellings, with a **bounded transitive closure** for
  reachability queries (cycles are handled by a visited set; depth is
  capped so pathological graphs stay linear).

Resolution is deliberately name-based and conservative — ``self.m()``
resolves within the enclosing class, ``mod.f()`` through import aliases,
bare ``f()`` through ``from``-imports and module-level defs.  Calls
through containers (``ALL_FIGURES[name](...)``), instance attributes of
foreign classes, and higher-order values stay unresolved; the rules that
consume the closure over-approximate only what resolution can prove.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from simlint.local import (
    WORKER_SUFFIXES,
    bound_names,
    dotted_parts,
    module_mutable_globals,
)

__all__ = [
    "CallSite",
    "FunctionFact",
    "LabelUse",
    "ModuleFacts",
    "ProjectIR",
    "collect_facts",
    "module_name_for",
    "MAX_CLOSURE_DEPTH",
]

# Reachability queries stop here: deep chains past this are almost always
# resolution noise, and the bound keeps closure linear in project size.
MAX_CLOSURE_DEPTH = 8

# ``.get``/``.spawn`` receivers considered RNG-stream factories.  The
# check is syntactic: the receiver's final name mentions a stream/rng, or
# it is a direct ``RngStreams(...)`` construction.  One positional string
# argument disambiguates from ``dict.get(key, default)``.
_STREAMS_RECEIVER_RE = re.compile(r"(^|_)(rng|streams?)$|stream", re.IGNORECASE)

_FORMAT_FIELD_RE = re.compile(r"\{[^{}]*\}")


def module_name_for(path: str) -> str:
    """Dotted module name for ``path``, walking up through packages.

    ``src/repro/sim/engine.py`` -> ``repro.sim.engine``.  Files outside
    any package keep their stem as the module name.
    """
    p = Path(path).resolve()
    parts = [p.stem] if p.stem != "__init__" else []
    parent = p.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if not parts:
        parts = [p.stem]
    return ".".join(reversed(parts))


@dataclass(frozen=True)
class CallSite:
    """One outgoing call recorded inside a function body."""

    name: str  # dotted spelling as written ("helper", "mod.f", "self.m")
    line: int
    col: int


@dataclass(frozen=True)
class LabelUse:
    """One RNG substream acquisition: ``streams.get(label)`` / ``.spawn``.

    ``shape`` is the label with every interpolated field collapsed to
    ``{}`` (``f"client:{name}"`` -> ``client:{}``) so textually different
    spellings of the same substream family unify.  ``shape`` is ``None``
    when the label could not be resolved statically; ``call`` then holds
    the dotted callee spelling when the label came from a helper call, so
    the project phase can try one more resolution hop through the symbol
    table (``link_stream_name(src, dst)`` -> its recorded f-string
    return).
    """

    shape: Optional[str]
    line: int
    col: int
    func: str  # enclosing function qualname ("" at module level)
    method: str  # "get" or "spawn"
    call: Optional[str] = None


@dataclass
class FunctionFact:
    """One function definition and the facts the project rules need."""

    qualname: str  # "f", "Class.m", "outer.inner"
    line: int
    calls: List[CallSite] = field(default_factory=list)
    # Reads of module-level mutable names not bound locally: (name, line, col)
    impure_reads: List[Tuple[str, int, int]] = field(default_factory=list)

    @property
    def is_worker(self) -> bool:
        return self.qualname.rpartition(".")[2].endswith(WORKER_SUFFIXES)


@dataclass
class ModuleFacts:
    """Everything the cross-module rules need to know about one file."""

    path: str
    module: str
    # import alias -> module dotted name ("np" -> "numpy")
    imports: Dict[str, str] = field(default_factory=dict)
    # from-import alias -> "module.attr"
    from_names: Dict[str, str] = field(default_factory=dict)
    # module-level names bound to mutable containers
    mutable_globals: List[str] = field(default_factory=list)
    functions: Dict[str, FunctionFact] = field(default_factory=dict)
    labels: List[LabelUse] = field(default_factory=list)
    # functions whose every return is the same literal/f-string shape
    str_returns: Dict[str, str] = field(default_factory=dict)
    # line -> suppressed codes (None means "all codes")
    suppressions: Dict[int, Optional[Set[str]]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Fact extraction
# ---------------------------------------------------------------------------


def _label_shape(node: ast.AST) -> Optional[str]:
    """Static shape of a substream label expression, ``None`` if dynamic.

    Interpolated fields collapse to ``{}``: literals keep their text,
    f-strings replace each ``FormattedValue``, ``"a:{}".format(x)``
    normalises format fields, and string concatenation folds both sides.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        out: List[str] = []
        for part in node.values:
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                out.append(part.value)
            else:
                out.append("{}")
        return "".join(out)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _label_shape(node.left)
        right = _label_shape(node.right)
        if left is None and right is None:
            return None
        return (left if left is not None else "{}") + (
            right if right is not None else "{}"
        )
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "format":
        base = _label_shape(node.func.value)
        if base is not None:
            return _FORMAT_FIELD_RE.sub("{}", base)
    return None


def _is_streams_receiver(node: ast.AST) -> bool:
    """Does this expression plausibly evaluate to an RNG stream factory?"""
    if isinstance(node, ast.Call):
        callee = dotted_parts(node.func)
        return bool(callee) and callee[-1] == "RngStreams"
    parts = dotted_parts(node)
    if not parts:
        return False
    return bool(_STREAMS_RECEIVER_RE.search(parts[-1]))


class _FactCollector(ast.NodeVisitor):
    """One AST walk filling a :class:`ModuleFacts`."""

    def __init__(self, facts: ModuleFacts) -> None:
        self.facts = facts
        self._scope: List[str] = []  # enclosing def/class names
        self._class_depth = 0
        # function qualname currently being collected ("" at module level)
        self._current: Optional[FunctionFact] = None
        # name -> shape for string locals assigned in the current function
        self._str_locals: List[Dict[str, str]] = [{}]

    # -- imports -----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.partition(".")[0]
            self.facts.imports[alias.asname or root] = (
                alias.name if alias.asname else root
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            self.facts.from_names[alias.asname or alias.name] = (
                f"{module}.{alias.name}"
            )
        self.generic_visit(node)

    # -- module-level mutable bindings -------------------------------------

    def visit_Module(self, node: ast.Module) -> None:
        self.facts.mutable_globals = sorted(module_mutable_globals(node))
        self.generic_visit(node)

    # -- functions ---------------------------------------------------------

    def _qualname(self, name: str) -> str:
        return ".".join(self._scope + [name])

    def _collect_function(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        qualname = self._qualname(node.name)
        fact = FunctionFact(qualname=qualname, line=node.lineno)
        bound = bound_names(node)
        mutable = set(self.facts.mutable_globals)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                callee = dotted_parts(sub.func)
                if callee:
                    fact.calls.append(CallSite(
                        name=".".join(callee), line=sub.lineno,
                        col=sub.col_offset,
                    ))
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) \
                    and sub.id in mutable and sub.id not in bound:
                fact.impure_reads.append((sub.id, sub.lineno, sub.col_offset))
        self.facts.functions[qualname] = fact
        shape = self._return_shape(node)
        if shape is not None:
            self.facts.str_returns[qualname] = shape
        # Recurse with this function on the scope stack so nested defs and
        # label acquisitions attribute to the right qualname.
        outer, self._current = self._current, fact
        self._scope.append(node.name)
        class_depth, self._class_depth = self._class_depth, 0
        self._str_locals.append(self._collect_str_locals(node))
        self.generic_visit(node)
        self._str_locals.pop()
        self._class_depth = class_depth
        self._scope.pop()
        self._current = outer

    @staticmethod
    def _collect_str_locals(
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
    ) -> Dict[str, str]:
        """Local names assigned a statically-shaped string in this body."""
        out: Dict[str, str] = {}
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                    and isinstance(sub.targets[0], ast.Name):
                shape = _label_shape(sub.value)
                name = sub.targets[0].id
                if shape is not None and name not in out:
                    out[name] = shape
        return out

    @staticmethod
    def _return_shape(
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
    ) -> Optional[str]:
        """The common label shape of every return, if there is one."""
        shapes: List[str] = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Return) and sub.value is not None:
                shape = _label_shape(sub.value)
                if shape is None:
                    return None
                shapes.append(shape)
        if shapes and all(s == shapes[0] for s in shapes):
            return shapes[0]
        return None

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._collect_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._collect_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append(node.name)
        self._class_depth += 1
        self.generic_visit(node)
        self._class_depth -= 1
        self._scope.pop()

    # -- RNG substream labels ----------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("get", "spawn") \
                and len(node.args) == 1 and not node.keywords \
                and _is_streams_receiver(func.value):
            arg = node.args[0]
            # Generator.spawn(n) takes an int child count; only string-ish
            # labels name substreams.
            if not (isinstance(arg, ast.Constant)
                    and not isinstance(arg.value, str)):
                shape = _label_shape(arg)
                call: Optional[str] = None
                if shape is None and isinstance(arg, ast.Name):
                    for scope in reversed(self._str_locals):
                        if arg.id in scope:
                            shape = scope[arg.id]
                            break
                if shape is None and isinstance(arg, ast.Call):
                    callee = dotted_parts(arg.func)
                    if callee:
                        call = ".".join(callee)
                func_name = self._current.qualname if self._current else ""
                self.facts.labels.append(LabelUse(
                    shape=shape, line=node.lineno, col=node.col_offset,
                    func=func_name, method=func.attr, call=call,
                ))
        self.generic_visit(node)


def collect_facts(
    tree: ast.Module,
    path: str,
    suppressions: Optional[Dict[int, Optional[Set[str]]]] = None,
) -> ModuleFacts:
    """Extract :class:`ModuleFacts` from a parsed module."""
    facts = ModuleFacts(path=path, module=module_name_for(path))
    if suppressions:
        facts.suppressions = dict(suppressions)
    _FactCollector(facts).visit(tree)
    return facts


# ---------------------------------------------------------------------------
# The assembled IR
# ---------------------------------------------------------------------------


class ProjectIR:
    """Module index + symbol table + call graph over collected facts."""

    def __init__(self, modules: Sequence[ModuleFacts]) -> None:
        # Deterministic order: by path, so every consumer iterates stably.
        self.modules: List[ModuleFacts] = sorted(modules, key=lambda m: m.path)
        self.by_module: Dict[str, ModuleFacts] = {}
        for facts in self.modules:
            self.by_module[facts.module] = facts
        # Symbol table: "module:qualname" -> (facts, FunctionFact)
        self.symbols: Dict[str, Tuple[ModuleFacts, FunctionFact]] = {}
        for facts in self.modules:
            for qualname, fn in facts.functions.items():
                self.symbols[f"{facts.module}:{qualname}"] = (facts, fn)
        self._edges: Dict[str, List[Tuple[str, CallSite]]] = {}

    # -- import graph ------------------------------------------------------

    def imported_modules(self, facts: ModuleFacts) -> List[str]:
        """Project-internal modules ``facts`` imports (deduped, sorted)."""
        out: Set[str] = set()
        for target in facts.imports.values():
            if target in self.by_module:
                out.add(target)
        for target in facts.from_names.values():
            module, _, attr = target.rpartition(".")
            if module in self.by_module:
                out.add(module)
            elif target in self.by_module:  # ``from pkg import submodule``
                out.add(target)
        return sorted(out)

    def import_graph(self) -> Dict[str, List[str]]:
        return {
            facts.module: self.imported_modules(facts)
            for facts in self.modules
        }

    # -- call resolution ---------------------------------------------------

    def resolve_call(
        self, facts: ModuleFacts, caller: Optional[FunctionFact], name: str
    ) -> Optional[str]:
        """Resolve a recorded call spelling to a ``module:qualname`` key.

        Handles, in order: ``self.m()`` within the caller's class,
        module-local functions (including nested/class scope), aliased
        ``from``-imports, and ``mod.f()`` through import aliases.  Returns
        ``None`` for spellings resolution cannot prove (subscripted
        registries, foreign instance attributes, builtins).
        """
        head, _, rest = name.partition(".")
        if head == "self" and rest and caller is not None:
            cls = caller.qualname.rpartition(".")[0]
            if cls:
                candidate = f"{facts.module}:{cls}.{rest}"
                if candidate in self.symbols:
                    return candidate
            return None
        if not rest:
            # Bare name: same-module def (prefer caller's class scope).
            if caller is not None:
                cls = caller.qualname.rpartition(".")[0]
                if cls and f"{facts.module}:{cls}.{head}" in self.symbols:
                    return f"{facts.module}:{cls}.{head}"
            for candidate in (f"{facts.module}:{head}",
                              f"{facts.module}:{head}.__init__"):
                if candidate in self.symbols:
                    return candidate
            target = facts.from_names.get(head)
            if target is not None:
                module, _, attr = target.rpartition(".")
                for candidate in (f"{module}:{attr}",
                                  f"{module}:{attr}.__init__"):
                    if candidate in self.symbols:
                        return candidate
            return None
        # Dotted: resolve the head through import aliases.
        module = facts.imports.get(head)
        if module is not None:
            for candidate in (f"{module}:{rest}",
                              f"{module}:{rest}.__init__"):
                if candidate in self.symbols:
                    return candidate
            # ``import repro.experiments.parallel`` + ``parallel.f()`` style
            # (head alias maps to a package; try the full dotted module).
        target = facts.from_names.get(head)
        if target is not None:
            # ``from pkg import submodule`` + ``submodule.f()``
            for candidate in (f"{target}:{rest}", f"{target}:{rest}.__init__"):
                if candidate in self.symbols:
                    return candidate
        return None

    def edges_from(self, key: str) -> List[Tuple[str, CallSite]]:
        """Resolved outgoing call edges of ``module:qualname`` (cached)."""
        cached = self._edges.get(key)
        if cached is not None:
            return cached
        out: List[Tuple[str, CallSite]] = []
        entry = self.symbols.get(key)
        if entry is not None:
            facts, fn = entry
            seen: Set[Tuple[str, int]] = set()
            for call in fn.calls:
                target = self.resolve_call(facts, fn, call.name)
                if target is not None and target != key:
                    dedup = (target, call.line)
                    if dedup not in seen:
                        seen.add(dedup)
                        out.append((target, call))
        self._edges[key] = out
        return out

    def reachable(
        self, start: str, max_depth: int = MAX_CLOSURE_DEPTH
    ) -> Dict[str, List[Tuple[str, CallSite]]]:
        """Bounded transitive closure from ``start``.

        Returns ``target -> call chain`` (list of ``(callee key, call
        site)`` hops, first hop taken inside ``start``).  Cycles terminate
        via the visited set; ``max_depth`` bounds chain length.
        """
        chains: Dict[str, List[Tuple[str, CallSite]]] = {}
        frontier: List[Tuple[str, List[Tuple[str, CallSite]]]] = [(start, [])]
        visited: Set[str] = {start}
        depth = 0
        while frontier and depth < max_depth:
            depth += 1
            next_frontier: List[Tuple[str, List[Tuple[str, CallSite]]]] = []
            for key, chain in frontier:
                for target, site in self.edges_from(key):
                    if target in visited:
                        continue
                    visited.add(target)
                    hop = chain + [(target, site)]
                    chains[target] = hop
                    next_frontier.append((target, hop))
            frontier = next_frontier
        return chains

    # -- helper resolution for SIM008 --------------------------------------

    def resolve_label(
        self, facts: ModuleFacts, use: LabelUse
    ) -> Tuple[Optional[str], str]:
        """Resolve a label use to ``(shape, origin)``.

        Inline labels (literal/f-string/local) originate from their own
        module.  Helper-produced labels — ``streams.get(
        link_stream_name(src, dst))`` — resolve one extra hop through the
        symbol table to the helper's recorded literal/f-string return
        shape, and their origin is the helper's ``module:qualname`` key:
        when *every* use of a shape shares one helper origin, the sharing
        is coordinated through that helper, not an accidental collision.
        """
        if use.shape is not None:
            return use.shape, facts.module
        if use.call is None:
            return None, facts.module
        caller = facts.functions.get(use.func)
        key = self.resolve_call(facts, caller, use.call)
        if key is None:
            return None, facts.module
        target_facts, target_fn = self.symbols[key]
        return target_facts.str_returns.get(target_fn.qualname), key

    def resolve_label_shape(
        self, facts: ModuleFacts, use: LabelUse
    ) -> Optional[str]:
        """Shape half of :meth:`resolve_label` (convenience)."""
        return self.resolve_label(facts, use)[0]
