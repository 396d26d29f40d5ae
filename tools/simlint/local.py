"""Per-file lint rules SIM001–SIM007, SIM010, SIM011.

These rules need only one module's AST (plus its path for context); the
cross-module rules SIM008/SIM009 live in :mod:`.project` and run on the
:class:`~simlint.ir.ProjectIR`.  See the package docstring for the full
rule table and :func:`lint_source` for the entry point the fixture tests
use.  The AST helpers below the rule table are shared with :mod:`.ir`.

The pass is deliberately conservative and syntactic: SIM003/SIM010/SIM011
only track set-ness through local names, literals, comprehensions and set
operators (attribute-held sets used for membership tests are fine and
common), and "feeds the event heap" is over-approximated to "is iterated"
— sorting an iteration that did not need it is cheap; a nondeterministic
replay is not.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Union

__all__ = [
    "RULES",
    "WORKER_SUFFIXES",
    "Violation",
    "bound_names",
    "dotted_parts",
    "filter_suppressed",
    "lint_source",
    "lint_tree",
    "module_mutable_globals",
    "suppressions_for",
]

RULES: Dict[str, str] = {
    "SIM001": "wall-clock read outside benchmarks/ (use sim.now)",
    "SIM002": "global or unseeded RNG (thread repro.sim.rng generators)",
    "SIM003": "iteration over an unordered set (wrap in sorted(...))",
    "SIM004": "heap entry without a total-order tie-breaker",
    "SIM005": "threading / shared mutable global in a parallel payload",
    "SIM006": "legacy numpy.random module-level RandomState use",
    "SIM007": "shard-unsafe pattern (cpu_count outside default_jobs, or "
              "module-level mutable state read in a worker function)",
    "SIM008": "RNG substream label collision or dynamic label "
              "(labels must be unique literal/f-string shapes per module)",
    "SIM009": "worker function transitively reaches module-level mutable "
              "state through its call graph",
    "SIM010": "float reduction over an unordered collection "
              "(sum/min/max over a set, or dict views in digest modules)",
    "SIM011": "key-based ordering without a deterministic tie-breaker "
              "(keyed sort over a set, or a heap entry whose second slot "
              "is not a sequence number)",
}

# Functions executed in worker processes follow this naming convention
# (parallel.py's _figure_task, sharded.py's _shard_worker_main, ...); the
# contract is that they receive *all* state through their arguments.
WORKER_SUFFIXES = ("_task", "_worker", "_main")

# The one blessed home for a worker-count decision (see
# repro.experiments.parallel.default_jobs: affinity-aware + env override).
_CPU_COUNT_FUNCS = frozenset({"os.cpu_count", "multiprocessing.cpu_count"})

# time-module functions that read host clocks.
_WALL_TIME_FUNCS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
    "clock_gettime", "clock_gettime_ns",
})
# datetime constructors that read host clocks.
_WALL_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})
_DATETIME_BASES = frozenset({"datetime", "datetime.datetime", "datetime.date"})

# numpy.random attributes that are *constructors*, not global-state draws.
# ``default_rng`` is allowed only when called with a seed (checked at the
# call site); everything else on numpy.random touches the legacy global
# RandomState and is flagged.
_NP_RANDOM_OK = frozenset({
    "Generator", "SeedSequence", "BitGenerator",
    "Philox", "PCG64", "PCG64DXSM", "MT19937", "SFC64",
    "default_rng",
})

# set methods that return another set (propagate set-ness in inference).
_SET_RETURNING_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference", "copy",
})

# SIM010's dict-view arm fires only in modules whose *output* is the
# deterministic record of a run — where float accumulation order becomes
# part of the digest/stat contract and a refactor that reorders dict
# insertion silently changes recorded bits.
_DIGEST_SINK_FILES = frozenset({
    "stats.py", "replay.py", "monitor.py", "report.py",
})

# Reductions whose result depends on element order (float rounding) or on
# tie resolution.  math.fsum is exempt: it is exact, so order cannot
# change its result.
_ORDER_SENSITIVE_REDUCTIONS = frozenset({"sum", "min", "max"})

# Second-slot spellings accepted as a monotonic sequence/tie-breaker in
# heap entries, matching the engine's (time, seq, payload) convention.
_SEQ_NAME_RE = re.compile(
    r"(^|_)(seq|idx|index|count|counter|tie|order|pos)(_|$|\d)|^[ijkn]$",
)

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*disable(?:=(?P<codes>[A-Za-z0-9_, ]+))?"
)


@dataclass(frozen=True)
class Violation:
    """One lint finding, formatted ``path:line:col: CODE message``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def sort_key(self) -> "tuple[str, int, int, str, str]":
        return (self.path, self.line, self.col, self.code, self.message)


def suppressions_for(source: str) -> Dict[int, Optional[Set[str]]]:
    """Per-line suppressed codes; ``None`` means all codes on that line."""
    out: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if m is None:
            continue
        codes = m.group("codes")
        if codes is None:
            out[lineno] = None
        else:
            out[lineno] = {c.strip().upper() for c in codes.split(",") if c.strip()}
    return out


def filter_suppressed(
    violations: List[Violation],
    suppressed: Dict[int, Optional[Set[str]]],
) -> List[Violation]:
    """Drop violations whose line carries a matching disable comment."""
    kept: List[Violation] = []
    for v in violations:
        codes = suppressed.get(v.line, ())
        if codes is None or (codes and v.code in codes):
            continue
        kept.append(v)
    return kept


def dotted_parts(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ["a", "b", "c"]; None for non-name-rooted chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _is_mutable_container(node: ast.AST) -> bool:
    """Literal / constructor expressions yielding a mutable container."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name: Optional[str] = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        return name in ("list", "dict", "set", "bytearray", "defaultdict",
                        "deque", "Counter", "OrderedDict")
    return False


def module_mutable_globals(module: ast.Module) -> Set[str]:
    """Names bound at module top level to mutable containers."""
    mutable: Set[str] = set()
    for stmt in module.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        if value is not None and _is_mutable_container(value):
            for target in targets:
                if isinstance(target, ast.Name):
                    mutable.add(target.id)
    return mutable


def bound_names(node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> Set[str]:
    """Names a function body binds: params, assignments, imports, dels."""
    bound: Set[str] = set()
    arguments = node.args
    for arg in (*arguments.posonlyargs, *arguments.args,
                *arguments.kwonlyargs):
        bound.add(arg.arg)
    if arguments.vararg is not None:
        bound.add(arguments.vararg.arg)
    if arguments.kwarg is not None:
        bound.add(arguments.kwarg.arg)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store, ast.Del)):
            bound.add(sub.id)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                bound.add(alias.asname or alias.name.partition(".")[0])
    return bound


class _Linter(ast.NodeVisitor):
    """Single-pass visitor implementing the per-file rules."""

    def __init__(
        self,
        path: str,
        *,
        wall_clock_exempt: bool,
        in_experiments: bool,
        parallel_module: bool,
        digest_sink: bool,
    ) -> None:
        self.path = path
        self.wall_clock_exempt = wall_clock_exempt
        self.in_experiments = in_experiments
        self.parallel_module = parallel_module
        self.digest_sink = digest_sink
        self.violations: List[Violation] = []
        # local alias -> imported module ("np" -> "numpy")
        self._modules: Dict[str, str] = {}
        # local name -> "module.attr" ("perf_counter" -> "time.perf_counter")
        self._from_names: Dict[str, str] = {}
        # lexical scopes for SIM003 set-ness inference (module scope first)
        self._set_scopes: List[Dict[str, bool]] = [{}]
        # SIM007 state: enclosing function names, and module-level names
        # bound to mutable containers (collected by visit_Module).
        self._func_stack: List[str] = []
        self._mutable_globals: Set[str] = set()

    # -- bookkeeping ------------------------------------------------------

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        self.violations.append(Violation(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
        ))

    def _resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted spelling with import aliases substituted.

        Unimported heads keep their literal spelling, so fixture snippets
        (and ``np.``-conventional code) still resolve usefully.
        """
        parts = dotted_parts(node)
        if not parts:
            return None
        head = parts[0]
        if head in self._modules:
            parts = self._modules[head].split(".") + parts[1:]
        elif head in self._from_names:
            parts = self._from_names[head].split(".") + parts[1:]
        elif head == "np":
            parts = ["numpy"] + parts[1:]
        return ".".join(parts)

    # -- imports ----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.partition(".")[0]
            self._modules[alias.asname or root] = alias.name if alias.asname else root
            if root == "random":
                self._flag(node, "SIM002",
                           "the global `random` module is unseeded shared "
                           "state; draw from repro.sim.rng streams instead")
            if root == "threading" and self.in_experiments:
                self._flag(node, "SIM005",
                           "threading in an experiments/ module: parallel "
                           "job payloads must be share-nothing processes")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            self._from_names[alias.asname or alias.name] = f"{module}.{alias.name}"
        root = module.partition(".")[0]
        if root == "random":
            self._flag(node, "SIM002",
                       "the global `random` module is unseeded shared "
                       "state; draw from repro.sim.rng streams instead")
        if root == "threading" and self.in_experiments:
            self._flag(node, "SIM005",
                       "threading in an experiments/ module: parallel "
                       "job payloads must be share-nothing processes")
        if module == "time" and not self.wall_clock_exempt:
            for alias in node.names:
                if alias.name in _WALL_TIME_FUNCS:
                    self._flag(node, "SIM001",
                               f"wall-clock import `time.{alias.name}`; "
                               "simulations must read sim.now")
        self.generic_visit(node)

    # -- references (SIM001, SIM002, SIM005) -------------------------------

    def _check_reference(self, node: ast.AST, full: str) -> None:
        base, _, attr = full.rpartition(".")
        if not self.wall_clock_exempt:
            if base == "time" and attr in _WALL_TIME_FUNCS:
                self._flag(node, "SIM001",
                           f"wall-clock read `{full}`; simulations must "
                           "read sim.now")
            elif base in _DATETIME_BASES and attr in _WALL_DATETIME_FUNCS:
                self._flag(node, "SIM001",
                           f"wall-clock read `{full}`; simulations must "
                           "read sim.now")
        if base == "random":
            self._flag(node, "SIM002",
                       f"`{full}` draws from the global `random` module; "
                       "thread a repro.sim.rng generator instead")
        elif base == "numpy.random" and attr not in _NP_RANDOM_OK:
            self._flag(node, "SIM006",
                       f"`{full}` uses numpy's module-level RandomState: "
                       "one hidden global stream, so draw order couples "
                       "unrelated components and replays diverge; thread "
                       "a spawned repro.sim.rng generator instead")
        if self.in_experiments and base == "threading":
            self._flag(node, "SIM005",
                       f"`{full}` in an experiments/ module: parallel "
                       "job payloads must be share-nothing processes")
        if full in _CPU_COUNT_FUNCS and not self.wall_clock_exempt \
                and "default_jobs" not in self._func_stack:
            self._flag(node, "SIM007",
                       f"`{full}` ignores affinity masks and cgroup CPU "
                       "limits and scatters the worker-count decision; "
                       "call repro.experiments.parallel.default_jobs() "
                       "instead")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            full = self._resolve(node)
            if full is not None:
                self._check_reference(node, full)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id in self._from_names:
            self._check_reference(node, self._from_names[node.id])

    # -- calls (SIM002/SIM004/SIM010/SIM011) -------------------------------

    @staticmethod
    def _is_seq_like(node: ast.AST) -> bool:
        """Does this expression read as a monotonic sequence number?"""
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return True
        if isinstance(node, ast.UnaryOp):
            return _Linter._is_seq_like(node.operand)
        if isinstance(node, ast.Call):
            func = node.func
            return isinstance(func, ast.Name) and func.id == "next"
        name: Optional[str] = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None:
            return bool(_SEQ_NAME_RE.search(name.lower().lstrip("_")))
        return False

    def _check_heap_entry(self, call: ast.Call, full: str) -> None:
        if full in ("heapq.heappush", "heapq.heappushpop", "heapq.heapreplace"):
            if len(call.args) >= 2 and isinstance(call.args[1], ast.Tuple):
                elts = call.args[1].elts
                if len(elts) == 2:
                    self._flag(call.args[1], "SIM004",
                               "bare (time, payload) heap entry: equal "
                               "timestamps compare the payloads, which is "
                               "not a total order; push (time, seq, payload) "
                               "with a monotonic sequence number")
                elif len(elts) >= 3 and not self._is_seq_like(elts[1]):
                    self._flag(call.args[1], "SIM011",
                               "heap entry's second slot is not a sequence "
                               "number: the engine's (time, seq, payload) "
                               "convention needs a monotonic int there so "
                               "equal keys never compare payloads")

    def _reduction_arg_hazard(self, arg: ast.AST) -> Optional[str]:
        """Why reducing over ``arg`` is order-hazardous (None when fine)."""
        if self._is_set_expr(arg):
            return ("a set's iteration order varies with hash seeding "
                    "and insertion history")
        if self.digest_sink and isinstance(arg, ast.Call) \
                and isinstance(arg.func, ast.Attribute) \
                and arg.func.attr in ("values", "items") and not arg.args:
            return ("dict insertion order is a refactor-sensitive detail; "
                    "in a digest/stat module the accumulation order "
                    "becomes part of the recorded bits")
        return None

    def _check_reduction(self, call: ast.Call, full: str) -> None:
        name = full.rpartition(".")[2]
        if name not in _ORDER_SENSITIVE_REDUCTIONS or full == "math.fsum":
            return
        if not call.args:
            return
        hazard = self._reduction_arg_hazard(call.args[0])
        if hazard is not None:
            self._flag(call, "SIM010",
                       f"`{name}()` over an unordered collection: {hazard}; "
                       "reduce over sorted(...) (or math.fsum for exact "
                       "float sums)")

    def _check_keyed_order(self, call: ast.Call, full: str) -> None:
        name = full.rpartition(".")[2]
        if name not in ("sorted", "nsmallest", "nlargest"):
            return
        if not any(kw.arg == "key" for kw in call.keywords):
            return
        # sorted(xs, key=f): positional arg 0; nsmallest(n, xs, key=f): 1.
        idx = 0 if name == "sorted" else 1
        if len(call.args) <= idx:
            return
        if self._is_set_expr(call.args[idx]):
            self._flag(call, "SIM011",
                       f"`{name}(..., key=...)` over a set: elements that "
                       "compare equal under the key keep the set's "
                       "arbitrary iteration order; sort the set itself "
                       "first (total order) or add a tie-breaker to the "
                       "key")

    def visit_Call(self, node: ast.Call) -> None:
        full = self._resolve(node.func)
        if full is not None:
            if full.endswith("numpy.random.default_rng") or full == "default_rng":
                if not node.args and not node.keywords:
                    self._flag(node, "SIM002",
                               "unseeded np.random.default_rng(): entropy "
                               "comes from the OS, so replays diverge; "
                               "thread a repro.sim.rng generator")
            self._check_heap_entry(node, full)
            self._check_reduction(node, full)
            self._check_keyed_order(node, full)
        self.generic_visit(node)

    # -- SIM003: set-ness inference and iteration --------------------------

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) \
                    and func.attr in _SET_RETURNING_METHODS:
                return self._is_set_expr(func.value)
            return False
        if isinstance(node, ast.Name):
            for scope in reversed(self._set_scopes):
                if node.id in scope:
                    return scope[node.id]
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    @staticmethod
    def _annotation_is_set(annotation: Optional[ast.AST]) -> bool:
        if annotation is None:
            return False
        if isinstance(annotation, ast.Name):
            return annotation.id in ("set", "frozenset")
        if isinstance(annotation, ast.Subscript):
            base = annotation.value
            if isinstance(base, ast.Name):
                return base.id in ("set", "frozenset", "Set", "FrozenSet")
        return False

    def _flag_set_iteration(self, iter_node: ast.AST) -> None:
        self._flag(iter_node, "SIM003",
                   "iterating an unordered set: element order varies "
                   "with hash seeding and insertion history; iterate "
                   "sorted(...) so heap/RNG/LP row order stays stable")

    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = self._is_set_expr(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._set_scopes[-1][target.id] = is_set
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            is_set = self._annotation_is_set(node.annotation) or (
                node.value is not None and self._is_set_expr(node.value)
            )
            self._set_scopes[-1][node.target.id] = is_set
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self._flag_set_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST, generators: List[ast.comprehension]) -> None:
        for gen in generators:
            if self._is_set_expr(gen.iter):
                self._flag_set_iteration(gen.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node, node.generators)

    # A set built *from* a set is order-insensitive; SetComp iterates its
    # generators but lands in an unordered result, so it is not flagged.

    # -- scopes ------------------------------------------------------------

    def _visit_scoped(self, node: ast.AST) -> None:
        self._set_scopes.append({})
        self.generic_visit(node)
        self._set_scopes.pop()

    def _visit_function(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        self._check_worker_function(node)
        self._func_stack.append(node.name)
        self._visit_scoped(node)
        self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_scoped(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_scoped(node)

    # -- SIM007: shard-unsafe worker functions -----------------------------

    def visit_Module(self, node: ast.Module) -> None:
        # Pre-pass: reads of module-level mutables inside worker functions
        # are shard hazards — each worker process gets its own (possibly
        # stale, never shared) copy.
        self._mutable_globals = module_mutable_globals(node)
        self.generic_visit(node)

    def _check_worker_function(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        """Flag reads of module-level mutable state in worker functions.

        Functions named ``*_task``/``*_worker``/``*_main`` run in forked or
        spawned processes; mutations made there never reach the parent, and
        under ``spawn`` the module is re-imported so the "global" may not
        even hold the parent's value.  All state must arrive through the
        task argument.  The check is syntactic: a name is considered local
        if it is a parameter, assigned, or imported anywhere in the
        function body.
        """
        if not node.name.endswith(WORKER_SUFFIXES):
            return
        if not self._mutable_globals:
            return
        bound = bound_names(node)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) \
                    and sub.id in self._mutable_globals \
                    and sub.id not in bound:
                self._flag(sub, "SIM007",
                           f"worker function `{node.name}` reads module-"
                           f"level mutable `{sub.id}`: worker processes "
                           "see a private (under spawn, freshly re-"
                           "imported) copy, so shared state silently "
                           "diverges; pass it through the task argument")

    # -- SIM005: shared mutable globals in parallel payloads ---------------

    def visit_Global(self, node: ast.Global) -> None:
        if self.parallel_module:
            names = ", ".join(node.names)
            self._flag(node, "SIM005",
                       f"`global {names}` inside a parallel-payload module: "
                       "workers must receive all state through task "
                       "arguments, never module globals")
        self.generic_visit(node)


def lint_tree(tree: ast.Module, path: str = "<string>") -> List[Violation]:
    """Run the per-file rules on an already-parsed module.

    ``path`` decides context: files under a ``benchmarks/`` directory are
    exempt from SIM001 (measuring wall time is their purpose); files under
    ``experiments/`` activate SIM005's threading check, modules named
    ``parallel.py`` its shared-global check, and the digest/stat sink
    modules (``stats.py``, ``replay.py``, ``monitor.py``, ``report.py``)
    arm SIM010's dict-view arm.

    Suppression comments are *not* applied here — the caller filters with
    :func:`filter_suppressed` so project-rule findings share the same
    per-line disable machinery.
    """
    parts = Path(path).parts
    linter = _Linter(
        path,
        wall_clock_exempt="benchmarks" in parts,
        in_experiments="experiments" in parts,
        parallel_module=Path(path).name == "parallel.py",
        digest_sink=Path(path).name in _DIGEST_SINK_FILES,
    )
    linter.visit(tree)
    linter.violations.sort(key=Violation.sort_key)
    return linter.violations


def lint_source(source: str, path: str = "<string>") -> List[Violation]:
    """Lint one module's source text (per-file rules, suppressions applied)."""
    tree = ast.parse(source, filename=path)
    violations = lint_tree(tree, path=path)
    kept = filter_suppressed(violations, suppressions_for(source))
    kept.sort(key=Violation.sort_key)
    return kept
