"""Project-IR unit tests: module naming, label shapes, call-graph
resolution and the bounded transitive closure."""

import ast

from simlint.ir import (
    MAX_CLOSURE_DEPTH,
    ProjectIR,
    collect_facts,
    module_name_for,
)


def build_ir(tmp_path, files):
    """Write {relpath: source} (with package __init__s) and assemble IR."""
    facts = []
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        init = target.parent / "__init__.py"
        if not init.exists():
            init.write_text("")
    for rel in files:
        path = str(tmp_path / rel)
        tree = ast.parse(files[rel], filename=path)
        facts.append(collect_facts(tree, path))
    return ProjectIR(facts)


class TestModuleNames:
    def test_package_walk(self, tmp_path):
        (tmp_path / "pkg" / "sub").mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (tmp_path / "pkg" / "sub" / "__init__.py").write_text("")
        mod = tmp_path / "pkg" / "sub" / "m.py"
        mod.write_text("")
        assert module_name_for(str(mod)) == "pkg.sub.m"

    def test_init_is_the_package(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        init = tmp_path / "pkg" / "__init__.py"
        init.write_text("")
        assert module_name_for(str(init)) == "pkg"

    def test_bare_script_keeps_stem(self, tmp_path):
        script = tmp_path / "tool.py"
        script.write_text("")
        assert module_name_for(str(script)) == "tool"


class TestLabelShapes:
    def shapes(self, tmp_path, body):
        ir = build_ir(tmp_path, {"pkg/m.py": body})
        facts = ir.modules[0]
        return [ir.resolve_label_shape(facts, u) for u in facts.labels]

    def test_fstring_fields_unify(self, tmp_path):
        body = "def f(streams, a, b):\n    return streams.get(f'x:{a}:{b}')\n"
        assert self.shapes(tmp_path, body) == ["x:{}:{}"]

    def test_concatenation_folds(self, tmp_path):
        body = "def f(streams, n):\n    return streams.get('c:' + str(n))\n"
        assert self.shapes(tmp_path, body) == ["c:{}"]

    def test_str_format_normalises(self, tmp_path):
        body = ("def f(streams, n):\n"
                "    return streams.get('node:{idx}'.format(idx=n))\n")
        assert self.shapes(tmp_path, body) == ["node:{}"]

    def test_helper_return_resolved_across_modules(self, tmp_path):
        ir = build_ir(tmp_path, {
            "pkg/names.py": ("def link_name(s, d):\n"
                             "    return f'link:{s}->{d}'\n"),
            "pkg/use.py": ("from pkg.names import link_name\n"
                           "def f(streams, s, d):\n"
                           "    return streams.get(link_name(s, d))\n"),
        })
        use_facts = next(m for m in ir.modules if m.path.endswith("use.py"))
        (use,) = use_facts.labels
        shape, origin = ir.resolve_label(use_facts, use)
        assert shape == "link:{}->{}"
        assert origin == "pkg.names:link_name"

    def test_inconsistent_helper_returns_stay_dynamic(self, tmp_path):
        ir = build_ir(tmp_path, {
            "pkg/m.py": ("def pick(flag):\n"
                         "    if flag:\n        return 'a'\n"
                         "    return 'b'\n"
                         "def f(streams, flag):\n"
                         "    return streams.get(pick(flag))\n"),
        })
        facts = ir.modules[0]
        (use,) = facts.labels
        assert ir.resolve_label_shape(facts, use) is None


class TestCallResolution:
    def test_from_import_with_alias(self, tmp_path):
        ir = build_ir(tmp_path, {
            "pkg/a.py": "def helper(x):\n    return x\n",
            "pkg/b.py": ("from pkg.a import helper as h\n"
                         "def f(x):\n    return h(x)\n"),
        })
        facts = next(m for m in ir.modules if m.path.endswith("b.py"))
        fn = facts.functions["f"]
        assert ir.resolve_call(facts, fn, "h") == "pkg.a:helper"

    def test_module_alias_attribute_call(self, tmp_path):
        ir = build_ir(tmp_path, {
            "pkg/a.py": "def helper(x):\n    return x\n",
            "pkg/b.py": ("import pkg.a as util\n"
                         "def f(x):\n    return util.helper(x)\n"),
        })
        facts = next(m for m in ir.modules if m.path.endswith("b.py"))
        fn = facts.functions["f"]
        assert ir.resolve_call(facts, fn, "util.helper") == "pkg.a:helper"

    def test_self_method_resolves_in_class(self, tmp_path):
        ir = build_ir(tmp_path, {
            "pkg/a.py": ("class C:\n"
                         "    def step(self):\n        return self.tick()\n"
                         "    def tick(self):\n        return 1\n"),
        })
        facts = ir.modules[0]
        fn = facts.functions["C.step"]
        assert ir.resolve_call(facts, fn, "self.tick") == "pkg.a:C.tick"

    def test_constructor_resolves_to_init(self, tmp_path):
        ir = build_ir(tmp_path, {
            "pkg/a.py": ("class World:\n"
                         "    def __init__(self, task):\n"
                         "        self.task = task\n"),
            "pkg/b.py": ("from pkg.a import World\n"
                         "def f(task):\n    return World(task)\n"),
        })
        facts = next(m for m in ir.modules if m.path.endswith("b.py"))
        fn = facts.functions["f"]
        assert ir.resolve_call(facts, fn, "World") == "pkg.a:World.__init__"

    def test_unresolvable_registry_call(self, tmp_path):
        ir = build_ir(tmp_path, {
            "pkg/a.py": ("TABLE = {}\n"
                         "def f(name):\n    return TABLE[name]()\n"),
        })
        facts = ir.modules[0]
        fn = facts.functions["f"]
        # Subscripted callee is never recorded as a resolvable spelling.
        assert all("TABLE" not in c.name for c in fn.calls)


class TestClosure:
    def test_cycle_terminates(self, tmp_path):
        ir = build_ir(tmp_path, {
            "pkg/a.py": ("from pkg.b import pong\n"
                         "def ping(n):\n    return pong(n)\n"),
            "pkg/b.py": ("from pkg.a import ping\n"
                         "def pong(n):\n    return ping(n)\n"),
        })
        chains = ir.reachable("pkg.a:ping")
        # The cycle folds back to the (visited) start and terminates.
        assert set(chains) == {"pkg.b:pong"}

    def test_depth_bound_respected(self, tmp_path):
        links = "\n".join(
            f"def f{i}(x):\n    return f{i + 1}(x)" for i in range(6)
        ) + "\ndef f6(x):\n    return x\n"
        ir = build_ir(tmp_path, {"pkg/chain.py": links})
        shallow = ir.reachable("pkg.chain:f0", max_depth=2)
        assert set(shallow) == {"pkg.chain:f1", "pkg.chain:f2"}
        deep = ir.reachable("pkg.chain:f0", max_depth=MAX_CLOSURE_DEPTH)
        assert "pkg.chain:f6" in deep

    def test_chain_records_call_sites(self, tmp_path):
        ir = build_ir(tmp_path, {
            "pkg/a.py": ("from pkg.b import mid\n"
                         "def top(x):\n    return mid(x)\n"),
            "pkg/b.py": ("from pkg.c import leaf\n"
                         "def mid(x):\n    return leaf(x)\n"),
            "pkg/c.py": "def leaf(x):\n    return x\n",
        })
        chains = ir.reachable("pkg.a:top")
        keys = [key for key, _ in chains["pkg.c:leaf"]]
        assert keys == ["pkg.b:mid", "pkg.c:leaf"]

    def test_import_graph(self, tmp_path):
        ir = build_ir(tmp_path, {
            "pkg/a.py": "from pkg.b import f\n",
            "pkg/b.py": "def f():\n    return 0\n",
        })
        graph = ir.import_graph()
        assert graph["pkg.a"] == ["pkg.b"]
        assert graph["pkg.b"] == []
