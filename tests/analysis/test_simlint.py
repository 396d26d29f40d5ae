"""simlint rule fixtures (positive, negative, and suppression per rule),
exit codes, and the tool's separation from the simulator."""

import ast
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from simlint import RULES, format_text, lint_paths, lint_source, main, run

REPO = Path(__file__).resolve().parents[2]

SIM_PATH = "src/repro/sim/example.py"          # SIM001 applies
BENCH_PATH = "benchmarks/bench_example.py"     # SIM001 exempt
EXP_PATH = "src/repro/experiments/example.py"  # SIM005 threading applies
PAR_PATH = "src/repro/experiments/parallel.py"  # SIM005 globals apply


def codes(source, path=SIM_PATH):
    return [v.code for v in lint_source(source, path=path)]


class TestRuleTable:
    def test_all_rules_registered(self):
        assert sorted(RULES) == [
            "SIM001", "SIM002", "SIM003", "SIM004", "SIM005", "SIM006",
            "SIM007", "SIM008", "SIM009", "SIM010", "SIM011",
        ]

    def test_violation_format(self):
        (v,) = lint_source("import time\nt = time.time()\n", path=SIM_PATH)
        assert v.format() == f"{SIM_PATH}:2:4: SIM001 " + v.message
        assert "sim.now" in v.message


class TestSIM001WallClock:
    def test_time_time_flagged(self):
        assert codes("import time\nt = time.time()\n") == ["SIM001"]

    def test_monotonic_and_perf_counter_flagged(self):
        src = "import time\na = time.monotonic()\nb = time.perf_counter()\n"
        assert codes(src) == ["SIM001", "SIM001"]

    def test_aliased_import_resolved(self):
        assert codes("import time as t\nx = t.time()\n") == ["SIM001"]

    def test_from_import_flagged_at_import_and_use(self):
        src = "from time import perf_counter\nx = perf_counter()\n"
        assert codes(src) == ["SIM001", "SIM001"]

    def test_datetime_now_flagged(self):
        src = "import datetime\nd = datetime.datetime.now()\n"
        assert codes(src) == ["SIM001"]

    def test_benchmarks_exempt(self):
        assert codes("import time\nt = time.time()\n", path=BENCH_PATH) == []

    def test_sim_now_not_flagged(self):
        assert codes("def f(sim):\n    return sim.now\n") == []

    def test_time_sleep_not_flagged(self):
        # sleep does not *read* a clock; the simulator never calls it but
        # it is not a determinism hazard per se.
        assert codes("import time\ntime.sleep(0.1)\n") == []

    def test_suppression(self):
        src = "import time\nt = time.time()  # simlint: disable=SIM001\n"
        assert codes(src) == []


class TestSIM002Rng:
    def test_import_random_flagged(self):
        assert codes("import random\n") == ["SIM002"]

    def test_from_random_import_flagged(self):
        assert codes("from random import shuffle\n") == ["SIM002"]

    def test_random_attribute_flagged(self):
        src = "import random  # simlint: disable=SIM002\nx = random.random()\n"
        assert codes(src) == ["SIM002"]

    def test_unseeded_default_rng_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert codes(src) == ["SIM002"]

    def test_seeded_default_rng_ok(self):
        assert codes("import numpy as np\nrng = np.random.default_rng(42)\n") == []

    def test_generator_construction_ok(self):
        src = (
            "import numpy as np\n"
            "g = np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))\n"
        )
        assert codes(src) == []

    def test_suppression(self):
        assert codes("import random  # simlint: disable=SIM002\n") == []


class TestSIM006NumpyGlobalState:
    def test_np_random_rand_flagged(self):
        assert codes("import numpy as np\nx = np.random.rand(3)\n") == ["SIM006"]

    def test_np_random_seed_flagged(self):
        assert codes("import numpy as np\nnp.random.seed(0)\n") == ["SIM006"]

    def test_full_numpy_spelling_flagged(self):
        src = "import numpy\nx = numpy.random.uniform(0, 1)\n"
        assert codes(src) == ["SIM006"]

    def test_unimported_np_convention_flagged(self):
        # np. is resolved by convention even without the import in scope
        # (fixture snippets, doctest fragments).
        assert codes("x = np.random.shuffle(xs)\n") == ["SIM006"]

    def test_seeded_default_rng_not_sim006(self):
        # Construction through the accepted entry points is SIM002's
        # business (and only when unseeded), never SIM006.
        assert codes("import numpy as np\nrng = np.random.default_rng(7)\n") == []

    def test_spawned_generator_draws_ok(self):
        src = ("import numpy as np\n"
               "rng = np.random.default_rng(7)\n"
               "gaps = rng.exponential(1.0, 4096)\n")
        assert codes(src) == []

    def test_suppression(self):
        src = ("import numpy as np\n"
               "np.random.seed(0)  # simlint: disable=SIM006\n")
        assert codes(src) == []


class TestSIM003SetIteration:
    def test_for_over_set_literal_flagged(self):
        assert codes("for x in {1, 2, 3}:\n    pass\n") == ["SIM003"]

    def test_for_over_set_call_flagged(self):
        assert codes("for x in set([3, 1]):\n    pass\n") == ["SIM003"]

    def test_for_over_tracked_name_flagged(self):
        src = "s = {1, 2}\nfor x in s:\n    pass\n"
        assert codes(src) == ["SIM003"]

    def test_set_operator_flagged(self):
        src = "a = {1}\nb = {2}\nfor x in a | b:\n    pass\n"
        assert codes(src) == ["SIM003"]

    def test_comprehension_over_set_flagged(self):
        assert codes("xs = [x for x in {1, 2}]\n") == ["SIM003"]

    def test_annotation_tracks_setness(self):
        src = "def f(items):\n    s: set = items\n    return [x for x in s]\n"
        assert codes(src) == ["SIM003"]

    def test_sorted_set_ok(self):
        assert codes("for x in sorted({3, 1}):\n    pass\n") == []

    def test_list_iteration_ok(self):
        assert codes("xs = [1, 2]\nfor x in xs:\n    pass\n") == []

    def test_set_comp_from_set_ok(self):
        # set -> set is order-free; only ordered sinks need sorting.
        assert codes("s = {1, 2}\nt = {x + 1 for x in s}\n") == []

    def test_reassignment_clears_setness(self):
        src = "s = {1}\ns = sorted(s)\nfor x in s:\n    pass\n"
        assert codes(src) == []

    def test_suppression(self):
        src = "for x in {1, 2}:  # simlint: disable=SIM003\n    pass\n"
        assert codes(src) == []


class TestSIM004HeapTieBreaker:
    def test_bare_two_tuple_flagged(self):
        src = (
            "import heapq\nh = []\n"
            "heapq.heappush(h, (1.0, object()))\n"
        )
        assert codes(src) == ["SIM004"]

    def test_from_import_two_tuple_flagged(self):
        src = (
            "from heapq import heappush\nh = []\n"
            "heappush(h, (1.0, 'payload'))\n"
        )
        assert codes(src) == ["SIM004"]

    def test_three_tuple_with_seq_ok(self):
        src = (
            "import heapq\nh = []\nseq = 0\n"
            "heapq.heappush(h, (1.0, seq, object()))\n"
        )
        assert codes(src) == []

    def test_scalar_entry_ok(self):
        assert codes("import heapq\nh = []\nheapq.heappush(h, 1.0)\n") == []

    def test_suppression(self):
        src = (
            "import heapq\nh = []\n"
            "heapq.heappush(h, (1.0, 2))  # simlint: disable=SIM004\n"
        )
        assert codes(src) == []


class TestSIM005ParallelPayloads:
    def test_threading_import_flagged_in_experiments(self):
        assert codes("import threading\n", path=EXP_PATH) == ["SIM005"]

    def test_threading_use_flagged_in_experiments(self):
        src = ("import threading  # simlint: disable=SIM005\n"
               "lock = threading.Lock()\n")
        assert codes(src, path=EXP_PATH) == ["SIM005"]

    def test_threading_elsewhere_ok(self):
        assert codes("import threading\n", path=SIM_PATH) == []

    def test_global_in_parallel_module_flagged(self):
        src = "state = {}\ndef worker():\n    global state\n    state['x'] = 1\n"
        assert codes(src, path=PAR_PATH) == ["SIM005"]

    def test_global_elsewhere_ok(self):
        src = "state = {}\ndef worker():\n    global state\n    state['x'] = 1\n"
        assert codes(src, path=EXP_PATH) == []

    def test_suppression(self):
        assert codes("import threading  # simlint: disable=SIM005\n",
                     path=EXP_PATH) == []


class TestSIM007ShardSafety:
    def test_os_cpu_count_flagged(self):
        src = "import os\ndef plan():\n    return os.cpu_count()\n"
        assert codes(src) == ["SIM007"]

    def test_multiprocessing_cpu_count_flagged(self):
        src = ("import multiprocessing\n"
               "def plan():\n    return multiprocessing.cpu_count()\n")
        assert codes(src) == ["SIM007"]

    def test_from_import_cpu_count_flagged(self):
        src = "from os import cpu_count\ndef plan():\n    return cpu_count()\n"
        assert codes(src) == ["SIM007"]

    def test_cpu_count_inside_default_jobs_ok(self):
        src = ("import os\n"
               "def default_jobs():\n"
               "    return max(1, os.cpu_count() or 1)\n")
        assert codes(src, path=PAR_PATH) == []

    def test_cpu_count_in_benchmarks_ok(self):
        src = "import os\ndef plan():\n    return os.cpu_count()\n"
        assert codes(src, path=BENCH_PATH) == []

    def test_sched_getaffinity_ok(self):
        src = ("import os\n"
               "def plan():\n    return len(os.sched_getaffinity(0))\n")
        assert codes(src) == []

    def test_worker_reading_mutable_global_flagged(self):
        src = ("CACHE = {}\n"
               "def _shard_worker_main(conn, task):\n"
               "    return CACHE.get(task)\n")
        assert codes(src) == ["SIM007"]

    def test_task_suffix_flagged(self):
        src = ("RESULTS = []\n"
               "def _figure_task(task):\n"
               "    RESULTS.append(task)\n")
        assert codes(src) == ["SIM007"]

    def test_local_shadow_ok(self):
        src = ("CACHE = {}\n"
               "def _shard_worker_main(conn, task):\n"
               "    CACHE = dict(task)\n"
               "    return CACHE.get(task)\n")
        assert codes(src) == []

    def test_locally_imported_name_ok(self):
        # parallel._figure_task pattern: the registry is imported inside
        # the worker body, never read from module scope.
        src = ("def _figure_task(task):\n"
               "    from repro.experiments.figures import ALL_FIGURES\n"
               "    name, kwargs = task\n"
               "    return name, ALL_FIGURES[name](**kwargs)\n")
        assert codes(src) == []

    def test_immutable_globals_ok(self):
        src = ("LIMIT = 3\n"
               "NAMES = ('a', 'b')\n"
               "def _shard_worker_main(conn, task):\n"
               "    return LIMIT + len(NAMES)\n")
        assert codes(src) == []

    def test_non_worker_function_ok(self):
        src = ("CACHE = {}\n"
               "def main():\n    return CACHE\n"
               "def lookup(k):\n    return CACHE.get(k)\n")
        assert codes(src) == []

    def test_suppression(self):
        src = ("CACHE = {}\n"
               "def _shard_worker_main(conn, task):\n"
               "    return CACHE.get(task)  # simlint: disable=SIM007\n")
        assert codes(src) == []


def project_codes(tmp_path, files):
    """Write a {relpath: source} project and whole-program lint it."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        init = target.parent / "__init__.py"
        if not init.exists():
            init.write_text("")
    return lint_paths([str(tmp_path)])


class TestSIM008LabelCollisions:
    def test_cross_module_collision_flagged_at_both_sites(self, tmp_path):
        vs = project_codes(tmp_path, {
            "pkg/a.py": ("def setup(streams, name):\n"
                         "    return streams.get(f'client:{name}')\n"),
            "pkg/b.py": ("def setup(streams, name):\n"
                         "    return streams.get(f'client:{name}')\n"),
        })
        assert [v.code for v in vs] == ["SIM008", "SIM008"]
        assert {v.path.rsplit("/", 1)[1] for v in vs} == {"a.py", "b.py"}
        assert "client:{}" in vs[0].message

    def test_same_module_reuse_not_flagged(self, tmp_path):
        vs = project_codes(tmp_path, {
            "pkg/a.py": ("def f(streams):\n"
                         "    return streams.get('arrivals')\n"
                         "def g(streams):\n"
                         "    return streams.get('arrivals')\n"),
        })
        assert vs == []

    def test_distinct_shapes_not_flagged(self, tmp_path):
        vs = project_codes(tmp_path, {
            "pkg/a.py": ("def f(streams, n):\n"
                         "    return streams.get(f'client:{n}')\n"),
            "pkg/b.py": ("def f(streams, n):\n"
                         "    return streams.get(f'server:{n}')\n"),
        })
        assert vs == []

    def test_shared_helper_origin_sanctioned(self, tmp_path):
        # Both modules mint the label through one canonical helper: the
        # helper is the audit point, so the sharing is coordination —
        # the protocol/membership link-stream continuation pattern.
        vs = project_codes(tmp_path, {
            "pkg/names.py": ("def link_name(s, d):\n"
                             "    return f'link:{s}->{d}'\n"),
            "pkg/a.py": ("from pkg.names import link_name\n"
                         "def f(streams, s, d):\n"
                         "    return streams.get(link_name(s, d))\n"),
            "pkg/b.py": ("from pkg.names import link_name\n"
                         "def f(streams, s, d):\n"
                         "    return streams.get(link_name(s, d))\n"),
        })
        assert vs == []

    def test_helper_plus_inline_spelling_still_collides(self, tmp_path):
        vs = project_codes(tmp_path, {
            "pkg/names.py": ("def link_name(s, d):\n"
                             "    return f'link:{s}->{d}'\n"),
            "pkg/a.py": ("from pkg.names import link_name\n"
                         "def f(streams, s, d):\n"
                         "    return streams.get(link_name(s, d))\n"),
            "pkg/b.py": ("def f(streams, s, d):\n"
                         "    return streams.get(f'link:{s}->{d}')\n"),
        })
        assert [v.code for v in vs] == ["SIM008", "SIM008"]

    def test_dynamic_label_flagged(self, tmp_path):
        vs = project_codes(tmp_path, {
            "pkg/a.py": ("def f(streams, parts):\n"
                         "    return streams.get('-'.join(parts))\n"),
        })
        assert [v.code for v in vs] == ["SIM008"]
        assert "not statically resolvable" in vs[0].message

    def test_local_variable_label_resolved(self, tmp_path):
        vs = project_codes(tmp_path, {
            "pkg/a.py": ("def f(streams, n):\n"
                         "    label = f'node:{n}'\n"
                         "    return streams.get(label)\n"),
            "pkg/b.py": ("def f(streams, n):\n"
                         "    return streams.get(f'node:{n}')\n"),
        })
        assert [v.code for v in vs] == ["SIM008", "SIM008"]

    def test_dict_get_not_mistaken_for_stream(self, tmp_path):
        vs = project_codes(tmp_path, {
            "pkg/a.py": ("def f(cache, key):\n"
                         "    return cache.get(key, None)\n"),
            "pkg/b.py": ("def f(config):\n"
                         "    return config.get('mode')\n"),
        })
        assert vs == []

    def test_numpy_spawn_int_ignored(self, tmp_path):
        vs = project_codes(tmp_path, {
            "pkg/a.py": ("def f(rng):\n    return rng.spawn(3)\n"),
            "pkg/b.py": ("def f(rng):\n    return rng.spawn(3)\n"),
        })
        assert vs == []

    def test_suppression_applies_to_project_findings(self, tmp_path):
        vs = project_codes(tmp_path, {
            "pkg/a.py": ("def f(streams, n):\n"
                         "    return streams.get(f'x:{n}')"
                         "  # simlint: disable=SIM008\n"),
            "pkg/b.py": ("def f(streams, n):\n"
                         "    return streams.get(f'x:{n}')"
                         "  # simlint: disable=SIM008\n"),
        })
        assert vs == []


class TestSIM009TransitiveImpurity:
    def test_cross_module_impure_helper_flagged(self, tmp_path):
        vs = project_codes(tmp_path, {
            "pkg/state.py": ("CACHE = {}\n"
                             "def lookup(k):\n"
                             "    return CACHE.get(k)\n"),
            "pkg/work.py": ("from pkg.state import lookup\n"
                            "def run_task(task):\n"
                            "    return lookup(task)\n"),
        })
        assert [v.code for v in vs] == ["SIM009"]
        assert "CACHE" in vs[0].message
        assert vs[0].path.endswith("work.py")

    def test_pure_chain_ok(self, tmp_path):
        vs = project_codes(tmp_path, {
            "pkg/helpers.py": ("def double(x):\n    return 2 * x\n"),
            "pkg/work.py": ("from pkg.helpers import double\n"
                            "def run_task(task):\n"
                            "    return double(task)\n"),
        })
        assert vs == []

    def test_two_hop_chain_flagged(self, tmp_path):
        vs = project_codes(tmp_path, {
            "pkg/state.py": ("REGISTRY = []\n"
                             "def record(x):\n"
                             "    REGISTRY.append(x)\n"),
            "pkg/mid.py": ("from pkg.state import record\n"
                           "def log(x):\n    record(x)\n"),
            "pkg/work.py": ("from pkg.mid import log\n"
                            "def run_worker(task):\n"
                            "    log(task)\n"),
        })
        assert [v.code for v in vs] == ["SIM009"]
        assert "log -> record" in vs[0].message

    def test_cycle_terminates_and_flags(self, tmp_path):
        vs = project_codes(tmp_path, {
            "pkg/a.py": ("from pkg.b import pong\n"
                         "STATE = {}\n"
                         "def ping(n):\n"
                         "    return STATE if n == 0 else pong(n - 1)\n"),
            "pkg/b.py": ("from pkg.a import ping\n"
                         "def pong(n):\n    return ping(n)\n"
                         "def run_task(task):\n    return pong(task)\n"),
        })
        assert [v.code for v in vs] == ["SIM009"]

    def test_non_worker_caller_ok(self, tmp_path):
        vs = project_codes(tmp_path, {
            "pkg/state.py": ("CACHE = {}\n"
                             "def lookup(k):\n    return CACHE.get(k)\n"),
            "pkg/work.py": ("from pkg.state import lookup\n"
                            "def query(k):\n    return lookup(k)\n"),
        })
        assert vs == []

    def test_direct_read_is_sim007_not_sim009(self, tmp_path):
        vs = project_codes(tmp_path, {
            "pkg/work.py": ("CACHE = {}\n"
                            "def run_task(task):\n"
                            "    return CACHE.get(task)\n"),
        })
        assert [v.code for v in vs] == ["SIM007"]

    def test_suppression_at_call_site(self, tmp_path):
        vs = project_codes(tmp_path, {
            "pkg/state.py": ("CACHE = {}\n"
                             "def lookup(k):\n    return CACHE.get(k)\n"),
            "pkg/work.py": ("from pkg.state import lookup\n"
                            "def run_task(task):\n"
                            "    return lookup(task)"
                            "  # simlint: disable=SIM009\n"),
        })
        assert vs == []


STATS_PATH = "src/repro/analysis/stats.py"  # digest-sink module


class TestSIM010OrderSensitiveReductions:
    def test_sum_over_set_flagged(self):
        assert codes("total = sum({0.1, 0.2, 0.3})\n") == ["SIM010"]

    def test_sum_over_tracked_set_name_flagged(self):
        src = "xs = {0.1, 0.2}\ntotal = sum(xs)\n"
        assert codes(src) == ["SIM010"]

    def test_min_max_over_set_flagged(self):
        src = "lo = min({1.5, 2.5})\nhi = max({1.5, 2.5})\n"
        assert codes(src) == ["SIM010", "SIM010"]

    def test_sum_over_list_ok(self):
        assert codes("total = sum([0.1, 0.2])\n") == []

    def test_sum_over_sorted_set_ok(self):
        assert codes("total = sum(sorted({0.1, 0.2}))\n") == []

    def test_fsum_exempt(self):
        src = "import math\ntotal = math.fsum({0.1, 0.2})\n"
        assert codes(src) == []

    def test_dict_values_flagged_in_digest_sink(self):
        src = "def digest(d):\n    return sum(d.values())\n"
        assert codes(src, path=STATS_PATH) == ["SIM010"]

    def test_dict_values_ok_outside_digest_sink(self):
        src = "def total(d):\n    return sum(d.values())\n"
        assert codes(src) == []

    def test_suppression(self):
        src = "total = sum({0.1, 0.2})  # simlint: disable=SIM010\n"
        assert codes(src) == []


class TestSIM011TieBreakers:
    def test_keyed_sort_over_set_flagged(self):
        src = ("names = {'b', 'a'}\n"
               "out = sorted(names, key=len)\n")
        assert codes(src) == ["SIM011"]

    def test_keyed_sort_over_list_ok(self):
        assert codes("out = sorted(['b', 'a'], key=len)\n") == []

    def test_unkeyed_sort_over_set_ok(self):
        # Total order over the elements themselves: no tie hazard.
        assert codes("out = sorted({'b', 'a'})\n") == []

    def test_nsmallest_over_set_flagged(self):
        src = ("import heapq\n"
               "xs = {3, 1, 2}\n"
               "out = heapq.nsmallest(2, xs, key=abs)\n")
        assert codes(src) == ["SIM011"]

    def test_heap_triple_without_seq_flagged(self):
        src = ("import heapq\nh = []\n"
               "heapq.heappush(h, (1.0, 'payload', object()))\n")
        assert codes(src) == ["SIM011"]

    def test_heap_triple_with_seq_ok(self):
        src = ("import heapq\nh = []\nseq = 7\n"
               "heapq.heappush(h, (1.0, seq, object()))\n")
        assert codes(src) == []

    def test_heap_triple_with_next_counter_ok(self):
        src = ("import heapq, itertools\nh = []\nc = itertools.count()\n"
               "heapq.heappush(h, (1.0, next(c), object()))\n")
        assert codes(src) == []

    def test_suppression(self):
        src = ("xs = {1, 2}\n"
               "out = sorted(xs, key=abs)  # simlint: disable=SIM011\n")
        assert codes(src) == []


class TestSuppressionSyntax:
    def test_bare_disable_suppresses_all(self):
        src = "import time, random\nt = time.time(); x = random.random()  # simlint: disable\n"
        assert codes(src) == ["SIM002"]  # only the import line still flags

    def test_multi_code_disable(self):
        src = ("import time  # simlint: disable=SIM002\n"
               "t = time.time()  # simlint: disable=SIM001, SIM003\n")
        assert codes(src) == []

    def test_wrong_code_does_not_suppress(self):
        src = "import time\nt = time.time()  # simlint: disable=SIM003\n"
        assert codes(src) == ["SIM001"]


class TestRepoIsClean:
    def test_src_repro_lints_clean(self):
        pkg = REPO / "src" / "repro"
        violations = lint_paths([str(pkg)])
        assert violations == [], "\n".join(v.format() for v in violations)


DIRTY = "import time\nt = time.time()\n"          # one SIM001 finding
CLEAN = "def f(sim):\n    return sim.now\n"


def write_project(tmp_path, files):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return [str(tmp_path / rel) for rel in files]


class TestFormats:
    def test_text(self, tmp_path):
        (path,) = write_project(tmp_path, {"a.py": DIRTY})
        text = format_text(lint_paths([path]))
        assert "SIM001" in text and "1 violation(s)" in text
        assert format_text([]) == "simlint: clean"


class TestRunExitCodes:
    def test_clean_exits_zero(self, tmp_path):
        paths = write_project(tmp_path, {"a.py": CLEAN})
        out = io.StringIO()
        assert run(paths, stream=out) == 0
        assert "clean" in out.getvalue()

    def test_findings_exit_one(self, tmp_path):
        paths = write_project(tmp_path, {"a.py": DIRTY})
        assert run(paths, stream=io.StringIO()) == 1

    def test_usage_errors_raise_for_exit_two(self, tmp_path):
        with pytest.raises(ValueError):
            run([str(tmp_path / "missing.py")], stream=io.StringIO())
        paths = write_project(tmp_path, {"a.py": "def f(:\n"})
        with pytest.raises(ValueError):
            run(paths, stream=io.StringIO())

    def test_cli_main_maps_usage_errors_to_two(self, tmp_path):
        paths = write_project(tmp_path, {"a.py": CLEAN, "b.py": DIRTY})
        assert main([paths[0]]) == 0
        assert main([paths[1]]) == 1
        assert main([str(tmp_path / "gone.py")]) == 2


class TestSeparation:
    def test_simulator_imports_load_no_simlint(self):
        # simlint must be importable in the child, so a stray import of it
        # anywhere in the simulator would show up in sys.modules.
        code = (
            "import sys\n"
            "import repro, repro.experiments.harness, repro.experiments.figures\n"
            "import repro.experiments.sharded, repro.analysis.replay\n"
            "print(sorted(m for m in sys.modules if 'simlint' in m))\n"
        )
        path = [str(REPO / "src"), str(REPO / "tools")]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"

    def test_tool_imports_nothing_from_repro(self):
        for path in sorted((REPO / "tools" / "simlint").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                roots = {name.partition(".")[0] for name in names}
                assert "repro" not in roots, f"{path.name}:{node.lineno}"
