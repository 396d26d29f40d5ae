"""Self-test of the benchmark harness (not of the program it measures).

Run explicitly: ``pytest benchmarks/e2e``.  Not part of tier-1 ``testpaths``.
Everything runs at ``--smoke`` scale (1/50 of the measured timelines).
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare                      # noqa: E402
import run                          # noqa: E402
from check import check             # noqa: E402
from workloads import WARMUP_SCALE, WORKLOADS   # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in CONTRACT["workloads"]]
E2E_NAMES = [m["name"] for m in CONTRACT["end_to_end"]]
LAYER_NAMES = [m["name"] for m in CONTRACT["per_layer"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``run.py --smoke --trace`` for the whole module (< 60 s)."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {"results": json.loads(out.read_text()),
            "spans": json.loads(Path(f"{out}.trace.json").read_text()),
            "stdout": proc.stdout, "path": out}


def test_contract_names_are_well_formed():
    names = WORKLOAD_NAMES + E2E_NAMES + LAYER_NAMES
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(m["unit"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"])
    assert "setup_s" in E2E_NAMES
    assert CONTRACT["paths"] == ["benchmarks/e2e"]


def test_smoke_emits_exactly_the_declared_names(smoke):
    workloads = smoke["results"]["workloads"]
    assert list(workloads) == WORKLOAD_NAMES
    for name, entry in workloads.items():
        assert entry["failed_runs"] == 0 and entry["correct"], entry["problems"]
        # paper_dev_pct (the worst row) is printed beside the bounded
        # paper_match_pct; everything else is exactly the contract's list.
        assert sorted(set(entry["samples"]) - {"paper_dev_pct"}) == sorted(E2E_NAMES)
        assert list(entry["per_layer"]) == LAYER_NAMES
        assert all(m["unit"] for m in entry["metrics"].values())
        for metric in E2E_NAMES + LAYER_NAMES:
            assert re.search(rf"^\s+{re.escape(metric)}\s", smoke["stdout"], re.M), metric
    assert smoke["results"]["claim"] is None
    assert set(smoke["results"]["fingerprint"]) == {
        "cores", "python", "numpy", "scipy", "platform", "loadavg_1m"}


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_mode_prints_the_contract_result_line(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "paper_l4", "--smoke",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    declared = CONTRACT["per_layer"] if trace else CONTRACT["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_self_times_add_up_to_sim_run(smoke):
    for name in ("paper_l7", "paper_l4", "mega_columnar"):
        spans = smoke["spans"][name]["spans"]
        run_total = sum(s["total_s"] for s in spans if s["span"] == "sim.run")
        # Everything but the entry-point bookkeeping happens under sim.run.
        inside = sum(s["self_s"] for s in spans
                     if not s["span"].startswith(("experiments.", "core.")))
        assert run_total > 0
        assert abs(inside - run_total) <= 0.01 * run_total, (name, inside, run_total)
        assert run_total == pytest.approx(
            smoke["results"]["workloads"][name]["per_layer"]["sim.run_s"])


def test_wrappers_are_fully_removed_after_a_traced_run():
    from tracing import Tracer

    before = [(owner, attr, owner.__dict__[attr]) for owner, attr in Tracer.patched_sites()]
    tracer = Tracer().install()
    try:
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in before)
        out = WORKLOADS["paper_l4"](WARMUP_SCALE, 0)
    finally:
        tracer.uninstall()
    assert tracer.layer_metrics(out.entry_marks)["l4.handle_calls"] > 0
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)


def test_untraced_worker_never_imports_the_wrapper_code():
    code = (
        "import sys, os, time; sys.path.insert(0, sys.argv[1]);"
        "os.environ['E2E_SPAWNED_AT'] = repr(time.monotonic());"
        "import worker;"
        "worker.main(['--workload', 'paper_l4', '--scale', '0.02']);"
        "assert 'tracing' not in sys.modules"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(HERE)],
                          env={"PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# -- the correctness check fails on doctored results ----------------------------

def test_check_rejects_a_phase_rate_off_by_30_percent():
    # 3200x fig6 load keeps the sharded phase rates steady even at 1/50 scale.
    out = WORKLOADS["sharded_2"](WARMUP_SCALE, 0)
    assert check("sharded_2", out) == []
    out.figures[0].phases[0].rates["A"] *= 1.3
    assert any("outside tolerance" in p for p in check("sharded_2", out))


def test_check_rejects_a_lane_fallback_and_lost_requests():
    out = WORKLOADS["mega_columnar"](WARMUP_SCALE, 0)
    assert check("mega_columnar", out, paper_rates=False) == []
    out.facts["lane_fallback"] = "tracing needs per-request events"
    assert any("fell back" in p for p in check("mega_columnar", out, paper_rates=False))
    out.facts["lane_fallback"] = None
    out.facts["columnar_requests"] -= 1
    assert any("carried" in p for p in check("mega_columnar", out, paper_rates=False))


def test_check_rejects_broken_conservation():
    out = WORKLOADS["paper_l4"](WARMUP_SCALE, 0)
    assert check("paper_l4", out, paper_rates=False) == []
    out.capacity_s[0] *= 0.5
    assert any("capacity x duration" in p for p in check("paper_l4", out, paper_rates=False))


def test_a_differing_digest_between_passes_is_a_problem():
    same = [{"output_digest": "aa"}, {"output_digest": "aa"}]
    assert run.digest_problems(same) == []
    assert run.digest_problems(same + [{"output_digest": "ab"}])


# -- compare.py -----------------------------------------------------------------

def test_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(steady, [x * 1.02 for x in steady], "lower", 0.10) == "unchanged"
    assert compare.verdict(steady, [x * 1.20 for x in steady], "lower", 0.10) == "regressed"
    assert compare.verdict(steady, [x * 0.80 for x in steady], "higher", 0.10) == "regressed"
    noisy = [10.0, 12.5, 8.0, 11.5, 9.0]
    assert compare.verdict(noisy, noisy, "lower", 0.10) == "unresolved"
    assert compare.verdict(noisy, [x * 0.5 for x in noisy], "lower", 0.10) == "better"


def test_compare_agrees_with_itself_and_refuses_another_machine(smoke, tmp_path):
    path = str(smoke["path"])
    assert compare.main([path, path]) == 0
    other = json.loads(smoke["path"].read_text())
    other["fingerprint"]["cores"] += 1
    elsewhere = tmp_path / "elsewhere.json"
    elsewhere.write_text(json.dumps(other))
    assert compare.main([path, str(elsewhere)]) == 1
    assert compare.main([path, str(elsewhere), "--force"]) == 0
    other["fingerprint"]["cores"] -= 1
    other["workloads"]["paper_l4"]["output_digest"] = "0" * 64
    elsewhere.write_text(json.dumps(other))
    assert compare.main([path, str(elsewhere)]) == 1
