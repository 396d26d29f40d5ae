"""Replay-determinism harness: digests agree across runs and with checks on."""

import pytest

from repro.analysis.replay import ReplayReport, figure_replay


class TestFig6Replay:
    def test_bit_identical_with_and_without_checker(self):
        rep = figure_replay("fig6", duration_scale=0.02, seed=0, runs=2)
        assert rep.identical, rep.render()
        assert rep.checker_summary is not None
        assert rep.checker_summary["violations"] == 0
        assert rep.checker_summary["checks_run"] > 0
        assert rep.ok

    def test_seed_changes_digest(self):
        a = figure_replay("fig6", duration_scale=0.02, seed=0, runs=1,
                          with_invariants=True)
        b = figure_replay("fig6", duration_scale=0.02, seed=1, runs=1,
                          with_invariants=True)
        assert a.digests[0] != b.digests[0]

    def test_only_lane_selecting_figures(self):
        with pytest.raises(ValueError, match="figure_replay supports"):
            figure_replay("fig1")


class TestReplayReport:
    def test_diverged_report_not_ok(self):
        rep = ReplayReport(scenario="x", digests=["aa", "bb"],
                           labels=["run 1", "run 2"])
        assert not rep.identical
        assert not rep.ok
        assert "DIVERGED" in rep.render()

    def test_violations_fail_even_when_identical(self):
        rep = ReplayReport(
            scenario="x", digests=["aa", "aa"], labels=["run 1", "run 2"],
            checker_summary={"checks_run": 5, "violations": 1},
        )
        assert rep.identical and not rep.ok

    def test_render_lists_all_runs(self):
        rep = ReplayReport(scenario="x", digests=["aa", "aa"],
                           labels=["run 1", "run 2"])
        out = rep.render()
        assert "run 1" in out and "run 2" in out and "IDENTICAL" in out
