"""CLI entry point."""

import pytest

from repro.cli import main, parse_graph_spec


class TestParseGraphSpec:
    def test_principals_and_agreements(self):
        g = parse_graph_spec(["A:1000", "B:1500", "C", "A-B:0.4:0.6", "B-C:0.6:1.0"])
        assert g.names == ["A", "B", "C"]
        assert g.principal("A").capacity == 1000.0
        assert g.principal("C").capacity == 0.0
        assert g.agreement("A", "B").ub == pytest.approx(0.6)

    def test_point_agreement(self):
        g = parse_graph_spec(["A:10", "B", "A-B:0.5"])
        a = g.agreement("A", "B")
        assert (a.lb, a.ub) == (0.5, 0.5)

    def test_malformed_agreement(self):
        with pytest.raises(ValueError):
            parse_graph_spec(["A", "B", "A-B-C:0.5"])

    def test_malformed_principal(self):
        with pytest.raises(ValueError):
            parse_graph_spec(["A:1:2:3"])


class TestCommands:
    def test_inspect(self, capsys):
        rc = main(["inspect", "A:1000", "B:1500", "C", "A-B:0.4:0.6", "B-C:0.6:1.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1140.0" in out      # C's transitive mandatory
        assert "C on B" in out

    def test_inspect_bad_spec_returns_error(self, capsys):
        rc = main(["inspect", "A-B:0.4"])       # unknown principals
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_figures_subset(self, capsys):
        rc = main(["figures", "--only", "fig1,fig3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fig1: ok" in out and "fig3: ok" in out

    def test_figures_unknown_id(self, capsys):
        rc = main(["figures", "--only", "fig99"])
        assert rc == 1
        assert "unknown figure" in capsys.readouterr().out

    def test_report_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        rc = main([
            "report", "--scale", "0.06", "--output", str(out_file),
        ])
        assert rc == 0
        text = out_file.read_text()
        assert "fig3" in text
        assert "reproduced exactly: yes" in text

    def test_figures_plot_flag(self, capsys):
        rc = main(["figures", "--only", "fig7", "--scale", "0.1", "--plot"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fig7: ok" in out
        assert "|" in out and "* A" in out   # the terminal chart rendered

    def test_figures_scalar_lane_runs_the_per_packet_path(self, capsys, monkeypatch):
        from repro.l4.switch import L4Switch

        lanes = []
        init = L4Switch.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            lanes.append(self.fast_lane)

        monkeypatch.setattr(L4Switch, "__init__", spy)
        rc = main(["figures", "--only", "fig9", "--scale", "0.1",
                   "--lane", "scalar"])
        assert rc == 0
        assert "fig9: ok" in capsys.readouterr().out
        assert lanes == [False]

    def test_figures_lane_with_shards_is_a_usage_error(self, capsys):
        rc = main(["figures", "--only", "fig6", "--scale", "0.05",
                   "--lane", "columnar", "--shards", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "lane='columnar'" in err and "shards=2" in err

    def test_baseline(self, capsys):
        rc = main(["baseline", "--duration", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "coordinated" in out and "wrr" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestChaosSharded:
    """``chaos --shards R`` exit-code contract: 0 parity, 1 diverged,
    2 invalid plan (typed error on stderr, never a traceback)."""

    SCALE = "0.02"   # 60-epoch fig6 world: fast but non-degenerate

    def _plan(self, tmp_path, shard=0, at=2.0, mode="exc"):
        from repro.faults.plan import FaultPlan, ShardRevoke

        path = tmp_path / "plan.json"
        path.write_text(FaultPlan(
            events=[ShardRevoke(at=at, shard=shard, mode=mode)],
            name="one-death",
        ).to_json())
        return str(path)

    def test_matrix_parity_exits_zero(self, capsys):
        rc = main(["chaos", "--shards", "2", "--scale", self.SCALE])
        out = capsys.readouterr().out
        assert rc == 0
        assert "crash-recovery matrix" in out
        for cell in ("exc", "kill", "multi", "reassign"):
            assert cell in out
        assert "MISMATCH" not in out

    def test_plan_with_valid_shard_exits_zero(self, tmp_path, capsys):
        rc = main(["chaos", "--shards", "2", "--scale", self.SCALE,
                   "--plan", self._plan(tmp_path, shard=1)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "shard 1: exc at epoch" in out
        assert "digest match" in out

    def test_out_of_range_shard_is_typed_exit_two(self, tmp_path, capsys):
        rc = main(["chaos", "--shards", "2", "--scale", self.SCALE,
                   "--plan", self._plan(tmp_path, shard=7)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error:" in captured.err
        assert "shard 7 out of range" in captured.err
        assert "Traceback" not in captured.err

    def test_one_shard_matrix_is_typed_exit_two(self, capsys):
        # shards=1 runs inline, where no worker death can fire: the
        # matrix must refuse instead of passing its cells vacuously.
        rc = main(["chaos", "--shards", "1", "--scale", self.SCALE])
        captured = capsys.readouterr()
        assert rc == 2
        assert "would not fire" in captured.err
        assert "Traceback" not in captured.err

    def test_random_with_shards_rejected(self, capsys):
        rc = main(["chaos", "--shards", "2", "--random", "3"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error:" in captured.err

    def test_save_plan_writes_canonical_shard_plan(self, tmp_path, capsys):
        from repro.faults.plan import FaultPlan, ShardRevoke

        out_file = tmp_path / "shard-plan.json"
        rc = main(["chaos", "--shards", "2", "--scale", self.SCALE,
                   "--save-plan", str(out_file)])
        assert rc == 0
        plan = FaultPlan.from_json(out_file.read_text())
        assert all(isinstance(ev, ShardRevoke) for ev in plan.events)
        assert {ev.mode for ev in plan.events} == {"exc", "kill"}
