"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig1_defaults(self):
        args = build_parser().parse_args(["fig1"])
        assert args.seed == 1
        assert args.samples == 60

    def test_fig9a_lists(self):
        args = build_parser().parse_args(
            ["fig9a", "--densities", "6", "8", "--seeds", "3"]
        )
        assert args.densities == [6, 8]
        assert args.seeds == [3]

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "fig9a"])
        assert args.spec == "fig9a"
        assert args.jobs >= 1
        assert args.retries == 1
        assert args.timeout is None
        assert args.out is None
        assert not args.resume

    def test_sweep_flags(self):
        args = build_parser().parse_args(
            [
                "sweep", "fig9a", "--jobs", "4", "--resume", "--timeout", "60",
                "--out", "x.jsonl", "--densities", "4", "6", "--seeds", "1",
                "--techs", "LTE", "CellFi",
            ]
        )
        assert args.jobs == 4
        assert args.resume
        assert args.timeout == 60.0
        assert args.out == "x.jsonl"
        assert args.densities == [4, 6]
        assert args.techs == ["LTE", "CellFi"]

    def test_sweep_unknown_spec_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "fig99"])

    def test_sweep_spec_builders_cover_all_choices(self):
        from repro.cli import SWEEP_SPECS, build_sweep_spec

        defaults = build_parser().parse_args(["sweep", "fig9a"])
        for name in SWEEP_SPECS:
            defaults.spec = name
            spec = build_sweep_spec(defaults)
            assert len(spec) >= 1, name


class TestExecution:
    def test_fig6_runs(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "vacate latency" in out
        assert "ETSI compliant: True" in out

    def test_prach_runs(self, capsys):
        assert main(["prach", "--trials", "10"]) == 0
        out = capsys.readouterr().out
        assert "complexity ratio" in out

    def test_convergence_runs(self, capsys):
        assert main(["convergence", "--sizes", "8", "--replications", "3"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 1" in out

    def test_fig1_runs(self, capsys):
        assert main(["fig1", "--samples", "10"]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out

    def test_sweep_runs_convergence_grid(self, capsys, tmp_path):
        out_path = tmp_path / "conv.jsonl"
        code = main(
            [
                "sweep", "convergence", "--sizes", "8", "--fadings", "0.0",
                "--replications", "2", "--jobs", "2", "--out", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 cells (1 computed, 0 reused" in out
        assert "Sweep outcomes" in out
        assert out_path.exists()
        # Re-run with --resume: everything comes from the cache.
        code = main(
            [
                "sweep", "convergence", "--sizes", "8", "--fadings", "0.0",
                "--replications", "2", "--jobs", "2", "--out", str(out_path),
                "--resume",
            ]
        )
        assert code == 0
        assert "0 computed, 1 reused" in capsys.readouterr().out


class TestShardValidation:
    """Early validation of --shards / retry-budget / chaos combinations."""

    @staticmethod
    def _validate(argv):
        from repro.cli import _validate_shard_args

        _validate_shard_args(build_parser().parse_args(argv))

    def test_zero_shards_rejected(self):
        with pytest.raises(SystemExit, match="--shards must be >= 1"):
            self._validate(["fig9a", "--shards", "0"])

    def test_supervision_flags_require_shards(self):
        with pytest.raises(SystemExit, match="pass --shards N"):
            self._validate(["fig9a", "--chaos", "kill@2:0"])
        with pytest.raises(SystemExit, match="pass --shards N"):
            self._validate(["fig9a", "--shards", "1", "--shard-retry-budget", "2"])

    def test_bad_chaos_spec_rejected(self):
        with pytest.raises(SystemExit, match="bad --chaos spec"):
            self._validate(["fig9a", "--shards", "2", "--chaos", "explode@1:0"])
        with pytest.raises(SystemExit, match="bad --chaos spec"):
            self._validate(["fig9a", "--shards", "2", "--chaos", "kill@x"])

    def test_negative_retry_budget_rejected(self):
        with pytest.raises(SystemExit, match="--shard-retry-budget must be >= 0"):
            self._validate(
                ["fig9a", "--shards", "2", "--shard-retry-budget", "-1"]
            )

    def test_oracle_cannot_shard(self):
        with pytest.raises(SystemExit, match="Oracle"):
            self._validate(
                ["sweep", "fig9b", "--shards", "2", "--techs", "Oracle"]
            )

    def test_valid_supervised_combination_accepted(self):
        self._validate(
            [
                "fig9a", "--shards", "2",
                "--chaos", "kill@3:1,seed=7,malformed=0.05",
                "--shard-retry-budget", "2",
            ]
        )

    def test_sweep_shard_flags_default_to_none(self):
        args = build_parser().parse_args(["sweep", "fig9a"])
        assert args.chaos is None
        assert args.shard_retry_budget is None
