"""Tests for the benchmark-report generator."""

import json

import pytest

from repro.utils.reportgen import (
    collect_results,
    load_sweep_records,
    render_report,
    sweep_metric_table,
    sweep_outcome_summary,
    write_report,
)


@pytest.fixture
def results_dir(tmp_path):
    directory = tmp_path / "results"
    directory.mkdir()
    (directory / "fig1.txt").write_text("figure one body\n")
    (directory / "table1.txt").write_text("table one body\n")
    (directory / "custom.txt").write_text("custom artefact\n")
    return directory


class TestCollect:
    def test_reads_all_artefacts(self, results_dir):
        artefacts = collect_results(results_dir)
        assert set(artefacts) == {"fig1", "table1", "custom"}
        assert artefacts["fig1"] == "figure one body"

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            collect_results(tmp_path / "nope")


class TestRender:
    def test_sections_in_paper_order(self, results_dir):
        report = render_report(collect_results(results_dir))
        table_pos = report.index("Table 1")
        fig1_pos = report.index("Figure 1")
        assert table_pos < fig1_pos

    def test_unknown_artefacts_kept(self, results_dir):
        report = render_report(collect_results(results_dir))
        assert "custom artefact" in report
        assert "Other results" in report

    def test_missing_benchmarks_listed(self, results_dir):
        report = render_report(collect_results(results_dir))
        assert "Missing artefacts" in report
        assert "fig9a" in report

    def test_bodies_fenced(self, results_dir):
        report = render_report(collect_results(results_dir))
        assert "```\nfigure one body\n```" in report


class TestWrite:
    def test_writes_default_location(self, results_dir):
        output = write_report(results_dir)
        assert output == results_dir.parent / "REPORT.md"
        assert "figure one body" in output.read_text()

    def test_explicit_output(self, results_dir, tmp_path):
        target = tmp_path / "out.md"
        assert write_report(results_dir, target) == target
        assert target.exists()


def _record(seed, tech, status="ok", coverage=0.9):
    return {
        "task_id": seed,
        "config_hash": f"h{seed}{tech}",
        "scenario": "large_scale_saturated",
        "params": {"seed": seed, "tech": tech, "epochs": 4},
        "status": status,
        "attempts": 1,
        "wall_time_s": 0.5,
        "metrics": {} if status != "ok" else {
            "connected_fraction": coverage,
            "tech": tech,
            "throughput_bps": [1.0, 2.0],
        },
        "error": None if status == "ok" else "boom",
    }


@pytest.fixture
def sweep_log(tmp_path):
    path = tmp_path / "sweep.jsonl"
    records = [
        _record(1, "LTE", coverage=0.8),
        _record(2, "LTE", coverage=0.9),
        _record(1, "CellFi", coverage=1.0),
        _record(2, "CellFi", coverage=0.9),
        _record(3, "CellFi", status="timeout"),
    ]
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return path


class TestSweepAggregation:
    def test_load_skips_torn_lines(self, sweep_log):
        text = sweep_log.read_text()
        sweep_log.write_text(text + '{"task_id": 9, "status')
        assert len(load_sweep_records(sweep_log)) == 5

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_sweep_records(tmp_path / "none.jsonl")

    def test_outcome_summary_counts(self, sweep_log):
        summary = sweep_outcome_summary(load_sweep_records(sweep_log))
        assert "large_scale_saturated" in summary
        row = [l for l in summary.splitlines() if "large_scale" in l][0]
        cells = [c.strip() for c in row.split("|")]
        assert cells[1:5] == ["5", "4", "0", "1"]

    def test_metric_table_groups_by_varying_non_seed_params(self, sweep_log):
        table = sweep_metric_table(load_sweep_records(sweep_log))
        # Grouped by tech (the only varying non-seed param), mean over seeds.
        cellfi = [l for l in table.splitlines() if l.startswith("CellFi")][0]
        assert "0.95" in cellfi
        lte = [l for l in table.splitlines() if l.startswith("LTE")][0]
        assert "0.85" in lte
        # Non-scalar metrics (lists, strings) are not tabulated.
        assert "throughput_bps" not in table

    def test_report_embeds_sweep_section(self, results_dir, sweep_log):
        output = write_report(results_dir, sweep_logs=[sweep_log])
        text = output.read_text()
        assert "sweep-sweep" in text
        assert "Sweep outcomes" in text


class TestCliIntegration:
    def test_report_command(self, results_dir, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(results_dir.parent)
        assert main(["report", "--results-dir", str(results_dir)]) == 0
        assert "wrote" in capsys.readouterr().out

    def test_report_command_missing_dir(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", "--results-dir", str(tmp_path / "none")]) == 1
