"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import csv
import json

import pytest

from repro.cli import build_parser, main
from repro.evaluation.harness import list_experiments


@pytest.fixture
def mentions_csv(tmp_path):
    path = tmp_path / "mentions.csv"
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=["entity_id", "source_id", "gdp"])
        writer.writeheader()
        writer.writerows(
            [
                {"entity_id": "California", "source_id": "w1", "gdp": "2481"},
                {"entity_id": "Texas", "source_id": "w1", "gdp": "1639"},
                {"entity_id": "California", "source_id": "w2", "gdp": "2481"},
                {"entity_id": "New York", "source_id": "w2", "gdp": "1455"},
                {"entity_id": "Texas", "source_id": "w3", "gdp": "1639"},
                {"entity_id": "Florida", "source_id": "w3", "gdp": "893"},
            ]
        )
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_estimate_arguments(self):
        args = build_parser().parse_args(
            ["estimate", "file.csv", "--attribute", "gdp", "--estimator", "naive"]
        )
        assert args.command == "estimate"
        assert args.estimator == "naive"

    def test_unknown_estimator_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["estimate", "file.csv", "--attribute", "gdp", "--estimator", "magic"]
            )

    def test_composite_spec_accepted(self):
        args = build_parser().parse_args(
            [
                "estimate",
                "file.csv",
                "--attribute",
                "gdp",
                "--estimator",
                "bucket(equiwidth:8)/monte-carlo?seed=3",
            ]
        )
        assert args.estimator == "bucket(equiwidth:8)/monte-carlo?seed=3"

    def test_malformed_spec_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["estimate", "file.csv", "--attribute", "gdp", "--estimator", "bucket?x=1"]
            )

    @pytest.mark.parametrize("command", ["serve", "cluster", "experiment table2"])
    def test_thread_backend_refused_with_the_remaining_choices(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*command.split(), "--backend", "thread"])
        assert "(choose from 'serial', 'process')" in capsys.readouterr().err

    def test_cluster_has_no_worker_mode(self, capsys):
        """Cluster workers are always processes; thread mode is a test fake."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--worker-mode", "process"])
        assert "unrecognized arguments: --worker-mode" in capsys.readouterr().err

    def test_experiment_choices_cover_all_figures(self):
        expected = {
            "figure2", "figure4", "figure5a", "figure5b", "figure5c", "figure6",
            "figure7a", "figure7b", "figure7c", "figure7d", "figure7e", "figure7f",
            "figure8", "figure9", "figure10", "figure11", "table2",
        }
        assert set(list_experiments()) == expected


class TestEstimateCommand:
    def test_prints_table_and_writes_csv(self, mentions_csv, tmp_path, capsys):
        output = tmp_path / "estimate.csv"
        code = main(
            [
                "estimate",
                str(mentions_csv),
                "--attribute",
                "gdp",
                "--estimator",
                "naive",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "corrected" in captured
        assert output.exists()
        rows = list(csv.DictReader(output.open()))
        assert rows[0]["estimator"] == "naive"
        assert float(rows[0]["observed"]) == pytest.approx(2481 + 1639 + 1455 + 893)

    def test_missing_file_returns_error_code(self, tmp_path, capsys):
        code = main(["estimate", str(tmp_path / "nope.csv"), "--attribute", "gdp"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_json_format_emits_result_schema(self, mentions_csv, capsys):
        code = main(
            [
                "estimate",
                str(mentions_csv),
                "--attribute",
                "gdp",
                "--estimator",
                "naive",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.result/v1"
        assert payload["kind"] == "estimate"
        assert payload["estimator"] == "naive"
        assert payload["observed"] == pytest.approx(2481 + 1639 + 1455 + 893)

    def test_composite_spec_runs(self, mentions_csv, capsys):
        code = main(
            [
                "estimate",
                str(mentions_csv),
                "--attribute",
                "gdp",
                "--estimator",
                "bucket/frequency?search=naive",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["corrected"] >= payload["observed"]


class TestQueryCommand:
    def test_open_world_query(self, mentions_csv, capsys):
        code = main(
            [
                "query",
                str(mentions_csv),
                "--attribute",
                "gdp",
                "--sql",
                "SELECT SUM(gdp) FROM data WHERE gdp > 1000",
                "--closed-world",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SELECT SUM(gdp) FROM data" in out
        assert "closed-world answer" in out

    def test_json_format(self, mentions_csv, capsys):
        code = main(
            [
                "query",
                str(mentions_csv),
                "--attribute",
                "gdp",
                "--sql",
                "SELECT COUNT(*) FROM data",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "query-result"
        assert payload["aggregate"] == "COUNT"
        assert payload["observed"] == 4.0

    def test_bad_sql_is_reported(self, mentions_csv, capsys):
        code = main(
            [
                "query",
                str(mentions_csv),
                "--attribute",
                "gdp",
                "--sql",
                "SELECT NOTHING",
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestDatasetCommand:
    def test_replay_toy_sized_dataset(self, capsys, tmp_path):
        output = tmp_path / "series.csv"
        code = main(
            [
                "dataset",
                "us-gdp",
                "--seed",
                "1",
                "--step",
                "40",
                "--estimators",
                "naive",
                "bucket",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "observed" in out
        rows = list(csv.DictReader(output.open()))
        assert "naive" in rows[0]
        assert "bucket" in rows[0]

    def test_json_format_emits_progressive_result(self, capsys):
        code = main(
            [
                "dataset",
                "us-gdp",
                "--seed",
                "1",
                "--step",
                "60",
                "--estimators",
                "naive",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "progressive-result"
        assert payload["series"]["naive"]["kind"] == "estimate-series"


class TestExperimentCommand:
    def test_table2_runs_and_writes(self, capsys, tmp_path):
        output = tmp_path / "table2.csv"
        code = main(["experiment", "table2", "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "table2" in out
        rows = list(csv.DictReader(output.open()))
        assert len(rows) == 2
        assert float(rows[0]["bucket"]) == pytest.approx(14500.0, abs=1.0)

    def test_experiment_flags_and_json_format(self, capsys):
        code = main(
            [
                "experiment",
                "figure6",
                "--repetitions",
                "2",
                "--estimators",
                "naive",
                "bucket",
                "--set",
                "scenarios=ideal-w10",
                "--backend",
                "serial",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "experiment-result"
        assert payload["experiment"] == "fig6"
        assert payload["parameters"]["repetitions"] == 2
        assert [row["scenario"] for row in payload["rows"]] == ["ideal-w10"]
        assert {"naive", "bucket"} <= set(payload["rows"][0])

    def test_describe_prints_parameter_spec(self, capsys):
        code = main(["experiment", "figure11", "--describe"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["figure11"]["accepts_estimators"] is True
        names = [param["name"] for param in payload["figure11"]["params"]]
        assert names == ["seed", "repetitions"]

    def test_unknown_parameter_is_reported(self, capsys):
        code = main(["experiment", "table2", "--seed", "3"])
        assert code == 2
        assert "unknown parameter" in capsys.readouterr().err

    def test_malformed_set_is_reported(self, capsys):
        code = main(["experiment", "figure6", "--set", "oops"])
        assert code == 2
        assert "KEY=VALUE" in capsys.readouterr().err


class TestStoreFlag:
    """``--store`` selects nothing: a state dir always means the segment log."""

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["serve", "--store", "memory", "--state-dir", "d"], "--store memory"),
            (["serve", "--store", "disk"], "--store disk requires --state-dir"),
            (["cluster", "--store", "memory"], "--store memory"),
        ],
    )
    def test_a_contradicting_store_is_refused(self, argv, message, capsys):
        assert main(argv) == 2
        assert message in capsys.readouterr().err
