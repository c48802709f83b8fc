"""Tests for the unified AppReport protocol and the apps --json CLI."""

import json

import pytest

from repro.apps import (
    AppReport,
    evaluate_dual_path,
    evaluate_hybrid_selector,
    evaluate_reverser,
    evaluate_smt_fetch,
)
from repro.cli import main
from repro.experiments.config import ExperimentConfig

SMALL = ExperimentConfig(benchmarks=("jpeg_play",), trace_length=6_000)

EVALUATORS = [
    ("dual-path", evaluate_dual_path),
    ("smt-fetch", evaluate_smt_fetch),
    ("reverser", evaluate_reverser),
    ("hybrid-selector", evaluate_hybrid_selector),
]


class TestProtocol:
    @pytest.mark.parametrize("application,evaluate", EVALUATORS)
    def test_reports_satisfy_protocol(self, application, evaluate):
        report = evaluate(SMALL)
        assert isinstance(report, AppReport)
        assert report.format() == str(report)

    @pytest.mark.parametrize("application,evaluate", EVALUATORS)
    def test_to_dict_shape_and_serializable(self, application, evaluate):
        record = evaluate(SMALL).to_dict()
        assert set(record) == {"application", "headline", "per_benchmark"}
        assert record["application"] == application
        assert set(record["per_benchmark"]) == {"jpeg_play"}
        json.dumps(record)  # fully JSON-serializable


class TestCliJson:
    def test_json_to_stdout(self, capsys):
        code = main([
            "apps", "dual-path",
            "--length", "6000",
            "--benchmarks", "jpeg_play",
            "--json",
        ])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["application"] == "dual-path"
        assert "speedup" in record["headline"]

    def test_json_to_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "apps", "smt-fetch",
            "--length", "6000",
            "--benchmarks", "jpeg_play",
            "--json", str(out),
        ])
        assert code == 0
        record = json.loads(out.read_text())
        assert record["application"] == "smt-fetch"
        assert "wrote" in capsys.readouterr().out

    def test_without_json_prints_text(self, capsys):
        code = main([
            "apps", "reverser",
            "--length", "6000",
            "--benchmarks", "jpeg_play",
        ])
        assert code == 0
        assert "reverser" in capsys.readouterr().out.lower()

    def test_chunk_size_flag_accepted(self, capsys):
        code = main([
            "apps", "dual-path",
            "--length", "6000",
            "--benchmarks", "jpeg_play",
            "--chunk-size", "1000",
            "--json",
        ])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["application"] == "dual-path"
