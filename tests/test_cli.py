"""Tests for the command-line interface."""

import contextlib
import io
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.workloads.ibs import benchmark_names
from repro.workloads.spec_like import spec_benchmark_names


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig5" in output
        assert "table1" in output


class TestRun:
    def test_run_small_experiment(self, capsys):
        code = main([
            "run", "fig5",
            "--length", "8000",
            "--benchmarks", "jpeg_play",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "BHRxorPC" in output

    def test_run_with_plot(self, capsys):
        code = main([
            "run", "fig2",
            "--length", "8000",
            "--benchmarks", "jpeg_play",
            "--plot",
        ])
        assert code == 0
        assert "% of dynamic branches" in capsys.readouterr().out

    def test_run_with_csv(self, capsys, tmp_path):
        out = tmp_path / "fig2.csv"
        code = main([
            "run", "fig2",
            "--length", "8000",
            "--benchmarks", "jpeg_play",
            "--csv", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert out.read_text().startswith("curve,")

    def test_table_csv(self, capsys, tmp_path):
        out = tmp_path / "table1.csv"
        code = main([
            "run", "table1",
            "--length", "8000",
            "--benchmarks", "jpeg_play",
            "--csv", str(out),
        ])
        assert code == 0
        assert out.read_text().startswith("count,")

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "known ids" in capsys.readouterr().err


class TestSuite:
    def test_suite_listing(self, capsys):
        assert main(["suite", "--length", "4000"]) == 0
        output = capsys.readouterr().out
        assert "gcc" in output
        assert "mis%" in output


class TestApps:
    def test_dual_path(self, capsys):
        code = main([
            "apps", "dual-path",
            "--length", "8000",
            "--benchmarks", "jpeg_play",
        ])
        assert code == 0
        assert "fork" in capsys.readouterr().out

    def test_bad_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["apps", "teleporter"])


class TestTrace:
    def test_trace_dump(self, capsys, tmp_path):
        out = tmp_path / "t.npz"
        code = main([
            "trace", "jpeg_play", "--length", "2000", "--out", str(out)
        ])
        assert code == 0
        assert out.exists()

        from repro.traces import load_trace

        assert len(load_trace(out)) == 2000


class TestRunAll:
    def test_run_all_small(self, capsys):
        code = main([
            "run-all",
            "--length", "4000",
            "--benchmarks", "jpeg_play", "gcc",
        ])
        assert code == 0
        output = capsys.readouterr().out
        # Every registered experiment reported.
        from repro.experiments import EXPERIMENTS

        for experiment_id in EXPERIMENTS:
            assert f"=== {experiment_id}:" in output

    def test_run_all_single_benchmark(self, capsys):
        """Regression: leave-one-out crossval used to crash run-all with a
        raw ValueError on a one-benchmark suite; it now reports a skip."""
        code = main(["run-all", "--length", "1500", "--benchmarks", "gcc"])
        assert code == 0
        output = capsys.readouterr().out
        report = output.split("=== extension-crossval:", 1)[1].splitlines()
        assert report[1] == (
            "Extension — leave-one-out reduction design skipped: "
            "needs ≥ 2 benchmarks"
        )
        assert not report[2:] or not report[2].strip()


_KNOWN_BENCHMARKS = set(benchmark_names()) | set(spec_benchmark_names())

#: One invalid option group each; any mix of them is an invalid config.
_INVALID_OPTIONS = st.one_of(
    st.integers(max_value=0).map(lambda v: ["--length", str(v)]),
    st.integers(max_value=0).map(lambda v: ["--jobs", str(v)]),
    st.integers(max_value=0).map(lambda v: ["--chunk-size", str(v)]),
    st.integers(max_value=-1).map(lambda v: ["--max-retries", str(v)]),
    st.floats(max_value=0.0, allow_nan=False, allow_infinity=False).map(
        lambda v: ["--task-timeout", repr(v)]
    ),
    st.text(alphabet="abcgxyz_", min_size=1, max_size=8)
    .filter(lambda name: name not in _KNOWN_BENCHMARKS)
    .map(lambda name: ["--benchmarks", name]),
    st.sampled_from(benchmark_names()).map(lambda name: ["--benchmarks", name, name]),
    st.sampled_from(["batched", "per-config", "turbo"]).map(
        lambda engine: ["--engine", engine]
    ),
    st.sampled_from(["--length", "--seed", "--jobs"]).map(lambda flag: [flag, "many"]),
)


def _run_cli(argv):
    """Exit code and stderr lines of one in-process CLI invocation.

    ``SystemExit("message")`` is what the interpreter prints as one
    stderr line with exit status 1, so it is reported that way.
    """
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    lines = stderr.getvalue().splitlines()
    if isinstance(code, str):
        lines.append(code)
        code = 1
    return code, lines


class TestInvalidConfigs:
    """Invalid configs end in one error line and exit 1 or 2, never a traceback."""

    @given(
        command=st.sampled_from(
            [["run-all"], ["run", "fig5"], ["fabric", "status"]]
        ),
        options=st.lists(_INVALID_OPTIONS, min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_invalid_configs_fail_cleanly(self, command, options):
        argv = command + [token for group in options for token in group]
        code, lines = _run_cli(argv)
        assert code in (1, 2), (argv, code, lines)
        assert lines and lines[-1].strip(), argv
        assert not any("Traceback" in line for line in lines), argv
        if code == 1:
            # Config validation: exactly the one message line.
            assert len(lines) == 1, (argv, lines)
        else:
            # argparse usage error: usage text, then one error line.
            assert ": error: " in lines[-1], (argv, lines)

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--length", "0"], "--length must be >= 1"),
            (["--length", "-5"], "--length must be >= 1"),
            (["--benchmarks", "gcc", "gcc"], "--benchmarks must not repeat a benchmark"),
        ],
    )
    def test_run_all_reports_one_line(self, flags, message):
        """Regression: these crashed ``run-all`` with a long traceback."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "run-all", *flags],
            capture_output=True,
            text=True,
            env=env,
        )
        assert completed.returncode == 1
        assert completed.stderr.splitlines() == [message]

    def test_unknown_benchmark_named_in_message(self):
        code, lines = _run_cli(["run-all", "--benchmarks", "nosuch"])
        assert code == 1
        assert len(lines) == 1
        assert lines[0].startswith("unknown benchmark 'nosuch'; expected one of ")
