"""Unit tests for the speculative frontend and SMT fetch models."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.base import ConfidenceSignal
from repro.core.counters import ResettingCounterConfidence
from repro.core.threshold import ThresholdConfidence
from repro.experiments import extension_pipeline
from repro.experiments.config import SMOKE_CONFIG
from repro.pipeline import (
    FrontendConfig,
    SMTConfig,
    SpeculativeFrontend,
    simulate_smt,
)
from repro.predictors.gshare import GsharePredictor
from repro.utils.bits import bit_mask
from repro.workloads.ibs import load_benchmark

SRC = Path(__file__).resolve().parents[1] / "src"


def always_low(length):
    """A low-confidence flag on every branch (forces forking/gating)."""
    return np.ones(length, dtype=bool)


def never_low(length):
    return np.zeros(length, dtype=bool)


class TestFrontendConfig:
    def test_block_size_deterministic(self):
        config = FrontendConfig(min_block=2, block_spread=6)
        assert config.block_size(0x100) == config.block_size(0x100)
        assert config.block_size(0x100) >= 3  # min_block + branch itself

    def test_validation(self):
        with pytest.raises(ValueError):
            FrontendConfig(fetch_width=0)
        with pytest.raises(ValueError):
            FrontendConfig(redirect_penalty=-1)
        with pytest.raises(ValueError):
            FrontendConfig(fork_primary_loss=1.0)
        with pytest.raises(ValueError):
            FrontendConfig(alternate_width=-1.0)


class TestBaselineFrontend:
    # An always-taken predictor is correct exactly on the taken branches,
    # so ``correct = outcomes``.

    def test_perfect_prediction_ipc_equals_width(self):
        config = FrontendConfig(fetch_width=4)
        report = SpeculativeFrontend(config).run([0x100] * 50, [1] * 50)
        assert report.mispredictions == 0
        assert report.squashed_slots == 0
        assert report.ipc == pytest.approx(4.0)

    def test_misprediction_costs_resolution_plus_redirect(self):
        config = FrontendConfig(
            fetch_width=4, resolve_latency=8, redirect_penalty=1
        )
        # Two identical branches, the second mispredicted.
        report = SpeculativeFrontend(config).run([0x100, 0x100], [1, 0])
        block = config.block_size(0x100)
        expected = 2 * block / 4 + 8 + 1
        assert report.cycles == pytest.approx(expected)
        assert report.mispredictions == 1
        assert report.squashed_slots == pytest.approx(4 * 8)

    def test_all_instructions_retire(self):
        config = FrontendConfig()
        report = SpeculativeFrontend(config).run(
            [0x100, 0x104, 0x108], [1, 0, 1]
        )
        expected = sum(config.block_size(pc) for pc in [0x100, 0x104, 0x108])
        assert report.retired_instructions == expected
        assert report.branches == 3

    @pytest.mark.parametrize(
        ("pcs", "correct", "low", "message"),
        [
            ([0x100] * 3, [1, 1], None, "pcs and correct .* got 3, 2"),
            ([0x100] * 3, [1] * 3, [True], "pcs, correct and low .* got 3, 3, 1"),
            ([0x100], [1, 0], [True, True], "got 1, 2, 2"),
        ],
    )
    def test_mismatched_lengths_one_line_error(self, pcs, correct, low, message):
        with pytest.raises(ValueError, match=message) as raised:
            SpeculativeFrontend().run(pcs, correct, low)
        assert "\n" not in str(raised.value)


class TestDualPath:
    def test_never_forking_matches_baseline(self):
        pcs, correct = [0x100] * 30, [1, 0] * 15
        baseline = SpeculativeFrontend().run(pcs, correct)
        gated = SpeculativeFrontend().run(pcs, correct, never_low(30))
        assert gated.cycles == pytest.approx(baseline.cycles)
        assert gated.forks == 0

    def test_fork_covers_misprediction_without_redirect(self):
        config = FrontendConfig(
            fetch_width=4, resolve_latency=8, redirect_penalty=1,
            alternate_width=2.0,
        )
        # A single mispredicted branch.
        report = SpeculativeFrontend(config).run([0x100], [0], always_low(1))
        assert report.forks == 1
        assert report.covered_mispredictions == 1
        block = config.block_size(0x100)
        head_start = min(2.0 * 8 / 4, 8)
        expected = block / 4 + 8 - head_start
        assert report.cycles == pytest.approx(expected)

    def test_forking_everything_beats_baseline_on_coin_branch(self):
        # A 50% branch at a single site: forking eliminates most of the
        # misprediction cost at modest alternate-path expense.
        rng = np.random.default_rng(7)
        correct = rng.integers(0, 2, size=400)
        pcs = [0x100] * 400
        baseline = SpeculativeFrontend().run(pcs, correct)
        forked = SpeculativeFrontend().run(pcs, correct, always_low(400))
        # Only one fork may be outstanding, and a correctly-predicted fork
        # occupies the window — so coverage cannot approach 1 even when
        # every branch is flagged; about half is what the capacity allows.
        assert forked.misprediction_coverage > 0.35
        assert forked.ipc > baseline.ipc

    def test_fork_limit_one_outstanding(self):
        # With an outstanding fork, further low-confidence branches do not
        # fork until it resolves.
        config = FrontendConfig(resolve_latency=50)
        report = SpeculativeFrontend(config).run(
            [0x100, 0x104, 0x108], [1, 1, 1], always_low(3)
        )
        assert report.forks == 1


class TestSMT:
    def make_threads(self, num_threads, length=60, mispredict_every=None):
        pcs, correct = [], []
        for index in range(num_threads):
            outcomes = [1] * length
            if mispredict_every:
                outcomes = [
                    0 if i % mispredict_every == 0 else 1 for i in range(length)
                ]
            pcs.append([0x100 + 4 * index] * length)
            correct.append(outcomes)
        return pcs, correct

    def test_single_perfect_thread(self):
        pcs, correct = self.make_threads(1)
        report = simulate_smt(pcs, correct)
        assert report.squashed_slots == 0
        assert report.useful_instructions == sum(
            FrontendConfig().block_size(0x100) for _ in range(60)
        )

    def test_two_threads_share_port(self):
        pcs, correct = self.make_threads(2)
        single = simulate_smt(pcs[:1], correct[:1])
        double = simulate_smt(pcs, correct)
        # Twice the work on the same port takes about twice the time.
        assert double.total_cycles == pytest.approx(
            2 * single.total_cycles, rel=0.1
        )

    def test_mispredictions_squash(self):
        pcs, correct = self.make_threads(1, mispredict_every=5)
        report = simulate_smt(pcs, correct)
        assert report.squashed_slots > 0
        assert report.waste_fraction > 0

    def test_gating_reduces_waste(self):
        def run(gated):
            pcs, correct = self.make_threads(4, mispredict_every=4)
            low = [always_low(len(thread)) for thread in pcs]
            return simulate_smt(
                pcs, correct, low,
                config=SMTConfig(gate_on_low_confidence=gated),
            )
        ungated = run(False)
        gated = run(True)
        assert gated.waste_fraction < ungated.waste_fraction
        assert gated.gated_stalls > 0
        assert ungated.gated_stalls == 0

    def test_validation(self):
        pcs, correct = self.make_threads(2)
        with pytest.raises(ValueError, match="one correct array"):
            simulate_smt(pcs, correct[:1])
        with pytest.raises(ValueError, match="one low array"):
            simulate_smt(pcs, correct, [always_low(60)])
        with pytest.raises(ValueError, match="gating requires"):
            simulate_smt(
                pcs, correct,
                config=SMTConfig(gate_on_low_confidence=True),
            )
        with pytest.raises(ValueError, match="at least one"):
            simulate_smt([], [])

    @pytest.mark.parametrize(
        ("thread", "field", "message"),
        [
            (1, "correct", "thread 1: pcs, correct and low .* got 60, 59, 60"),
            (0, "low", "thread 0: pcs, correct and low .* got 60, 60, 59"),
        ],
    )
    def test_mismatched_thread_lengths_one_line_error(
        self, thread, field, message
    ):
        pcs, correct = self.make_threads(2)
        low = [always_low(len(p)) for p in pcs]
        arrays = {"correct": correct, "low": low}
        arrays[field][thread] = arrays[field][thread][:-1]
        with pytest.raises(ValueError, match=message) as raised:
            simulate_smt(pcs, correct, low)
        assert "\n" not in str(raised.value)

    def test_useful_instructions_independent_of_policy(self):
        def run(gated):
            pcs, correct = self.make_threads(3, mispredict_every=6)
            low = [always_low(len(thread)) for thread in pcs]
            return simulate_smt(
                pcs, correct, low,
                config=SMTConfig(gate_on_low_confidence=gated),
            )
        assert run(False).useful_instructions == run(True).useful_instructions


def _object_walk(trace, entries, history_bits, index_bits, low_values):
    """Per-branch ``(correct, low)`` of gshare plus a resetting-counter
    threshold, driven one branch at a time through the reference objects
    (the pre-update signal, then training, then the BHR shift)."""
    predictor = GsharePredictor(entries=entries, history_bits=history_bits)
    confidence = ThresholdConfidence(
        ResettingCounterConfidence.paper_variant(index_bits=index_bits),
        low_values,
    )
    history_mask = bit_mask(16)
    bhr = 0
    correct, low = [], []
    for pc, outcome in zip(trace.pcs.tolist(), trace.outcomes.tolist()):
        hit = predictor.predict(pc, bhr) == outcome
        correct.append(hit)
        low.append(confidence.signal(pc, bhr, 0) == ConfidenceSignal.LOW)
        confidence.update(pc, bhr, 0, hit)
        predictor.update(pc, bhr, outcome)
        bhr = ((bhr << 1) | outcome) & history_mask
    return np.asarray(correct), np.asarray(low)


class TestExtensionPipelineInputs:
    def test_engine_streams_match_per_branch_objects(self, monkeypatch):
        """The cached streams the experiment feeds both models are exactly
        what gshare and a threshold resetting-counter table produce one
        branch at a time, for both geometries."""
        fed = {"frontend": [], "smt": []}
        frontend_run = SpeculativeFrontend.run

        def recording_run(self, pcs, correct, low=None):
            if low is not None:
                fed["frontend"].append((pcs, correct, low))
            return frontend_run(self, pcs, correct, low)

        def recording_smt(pcs, correct, low=None, config=SMTConfig()):
            fed["smt"].append((pcs, correct, low))
            return simulate_smt(pcs, correct, low, config)

        monkeypatch.setattr(SpeculativeFrontend, "run", recording_run)
        monkeypatch.setattr(extension_pipeline, "simulate_smt", recording_smt)
        length = SMOKE_CONFIG.trace_length
        extension_pipeline.run(SMOKE_CONFIG, trace_length=length)

        traces = [
            load_benchmark(name, length, SMOKE_CONFIG.seed)
            for name in SMOKE_CONFIG.benchmarks
        ]
        assert len(fed["frontend"]) == len(traces)
        for trace, (pcs, correct, low) in zip(traces, fed["frontend"]):
            expected = _object_walk(
                trace, 1 << 16, 16, 16, extension_pipeline.LOW_COUNTER_VALUES
            )
            assert np.array_equal(pcs, trace.pcs)
            assert np.array_equal(correct.astype(bool), expected[0])
            assert np.array_equal(low, expected[1])

        assert len(fed["smt"]) == 2  # ungated, gated: the same inputs
        for pcs, correct, low in fed["smt"]:
            assert len(pcs) == len(traces)
            for thread, trace in enumerate(traces):
                expected = _object_walk(
                    trace, 1 << 12, 12, 12,
                    extension_pipeline.SMT_LOW_COUNTER_VALUES,
                )
                assert np.array_equal(pcs[thread], trace.pcs)
                assert np.array_equal(correct[thread].astype(bool), expected[0])
                assert np.array_equal(low[thread], expected[1])

    def test_smoke_result_golden(self):
        """Pinned to the values of the per-branch object implementation."""
        result = extension_pipeline.run(SMOKE_CONFIG)
        assert result.dual_path_ipc == {
            "jpeg_play": (2.9188308738158137, 3.0240405568901956),
            "gcc": (2.1956978082748346, 2.347019741300688),
        }
        assert result.smt_ungated_throughput == 3.028565271941806
        assert result.smt_gated_throughput == 2.674355618095634
        assert result.smt_ungated_waste == 0.24281657635613516
        assert result.smt_gated_waste == 0.17858476017389796
        assert result.headline_percent == 20.0


#: Wraps trace generation with a call counter, runs the CLI, and reports
#: the count on stderr's last line.
_COUNTING_CLI = """
import sys
from repro.cli import main
from repro.workloads import program

calls = []
generate = program.SyntheticProgram.generate
def counting_generate(self, *args, **kwargs):
    calls.append(self.name)
    return generate(self, *args, **kwargs)
program.SyntheticProgram.generate = counting_generate
code = main(sys.argv[1:])
print(f"generate_calls={len(calls)}", file=sys.stderr)
sys.exit(code)
"""


class TestWarmPipeline:
    def test_second_process_reads_the_cache_tiers(self, tmp_path):
        """A second ``extension-pipeline`` process on the same cache sweeps
        nothing, misses nothing on disk and generates no trace."""
        env = dict(
            os.environ,
            REPRO_CACHE_DIR=str(tmp_path / "cache"),
            PYTHONPATH=os.pathsep.join(
                filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
            ),
        )
        env.pop("REPRO_CACHE_DISABLE", None)
        runs = []
        for attempt in ("cold", "warm"):
            profile = tmp_path / f"{attempt}.json"
            completed = subprocess.run(
                [
                    sys.executable, "-c", _COUNTING_CLI,
                    "run", "extension-pipeline",
                    "--benchmarks", "jpeg_play", "gcc",
                    "--profile", str(profile),
                ],
                env=env, capture_output=True, text=True,
            )
            assert completed.returncode == 0, completed.stderr
            counters = json.loads(profile.read_text())["counters"]
            generate_calls = completed.stderr.strip().splitlines()[-1]
            runs.append((completed.stdout, counters, generate_calls))

        (cold_out, cold, cold_generate), (warm_out, warm, warm_generate) = runs
        assert cold["stream_cache.sweeps"] == 4
        assert cold_generate != "generate_calls=0"
        assert warm.get("stream_cache.sweeps", 0) == 0
        assert warm.get("stream_cache.disk_misses", 0) == 0
        assert warm["stream_cache.disk_hits"] == 4
        assert warm_generate == "generate_calls=0"
        assert warm_out.replace(str(tmp_path / "warm.json"), "") == (
            cold_out.replace(str(tmp_path / "cold.json"), "")
        )
