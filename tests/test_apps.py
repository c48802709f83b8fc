"""Integration tests for the application models (reduced configuration)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    evaluate_dual_path,
    evaluate_hybrid_selector,
    evaluate_reverser,
    evaluate_smt_fetch,
)
from repro.apps.hybrid_selector import HybridAccuracies, _accuracies
from repro.experiments.config import SMOKE_CONFIG, ExperimentConfig
from repro.experiments.runner import suite_streams
from repro.predictors import BimodalPredictor
from repro.sim.fast import predictor_streams
from repro.traces import Trace
from repro.utils.bits import bit_mask
from repro.workloads.ibs import load_benchmark

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG = ExperimentConfig(
    benchmarks=("jpeg_play", "gcc"),
    trace_length=20_000,
)


class TestDualPath:
    def test_report_consistency(self):
        report = evaluate_dual_path(CONFIG, fork_threshold=10)
        assert 0 < report.fork_fraction < 1
        assert 0 < report.misprediction_coverage <= 1
        assert report.baseline_cycles_per_branch > 0
        assert "fork" in report.format()

    def test_threshold_zero_forks_least(self):
        narrow = evaluate_dual_path(CONFIG, fork_threshold=0)
        wide = evaluate_dual_path(CONFIG, fork_threshold=16)
        assert narrow.fork_fraction < wide.fork_fraction
        assert narrow.misprediction_coverage <= wide.misprediction_coverage

    def test_threshold_max_forks_everything(self):
        report = evaluate_dual_path(CONFIG, fork_threshold=16)
        assert report.fork_fraction == pytest.approx(1.0)
        assert report.misprediction_coverage == pytest.approx(1.0)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            evaluate_dual_path(CONFIG, fork_threshold=17)

    def test_free_forks_always_win(self):
        report = evaluate_dual_path(
            CONFIG, fork_threshold=16, fork_cost=0.0,
            forked_mispredict_penalty=0.0,
        )
        assert report.speedup > 1.0

    def test_benchmarks_override(self):
        report = evaluate_dual_path(CONFIG, benchmarks=("jpeg_play",))
        assert set(report.per_benchmark) == {"jpeg_play"}


class TestSMTFetch:
    def test_gating_reduces_waste(self):
        report = evaluate_smt_fetch(CONFIG, gate_threshold=7)
        assert report.gated_waste_fraction < report.ungated_waste_fraction
        assert report.gated_efficiency > report.ungated_efficiency
        assert report.efficiency_gain > 0

    def test_zero_threshold_gates_least(self):
        narrow = evaluate_smt_fetch(CONFIG, gate_threshold=0)
        wide = evaluate_smt_fetch(CONFIG, gate_threshold=16)
        assert narrow.gated_stall_fraction < wide.gated_stall_fraction

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            evaluate_smt_fetch(CONFIG, gate_threshold=-1)

    def test_format(self):
        assert "gating" in evaluate_smt_fetch(CONFIG).format()


class TestReverser:
    def test_counter_reverser_inert(self):
        """No resetting-counter bucket mispredicts >50% (paper Table 1)."""
        report = evaluate_reverser(CONFIG)
        assert report.counter_reversed_fraction == pytest.approx(0.0, abs=1e-4)
        assert report.counter_reversed_accuracy == pytest.approx(
            report.baseline_accuracy, abs=1e-6
        )

    def test_accuracies_are_probabilities(self):
        report = evaluate_reverser(CONFIG)
        for value in (
            report.baseline_accuracy,
            report.counter_reversed_accuracy,
            report.pattern_reversed_accuracy,
        ):
            assert 0.0 <= value <= 1.0

    def test_threshold_one_reverses_nothing(self):
        report = evaluate_reverser(CONFIG, reverse_threshold=1.0)
        assert report.pattern_reversed_fraction == 0.0

    def test_format(self):
        assert "reverser" in evaluate_reverser(CONFIG).format().lower()


class TestHybridSelector:
    def test_hybrids_beat_components(self):
        report = evaluate_hybrid_selector(CONFIG)
        assert report.mean_chooser >= report.mean_bimodal
        assert report.mean_chooser >= report.mean_gshare - 0.01
        assert report.mean_confidence >= report.mean_bimodal

    def test_accuracies_are_probabilities(self):
        report = evaluate_hybrid_selector(CONFIG)
        for acc in report.per_benchmark.values():
            for value in (
                acc.bimodal, acc.gshare, acc.chooser_hybrid, acc.confidence_hybrid
            ):
                assert 0.0 < value <= 1.0

    def test_benchmarks_override(self):
        report = evaluate_hybrid_selector(CONFIG, benchmarks=("gcc",))
        assert set(report.per_benchmark) == {"gcc"}

    def test_format_contains_all_schemes(self):
        text = evaluate_hybrid_selector(CONFIG).format()
        for token in ("bimodal", "gshare", "chooser", "confid"):
            assert token in text


def reference_hybrid_walk(
    trace: Trace,
    bimodal_entries: int,
    gshare_entries: int,
    gshare_history_bits: int,
    counter_maximum: int,
) -> HybridAccuracies:
    """The per-branch hybrid-selector loop the vectorized path replaced.

    One fused pass: both components, chooser, per-component confidence.
    """
    bimodal_mask = bimodal_entries - 1
    gshare_mask = gshare_entries - 1
    history_mask = bit_mask(gshare_history_bits)

    bimodal_table = [2] * bimodal_entries
    gshare_table = [2] * gshare_entries
    chooser_table = [2] * bimodal_entries
    bimodal_confidence = [0] * bimodal_entries
    gshare_confidence = [0] * gshare_entries

    bimodal_correct = 0
    gshare_correct = 0
    chooser_correct = 0
    confidence_correct = 0

    pcs = trace.pcs.tolist()
    outcomes = trace.outcomes.tolist()
    bhr = 0
    for pc, outcome in zip(pcs, outcomes):
        pc_index = (pc >> 2) & bimodal_mask
        gshare_index = ((pc >> 2) ^ (bhr & history_mask)) & gshare_mask

        bimodal_prediction = bimodal_table[pc_index] >> 1
        gshare_prediction = gshare_table[gshare_index] >> 1

        bimodal_hit = bimodal_prediction == outcome
        gshare_hit = gshare_prediction == outcome
        bimodal_correct += bimodal_hit
        gshare_correct += gshare_hit

        # McFarling chooser: counter >= neutral selects gshare.
        chooser_value = chooser_table[pc_index]
        chooser_prediction = (
            gshare_prediction if chooser_value >= 2 else bimodal_prediction
        )
        chooser_correct += chooser_prediction == outcome

        # Confidence selector: higher resetting counter wins, tie -> gshare.
        if gshare_confidence[gshare_index] >= bimodal_confidence[pc_index]:
            confidence_prediction = gshare_prediction
        else:
            confidence_prediction = bimodal_prediction
        confidence_correct += confidence_prediction == outcome

        # --- training -----------------------------------------------------
        if gshare_hit and not bimodal_hit:
            if chooser_value < 3:
                chooser_table[pc_index] = chooser_value + 1
        elif bimodal_hit and not gshare_hit:
            if chooser_value > 0:
                chooser_table[pc_index] = chooser_value - 1

        value = bimodal_table[pc_index]
        if outcome:
            if value < 3:
                bimodal_table[pc_index] = value + 1
        elif value > 0:
            bimodal_table[pc_index] = value - 1
        value = gshare_table[gshare_index]
        if outcome:
            if value < 3:
                gshare_table[gshare_index] = value + 1
        elif value > 0:
            gshare_table[gshare_index] = value - 1

        if bimodal_hit:
            if bimodal_confidence[pc_index] < counter_maximum:
                bimodal_confidence[pc_index] += 1
        else:
            bimodal_confidence[pc_index] = 0
        if gshare_hit:
            if gshare_confidence[gshare_index] < counter_maximum:
                gshare_confidence[gshare_index] += 1
        else:
            gshare_confidence[gshare_index] = 0

        bhr = (bhr << 1) | outcome

    n = len(trace)
    return HybridAccuracies(
        bimodal=bimodal_correct / n,
        gshare=gshare_correct / n,
        chooser_hybrid=chooser_correct / n,
        confidence_hybrid=confidence_correct / n,
    )


class TestHybridSelectorOracle:
    @pytest.mark.parametrize("seed, history_bits", [(0, 16), (1, 16), (0, 8)])
    def test_smoke_suite_matches_reference_walk(self, seed, history_bits):
        """History 8 records a wider BHR (the CT index width) than gshare
        reads, so the gshare-side confidence index must mask it."""
        config = SMOKE_CONFIG.scaled(seed=seed, predictor_history_bits=history_bits)
        report = evaluate_hybrid_selector(config)
        for name in config.benchmarks:
            expected = reference_hybrid_walk(
                load_benchmark(name, config.trace_length, seed),
                bimodal_entries=4096,
                gshare_entries=config.predictor_entries,
                gshare_history_bits=config.predictor_history_bits,
                counter_maximum=16,
            )
            assert report.per_benchmark[name] == expected

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 1)),
            min_size=1,
            max_size=200,
        ),
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([4, 16, 64]),
        st.integers(0, 6),
        st.integers(1, 5),
    )
    def test_random_traces_match_reference_walk(
        self, rows, bimodal_entries, gshare_entries, history_bits, maximum
    ):
        trace = Trace(
            np.asarray([4 * site for site, _ in rows], dtype=np.uint64),
            np.asarray([taken for _, taken in rows], dtype=np.uint8),
            name="hyp",
        )
        gshare = predictor_streams(
            trace, entries=gshare_entries, history_bits=history_bits,
            bhr_record_bits=16,
        )
        bimodal = predictor_streams(trace, entries=bimodal_entries, history_bits=0)
        vectorized = _accuracies(
            gshare,
            bimodal.correct,
            gshare_history_bits=history_bits,
            gshare_entries=gshare_entries,
            bimodal_entries=bimodal_entries,
            counter_maximum=maximum,
        )
        assert vectorized == reference_hybrid_walk(
            trace, bimodal_entries, gshare_entries, history_bits, maximum
        )

    def test_history_zero_sweep_is_a_bimodal_predictor(self):
        config = SMOKE_CONFIG.scaled(
            predictor_entries=4096, predictor_history_bits=0
        )
        for name, streams in suite_streams(config).items():
            trace = load_benchmark(name, config.trace_length, config.seed)
            predictor = BimodalPredictor(4096)
            expected = []
            for pc, outcome in zip(trace.pcs.tolist(), trace.outcomes.tolist()):
                expected.append(int(predictor.predict(pc, 0) == outcome))
                predictor.update(pc, 0, outcome)
            assert streams.correct.tolist() == expected

    def test_smoke_result_golden(self):
        """Pinned to the per-branch loop's output, exact floats."""
        assert evaluate_hybrid_selector(SMOKE_CONFIG).to_dict() == {
            "application": "hybrid-selector",
            "headline": {
                "confidence_selector_competitive": False,
                "mean_bimodal": 0.8689583333333333,
                "mean_chooser": 0.92475,
                "mean_confidence": 0.9167916666666667,
                "mean_gshare": 0.87625,
            },
            "per_benchmark": {
                "jpeg_play": {
                    "bimodal": 0.8568333333333333,
                    "gshare": 0.9261666666666667,
                    "chooser_hybrid": 0.9485833333333333,
                    "confidence_hybrid": 0.9406666666666667,
                },
                "gcc": {
                    "bimodal": 0.8810833333333333,
                    "gshare": 0.8263333333333334,
                    "chooser_hybrid": 0.9009166666666667,
                    "confidence_hybrid": 0.8929166666666667,
                },
            },
        }

    @pytest.mark.parametrize("entries", [0, 3, 3000, -4096])
    def test_non_power_of_two_bimodal_entries_rejected(self, entries):
        with pytest.raises(ValueError, match="bimodal_entries must be a power of two"):
            evaluate_hybrid_selector(SMOKE_CONFIG, bimodal_entries=entries)

    @pytest.mark.parametrize("maximum", [0, -1, 31])
    def test_counter_maximum_out_of_range_rejected(self, maximum):
        with pytest.raises(ValueError, match=r"counter_maximum must be within \[1, 30\]"):
            evaluate_hybrid_selector(SMOKE_CONFIG, counter_maximum=maximum)


_COUNTING_HYBRID = """
import sys
from repro import observability
from repro.apps import evaluate_hybrid_selector
from repro.experiments.config import SMOKE_CONFIG
from repro.workloads import program

calls = []
generate = program.SyntheticProgram.generate
def counting_generate(self, *args, **kwargs):
    calls.append(self.name)
    return generate(self, *args, **kwargs)
program.SyntheticProgram.generate = counting_generate
print(evaluate_hybrid_selector(SMOKE_CONFIG, benchmarks=("jpeg_play", "gcc")))
observability.write_profile(sys.argv[1])
print(f"generate_calls={len(calls)}", file=sys.stderr)
"""


class TestWarmHybridSelector:
    def test_second_process_reads_the_cache_tiers(self, tmp_path):
        """A second process on the same cache sweeps nothing, misses
        nothing on disk and generates no trace: both components (the
        gshare sweep and its history-0 bimodal sweep) are cache hits."""
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
                [sys.executable, "-c", _COUNTING_HYBRID, str(profile)],
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
        assert warm_out == cold_out
