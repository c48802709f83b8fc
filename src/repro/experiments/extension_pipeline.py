"""Extension — the applications on the pipeline timing model.

:mod:`repro.apps` charges fixed per-event penalties; here the same two
applications run on :mod:`repro.pipeline`, where costs emerge from fetch
bandwidth, resolution latency, and squash semantics:

* **dual-path**: per-benchmark IPC of the speculative frontend without
  forking versus forking on a resetting-counter low-confidence signal.
  Expected: IPC improves, most on the worst-predicted benchmarks.
* **SMT**: four threads sharing one fetch port, ungated versus gated on
  counter-0 confidence.  Expected (and consistent with the follow-on
  pipeline-gating literature): gating substantially reduces *wasted
  fetch slots* — the efficiency/energy win the paper's application 2
  targets — while raw throughput stays within a small band of ungated,
  because a stalled thread forfeits speculative runahead that sibling
  threads only partially absorb.

Both models read their inputs from the cache tiers: the gshare streams
come from :func:`~repro.experiments.runner.suite_streams` (the paper's
64K/16 geometry for dual-path, the 4K/12 small predictor for SMT), and
the low-confidence signal is the resetting-counter stream of a
PC-xor-BHR table over them, so only the timing models' cycle recurrence
runs branch by branch.  The experiment keeps quarter-length traces; the
qualitative questions (does confidence-directed speculation win?) are
insensitive to length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.runner import suite_streams
from repro.pipeline import (
    FrontendConfig,
    SMTConfig,
    SpeculativeFrontend,
    simulate_smt,
)
from repro.sim.fast import PredictorStreams, pc_xor_bhr_counters

#: Default per-benchmark length of the pipeline runs (defines the report).
PIPELINE_TRACE_LENGTH = 40_000

#: Resetting-counter values treated as low confidence for dual-path forks.
LOW_COUNTER_VALUES = tuple(range(4))

#: Tighter low set for SMT gating (stalling is expensive; gate only on
#: the riskiest bucket).
SMT_LOW_COUNTER_VALUES = (0,)

#: Threads sharing the fetch port in the SMT run.
SMT_THREADS = 4


@dataclass(frozen=True)
class PipelineResult:
    """IPC / throughput outcomes of the pipeline-model applications."""

    dual_path_ipc: Dict[str, "tuple[float, float]"]
    smt_ungated_throughput: float
    smt_gated_throughput: float
    smt_ungated_waste: float
    smt_gated_waste: float
    headline_percent: float

    @property
    def mean_dual_path_speedup(self) -> float:
        ratios = [
            forked / baseline
            for baseline, forked in self.dual_path_ipc.values()
            if baseline > 0
        ]
        return sum(ratios) / len(ratios) if ratios else 0.0

    @property
    def smt_gating_gain(self) -> float:
        if self.smt_ungated_throughput == 0:
            return 0.0
        return self.smt_gated_throughput / self.smt_ungated_throughput - 1.0

    def format(self) -> str:
        lines = ["Extension — applications on the pipeline timing model"]
        lines.append("dual-path IPC (baseline -> forked):")
        for name, (baseline, forked) in self.dual_path_ipc.items():
            lines.append(
                f"  {name:12s} {baseline:5.3f} -> {forked:5.3f} "
                f"({forked / baseline - 1:+.1%})"
            )
        lines.append(
            f"mean dual-path speedup: {self.mean_dual_path_speedup:.3f}x"
        )
        lines.append(
            f"SMT ({SMT_THREADS} threads): fetch waste "
            f"{self.smt_ungated_waste:.1%} -> {self.smt_gated_waste:.1%} with "
            f"gating; throughput {self.smt_ungated_throughput:.3f} -> "
            f"{self.smt_gated_throughput:.3f} insn/cycle "
            f"({self.smt_gating_gain:+.1%})"
        )
        return "\n".join(lines)

    __str__ = format


def _low_confidence(
    streams: PredictorStreams, index_bits: int, low_values: Sequence[int]
) -> np.ndarray:
    """Per-branch low-confidence flags of a paper-variant resetting-counter
    table (PC xor BHR index, counters 0..16) read before each update."""
    return np.isin(pc_xor_bhr_counters(streams, index_bits), low_values)


def run(
    config: ExperimentConfig = DEFAULT_CONFIG,
    trace_length: int = PIPELINE_TRACE_LENGTH,
) -> PipelineResult:
    """Run both pipeline applications over the configured suite."""
    frontend_config = FrontendConfig()
    frontend = SpeculativeFrontend(frontend_config)
    dual_path_ipc: Dict[str, "tuple[float, float]"] = {}
    suite = suite_streams(config.scaled(trace_length=trace_length))
    for name, streams in suite.items():
        low = _low_confidence(streams, config.ct_index_bits, LOW_COUNTER_VALUES)
        baseline = frontend.run(streams.pcs, streams.correct)
        forked = frontend.run(streams.pcs, streams.correct, low)
        dual_path_ipc[name] = (baseline.ipc, forked.ipc)

    small = config.small_predictor.scaled(
        trace_length=trace_length, benchmarks=config.benchmarks[:SMT_THREADS]
    )
    threads = list(suite_streams(small).values())
    pcs = [streams.pcs for streams in threads]
    correct = [streams.correct for streams in threads]
    low = [
        _low_confidence(streams, small.ct_index_bits, SMT_LOW_COUNTER_VALUES)
        for streams in threads
    ]

    def smt_run(gated: bool):
        return simulate_smt(
            pcs,
            correct,
            low,
            config=SMTConfig(
                frontend=frontend_config, gate_on_low_confidence=gated
            ),
        )

    ungated = smt_run(gated=False)
    gated = smt_run(gated=True)

    return PipelineResult(
        dual_path_ipc=dual_path_ipc,
        smt_ungated_throughput=ungated.throughput,
        smt_gated_throughput=gated.throughput,
        smt_ungated_waste=ungated.waste_fraction,
        smt_gated_waste=gated.waste_fraction,
        headline_percent=config.headline_percent,
    )
