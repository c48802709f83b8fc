"""Selective dual-path execution (paper application 1).

The model: a processor that normally speculates down the predicted path
pays ``mispredict_penalty`` cycles per misprediction.  When a branch is
predicted with *low* confidence, the machine forks a second thread down
the non-predicted path; a misprediction then costs only
``forked_mispredict_penalty`` (the other path is already in flight), but
every fork costs ``fork_cost`` cycles of fetch/execute bandwidth whether
or not it was needed.

The paper's conclusion section reports that forking after 20 % of
predictions captures over 80 % of mispredictions and conjectures this is
"adequate to provide worthwhile performance gains" — this module lets
you check exactly that trade-off on the synthetic suite with a resetting
counter confidence table (the paper's recommended implementation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.indexing import make_index
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.runner import suite_streams
from repro.sim.fast import resetting_counter_stream


@dataclass(frozen=True)
class DualPathReport:
    """Suite-level outcome of a dual-path policy."""

    #: Counter values 0..threshold (inclusive) trigger a fork.
    fork_threshold: int
    #: Fraction of dynamic branches that forked.
    fork_fraction: float
    #: Fraction of all mispredictions covered by a fork.
    misprediction_coverage: float
    #: Cycles per branch of the baseline (no forking) machine.
    baseline_cycles_per_branch: float
    #: Cycles per branch with selective dual-path execution.
    dual_path_cycles_per_branch: float
    #: Per-benchmark speedup (baseline cycles / dual-path cycles).
    per_benchmark: Dict[str, float]

    @property
    def speedup(self) -> float:
        """Baseline cycles / dual-path cycles (>1 means forking pays)."""
        if self.dual_path_cycles_per_branch == 0:
            return 0.0
        return self.baseline_cycles_per_branch / self.dual_path_cycles_per_branch

    def format(self) -> str:
        lines = [
            "Selective dual-path execution (resetting counters, BHRxorPC)",
            f"fork on counter <= {self.fork_threshold}: "
            f"{self.fork_fraction:.1%} of branches fork, covering "
            f"{self.misprediction_coverage:.1%} of mispredictions "
            f"(paper: fork ~20% -> >80%)",
            f"cycles/branch: baseline {self.baseline_cycles_per_branch:.3f} -> "
            f"dual-path {self.dual_path_cycles_per_branch:.3f} "
            f"(speedup {self.speedup:.3f}x)",
        ]
        for name, speedup in self.per_benchmark.items():
            lines.append(f"  {name:12s} speedup {speedup:.3f}x")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """JSON-serializable record (application, headline, per_benchmark)."""
        return {
            "application": "dual-path",
            "headline": {
                "fork_threshold": self.fork_threshold,
                "fork_fraction": self.fork_fraction,
                "misprediction_coverage": self.misprediction_coverage,
                "baseline_cycles_per_branch": self.baseline_cycles_per_branch,
                "dual_path_cycles_per_branch": self.dual_path_cycles_per_branch,
                "speedup": self.speedup,
            },
            "per_benchmark": dict(self.per_benchmark),
        }

    __str__ = format


def evaluate_dual_path(
    config: ExperimentConfig = DEFAULT_CONFIG,
    fork_threshold: int = 10,
    counter_maximum: int = 16,
    base_cycles_per_branch: float = 5.0,
    mispredict_penalty: float = 12.0,
    forked_mispredict_penalty: float = 1.0,
    fork_cost: float = 1.5,
    benchmarks: Optional["tuple[str, ...]"] = None,
) -> DualPathReport:
    """Evaluate a fork-on-low-confidence policy over the suite.

    ``fork_threshold`` selects the low-confidence set: resetting counter
    values ``0..fork_threshold`` fork.  The cost model is deliberately
    simple — a per-branch cycle budget plus penalties — because the paper
    treats dual-path benefits qualitatively; see the docstring.
    """
    if benchmarks is not None:
        config = config.scaled(benchmarks=tuple(benchmarks))
    if not 0 <= fork_threshold <= counter_maximum:
        raise ValueError(
            f"fork_threshold must be within [0, {counter_maximum}], "
            f"got {fork_threshold}"
        )
    index_function = make_index("pc_xor_bhr", config.ct_index_bits)

    total_branches = 0
    total_forks = 0
    total_mispredicts = 0
    covered_mispredicts = 0
    baseline_cycles = 0.0
    dual_cycles = 0.0
    per_benchmark: Dict[str, float] = {}

    for name, streams in suite_streams(config).items():
        gcirs = np.zeros(streams.num_branches, dtype=np.int64)
        indices = index_function.vectorized(streams.pcs, streams.bhrs, gcirs)
        counters = resetting_counter_stream(
            indices, streams.correct, maximum=counter_maximum
        )
        forked = counters <= fork_threshold
        mispredicted = streams.correct == 0

        n = streams.num_branches
        forks = int(forked.sum())
        mispredicts = int(mispredicted.sum())
        covered = int((forked & mispredicted).sum())

        bench_baseline = n * base_cycles_per_branch + mispredicts * mispredict_penalty
        bench_dual = (
            n * base_cycles_per_branch
            + forks * fork_cost
            + covered * forked_mispredict_penalty
            + (mispredicts - covered) * mispredict_penalty
        )
        per_benchmark[name] = bench_baseline / bench_dual if bench_dual else 0.0

        total_branches += n
        total_forks += forks
        total_mispredicts += mispredicts
        covered_mispredicts += covered
        baseline_cycles += bench_baseline
        dual_cycles += bench_dual

    return DualPathReport(
        fork_threshold=fork_threshold,
        fork_fraction=total_forks / total_branches if total_branches else 0.0,
        misprediction_coverage=(
            covered_mispredicts / total_mispredicts if total_mispredicts else 0.0
        ),
        baseline_cycles_per_branch=(
            baseline_cycles / total_branches if total_branches else 0.0
        ),
        dual_path_cycles_per_branch=(
            dual_cycles / total_branches if total_branches else 0.0
        ),
        per_benchmark=per_benchmark,
    )
