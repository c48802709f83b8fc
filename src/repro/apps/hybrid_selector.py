"""Confidence-driven hybrid predictor selection (paper application 3).

Hybrid predictors (McFarling) select between two component predictors
with an ad-hoc chooser table.  The paper suggests that comparing the
components' *confidence* signals could yield a more systematic selector.

This module evaluates, per benchmark:

* the two components — a bimodal predictor (PC-indexed 2-bit counters)
  and a gshare predictor.  Both are cached predictor sweeps
  (:func:`~repro.experiments.runner.suite_streams`): gshare is the
  suite's own sweep, bimodal the same sweep with no history bits;
* the McFarling baseline — a PC-indexed 2-bit chooser trained toward the
  component that was right when they disagree in correctness;
* the confidence selector — a resetting counter per component (indexed
  the same way as that component, tracking *that component's*
  correctness) selecting the component with the higher counter, ties to
  gshare.

Where the components agree every selector is right exactly when they
are, so the selectors are grouped scans (:mod:`repro.sim.kernels`) read
only at the disagreement positions; warm runs generate no trace.

The report gives all four accuracies.  Expected: both hybrids beat both
components, and the confidence selector is competitive with (the paper
hopes: near-optimal versus) the chooser.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.indexing import PC_ALIGNMENT_BITS
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.runner import suite_streams
from repro.sim.fast import PredictorStreams, resetting_counter_stream
from repro.sim.kernels import segmented_clamped_walk
from repro.utils.bits import bit_mask

#: A chooser counter at or above this value selects gshare.
_CHOOSER_NEUTRAL = 2


@dataclass(frozen=True)
class HybridAccuracies:
    """Prediction accuracies of the four schemes on one benchmark."""

    bimodal: float
    gshare: float
    chooser_hybrid: float
    confidence_hybrid: float


@dataclass(frozen=True)
class HybridSelectorReport:
    """Suite-level comparison of hybrid selection schemes."""

    per_benchmark: Dict[str, HybridAccuracies]

    def _mean(self, attribute: str) -> float:
        values = [getattr(acc, attribute) for acc in self.per_benchmark.values()]
        return sum(values) / len(values) if values else 0.0

    @property
    def mean_bimodal(self) -> float:
        return self._mean("bimodal")

    @property
    def mean_gshare(self) -> float:
        return self._mean("gshare")

    @property
    def mean_chooser(self) -> float:
        return self._mean("chooser_hybrid")

    @property
    def mean_confidence(self) -> float:
        return self._mean("confidence_hybrid")

    @property
    def confidence_selector_competitive(self) -> bool:
        """Within half a point of the McFarling chooser, suite-wide."""
        return self.mean_confidence >= self.mean_chooser - 0.005

    def format(self) -> str:
        lines = [
            "Hybrid predictor selection (bimodal + gshare components)",
            f"{'benchmark':12s} {'bimodal':>9s} {'gshare':>9s} "
            f"{'chooser':>9s} {'confid.':>9s}",
        ]
        for name, acc in self.per_benchmark.items():
            lines.append(
                f"{name:12s} {acc.bimodal:9.4f} {acc.gshare:9.4f} "
                f"{acc.chooser_hybrid:9.4f} {acc.confidence_hybrid:9.4f}"
            )
        lines.append(
            f"{'MEAN':12s} {self.mean_bimodal:9.4f} {self.mean_gshare:9.4f} "
            f"{self.mean_chooser:9.4f} {self.mean_confidence:9.4f}"
        )
        lines.append(
            "confidence selector competitive with chooser: "
            f"{self.confidence_selector_competitive}"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """JSON-serializable record (application, headline, per_benchmark)."""
        return {
            "application": "hybrid-selector",
            "headline": {
                "mean_bimodal": self.mean_bimodal,
                "mean_gshare": self.mean_gshare,
                "mean_chooser": self.mean_chooser,
                "mean_confidence": self.mean_confidence,
                "confidence_selector_competitive": (
                    self.confidence_selector_competitive
                ),
            },
            "per_benchmark": {
                name: dataclasses.asdict(acc)
                for name, acc in self.per_benchmark.items()
            },
        }

    __str__ = format


def _accuracies(
    gshare: PredictorStreams,
    bimodal_hit: np.ndarray,
    gshare_history_bits: int,
    gshare_entries: int,
    bimodal_entries: int,
    counter_maximum: int,
) -> HybridAccuracies:
    """All four accuracies of one benchmark from its two component sweeps.

    Only the disagreement positions train the chooser, so its clamped
    walk runs over those alone; both confidence tables see every branch.
    """
    gshare_hit = gshare.correct
    split = np.flatnonzero(gshare_hit != bimodal_hit)
    gshare_wins = gshare_hit[split] != 0
    both_hit = int(np.count_nonzero(gshare_hit & bimodal_hit))

    pc_index = (gshare.pcs >> PC_ALIGNMENT_BITS) & (bimodal_entries - 1)
    chooser, _ = segmented_clamped_walk(
        pc_index[split],
        2 * gshare_wins.astype(np.int64) - 1,
        0,
        3,
        np.full(bimodal_entries, _CHOOSER_NEUTRAL, dtype=np.int64),
    )
    bimodal_confidence = resetting_counter_stream(
        pc_index, bimodal_hit, maximum=counter_maximum
    )[split]
    del pc_index
    gshare_index = gshare.pcs >> PC_ALIGNMENT_BITS
    gshare_index ^= gshare.bhrs & bit_mask(gshare_history_bits)
    gshare_index &= gshare_entries - 1
    gshare_confidence = resetting_counter_stream(
        gshare_index, gshare_hit, maximum=counter_maximum
    )[split]

    chooser_right = (chooser >= _CHOOSER_NEUTRAL) == gshare_wins
    confidence_right = (gshare_confidence >= bimodal_confidence) == gshare_wins
    n = gshare.num_branches
    return HybridAccuracies(
        bimodal=int(np.count_nonzero(bimodal_hit)) / n,
        gshare=int(np.count_nonzero(gshare_hit)) / n,
        chooser_hybrid=(both_hit + int(np.count_nonzero(chooser_right))) / n,
        confidence_hybrid=(both_hit + int(np.count_nonzero(confidence_right))) / n,
    )


def evaluate_hybrid_selector(
    config: ExperimentConfig = DEFAULT_CONFIG,
    bimodal_entries: int = 4096,
    counter_maximum: int = 16,
    benchmarks: Optional["tuple[str, ...]"] = None,
) -> HybridSelectorReport:
    """Compare selection schemes across the suite.

    The gshare component is the suite's cached predictor sweep; the
    bimodal component is the same sweep with ``bimodal_entries`` entries
    and no history bits (a gshare without history indexes by PC alone).
    """
    if benchmarks is not None:
        config = config.scaled(benchmarks=tuple(benchmarks))
    if bimodal_entries < 1 or bimodal_entries & (bimodal_entries - 1):
        raise ValueError(
            f"bimodal_entries must be a power of two, got {bimodal_entries}"
        )
    if not 1 <= counter_maximum <= 30:
        raise ValueError(
            f"counter_maximum must be within [1, 30], got {counter_maximum}"
        )
    bimodal = suite_streams(
        config.scaled(predictor_entries=bimodal_entries, predictor_history_bits=0)
    )
    per_benchmark = {
        name: _accuracies(
            streams,
            bimodal[name].correct,
            gshare_history_bits=config.predictor_history_bits,
            gshare_entries=config.predictor_entries,
            bimodal_entries=bimodal_entries,
            counter_maximum=counter_maximum,
        )
        for name, streams in suite_streams(config).items()
    }
    return HybridSelectorReport(per_benchmark=per_benchmark)
