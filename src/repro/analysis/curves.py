"""Confidence curves (the paper's Figs. 2, 5-11).

A curve is built from bucket statistics plus an ordering:

* **empirical** ordering sorts buckets by observed misprediction rate,
  highest first — the paper's idealized "optimal reduction function"
  (each data point defines a candidate low/high confidence split);
* an **explicit** ordering (from an ORDERED estimator, e.g. resetting
  counter values 0..16) evaluates a practical reduction function: points
  appear in the declared least-confident-first order, whatever their
  observed rates.

Each curve point (x, y) reads: the ``x`` percent least-confident dynamic
branches capture ``y`` percent of all mispredictions.

A curve is stored as four column arrays (x, y, bucket, bucket rate); the
queries run on the columns, and :class:`CurvePoint` objects are built
only when :attr:`ConfidenceCurve.points` is read.  A 16-bit CIR curve has
up to 2**16 points, and most callers only ask it a handful of questions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
import numpy.typing as npt

from repro.analysis.buckets import BucketStatistics

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]


@dataclass(frozen=True)
class CurvePoint:
    """One cumulative point on a confidence curve."""

    #: Cumulative percent of dynamic branches (0-100].
    dynamic_percent: float
    #: Cumulative percent of mispredictions captured (0-100].
    misprediction_percent: float
    #: The bucket whose inclusion produced this point.
    bucket: int
    #: This bucket's own misprediction rate.
    bucket_rate: float


class ConfidenceCurve:
    """Cumulative mispredictions versus cumulative dynamic branches."""

    def __init__(self, name: str, points: Sequence[CurvePoint]) -> None:
        points = list(points)
        self._init_columns(
            name,
            np.array([p.dynamic_percent for p in points], dtype=np.float64),
            np.array([p.misprediction_percent for p in points], dtype=np.float64),
            np.array([p.bucket for p in points], dtype=np.int64),
            np.array([p.bucket_rate for p in points], dtype=np.float64),
        )
        self._points = points

    def _init_columns(
        self,
        name: str,
        xs: FloatArray,
        ys: FloatArray,
        buckets: IntArray,
        rates: FloatArray,
    ) -> None:
        """Adopt the column arrays; x must be non-decreasing (1e-9 slack)."""
        if np.any(xs[:-1] > xs[1:] + 1e-9):
            raise ValueError("curve points must have non-decreasing x")
        self._name = name
        # The origin-prefixed series: the queries interpolate through it.
        self._series_x = np.concatenate(([0.0], xs))
        self._series_y = np.concatenate(([0.0], ys))
        self._buckets = buckets
        self._rates = rates
        self._points: Optional[List[CurvePoint]] = None

    @classmethod
    def _from_columns(
        cls,
        name: str,
        xs: FloatArray,
        ys: FloatArray,
        buckets: IntArray,
        rates: FloatArray,
    ) -> "ConfidenceCurve":
        curve = cls.__new__(cls)
        curve._init_columns(name, xs, ys, buckets, rates)
        return curve

    # ----- construction -----------------------------------------------------

    @classmethod
    def from_statistics(
        cls,
        statistics: BucketStatistics,
        order: Optional[Sequence[int]] = None,
        name: str = "",
    ) -> "ConfidenceCurve":
        """Build a curve from bucket statistics.

        ``order`` is the least-confident-first bucket order; ``None``
        selects the empirical (ideal) order: descending observed
        misprediction rate, ties broken by bucket id for determinism.
        Buckets with zero executions contribute no points.
        """
        counts = statistics.counts
        mispredicts = statistics.mispredicts
        if order is None:
            rates = statistics.rates()
            occupied = np.flatnonzero(counts > 0)
            order_arr = occupied[np.lexsort((occupied, -rates[occupied]))]
        else:
            order_arr = np.asarray(list(order), dtype=np.int64)
            if order_arr.size and (
                order_arr.min() < 0 or order_arr.max() >= statistics.num_buckets
            ):
                raise ValueError("order contains bucket ids out of range")
            order_arr = order_arr[counts[order_arr] > 0]

        total = counts.sum()
        total_mispredicts = mispredicts.sum()
        if total == 0:
            return cls(name, [])
        ordered_counts = counts[order_arr]
        ordered_mispredicts = mispredicts[order_arr]
        xs = 100.0 * np.cumsum(ordered_counts) / total
        if total_mispredicts > 0:
            ys = 100.0 * np.cumsum(ordered_mispredicts) / total_mispredicts
        else:
            ys = np.full_like(xs, 100.0)
        return cls._from_columns(
            name,
            xs,
            ys,
            order_arr.astype(np.int64, copy=False),
            ordered_mispredicts / ordered_counts,
        )

    # ----- access -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def points(self) -> List[CurvePoint]:
        if self._points is None:
            self._points = [
                CurvePoint(x, y, bucket, rate)
                for x, y, bucket, rate in zip(
                    self._series_x[1:].tolist(),
                    self._series_y[1:].tolist(),
                    self._buckets.tolist(),
                    self._rates.tolist(),
                )
            ]
        return list(self._points)

    def __len__(self) -> int:
        return int(self._buckets.size)

    def as_series(
        self,
    ) -> "tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]":
        """(x, y) arrays including the implicit origin."""
        return self._series_x.copy(), self._series_y.copy()

    def _point(self, position: int) -> CurvePoint:
        """The ``position``-th point, built from the columns."""
        return CurvePoint(
            float(self._series_x[position + 1]),
            float(self._series_y[position + 1]),
            int(self._buckets[position]),
            float(self._rates[position]),
        )

    def _take(self, positions: IntArray) -> "ConfidenceCurve":
        """A curve of the points at ``positions`` (in the given order)."""
        return ConfidenceCurve._from_columns(
            self._name,
            self._series_x[1:][positions],
            self._series_y[1:][positions],
            self._buckets[positions],
            self._rates[positions],
        )

    # ----- queries ----------------------------------------------------------

    def mispredictions_captured_at(self, dynamic_percent: float) -> float:
        """Percent of mispredictions captured by the ``dynamic_percent``
        least-confident branches (linear interpolation between points,
        through the origin).

        This is the paper's headline query shape: "20 percent of the
        branches concentrate X percent of the mispredictions".
        """
        if not 0.0 <= dynamic_percent <= 100.0:
            raise ValueError(f"dynamic_percent must be in [0, 100], got {dynamic_percent}")
        if not len(self):
            return 0.0
        xs, ys = self._series_x, self._series_y
        position = int(np.searchsorted(xs, dynamic_percent, side="left"))
        if position >= xs.size:
            return float(ys[-1])
        if xs[position] == dynamic_percent or position == 0:
            return float(ys[position])
        x0, x1 = float(xs[position - 1]), float(xs[position])
        y0, y1 = float(ys[position - 1]), float(ys[position])
        if x1 == x0:
            return y1
        return y0 + (y1 - y0) * (dynamic_percent - x0) / (x1 - x0)

    def low_confidence_buckets(self, max_dynamic_percent: float) -> List[int]:
        """The largest least-confident bucket prefix whose dynamic-branch
        share does not exceed ``max_dynamic_percent``.

        This is how an offline curve is turned into an online threshold
        (see :class:`repro.core.threshold.ThresholdConfidence`).
        """
        beyond = np.flatnonzero(self._series_x[1:] > max_dynamic_percent + 1e-9)
        stop = int(beyond[0]) if beyond.size else len(self)
        selected: List[int] = self._buckets[:stop].tolist()
        return selected

    def knee(self) -> CurvePoint:
        """The curve's knee: the point farthest above the diagonal.

        The paper reads curves by their knees ("the steeper the initial
        slope and the farther to the left the knee occurs, the better").
        The knee is where the marginal value of enlarging the low
        confidence set starts to fall below average — a natural operating
        point for threshold selection.
        """
        if not len(self):
            raise ValueError("cannot locate the knee of an empty curve")
        # argmax returns the first maximum, as max() over the points did.
        position = int(np.argmax(self._series_y[1:] - self._series_x[1:]))
        if self._points is not None:
            return self._points[position]
        return self._point(position)

    def area_under_curve(self) -> float:
        """Trapezoidal area under the curve, normalized to [0, 1].

        1.0 would mean all mispredictions in an infinitesimal branch set;
        the diagonal (no information) scores 0.5.  A convenient scalar for
        comparing mechanisms.
        """
        xs, ys = self._series_x, self._series_y
        if xs[-1] < 100.0:
            xs = np.concatenate((xs, [100.0]))
            ys = np.concatenate((ys, [100.0]))
        # Trapezoidal rule (numpy.trapz was removed in numpy 2).
        area = float(np.sum((xs[1:] - xs[:-1]) * (ys[1:] + ys[:-1]) / 2.0))
        return area / (100.0 * 100.0)

    def sparsified(self, min_spacing_percent: float = 2.5) -> "ConfidenceCurve":
        """Drop points closer than ``min_spacing_percent`` to the previous
        kept point (the paper plots "only those points that differ from a
        previous point by 2.5 percent").  The final point is always kept.
        """
        count = len(self)
        if not count:
            return ConfidenceCurve(self._name, [])
        xs = self._series_x[1:].tolist()
        ys = self._series_y[1:].tolist()
        kept = [0]
        for position in range(1, count - 1):
            previous = kept[-1]
            if (
                xs[position] - xs[previous] >= min_spacing_percent
                or ys[position] - ys[previous] >= min_spacing_percent
            ):
                kept.append(position)
        if count > 1:
            kept.append(count - 1)
        return self._take(np.asarray(kept, dtype=np.int64))

    def __repr__(self) -> str:
        return f"ConfidenceCurve(name={self._name!r}, points={len(self)})"
