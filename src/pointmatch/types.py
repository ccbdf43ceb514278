"""Core value types shared across the matching and evaluation modules."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LabeledPoint:
    """A 2D point with a foreground class label (class ids start at 1)."""

    x: float
    y: float
    class_id: int

    def __post_init__(self):
        if self.class_id < 1:
            raise ValueError("class_id must be >= 1 (0 is reserved for background)")
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise ValueError("coordinates must be finite")


@dataclass(frozen=True)
class PredictedPoint:
    """A 2D point with per-class confidences.

    ``confidences[0]`` is the background confidence, ``confidences[t]`` the
    confidence for foreground class ``t``.
    """

    x: float
    y: float
    confidences: tuple[float, ...]

    def __post_init__(self):
        if len(self.confidences) < 2:
            raise ValueError("confidences needs background plus at least one class")
        if any(c < 0.0 or c > 1.0 for c in self.confidences):
            raise ValueError("confidences must lie in [0, 1]")
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise ValueError("coordinates must be finite")

    @property
    def num_classes(self) -> int:
        return len(self.confidences) - 1


@dataclass(frozen=True, eq=False)
class PointSet:
    """The points of one image as columns: coordinates ``xy`` (n, 2) and
    class ids ``cls`` (n,), in file order. Training proposals also carry
    their (bg, 1..T) confidence matrix ``conf`` (n, T+1).

    Whoever builds one has validated it: ``pointfile`` checks whole files
    at load, and ``LabeledPoint`` and ``PredictedPoint`` check each point
    they are built from.
    """

    xy: np.ndarray
    cls: np.ndarray
    conf: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.cls)


# the points that evaluation and matching entry points accept
Points = PointSet | Sequence[LabeledPoint] | Sequence[PredictedPoint]


def as_point_set(points: Points) -> PointSet:
    """``points`` unchanged if it is a PointSet, else the PointSet of a
    sequence of LabeledPoints or of PredictedPoints.

    PredictedPoint vectors are cut to the length of the shortest one, and
    each proposal's class is its most confident foreground class.
    """
    if isinstance(points, PointSet):
        return points
    xy = np.array([(p.x, p.y) for p in points], dtype=float).reshape(-1, 2)
    if points and isinstance(points[0], PredictedPoint):
        width = min(len(p.confidences) for p in points)
        conf = np.array([p.confidences[:width] for p in points], dtype=float)
        return PointSet(xy, 1 + conf[:, 1:].argmax(axis=1), conf)
    return PointSet(xy, np.array([p.class_id for p in points], dtype=np.int64))


def distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of two (n, 2) and (m, 2)
    coordinate arrays, shape n x m."""
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)


class CostMatrix:
    """Dense rectangular matrix of pairwise matching costs."""

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 2:
            raise ValueError("cost matrix must be 2-dimensional")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("cost matrix entries must be finite")
        self.values = arr

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def __repr__(self):
        return f"CostMatrix({self.rows}x{self.cols})"


class BoolMatrix:
    """Dense rectangular boolean adjacency matrix."""

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.asarray(values, dtype=bool)
        if arr.ndim != 2:
            raise ValueError("boolean matrix must be 2-dimensional")
        self.values = arr

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def __repr__(self):
        return f"BoolMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class Assignment:
    """A one-to-one pairing between row and column index sets.

    ``pairs`` is sorted by row index; each row and column appears at most
    once. ``unmatched_rows``/``unmatched_cols`` hold the leftovers so that
    ``len(pairs) + len(unmatched_rows) == rows`` (and likewise for columns).
    """

    pairs: tuple[tuple[int, int], ...]
    unmatched_rows: tuple[int, ...] = field(default=())
    unmatched_cols: tuple[int, ...] = field(default=())

    def __post_init__(self):
        rows = [r for r, _ in self.pairs]
        cols = [c for _, c in self.pairs]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("duplicate row or column index in pairs")
        if set(rows) & set(self.unmatched_rows) or set(cols) & set(self.unmatched_cols):
            raise ValueError("matched index listed as unmatched")

    @property
    def size(self) -> int:
        return len(self.pairs)

    def total_cost(self, costs: CostMatrix) -> float:
        """Sum of matrix entries over the matched pairs."""
        return float(sum(costs.values[r, c] for r, c in self.pairs))
