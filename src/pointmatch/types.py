"""Core value types shared across the matching and evaluation modules."""

from __future__ import annotations

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


def distance_matrix(gts, preds) -> np.ndarray:
    """Euclidean distances between two point lists, shape N x M."""
    if not gts or not preds:
        return np.zeros((len(gts), len(preds)))
    gxy = np.array([[g.x, g.y] for g in gts])
    pxy = np.array([[p.x, p.y] for p in preds])
    return np.linalg.norm(gxy[:, None, :] - pxy[None, :, :], axis=2)


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
