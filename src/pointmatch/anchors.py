"""Regular proposal-candidate grids, offset application and confidence
thresholding into a final prediction set."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .types import LabeledPoint, PredictedPoint, _Frozen


class GridSpec(_Frozen):
    """Geometry of the anchor grid: a feature map of ``feature_height`` x
    ``feature_width`` cells of ``stride`` pixels each, with a
    ``per_cell = (k_rows, k_cols)`` sub-grid of anchors per cell."""

    __slots__ = ("feature_height", "feature_width", "stride", "per_cell")

    def __init__(self, feature_height: int, feature_width: int, stride: float,
                 per_cell: tuple[int, int] = (2, 2)):
        self._set(feature_height, feature_width, stride, per_cell)
        if self.feature_height < 1 or self.feature_width < 1:
            raise ValueError("feature map dimensions must be >= 1")
        if not 0 < self.stride < math.inf:
            raise ValueError("stride must be positive and finite")
        if self.per_cell[0] < 1 or self.per_cell[1] < 1:
            raise ValueError("per-cell anchor counts must be >= 1")

    @property
    def num_anchors(self) -> int:
        return self.feature_height * self.feature_width * self.per_cell[0] * self.per_cell[1]


class AnchorSet(NamedTuple):
    positions: tuple[tuple[float, float], ...]
    spec: GridSpec


def make_grid(spec: GridSpec) -> AnchorSet:
    """Place anchors at the centers of each cell's uniform sub-cells.

    Order is row-major over feature cells, then row-major over the sub-grid
    within a cell, so output is deterministic.
    """
    k_rows, k_cols = spec.per_cell
    s = spec.stride
    positions = []
    for fy in range(spec.feature_height):
        for fx in range(spec.feature_width):
            for ky in range(k_rows):
                for kx in range(k_cols):
                    x = fx * s + (kx + 0.5) * s / k_cols
                    y = fy * s + (ky + 0.5) * s / k_rows
                    positions.append((x, y))
    return AnchorSet(positions=tuple(positions), spec=spec)


def apply_offsets(
    anchors: AnchorSet,
    offsets: list[tuple[float, float]],
    confidences: list[tuple[float, ...]],
) -> list[PredictedPoint]:
    """Shift each anchor by its offset and attach the confidence vector.

    Offsets are not clamped to the patch bounds.
    """
    m = len(anchors.positions)
    if len(offsets) != m or len(confidences) != m:
        raise ValueError(
            f"expected {m} offsets and confidence vectors, "
            f"got {len(offsets)} and {len(confidences)}"
        )
    out = []
    for (ax, ay), (dx, dy), conf in zip(anchors.positions, offsets, confidences):
        out.append(PredictedPoint(x=ax + dx, y=ay + dy, confidences=tuple(conf)))
    return out


def threshold_predictions(
    points: list[PredictedPoint],
    thresholds: list[float],
) -> list[tuple[LabeledPoint, float]]:
    """Keep points whose argmax class is a foreground class with confidence
    strictly above that class's threshold.

    ``thresholds`` covers foreground classes only (index 0 -> class 1).
    The argmax runs over background plus foreground; background-dominant
    points are dropped regardless of thresholds.
    """
    out = []
    for p in points:
        if p.num_classes != len(thresholds):
            raise ValueError("threshold vector length does not match class count")
        conf = np.asarray(p.confidences)
        cls = int(np.argmax(conf))
        if cls == 0:
            continue
        if conf[cls] > thresholds[cls - 1]:
            out.append((LabeledPoint(x=p.x, y=p.y, class_id=cls), float(conf[cls])))
    return out
