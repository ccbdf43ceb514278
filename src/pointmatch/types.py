"""Core value types shared across the matching and evaluation modules."""

from __future__ import annotations

import enum
from collections.abc import Sequence

import numpy as np

# the largest |x| or |y| accepted: distances, squared distances and their
# sums over any number of pairs stay finite
_MAX_COORD = 1e100
_COORD_ERROR = f"coordinates must be finite and at most {_MAX_COORD:g} in absolute value"

# entries of one dense matrix, 2 GiB of float64: evaluation refuses a larger
# cell, and training a larger replicated cost matrix, before allocating it
CELL_DISTANCES = 1 << 28


# the evaluation protocols and aggregations; defined here, beside the other
# value types, so the CLI can list them without importing evaluation
class Protocol(str, enum.Enum):
    MATCHED = "matched"
    RAW_HUNGARIAN = "raw_hungarian"
    GREEDY = "greedy"


class Aggregate(str, enum.Enum):
    DATASET_COUNTS = "dataset_counts"
    PER_IMAGE_MEAN = "per_image_mean"


def _check_coords(x: float, y: float) -> None:
    if not (abs(x) <= _MAX_COORD and abs(y) <= _MAX_COORD):
        raise ValueError(_COORD_ERROR)


class _Frozen:
    """Base of the value types that check their fields or are not tuples.
    A subclass names its fields in ``__slots__``; its ``__init__`` sets them
    once with ``_set``, then checks them. As on a frozen dataclass, fields
    cannot be reassigned, and equality, hash and repr read them in order;
    ``_asdict`` and ``_replace`` work as on a NamedTuple, but check."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})

    def __eq__(self, other):
        return self._asdict() == other._asdict() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(self._asdict().values()))

    def __reduce__(self):  # copy and pickle build through __init__, which checks
        return type(self), tuple(self._asdict().values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({fields})"


class LabeledPoint(_Frozen):
    """A 2D point with a foreground class label (class ids start at 1)."""

    __slots__ = ("x", "y", "class_id")

    def __init__(self, x: float, y: float, class_id: int):
        self._set(x, y, class_id)
        if self.class_id < 1:
            raise ValueError("class_id must be >= 1 (0 is reserved for background)")
        _check_coords(self.x, self.y)


class PredictedPoint(_Frozen):
    """A 2D point with per-class confidences.

    ``confidences[0]`` is the background confidence, ``confidences[t]`` the
    confidence for foreground class ``t``.
    """

    __slots__ = ("x", "y", "confidences")

    def __init__(self, x: float, y: float, confidences: tuple[float, ...]):
        self._set(x, y, confidences)
        if len(self.confidences) < 2:
            raise ValueError("confidences needs background plus at least one class")
        if not all(0.0 <= c <= 1.0 for c in self.confidences):
            raise ValueError("confidences must lie in [0, 1]")
        _check_coords(self.x, self.y)


class PointSet(_Frozen):
    """The points of one image as columns: coordinates ``xy`` (n, 2) and
    class ids ``cls`` (n,), in file order. Training proposals also carry
    their (bg, 1..T) confidence matrix ``conf`` (n, T+1).

    Whoever builds one has validated it: ``pointfile`` checks whole files
    at load, and ``LabeledPoint`` and ``PredictedPoint`` check each point
    they are built from. Evaluation refuses a coordinate that is not within
    ``_MAX_COORD`` (NaN included) with their message. Two PointSets are
    equal only if they are one object.
    """

    __slots__ = ("xy", "cls", "conf")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, xy: np.ndarray, cls: np.ndarray, conf: np.ndarray | None = None):
        self._set(xy, cls, conf)

    def __len__(self) -> int:
        return len(self.cls)


# the points that evaluation and matching entry points accept
Points = PointSet | Sequence[LabeledPoint] | Sequence[PredictedPoint]


def as_point_set(points: Points) -> PointSet:
    """``points`` unchanged if it is a PointSet, else the PointSet of a
    sequence of LabeledPoints or of PredictedPoints.

    PredictedPoint vectors must all have one length, and each proposal's
    class is its most confident foreground class.
    """
    if isinstance(points, PointSet):
        return points
    xy = np.array([(p.x, p.y) for p in points], dtype=float).reshape(-1, 2)
    if points and isinstance(points[0], PredictedPoint):
        if len({len(p.confidences) for p in points}) > 1:
            raise ValueError("confidences must all have the same length")
        conf = np.array([p.confidences for p in points], dtype=float)
        return PointSet(xy, 1 + conf[:, 1:].argmax(axis=1), conf)
    return PointSet(xy, np.array([p.class_id for p in points], dtype=np.int64))


# elements of a distance matrix whose squared y offsets are added at once
_DY_CHUNK = 1 << 14


def distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the points of an (..., n, 2) and an
    (..., m, 2) coordinate array of equal leading shape, shape (..., n, m).

    Each distance is sqrt(dx * dx + dy * dy), the arithmetic of
    ``np.linalg.norm(a[..., :, None, :] - b[..., None, :, :], axis=-1)``, so
    the two agree bit for bit. The result is the only array of its size:
    dy * dy is added to it in chunks of rows.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n, m = a.shape[-2], b.shape[-2]
    d = np.subtract(a[..., :, None, 0], b[..., None, :, 0], order="C")
    d *= d
    if d.size:
        rows = d.reshape(-1, m)
        ay, by = a[..., 1].reshape(-1, 1), b[..., 1].reshape(-1, m)
        step = max(1, _DY_CHUNK // m)
        for lo in range(0, len(rows), step):
            dy = ay[lo : lo + step] - by[np.arange(lo, min(lo + step, len(rows))) // n]
            dy *= dy
            rows[lo : lo + step] += dy
    return np.sqrt(d, out=d)


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


class Assignment(_Frozen):
    """A one-to-one pairing between row and column index sets.

    ``pairs`` is sorted by row index; each row and column appears at most
    once. ``unmatched_rows``/``unmatched_cols`` hold the leftovers so that
    ``len(pairs) + len(unmatched_rows) == rows`` (and likewise for columns).
    """

    __slots__ = ("pairs", "unmatched_rows", "unmatched_cols")

    def __init__(self, pairs: tuple[tuple[int, int], ...], unmatched_rows: tuple[int, ...] = (),
                 unmatched_cols: tuple[int, ...] = ()):
        self._set(pairs, unmatched_rows, unmatched_cols)
        rows = [r for r, _ in self.pairs]
        cols = [c for _, c in self.pairs]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("duplicate row or column index in pairs")
        if set(rows) & set(self.unmatched_rows) or set(cols) & set(self.unmatched_cols):
            raise ValueError("matched index listed as unmatched")
