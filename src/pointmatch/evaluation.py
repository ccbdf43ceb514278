"""Point-detection evaluation: the corrected threshold-then-match protocol
and the two flawed protocols it supersedes (raw-distance Hungarian and
greedy one-to-many), with per-class and macro F1 reporting.

Matching is computed independently per class: a prediction can only ever
match a ground truth of the same class. Images are ``PointSet`` columns, and
each (image, class) cell's distance matrix is built once and shared by every
protocol scored, all three under ``compare_protocols``. The cells stream, in
sorted-image then class order, through ``score_cells`` in chunks of at most
``CELL_BATCH``: one min-cost call for a chunk's raw-Hungarian solves, and one
maximum matching over the union of its radius graphs for the matched
protocol. Counts come back as arrays of TP, FP and FN.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .assignment import max_matching_edges, solve_min_cost_batch
from .types import CostMatrix, Points, as_point_set, distance_matrix


# (image, class) cells scored per batch; bounds the distance matrices and
# radius graphs held at once
CELL_BATCH = 64


class Protocol(str, enum.Enum):
    MATCHED = "matched"
    RAW_HUNGARIAN = "raw_hungarian"
    GREEDY = "greedy"


class Aggregate(str, enum.Enum):
    DATASET_COUNTS = "dataset_counts"
    PER_IMAGE_MEAN = "per_image_mean"


@dataclass(frozen=True)
class EvalConfig:
    radius: float = 6.0
    protocol: Protocol = Protocol.MATCHED
    class_ids: tuple[int, ...] = (1,)
    aggregate: Aggregate = Aggregate.DATASET_COUNTS

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        if not self.class_ids or len(set(self.class_ids)) != len(self.class_ids):
            raise ValueError("class_ids must be non-empty and unique")


@dataclass(frozen=True)
class ClassCounts:
    class_id: int
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: "ClassCounts") -> "ClassCounts":
        if other.class_id != self.class_id:
            raise ValueError("cannot sum counts of different classes")
        return ClassCounts(
            class_id=self.class_id,
            tp=self.tp + other.tp,
            fp=self.fp + other.fp,
            fn=self.fn + other.fn,
        )


@dataclass(frozen=True)
class EvalReport:
    per_class: tuple[tuple[ClassCounts, float], ...]
    macro_f1: float
    protocol: Protocol
    images: int


def f1_from_counts(counts: ClassCounts) -> float:
    """F1 = TP / (TP + (FP + FN) / 2); 0 when all counts are zero."""
    denom = counts.tp + 0.5 * (counts.fp + counts.fn)
    if denom == 0:
        return 0.0
    return counts.tp / denom


def _cell(gts: np.ndarray, preds: np.ndarray, radius: float, raw: bool, edges: bool):
    """One (image, class) cell as (n, m, distance matrix, edge rows, edge
    cols): the matrix is kept only for raw Hungarian, and the edges within
    the radius only for matched and greedy. Built here rather than in the
    generator, whose frame would otherwise hold the previous cell's matrix
    while the next one is built."""
    dist = distance_matrix(gts, preds)
    rows, cols = np.nonzero(dist <= radius) if edges else (None, None)
    return (*dist.shape, dist if raw else None, rows, cols)


def _cells(gt_by_image, pred_by_image, images, class_ids, radius, protocols):
    """The (image, class) cells of ``images`` in order, classes in
    ``class_ids`` order within an image."""
    raw = Protocol.RAW_HUNGARIAN in protocols
    edges = Protocol.MATCHED in protocols or Protocol.GREEDY in protocols
    empty = as_point_set(())
    for image_id in images:
        gts = as_point_set(gt_by_image.get(image_id, empty))
        preds = as_point_set(pred_by_image.get(image_id, empty))
        for cls in class_ids:
            yield _cell(gts.xy[gts.cls == cls], preds.xy[preds.cls == cls], radius, raw, edges)


def score_cells(cells, radius: float, protocols: Sequence[Protocol]) -> dict[Protocol, np.ndarray]:
    """TP, FP and FN of each cell under each protocol, a (k, 3) array per
    protocol. One min-cost call solves every raw-Hungarian cell; one maximum
    matching over the union of the cells' radius graphs scores matched, and
    greedy reads the same edges."""
    n, m, dists, rows, cols = zip(*cells)
    n, m = np.array(n, dtype=np.int64), np.array(m, dtype=np.int64)
    k = len(n)
    tp, fn = {}, {}
    if Protocol.RAW_HUNGARIAN in protocols:
        hits = []
        for d, solved in zip(dists, solve_min_cost_batch([CostMatrix(d) for d in dists])):
            pairs = np.array(solved.pairs, dtype=np.int64).reshape(-1, 2)
            hits.append(np.count_nonzero(d[pairs[:, 0], pairs[:, 1]] <= radius))
        tp[Protocol.RAW_HUNGARIAN] = np.array(hits, dtype=np.int64)
    if Protocol.MATCHED in protocols or Protocol.GREEDY in protocols:
        # the cells' radius graphs as one block-diagonal graph
        cell_of_row = np.repeat(np.arange(k), n)
        cell_of_col = np.repeat(np.arange(k), m)
        rows = np.concatenate([r + o for r, o in zip(rows, np.cumsum(n) - n)])
        cols = np.concatenate([c + o for c, o in zip(cols, np.cumsum(m) - m)])
        if Protocol.MATCHED in protocols:
            matched, _ = max_matching_edges(rows, cols)
            tp[Protocol.MATCHED] = np.bincount(cell_of_row[matched], minlength=k)
        if Protocol.GREEDY in protocols:
            # every prediction with an edge is a hit, every ground truth
            # without one a miss
            tp[Protocol.GREEDY] = np.bincount(cell_of_col[np.unique(cols)], minlength=k)
            fn[Protocol.GREEDY] = n - np.bincount(cell_of_row[np.unique(rows)], minlength=k)
    return {p: np.stack([tp[p], m - tp[p], fn.get(p, n - tp[p])], axis=1) for p in protocols}


def _evaluate(gt_by_image, pred_by_image, radius, class_ids, protocols) -> dict[Protocol, np.ndarray]:
    """TP, FP and FN per protocol as an (images, classes, 3) array, images
    being the union of image ids in sorted order. Cells are scored
    ``CELL_BATCH`` at a time."""
    images = sorted(set(gt_by_image) | set(pred_by_image))
    cells = _cells(gt_by_image, pred_by_image, images, class_ids, radius, protocols)
    total = len(images) * len(class_ids)
    counts = {p: np.zeros((total, 3), dtype=np.int64) for p in protocols}
    for start in range(0, total, CELL_BATCH):
        scored = score_cells(list(islice(cells, CELL_BATCH)), radius, protocols)
        for p in protocols:
            counts[p][start : start + CELL_BATCH] = scored[p]
    return {p: c.reshape(len(images), len(class_ids), 3) for p, c in counts.items()}


def _match(protocol, gts, preds, radius, class_ids) -> dict[int, ClassCounts]:
    """Counts per class of one image under ``protocol``."""
    EvalConfig(radius=radius)  # refuses a radius that is not positive and finite
    gts, preds = as_point_set(gts), as_point_set(preds)
    if class_ids is None:
        class_ids = np.union1d(gts.cls, preds.cls).tolist()
    counts = _evaluate({"": gts}, {"": preds}, radius, class_ids, (protocol,))[protocol]
    return {cls: ClassCounts(cls, *c) for cls, c in zip(class_ids, counts[0].tolist())}


def match_thresholded(
    gts: Points,
    preds: Points,
    radius: float,
    class_ids: tuple[int, ...] | None = None,
) -> dict[int, ClassCounts]:
    """Corrected protocol: threshold distances at the radius (inclusive),
    then maximum bipartite matching per class; TP = matching size."""
    return _match(Protocol.MATCHED, gts, preds, radius, class_ids)


def match_raw_hungarian(
    gts: Points,
    preds: Points,
    radius: float,
    class_ids: tuple[int, ...] | None = None,
) -> dict[int, ClassCounts]:
    """Flawed protocol: min-cost assignment on the raw distance matrix,
    radius filtering only afterwards. Reproduced deliberately; its global
    objective can discard locally correct detections."""
    return _match(Protocol.RAW_HUNGARIAN, gts, preds, radius, class_ids)


def match_greedy(
    gts: Points,
    preds: Points,
    radius: float,
    class_ids: tuple[int, ...] | None = None,
) -> dict[int, ClassCounts]:
    """Flawed protocol: every prediction within the radius of any same-class
    ground truth counts as a true positive (one-to-many), inflating TP."""
    return _match(Protocol.GREEDY, gts, preds, radius, class_ids)


def _report(protocol: Protocol, counts: np.ndarray, config: EvalConfig) -> EvalReport:
    """The report of one protocol's (images, classes, 3) counts."""
    per_class = []
    for j, cls in enumerate(config.class_ids):
        total = ClassCounts(cls, *counts[:, j].sum(axis=0).tolist())
        if config.aggregate is Aggregate.DATASET_COUNTS:
            f1 = f1_from_counts(total)
        else:
            f1s = [f1_from_counts(ClassCounts(cls, *c)) for c in counts[:, j].tolist()]
            f1 = sum(f1s) / len(f1s) if f1s else 0.0
        per_class.append((total, f1))

    macro = sum(f1 for _, f1 in per_class) / len(per_class)
    return EvalReport(
        per_class=tuple(per_class),
        macro_f1=macro,
        protocol=protocol,
        images=len(counts),
    )


def evaluate_dataset(
    gt_by_image: dict[str, Points],
    pred_by_image: dict[str, Points],
    config: EvalConfig,
) -> EvalReport:
    """Run the configured protocol over every image and aggregate.

    Images missing from the prediction side count as empty predictions;
    prediction-only images contribute pure false positives. Under
    ``dataset_counts`` TP/FP/FN are summed before F1; under
    ``per_image_mean`` per-image F1 scores are averaged.
    """
    counts = _evaluate(
        gt_by_image, pred_by_image, config.radius, config.class_ids, (config.protocol,)
    )
    return _report(config.protocol, counts[config.protocol], config)


@dataclass(frozen=True)
class ProtocolComparison:
    protocol: Protocol
    per_class_f1: tuple[tuple[int, float], ...]
    macro_f1: float
    per_class_delta_pct: tuple[tuple[int, float], ...]
    macro_delta_pct: float


def _delta_pct(value: float, reference: float) -> float:
    if reference > 0:
        return 100.0 * (value - reference) / reference
    return 0.0 if value == reference else float("inf")


def compare_protocols(
    gt_by_image: dict[str, Points],
    pred_by_image: dict[str, Points],
    radius: float,
    class_ids: tuple[int, ...],
    aggregate: Aggregate = Aggregate.DATASET_COUNTS,
) -> tuple[ProtocolComparison, ...]:
    """Evaluate all three protocols on identical inputs, reporting relative
    F1 deltas against the corrected (matched) protocol."""
    config = EvalConfig(radius=radius, class_ids=class_ids, aggregate=aggregate)
    counts = _evaluate(gt_by_image, pred_by_image, radius, class_ids, tuple(Protocol))
    reports = {protocol: _report(protocol, counts[protocol], config) for protocol in Protocol}

    reference = reports[Protocol.MATCHED]
    ref_by_class = {c.class_id: f1 for c, f1 in reference.per_class}
    rows = []
    for protocol in Protocol:
        rep = reports[protocol]
        per_class_f1 = tuple((c.class_id, f1) for c, f1 in rep.per_class)
        deltas = tuple(
            (cls, _delta_pct(f1, ref_by_class[cls])) for cls, f1 in per_class_f1
        )
        rows.append(
            ProtocolComparison(
                protocol=protocol,
                per_class_f1=per_class_f1,
                macro_f1=rep.macro_f1,
                per_class_delta_pct=deltas,
                macro_delta_pct=_delta_pct(rep.macro_f1, reference.macro_f1),
            )
        )
    return tuple(rows)
