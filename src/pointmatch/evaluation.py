"""Point-detection evaluation: the corrected threshold-then-match protocol
and the two flawed protocols it supersedes (raw-distance Hungarian and
greedy one-to-many), with per-class and macro F1 reporting.

Matching is computed independently per class: a prediction can only ever
match a ground truth of the same class. Images are ``PointSet`` columns; each
image is split by class once, and each (image, class) distance matrix is
built once and shared by every protocol scored, all three under
``compare_protocols``. Successive (image, class) cells are gathered into
batches of at most ``CELL_BATCH`` and each batch is scored at once: one
min-cost call for its raw-Hungarian solves, and one maximum matching over
the union of its radius graphs for the matched protocol.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .assignment import max_matching_edges, solve_min_cost_batch
from .types import CostMatrix, Points, PointSet, as_point_set, distance_matrix


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


class _CellBatch:
    """(image, class) cells waiting to be scored under ``protocols``.

    ``add`` records where a cell's counts go; they are written when the
    batch is scored, on the ``CELL_BATCH``-th cell or at ``flush``. A cell
    keeps its distance matrix only for raw Hungarian, and its edges within
    the radius only for matched and greedy.
    """

    def __init__(self, radius: float, protocols: Sequence[Protocol]):
        self.radius = radius
        self.protocols = protocols
        self.raw = Protocol.RAW_HUNGARIAN in protocols
        self.edges = Protocol.MATCHED in protocols or Protocol.GREEDY in protocols
        # (counts dict, class id, shape, distance matrix, edge rows, edge cols)
        self.cells = []

    def add(self, out: dict, class_id: int, dist: np.ndarray):
        for protocol in self.protocols:
            out[protocol, class_id] = None  # until the batch is scored
        edges = np.nonzero(dist <= self.radius) if self.edges else (None, None)
        self.cells.append((out, class_id, dist.shape, dist if self.raw else None, *edges))
        if len(self.cells) == CELL_BATCH:
            self.flush()

    def flush(self):
        if not self.cells:
            return
        outs, classes, shapes, dists, rows, cols = zip(*self.cells)
        n, m = np.array(shapes, dtype=np.int64).T
        k = len(n)
        tp, fn = {}, {}
        if self.raw:
            hits = []
            for d, solved in zip(dists, solve_min_cost_batch([CostMatrix(d) for d in dists])):
                pairs = np.array(solved.pairs, dtype=np.int64).reshape(-1, 2)
                hits.append(np.count_nonzero(d[pairs[:, 0], pairs[:, 1]] <= self.radius))
            tp[Protocol.RAW_HUNGARIAN] = np.array(hits)
        if self.edges:
            # the cells' radius graphs as one block-diagonal graph
            cell_of_row = np.repeat(np.arange(k), n)
            cell_of_col = np.repeat(np.arange(k), m)
            rows = np.concatenate([r + o for r, o in zip(rows, np.cumsum(n) - n)])
            cols = np.concatenate([c + o for c, o in zip(cols, np.cumsum(m) - m)])
            if Protocol.MATCHED in self.protocols:
                matched, _ = max_matching_edges(rows, cols)
                tp[Protocol.MATCHED] = np.bincount(cell_of_row[matched], minlength=k)
            if Protocol.GREEDY in self.protocols:
                # every prediction with an edge is a hit, every ground truth
                # without one a miss
                tp[Protocol.GREEDY] = np.bincount(cell_of_col[np.unique(cols)], minlength=k)
                fn[Protocol.GREEDY] = n - np.bincount(cell_of_row[np.unique(rows)], minlength=k)
        for protocol, hits in tp.items():
            misses = fn.get(protocol, n - hits)
            for out, cls, hit, miss, preds in zip(outs, classes, hits.tolist(), misses.tolist(),
                                                  m.tolist()):
                out[protocol, cls] = ClassCounts(class_id=cls, tp=hit, fp=preds - hit, fn=miss)
        self.cells.clear()


def evaluate_image(
    gts: PointSet,
    preds: PointSet,
    radius: float,
    class_ids: Sequence[int],
    protocols: Sequence[Protocol],
    batch: _CellBatch | None = None,
) -> dict[tuple[Protocol, int], ClassCounts]:
    """Counts of one image per (protocol, class). Each class's distance
    matrix is built once and scored under every protocol. The cells go to
    ``batch`` (made for the same radius and protocols) when one is given,
    and their counts are filled in when it is scored; otherwise they are
    scored before returning."""
    own = batch is None
    if own:
        batch = _CellBatch(radius, protocols)
    out = {}
    for cls in class_ids:
        batch.add(out, cls, distance_matrix(gts.xy[gts.cls == cls], preds.xy[preds.cls == cls]))
    if own:
        batch.flush()
    return out


def _protocol_counts(protocol, gts, preds, radius, class_ids) -> dict[int, ClassCounts]:
    gts, preds = as_point_set(gts), as_point_set(preds)
    if class_ids is None:
        class_ids = np.union1d(gts.cls, preds.cls).tolist()
    counts = evaluate_image(gts, preds, radius, class_ids, (protocol,))
    return {cls: counts[protocol, cls] for cls in class_ids}


def match_thresholded(
    gts: Points,
    preds: Points,
    radius: float,
    class_ids: tuple[int, ...] | None = None,
) -> dict[int, ClassCounts]:
    """Corrected protocol: threshold distances at the radius (inclusive),
    then maximum bipartite matching per class; TP = matching size."""
    return _protocol_counts(Protocol.MATCHED, gts, preds, radius, class_ids)


def match_raw_hungarian(
    gts: Points,
    preds: Points,
    radius: float,
    class_ids: tuple[int, ...] | None = None,
) -> dict[int, ClassCounts]:
    """Flawed protocol: min-cost assignment on the raw distance matrix,
    radius filtering only afterwards. Reproduced deliberately; its global
    objective can discard locally correct detections."""
    return _protocol_counts(Protocol.RAW_HUNGARIAN, gts, preds, radius, class_ids)


def match_greedy(
    gts: Points,
    preds: Points,
    radius: float,
    class_ids: tuple[int, ...] | None = None,
) -> dict[int, ClassCounts]:
    """Flawed protocol: every prediction within the radius of any same-class
    ground truth counts as a true positive (one-to-many), inflating TP."""
    return _protocol_counts(Protocol.GREEDY, gts, preds, radius, class_ids)


def _evaluate(gt_by_image, pred_by_image, radius, class_ids, protocols) -> list[dict]:
    """Per-image counts over the union of image ids, in sorted order."""
    empty = as_point_set(())
    batch = _CellBatch(radius, protocols)
    per_image = [
        evaluate_image(
            as_point_set(gt_by_image.get(image_id, empty)),
            as_point_set(pred_by_image.get(image_id, empty)),
            radius,
            class_ids,
            protocols,
            batch,
        )
        for image_id in sorted(set(gt_by_image) | set(pred_by_image))
    ]
    batch.flush()
    return per_image


def _report(protocol: Protocol, per_image: list[dict], config: EvalConfig) -> EvalReport:
    per_class = []
    for cls in config.class_ids:
        image_counts = [image[protocol, cls] for image in per_image]
        counts = sum(image_counts, ClassCounts(class_id=cls))
        if config.aggregate is Aggregate.DATASET_COUNTS:
            f1 = f1_from_counts(counts)
        else:
            f1s = [f1_from_counts(c) for c in image_counts]
            f1 = sum(f1s) / len(f1s) if f1s else 0.0
        per_class.append((counts, f1))

    macro = sum(f1 for _, f1 in per_class) / len(per_class)
    return EvalReport(
        per_class=tuple(per_class),
        macro_f1=macro,
        protocol=protocol,
        images=len(per_image),
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
    per_image = _evaluate(
        gt_by_image, pred_by_image, config.radius, config.class_ids, (config.protocol,)
    )
    return _report(config.protocol, per_image, config)


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
    per_image = _evaluate(gt_by_image, pred_by_image, radius, class_ids, tuple(Protocol))
    reports = {protocol: _report(protocol, per_image, config) for protocol in Protocol}

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
