"""Point-detection evaluation: the corrected threshold-then-match protocol
and the two flawed protocols it supersedes (raw-distance Hungarian and
greedy one-to-many), with per-class and macro F1 reporting.

Matching is computed independently per class: a prediction can only ever
match a ground truth of the same class. Images are ``PointSet`` columns and
evaluation is a stream of (image, class) cells. A size pass refuses a
dataset with a cell of more than ``CELL_DISTANCES`` distances. A cell of n
ground truths and m predictions without a pair (n * m = 0) counts TP 0,
FP m, FN n and is neither built nor scored. The others go, in ascending
order of their sorted sides, to ``block_batches``, which cuts them into
batches of at most ``BLOCK_ELEMENTS`` padded distances (a cell over that
budget is a batch of its own), and each batch's counts are written in
place. ``score_cells`` builds a batch's distances once, as one padded
(B, N, M) block with each cell's smaller side as rows, and scores it under
every protocol requested, all three under ``compare_protocols``: one
min-cost solve of the block for raw Hungarian, and one maximum matching
over its entries within the radius for the matched protocol, whose edges
greedy reads too. Every protocol reads a cell's dense N x M distances, so
memory stays O(N * M) per cell.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .assignment import block_batches, max_matching_edges, min_cost_block, stack_padded
from .types import _COORD_ERROR, _MAX_COORD, CELL_DISTANCES, Points, as_point_set, distance_matrix


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


def score_cells(cells, radius: float, protocols: Sequence[Protocol]) -> dict[Protocol, np.ndarray]:
    """TP, FP and FN of each (gt xy, pred xy) cell under each protocol, a
    (k, 3) array per protocol.

    The cells' distances form one (k, N, M) block, each cell with its
    smaller side as rows. Row points are padded with +inf and column points
    with -inf, so every padded distance is +inf. One ``min_cost_block`` call
    solves every raw-Hungarian cell; the entries within the radius are the
    edges of one block-diagonal graph, whose maximum matching scores matched
    and which greedy reads.
    """
    n = np.array([len(g) for g, _ in cells], dtype=np.int64)
    m = np.array([len(p) for _, p in cells], dtype=np.int64)
    k = len(n)
    flip = n > m
    rows, cols = np.minimum(n, m), np.maximum(n, m)
    block = distance_matrix(
        stack_padded([p if f else g for (g, p), f in zip(cells, flip)], np.inf),
        stack_padded([g if f else p for (g, p), f in zip(cells, flip)], -np.inf),
    )
    within = block <= radius
    tp, fn = {}, {}
    if Protocol.RAW_HUNGARIAN in protocols:
        # overwrites the block with reduced costs; ``within`` was taken before
        col4row = min_cost_block(block, rows, cols, flip)
        pb, pr = np.nonzero(col4row >= 0)
        hit = within[pb, pr, col4row[pb, pr]]
        tp[Protocol.RAW_HUNGARIAN] = np.bincount(pb[hit], minlength=k)
    if Protocol.MATCHED in protocols or Protocol.GREEDY in protocols:
        # the radius edges as one block-diagonal graph of ground-truth rows
        # and prediction columns, sorted by row, then column
        eb, er, ec = np.nonzero(within)
        gt, pred = np.where(flip[eb], ec, er), np.where(flip[eb], er, ec)
        gt += (np.cumsum(n) - n)[eb]
        pred += (np.cumsum(m) - m)[eb]
        order = np.lexsort((pred, gt))
        gt, pred = gt[order], pred[order]
        cell_of_row = np.repeat(np.arange(k), n)
        cell_of_col = np.repeat(np.arange(k), m)
        if Protocol.MATCHED in protocols:
            matched, _ = max_matching_edges(gt, pred)
            tp[Protocol.MATCHED] = np.bincount(cell_of_row[matched], minlength=k)
        if Protocol.GREEDY in protocols:
            # every prediction with an edge is a hit, every ground truth
            # without one a miss
            tp[Protocol.GREEDY] = np.bincount(cell_of_col[np.unique(pred)], minlength=k)
            fn[Protocol.GREEDY] = n - np.bincount(cell_of_row[np.unique(gt)], minlength=k)
    return {p: np.stack([tp[p], m - tp[p], fn.get(p, n - tp[p])], axis=1) for p in protocols}


def _evaluate(gt_by_image, pred_by_image, radius, class_ids, protocols) -> dict[Protocol, np.ndarray]:
    """TP, FP and FN per protocol as an (images, classes, 3) array, images
    being the union of image ids in sorted order. A cell without a pair
    counts (0, m, n) and is not scored; the others go to ``block_batches`` in
    ascending order of their sorted sides (a stable sort), so a batch holds
    cells of similar shape and pads few distances."""
    images = sorted(set(gt_by_image) | set(pred_by_image))
    ids = np.asarray(class_ids)

    def by_class(points):
        # the coordinates, their order sorted by class, stably, so each class
        # keeps file order, and each class's bounds in that order
        points = as_point_set(points)
        if not (np.abs(points.xy) <= _MAX_COORD).all():  # NaN fails too
            raise ValueError(_COORD_ERROR)
        order = np.argsort(points.cls, kind="stable")
        cls = points.cls[order]
        return points.xy, order, np.searchsorted(cls, ids), np.searchsorted(cls, ids, "right")

    sides = [[by_class(by_image.get(i, ())) for i in images]
             for by_image in (gt_by_image, pred_by_image)]
    # the size pass: each cell's ground truths n and predictions m
    n, m = (np.array([hi - lo for _, _, lo, hi in side]).reshape(-1) for side in sides)
    over = np.flatnonzero(n * m > CELL_DISTANCES)
    if over.size:
        k = over[0]
        raise ValueError(
            f"image {images[k // len(ids)]}, class {class_ids[k % len(ids)]}: "
            f"{n[k]} x {m[k]} distances exceed the limit of one cell"
        )

    def cell(k):
        i, c = divmod(k, len(ids))
        return tuple(xy[order[lo[c]:hi[c]]] for xy, order, lo, hi in (side[i] for side in sides))

    counts = {p: np.stack([np.zeros_like(n), m, n], axis=1) for p in protocols}
    order = np.lexsort((np.maximum(n, m), np.minimum(n, m)))
    order = order[n[order] * m[order] > 0]
    for batch in block_batches(order.tolist(), lambda k: (n[k], m[k])):
        for p, c in score_cells([cell(k) for k in batch], radius, protocols).items():
            counts[p][batch] = c
    return {p: c.reshape(len(images), len(ids), 3) for p, c in counts.items()}


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
            hits = counts[counts[:, j, 0] > 0, j].tolist()  # the rest score 0.0
            f1 = sum(f1_from_counts(ClassCounts(cls, *c)) for c in hits) / max(len(counts), 1)
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
    # a matched F1 of 0 leaves no pair within the radius for any protocol
    return 100.0 * (value - reference) / reference if reference > 0 else 0.0


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
        deltas = tuple((cls, _delta_pct(f1, ref_by_class[cls])) for cls, f1 in per_class_f1)
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
