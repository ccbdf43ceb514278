"""Point-detection evaluation: the corrected threshold-then-match protocol
and the two flawed protocols it supersedes (raw-distance Hungarian and
greedy one-to-many), with per-class and macro F1 reporting.

Matching is computed independently per class: a prediction can only ever
match a ground truth of the same class. Each side is one set of columns and
evaluation is a stream of the (image, class) cells that hold a point. A
size pass refuses a dataset with a cell of more than ``CELL_DISTANCES``
distances. A cell of n ground truths and m predictions without a pair
(n * m = 0) counts TP 0, FP m, FN n and is neither built nor scored. The
others go, in ascending order of their sorted sides, to ``block_batches``,
which cuts them into batches of at most ``BLOCK_ELEMENTS`` padded distances
(a cell over that budget is a batch of its own), and each batch's counts
are written in place. ``score_cells`` builds a batch's distances once, as
one padded (B, N, M) block with each cell's smaller side as rows, and
scores it under every protocol requested, all three under
``compare_protocols``: one min-cost solve of the block for raw Hungarian,
and one maximum matching over its entries within the radius for the
matched protocol, whose edges greedy reads too. Every protocol reads a
cell's dense N x M distances, so memory stays O(N * M) per cell.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .assignment import block_batches, max_matching_edges, min_cost_block, stack_padded
from .pointfile import PointTable
from .types import (_COORD_ERROR, _MAX_COORD, CELL_DISTANCES, Aggregate, Points, Protocol,
                    _Frozen, as_point_set, distance_matrix)


class EvalConfig(_Frozen):
    __slots__ = ("radius", "protocol", "class_ids", "aggregate")

    def __init__(self, radius: float = 6.0, protocol: Protocol = Protocol.MATCHED,
                 class_ids: tuple[int, ...] = (1,),
                 aggregate: Aggregate = Aggregate.DATASET_COUNTS):
        self._set(radius, protocol, class_ids, aggregate)
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        if not self.class_ids or len(set(self.class_ids)) != len(self.class_ids):
            raise ValueError("class_ids must be non-empty and unique")


class ClassCounts(NamedTuple):
    class_id: int
    tp: int = 0
    fp: int = 0
    fn: int = 0


class EvalReport(NamedTuple):
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
            # without one a miss (edge counts, not np.unique: from numpy 2.3
            # on it hashes, ~10x slower at these sizes)
            hit = np.bincount(pred, minlength=len(cell_of_col)) > 0
            tp[Protocol.GREEDY] = np.bincount(cell_of_col[hit], minlength=k)
            covered = np.bincount(gt, minlength=len(cell_of_row)) > 0
            fn[Protocol.GREEDY] = n - np.bincount(cell_of_row[covered], minlength=k)
    return {p: np.stack([tp[p], m - tp[p], fn.get(p, n - tp[p])], axis=1) for p in protocols}


def _columns(points) -> tuple:
    """(image ids, each point's index into them, xy, cls) of a PointTable,
    or of a dict of points by image."""
    if isinstance(points, PointTable):
        return points.image_ids, points.image, points.xy, points.cls
    sets = [as_point_set(p) for p in points.values()]
    return (list(points), np.repeat(np.arange(len(sets)), list(map(len, sets))),
            np.concatenate([np.empty((0, 2)), *(s.xy for s in sets)]),
            np.concatenate([np.empty(0, np.int64), *(s.cls for s in sets)]))


def _evaluate(gt, pred, radius, class_ids, protocols):
    """The number of images, the sorted keys (image * classes + class index,
    images in sorted order) of the cells holding a point, and each protocol's
    (cells, 3) TP, FP and FN of them: memory grows with points. A cell
    without a pair counts (0, m, n) and is not scored; the others go to
    ``block_batches`` in ascending order of their sorted sides (a stable
    sort), so a batch holds cells of similar shape and pads few distances."""
    gt, pred = _columns(gt), _columns(pred)
    images = sorted(set(gt[0]) | set(pred[0]))
    rank = {image_id: r for r, image_id in enumerate(images)}
    ids = np.asarray(class_ids)
    sorter = np.argsort(ids)

    def by_cell(image_ids, image, xy, cls):
        # the points of the classes evaluated, keyed by cell and sorted by
        # key, stably, so each cell keeps file order
        if not (np.abs(xy) <= _MAX_COORD).all():  # NaN fails too
            raise ValueError(_COORD_ERROR)
        hit = np.isin(cls, ids)
        image = np.fromiter(map(rank.__getitem__, image_ids), np.intp, len(image_ids))[image[hit]]
        key = image * len(ids) + sorter[np.searchsorted(ids, cls[hit], sorter=sorter)]
        order = np.argsort(key, kind="stable")
        return key[order], xy[np.flatnonzero(hit)[order]]

    (gk, gxy), (pk, pxy) = by_cell(*gt), by_cell(*pred)
    # the union of the keys (keys >= 0): np.union1d would import numpy.ma
    keys = np.sort(np.concatenate([gk, pk]))
    keys = keys[np.flatnonzero(np.diff(keys, prepend=-1))]
    glo, ghi, plo, phi = (np.searchsorted(k, keys, s) for k in (gk, pk) for s in ("left", "right"))
    n, m = ghi - glo, phi - plo
    over = np.flatnonzero(n * m > CELL_DISTANCES)
    if over.size:
        k, (i, j) = over[0], divmod(keys[over[0]], len(ids))
        raise ValueError(f"image {images[i]}, class {class_ids[j]}: "
                         f"{n[k]} x {m[k]} distances exceed the limit of one cell")
    counts = {p: np.stack([np.zeros_like(n), m, n], axis=1) for p in protocols}
    order = np.lexsort((np.maximum(n, m), np.minimum(n, m)))
    order = order[n[order] * m[order] > 0]
    for batch in block_batches(order.tolist(), lambda k: (n[k], m[k])):
        cells = [(gxy[glo[k]:ghi[k]], pxy[plo[k]:phi[k]]) for k in batch]
        for p, c in score_cells(cells, radius, protocols).items():
            counts[p][batch] = c
    return len(images), keys, counts


def _report(protocol: Protocol, images: int, keys, counts, config: EvalConfig) -> EvalReport:
    """The report of one protocol's counts of the keyed cells."""
    classes = len(config.class_ids)
    totals = np.zeros((classes, 3), dtype=np.int64)
    np.add.at(totals, keys % classes, counts)
    # the cells with a true positive by class, each in image order; the rest score 0.0
    hits = np.flatnonzero(counts[:, 0] > 0)
    hits = hits[np.argsort(keys[hits] % classes, kind="stable")]
    bounds = np.searchsorted(keys[hits] % classes, np.arange(classes + 1))
    per_class = []
    for j, (cls, total) in enumerate(zip(config.class_ids, totals.tolist())):
        total = ClassCounts(cls, *total)
        if config.aggregate is Aggregate.DATASET_COUNTS:
            f1 = f1_from_counts(total)
        else:
            cells = counts[hits[bounds[j]:bounds[j + 1]]].tolist()
            f1 = sum(f1_from_counts(ClassCounts(cls, *c)) for c in cells) / max(images, 1)
        per_class.append((total, f1))

    macro = sum(f1 for _, f1 in per_class) / len(per_class)
    return EvalReport(
        per_class=tuple(per_class),
        macro_f1=macro,
        protocol=protocol,
        images=images,
    )


def evaluate_dataset(
    gt_by_image: dict[str, Points] | PointTable,
    pred_by_image: dict[str, Points] | PointTable,
    config: EvalConfig,
) -> EvalReport:
    """Run the configured protocol over every image and aggregate. Each
    side is a dict of points by image or a ``PointTable``.

    Images missing from the prediction side count as empty predictions;
    prediction-only images contribute pure false positives. Under
    ``dataset_counts`` TP/FP/FN are summed before F1; under
    ``per_image_mean`` per-image F1 scores are averaged.
    """
    images, keys, counts = _evaluate(
        gt_by_image, pred_by_image, config.radius, config.class_ids, (config.protocol,)
    )
    return _report(config.protocol, images, keys, counts[config.protocol], config)


class ProtocolComparison(NamedTuple):
    protocol: Protocol
    per_class_f1: tuple[tuple[int, float], ...]
    macro_f1: float
    per_class_delta_pct: tuple[tuple[int, float], ...]
    macro_delta_pct: float


def _delta_pct(value: float, reference: float) -> float:
    # a matched F1 of 0 leaves no pair within the radius for any protocol
    return 100.0 * (value - reference) / reference if reference > 0 else 0.0


def compare_protocols(
    gt_by_image: dict[str, Points] | PointTable,
    pred_by_image: dict[str, Points] | PointTable,
    radius: float,
    class_ids: tuple[int, ...],
    aggregate: Aggregate = Aggregate.DATASET_COUNTS,
) -> tuple[ProtocolComparison, ...]:
    """Evaluate all three protocols on identical inputs, reporting relative
    F1 deltas against the corrected (matched) protocol."""
    config = EvalConfig(radius=radius, class_ids=class_ids, aggregate=aggregate)
    images, keys, counts = _evaluate(gt_by_image, pred_by_image, radius, class_ids, tuple(Protocol))
    reports = {protocol: _report(protocol, images, keys, counts[protocol], config)
               for protocol in Protocol}

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
