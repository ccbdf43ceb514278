"""Point-detection evaluation: the corrected threshold-then-match protocol
and the two flawed protocols it supersedes (raw-distance Hungarian and
greedy one-to-many), with per-class and macro F1 reporting.

Matching is computed independently per class: a prediction can only ever
match a ground truth of the same class. Images are ``PointSet`` columns; each
image is split by class once, and each (image, class) distance matrix is
built once and shared by every protocol scored, all three under
``compare_protocols``.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .assignment import solve_max_matching, solve_min_cost
from .types import BoolMatrix, CostMatrix, Points, PointSet, as_point_set, distance_matrix


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
        if self.radius <= 0:
            raise ValueError("radius must be positive")
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


def _class_counts(
    protocol: Protocol, class_id: int, dist: np.ndarray, radius: float
) -> ClassCounts:
    """TP/FP/FN of one (image, class) under one protocol, from its N x M
    ground-truth-to-prediction distance matrix."""
    n, m = dist.shape
    if protocol is Protocol.MATCHED:
        tp = solve_max_matching(BoolMatrix(dist <= radius)).size
        fn = n - tp
    elif protocol is Protocol.RAW_HUNGARIAN:
        assignment = solve_min_cost(CostMatrix(dist))
        tp = sum(1 for r, c in assignment.pairs if dist[r, c] <= radius)
        fn = n - tp
    else:
        within = dist <= radius
        tp = int(within.any(axis=0).sum())
        fn = n - int(within.any(axis=1).sum())
    return ClassCounts(class_id=class_id, tp=tp, fp=m - tp, fn=fn)


def evaluate_image(
    gts: PointSet,
    preds: PointSet,
    radius: float,
    class_ids: Sequence[int],
    protocols: Sequence[Protocol],
) -> dict[tuple[Protocol, int], ClassCounts]:
    """Counts of one image per (protocol, class). Each class's distance
    matrix is built once and scored under every protocol."""
    out = {}
    for cls in class_ids:
        dist = distance_matrix(gts.xy[gts.cls == cls], preds.xy[preds.cls == cls])
        for protocol in protocols:
            out[protocol, cls] = _class_counts(protocol, cls, dist, radius)
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
    return [
        evaluate_image(
            as_point_set(gt_by_image.get(image_id, empty)),
            as_point_set(pred_by_image.get(image_id, empty)),
            radius,
            class_ids,
            protocols,
        )
        for image_id in sorted(set(gt_by_image) | set(pred_by_image))
    ]


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
