"""Point-detection evaluation: the corrected threshold-then-match protocol
and the two flawed protocols it supersedes (raw-distance Hungarian and
greedy one-to-many), with per-class and macro F1 reporting.

Matching is computed independently per class: a prediction can only ever
match a ground truth of the same class.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .assignment import solve_max_matching, solve_min_cost
from .types import BoolMatrix, CostMatrix, LabeledPoint, distance_matrix


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


def _split_by_class(points: list[LabeledPoint], class_id: int) -> list[LabeledPoint]:
    return [p for p in points if p.class_id == class_id]


def _present_classes(gts, preds, class_ids):
    if class_ids is not None:
        return tuple(class_ids)
    return tuple(sorted({p.class_id for p in gts} | {p.class_id for p in preds}))


def match_thresholded(
    gts: list[LabeledPoint],
    preds: list[LabeledPoint],
    radius: float,
    class_ids: tuple[int, ...] | None = None,
) -> dict[int, ClassCounts]:
    """Corrected protocol: threshold distances at the radius (inclusive),
    then maximum bipartite matching per class; TP = matching size."""
    out = {}
    for cls in _present_classes(gts, preds, class_ids):
        g = _split_by_class(gts, cls)
        p = _split_by_class(preds, cls)
        dist = distance_matrix(g, p)
        matching = solve_max_matching(BoolMatrix(dist <= radius))
        tp = matching.size
        out[cls] = ClassCounts(class_id=cls, tp=tp, fp=len(p) - tp, fn=len(g) - tp)
    return out


def match_raw_hungarian(
    gts: list[LabeledPoint],
    preds: list[LabeledPoint],
    radius: float,
    class_ids: tuple[int, ...] | None = None,
) -> dict[int, ClassCounts]:
    """Flawed protocol: min-cost assignment on the raw distance matrix,
    radius filtering only afterwards. Reproduced deliberately; its global
    objective can discard locally correct detections."""
    out = {}
    for cls in _present_classes(gts, preds, class_ids):
        g = _split_by_class(gts, cls)
        p = _split_by_class(preds, cls)
        dist = distance_matrix(g, p)
        assignment = solve_min_cost(CostMatrix(dist))
        tp = sum(1 for r, c in assignment.pairs if dist[r, c] <= radius)
        out[cls] = ClassCounts(class_id=cls, tp=tp, fp=len(p) - tp, fn=len(g) - tp)
    return out


def match_greedy(
    gts: list[LabeledPoint],
    preds: list[LabeledPoint],
    radius: float,
    class_ids: tuple[int, ...] | None = None,
) -> dict[int, ClassCounts]:
    """Flawed protocol: every prediction within the radius of any same-class
    ground truth counts as a true positive (one-to-many), inflating TP."""
    out = {}
    for cls in _present_classes(gts, preds, class_ids):
        g = _split_by_class(gts, cls)
        p = _split_by_class(preds, cls)
        dist = distance_matrix(g, p)
        within = dist <= radius
        tp = int(within.any(axis=0).sum()) if len(g) and len(p) else 0
        fn = len(g) - (int(within.any(axis=1).sum()) if len(g) and len(p) else 0)
        out[cls] = ClassCounts(class_id=cls, tp=tp, fp=len(p) - tp, fn=fn)
    return out


_PROTOCOL_FN = {
    Protocol.MATCHED: match_thresholded,
    Protocol.RAW_HUNGARIAN: match_raw_hungarian,
    Protocol.GREEDY: match_greedy,
}


def evaluate_image(
    gts: list[LabeledPoint],
    preds: list[LabeledPoint],
    config: EvalConfig,
) -> dict[int, ClassCounts]:
    return _PROTOCOL_FN[config.protocol](gts, preds, config.radius, config.class_ids)


def evaluate_dataset(
    gt_by_image: dict[str, list[LabeledPoint]],
    pred_by_image: dict[str, list[LabeledPoint]],
    config: EvalConfig,
) -> EvalReport:
    """Run the configured protocol over every image and aggregate.

    Images missing from the prediction side count as empty predictions;
    prediction-only images contribute pure false positives. Under
    ``dataset_counts`` TP/FP/FN are summed before F1; under
    ``per_image_mean`` per-image F1 scores are averaged.
    """
    image_ids = sorted(set(gt_by_image) | set(pred_by_image))
    per_image = [
        evaluate_image(gt_by_image.get(image_id, []), pred_by_image.get(image_id, []), config)
        for image_id in image_ids
    ]

    per_class = []
    for cls in config.class_ids:
        counts = ClassCounts(class_id=cls)
        for img_counts in per_image:
            counts = counts + img_counts[cls]
        if config.aggregate is Aggregate.DATASET_COUNTS:
            f1 = f1_from_counts(counts)
        else:
            f1s = [f1_from_counts(img_counts[cls]) for img_counts in per_image]
            f1 = sum(f1s) / len(f1s) if f1s else 0.0
        per_class.append((counts, f1))

    macro = sum(f1 for _, f1 in per_class) / len(per_class)
    return EvalReport(
        per_class=tuple(per_class),
        macro_f1=macro,
        protocol=config.protocol,
        images=len(image_ids),
    )


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
    gt_by_image: dict[str, list[LabeledPoint]],
    pred_by_image: dict[str, list[LabeledPoint]],
    radius: float,
    class_ids: tuple[int, ...],
    aggregate: Aggregate = Aggregate.DATASET_COUNTS,
) -> tuple[ProtocolComparison, ...]:
    """Evaluate all three protocols on identical inputs, reporting relative
    F1 deltas against the corrected (matched) protocol."""
    reports = {}
    for protocol in Protocol:
        config = EvalConfig(
            radius=radius, protocol=protocol, class_ids=class_ids, aggregate=aggregate
        )
        reports[protocol] = evaluate_dataset(gt_by_image, pred_by_image, config)

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
