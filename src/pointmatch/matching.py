"""Training-time matcher: distance/confidence cost matrix, one-to-one and
hybrid one-to-many Hungarian matching, and the associated classification,
regression and combined losses. Ground truths are a ``PointSet`` or a list
of ``LabeledPoint``s; proposals a ``PointSet`` with confidences ``conf``."""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .assignment import solve_min_cost
from .types import CELL_DISTANCES, CostMatrix, Points, PointSet, as_point_set, distance_matrix

LOG_CLAMP = 1e-12

# defaults: distance weight 0.05, background weight 0.5, foreground weight 10,
# regression weight 2e-3, one-to-many branch weight 0.5
DEFAULT_TAU = 0.05
DEFAULT_BG_WEIGHT = 0.5
DEFAULT_FG_WEIGHT = 10.0
DEFAULT_REG_WEIGHT = 2e-3
DEFAULT_ONE2MANY_WEIGHT = 0.5


def default_class_weights(num_classes: int) -> tuple[float, ...]:
    """Background weight 0.5, all foreground classes weighted 10."""
    return (DEFAULT_BG_WEIGHT,) + (DEFAULT_FG_WEIGHT,) * num_classes


@dataclass(frozen=True)
class MatchConfig:
    """Hyperparameters for training-time matching and losses."""

    tau: float = DEFAULT_TAU
    beta: int = 1
    class_weights: tuple[float, ...] = field(default_factory=lambda: default_class_weights(1))
    reg_weight: float = DEFAULT_REG_WEIGHT
    one2many_weight: float = DEFAULT_ONE2MANY_WEIGHT

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        try:
            operator.index(self.beta)
        except TypeError:
            raise ValueError(f"beta must be an integer, not {self.beta!r}") from None
        if self.beta < 1:
            raise ValueError("beta must be >= 1")
        if len(self.class_weights) < 2 or not all(0 < w < math.inf for w in self.class_weights):
            raise ValueError("class_weights must cover background plus classes, all finite > 0")
        if not (0 <= self.reg_weight < math.inf and 0 <= self.one2many_weight < math.inf):
            raise ValueError("loss weights must be non-negative and finite")


@dataclass(frozen=True)
class MatchOutcome:
    """Matched (gt-index, proposal-index) pairs plus the leftover proposals
    treated as background."""

    matched: tuple[tuple[int, int], ...]
    negatives: tuple[int, ...]


@dataclass(frozen=True)
class LossBreakdown:
    cls_1v1: float
    reg_1v1: float
    cls_1vN: float
    reg_1vN: float
    combined: float


def _confidences(preds: PointSet) -> np.ndarray:
    """The proposals' confidence matrix; refuses proposals that have none."""
    if preds.conf is None:
        raise ValueError("proposals need a confidence matrix (PointSet.conf)")
    return preds.conf


def build_cost_matrix(
    gts: Points,
    preds: Points,
    tau: float = DEFAULT_TAU,
) -> CostMatrix:
    """Pairwise cost: tau * euclidean distance minus the proposal's
    confidence for the ground-truth class. Shape N x M."""
    gts, preds = as_point_set(gts), as_point_set(preds)
    n, m = len(gts), len(preds)
    conf = _confidences(preds) if m else None
    values = np.zeros((n, m))
    if n and m:
        cls = gts.cls
        classes = conf.shape[1] - 1
        if cls.max() > classes:
            raise ValueError(
                f"gt class {cls.max()} outside prediction confidence vector "
                f"({classes} classes)"
            )
        values = tau * distance_matrix(gts.xy, preds.xy) - conf[:, cls].T
    return CostMatrix(values)


def match_one_to_one(
    gts: Points,
    preds: Points,
    config: MatchConfig = MatchConfig(),
) -> MatchOutcome:
    """Optimal one-to-one assignment of every ground truth to a proposal."""
    n, m = len(gts), len(preds)
    if n > m:
        raise ValueError(f"insufficient proposals: {n} ground truths but only {m} proposals")
    assignment = solve_min_cost(build_cost_matrix(gts, preds, config.tau))
    return MatchOutcome(matched=assignment.pairs, negatives=assignment.unmatched_cols)


def match_hybrid(
    gts: Points,
    preds: Points,
    config: MatchConfig = MatchConfig(),
) -> tuple[MatchOutcome, MatchOutcome]:
    """One-to-one matching plus a one-to-many matching obtained by
    replicating each ground-truth row beta times in the cost matrix.

    Ground truth i occupies the beta consecutive rows starting at i * beta.
    If N * beta exceeds M, all proposals are consumed and a warning is
    emitted. A beta above M replicates each row M times, as no ground truth
    can take more than all M proposals; the pairs are those of beta rows.
    A replicated matrix of more than ``CELL_DISTANCES`` entries is refused
    before any matrix is built.
    """
    gts, preds = as_point_set(gts), as_point_set(preds)
    n, m = len(gts), len(preds)
    beta = min(config.beta, max(m, 1))
    if n * beta * m > CELL_DISTANCES:
        raise ValueError(
            f"{n} ground truths x beta {beta} x {m} proposals: {n * beta * m} "
            f"replicated costs exceed the limit of one matrix ({CELL_DISTANCES})"
        )
    one2one = match_one_to_one(gts, preds, config)
    if config.beta == 1:
        return one2one, one2one
    if n * config.beta > m:
        warnings.warn(
            f"replicated targets ({n}x{config.beta}) exceed proposals ({m}); "
            "all proposals will be matched",
            stacklevel=2,
        )
    costs = build_cost_matrix(gts, preds, config.tau)
    replicated = CostMatrix(np.repeat(costs.values, beta, axis=0))
    assignment = solve_min_cost(replicated)
    pairs = tuple(sorted((row // beta, col) for row, col in assignment.pairs))
    return one2one, MatchOutcome(matched=pairs, negatives=assignment.unmatched_cols)


def classification_loss(
    outcome: MatchOutcome,
    gts: Points,
    preds: Points,
    class_weights: tuple[float, ...],
) -> float:
    """Weighted negative log-likelihood averaged over all proposals.

    Matched proposals are scored on their ground truth's class, negatives
    on the background class (index 0). Confidences are clamped at 1e-12
    before the log.
    """
    m = len(preds)
    if m == 0:
        return 0.0
    classes = as_point_set(gts).cls
    if classes.size and classes.max() >= len(class_weights):
        raise ValueError(
            f"gt class {classes.max()} has no class weight "
            f"(class_weights covers 0..{len(class_weights) - 1})"
        )
    classes = classes.tolist()
    conf = _confidences(as_point_set(preds)).tolist()
    total = 0.0
    for gt_idx, pred_idx in outcome.matched:
        cls = classes[gt_idx]
        c = max(conf[pred_idx][cls], LOG_CLAMP)
        total -= class_weights[cls] * math.log(c)
    for pred_idx in outcome.negatives:
        c = max(conf[pred_idx][0], LOG_CLAMP)
        total -= class_weights[0] * math.log(c)
    return total / m


def regression_loss(
    outcome: MatchOutcome,
    gts: Points,
    preds: Points,
) -> float:
    """Mean squared euclidean distance over matched pairs (0 if none)."""
    if not outcome.matched:
        return 0.0
    gxy, pxy = as_point_set(gts).xy.tolist(), as_point_set(preds).xy.tolist()
    total = 0.0
    for gt_idx, pred_idx in outcome.matched:
        (gx, gy), (px, py) = gxy[gt_idx], pxy[pred_idx]
        total += (gx - px) ** 2 + (gy - py) ** 2
    return total / len(outcome.matched)


def combined_loss(
    gts: Points,
    preds: Points,
    config: MatchConfig = MatchConfig(),
) -> LossBreakdown:
    """Hybrid matching followed by both loss branches:
    combined = (cls_1v1 + reg_weight * reg_1v1)
             + one2many_weight * (cls_1vN + reg_weight * reg_1vN).
    Refuses a loss that is not finite, such as a product that overflows.
    """
    gts, preds = as_point_set(gts), as_point_set(preds)
    one2one, one2many = match_hybrid(gts, preds, config)
    cls_1v1 = classification_loss(one2one, gts, preds, config.class_weights)
    reg_1v1 = regression_loss(one2one, gts, preds)
    cls_1vn = classification_loss(one2many, gts, preds, config.class_weights)
    reg_1vn = regression_loss(one2many, gts, preds)
    combined = (cls_1v1 + config.reg_weight * reg_1v1) + config.one2many_weight * (
        cls_1vn + config.reg_weight * reg_1vn
    )
    losses = LossBreakdown(
        cls_1v1=cls_1v1,
        reg_1v1=reg_1v1,
        cls_1vN=cls_1vn,
        reg_1vN=reg_1vn,
        combined=combined,
    )
    for name, value in vars(losses).items():
        if not math.isfinite(value):  # no report could hold it as a number
            raise ValueError(f"the {name} loss is {value}, not finite")
    return losses
