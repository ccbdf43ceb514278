"""Training-time matcher: distance/confidence cost matrix, one-to-one and
hybrid one-to-many Hungarian matching, and the associated classification,
regression and combined losses. Ground truths are a ``PointSet`` or a list
of ``LabeledPoint``s; proposals a ``PointSet`` with confidences ``conf``."""

from __future__ import annotations

import math
import operator
import warnings
from typing import NamedTuple

import numpy as np

from .assignment import solve_min_cost
from .types import (CELL_DISTANCES, DEFAULT_BG_WEIGHT, DEFAULT_FG_WEIGHT,
                    DEFAULT_ONE2MANY_WEIGHT, DEFAULT_REG_WEIGHT, DEFAULT_TAU, CostMatrix,
                    Points, PointSet, _Frozen, as_point_set, distance_matrix)

LOG_CLAMP = 1e-12


class MatchConfig(_Frozen):
    """Hyperparameters for training-time matching and losses. The
    classification loss weighs its background (negative) terms by
    ``bg_weight`` and its matched terms, of any class, by ``fg_weight``."""

    __slots__ = ("tau", "beta", "bg_weight", "fg_weight", "reg_weight", "one2many_weight")

    def __init__(self, tau: float = DEFAULT_TAU, beta: int = 1,
                 bg_weight: float = DEFAULT_BG_WEIGHT, fg_weight: float = DEFAULT_FG_WEIGHT,
                 reg_weight: float = DEFAULT_REG_WEIGHT,
                 one2many_weight: float = DEFAULT_ONE2MANY_WEIGHT):
        self._set(tau, beta, bg_weight, fg_weight, reg_weight, one2many_weight)
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        try:
            operator.index(self.beta)
        except TypeError:
            raise ValueError(f"beta must be an integer, not {self.beta!r}") from None
        if self.beta < 1:
            raise ValueError("beta must be >= 1")
        if not (0 < self.bg_weight < math.inf and 0 < self.fg_weight < math.inf):
            raise ValueError("class weights must be positive and finite")
        if not (0 <= self.reg_weight < math.inf and 0 <= self.one2many_weight < math.inf):
            raise ValueError("loss weights must be non-negative and finite")


class MatchOutcome(NamedTuple):
    """Matched (gt-index, proposal-index) pairs plus the leftover proposals
    treated as background."""

    matched: tuple[tuple[int, int], ...]
    negatives: tuple[int, ...]


class LossBreakdown(NamedTuple):
    cls_1v1: float
    reg_1v1: float
    cls_1vN: float
    reg_1vN: float
    combined: float


def _confidences(preds: PointSet, gts: PointSet) -> np.ndarray:
    """The proposals' confidence matrix; refuses proposals that have none
    and a ground-truth class outside it."""
    if preds.conf is None:
        raise ValueError("proposals need a confidence matrix (PointSet.conf)")
    classes = preds.conf.shape[1] - 1
    if gts.cls.size and gts.cls.max() > classes:
        raise ValueError(
            f"gt class {gts.cls.max()} outside prediction confidence vector ({classes} classes)"
        )
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
    conf = _confidences(preds, gts) if m else None
    values = np.zeros((n, m))
    if n and m:
        values = tau * distance_matrix(gts.xy, preds.xy) - conf[:, gts.cls].T
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
    bg_weight: float,
    fg_weight: float,
) -> float:
    """Weighted negative log-likelihood averaged over all proposals.

    Matched proposals are scored on their ground truth's class, weighted
    ``fg_weight``; negatives on the background class (index 0), weighted
    ``bg_weight``. Confidences are clamped at 1e-12 before the log.
    """
    m = len(preds)
    if m == 0:
        return 0.0
    gts = as_point_set(gts)
    conf = _confidences(as_point_set(preds), gts).tolist()
    classes = gts.cls.tolist()
    total = 0.0
    for gt_idx, pred_idx in outcome.matched:
        c = max(conf[pred_idx][classes[gt_idx]], LOG_CLAMP)
        total -= fg_weight * math.log(c)
    for pred_idx in outcome.negatives:
        c = max(conf[pred_idx][0], LOG_CLAMP)
        total -= bg_weight * math.log(c)
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
    cls_1v1 = classification_loss(one2one, gts, preds, config.bg_weight, config.fg_weight)
    reg_1v1 = regression_loss(one2one, gts, preds)
    cls_1vn = classification_loss(one2many, gts, preds, config.bg_weight, config.fg_weight)
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
    for name, value in losses._asdict().items():
        if not math.isfinite(value):  # no report could hold it as a number
            raise ValueError(f"the {name} loss is {value}, not finite")
    return losses
