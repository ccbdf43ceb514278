"""Point-set matching machinery for point-based detection: exact assignment
solvers, training-time hybrid Hungarian matching with its losses, and the
corrected threshold-then-match F1 evaluation protocol alongside the two
flawed protocols it supersedes."""

# the single version string: packaging metadata and run manifests read it
__version__ = "0.1.0"

from .anchors import AnchorSet, GridSpec, apply_offsets, make_grid, threshold_predictions
from .assignment import solve_max_matching, solve_min_cost
from .evaluation import (
    Aggregate,
    ClassCounts,
    EvalConfig,
    EvalReport,
    Protocol,
    compare_protocols,
    evaluate_dataset,
    f1_from_counts,
    match_greedy,
    match_raw_hungarian,
    match_thresholded,
)
from .matching import (
    LossBreakdown,
    MatchConfig,
    MatchOutcome,
    build_cost_matrix,
    classification_loss,
    combined_loss,
    match_hybrid,
    match_one_to_one,
    regression_loss,
)
from .synth import PerturbationModel, figure3_fixture, gen_ground_truth, perturb
from .types import Assignment, BoolMatrix, CostMatrix, LabeledPoint, PointSet, PredictedPoint

__all__ = [
    "Aggregate",
    "AnchorSet",
    "Assignment",
    "BoolMatrix",
    "ClassCounts",
    "CostMatrix",
    "EvalConfig",
    "EvalReport",
    "GridSpec",
    "LabeledPoint",
    "LossBreakdown",
    "MatchConfig",
    "MatchOutcome",
    "PerturbationModel",
    "PointSet",
    "PredictedPoint",
    "Protocol",
    "apply_offsets",
    "build_cost_matrix",
    "classification_loss",
    "combined_loss",
    "compare_protocols",
    "evaluate_dataset",
    "f1_from_counts",
    "figure3_fixture",
    "gen_ground_truth",
    "make_grid",
    "match_greedy",
    "match_hybrid",
    "match_one_to_one",
    "match_raw_hungarian",
    "match_thresholded",
    "perturb",
    "regression_loss",
    "solve_max_matching",
    "solve_min_cost",
    "threshold_predictions",
]
