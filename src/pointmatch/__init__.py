"""Point-set matching machinery for point-based detection: exact assignment
solvers, training-time hybrid Hungarian matching with its losses, and the
corrected threshold-then-match F1 evaluation protocol alongside the two
flawed protocols it supersedes.

The package exports are lazy (PEP 562): ``import pointmatch`` loads no
submodule, and a name's submodule is imported when the name is first used."""

import importlib

# the single version string: packaging metadata and run manifests read it
__version__ = "0.1.0"

# each exported name and the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(["AnchorSet", "GridSpec", "apply_offsets", "make_grid"], "anchors"),
    **dict.fromkeys(["solve_min_cost"], "assignment"),
    **dict.fromkeys(["ClassCounts", "EvalConfig", "EvalReport", "compare_protocols",
                     "evaluate_dataset", "f1_from_counts"], "evaluation"),
    **dict.fromkeys(["LossBreakdown", "MatchConfig", "MatchOutcome", "build_cost_matrix",
                     "classification_loss", "combined_loss", "match_hybrid",
                     "match_one_to_one", "regression_loss"], "matching"),
    **dict.fromkeys(["PerturbationModel", "figure3_fixture", "gen_ground_truth", "perturb"],
                    "synth"),
    **dict.fromkeys(["Aggregate", "Assignment", "CostMatrix", "LabeledPoint",
                     "PointSet", "PredictedPoint", "Protocol"], "types"),
}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
