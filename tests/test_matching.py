import math
import random

import numpy as np
import pytest

from pointmatch.matching import (
    MatchConfig,
    MatchOutcome,
    build_cost_matrix,
    classification_loss,
    combined_loss,
    default_class_weights,
    match_hybrid,
    match_one_to_one,
    regression_loss,
)
from pointmatch.pointfile import PointRecord, group_predicted, read_point_file, write_point_file
from pointmatch.types import LabeledPoint, PredictedPoint, as_point_set


def random_scene(rng, n, m, num_classes=1, extent=50.0):
    gts = [
        LabeledPoint(rng.uniform(0, extent), rng.uniform(0, extent),
                     rng.randint(1, num_classes))
        for _ in range(n)
    ]
    preds = []
    for _ in range(m):
        raw = [rng.random() for _ in range(num_classes + 1)]
        total = sum(raw)
        preds.append(
            PredictedPoint(
                rng.uniform(0, extent), rng.uniform(0, extent),
                tuple(v / total for v in raw),
            )
        )
    return gts, preds


class TestBuildCostMatrix:
    def test_three_four_five_triangle(self):
        gts = [LabeledPoint(0, 0, 1)]
        preds = [PredictedPoint(3, 4, (0.5, 0.5))]
        cm = build_cost_matrix(gts, preds, tau=0.05)
        assert cm.values[0, 0] == pytest.approx(-0.25)

    def test_coincident_confident_is_minus_one(self):
        gts = [LabeledPoint(2, 2, 1)]
        preds = [PredictedPoint(2, 2, (0.0, 1.0))]
        cm = build_cost_matrix(gts, preds, tau=0.05)
        assert cm.values[0, 0] == -1.0

    def test_empty_gts(self):
        cm = build_cost_matrix([], [PredictedPoint(0, 0, (0.5, 0.5))], 0.05)
        assert cm.rows == 0 and cm.cols == 1

    def test_class_outside_confidences(self):
        gts = [LabeledPoint(0, 0, 3)]
        preds = [PredictedPoint(0, 0, (0.5, 0.5))]
        with pytest.raises(ValueError):
            build_cost_matrix(gts, preds, 0.05)

    def test_proposals_without_confidences(self):
        gts = [LabeledPoint(0, 0, 1)]
        with pytest.raises(ValueError, match="confidence matrix"):
            build_cost_matrix(gts, as_point_set([LabeledPoint(1, 1, 1)]), 0.05)


@pytest.mark.filterwarnings("ignore:replicated targets")
@pytest.mark.parametrize("num_classes", [1, 3])
def test_predicted_point_adapter_matches_grouped_columns(tmp_path, num_classes):
    """A PredictedPoint list and the PointSet that ``group_predicted`` reads
    from the same records give the same costs, pairs, negatives and losses."""
    rng = random.Random(40 + num_classes)
    weights = default_class_weights(num_classes)
    for trial in range(12):
        m = rng.randint(1, 12)
        gts, preds = random_scene(rng, rng.randint(0, m), m, num_classes)
        path = str(tmp_path / f"pred{trial}.csv")
        write_point_file(path, [
            PointRecord("im", p.x, p.y, 1 + int(np.argmax(p.confidences[1:])),
                        confidences=p.confidences)
            for p in preds
        ])
        columns = group_predicted(read_point_file(path), num_classes)["im"]
        adapted = as_point_set(preds)
        assert np.array_equal(adapted.xy, columns.xy) and np.array_equal(adapted.cls, columns.cls)
        assert np.array_equal(build_cost_matrix(gts, preds).values,
                              build_cost_matrix(gts, columns).values)
        for beta in (1, 2, 4):
            cfg = MatchConfig(beta=beta, class_weights=weights)
            outcomes = match_hybrid(gts, preds, cfg)
            assert outcomes == match_hybrid(gts, columns, cfg)
            for outcome in outcomes:
                matched_cols = {c for _, c in outcome.matched}
                assert outcome.negatives == tuple(sorted(set(range(m)) - matched_cols))
            assert combined_loss(gts, preds, cfg) == combined_loss(gts, columns, cfg)


class TestMatchOneToOne:
    def test_confidence_resolves_equal_distance(self):
        gts = [LabeledPoint(0, 0, 1)]
        preds = [
            PredictedPoint(2, 0, (0.9, 0.1)),
            PredictedPoint(-2, 0, (0.1, 0.9)),
        ]
        out = match_one_to_one(gts, preds)
        assert out.matched == ((0, 1),)
        assert out.negatives == (0,)

    def test_no_gts_all_negative(self):
        preds = [PredictedPoint(0, 0, (0.5, 0.5))] * 3
        out = match_one_to_one([], preds)
        assert out.matched == ()
        assert out.negatives == (0, 1, 2)

    def test_diagonal_dominant_identity(self):
        gts = [LabeledPoint(0, 0, 1), LabeledPoint(20, 0, 1), LabeledPoint(40, 0, 1)]
        preds = [
            PredictedPoint(1, 0, (0.2, 0.8)),
            PredictedPoint(21, 0, (0.2, 0.8)),
            PredictedPoint(41, 0, (0.2, 0.8)),
        ]
        out = match_one_to_one(gts, preds)
        assert out.matched == ((0, 0), (1, 1), (2, 2))

    def test_too_few_proposals(self):
        gts = [LabeledPoint(0, 0, 1), LabeledPoint(1, 1, 1)]
        preds = [PredictedPoint(0, 0, (0.5, 0.5))]
        with pytest.raises(ValueError):
            match_one_to_one(gts, preds)


class TestMatchHybrid:
    def test_beta_one_reduces_to_one_to_one(self):
        rng = random.Random(7)
        for _ in range(50):
            m = rng.randint(1, 12)
            n = rng.randint(0, m)
            gts, preds = random_scene(rng, n, m)
            one2one, one2many = match_hybrid(gts, preds, MatchConfig(beta=1))
            assert one2one == one2many
            assert one2one == match_one_to_one(gts, preds)

    def test_beta_two_takes_two_cheapest(self):
        gts = [LabeledPoint(0, 0, 1)]
        preds = [
            PredictedPoint(1, 0, (0.1, 0.9)),
            PredictedPoint(0, 2, (0.1, 0.9)),
            PredictedPoint(30, 30, (0.9, 0.1)),
        ]
        _, one2many = match_hybrid(gts, preds, MatchConfig(beta=2))
        assert one2many.matched == ((0, 0), (0, 1))
        assert one2many.negatives == (2,)

    def test_separated_clusters(self):
        gts = [LabeledPoint(0, 0, 1), LabeledPoint(100, 100, 1)]
        preds = [
            PredictedPoint(1, 0, (0.1, 0.9)),
            PredictedPoint(0, 1, (0.1, 0.9)),
            PredictedPoint(101, 100, (0.1, 0.9)),
            PredictedPoint(100, 101, (0.1, 0.9)),
        ]
        _, one2many = match_hybrid(gts, preds, MatchConfig(beta=2))
        assert one2many.matched == ((0, 0), (0, 1), (1, 2), (1, 3))

    def test_overflow_matches_all_proposals_with_warning(self):
        gts = [LabeledPoint(0, 0, 1), LabeledPoint(10, 10, 1)]
        preds = [
            PredictedPoint(0, 1, (0.1, 0.9)),
            PredictedPoint(1, 0, (0.1, 0.9)),
            PredictedPoint(10, 11, (0.1, 0.9)),
        ]
        with pytest.warns(UserWarning):
            _, one2many = match_hybrid(gts, preds, MatchConfig(beta=2))
        assert len(one2many.matched) == 3
        assert one2many.negatives == ()

    def test_proposal_used_at_most_once(self):
        rng = random.Random(3)
        for _ in range(50):
            beta = rng.choice([2, 3, 4])
            m = rng.randint(4, 20)
            n = rng.randint(1, max(1, m // beta))
            gts, preds = random_scene(rng, n, m)
            _, one2many = match_hybrid(gts, preds, MatchConfig(beta=beta))
            cols = [c for _, c in one2many.matched]
            assert len(set(cols)) == len(cols)
            counts = {}
            for g, _ in one2many.matched:
                counts[g] = counts.get(g, 0) + 1
            assert all(v == beta for v in counts.values())

    def test_one2many_distance_dominates_one2one(self):
        rng = random.Random(11)
        for _ in range(100):
            beta = rng.choice([2, 3])
            m = rng.randint(4, 14)
            n = rng.randint(1, max(1, m // beta))
            gts, preds = random_scene(rng, n, m)
            one2one, one2many = match_hybrid(gts, preds, MatchConfig(beta=beta))

            def total_dist(outcome):
                return sum(
                    math.hypot(gts[g].x - preds[p].x, gts[g].y - preds[p].y)
                    for g, p in outcome.matched
                )

            assert total_dist(one2many) >= total_dist(one2one) - 1e-9


class TestClassificationLoss:
    def test_perfect_confidence_zero_loss(self):
        gts = [LabeledPoint(0, 0, 1)]
        preds = [PredictedPoint(0, 0, (0.0, 1.0)), PredictedPoint(5, 5, (1.0, 0.0))]
        out = MatchOutcome(matched=((0, 0),), negatives=(1,))
        assert classification_loss(out, gts, preds, (0.5, 10.0)) == 0.0

    def test_single_matched_half_confidence(self):
        gts = [LabeledPoint(0, 0, 1)]
        preds = [PredictedPoint(0, 0, (0.5, 0.5))]
        out = MatchOutcome(matched=((0, 0),), negatives=())
        assert classification_loss(out, gts, preds, (0.5, 10.0)) == pytest.approx(
            10 * math.log(2)
        )

    def test_mixed_matched_and_negative(self):
        gts = [LabeledPoint(0, 0, 1)]
        preds = [PredictedPoint(0, 0, (0.0, 1.0)), PredictedPoint(5, 5, (0.5, 0.5))]
        out = MatchOutcome(matched=((0, 0),), negatives=(1,))
        assert classification_loss(out, gts, preds, (0.5, 10.0)) == pytest.approx(
            0.5 * math.log(2) / 2
        )

    def test_permutation_invariance(self):
        rng = random.Random(5)
        gts, preds = random_scene(rng, 3, 8)
        out = match_one_to_one(gts, preds)
        base = classification_loss(out, gts, preds, (0.5, 10.0))
        perm = list(range(8))
        rng.shuffle(perm)
        preds2 = [preds[j] for j in perm]
        remap = {old: new for new, old in enumerate(perm)}
        out2 = MatchOutcome(
            matched=tuple(sorted((g, remap[p]) for g, p in out.matched)),
            negatives=tuple(sorted(remap[p] for p in out.negatives)),
        )
        assert classification_loss(out2, gts, preds2, (0.5, 10.0)) == pytest.approx(base)

    def test_weight_scaling_is_linear(self):
        rng = random.Random(6)
        gts, preds = random_scene(rng, 2, 6)
        out = match_one_to_one(gts, preds)
        base = classification_loss(out, gts, preds, (0.5, 10.0))
        scaled = classification_loss(out, gts, preds, (0.5 * 3, 10.0 * 3))
        assert scaled == pytest.approx(3 * base)


class TestRegressionLoss:
    def test_coincident_zero(self):
        gts = [LabeledPoint(1, 1, 1)]
        preds = [PredictedPoint(1, 1, (0.5, 0.5))]
        out = MatchOutcome(matched=((0, 0),), negatives=())
        assert regression_loss(out, gts, preds) == 0.0

    def test_single_pair_squared(self):
        gts = [LabeledPoint(0, 0, 1)]
        preds = [PredictedPoint(3, 4, (0.5, 0.5))]
        out = MatchOutcome(matched=((0, 0),), negatives=())
        assert regression_loss(out, gts, preds) == pytest.approx(25.0)

    def test_two_pairs_mean(self):
        gts = [LabeledPoint(0, 0, 1), LabeledPoint(10, 0, 1)]
        preds = [PredictedPoint(3, 0, (0.5, 0.5)), PredictedPoint(10, 4, (0.5, 0.5))]
        out = MatchOutcome(matched=((0, 0), (1, 1)), negatives=())
        assert regression_loss(out, gts, preds) == pytest.approx(12.5)

    def test_no_matches_returns_zero(self):
        assert regression_loss(MatchOutcome((), (0,)), [], [PredictedPoint(0, 0, (1, 0))]) == 0.0


class TestCombinedLoss:
    def test_perfect_predictions_zero(self):
        gts = [LabeledPoint(5, 5, 1), LabeledPoint(20, 20, 1)]
        preds = [
            PredictedPoint(5, 5, (0.0, 1.0)),
            PredictedPoint(20, 20, (0.0, 1.0)),
            PredictedPoint(40, 40, (1.0, 0.0)),
            PredictedPoint(50, 50, (1.0, 0.0)),
        ]
        losses = combined_loss(gts, preds, MatchConfig(beta=1))
        assert losses.cls_1v1 == 0.0
        assert losses.reg_1v1 == 0.0
        assert losses.combined == 0.0

    def test_zero_one2many_weight_degenerates(self):
        rng = random.Random(9)
        gts, preds = random_scene(rng, 2, 8)
        losses = combined_loss(gts, preds, MatchConfig(beta=2, one2many_weight=0.0))
        assert losses.combined == pytest.approx(
            losses.cls_1v1 + MatchConfig().reg_weight * losses.reg_1v1
        )

    def test_combined_formula_invariant(self):
        rng = random.Random(10)
        for _ in range(20):
            m = rng.randint(2, 10)
            n = rng.randint(0, m // 2)
            gts, preds = random_scene(rng, n, m)
            cfg = MatchConfig(beta=2)
            losses = combined_loss(gts, preds, cfg)
            expected = (losses.cls_1v1 + cfg.reg_weight * losses.reg_1v1) + (
                cfg.one2many_weight * (losses.cls_1vN + cfg.reg_weight * losses.reg_1vN)
            )
            assert losses.combined == pytest.approx(expected, rel=1e-12)
            assert min(losses.cls_1v1, losses.reg_1v1, losses.cls_1vN, losses.reg_1vN) >= 0

    def test_losses_independent_of_tau_at_fixed_matching(self):
        # tau only enters through the matching; with the matching frozen the
        # loss components must not move at all
        rng = random.Random(12)
        gts, preds = random_scene(rng, 2, 8)
        cfg = MatchConfig(tau=0.05, beta=2)
        one2one, one2many = match_hybrid(gts, preds, cfg)
        ref_cls = classification_loss(one2one, gts, preds, cfg.class_weights)
        ref_reg = regression_loss(one2many, gts, preds)
        assert classification_loss(one2one, gts, preds, cfg.class_weights) == ref_cls
        assert regression_loss(one2many, gts, preds) == ref_reg


def test_config_validation():
    for tau in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            MatchConfig(tau=tau)
    with pytest.raises(ValueError):
        MatchConfig(beta=0)
    for weights in ((0.5,), (math.nan, 10.0), (0.5, math.inf)):
        with pytest.raises(ValueError):
            MatchConfig(class_weights=weights)
    for weight in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            MatchConfig(reg_weight=weight)
        with pytest.raises(ValueError):
            MatchConfig(one2many_weight=weight)
