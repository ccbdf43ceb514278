import math
import random

import numpy as np
import pytest

from pointmatch import evaluation
from pointmatch._oracle import brute_force_max_matching
from pointmatch.evaluation import (
    Aggregate,
    ClassCounts,
    EvalConfig,
    Protocol,
    compare_protocols,
    evaluate_dataset,
    f1_from_counts,
    match_greedy,
    match_raw_hungarian,
    match_thresholded,
)
from pointmatch.synth import PerturbationModel, figure3_fixture, gen_ground_truth, perturb
from pointmatch.types import BoolMatrix, LabeledPoint


def pt(x, y, cls=1):
    return LabeledPoint(x=x, y=y, class_id=cls)


class TestF1FromCounts:
    def test_balanced(self):
        assert f1_from_counts(ClassCounts(1, tp=1, fp=1, fn=1)) == 0.5

    def test_all_zero(self):
        assert f1_from_counts(ClassCounts(1)) == 0.0

    def test_perfect(self):
        assert f1_from_counts(ClassCounts(1, tp=2)) == 1.0


class TestMatchThresholded:
    def test_one_in_one_out_of_radius(self):
        counts = match_thresholded([pt(0, 0)], [pt(3, 0), pt(-8, 0)], 6.0)[1]
        assert (counts.tp, counts.fp, counts.fn) == (1, 1, 0)

    def test_no_predictions(self):
        counts = match_thresholded([pt(0, 0), pt(1, 1), pt(2, 2)], [], 6.0)[1]
        assert (counts.tp, counts.fp, counts.fn) == (0, 0, 3)

    def test_radius_boundary_inclusive(self):
        counts = match_thresholded([pt(0, 0)], [pt(6, 0)], 6.0)[1]
        assert counts.tp == 1

    def test_classes_matched_independently(self):
        gts = [pt(0, 0, 1), pt(0, 0, 2)]
        preds = [pt(1, 0, 2), pt(0, 1, 2)]
        counts = match_thresholded(gts, preds, 6.0)
        assert (counts[1].tp, counts[1].fn) == (0, 1)
        assert (counts[2].tp, counts[2].fp) == (1, 1)


class TestMatchRawHungarian:
    def test_figure3_geometry(self):
        gts, preds = figure3_fixture()
        raw = match_raw_hungarian(gts, preds, 6.0)[1]
        assert (raw.tp, raw.fp, raw.fn) == (0, 2, 2)
        assert f1_from_counts(raw) == 0.0
        good = match_thresholded(gts, preds, 6.0)[1]
        assert (good.tp, good.fp, good.fn) == (1, 1, 1)
        assert f1_from_counts(good) == 0.5

    def test_single_pair_agrees_with_corrected(self):
        gts, preds = [pt(0, 0)], [pt(2, 0)]
        assert match_raw_hungarian(gts, preds, 6.0) == match_thresholded(gts, preds, 6.0)

    def test_no_predictions(self):
        counts = match_raw_hungarian([pt(0, 0)], [], 6.0)[1]
        assert (counts.tp, counts.fn) == (0, 1)


class TestMatchGreedy:
    def test_double_detection_inflates(self):
        gts = [pt(0, 0)]
        preds = [pt(1, 0), pt(0, 1)]
        greedy = match_greedy(gts, preds, 6.0)[1]
        assert (greedy.tp, greedy.fp, greedy.fn) == (2, 0, 0)
        assert f1_from_counts(greedy) == 1.0
        good = match_thresholded(gts, preds, 6.0)[1]
        assert (good.tp, good.fp, good.fn) == (1, 1, 0)
        assert f1_from_counts(good) == pytest.approx(2 / 3)

    def test_no_predictions(self):
        counts = match_greedy([pt(0, 0)], [], 6.0)[1]
        assert (counts.tp, counts.fn) == (0, 1)

    def test_one_to_one_geometry_agrees(self):
        gts = [pt(0, 0), pt(50, 50)]
        preds = [pt(1, 0), pt(50, 51)]
        assert match_greedy(gts, preds, 6.0) == match_thresholded(gts, preds, 6.0)


def random_points(rng, n, num_classes=2, extent=100.0):
    return [
        pt(rng.uniform(0, extent), rng.uniform(0, extent), rng.randint(1, num_classes))
        for _ in range(n)
    ]


class TestProtocolProperties:
    def test_dominance_and_count_identities(self):
        rng = random.Random(42)
        for _ in range(200):
            gts = random_points(rng, rng.randint(0, 15))
            preds = random_points(rng, rng.randint(0, 15))
            classes = (1, 2)
            good = match_thresholded(gts, preds, 8.0, classes)
            raw = match_raw_hungarian(gts, preds, 8.0, classes)
            greedy = match_greedy(gts, preds, 8.0, classes)
            for cls in classes:
                n_c = sum(1 for p in gts if p.class_id == cls)
                m_c = sum(1 for p in preds if p.class_id == cls)
                assert good[cls].tp >= raw[cls].tp
                assert greedy[cls].tp >= good[cls].tp
                assert f1_from_counts(good[cls]) >= f1_from_counts(raw[cls])
                assert f1_from_counts(greedy[cls]) >= f1_from_counts(good[cls])
                # count conservation for the one-to-one protocols
                for counts in (good[cls], raw[cls]):
                    assert counts.tp + counts.fn == n_c
                    assert counts.tp + counts.fp == m_c
                    if m_c + n_c:
                        assert f1_from_counts(counts) == pytest.approx(
                            2 * counts.tp / (m_c + n_c)
                        )
                assert greedy[cls].tp + greedy[cls].fp == m_c

    def test_rigid_motion_and_order_invariance(self):
        rng = random.Random(7)
        gts = random_points(rng, 12)
        preds = random_points(rng, 14)
        base = match_thresholded(gts, preds, 6.0, (1, 2))

        theta = 0.7
        c, s = math.cos(theta), math.sin(theta)

        def move(p):
            x, y = p.x + 13.5, p.y - 4.25
            return pt(c * x - s * y, s * x + c * y, p.class_id)

        moved = match_thresholded([move(p) for p in gts], [move(p) for p in preds], 6.0, (1, 2))
        for cls in (1, 2):
            assert (moved[cls].tp, moved[cls].fp, moved[cls].fn) == (
                base[cls].tp, base[cls].fp, base[cls].fn,
            )

        rng.shuffle(gts)
        rng.shuffle(preds)
        shuffled = match_thresholded(gts, preds, 6.0, (1, 2))
        assert shuffled == base

    def test_thresholded_tp_agrees_with_brute_force(self):
        rng = random.Random(3)
        for _ in range(100):
            gts = random_points(rng, rng.randint(0, 7), num_classes=1, extent=30)
            preds = random_points(rng, rng.randint(0, 7), num_classes=1, extent=30)
            counts = match_thresholded(gts, preds, 6.0, (1,))[1]
            adjacency = np.array(
                [[math.hypot(g.x - p.x, g.y - p.y) <= 6.0 for p in preds] for g in gts],
                dtype=bool,
            ).reshape(len(gts), len(preds))
            oracle = brute_force_max_matching(BoolMatrix(adjacency))
            assert counts.tp == oracle.size


class TestEvaluateDataset:
    def test_duplicated_image_keeps_f1(self):
        gts, preds = figure3_fixture()
        config = EvalConfig(radius=6.0, class_ids=(1,))
        single = evaluate_dataset({"a": gts}, {"a": preds}, config)
        double = evaluate_dataset({"a": gts, "b": gts}, {"a": preds, "b": preds}, config)
        assert single.macro_f1 == double.macro_f1

    def test_macro_includes_absent_classes(self):
        # two classes predicted perfectly, two never predicted: macro is the
        # mean over all four configured classes
        gts = [pt(0, 0, 1), pt(50, 50, 2)]
        preds = [pt(0, 0, 1), pt(50, 50, 2)]
        config = EvalConfig(radius=6.0, class_ids=(1, 2, 3, 4))
        report = evaluate_dataset({"a": gts}, {"a": preds}, config)
        assert report.macro_f1 == pytest.approx((1.0 + 1.0 + 0.0 + 0.0) / 4)

    def test_acformer_lnet_macro_arithmetic(self):
        assert round((0.826 + 0.781) / 4, 3) == 0.402

    def test_empty_predictions(self):
        gts = [pt(0, 0, 1)]
        config = EvalConfig(radius=6.0, class_ids=(1, 2))
        report = evaluate_dataset({"a": gts}, {}, config)
        assert report.macro_f1 == 0.0

    def test_pred_only_image_contributes_false_positives(self):
        config = EvalConfig(radius=6.0, class_ids=(1,))
        report = evaluate_dataset({}, {"ghost": [pt(0, 0, 1)]}, config)
        counts, f1 = report.per_class[0]
        assert counts.fp == 1 and f1 == 0.0

    def test_aggregate_modes_differ(self):
        # image a perfect, image b empty predictions
        gts = {"a": [pt(0, 0, 1)], "b": [pt(0, 0, 1)]}
        preds = {"a": [pt(0, 0, 1)], "b": []}
        counts_cfg = EvalConfig(radius=6.0, class_ids=(1,), aggregate=Aggregate.DATASET_COUNTS)
        mean_cfg = EvalConfig(radius=6.0, class_ids=(1,), aggregate=Aggregate.PER_IMAGE_MEAN)
        by_counts = evaluate_dataset(gts, preds, counts_cfg)
        by_mean = evaluate_dataset(gts, preds, mean_cfg)
        assert by_counts.macro_f1 == pytest.approx(2 / 3)
        assert by_mean.macro_f1 == pytest.approx(0.5)

    def test_per_image_mean_counts_absent_class_as_zero(self):
        # an image where a class is absent on both sides scores F1 = 0 for
        # that class, so each class's mean is 0.5 although every point is
        # predicted perfectly
        gts = {"a": [pt(0, 0, 1)], "b": [pt(0, 0, 2)]}
        config = EvalConfig(radius=6.0, class_ids=(1, 2), aggregate=Aggregate.PER_IMAGE_MEAN)
        report = evaluate_dataset(gts, gts, config)
        assert [f1 for _, f1 in report.per_class] == [0.5, 0.5]
        assert report.macro_f1 == 0.5


class TestCompareProtocols:
    def test_figure3_deltas(self):
        gts, preds = figure3_fixture()
        rows = compare_protocols({"a": gts}, {"a": preds}, 6.0, (1,))
        by_protocol = {r.protocol: r for r in rows}
        assert by_protocol[Protocol.MATCHED].macro_f1 == 0.5
        assert by_protocol[Protocol.RAW_HUNGARIAN].macro_delta_pct == pytest.approx(-100.0)
        assert by_protocol[Protocol.GREEDY].macro_delta_pct == 0.0

    def test_perfect_predictions_identical(self):
        gts = [pt(0, 0, 1), pt(40, 40, 1)]
        rows = compare_protocols({"a": gts}, {"a": gts}, 6.0, (1,))
        assert all(r.macro_f1 == 1.0 and r.macro_delta_pct == 0.0 for r in rows)

    def test_synthetic_ordering(self):
        for seed in range(30):
            model = PerturbationModel(
                seed=seed, jitter_sigma=2.0, drop_rate=0.1, spurious_rate=3.0,
                class_ids=(1, 2),
            )
            gts = gen_ground_truth(model)
            preds = perturb(gts, model)
            rows = compare_protocols({"a": gts}, {"a": preds}, 6.0, (1, 2))
            by_protocol = {r.protocol: r for r in rows}
            raw = by_protocol[Protocol.RAW_HUNGARIAN].macro_delta_pct
            greedy = by_protocol[Protocol.GREEDY].macro_delta_pct
            assert raw <= 1e-12
            assert greedy >= -1e-12


class TestRawHungarianBatches:
    """(image, class) cells are scored in batches of CELL_BATCH under every
    protocol; the counts must be those of scoring each cell on its own."""

    def _dataset(self):
        rng = random.Random(64)
        gt_by_image, pred_by_image = {}, {}
        for k in range(80):
            # every fifth image lacks class 2 on one side or both, and some
            # images exist on one side only
            gts = random_points(rng, rng.randint(0, 9), num_classes=2, extent=25)
            preds = random_points(rng, rng.randint(0, 9), num_classes=2, extent=25)
            if k % 5 == 0:
                gts = [p for p in gts if p.class_id == 1]
            if k % 10 == 0:
                preds = [p for p in preds if p.class_id == 1]
            if k % 13 != 1:
                gt_by_image[f"im{k:02d}"] = gts
            if k % 17 != 2:
                pred_by_image[f"im{k:02d}"] = preds
        return gt_by_image, pred_by_image

    def test_counts_equal_per_cell_solves(self, monkeypatch):
        gt_by_image, pred_by_image = self._dataset()
        images = sorted(set(gt_by_image) | set(pred_by_image))
        sizes = []
        batched = evaluation.solve_min_cost_batch
        monkeypatch.setattr(
            evaluation, "solve_min_cost_batch",
            lambda costs: sizes.append(len(costs)) or batched(costs),
        )
        counts = evaluation._evaluate(
            gt_by_image, pred_by_image, 6.0, (1, 2), tuple(Protocol)
        )
        rows = compare_protocols(gt_by_image, pred_by_image, 6.0, (1, 2))
        report = evaluate_dataset(
            gt_by_image, pred_by_image,
            EvalConfig(radius=6.0, protocol=Protocol.RAW_HUNGARIAN, class_ids=(1, 2)),
        )
        assert len(images) == 79
        assert sizes == 3 * [64, 64, 2 * len(images) - 128]
        monkeypatch.undo()

        single = {
            Protocol.MATCHED: match_thresholded,
            Protocol.RAW_HUNGARIAN: match_raw_hungarian,
            Protocol.GREEDY: match_greedy,
        }
        totals = {cls: ClassCounts(cls) for cls in (1, 2)}
        for protocol, match in single.items():
            assert counts[protocol].shape == (len(images), 2, 3)
            for i, image_id in enumerate(images):
                for j, cls in enumerate((1, 2)):
                    # one class per call: a single cell, scored on its own
                    alone = match(
                        gt_by_image.get(image_id, []), pred_by_image.get(image_id, []),
                        6.0, (cls,),
                    )[cls]
                    assert ClassCounts(cls, *counts[protocol][i, j].tolist()) == alone
                    if protocol is Protocol.RAW_HUNGARIAN:
                        totals[cls] += alone
        assert [c for c, _ in report.per_class] == [totals[1], totals[2]]
        raw = next(r for r in rows if r.protocol is Protocol.RAW_HUNGARIAN)
        assert raw.per_class_f1 == tuple((c.class_id, f1) for c, f1 in report.per_class)

    def test_matched_only_streams_in_cell_batches(self, monkeypatch):
        gt_by_image, pred_by_image = self._dataset()
        sizes = []
        scored = evaluation.score_cells
        monkeypatch.setattr(
            evaluation, "score_cells",
            lambda cells, radius, protocols: sizes.append(len(cells))
            or scored(cells, radius, protocols),
        )
        evaluate_dataset(gt_by_image, pred_by_image, EvalConfig(radius=6.0, class_ids=(1, 2)))
        # 79 images x 2 classes
        assert sizes == [64, 64, 30]


def test_config_validation():
    for radius in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            EvalConfig(radius=radius)
        for match in (match_thresholded, match_raw_hungarian, match_greedy):
            with pytest.raises(ValueError, match="radius must be positive and finite"):
                match([pt(0, 0)], [pt(0, 0)], radius)
    with pytest.raises(ValueError):
        EvalConfig(class_ids=())
    with pytest.raises(ValueError):
        EvalConfig(class_ids=(1, 1))
