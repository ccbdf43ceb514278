import collections
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointmatch import assignment, evaluation
from _oracle import brute_force_max_matching
from pointmatch.assignment import solve_min_cost
from pointmatch.evaluation import (
    Aggregate,
    ClassCounts,
    EvalConfig,
    Protocol,
    compare_protocols,
    evaluate_dataset,
    f1_from_counts,
)
from pointmatch.synth import PerturbationModel, figure3_fixture, gen_ground_truth, perturb
from pointmatch.types import CostMatrix, LabeledPoint, PointSet, PredictedPoint

MATCHED, RAW, GREEDY = Protocol.MATCHED, Protocol.RAW_HUNGARIAN, Protocol.GREEDY


def pt(x, y, cls=1):
    return LabeledPoint(x=x, y=y, class_id=cls)


def image_counts(gts, preds, radius, protocol, class_ids=(1,)):
    """The counts of each class of one image, scored as a one-image dataset."""
    config = EvalConfig(radius=radius, protocol=protocol, class_ids=class_ids)
    return {c.class_id: c for c, _ in evaluate_dataset({"": gts}, {"": preds}, config).per_class}


def dense_counts(gt_by_image, pred_by_image, radius, class_ids, protocols):
    """``evaluation._evaluate``'s counts of the cells that hold a point,
    scattered back into one (images, classes, 3) array per protocol; a cell
    without a point counts (0, 0, 0)."""
    images, keys, counts = evaluation._evaluate(
        gt_by_image, pred_by_image, radius, class_ids, protocols
    )
    assert (np.diff(keys) > 0).all()
    dense = {}
    for protocol, c in counts.items():
        dense[protocol] = np.zeros((images * len(class_ids), 3), dtype=np.int64)
        dense[protocol][keys] = c
        dense[protocol] = dense[protocol].reshape(images, len(class_ids), 3)
    return dense


def report_of_dense(protocol, dense, config):
    """``evaluation._report`` of an (images, classes, 3) counts array, every
    cell keyed."""
    keys = np.arange(dense.shape[0] * dense.shape[1])
    return evaluation._report(protocol, len(dense), keys, dense.reshape(-1, 3), config)


class TestF1FromCounts:
    def test_balanced(self):
        assert f1_from_counts(ClassCounts(1, tp=1, fp=1, fn=1)) == 0.5

    def test_all_zero(self):
        assert f1_from_counts(ClassCounts(1)) == 0.0

    def test_perfect(self):
        assert f1_from_counts(ClassCounts(1, tp=2)) == 1.0


class TestMatchThresholded:
    """The corrected protocol: distances thresholded at the radius, then
    matched."""

    def test_one_in_one_out_of_radius(self):
        counts = image_counts([pt(0, 0)], [pt(3, 0), pt(-8, 0)], 6.0, MATCHED)[1]
        assert (counts.tp, counts.fp, counts.fn) == (1, 1, 0)

    def test_no_predictions(self):
        counts = image_counts([pt(0, 0), pt(1, 1), pt(2, 2)], [], 6.0, MATCHED)[1]
        assert (counts.tp, counts.fp, counts.fn) == (0, 0, 3)

    def test_radius_boundary_inclusive(self):
        counts = image_counts([pt(0, 0)], [pt(6, 0)], 6.0, MATCHED)[1]
        assert counts.tp == 1

    def test_classes_matched_independently(self):
        gts = [pt(0, 0, 1), pt(0, 0, 2)]
        preds = [pt(1, 0, 2), pt(0, 1, 2)]
        counts = image_counts(gts, preds, 6.0, MATCHED, (1, 2))
        assert (counts[1].tp, counts[1].fn) == (0, 1)
        assert (counts[2].tp, counts[2].fp) == (1, 1)


class TestMatchRawHungarian:
    """The flawed protocol that solves a min-cost assignment on the raw
    distances and filters by the radius afterwards."""

    def test_figure3_geometry(self):
        gts, preds = figure3_fixture()
        raw = image_counts(gts, preds, 6.0, RAW)[1]
        assert (raw.tp, raw.fp, raw.fn) == (0, 2, 2)
        assert f1_from_counts(raw) == 0.0
        good = image_counts(gts, preds, 6.0, MATCHED)[1]
        assert (good.tp, good.fp, good.fn) == (1, 1, 1)
        assert f1_from_counts(good) == 0.5

    def test_single_pair_agrees_with_corrected(self):
        gts, preds = [pt(0, 0)], [pt(2, 0)]
        assert image_counts(gts, preds, 6.0, RAW) == image_counts(gts, preds, 6.0, MATCHED)

    def test_no_predictions(self):
        counts = image_counts([pt(0, 0)], [], 6.0, RAW)[1]
        assert (counts.tp, counts.fn) == (0, 1)


class TestMatchGreedy:
    """The flawed one-to-many protocol: every prediction within the radius
    of a ground truth is a true positive."""

    def test_double_detection_inflates(self):
        gts = [pt(0, 0)]
        preds = [pt(1, 0), pt(0, 1)]
        greedy = image_counts(gts, preds, 6.0, GREEDY)[1]
        assert (greedy.tp, greedy.fp, greedy.fn) == (2, 0, 0)
        assert f1_from_counts(greedy) == 1.0
        good = image_counts(gts, preds, 6.0, MATCHED)[1]
        assert (good.tp, good.fp, good.fn) == (1, 1, 0)
        assert f1_from_counts(good) == pytest.approx(2 / 3)

    def test_no_predictions(self):
        counts = image_counts([pt(0, 0)], [], 6.0, GREEDY)[1]
        assert (counts.tp, counts.fn) == (0, 1)

    def test_one_to_one_geometry_agrees(self):
        gts = [pt(0, 0), pt(50, 50)]
        preds = [pt(1, 0), pt(50, 51)]
        assert image_counts(gts, preds, 6.0, GREEDY) == image_counts(gts, preds, 6.0, MATCHED)


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
            good, raw, greedy = (image_counts(gts, preds, 8.0, p, classes)
                                 for p in (MATCHED, RAW, GREEDY))
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
        base = image_counts(gts, preds, 6.0, MATCHED, (1, 2))

        theta = 0.7
        c, s = math.cos(theta), math.sin(theta)

        def move(p):
            x, y = p.x + 13.5, p.y - 4.25
            return pt(c * x - s * y, s * x + c * y, p.class_id)

        moved = image_counts([move(p) for p in gts], [move(p) for p in preds], 6.0, MATCHED,
                             (1, 2))
        for cls in (1, 2):
            assert (moved[cls].tp, moved[cls].fp, moved[cls].fn) == (
                base[cls].tp, base[cls].fp, base[cls].fn,
            )

        rng.shuffle(gts)
        rng.shuffle(preds)
        shuffled = image_counts(gts, preds, 6.0, MATCHED, (1, 2))
        assert shuffled == base

    def test_thresholded_tp_agrees_with_brute_force(self):
        rng = random.Random(3)
        for _ in range(100):
            gts = random_points(rng, rng.randint(0, 7), num_classes=1, extent=30)
            preds = random_points(rng, rng.randint(0, 7), num_classes=1, extent=30)
            counts = image_counts(gts, preds, 6.0, MATCHED)[1]
            adjacency = np.array(
                [[math.hypot(g.x - p.x, g.y - p.y) <= 6.0 for p in preds] for g in gts],
                dtype=bool,
            ).reshape(len(gts), len(preds))
            assert counts.tp == len(brute_force_max_matching(adjacency).pairs)


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

    @pytest.mark.parametrize("aggregate", list(Aggregate))
    def test_no_images_gives_integer_counts(self, aggregate):
        for protocol in Protocol:
            config = EvalConfig(protocol=protocol, class_ids=(2, 1), aggregate=aggregate)
            report = evaluate_dataset({}, {}, config)
            assert report == evaluation.EvalReport(
                ((ClassCounts(2), 0.0), (ClassCounts(1), 0.0)), 0.0, protocol, 0
            )
            assert all(type(v) is int for counts, _ in report.per_class for v in counts)

    def test_memory_grows_with_points_not_images_times_classes(self):
        # 2,000 images of one pair each and 2,000 class ids: 4M (image,
        # class) cells, of which 2,000 hold a point; one int64 per cell
        # would take 32 MB
        classes = tuple(range(1, 2001))
        rng = random.Random(23)
        gt_by_image, pred_by_image = {}, {}
        for k in range(2000):
            cls = rng.choice(classes)
            gt_by_image[f"im{k}"] = PointSet(np.ones((1, 2)), np.array([cls]))
            pred_by_image[f"im{k}"] = PointSet(np.full((1, 2), 1.5), np.array([cls]))
        tracemalloc.start()
        try:
            rows = compare_protocols(gt_by_image, pred_by_image, 6.0, classes,
                                     Aggregate.PER_IMAGE_MEAN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6
        # every pair is a hit, so a class's F1 is its share of the images
        images_of = collections.Counter(int(s.cls[0]) for s in gt_by_image.values())
        for row in rows:
            assert row.per_class_f1 == tuple((c, images_of[c] / 2000) for c in classes)


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
    """(image, class) cells are scored in batches of at most BLOCK_ELEMENTS
    padded distances under every protocol; the counts must be those of
    scoring each cell on its own."""

    # a budget that splits the dataset's small cells holding a pair (81 of
    # its 158) into several batches
    BUDGET = 2_000

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

    def _record_batches(self, monkeypatch):
        """The (cells, padded elements) of each batch scored from now on."""
        monkeypatch.setattr(assignment, "BLOCK_ELEMENTS", self.BUDGET)
        batches = []
        scored = evaluation.score_cells

        def record(cells, radius, protocols):
            rows, cols = zip(*(sorted((len(g), len(p))) for g, p in cells))
            batches.append((len(cells), len(cells) * max(1, *rows) * max(1, *cols)))
            return scored(cells, radius, protocols)

        monkeypatch.setattr(evaluation, "score_cells", record)
        return batches

    @staticmethod
    def _paired_cells(gt_by_image, pred_by_image):
        """The number of (image, class) cells holding a ground truth and a
        prediction, the only cells that reach ``score_cells``."""
        return sum(
            all(any(p.class_id == cls for p in side.get(i, [])) for side in (gt_by_image, pred_by_image))
            for i in set(gt_by_image) | set(pred_by_image)
            for cls in (1, 2)
        )

    def _assert_within_budget(self, batches, runs, cells):
        assert all(size <= self.BUDGET for _, size in batches)
        assert sum(n for n, _ in batches) == runs * cells
        assert len(batches) >= 2 * runs

    def test_counts_equal_per_cell_solves(self, monkeypatch):
        gt_by_image, pred_by_image = self._dataset()
        images = sorted(set(gt_by_image) | set(pred_by_image))
        batches = self._record_batches(monkeypatch)
        counts = dense_counts(gt_by_image, pred_by_image, 6.0, (1, 2), tuple(Protocol))
        rows = compare_protocols(gt_by_image, pred_by_image, 6.0, (1, 2))
        report = evaluate_dataset(
            gt_by_image, pred_by_image,
            EvalConfig(radius=6.0, protocol=Protocol.RAW_HUNGARIAN, class_ids=(1, 2)),
        )
        assert len(images) == 79
        assert self._paired_cells(gt_by_image, pred_by_image) == 81
        self._assert_within_budget(batches, 3, 81)
        monkeypatch.undo()

        totals = {cls: np.zeros(3, dtype=int) for cls in (1, 2)}
        for protocol in Protocol:
            assert counts[protocol].shape == (len(images), 2, 3)
            for i, image_id in enumerate(images):
                for j, cls in enumerate((1, 2)):
                    # one class per call: a single cell, scored on its own
                    alone = image_counts(
                        gt_by_image.get(image_id, []), pred_by_image.get(image_id, []),
                        6.0, protocol, (cls,),
                    )[cls]
                    assert ClassCounts(cls, *counts[protocol][i, j].tolist()) == alone
                    if protocol is Protocol.RAW_HUNGARIAN:
                        totals[cls] += (alone.tp, alone.fp, alone.fn)
        assert [c for c, _ in report.per_class] == [
            ClassCounts(cls, *totals[cls].tolist()) for cls in (1, 2)
        ]
        raw = next(r for r in rows if r.protocol is Protocol.RAW_HUNGARIAN)
        assert raw.per_class_f1 == tuple((c.class_id, f1) for c, f1 in report.per_class)

    def test_shape_order_never_shows_in_results(self, monkeypatch):
        # cells alternate between large, small and empty from image to image,
        # and some images exist on one side only, so the cells are scored far
        # from image order; every report must equal scoring each cell alone
        rng = random.Random(66)
        gt_by_image, pred_by_image = {}, {}
        for k in range(45):
            lo, hi = ((12, 18), (1, 3), (0, 0))[k % 3]
            gts = random_points(rng, rng.randint(lo, hi), num_classes=2, extent=30)
            preds = random_points(rng, rng.randint(lo, hi), num_classes=2, extent=30)
            if k % 7 != 3:
                gt_by_image[f"im{k:02d}"] = gts
            if k % 11 != 5:
                pred_by_image[f"im{k:02d}"] = preds
        images = sorted(set(gt_by_image) | set(pred_by_image))
        classes = (1, 2)
        monkeypatch.setattr(assignment, "BLOCK_ELEMENTS", self.BUDGET)
        shapes = []
        scored = evaluation.score_cells

        def record(cells, radius, protocols):
            shapes.extend(tuple(sorted((len(g), len(p)))) for g, p in cells)
            return scored(cells, radius, protocols)

        monkeypatch.setattr(evaluation, "score_cells", record)
        reports = {
            (protocol, aggregate): evaluate_dataset(
                gt_by_image, pred_by_image,
                EvalConfig(radius=6.0, protocol=protocol, class_ids=classes, aggregate=aggregate),
            )
            for protocol in Protocol
            for aggregate in Aggregate
        }
        comparisons = {
            aggregate: compare_protocols(gt_by_image, pred_by_image, 6.0, classes, aggregate)
            for aggregate in Aggregate
        }
        monkeypatch.undo()
        # each of the 8 runs sent its cells in ascending shape order, which
        # is not image order
        in_image_order = [
            tuple(sorted(
                sum(p.class_id == cls for p in side.get(i, [])) for side in (gt_by_image, pred_by_image)
            ))
            for i in images
            for cls in classes
        ]
        assert in_image_order != sorted(in_image_order)
        assert shapes == sorted(s for s in in_image_order if s[0] > 0) * 8

        for protocol in Protocol:
            alone = np.array([
                [
                    image_counts(gt_by_image.get(i, []), pred_by_image.get(i, []), 6.0, protocol,
                                 (cls,))[cls][1:]
                    for cls in classes
                ]
                for i in images
            ])
            for aggregate in Aggregate:
                config = EvalConfig(
                    radius=6.0, protocol=protocol, class_ids=classes, aggregate=aggregate
                )
                expected = report_of_dense(protocol, alone, config)
                assert reports[protocol, aggregate] == expected
                row = next(r for r in comparisons[aggregate] if r.protocol is protocol)
                assert row.per_class_f1 == tuple((c.class_id, f1) for c, f1 in expected.per_class)
                assert row.macro_f1 == expected.macro_f1

    def test_matched_only_streams_in_cell_batches(self, monkeypatch):
        gt_by_image, pred_by_image = self._dataset()
        batches = self._record_batches(monkeypatch)
        evaluate_dataset(gt_by_image, pred_by_image, EvalConfig(radius=6.0, class_ids=(1, 2)))
        self._assert_within_budget(batches, 1, self._paired_cells(gt_by_image, pred_by_image))


def test_sparse_classes_score_only_cells_with_a_pair(monkeypatch):
    # 300 images with one point a side, classes drawn from 1..300: of the
    # 90,000 (image, class) cells at most 300 hold a ground truth and a
    # prediction, and only those may be built and scored
    rng = random.Random(18)
    classes = tuple(range(1, 301))
    gt_by_image, pred_by_image = {}, {}
    for k in range(300):
        cls = rng.randint(1, 300)
        gt_by_image[f"im{k:03d}"] = [pt(1, 1, cls)]
        pred_cls = cls if k % 3 else rng.randint(1, 300)
        pred_by_image[f"im{k:03d}"] = [pt(rng.choice((1.5, 9.0)), 1, pred_cls)]
    received = []
    scored = evaluation.score_cells

    def record(cells, radius, protocols):
        received.extend((len(g), len(p)) for g, p in cells)
        return scored(cells, radius, protocols)

    monkeypatch.setattr(evaluation, "score_cells", record)
    counts = dense_counts(gt_by_image, pred_by_image, 6.0, classes, tuple(Protocol))
    monkeypatch.undo()
    images = sorted(gt_by_image)
    paired = sum(gt_by_image[i][0].class_id == pred_by_image[i][0].class_id for i in images)
    assert 150 < paired < 300
    assert received == [(1, 1)] * paired

    # scoring a cell without a pair gives what skipping it gives
    empty = scored([(np.zeros((0, 2)), np.ones((2, 2)))], 6.0, tuple(Protocol))
    assert all(c.tolist() == [[0, 2, 0]] for c in empty.values())
    for protocol in Protocol:
        expected = np.zeros((len(images), len(classes), 3), dtype=np.int64)
        for i, image_id in enumerate(images):
            (g,), (p,) = gt_by_image[image_id], pred_by_image[image_id]
            expected[i, p.class_id - 1, 1] += 1
            expected[i, g.class_id - 1, 2] += 1
            if g.class_id == p.class_id:
                alone = image_counts([g], [p], 6.0, protocol, (g.class_id,))[g.class_id]
                expected[i, g.class_id - 1] = (alone.tp, alone.fp, alone.fn)
        np.testing.assert_array_equal(counts[protocol], expected)
        assert counts[protocol][..., 0].sum() > 0


# most cells have no true positive, as in a sparse multi-class dataset
_SPARSE_CELL = st.tuples(
    st.integers(0, 9).flatmap(lambda k: st.integers(1, 10**6) if k == 0 else st.just(0)),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_per_image_mean_equals_the_mean_over_every_cell(data):
    images, classes = data.draw(st.integers(0, 20)), data.draw(st.integers(1, 4))
    cells = data.draw(st.lists(_SPARSE_CELL, min_size=images * classes, max_size=images * classes))
    counts = np.array(cells, dtype=np.int64).reshape(images, classes, 3)
    config = EvalConfig(class_ids=tuple(range(1, classes + 1)), aggregate=Aggregate.PER_IMAGE_MEAN)
    report = report_of_dense(Protocol.MATCHED, counts, config)
    for j, (total, f1) in enumerate(report.per_class):
        f1s = [f1_from_counts(ClassCounts(total.class_id, *c)) for c in counts[:, j].tolist()]
        expected = sum(f1s) / len(f1s) if f1s else 0.0
        assert f1.hex() == expected.hex()


def test_one_large_cell_does_not_pad_the_small_ones():
    # 63 five-point cells and one 600 x 600 cell: padding every cell to the
    # large one's shape would take 64 x 600 x 600 floats (184 MB)
    rng = np.random.default_rng(12)
    gt_by_image, pred_by_image = {}, {}
    for k in range(64):
        n, extent = (600, 300.0) if k == 40 else (5, 20.0)
        for side in (gt_by_image, pred_by_image):
            side[f"im{k:02d}"] = PointSet(rng.uniform(0, extent, (n, 2)), np.ones(n, np.int64))
    tracemalloc.start()
    try:
        counts = dense_counts(
            gt_by_image, pred_by_image, 6.0, (1,), (Protocol.RAW_HUNGARIAN,)
        )[Protocol.RAW_HUNGARIAN]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6
    for k, image_id in enumerate(sorted(gt_by_image)):
        gts, preds = gt_by_image[image_id].xy, pred_by_image[image_id].xy
        dist = np.linalg.norm(gts[:, None] - preds[None], axis=2)
        pairs = np.array(solve_min_cost(CostMatrix(dist)).pairs)
        tp = int(np.count_nonzero(dist[pairs[:, 0], pairs[:, 1]] <= 6.0))
        assert counts[k, 0].tolist() == [tp, len(preds) - tp, len(gts) - tp]


def test_config_validation():
    for radius in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            EvalConfig(radius=radius)
    with pytest.raises(ValueError):
        EvalConfig(class_ids=())
    with pytest.raises(ValueError):
        EvalConfig(class_ids=(1, 1))


def test_points_refuse_what_files_refuse():
    # the coordinate bound and message of pointfile
    message = "coordinates must be finite and at most 1e\\+100 in absolute value"
    for x, y in ((1e308, 0.0), (0.0, -1e101), (math.nan, 0.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match=message):
            LabeledPoint(x, y, 1)
        with pytest.raises(ValueError, match=message):
            PredictedPoint(x, y, (0.5, 0.5))
    assert LabeledPoint(1e100, -1e100, 1).x == 1e100
    for confidences in ((math.nan, 0.5), (0.5, 1.5), (-0.1, 0.5)):
        with pytest.raises(ValueError, match="confidences must lie in"):
            PredictedPoint(0.0, 0.0, confidences)


@pytest.mark.parametrize("side", ["gt", "pred"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
def test_point_sets_refuse_what_files_refuse(bad, side):
    # a PointSet is built unchecked; let through, such a coordinate makes the
    # min-cost solve loop on NaN reduced costs, or scores as unmatched
    good = PointSet(np.array([[0.0, 0.0], [5.0, 1.0]]), np.array([1, 1]))
    outside = PointSet(np.array([[0.0, 0.0], [bad, 1.0]]), np.array([1, 1]))
    gts, preds = (outside, good) if side == "gt" else (good, outside)
    message = "coordinates must be finite and at most 1e\\+100 in absolute value"
    for protocol in Protocol:
        with pytest.raises(ValueError, match=message):
            evaluate_dataset({"im": gts}, {"im": preds}, EvalConfig(protocol=protocol))
    with pytest.raises(ValueError, match=message):
        compare_protocols({"im": gts}, {"im": preds}, 6.0, (1,))
