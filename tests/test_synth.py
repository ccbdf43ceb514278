import math
import tracemalloc

import numpy as np
import pytest

from pointmatch.evaluation import EvalConfig, Protocol, compare_protocols, evaluate_dataset
from pointmatch.synth import PerturbationModel, figure3_fixture, gen_ground_truth, perturb


class TestGenGroundTruth:
    def test_zero_density_empty(self):
        assert gen_ground_truth(PerturbationModel(density=0.0)) == []

    def test_deterministic(self):
        model = PerturbationModel(seed=123, density=40.0, class_ids=(1, 2, 3))
        assert gen_ground_truth(model) == gen_ground_truth(model)

    def test_poisson_count_bounds(self):
        # Poisson(50) mass outside [20, 90] is ~1e-5; 100 seeds stay inside
        for seed in range(100):
            model = PerturbationModel(seed=seed, density=50.0)
            n = len(gen_ground_truth(model))
            assert 20 <= n <= 90

    def test_points_within_extent(self):
        model = PerturbationModel(seed=5, density=60.0, extent=(100.0, 50.0))
        for p in gen_ground_truth(model):
            assert 0 <= p.x <= 100 and 0 <= p.y <= 50


class TestPerturb:
    def test_identity_model_is_identity(self):
        model = PerturbationModel(seed=9, density=30.0, class_ids=(1, 2))
        gts = gen_ground_truth(model)
        assert perturb(gts, model) == gts

    def test_identity_model_draws_as_an_identity_matrix(self):
        # confusion=None still draws each point's relabelling value, so the
        # jitter, drops and spurious points match the explicit identity's
        kwargs = dict(seed=3, density=40.0, jitter_sigma=2.0, drop_rate=0.3,
                      spurious_rate=5.0, class_ids=(1, 2, 3))
        identity = tuple(tuple(float(i == j) for j in range(3)) for i in range(3))
        model = PerturbationModel(**kwargs)
        gts = gen_ground_truth(model)
        assert perturb(gts, model) == perturb(gts, PerturbationModel(**kwargs, confusion=identity))

    def test_identity_model_builds_no_class_matrix(self):
        # a T x T identity over 3,000 classes peaked at 217 MB
        tracemalloc.start()
        try:
            model = PerturbationModel(seed=1, density=10.0, class_ids=tuple(range(1, 3001)))
            gts = gen_ground_truth(model)
            preds = perturb(gts, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6
        assert preds == gts

    def test_full_drop_leaves_only_spurious(self):
        model = PerturbationModel(seed=2, density=30.0, drop_rate=1.0, spurious_rate=4.0)
        gts = gen_ground_truth(model)
        preds = perturb(gts, model)
        originals = {(p.x, p.y) for p in gts}
        assert all((p.x, p.y) not in originals for p in preds)

    def test_deterministic(self):
        model = PerturbationModel(
            seed=4, density=30.0, jitter_sigma=1.5, drop_rate=0.2, spurious_rate=2.0
        )
        gts = gen_ground_truth(model)
        assert perturb(gts, model) == perturb(gts, model)

    def test_confusion_relabeling(self):
        swap = ((0.0, 1.0), (1.0, 0.0))
        model = PerturbationModel(seed=6, density=30.0, class_ids=(1, 2), confusion=swap)
        gts = gen_ground_truth(model)
        preds = perturb(gts, model)
        assert len(preds) == len(gts)
        assert all(p.class_id != g.class_id for g, p in zip(gts, preds))

    def test_small_jitter_keeps_f1_high(self):
        hits = 0
        for seed in range(100):
            model = PerturbationModel(seed=seed, density=30.0, jitter_sigma=1.0)
            gts = gen_ground_truth(model)
            preds = perturb(gts, model)
            report = evaluate_dataset(
                {"a": gts}, {"a": preds}, EvalConfig(radius=6.0, class_ids=(1,))
            )
            if report.macro_f1 >= 0.95:
                hits += 1
        assert hits == 100


class TestFigure3Fixture:
    def test_geometry(self):
        gts, preds = figure3_fixture()
        assert [(g.x, g.y) for g in gts] == [(0, 0), (30, 0)]
        assert [(p.x, p.y) for p in preds] == [(3, 0), (-8, 0)]
        assert all(p.class_id == 1 for p in gts + preds)

    def test_strict_protocol_gap(self):
        gts, preds = figure3_fixture()
        f1 = {r.protocol: r.macro_f1 for r in compare_protocols({"": gts}, {"": preds}, 6.0, (1,))}
        assert f1[Protocol.MATCHED] > f1[Protocol.RAW_HUNGARIAN]


def test_seed_outside_one_philox_word_refused():
    for seed in (2**64, 2**70, -1, -(2**63) - 1):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            PerturbationModel(seed=seed)
    # the extremes of the range draw, and seeds of 2**63 or more are not
    # rounded: each of these seeds draws its own points
    seeds = (0, 2**63, 2**63 + 1, 2**64 - 1)
    drawn = [gen_ground_truth(PerturbationModel(seed=s, density=20.0)) for s in seeds]
    assert all(drawn) and len({tuple(d) for d in drawn}) == len(seeds)


def test_model_validation():
    with pytest.raises(ValueError):
        PerturbationModel(drop_rate=1.5)
    for extent in ((0.0, 10.0), (math.nan, 10.0), (10.0, math.inf), (1e200, 10.0)):
        with pytest.raises(ValueError):
            PerturbationModel(extent=extent)
    for value in (-1.0, math.nan, math.inf):
        for name in ("spurious_rate", "density", "jitter_sigma"):
            with pytest.raises(ValueError):
                PerturbationModel(**{name: value})
    for name in ("spurious_rate", "density"):
        PerturbationModel(**{name: 1e6})
        with pytest.raises(ValueError, match="at most 1e"):
            PerturbationModel(**{name: 1e6 + 1})
    with pytest.raises(ValueError):
        PerturbationModel(class_ids=(1, 2), confusion=((0.5, 0.4), (0.5, 0.5)))
