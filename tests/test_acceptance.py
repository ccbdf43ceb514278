"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured evidence when it completes."""

import itertools
import json
import math
import random

import numpy as np

from _oracle import brute_force_max_matching, brute_force_min_cost
from pointmatch.assignment import max_matching_edges, solve_min_cost
from pointmatch.cli import main
from pointmatch.evaluation import EvalConfig, Protocol, evaluate_dataset, f1_from_counts
from pointmatch.matching import MatchConfig, combined_loss, match_hybrid, match_one_to_one
from pointmatch.pointfile import PointRecord, read_point_file, write_point_file
from pointmatch.synth import PerturbationModel, figure3_fixture, gen_ground_truth, perturb
from pointmatch.types import CostMatrix, LabeledPoint, PredictedPoint


def report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def image_counts(gts, preds, protocol, class_ids):
    """The counts of each class of one image, scored as a one-image dataset."""
    config = EvalConfig(radius=6.0, protocol=protocol, class_ids=class_ids)
    return {c.class_id: c for c, _ in evaluate_dataset({"": gts}, {"": preds}, config).per_class}


def test_criterion_1_solver_correctness_property():
    rng = np.random.default_rng(20240601)
    n_cost = 10_000
    for _ in range(n_cost):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        # dyadic rationals keep permutation sums exactly representable
        values = rng.integers(-64, 65, size=(rows, cols)).astype(float) / 16.0
        cm = CostMatrix(values)
        fast, slow = (sum(values[r, c] for r, c in solve(cm).pairs)
                      for solve in (solve_min_cost, brute_force_min_cost))
        assert fast == slow

    n_bool = 10_000
    for _ in range(n_bool):
        rows = int(rng.integers(0, 8))
        cols = int(rng.integers(0, 15 - max(rows, 1)))
        values = rng.random(size=(rows, cols)) < rng.uniform(0.1, 0.9)
        matched, _ = max_matching_edges(*np.nonzero(values))
        assert len(matched) == len(brute_force_max_matching(values).pairs)

    report(
        "1 solver correctness",
        f"{n_cost} min-cost and {n_bool} max-matching instances agree with oracles",
    )


def test_criterion_2_figure3_reproduction():
    gts, preds = figure3_fixture()
    counts = {p: image_counts(gts, preds, p, (1,))[1] for p in Protocol}
    assert {p: c[1:] for p, c in counts.items()} == {
        Protocol.MATCHED: (1, 1, 1),
        Protocol.RAW_HUNGARIAN: (0, 2, 2),
        Protocol.GREEDY: (1, 1, 1),
    }
    matched, raw, greedy = (f1_from_counts(counts[p]) for p in Protocol)
    assert matched == 0.5
    assert raw == 0.0
    assert greedy == 0.5
    report("2 adversarial geometry", f"matched={matched} raw={raw} greedy={greedy}")


def test_criterion_3_protocol_dominance_property():
    grid = list(itertools.product((0.5, 1.0, 2.0, 4.0), (0.0, 0.1, 0.3), (0.0, 2.0, 5.0)))
    seeds_per_cell = 28
    classes = (1, 2)
    instances = 0
    for jitter, drop, spurious in grid:
        for seed in range(seeds_per_cell):
            model = PerturbationModel(
                seed=seed,
                jitter_sigma=jitter,
                drop_rate=drop,
                spurious_rate=spurious,
                density=30.0,
                class_ids=classes,
            )
            gts = gen_ground_truth(model)
            preds = perturb(gts, model)
            matched, raw, greedy = (image_counts(gts, preds, p, classes) for p in Protocol)
            for cls in classes:
                n_c = sum(1 for p in gts if p.class_id == cls)
                m_c = sum(1 for p in preds if p.class_id == cls)
                f_matched = f1_from_counts(matched[cls])
                f_raw = f1_from_counts(raw[cls])
                f_greedy = f1_from_counts(greedy[cls])
                assert f_matched >= f_raw
                assert f_greedy >= f_matched
                # exact F1 identity for the one-to-one protocols
                for counts in (matched[cls], raw[cls]):
                    assert counts.tp + counts.fp == m_c
                    assert counts.tp + counts.fn == n_c
                    if m_c + n_c:
                        assert f1_from_counts(counts) == 2 * counts.tp / (m_c + n_c)
                assert greedy[cls].tp + greedy[cls].fp == m_c
            instances += 1
    assert instances >= 1000
    report("3 protocol dominance", f"{instances} synthetic datasets, 0 violations")


def _far_grid(start, count, step=25.0):
    # well-separated positions: pairwise distance always > 2 * radius
    return [(start + i * step, 1000.0 + start) for i in range(count)]


def test_criterion_4_macro_average_convention():
    gts, preds = [], []
    # class 1: F1 = 2*413/(500+500) = 0.826
    for i in range(500):
        x, y = 25.0 * i, 0.0
        gts.append(LabeledPoint(x, y, 1))
        if i < 413:
            preds.append(LabeledPoint(x, y, 1))
    for x, y in _far_grid(0.0, 87):
        preds.append(LabeledPoint(x, y, 1))
    # class 2: F1 = 2*781/(1000+1000) = 0.781
    for i in range(1000):
        x, y = 25.0 * i, 100.0
        gts.append(LabeledPoint(x, y, 2))
        if i < 781:
            preds.append(LabeledPoint(x, y, 2))
    for x, y in _far_grid(5000.0, 219):
        preds.append(LabeledPoint(x, y, 2))
    # classes 3 and 4 exist in ground truth but are never predicted
    gts.append(LabeledPoint(0.0, 200.0, 3))
    gts.append(LabeledPoint(0.0, 300.0, 4))

    config = EvalConfig(radius=6.0, class_ids=(1, 2, 3, 4))
    result = evaluate_dataset({"img": gts}, {"img": preds}, config)
    f1_by_class = {c.class_id: f1 for c, f1 in result.per_class}
    assert f1_by_class[1] == 0.826
    assert f1_by_class[2] == 0.781
    assert f1_by_class[3] == 0.0 and f1_by_class[4] == 0.0
    assert result.macro_f1 == (0.826 + 0.781) / 4
    assert round(result.macro_f1, 3) == 0.402
    report("4 macro convention", f"macro={result.macro_f1:.5f} rounds to 0.402")


def _random_instance(rng, m, num_classes=2):
    gts = []
    preds = []
    for _ in range(m):
        raw = [rng.random() for _ in range(num_classes + 1)]
        total = sum(raw)
        preds.append(
            PredictedPoint(
                rng.uniform(0, 128), rng.uniform(0, 128),
                tuple(v / total for v in raw),
            )
        )
    return gts, preds


def test_criterion_5_hybrid_matcher_reduction():
    rng = random.Random(777)
    instances = 0
    while instances < 1000:
        m = rng.randint(6, 64)
        beta = rng.choice([2, 4, 6])
        n = rng.randint(1, m // beta)
        gts = [
            LabeledPoint(rng.uniform(0, 128), rng.uniform(0, 128), rng.randint(1, 2))
            for _ in range(n)
        ]
        _, preds = _random_instance(rng, m)

        cfg1 = MatchConfig(beta=1)
        one2one_a, one2many_a = match_hybrid(gts, preds, cfg1)
        assert one2one_a == one2many_a == match_one_to_one(gts, preds, cfg1)

        cfg = MatchConfig(beta=beta)
        _, one2many = match_hybrid(gts, preds, cfg)
        per_gt = {}
        for g, p in one2many.matched:
            per_gt[g] = per_gt.get(g, 0) + 1
        assert all(per_gt.get(g, 0) == beta for g in range(n))
        cols = [p for _, p in one2many.matched]
        assert len(set(cols)) == len(cols)
        instances += 1
    report("5 hybrid reduction", f"{instances} fuzzed instances, beta in {{1,2,4,6}}")


def _loss_fixture():
    gts = [
        LabeledPoint(10.0, 12.0, 1),
        LabeledPoint(50.0, 47.0, 2),
    ]
    preds = [
        PredictedPoint(11.0, 12.5, (0.05, 0.85, 0.10)),
        PredictedPoint(9.0, 13.0, (0.10, 0.70, 0.20)),
        PredictedPoint(49.0, 46.0, (0.05, 0.15, 0.80)),
        PredictedPoint(52.0, 48.0, (0.20, 0.10, 0.70)),
        PredictedPoint(30.0, 30.0, (0.90, 0.05, 0.05)),
        PredictedPoint(70.0, 10.0, (0.80, 0.10, 0.10)),
        PredictedPoint(15.0, 40.0, (0.60, 0.30, 0.10)),
        PredictedPoint(90.0, 90.0, (0.95, 0.03, 0.02)),
    ]
    return gts, preds


def _oracle_combined(gts, preds, tau, beta, bg_weight, fg_weight, reg_weight, one2many_weight):
    """Straight-line re-implementation used only as a cross-check: brute-force
    assignment enumeration plus literal loss formulas."""
    m = len(preds)

    def pair_cost(i, j):
        g, p = gts[i], preds[j]
        return tau * math.hypot(g.x - p.x, g.y - p.y) - p.confidences[g.class_id]

    def best_assignment(row_gts):
        best_total, best_perm = None, None
        for perm in itertools.permutations(range(m), len(row_gts)):
            total = sum(pair_cost(row_gts[k], perm[k]) for k in range(len(row_gts)))
            if best_total is None or total < best_total - 1e-12:
                best_total, best_perm = total, perm
        return list(zip(row_gts, best_perm))

    def losses(matched):
        matched_preds = {j for _, j in matched}
        cls = 0.0
        for i, j in matched:
            cls -= fg_weight * math.log(
                max(preds[j].confidences[gts[i].class_id], 1e-12)
            )
        for j in range(m):
            if j not in matched_preds:
                cls -= bg_weight * math.log(max(preds[j].confidences[0], 1e-12))
        cls /= m
        if matched:
            reg = sum(
                (gts[i].x - preds[j].x) ** 2 + (gts[i].y - preds[j].y) ** 2
                for i, j in matched
            ) / len(matched)
        else:
            reg = 0.0
        return cls, reg

    cls_1, reg_1 = losses(best_assignment(list(range(len(gts)))))
    replicated = [i for i in range(len(gts)) for _ in range(beta)]
    cls_n, reg_n = losses(best_assignment(replicated))
    return (cls_1 + reg_weight * reg_1) + one2many_weight * (cls_n + reg_weight * reg_n)


def test_criterion_6_loss_arithmetic():
    # perfect predictions: every component vanishes
    gts = [LabeledPoint(5.0, 5.0, 1)]
    preds = [
        PredictedPoint(5.0, 5.0, (0.0, 1.0)),
        PredictedPoint(90.0, 90.0, (1.0, 0.0)),
    ]
    perfect = combined_loss(gts, preds, MatchConfig(beta=1))
    assert perfect.cls_1v1 == perfect.reg_1v1 == 0.0
    assert perfect.cls_1vN == perfect.reg_1vN == 0.0
    assert perfect.combined == 0.0

    gts, preds = _loss_fixture()
    cfg = MatchConfig(
        tau=0.05,
        beta=2,
        bg_weight=0.5,
        fg_weight=10.0,
        reg_weight=2e-3,
        one2many_weight=0.5,
    )
    got = combined_loss(gts, preds, cfg).combined
    want = _oracle_combined(gts, preds, 0.05, 2, 0.5, 10.0, 2e-3, 0.5)
    assert abs(got - want) <= 1e-10 * abs(want)
    report("6 loss arithmetic", f"combined={got:.12f} matches scripted oracle")


def test_criterion_7_cli_integration(tmp_path, capsys):
    gt = str(tmp_path / "gt.csv")
    pred = str(tmp_path / "pred.csv")
    out = str(tmp_path / "report.json")
    assert main(["synth", "--fixture", "figure3", "--gt-out", gt, "--pred-out", pred]) == 0
    assert main(["evaluate", gt, pred, "--radius", "6", "--protocol", "matched",
                 "--format", "json", "--output", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["macro_f1"] == 0.5

    cmp_out = str(tmp_path / "compare.json")
    assert main(["compare", gt, pred, "--radius", "6", "--format", "json",
                 "--output", cmp_out]) == 0
    rows = {r["protocol"]: r for r in json.loads(open(cmp_out).read())["protocols"]}
    assert rows["raw_hungarian"]["macro_delta_pct"] == -100.0

    # round trip
    records = [
        PointRecord("im", 1.25, -2.5, 1, confidence=0.5),
        PointRecord("im2", 0.0, 7.0, 3, confidence=0.875),
    ]
    rt = str(tmp_path / "roundtrip.csv")
    write_point_file(rt, records)
    assert read_point_file(rt) == records
    rt_json = str(tmp_path / "roundtrip.json")
    write_point_file(rt_json, records)
    assert read_point_file(rt_json) == records

    # exit-status contract
    bad = tmp_path / "bad.csv"
    bad.write_text("image_id,x,y,class_id\nim,1,1,0\n")
    assert main(["evaluate", str(bad), pred]) == 2
    assert main(["evaluate", gt, pred, "--protocol", "bogus"]) == 3
    assert main(["evaluate", gt, pred, "--radius", "0"]) == 3
    capsys.readouterr()
    report("7 cli integration", "pipeline, round trip and exit codes verified")
