"""End-to-end oracle for the columnar path: point files are written with
``write_point_file``, scored by ``pointmatch compare``, and every protocol's
per-class F1 is checked against brute-force oracles applied per
(image, class) in file order."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pointmatch.assignment import brute_force_max_matching, brute_force_min_cost
from pointmatch.cli import main
from pointmatch.pointfile import PointRecord, write_point_file
from pointmatch.types import BoolMatrix, CostMatrix, distance_matrix

RADIUS = 2.0
# A coarse integer grid. Squared distances are integers, so a distance lies
# within rounding of the radius only when it equals it; and assignments of
# equal cost but different hit counts are common (gts at x = 0, 1 and preds
# at x = 2, 3), so raw_hungarian's counts depend on file order in an image.
points = st.lists(st.tuples(st.integers(0, 8).map(float), st.integers(0, 2).map(float)),
                  max_size=8)


@st.composite
def point_files(draw):
    """Rows of a gt and a pred file: 1-3 images and 1-3 classes, at most 8
    points per (image, class) and side, images interleaved in file order."""
    gt, pred = [], []
    for image in range(draw(st.integers(1, 3))):
        for cls in range(1, draw(st.integers(1, 3)) + 1):
            gt += [(f"im{image}", x, y, cls) for x, y in draw(points)]
            pred += [(f"im{image}", x, y, cls) for x, y in draw(points)]
    return draw(st.permutations(gt)), draw(st.permutations(pred))


def _oracle_counts(gt_xy, pred_xy):
    """{protocol: (tp, fp, fn)} of one (image, class)."""
    n, m = len(gt_xy), len(pred_xy)
    dist = distance_matrix(np.reshape(gt_xy, (-1, 2)), np.reshape(pred_xy, (-1, 2)))
    within = dist <= RADIUS
    matched = brute_force_max_matching(BoolMatrix(within)).size
    raw = sum(1 for r, c in brute_force_min_cost(CostMatrix(dist)).pairs if within[r, c])
    greedy_tp = int(within.any(axis=0).sum())
    greedy_fn = n - int(within.any(axis=1).sum())
    return {
        "matched": (matched, m - matched, n - matched),
        "raw_hungarian": (raw, m - raw, n - raw),
        "greedy": (greedy_tp, m - greedy_tp, greedy_fn),
    }


def _f1(tp, fp, fn):
    denom = tp + 0.5 * (fp + fn)
    return tp / denom if denom else 0.0


def _expected(gt_rows, pred_rows):
    """{protocol: {class: f1}} from dataset-summed counts."""
    classes = sorted({r[3] for r in gt_rows + pred_rows}) or [1]
    images = {r[0] for r in gt_rows + pred_rows}
    totals = {p: {c: [0, 0, 0] for c in classes} for p in ("matched", "raw_hungarian", "greedy")}
    for image in images:
        for cls in classes:
            gt_xy = [r[1:3] for r in gt_rows if r[0] == image and r[3] == cls]
            pred_xy = [r[1:3] for r in pred_rows if r[0] == image and r[3] == cls]
            for protocol, counts in _oracle_counts(gt_xy, pred_xy).items():
                totals[protocol][cls] = [a + b for a, b in zip(totals[protocol][cls], counts)]
    return {p: {c: _f1(*t) for c, t in by_class.items()} for p, by_class in totals.items()}


@settings(max_examples=100, deadline=None)
@given(point_files(), st.sampled_from(["csv", "json"]))
@example(  # raw_hungarian finds 1 hit in image a, and 2 with each side's rows reversed
    ([("a", 3.0, 0.0, 1), ("b", 5.0, 5.0, 1), ("a", 1.0, 0.0, 1), ("a", 3.0, 0.0, 1)],
     [("a", 0.0, 0.0, 1), ("a", 0.0, 1.0, 1), ("b", 5.0, 4.0, 1), ("a", 1.0, 0.0, 1)]),
    "csv",
)
def test_compare_matches_brute_force_oracles(files, fmt):
    gt_rows, pred_rows = files
    with tempfile.TemporaryDirectory() as tmp:
        gt, pred, out = (
            os.path.join(tmp, name) for name in (f"gt.{fmt}", f"pred.{fmt}", "out.json")
        )
        write_point_file(gt, [PointRecord(*r) for r in gt_rows])
        write_point_file(pred, [PointRecord(*r, confidence=0.5) for r in pred_rows])
        assert main(["compare", gt, pred, "--radius", str(RADIUS), "--format", "json",
                     "--output", out]) == 0
        with open(out, encoding="utf-8") as f:
            report = json.load(f)
    expected = _expected(gt_rows, pred_rows)
    for row in report["protocols"]:
        got = {pc["class_id"]: pc["f1"] for pc in row["per_class"]}
        assert got == expected[row["protocol"]]
        assert row["macro_f1"] == sum(got.values()) / len(got)


@pytest.mark.parametrize("column, value, message", [
    (1, "nan", "coordinates must be finite"),
    (1, "inf", "coordinates must be finite"),
    (3, "0", "class_id must be >= 1"),
])
def test_fault_on_a_late_line_names_it(tmp_path, capsys, column, value, message):
    rows = [[f"im{i % 3}", str(i), str(2 * i), "1"] for i in range(60)]
    rows[38][column] = value  # line 40: the header is line 1
    rows[48][2] = "oops"  # a later line that fails to parse, an earlier stage
    bad = tmp_path / "gt.csv"
    bad.write_text("image_id,x,y,class_id\n" + "".join(",".join(r) + "\n" for r in rows))
    assert main(["compare", str(bad), str(bad)]) == 2
    assert f"line 40: {message}" in capsys.readouterr().err
