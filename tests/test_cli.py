import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pointmatch
from pointmatch import evaluation, matching, pointfile
from pointmatch.cli import main
from pointmatch.pointfile import PointRecord, read_point_file, write_point_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv):
    """The CLI in a fresh interpreter, whose stderr is what a user sees:
    pytest's own capture does not hold back its warnings."""
    src = os.path.dirname(os.path.dirname(pointmatch.__file__))
    proc = subprocess.run([sys.executable, "-m", "pointmatch.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_loads(text):
    """``json.loads`` that rejects the NaN, Infinity and -Infinity that
    ``json.dumps`` writes for non-finite floats (not JSON, RFC 8259)."""
    return json.loads(text, parse_constant=_reject_constant)


def record_match_classes(monkeypatch) -> list:
    """The number of classes K each ``match`` run takes from its input files,
    read off the width of its proposals' (bg, 1..K) confidence matrices."""
    widths = []
    match_inputs = pointfile.match_inputs

    def recording(gt, pred):
        inputs = match_inputs(gt, pred)
        widths.extend({preds.conf.shape[1] - 1 for preds in inputs[1].values()})
        return inputs

    monkeypatch.setattr(pointfile, "match_inputs", recording)
    return widths


@pytest.fixture
def figure3_files(tmp_path):
    gt = str(tmp_path / "gt.csv")
    pred = str(tmp_path / "pred.csv")
    assert main(["synth", "--fixture", "figure3", "--gt-out", gt, "--pred-out", pred]) == 0
    return gt, pred


class TestSynth:
    def test_fixture_files(self, figure3_files):
        gt, pred = figure3_files
        lines = open(gt).read().splitlines()
        assert lines[0] == "image_id,x,y,class_id"
        assert len(lines) == 3

    def test_seeded_outputs_byte_identical(self, tmp_path, capsys):
        paths = []
        for tag in ("one", "two"):
            gt = str(tmp_path / f"gt_{tag}.csv")
            pred = str(tmp_path / f"pred_{tag}.csv")
            code, _, _ = run(capsys, "synth", "--seed", "7", "--density", "20",
                             "--jitter", "1.0", "--gt-out", gt, "--pred-out", pred)
            assert code == 0
            paths.append((gt, pred))
        assert open(paths[0][0]).read() == open(paths[1][0]).read()
        assert open(paths[0][1]).read() == open(paths[1][1]).read()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_extremes_accepted(self, tmp_path, capsys, seed):
        gt = str(tmp_path / "gt.csv")
        code, _, err = run(capsys, "synth", "--seed", str(seed), "--density", "5",
                           "--gt-out", gt, "--pred-out", str(tmp_path / "pred.csv"))
        assert (code, err) == (0, "")
        assert open(gt).read().count(f"synthetic-{seed},") > 0

    def test_zero_density_header_only(self, tmp_path, capsys):
        gt = str(tmp_path / "gt.csv")
        pred = str(tmp_path / "pred.csv")
        code, _, _ = run(capsys, "synth", "--density", "0", "--gt-out", gt,
                         "--pred-out", pred)
        assert code == 0
        assert open(gt).read() == "image_id,x,y,class_id\n"

    def test_bad_model_exits_3(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--drop", "2.0",
                           "--gt-out", str(tmp_path / "g.csv"),
                           "--pred-out", str(tmp_path / "p.csv"))
        assert code == 3

    @pytest.mark.parametrize("option", [["--extent", "nan", "10"], ["--extent", "10", "inf"],
                                        ["--density", "inf"], ["--jitter", "nan"]])
    def test_nonfinite_option_exits_3(self, tmp_path, capsys, option):
        code, _, err = run(capsys, "synth", *option, "--gt-out", str(tmp_path / "gt.csv"),
                           "--pred-out", str(tmp_path / "pred.csv"))
        assert code == 3 and "finite" in err

    def test_extent_beyond_file_bound_exits_3(self, tmp_path, capsys):
        # evaluate would refuse the files such an extent writes
        code, _, err = run(capsys, "synth", "--extent", "1e200", "1e200",
                           "--gt-out", str(tmp_path / "gt.csv"),
                           "--pred-out", str(tmp_path / "pred.csv"))
        assert code == 3 and err.startswith("error: extent must be")
        assert not (tmp_path / "gt.csv").exists()

    def test_unknown_fixture_exits_3(self, tmp_path, capsys):
        code, _, _ = run(capsys, "synth", "--fixture", "nope",
                         "--gt-out", str(tmp_path / "g.csv"),
                         "--pred-out", str(tmp_path / "p.csv"))
        assert code == 3


class TestEvaluate:
    def test_figure3_matched(self, figure3_files, capsys):
        gt, pred = figure3_files
        code, out, _ = run(capsys, "evaluate", gt, pred, "--radius", "6",
                           "--protocol", "matched", "--format", "json")
        assert code == 0
        payload = strict_loads(out)
        assert payload["macro_f1"] == 0.5

    def test_figure3_raw(self, figure3_files, capsys):
        gt, pred = figure3_files
        code, out, _ = run(capsys, "evaluate", gt, pred, "--radius", "6",
                           "--protocol", "raw-hungarian", "--format", "json")
        assert code == 0
        assert strict_loads(out)["macro_f1"] == 0.0

    def test_unknown_protocol_exits_3(self, figure3_files, capsys):
        gt, pred = figure3_files
        code, _, err = run(capsys, "evaluate", gt, pred, "--protocol", "bogus")
        assert code == 3
        assert "protocol" in err

    def test_bad_radius_exits_3(self, figure3_files, capsys):
        gt, pred = figure3_files
        code, _, _ = run(capsys, "evaluate", gt, pred, "--radius", "-1")
        assert code == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, flag", [
        ("evaluate", "--radius"), ("compare", "--radius"), ("match", "--tau"),
        ("match", "--lambda-bg"), ("match", "--lambda-fg"), ("match", "--lambda-reg"),
        ("match", "--lambda-one2many"),
    ])
    def test_nonfinite_option_exits_3(self, figure3_files, capsys, command, flag, value):
        gt, pred = figure3_files
        code, out, err = run(capsys, command, gt, pred, "--format", "json", f"{flag}={value}")
        assert code == 3 and out == ""
        assert "finite" in err
        # the same command with a finite value writes a valid JSON report
        code, out, _ = run(capsys, command, gt, pred, "--format", "json", f"{flag}=1")
        assert code == 0
        strict_loads(out)

    def test_parse_error_exits_2(self, tmp_path, figure3_files, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("image_id,x,y,class_id\nim,1,2,0\n")
        code, _, err = run(capsys, "evaluate", str(bad), figure3_files[1])
        assert code == 2
        assert "class_id must be >= 1" in err

    @pytest.mark.parametrize("argv", [
        ["compare"], ["evaluate", "--protocol", "raw-hungarian"], ["match"],
    ])
    def test_coordinate_bound(self, tmp_path, capsys, argv):
        gt, pred = tmp_path / "gt.csv", tmp_path / "pred.csv"
        command, *options = argv

        def check(gt_rows, pred_rows):
            gt.write_text("image_id,x,y,class_id\n" + gt_rows)
            pred.write_text("image_id,x,y,class_id,confidence\n" + pred_rows)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return run(capsys, command, str(gt), str(pred), *options, "--format", "json")

        # 30 pairs at the bound, 2e100 apart: distances, costs and the
        # regression loss's sum of squares stay finite
        code, out, err = check("".join(f"im,1e100,{i},1\n" for i in range(30)),
                               "".join(f"im,-1e100,{i},1,0.9\n" for i in range(30)))
        assert (code, err) == (0, "")
        strict_loads(out)
        # beyond it, distances overflow: a fault of the file, on either side
        message = "line 2: coordinates must be finite and at most 1e+100 in absolute value"
        for gt_x in ("1e308", "0"):
            code, out, err = check(f"im,{gt_x},0,1\n", "im,-1e308,0,1,0.9\n")
            assert (code, out) == (2, "") and message in err

    @pytest.mark.parametrize("name, content", [
        ("bad.csv", b"image_id,x,y,class_id\n\xe9,1,2,1\n"),
        ("bom.csv", b"\xef\xbb\xbfimage_id,x,y,class_id\n\xe9,1,2,1\n"),
        # past the first buffer of the streaming decoder
        ("long.csv", b"image_id,x,y,class_id\n" + b"im,1,2,1\n" * 2000 + b"\xe9,1,2,1\n"),
        ("bad.json", b'[{"image_id": "\xe9", "x": 1, "y": 2, "class_id": 1}]'),
    ], ids=["csv", "csv-bom", "csv-long", "json"])
    def test_non_utf8_file_exits_2(self, tmp_path, figure3_files, capsys, name, content):
        bad = tmp_path / name
        bad.write_bytes(content)
        code, out, err = run(capsys, "evaluate", figure3_files[0], str(bad))
        assert code == 2 and out == ""
        assert f"byte offset {content.index(0xE9)}: byte 0xe9 is not valid UTF-8" in err

    def test_missing_file_exits_2(self, figure3_files, capsys):
        code, _, _ = run(capsys, "evaluate", "/nonexistent.csv", figure3_files[1])
        assert code == 2

    def test_unknown_class_in_input_exits_2(self, figure3_files, capsys):
        gt, pred = figure3_files
        code, _, err = run(capsys, "evaluate", gt, pred, "--class-ids", "2,3")
        assert code == 2
        assert "unknown class_id" in err

    def test_report_payload_stable(self, figure3_files, tmp_path, capsys):
        gt, pred = figure3_files
        outputs = []
        for name in ("r1.json", "r2.json"):
            path = str(tmp_path / name)
            code, _, _ = run(capsys, "evaluate", gt, pred, "--format", "json",
                             "--output", path)
            assert code == 0
            payload = strict_loads(open(path).read())
            payload["manifest"].pop("timestamp")
            outputs.append(json.dumps(payload, sort_keys=True))
        assert outputs[0] == outputs[1]

    def test_class_names_in_table(self, figure3_files, capsys):
        gt, pred = figure3_files
        code, out, _ = run(capsys, "evaluate", gt, pred, "--classes", "pos")
        assert code == 0
        assert "pos" in out


class TestCompare:
    def test_figure3_delta_row(self, figure3_files, capsys):
        gt, pred = figure3_files
        code, out, _ = run(capsys, "compare", gt, pred, "--radius", "6",
                           "--format", "json")
        assert code == 0
        payload = strict_loads(out)
        rows = {r["protocol"]: r for r in payload["protocols"]}
        assert rows["matched"]["macro_f1"] == 0.5
        assert rows["raw_hungarian"]["macro_delta_pct"] == -100.0
        assert rows["greedy"]["macro_delta_pct"] == 0.0

    def test_perfect_predictions_identical_rows(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text("image_id,x,y,class_id\nim,5,5,1\nim,40,40,1\n")
        code, out, _ = run(capsys, "compare", str(gt), str(gt), "--format", "json")
        assert code == 0
        payload = strict_loads(out)
        assert all(r["macro_f1"] == 1.0 for r in payload["protocols"])

    def test_synthetic_dataset_ordering(self, tmp_path, capsys):
        gt = str(tmp_path / "gt.csv")
        pred = str(tmp_path / "pred.csv")
        run(capsys, "synth", "--seed", "3", "--density", "40", "--jitter", "2",
            "--drop", "0.1", "--spurious", "3", "--gt-out", gt, "--pred-out", pred)
        code, out, _ = run(capsys, "compare", gt, pred, "--format", "json")
        assert code == 0
        rows = {r["protocol"]: r for r in strict_loads(out)["protocols"]}
        assert rows["raw_hungarian"]["macro_delta_pct"] <= 0.0
        assert rows["greedy"]["macro_delta_pct"] >= 0.0


    @pytest.mark.parametrize("aggregate", ["dataset-counts", "per-image-mean"])
    def test_no_pair_within_radius_gives_zero_deltas(self, tmp_path, capsys, aggregate):
        # raw Hungarian pairs class 1 at distance 7, outside the radius: with
        # a matched F1 of 0 every protocol scores 0, and every delta is 0
        gt, pred = tmp_path / "gt.csv", tmp_path / "pred.csv"
        gt.write_text("image_id,x,y,class_id\nim,0,0,1\nim,0,0,2\n")
        pred.write_text("image_id,x,y,class_id,confidence\nim,7,0,1,0.9\nim,50,50,2,0.9\n")
        code, out, err = run(capsys, "compare", str(gt), str(pred), "--aggregate", aggregate,
                             "--format", "json")
        assert (code, err) == (0, "")
        rows = strict_loads(out)["protocols"]
        assert [r["macro_f1"] for r in rows] == [r["macro_delta_pct"] for r in rows] == [0.0] * 3
        assert [(pc["f1"], pc["delta_pct"]) for r in rows for pc in r["per_class"]] == [
            (0.0, 0.0)
        ] * 6


def _empty_point_files(tmp_path, ext):
    """A ground-truth and a prediction file that hold no record."""
    gt, pred = tmp_path / f"gt.{ext}", tmp_path / f"pred.{ext}"
    if ext == "csv":
        gt.write_text("image_id,x,y,class_id\n")
        pred.write_text("image_id,x,y,class_id,confidence\n")
    else:
        gt.write_text("[]\n")
        pred.write_text("[]\n")
    return str(gt), str(pred)


@pytest.mark.parametrize("aggregate", ["dataset-counts", "per-image-mean"])
@pytest.mark.parametrize("ext", ["csv", "json"])
def test_evaluate_without_images_reports_integer_counts(tmp_path, capsys, ext, aggregate):
    gt, pred = _empty_point_files(tmp_path, ext)
    argv = ["evaluate", gt, pred, "--aggregate", aggregate]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    payload = strict_loads(out)
    assert payload["images"] == 0
    assert payload["per_class"] == [
        {"class": "1", "class_id": 1, "tp": 0, "fp": 0, "fn": 0, "f1": 0.0}
    ]
    assert all(type(payload["per_class"][0][k]) is int for k in ("tp", "fp", "fn"))
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[:3] == ["class_id,class,tp,fp,fn,f1", "1,1,0,0,0,0.0000",
                                    "macro,,,,,0.0000"]


@pytest.mark.parametrize("aggregate", ["dataset-counts", "per-image-mean"])
@pytest.mark.parametrize("ext", ["csv", "json"])
def test_compare_without_images_scores_zero(tmp_path, capsys, ext, aggregate):
    gt, pred = _empty_point_files(tmp_path, ext)
    argv = ["compare", gt, pred, "--aggregate", aggregate]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    rows = strict_loads(out)["protocols"]
    assert [r["protocol"] for r in rows] == ["matched", "raw_hungarian", "greedy"]
    assert all(r["per_class"] == [{"class": "1", "class_id": 1, "f1": 0.0, "delta_pct": 0.0}]
               and r["macro_f1"] == r["macro_delta_pct"] == 0.0 for r in rows)
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[:7] == ["protocol,class,f1,delta_pct"] + [
        f"{p},{c},0.0000,0.0000" for p in ("matched", "raw_hungarian", "greedy")
        for c in ("1", "macro")
    ]


class TestMatch:
    def test_each_warning_printed_once(self, figure3_files):
        # match_hybrid warns in cmd_match and again inside combined_loss
        gt, pred = figure3_files
        code, out, err = run_fresh("match", gt, pred, "--beta", "2")
        assert code == 0
        strict_loads(out)
        assert err == ("warning: image figure3: replicated targets (2x2) exceed proposals (2); "
                       "all proposals will be matched\n")

    def test_refused_run_prints_only_its_error(self, tmp_path, figure3_files):
        # tau * distance overflows, and numpy warns before the matrix is refused
        gt, pred = figure3_files
        assert run_fresh("match", gt, pred, "--tau", "1e308") == (
            3, "", "error: image figure3: cost matrix entries must be finite\n"
        )
        # image a warns, then image b is refused
        gt, pred = tmp_path / "gt.csv", tmp_path / "pred.csv"
        gt.write_text("image_id,x,y,class_id\na,0,0,1\nb,0,0,1\nb,5,5,1\n")
        pred.write_text("image_id,x,y,class_id,confidence\na,1,0,1,0.9\nb,1,0,1,0.9\n")
        assert run_fresh("match", str(gt), str(pred), "--beta", "2") == (
            3, "", "error: image b: insufficient proposals: 2 ground truths but only 1 proposals\n"
        )

    def test_beta_controls_one_to_many_pairs(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text("image_id,x,y,class_id\nim,10,10,1\n")
        pred = tmp_path / "pred.csv"
        pred.write_text(
            "image_id,x,y,class_id,confidence\n"
            "im,11,10,1,0.9\nim,10,12,1,0.8\nim,30,30,1,0.1\n"
        )
        code, out, _ = run(capsys, "match", str(gt), str(pred), "--beta", "1")
        assert code == 0
        assert len(strict_loads(out)["images"][0]["one_to_many"]["pairs"]) == 1
        code, out, _ = run(capsys, "match", str(gt), str(pred), "--beta", "2")
        assert code == 0
        assert len(strict_loads(out)["images"][0]["one_to_many"]["pairs"]) == 2

    @pytest.mark.parametrize("beta", [1, 4])
    def test_dumped_costs_are_tau_times_dumped_distances_minus_conf(self, tmp_path, capsys,
                                                                     beta):
        # a distance computed apart from the cost's, as math.hypot, can differ in its last bit
        rng = random.Random(5)
        gts, preds = [], []
        for image in ("b", "a", "c"):
            for cls in [1, 2, 3] + [rng.randint(1, 3) for _ in range(5)]:
                x, y = rng.uniform(0, 200), rng.uniform(0, 200)
                gts.append(PointRecord(image, x, y, cls))
                for _ in range(5):
                    raw = [rng.random() for _ in range(4)]
                    vector = tuple(v / sum(raw) for v in raw)
                    preds.append(PointRecord(image, x + rng.gauss(0, 3), y + rng.gauss(0, 3),
                                             rng.randint(1, 3), confidences=vector))
        gt, pred = str(tmp_path / "gt.csv"), str(tmp_path / "pred.csv")
        write_point_file(gt, gts)
        write_point_file(pred, preds)
        code, out, err = run(capsys, "match", gt, pred, "--beta", str(beta))
        assert (code, err) == (0, "")
        checked = 0
        for image in strict_loads(out)["images"]:
            image_gts = [r for r in gts if r.image_id == image["image_id"]]
            image_preds = [r for r in preds if r.image_id == image["image_id"]]
            for section in ("one_to_one", "one_to_many"):
                for p in image[section]["pairs"]:
                    conf = image_preds[p["pred_index"]].confidences
                    expected = 0.05 * p["distance"] - conf[image_gts[p["gt_index"]].class_id]
                    assert p["cost"] == expected, p
                    checked += 1
        assert checked == 3 * 8 * (1 + beta)

    def test_beta_beyond_numpy_integers(self, golden_inputs, capsys):
        # a ground truth cannot take more than the file's five proposals
        gt, pred = str(golden_inputs / "fig_gt.csv"), str(golden_inputs / "match_pred.csv")
        reports = []
        for beta in ("5", "99999999999999999999"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code, out, err = run(capsys, "match", gt, pred, "--beta", beta)
            assert code == 0, err
            reports.append(strict_loads(out)["images"])
        assert reports[0] == reports[1]

    def test_defaults_echoed_in_manifest(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text("image_id,x,y,class_id\nim,10,10,1\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("image_id,x,y,class_id,confidence\nim,11,10,1,0.9\n")
        code, out, _ = run(capsys, "match", str(gt), str(pred))
        assert code == 0
        config = strict_loads(out)["manifest"]["config"]
        assert config == {
            "tau": 0.05, "beta": 1, "lambda_bg": 0.5, "lambda_fg": 10.0,
            "lambda_reg": 2e-3, "lambda_one2many": 0.5,
        }

    def test_confidence_width_ignores_largest_class_id(self, tmp_path, capsys, monkeypatch):
        widths = record_match_classes(monkeypatch)
        reports = []
        for big in (2, 10**12):
            gt = tmp_path / f"gt{big}.csv"
            gt.write_text(f"image_id,x,y,class_id\nim,10,10,{big}\nim,30,30,1\n")
            pred = tmp_path / f"pred{big}.csv"
            pred.write_text(
                "image_id,x,y,class_id,confidence\n"
                f"im,11,10,{big},0.9\nim,29,30,1,0.8\nim,50,50,{big},0.3\nim,9,9,1,0.2\n"
            )
            code, out, _ = run(capsys, "match", str(gt), str(pred), "--beta", "2",
                               "--format", "table")
            assert code == 0
            reports.append([line for line in out.splitlines() if not line.startswith("#")])
        assert widths == [2, 2]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("header", ["confidence", "conf_bg,conf_1"])
    def test_header_only_files_give_empty_report(self, tmp_path, capsys, header):
        gt = tmp_path / "gt.csv"
        gt.write_text("image_id,x,y,class_id\n")
        pred = tmp_path / "pred.csv"
        pred.write_text(f"image_id,x,y,class_id,{header}\n")
        code, out, _ = run(capsys, "match", str(gt), str(pred))
        assert code == 0
        assert strict_loads(out)["images"] == []

    def test_more_gts_than_preds_exits_3(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text("image_id,x,y,class_id\nim,10,10,1\nim,20,20,1\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("image_id,x,y,class_id,confidence\nim,11,10,1,0.9\n")
        code, out, err = run(capsys, "match", str(gt), str(pred))
        assert (code, out) == (3, "")
        assert err == ("error: image im: insufficient proposals: "
                       "2 ground truths but only 1 proposals\n")

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_non_finite_loss_exits_3(self, tmp_path, capsys, fmt):
        # reg_1v1 is 1e200, and lambda_reg times it overflows the combined loss
        gt, pred = tmp_path / "gt.csv", tmp_path / "pred.csv"
        gt.write_text("image_id,x,y,class_id\nim,0,0,1\n")
        pred.write_text("image_id,x,y,class_id,conf_bg,conf_1\n"
                        "im,1e100,0,1,0.5,0.5\nim,5,5,1,0.9,0.1\n")
        argv = ["match", str(gt), str(pred), "--tau", "1e-120", "--format", fmt]
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, *argv, "--lambda-reg", "1e200") == (
            3, "", "error: image im: the combined loss is inf, not finite\n"
        )

    def test_oversized_replicated_matrix_exits_3(self, tmp_path, capsys, monkeypatch):
        # 1 ground truth x beta 3 x 3 proposals = 9 replicated costs
        gt, pred = tmp_path / "gt.csv", tmp_path / "pred.csv"
        gt.write_text("image_id,x,y,class_id\nim,0,0,1\n")
        pred.write_text("image_id,x,y,class_id,confidence\nim,1,0,1,0.9\nim,2,0,1,0.8\n"
                        "im,3,0,1,0.7\n")
        argv = ["match", str(gt), str(pred), "--beta", "1000000"]
        monkeypatch.setattr(matching, "CELL_DISTANCES", 9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(capsys, *argv)[0] == 0

        def never(*_):
            raise AssertionError("a cost matrix was built or solved")

        monkeypatch.setattr(matching, "CELL_DISTANCES", 8)
        monkeypatch.setattr(matching, "build_cost_matrix", never)
        monkeypatch.setattr(matching, "solve_min_cost", never)
        assert run(capsys, *argv) == (
            3, "", "error: image im: 1 ground truths x beta 3 x 3 proposals: 9 replicated "
            "costs exceed the limit of one matrix (8)\n"
        )

    @pytest.mark.parametrize("confidences", [["0.1", "0.9"], [False, True], "0.1", False])
    def test_non_numeric_json_confidences_exit_2(self, tmp_path, capsys, confidences):
        gt = tmp_path / "gt.csv"
        gt.write_text("image_id,x,y,class_id\nim,10,10,1\n")
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(
            [{"image_id": "im", "x": 11, "y": 10, "class_id": 1, "confidences": confidences}]
        ))
        code, out, err = run(capsys, "match", str(gt), str(pred))
        assert code == 2
        assert out == "" and "confidences must be an array of numbers" in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("x", "11", "x must be a JSON number"),
            ("y", True, "y must be a JSON number"),
            ("confidence", "0.9", "confidence must be a JSON number"),
            ("confidence", True, "confidence must be a JSON number"),
            ("class_id", True, "class_id must be a JSON integer"),
            ("class_id", "1", "class_id must be a JSON integer"),
            ("class_id", 1.0, "class_id must be a JSON integer"),
            ("image_id", 5, "image_id must be a JSON string"),
            ("image_id", True, "image_id must be a JSON string"),
        ],
    )
    def test_non_numeric_json_scalars_exit_2(self, tmp_path, capsys, field, value, message):
        gt = tmp_path / "gt.csv"
        gt.write_text("image_id,x,y,class_id\nim,10,10,1\n")
        record = {"image_id": "im", "x": 11, "y": 10, "class_id": 1, "confidence": 0.9}
        record[field] = value
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps([record]))
        code, out, err = run(capsys, "match", str(gt), str(pred))
        assert code == 2
        assert out == "" and message in err

    @pytest.mark.parametrize("gt_rows, pred_rows, message", [
        # a ground truth of class 2 against one-class vectors
        ("a,0,0,2\n", "conf_bg,conf_1\na,1,0,1,0.2,0.8\n",
         "image a: ground-truth class 2 is outside the prediction vectors' classes 1..1"),
        # a vector-less prediction of class 3 beside two-class vectors
        ("a,0,0,1\nb,0,0,1\n", "conf_bg,conf_1,conf_2\na,1,0,1,0.2,0.7,0.1\nb,1,0,3,,,\n",
         "image b: prediction class 3 is outside the prediction vectors' classes 1..2"),
    ], ids=["ground-truth", "prediction"])
    def test_class_outside_prediction_vectors_names_its_record(
            self, tmp_path, capsys, gt_rows, pred_rows, message):
        gt, pred = tmp_path / "gt.csv", tmp_path / "pred.csv"
        gt.write_text("image_id,x,y,class_id\n" + gt_rows)
        pred.write_text("image_id,x,y,class_id," + pred_rows)
        assert run(capsys, "match", str(gt), str(pred)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["evaluate", "compare", "match"])
def test_nul_in_csv_exits_2(tmp_path, capsys, command):
    # Python 3.10's csv refuses a NUL and 3.11's reads it; the tool refuses it on both
    gt, pred = tmp_path / "gt.csv", tmp_path / "pred.csv"
    gt.write_text("image_id,x,y,class_id\na\0b,0,0,1\n")
    pred.write_text("image_id,x,y,class_id,confidence\na,1,0,1,0.9\n")
    assert run(capsys, command, str(gt), str(pred)) == (
        2, "", "error: line 2: line contains NUL\n"
    )


# Golden outputs: the exact bytes of every report format, with the run's
# timestamp and temporary directory replaced by placeholders.
GOLDEN = Path(__file__).parent / "golden"
TIMESTAMP = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00")

# two images, three classes, single confidences (one record without); image
# b repeats the figure-3 geometry, and image a has a duplicate detection
HAND_GT = """image_id,x,y,class_id
a,10,10,1
a,20,10,2
a,40,40,3
a,60,60,1
b,5,5,2
b,50,50,3
b,80,50,3
"""
HAND_PRED = """image_id,x,y,class_id,confidence
a,11,10,1,0.9
a,9,11,1,0.5
a,21,12,2,0.8
a,44,40,3,0.6
a,30,30,1,0.4
a,58,61,2,0.7
b,6,5,2,0.95
b,53,50,3,0.3
b,42,50,3,
b,120,120,1,0.2
"""
# training proposals for the figure-3 ground truths, with class vectors
MATCH_PRED = """image_id,x,y,class_id,conf_bg,conf_1,conf_2
figure3,3,0,1,0.2,0.7,0.1
figure3,-8,0,1,0.5,0.4,0.1
figure3,28,1,2,0.3,0.3,0.4
figure3,31,-2,1,0.1,0.8,0.1
figure3,100,100,2,0.6,0.1,0.3
"""

EVAL_INPUTS = {
    "figure3": ["fig_gt.csv", "fig_pred.csv", "--radius", "6"],
    "hand": ["hand_gt.csv", "hand_pred.csv", "--classes", "epi,lym,mac",
             "--aggregate", "per-image-mean"],
}
GOLDEN_CASES = {
    **{
        f"evaluate-{name}-{protocol}.{fmt}": ["evaluate", *inputs, "--protocol", protocol,
                                              "--format", fmt]
        for name, inputs in EVAL_INPUTS.items()
        for protocol in ("matched", "raw-hungarian", "greedy")
        for fmt in ("table", "csv", "json")
    },
    **{
        f"compare-{name}.{fmt}": ["compare", *inputs, "--format", fmt]
        for name, inputs in EVAL_INPUTS.items()
        for fmt in ("table", "csv", "json")
    },
    **{
        f"match-beta{beta}.{fmt}": ["match", "fig_gt.csv", "match_pred.csv", "--beta", str(beta),
                                    "--format", fmt]
        for beta in (1, 2)
        for fmt in ("table", "json")
    },
    # match on a file with one ``confidence`` column (no conf_* vector)
    **{
        f"match-figure3.{fmt}": ["match", "fig_gt.csv", "fig_pred.csv", "--beta", "1",
                                 "--format", fmt]
        for fmt in ("table", "json")
    },
}


@pytest.fixture
def golden_inputs(tmp_path):
    assert main(["synth", "--fixture", "figure3", "--gt-out", str(tmp_path / "fig_gt.csv"),
                 "--pred-out", str(tmp_path / "fig_pred.csv")]) == 0
    for name, text in [("hand_gt.csv", HAND_GT), ("hand_pred.csv", HAND_PRED),
                       ("match_pred.csv", MATCH_PRED)]:
        (tmp_path / name).write_text(text)
    return tmp_path


def golden_run(capsys, tmp_path, argv, output=None):
    """The report of ``argv`` (file names resolved in ``tmp_path``) with
    placeholders for the timestamp and ``tmp_path``."""
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
    code, out, err = run(capsys, *argv, *(["--output", output] if output else []))
    assert code == 0, err
    if output:
        assert out == ""
        out = Path(output).read_text(encoding="utf-8")
    return TIMESTAMP.sub("<TIMESTAMP>", out.replace(str(tmp_path), "<TMP>"))


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(golden_inputs, capsys, name):
    argv = GOLDEN_CASES[name]
    out = golden_run(capsys, golden_inputs, argv)
    assert out == (GOLDEN / name).read_text(encoding="utf-8")
    if name.endswith(".json"):
        strict_loads(out)
    assert golden_run(capsys, golden_inputs, argv, str(golden_inputs / "report.out")) == out


@pytest.mark.parametrize("command", ["evaluate", "compare", "match"])
def test_inputs_read_once_and_digested(golden_inputs, capsys, monkeypatch, command):
    gt = str(golden_inputs / "fig_gt.csv")
    pred = str(golden_inputs / ("match_pred.csv" if command == "match" else "fig_pred.csv"))
    opened = []
    builtin_open = open

    def recording_open(file, *args, **kwargs):
        opened.append(file)
        return builtin_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", recording_open)
    code, out, err = run(capsys, command, gt, pred, "--format", "json")
    monkeypatch.undo()
    assert code == 0, err
    assert (opened.count(gt), opened.count(pred)) == (1, 1)
    assert strict_loads(out)["manifest"]["input_digests"] == {
        path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in (gt, pred)
    }


# inputs that once ended in a traceback, or in a usage dump and exit 2: each
# is refused with one error line (an exception or a SystemExit that escaped
# main would fail the test)
@pytest.mark.parametrize("argv, code, message", [
    (["evaluate", "{tmp}", "{tmp}"], 2, "Is a directory"),
    (["compare", "{tmp}/fig_gt.csv/x.csv", "{tmp}/fig_pred.csv"], 2, "Not a directory"),
    (["evaluate", "{tmp}/fig_gt.csv", "{tmp}/deep.json"], 2, "invalid JSON"),
    (["match", "{tmp}/fig_gt.csv", "{tmp}/digits.json"], 2, "invalid JSON"),
    (["evaluate", "{tmp}/multiline.csv", "{tmp}/fig_pred.csv"], 2,
     "line 4: class_id must be >= 1"),
    (["synth", "--jitter", "1e300"], 3, "(--extent, --jitter)"),
    (["synth", "--extent", "1e100", "1e100", "--jitter", "1e99"], 3, "(--extent, --jitter)"),
    # an out-of-memory traceback, a spurious-point loop without end, and a
    # class-id tuple too large to build
    (["synth", "--density", "1e15"], 3, "(--density, --spurious)"),
    (["synth", "--spurious", "1e15"], 3, "(--density, --spurious)"),
    (["synth", "--num-classes", str(10**12)], 3, "--num-classes must be at most"),
    # numpy's OverflowError, and a negative seed wrapped around to 2**64 - 1
    (["synth", "--seed", str(2**64)], 3, "seed must be in [0, 2**64) (--seed)"),
    (["synth", "--seed", str(2**70)], 3, "seed must be in [0, 2**64) (--seed)"),
    (["synth", "--seed", "-1"], 3, "seed must be in [0, 2**64) (--seed)"),
    # option faults that argparse finds
    (["evaluate", "{tmp}/fig_gt.csv", "{tmp}/fig_pred.csv", "--format", "xml"], 3,
     "error: argument --format: invalid choice: 'xml'"),
    (["evaluate", "{tmp}/fig_gt.csv", "{tmp}/fig_pred.csv", "--radius", "abc"], 3,
     "error: argument --radius: invalid float value: 'abc'"),
    (["match", "{tmp}/fig_gt.csv", "{tmp}/match_pred.csv", "--beta", "1.5"], 3,
     "error: argument --beta: invalid int value: '1.5'"),
    (["evaluate", "{tmp}/fig_gt.csv", "{tmp}/fig_pred.csv", "--protocol", "foo"], 3,
     "error: argument --protocol: invalid choice: 'foo'"),
    (["compare", "{tmp}/fig_gt.csv", "{tmp}/fig_pred.csv", "--aggregate", "foo"], 3,
     "error: argument --aggregate: invalid choice: 'foo'"),
    (["synth", "--fixture", "nope"], 3, "error: argument --fixture: invalid choice: 'nope'"),
    (["compare", "{tmp}/fig_gt.csv", "{tmp}/fig_pred.csv", "--foo"], 3,
     "error: unrecognized arguments: --foo"),
    (["evaluate", "{tmp}/fig_gt.csv"], 3, "error: the following arguments are required: pred"),
], ids=["directory", "not-a-directory", "nested-json", "long-integer-json", "multiline-csv",
        "synth-jitter", "synth-extent-jitter", "synth-density", "synth-spurious",
        "synth-num-classes", "synth-seed-2**64", "synth-seed-2**70", "synth-seed-negative",
        "option-format", "option-radius", "option-beta", "option-protocol", "option-aggregate",
        "option-fixture", "option-unknown", "option-missing-positional"])
def test_refused_without_traceback(golden_inputs, capsys, argv, code, message):
    (golden_inputs / "deep.json").write_text("[" * 200_000)
    (golden_inputs / "digits.json").write_text(
        '[{"image_id": "a", "x": ' + "1" * 5000 + ', "y": 1, "class_id": 1}]')
    (golden_inputs / "multiline.csv").write_text(
        'image_id,x,y,class_id\n"a\nb",1,2,1\nc,1,2,0\n')
    argv = [a.format(tmp=golden_inputs) for a in argv]
    if argv[0] == "synth":
        argv += ["--gt-out", str(golden_inputs / "g.csv"),
                 "--pred-out", str(golden_inputs / "p.csv")]
    returned, out, err = run(capsys, *argv)
    assert (returned, out) == (code, "")
    assert err.count("error:") == 1 and err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and "usage:" not in err
    assert not (golden_inputs / "g.csv").exists()


@pytest.mark.parametrize("argv", [["--help"], ["evaluate", "--help"], ["synth", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: pointmatch")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "gt.csv").write_text(HAND_GT)
    (d / "pred.csv").write_text(HAND_PRED)
    write_point_file(str(d / "pred.json"), list(read_point_file(str(d / "pred.csv"))))
    return d


# an edit is (position, byte or None to delete, insert instead of replace);
# number bytes keep many mutants parseable, the others are not valid UTF-8
# or are CSV/JSON syntax
EDITS = st.lists(
    st.tuples(st.integers(0, 2**16),
              st.sampled_from(b"0159.e-") | st.sampled_from(b'\xe9\xff\x00\n",:[]{}') | st.none(),
              st.booleans()),
    min_size=1, max_size=2,
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(suffix=st.sampled_from([".csv", ".json"]), edits=EDITS)
def test_fuzzed_prediction_file(fuzz_dir, suffix, edits):
    data = bytearray((fuzz_dir / f"pred{suffix}").read_bytes())
    for position, byte, insert in edits:
        i = position % (len(data) + 1)
        if byte is None:
            del data[i:i + 1]
        else:
            data[i:i + (not insert)] = bytes([byte])
    pred = fuzz_dir / f"mutant{suffix}"
    pred.write_bytes(bytes(data))
    gt, out = str(fuzz_dir / "gt.csv"), str(fuzz_dir / "report")
    allowed = {"evaluate": {0, 2}, "compare": {0, 2}, "match": {0, 2, 3}}
    for command, codes in allowed.items():
        with contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([command, gt, str(pred), "--output", out])
        assert code in codes
        if code == 0 and command == "match":  # match writes JSON by default
            strict_loads(Path(out).read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", [
    ["compare"], ["evaluate", "--protocol", "matched"], ["evaluate", "--protocol", "raw-hungarian"],
])
def test_oversized_cell_refused_before_any_distance(tmp_path, capsys, monkeypatch, command):
    # image b's class-2 cell holds 2 x 3 = 6 distances, every other cell at
    # most 1; the limit is lowered so that nothing large is allocated
    gt, pred = tmp_path / "gt.csv", tmp_path / "pred.csv"
    gt.write_text("image_id,x,y,class_id\na,0,0,1\nb,0,0,2\nb,5,0,2\nb,9,9,1\n")
    pred.write_text("image_id,x,y,class_id\na,1,0,1\nb,1,0,2\nb,6,0,2\nb,7,7,2\n")
    argv = [*command, str(gt), str(pred), "--format", "json"]
    monkeypatch.setattr(evaluation, "CELL_DISTANCES", 6)
    assert run(capsys, *argv)[0] == 0

    def no_distances(*args):
        raise AssertionError("distance_matrix was called")

    monkeypatch.setattr(evaluation, "CELL_DISTANCES", 5)
    monkeypatch.setattr(evaluation, "distance_matrix", no_distances)
    assert run(capsys, *argv) == (
        3, "", "error: image b, class 2: 2 x 3 distances exceed the limit of one cell\n"
    )


@pytest.mark.parametrize("gt_rows, pred_header, pred_rows", [
    # a conf_* column that no record fills
    ("a,0,0,2\n", "conf_bg,conf_1", "a,1,0,1,,\n"),
    # three-class vectors of which class 2 never occurs, and a vector-less row
    ("a,0,0,1\na,9,0,3\n", "conf_bg,conf_1,conf_2,conf_3",
     "a,1,0,1,0.1,0.6,0.2,0.1\na,8,0,3,0.2,0.1,0.3,0.4\na,4,4,3,,,,\n"),
], ids=["unfilled-column", "unused-class"])
def test_match_csv_and_json_copy_agree(tmp_path, capsys, gt_rows, pred_header, pred_rows):
    gt, pred = tmp_path / "gt.csv", tmp_path / "pred.csv"
    gt.write_text("image_id,x,y,class_id\n" + gt_rows)
    pred.write_text(f"image_id,x,y,class_id,{pred_header}\n{pred_rows}")
    write_point_file(str(tmp_path / "pred.json"), list(read_point_file(str(pred))))
    results = []
    for path in (pred, tmp_path / "pred.json"):
        code, out, err = run(capsys, "match", str(gt), str(path), "--beta", "2")
        results.append((code, strict_loads(out)["images"] if code == 0 else err))
    assert results[0] == results[1] and results[0][0] == 0


def test_match_keeps_only_the_vector_columns_of_occurring_classes(tmp_path, capsys, monkeypatch):
    widths = record_match_classes(monkeypatch)
    gt = tmp_path / "gt.csv"
    reports = []
    # the same detections with a column for an unused class 2, and without it
    for name, header, rows, last in [
        ("four", "conf_bg,conf_1,conf_2,conf_3", ["0.1,0.6,0.2,0.1", "0.2,0.1,0.3,0.4"], 3),
        ("three", "conf_bg,conf_1,conf_2", ["0.1,0.6,0.1", "0.2,0.1,0.4"], 2),
    ]:
        gt.write_text(f"image_id,x,y,class_id\na,0,0,1\na,9,0,{last}\n")
        pred = tmp_path / f"{name}.csv"
        pred.write_text(f"image_id,x,y,class_id,{header}\n"
                        f"a,1,0,1,{rows[0]}\na,8,0,{last},{rows[1]}\na,4,4,{last}{',' * (last + 1)}\n")
        code, out, _ = run(capsys, "match", str(gt), str(pred), "--beta", "2")
        assert code == 0
        reports.append(strict_loads(out)["images"])
    assert widths == [2, 2]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("name, content, message", [
    ("pred.json", "[1]", "record 0: a record must be a JSON object"),
    ("pred.json", "{}", "JSON point file must be an array of records"),
    ("pred.csv", "", "line 1: missing header"),
    ("pred.csv", "\ufeff", "line 1: missing header"),
    ("pred.json", '[{"image_id": "a", "y": 1, "class_id": 1}]', "record 0: missing field 'x'"),
], ids=["json-non-object", "json-object", "csv-empty", "csv-bom-only", "json-missing-field"])
def test_malformed_file_exits_2_with_its_line(figure3_files, tmp_path, capsys,
                                              name, content, message):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    assert run(capsys, "evaluate", figure3_files[0], str(path)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("class_ids, message", [
    ("a", "bad --class-ids: invalid literal for int() with base 10: 'a'"),
    ("0", "class ids must be >= 1"),
])
def test_bad_class_ids_exit_3_with_their_line(figure3_files, capsys, class_ids, message):
    assert run(capsys, "evaluate", *figure3_files, "--class-ids", class_ids) == (
        3, "", f"error: {message}\n"
    )


@pytest.mark.parametrize("classes", [",lym,mac", "epi,,mac", "epi,", ""])
def test_empty_class_name_exits_3(tmp_path, capsys, classes):
    # classes 1 and 3 occur: a dropped empty name used to shift the names
    # after it to lower ids, or to leave class 3 unknown
    gt, pred = tmp_path / "gt.csv", tmp_path / "pred.csv"
    gt.write_text("image_id,x,y,class_id\na,0,0,1\na,9,0,3\n")
    pred.write_text("image_id,x,y,class_id\na,1,0,1\na,8,0,3\n")
    for command in ("evaluate", "compare"):
        assert run(capsys, command, str(gt), str(pred), "--classes", classes) == (
            3, "", f"error: --classes holds an empty name: {classes!r}\n"
        )


@pytest.mark.parametrize("route", ["class-name", "image-id"])
def test_unencodable_report_leaves_output_untouched(figure3_files, tmp_path, capsys, route):
    # argv decodes a byte that is not UTF-8 to a lone surrogate, and a JSON
    # file may escape one: a table or CSV report cannot encode it, a JSON
    # report escapes it
    if route == "class-name":
        argv, value = ["evaluate", *figure3_files, "--classes", "\udcff"], "\udcff"
        line, fmt = "1,\udcff,1,1,1,0.5000", "csv"
    else:
        gt, pred, value = tmp_path / "gt.json", tmp_path / "pred.json", "b\ud800"
        gt.write_text('[{"image_id": "b\\ud800", "x": 0, "y": 0, "class_id": 1}]')
        pred.write_text('[{"image_id": "b\\ud800", "x": 1, "y": 0, "class_id": 1, '
                        '"confidences": [0.1, 0.9]}]')
        argv, line, fmt = ["match", str(gt), str(pred)], "image b\ud800:", "table"
    output = tmp_path / "report.txt"
    output.write_bytes(b"an earlier report\n")
    assert run(capsys, *argv, "--format", fmt, "--output", str(output)) == (
        3, "", f"error: the report cannot be encoded as UTF-8: {line!r}\n"
    )
    assert output.read_bytes() == b"an earlier report\n"
    assert run(capsys, *argv, "--format", "json", "--output", str(output))[0] == 0
    assert json.dumps(value) in output.read_text(encoding="ascii")


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_stdout_gets_the_utf8_bytes_of_output_whatever_its_codec(figure3_files, tmp_path, fmt):
    src = os.path.dirname(os.path.dirname(pointmatch.__file__))
    argv = [sys.executable, "-m", "pointmatch.cli", "evaluate", *figure3_files,
            "--classes", "\xe9", "--format", fmt]
    env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "ascii"}
    output = tmp_path / "report.txt"
    reports = []
    for extra in ([], ["--output", str(output)]):
        proc = subprocess.run(argv + extra, capture_output=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        data = output.read_bytes() if extra else proc.stdout
        reports.append([line for line in data.splitlines() if b"timestamp" not in line])
    assert reports[0] == reports[1]
    # JSON escapes the name, table and CSV write its UTF-8 bytes
    name = json.dumps("\xe9")[1:-1] if fmt == "json" else "\xe9"
    assert name.encode("utf-8") in output.read_bytes()
