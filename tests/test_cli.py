import contextlib
import io
import json
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointmatch import pointfile
from pointmatch.cli import main
from pointmatch.pointfile import read_point_file, write_point_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_loads(text):
    """``json.loads`` that rejects the NaN, Infinity and -Infinity that
    ``json.dumps`` writes for non-finite floats (not JSON, RFC 8259)."""
    return json.loads(text, parse_constant=_reject_constant)


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
        assert code == 0, err
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


class TestMatch:
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
        widths = []
        group = pointfile.group_predicted
        monkeypatch.setattr(
            pointfile, "group_predicted",
            lambda table, num_classes: widths.append(num_classes) or group(table, num_classes),
        )
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
        code, _, _ = run(capsys, "match", str(gt), str(pred))
        assert code == 3

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
