import json

import pytest

from pointmatch.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        payload = json.loads(out)
        assert payload["macro_f1"] == 0.5

    def test_figure3_raw(self, figure3_files, capsys):
        gt, pred = figure3_files
        code, out, _ = run(capsys, "evaluate", gt, pred, "--radius", "6",
                           "--protocol", "raw-hungarian", "--format", "json")
        assert code == 0
        assert json.loads(out)["macro_f1"] == 0.0

    def test_unknown_protocol_exits_3(self, figure3_files, capsys):
        gt, pred = figure3_files
        code, _, err = run(capsys, "evaluate", gt, pred, "--protocol", "bogus")
        assert code == 3
        assert "protocol" in err

    def test_bad_radius_exits_3(self, figure3_files, capsys):
        gt, pred = figure3_files
        code, _, _ = run(capsys, "evaluate", gt, pred, "--radius", "-1")
        assert code == 3

    def test_parse_error_exits_2(self, tmp_path, figure3_files, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("image_id,x,y,class_id\nim,1,2,0\n")
        code, _, err = run(capsys, "evaluate", str(bad), figure3_files[1])
        assert code == 2
        assert "class_id must be >= 1" in err

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
            payload = json.loads(open(path).read())
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
        payload = json.loads(out)
        rows = {r["protocol"]: r for r in payload["protocols"]}
        assert rows["matched"]["macro_f1"] == 0.5
        assert rows["raw_hungarian"]["macro_delta_pct"] == -100.0
        assert rows["greedy"]["macro_delta_pct"] == 0.0

    def test_perfect_predictions_identical_rows(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text("image_id,x,y,class_id\nim,5,5,1\nim,40,40,1\n")
        code, out, _ = run(capsys, "compare", str(gt), str(gt), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(r["macro_f1"] == 1.0 for r in payload["protocols"])

    def test_synthetic_dataset_ordering(self, tmp_path, capsys):
        gt = str(tmp_path / "gt.csv")
        pred = str(tmp_path / "pred.csv")
        run(capsys, "synth", "--seed", "3", "--density", "40", "--jitter", "2",
            "--drop", "0.1", "--spurious", "3", "--gt-out", gt, "--pred-out", pred)
        code, out, _ = run(capsys, "compare", gt, pred, "--format", "json")
        assert code == 0
        rows = {r["protocol"]: r for r in json.loads(out)["protocols"]}
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
        assert len(json.loads(out)["images"][0]["one_to_many"]["pairs"]) == 1
        code, out, _ = run(capsys, "match", str(gt), str(pred), "--beta", "2")
        assert code == 0
        assert len(json.loads(out)["images"][0]["one_to_many"]["pairs"]) == 2

    def test_defaults_echoed_in_manifest(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text("image_id,x,y,class_id\nim,10,10,1\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("image_id,x,y,class_id,confidence\nim,11,10,1,0.9\n")
        code, out, _ = run(capsys, "match", str(gt), str(pred))
        assert code == 0
        config = json.loads(out)["manifest"]["config"]
        assert config == {
            "tau": 0.05, "beta": 1, "lambda_bg": 0.5, "lambda_fg": 10.0,
            "lambda_reg": 2e-3, "lambda_one2many": 0.5,
        }

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
