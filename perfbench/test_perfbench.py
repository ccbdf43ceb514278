"""Tiny-size smoke test of the benchmark: every declared metric is emitted
with its unit and direction, and corrupted outputs are caught.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import bench
import oracle
import run
import workloads
from pointmatch import cli

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)

# Tiny versions of the workloads. train-match has three patches so that the
# per-patch span grouping and the oracle's loop over patches see more than one.
TINY = {
    "dataset-eval": dict(images=10),
    "protocol-compare": dict(images=3),
    "train-match": dict(images=3, extent=32.0, density=7.5),
    "dense-tile": dict(extent=288.0, density=240.0),
}


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS", {
        name: replace(w, **TINY[name]) for name, w in workloads.WORKLOADS.items()
    })


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-1])


def _assert_declared(result, declared):
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    by_name = {m["name"]: m for m in declared}
    assert set(result["metrics"]) == set(by_name)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == by_name[name]["unit"]
        assert by_name[name]["better"] in ("higher", "lower")
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_layer_metrics_emitted(capsys, workload):
    result = _run(capsys, workload, 1)
    _assert_declared(result, SPEC["per_layer"])
    if workload == "train-match":
        assert result["metrics"]["matching.solves_per_patch"]["value"] == 4
        assert result["metrics"]["matching.cost_builds_per_patch"]["value"] == 5


def test_end_to_end_metrics_emitted(capsys, monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    result = _run(capsys, "train-match", 0)
    _assert_declared(result, SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert result["metrics"]["ok_ratio"]["value"] == 1.0


def test_failed_check_counts_as_failure(capsys, monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    monkeypatch.setattr(oracle, "check", lambda report, exp: ["corrupted"])
    code = run.main(["--workload", "train-match", "--seed", "3", "--seconds", "0",
                     "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] == 0.0


def _report(tmp_path, workload):
    inputs = workloads.generate(workloads.WORKLOADS[workload], 5, str(tmp_path))
    out = str(tmp_path / "report.json")
    assert cli.main(inputs.cli_args(out)) == 0
    with open(out, encoding="utf-8") as f:
        report = json.load(f)
    exp = oracle.expected(inputs)
    assert oracle.check(report, exp) == []
    return report, exp


def test_corrupted_count_is_caught(tmp_path):
    report, exp = _report(tmp_path, "dataset-eval")
    report["per_class"][0]["tp"] += 1
    assert oracle.check(report, exp)


def test_corrupted_compare_f1_is_caught(tmp_path):
    report, exp = _report(tmp_path, "protocol-compare")
    report["protocols"][1]["per_class"][0]["f1"] += 1e-9
    assert oracle.check(report, exp)


def test_corrupted_compare_macro_delta_is_caught(tmp_path):
    report, exp = _report(tmp_path, "protocol-compare")
    report["protocols"][2]["macro_delta_pct"] += 1e-6
    assert oracle.check(report, exp)


def test_corrupted_pair_is_caught(tmp_path):
    report, exp = _report(tmp_path, "train-match")
    assert len(report["images"]) == 3
    pairs = report["images"][2]["one_to_one"]["pairs"]
    assert len(pairs) >= 2
    pairs[0]["pred_index"], pairs[1]["pred_index"] = pairs[1]["pred_index"], pairs[0]["pred_index"]
    assert oracle.check(report, exp)


def test_loss_outside_tolerance_is_caught(tmp_path):
    report, exp = _report(tmp_path, "train-match")
    report["images"][0]["losses"]["combined"] *= 1 + 1e-8
    assert oracle.check(report, exp)


def test_checkout_without_sources_fails(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-match", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
