"""The package's lazy exports, the modules each CLI command loads, and the
BLAS threads a CLI process starts."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import pointmatch
from pointmatch import evaluation, types

SRC = os.path.dirname(os.path.dirname(pointmatch.__file__))

# runs the CLI as ``python -m pointmatch.cli`` does, then prints the
# pointmatch modules the process loaded
LOADED = """
import json, runpy, sys
sys.argv = ["pointmatch", *sys.argv[1:]]
if len(sys.argv) > 1:
    try:
        runpy.run_module("pointmatch.cli", run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0, exc.code
else:
    import pointmatch
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "pointmatch")))
"""

# runs the CLI as LOADED does, after numpy, then prints the modules that
# importing and running pointmatch added to those numpy loaded
LOADED_AFTER_NUMPY = """
import json, runpy, sys
import numpy
before = set(sys.modules)
sys.argv = ["pointmatch", *sys.argv[1:]]
try:
    runpy.run_module("pointmatch.cli", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(json.dumps(sorted(set(sys.modules) - before)))
"""

# runs the CLI as LOADED does, then prints every module the process loaded
LOADED_ALL = LOADED.replace(' if m.split(".")[0] == "pointmatch"', "")

# imports pointmatch or runs the CLI as LOADED does, optionally after
# numpy, then prints OPENBLAS_NUM_THREADS and the process's thread count
# (null where /proc/self/task does not exist)
BLAS_STATE = """
import json, os, runpy, sys
how, sys.argv = sys.argv[1], ["pointmatch", *sys.argv[2:]]
if how == "numpy-first":
    import numpy
if how == "bare":
    import pointmatch
elif how == "main":
    try:
        runpy.run_module("pointmatch.cli", run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0, exc.code
else:
    import pointmatch.cli
tasks = "/proc/self/task"
threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""

# every command reads or writes point files; only match imports matching
CORE = ["pointmatch", "pointmatch.pointfile", "pointmatch.types"]


def loaded_modules(*argv, script=LOADED):
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def blas_state(how, *argv, **env):
    """(OPENBLAS_NUM_THREADS, thread count) of a fresh interpreter that ran
    BLAS_STATE, started without OPENBLAS_NUM_THREADS unless ``env`` sets it."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", BLAS_STATE, how, *argv], capture_output=True,
                          text=True, env={**base, "PYTHONPATH": SRC, **env}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture
def tiny_files(tmp_path):
    gt, pred = tmp_path / "gt.csv", tmp_path / "pred.csv"
    gt.write_text("image_id,x,y,class_id\na,0,0,1\n")
    pred.write_text("image_id,x,y,class_id,confidence\na,1,0,1,0.9\na,9,9,1,0.2\n")
    return str(gt), str(pred), str(tmp_path / "report")


@pytest.mark.parametrize("command, expected", [
    ("match", sorted([*CORE, "pointmatch.assignment", "pointmatch.matching"])),
    ("evaluate", sorted([*CORE, "pointmatch.assignment", "pointmatch.evaluation"])),
    ("compare", sorted([*CORE, "pointmatch.assignment", "pointmatch.evaluation"])),
])
def test_each_command_loads_only_its_modules(tiny_files, command, expected):
    gt, pred, out = tiny_files
    assert loaded_modules(command, gt, pred, "--output", out) == expected
    assert os.path.getsize(out) > 0


def test_synth_loads_no_evaluation(tmp_path):
    loaded = loaded_modules("synth", "--fixture", "figure3", "--gt-out", str(tmp_path / "g.csv"),
                            "--pred-out", str(tmp_path / "p.csv"))
    assert loaded == sorted([*CORE, "pointmatch.synth"])


@pytest.mark.parametrize("command", ["match", "evaluate", "compare", "synth"])
def test_no_command_loads_dataclasses(tiny_files, tmp_path, command):
    gt, pred, out = tiny_files
    argv = ([command, gt, pred, "--output", out] if command != "synth" else
            [command, "--gt-out", str(tmp_path / "g.csv"), "--pred-out", str(tmp_path / "p.csv")])
    loaded = loaded_modules(*argv, script=LOADED_AFTER_NUMPY)
    assert "pointmatch.types" in loaded
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("command", ["match", "evaluate", "compare"])
def test_no_command_loads_openssl_or_numpy_ma(tiny_files, command):
    # hashlib's _hashlib links OpenSSL's libcrypto, and numpy.ma takes
    # 9-15 ms to import; evaluate and compare take no matching defaults
    gt, pred, out = tiny_files
    loaded = set(loaded_modules(command, gt, pred, "--output", out, script=LOADED_ALL))
    assert {"pointmatch.pointfile", "numpy"} <= loaded
    assert not loaded & {"_hashlib", "hashlib", "numpy.ma"}
    assert ("pointmatch.matching" in loaded) == (command == "match")


def test_no_module_imports_dataclasses():
    for path in sorted(pathlib.Path(SRC).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            assert not any(n.split(".")[0] == "dataclasses" for n in names), \
                f"{path.name}:{node.lineno} imports dataclasses"


def test_bare_import_loads_no_submodule():
    assert loaded_modules() == ["pointmatch"]


def test_every_export_is_its_home_module_attribute():
    for name in pointmatch.__all__:
        home = importlib.import_module(f"pointmatch.{pointmatch._EXPORTS[name]}")
        assert getattr(pointmatch, name) is getattr(home, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from pointmatch import *", namespace)
    assert set(pointmatch.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(pointmatch, name) for name in pointmatch.__all__)


def test_enums_are_one_object_wherever_imported():
    assert pointmatch.Protocol is evaluation.Protocol is types.Protocol
    assert pointmatch.Aggregate is evaluation.Aggregate is types.Aggregate


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="solve_min_cost_batch"):
        pointmatch.solve_min_cost_batch  # noqa: B018
    assert not hasattr(pointmatch, "solve_min_cost_batch")


@pytest.mark.parametrize("how", ["import", "main"])
def test_cli_process_starts_no_blas_worker(tiny_files, how):
    gt, pred, out = tiny_files
    value, threads = blas_state(how, "match", gt, pred, "--output", out)
    assert value == "1"
    if threads is None:
        pytest.skip("no /proc/self/task to count the process's threads")
    assert threads == 1


@pytest.mark.parametrize("how", ["import", "main"])
def test_a_users_blas_thread_count_wins(tiny_files, how):
    gt, pred, out = tiny_files
    assert blas_state(how, "match", gt, pred, "--output", out,
                      OPENBLAS_NUM_THREADS="2")[0] == "2"


def test_cli_leaves_blas_alone_after_numpy():
    assert blas_state("numpy-first")[0] is None


def test_bare_import_leaves_blas_alone():
    assert blas_state("bare")[0] is None
