"""What the benchmark measures; ``run.py`` is the entry point.

``--trace 0`` runs a closed loop with a single client: one
``python -m pointmatch.cli`` child at a time, with ``src`` on
``PYTHONPATH``, timed from spawn to exit and reaped with ``os.wait4`` (in
``launch.py``) for its CPU time and peak RSS. It reports the ``end_to_end``
metrics of BENCHMARK.json.

The time metrics (``setup_s``, ``points_per_s``, ``cpu_s``) are expressed at
a reference host speed. On shared 2-CPU hosts the speed of the same code
drifts by up to 2x over tens of seconds, which spreads raw medians by 25-40%
between runs. So a fixed probe child (``PROBE``) runs before the first
and after every timed child, set-up children included, and never while a
child does. Each child's wall time is scaled by ``CAL_REF_S`` over the median
wall time of the four probes nearest it (two before, two after), and its
CPU time by ``CAL_REF_CPU_S`` over their median CPU time; the metrics are
medians of the scaled times. Recomputed over 109 recorded runs of the four
workloads (with this probe and a numpy one), this scaling left a pooled
standard deviation of log run medians of 0.066, against 0.068 for the mean
of the two adjacent probes, 0.076 for the median of all probes of the run
and 0.132 for no scaling. The raw times and probe times are kept
in ``samples.json`` beside the result.

``--trace 1`` calls ``cli.main`` in process instead, alternating untraced
and traced calls (see ``spans.py``), and reports the ``per_layer`` metrics
as raw times and exact counts.

Inputs are generated from ``--seed`` (see ``workloads.py``); every output is
checked against an independent oracle (see ``oracle.py``) outside the timed
region. Times are medians over the invocations of one run; runs hold a few
to a few dozen invocations, too few for a tail percentile with ten samples
beyond it, so no tail is reported. The last line of stdout is the result
object; ``perfbench/out/<workload>-s<seed>-t<trace>/`` keeps the result
with the environment it was measured in, and the spans of the last traced
call.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import traceback

import numpy
import scipy

import oracle
import spans
import workloads
from pointmatch import cli

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 10
# probe wall and CPU times that normalised seconds are expressed at: roughly
# what ``PROBE`` takes on an idle 2-CPU Xeon host (its CPU time exceeds its
# wall time because numpy's import starts BLAS threads)
CAL_REF_S = 0.3
CAL_REF_CPU_S = 0.43


def _declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# A fixed host-speed probe: a fresh interpreter importing numpy and running
# a bytecode loop. It shares nothing with pointmatch, so no change to the
# program moves it. In-process probes were tried and did not follow the
# drift that child processes see. A loop of small-array numpy calls was
# tried too: its single times spread less, but in five runs of each of
# three workloads the normalised medians spread as much or more.
PROBE = [
    sys.executable, "-c", "import numpy\ntotal = 0\nfor i in range(1_500_000):\n    total += i * i"
]


class Probes:
    """Wall and CPU times of the probe, taken once when created and once
    after each timed call of a run, so that ``walls[i]`` and ``walls[i + 1]``
    are the probes just before and just after the i-th call."""

    def __init__(self, launcher, env, stderr_path):
        self._run = lambda: launcher.run(PROBE, env, stderr_path)
        self.walls, self.cpus = [], []
        self.tick()

    def tick(self):
        wall, _, cpu, _ = self._run()
        self.walls.append(wall)
        self.cpus.append(cpu)

    @staticmethod
    def _near(probe, i) -> float:
        """Median of the probe times nearest the i-th call: the two before
        it and the two after it."""
        return statistics.median(probe[max(0, i - 1):i + 3])

    def wall_at_ref(self, wall, i) -> float:
        """The i-th call's ``wall`` seconds at the reference probe wall time."""
        return wall * CAL_REF_S / self._near(self.walls, i)

    def cpu_at_ref(self, cpu, i) -> float:
        """The i-th call's ``cpu`` seconds at the reference probe CPU time."""
        return cpu * CAL_REF_CPU_S / self._near(self.cpus, i)


def measure_setup(env, launcher, stderr_path):
    """Wall times of fresh interpreters importing ``pointmatch.cli``, and
    the probes around them."""
    probes, walls = Probes(launcher, env, stderr_path), []
    for _ in range(SETUP_REPEATS):
        wall, code, _, _ = launcher.run(
            [sys.executable, "-c", "import pointmatch.cli"], env, stderr_path
        )
        probes.tick()
        if code != 0:
            raise RuntimeError(f"importing pointmatch.cli exited with {code}")
        walls.append(wall)
    return walls, probes


def repeat(seconds, step):
    """Call ``step`` once, then again while a call as long as the last one
    still ends within ``seconds`` of the start."""
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return


class Loop:
    """Invocation counts and first failures of one run."""

    def __init__(self, exp):
        self.exp = exp
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors += errors[:3]

    def check(self, code, out):
        """Count one invocation that exited with ``code`` and wrote ``out``."""
        if code != 0:
            self.record([f"exit code {code}"])
            return
        try:
            with open(out, encoding="utf-8") as f:
                report = json.load(f)
        except (OSError, ValueError) as exc:
            self.record([f"unreadable report: {exc}"])
            return
        self.record(oracle.check(report, self.exp))


def run_end_to_end(inputs, seconds, workdir, loop, launcher):
    env = _child_env()
    stderr_path = os.path.join(workdir, "stderr.txt")
    setup_walls, setup_probes = measure_setup(env, launcher, stderr_path)
    probes = Probes(launcher, env, stderr_path)
    out = os.path.join(workdir, "report.json")
    cmd = [sys.executable, "-m", "pointmatch.cli", *inputs.cli_args(out)]
    walls, cpus, rss = [], [], []

    def invoke():
        if os.path.exists(out):
            os.remove(out)
        wall, code, cpu, maxrss = launcher.run(cmd, env, stderr_path)
        probes.tick()
        walls.append(wall)
        cpus.append(cpu)
        rss.append(maxrss)
        loop.check(code, out)

    repeat(seconds, invoke)
    with open(os.path.join(workdir, "samples.json"), "w", encoding="utf-8") as f:
        json.dump({"wall_s": walls, "cpu_s": cpus, "max_rss_mb": rss,
                   "probe_wall_s": probes.walls, "probe_cpu_s": probes.cpus,
                   "setup_wall_s": setup_walls, "setup_probe_wall_s": setup_probes.walls,
                   "cal_ref_s": CAL_REF_S, "cal_ref_cpu_s": CAL_REF_CPU_S}, f)
    return cmd, {
        "setup_s": statistics.median(
            setup_probes.wall_at_ref(w, i) for i, w in enumerate(setup_walls)
        ),
        "points_per_s": inputs.rows / statistics.median(
            probes.wall_at_ref(w, i) for i, w in enumerate(walls)
        ),
        "cpu_s": statistics.median(probes.cpu_at_ref(c, i) for i, c in enumerate(cpus)),
        "peak_rss_mb": statistics.median(rss),
        "ok_ratio": (loop.attempted - loop.failed) / loop.attempted,
    }


def _call_main(argv, out, loop):
    """One in-process ``cli.main`` call; returns its wall time."""
    if os.path.exists(out):
        os.remove(out)
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # the loop must keep running; the failure is counted
        loop.record(["exception: " + traceback.format_exc(limit=3)])
        return time.perf_counter() - t0
    wall = time.perf_counter() - t0
    loop.check(code, out)
    return wall


def run_traced(inputs, seconds, workdir, loop):
    out = os.path.join(workdir, "report.json")
    argv = inputs.cli_args(out)
    plain, traced, layers = [], [], []
    tracer = spans.Tracer()

    def pair():
        plain.append(_call_main(argv, out, loop))
        tracer.reset()
        with tracer:
            traced.append(_call_main(argv, out, loop))
        layers.append(spans.layer_metrics(tracer, traced[-1]))

    # warm-up: first-call costs are not layer costs
    warm_s = _call_main(argv, out, loop)
    repeat(max(0.0, seconds - warm_s), pair)
    tracer.dump(os.path.join(workdir, "spans.json"))
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics.update(inputs.timings)
    exp = loop.exp
    metrics["evaluation.dense_cells"] = exp.dense_cells
    metrics["evaluation.radius_pairs"] = exp.radius_pairs
    metrics["cli.output_bytes"] = os.path.getsize(out) if os.path.exists(out) else 0
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    if tracer.absent:
        print("absent spans: " + ", ".join(sorted(set(tracer.absent))), file=sys.stderr)
    return ["pointmatch.cli.main", *argv], metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(argv, invocation) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "benchmark_argv": ["python3", "perfbench/run.py", *argv],
        "invocation": invocation,
        "child_env": {"PYTHONPATH": "src"},
    }


def main(args, argv, launcher) -> int:
    """Run one measurement; ``args`` and ``argv`` come from ``run.py``."""
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = _declared_metrics()[args.trace]
    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(HERE, "out", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    inputs = workloads.generate(workload, args.seed, workdir)
    loop = Loop(oracle.expected(inputs))
    if args.trace:
        invocation, metrics = run_traced(inputs, args.seconds, workdir, loop)
    else:
        invocation, metrics = run_end_to_end(inputs, args.seconds, workdir, loop, launcher)
    for path in (inputs.gt_path, inputs.pred_path):
        os.remove(path)

    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    if not all(math.isfinite(v) for v in metrics.values()):
        print(f"error: non-finite metric in {metrics}", file=sys.stderr)
        return 1
    for err in loop.errors:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    env = environment(argv, invocation)
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as f:
        json.dump({"environment": env, "result": result}, f, indent=2)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0
