"""pointmatch benchmark entry point (see ``bench.py`` for what it measures).

Usage, from the repository root:

    python3 perfbench/run.py --workload protocol-compare --seed 1 --seconds 50 --trace 0

This file uses only the standard library: it starts the child launcher
(``launch.py``) before ``bench`` imports numpy and the program, so that
children report their own peak RSS rather than the benchmark's.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


class Launcher:
    """Runs commands one at a time in the ``launch.py`` process."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, cmd, env, stderr_path):
        """(wall s, exit code, cpu s, max RSS MB) of one completed child."""
        request = {"cmd": cmd, "env": env, "stderr": stderr_path}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("child launcher exited")
        return tuple(json.loads(reply))

    def close(self):
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        self._proc.stdout.close()


def _parse_args(argv):
    p = argparse.ArgumentParser(description="pointmatch benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pointmatch", "cli.py")):
        print(f"error: no pointmatch sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 0:
        print("error: --seed and --seconds must be >= 0", file=sys.stderr)
        return 2
    launcher = Launcher() if args.trace == 0 else None
    try:
        sys.path.insert(0, SRC)
        import bench

        return bench.main(args, argv, launcher)
    finally:
        if launcher is not None:
            launcher.close()


if __name__ == "__main__":
    sys.exit(main())
