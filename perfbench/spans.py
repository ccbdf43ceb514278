"""Outside-in span tracing of an in-process ``cli.main`` call.

Wrappers are installed only on public names, at the module attribute where
the caller looks them up (``evaluation.solve_max_matching`` rather than
``assignment.solve_max_matching``, because ``evaluation`` binds the name at
import). Each span records its name, start, end and parent; spans below one
image or patch share a group id, taken from the identity of the ground-truth
list the call receives. Spans stay in memory until ``Tracer.dump``.

A public name that no longer exists is recorded in ``Tracer.absent`` and its
metrics read zero, so a refactor that renames a layer does not crash the
benchmark.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter

from pointmatch import cli, evaluation, matching, pointfile


class Span:
    __slots__ = ("name", "start", "end", "parent", "group")

    def __init__(self, name, parent, group):
        self.name = name
        self.parent = parent
        self.group = group
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_read(counts, args, result):
    counts["pointfile.read_rows"] += len(result)
    counts["pointfile.read_bytes"] += os.path.getsize(args[0])


def _count_group(counts, args, result):
    counts["pointfile.group_points"] += len(args[0])


def _count_image(counts, args, result):
    counts["evaluation.class_images"] += len(result)


def _count_min_cost(counts, args, result):
    counts["assignment.min_cost_cells"] += args[0].rows * args[0].cols


def _count_max_matching(counts, args, result):
    counts["assignment.max_matching_edges"] += int(args[0].values.sum())
    counts["assignment.max_matching_pairs"] += result.size


# (module, attribute, span name, index of the ground-truth argument that
# identifies the image or patch, counter)
WRAPPED = (
    (cli, "main", "cli.main", None, None),
    (pointfile, "read_point_file", "pointfile.read_point_file", None, _count_read),
    (pointfile, "group_labeled", "pointfile.group_labeled", None, _count_group),
    (pointfile, "group_predicted", "pointfile.group_predicted", None, _count_group),
    (pointfile, "file_digest", "pointfile.file_digest", None, None),
    (evaluation, "compare_protocols", "evaluation.compare_protocols", None, None),
    (evaluation, "evaluate_dataset", "evaluation.evaluate_dataset", None, None),
    (evaluation, "evaluate_image", "evaluation.evaluate_image", 0, _count_image),
    (evaluation, "solve_min_cost", "assignment.solve_min_cost", None, _count_min_cost),
    (evaluation, "solve_max_matching", "assignment.solve_max_matching", None, _count_max_matching),
    (matching, "build_cost_matrix", "matching.build_cost_matrix", 0, None),
    (matching, "match_one_to_one", "matching.match_one_to_one", 0, None),
    (matching, "match_hybrid", "matching.match_hybrid", 0, None),
    (matching, "combined_loss", "matching.combined_loss", 0, None),
    (matching, "classification_loss", "matching.classification_loss", 1, None),
    (matching, "regression_loss", "matching.regression_loss", 1, None),
    (matching, "solve_min_cost", "assignment.solve_min_cost", None, _count_min_cost),
)


class Tracer:
    """Installs span wrappers on ``WRAPPED`` and removes them on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._group_ids: dict[int, int] = {}
        self._group_refs: list = []  # keeps keyed objects alive so ids stay unique
        self._installed: list = []

    def __enter__(self):
        for module, attr, name, group_arg, counter in WRAPPED:
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module.__name__}.{attr}")
                continue
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, group_arg, counter))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()
        return False

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._group_ids.clear()
        self._group_refs.clear()

    def _group_of(self, obj) -> int:
        key = id(obj)
        if key not in self._group_ids:
            self._group_ids[key] = len(self._group_ids)
            self._group_refs.append(obj)
        return self._group_ids[key]

    def _wrap(self, original, name, group_arg, counter):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            group = spans[parent].group if parent >= 0 else None
            if group is None and group_arg is not None and len(args) > group_arg:
                group = self._group_of(args[group_arg])
            span = Span(name, parent, group)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    counter(self.counts, args, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    self.absent.append(f"{name} counter")
            return result

        return wrapper

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "absent": sorted(set(self.absent)),
                    "spans": [
                        {"name": s.name, "start": s.start, "end": s.end,
                         "parent": s.parent, "group": s.group}
                        for s in self.spans
                    ],
                },
                f,
            )


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)] if ordered else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer times and counts of one traced invocation.

    ``self`` time is a span's duration minus its direct children's.
    ``trace.coverage`` is the share of ``wall_s`` spent inside layer spans
    below ``cli.main``.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    total, self_time, durations = Counter(), Counter(), {}
    for i, s in enumerate(spans):
        total[s.name] += s.duration
        self_time[s.name] += s.duration - child_time[i]
        durations.setdefault(s.name, []).append(s.duration)

    def calls(name):
        return len(durations.get(name, ()))

    counts = tracer.counts
    min_cost = durations.get("assignment.solve_min_cost", [])
    images = durations.get("evaluation.evaluate_image", [])
    patches = {s.group for s in spans if s.name.startswith("matching.")} - {None}
    root_children = sum(s.duration for s in spans if s.parent >= 0 and spans[s.parent].parent < 0)
    cells = counts["assignment.min_cost_cells"]
    return {
        "pointfile.read_s": total["pointfile.read_point_file"],
        "pointfile.read_rows": counts["pointfile.read_rows"],
        "pointfile.read_bytes": counts["pointfile.read_bytes"],
        "pointfile.group_s": total["pointfile.group_labeled"] + total["pointfile.group_predicted"],
        "pointfile.group_points": counts["pointfile.group_points"],
        "pointfile.digest_s": total["pointfile.file_digest"],
        "evaluation.self_s": sum(
            self_time[n] for n in ("evaluation.compare_protocols", "evaluation.evaluate_dataset",
                                   "evaluation.evaluate_image")
        ),
        "evaluation.class_images": counts["evaluation.class_images"],
        "evaluation.image_ms_p50": 1e3 * (statistics.median(images) if images else 0.0),
        "evaluation.image_ms_p99": 1e3 * _nearest_rank(images, 99),
        "assignment.min_cost_s": total["assignment.solve_min_cost"],
        "assignment.min_cost_calls": len(min_cost),
        "assignment.min_cost_cells": cells,
        "assignment.min_cost_ns_per_cell": 1e9 * sum(min_cost) / cells if cells else 0.0,
        "assignment.min_cost_ms_p50": 1e3 * (statistics.median(min_cost) if min_cost else 0.0),
        "assignment.min_cost_ms_max": 1e3 * max(min_cost, default=0.0),
        "assignment.max_matching_s": total["assignment.solve_max_matching"],
        "assignment.max_matching_calls": calls("assignment.solve_max_matching"),
        "assignment.max_matching_edges": counts["assignment.max_matching_edges"],
        "assignment.max_matching_pairs": counts["assignment.max_matching_pairs"],
        "matching.cost_build_s": total["matching.build_cost_matrix"],
        "matching.cost_builds_per_patch": (
            calls("matching.build_cost_matrix") / len(patches) if patches else 0.0
        ),
        "matching.solves_per_patch": (
            sum(1 for s in spans if s.name == "assignment.solve_min_cost" and s.group in patches)
            / len(patches) if patches else 0.0
        ),
        "matching.loss_s": total["matching.classification_loss"] + total["matching.regression_loss"],
        "matching.self_s": sum(
            self_time[n] for n in ("matching.match_one_to_one", "matching.match_hybrid",
                                   "matching.combined_loss")
        ),
        "cli.self_s": self_time["cli.main"],
        "trace.coverage": root_children / wall_s if wall_s > 0 else 0.0,
    }
