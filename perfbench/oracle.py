"""Independent expected outputs for every workload, built with scipy and
numpy only (no pointmatch code), and the checks that compare a CLI report
against them.

- ``matched``: TP is a maximum bipartite matching on the same-class radius
  graph (``scipy.sparse.csgraph.maximum_bipartite_matching``).
- ``raw_hungarian``: ``linear_sum_assignment`` on raw distances, then the
  radius filter.
- ``greedy``: a direct numpy check of which points have a partner within
  the radius.
- ``match``: one-to-one and beta-replicated pair sets from
  ``linear_sum_assignment``, and a numpy recomputation of every pair's
  distance and cost and of every loss.

Ties between optimal assignments have probability zero on the generated
continuous coordinates, so optimal pair sets are unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from workloads import BETA, RADIUS, Inputs

PROTOCOLS = ("matched", "raw_hungarian", "greedy")
LOSS_RTOL = 1e-10
F1_RTOL = 1e-12
# matching defaults of the CLI: tau, background weight, foreground weight,
# regression weight, one-to-many branch weight
TAU, W_BG, W_FG, W_REG, W_1N = 0.05, 0.5, 10.0, 2e-3, 0.5
LOG_CLAMP = 1e-12


@dataclass
class Expected:
    """What a correct report contains, plus input-derived work counts."""

    command: str
    class_ids: tuple[int, ...] = ()
    images: int = 0
    counts: dict | None = None  # protocol -> class -> (tp, fp, fn)
    patches: list | None = None  # per patch: pairs 1:1 and 1:N, losses, distances, costs
    dense_cells: int = 0  # sum of n_gt * n_pred over (image, class)
    radius_pairs: int = 0  # same-class pairs within the radius


def _groups(arr):
    """Row indices per (image, class), in image order."""
    order = np.lexsort((arr.cls, arr.image))
    image, cls = arr.image[order], arr.cls[order]
    bounds = np.flatnonzero((np.diff(image) != 0) | (np.diff(cls) != 0)) + 1
    out = {}
    for chunk in np.split(order, bounds):
        if len(chunk):
            out[(int(arr.image[chunk[0]]), int(arr.cls[chunk[0]]))] = chunk
    return out


def _radius_graph(g: np.ndarray, p: np.ndarray) -> csr_matrix:
    pairs = cKDTree(g).sparse_distance_matrix(cKDTree(p), RADIUS, output_type="ndarray")
    return csr_matrix(
        (np.ones(len(pairs)), (pairs["i"], pairs["j"])), shape=(len(g), len(p))
    )


def _tp(protocol: str, g: np.ndarray, p: np.ndarray) -> tuple[int, int]:
    """(true positives, ground truths with no partner) for one image/class."""
    if not len(g) or not len(p):
        return 0, len(g)
    if protocol == "matched":
        tp = int((maximum_bipartite_matching(_radius_graph(g, p), perm_type="column") >= 0).sum())
        return tp, len(g) - tp
    d = cdist(g, p)
    if protocol == "raw_hungarian":
        r, c = linear_sum_assignment(d)
        tp = int((d[r, c] <= RADIUS).sum())
        return tp, len(g) - tp
    within = d <= RADIUS
    return int(within.any(axis=0).sum()), len(g) - int(within.any(axis=1).sum())


def _expected_eval(inputs: Inputs, protocols) -> Expected:
    gt, pred = inputs.gt, inputs.pred
    gt_groups, pred_groups = _groups(gt), _groups(pred)
    class_ids = tuple(sorted(set(gt.cls.tolist()) | set(pred.cls.tolist())))
    images = len(set(gt.image.tolist()) | set(pred.image.tolist()))
    empty = np.zeros(0, dtype=np.int64)
    counts = {proto: {c: [0, 0, 0] for c in class_ids} for proto in protocols}
    dense_cells = radius_pairs = 0
    for key in sorted(set(gt_groups) | set(pred_groups)):
        g = gt.xy[gt_groups.get(key, empty)]
        p = pred.xy[pred_groups.get(key, empty)]
        dense_cells += len(g) * len(p)
        if len(g) and len(p):
            radius_pairs += _radius_graph(g, p).nnz
        for proto in protocols:
            tp, fn = _tp(proto, g, p)
            row = counts[proto][key[1]]
            row[0] += tp
            row[1] += len(p) - tp
            row[2] += fn
    return Expected(
        command=inputs.workload.command,
        class_ids=class_ids,
        images=images,
        counts={proto: {c: tuple(v) for c, v in by.items()} for proto, by in counts.items()},
        dense_cells=dense_cells,
        radius_pairs=radius_pairs,
    )


def _losses(pairs, gxy, gcls, pxy, conf):
    weights = np.array([W_BG] + [W_FG] * (conf.shape[1] - 1))
    m = len(pxy)
    rows = np.array([r for r, _ in pairs], dtype=np.int64)
    cols = np.array([c for _, c in pairs], dtype=np.int64)
    neg = np.setdiff1d(np.arange(m), cols)
    cls_m = gcls[rows]
    nll = -(weights[cls_m] * np.log(np.maximum(conf[cols, cls_m], LOG_CLAMP))).sum()
    nll -= (weights[0] * np.log(np.maximum(conf[neg, 0], LOG_CLAMP))).sum()
    cls_loss = nll / m if m else 0.0
    reg = float(((gxy[rows] - pxy[cols]) ** 2).sum(axis=1).mean()) if len(pairs) else 0.0
    return float(cls_loss), reg


def _expected_match(inputs: Inputs) -> Expected:
    gt, pred = inputs.gt, inputs.pred
    patches = []
    for i in range(len(inputs.image_ids)):
        gsel, psel = gt.image == i, pred.image == i
        gxy, gcls = gt.xy[gsel], gt.cls[gsel]
        pxy, conf = pred.xy[psel], pred.conf[psel]
        dist = cdist(gxy, pxy)
        cost = TAU * dist - conf[:, gcls].T
        r, c = linear_sum_assignment(cost)
        one = sorted(zip(r.tolist(), c.tolist()))
        r, c = linear_sum_assignment(np.repeat(cost, BETA, axis=0))
        many = sorted(zip((r // BETA).tolist(), c.tolist()))
        cls11, reg11 = _losses(one, gxy, gcls, pxy, conf)
        cls1n, reg1n = _losses(many, gxy, gcls, pxy, conf)
        losses = {
            "cls_1v1": cls11,
            "reg_1v1": reg11,
            "cls_1vN": cls1n,
            "reg_1vN": reg1n,
            "combined": (cls11 + W_REG * reg11) + W_1N * (cls1n + W_REG * reg1n),
        }
        patches.append({"one_to_one": one, "one_to_many": many, "losses": losses,
                        "m": len(pxy), "dist": dist, "cost": cost})
    return Expected(command="match", patches=patches)


def expected(inputs: Inputs) -> Expected:
    command = inputs.workload.command
    if command == "match":
        return _expected_match(inputs)
    return _expected_eval(inputs, PROTOCOLS if command == "compare" else ("matched",))


def _f1(tp, fp, fn) -> float:
    denom = tp + 0.5 * (fp + fn)
    return tp / denom if denom else 0.0


def _close(a, b, rtol) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol)


def _delta_pct(value, reference) -> float:
    if reference > 0:
        return 100.0 * (value - reference) / reference
    return 0.0 if value == reference else float("inf")


def _check_evaluate(report, exp: Expected) -> list[str]:
    errors = []
    counts = exp.counts["matched"]
    if report.get("images") != exp.images:
        errors.append(f"images {report.get('images')} != {exp.images}")
    got = {row["class_id"]: row for row in report.get("per_class", [])}
    if sorted(got) != list(exp.class_ids):
        return errors + [f"classes {sorted(got)} != {list(exp.class_ids)}"]
    f1s = []
    for cls in exp.class_ids:
        tp, fp, fn = counts[cls]
        row = got[cls]
        if (row["tp"], row["fp"], row["fn"]) != (tp, fp, fn):
            errors.append(f"class {cls}: tp/fp/fn {row['tp']}/{row['fp']}/{row['fn']} != {tp}/{fp}/{fn}")
        f1s.append(_f1(tp, fp, fn))
        if not _close(row["f1"], f1s[-1], F1_RTOL):
            errors.append(f"class {cls}: f1 {row['f1']} != {f1s[-1]}")
    macro = sum(f1s) / len(f1s)
    if not _close(report.get("macro_f1", math.nan), macro, F1_RTOL):
        errors.append(f"macro_f1 {report.get('macro_f1')} != {macro}")
    return errors


def _check_compare(report, exp: Expected) -> list[str]:
    """``compare`` reports F1 only, so counts are checked through the F1
    they imply."""
    errors = []
    f1 = {
        proto: {c: _f1(*exp.counts[proto][c]) for c in exp.class_ids} for proto in PROTOCOLS
    }
    macro = {proto: sum(by.values()) / len(by) for proto, by in f1.items()}
    rows = {row["protocol"]: row for row in report.get("protocols", [])}
    if sorted(rows) != sorted(PROTOCOLS):
        return [f"protocols {sorted(rows)} != {sorted(PROTOCOLS)}"]
    for proto in PROTOCOLS:
        row = rows[proto]
        got = {pc["class_id"]: pc for pc in row["per_class"]}
        if sorted(got) != list(exp.class_ids):
            errors.append(f"{proto}: classes {sorted(got)} != {list(exp.class_ids)}")
            continue
        for cls in exp.class_ids:
            want = f1[proto][cls]
            delta = _delta_pct(want, f1["matched"][cls])
            if not _close(got[cls]["f1"], want, F1_RTOL):
                errors.append(f"{proto} class {cls}: f1 {got[cls]['f1']} != {want}")
            if not _close(got[cls]["delta_pct"], delta, F1_RTOL):
                errors.append(f"{proto} class {cls}: delta {got[cls]['delta_pct']} != {delta}")
        if not _close(row["macro_f1"], macro[proto], F1_RTOL):
            errors.append(f"{proto}: macro_f1 {row['macro_f1']} != {macro[proto]}")
        delta = _delta_pct(macro[proto], macro["matched"])
        if not _close(row["macro_delta_pct"], delta, F1_RTOL):
            errors.append(f"{proto}: macro delta {row['macro_delta_pct']} != {delta}")
    return errors


def _check_match(report, exp: Expected) -> list[str]:
    errors = []
    images = report.get("images", [])
    if len(images) != len(exp.patches):
        return [f"{len(images)} patches reported, {len(exp.patches)} expected"]
    for i, (img, want) in enumerate(zip(images, exp.patches)):
        for section in ("one_to_one", "one_to_many"):
            pairs = [(p["gt_index"], p["pred_index"]) for p in img[section]["pairs"]]
            if pairs != want[section]:
                errors.append(f"patch {i} {section}: pair set differs from linear_sum_assignment")
                continue
            for p in img[section]["pairs"]:
                g, j = p["gt_index"], p["pred_index"]
                if not (_close(p["distance"], want["dist"][g, j], LOSS_RTOL)
                        and _close(p["cost"], want["cost"][g, j], LOSS_RTOL)):
                    errors.append(f"patch {i} {section}: distance or cost of pair {g},{j} differs")
                    break
            matched = {c for _, c in want[section]}
            negatives = [j for j in range(want["m"]) if j not in matched]
            if list(img[section]["negatives"]) != negatives:
                errors.append(f"patch {i} {section}: negatives differ")
        for name, value in want["losses"].items():
            got = img["losses"].get(name, math.nan)
            if not _close(got, value, LOSS_RTOL):
                errors.append(f"patch {i} loss {name}: {got} != {value}")
    return errors


_CHECKS = {"evaluate": _check_evaluate, "compare": _check_compare, "match": _check_match}


def check(report: dict, exp: Expected) -> list[str]:
    """Every way ``report`` differs from the expected output (empty if none)."""
    try:
        return _CHECKS[exp.command](report, exp)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return [f"malformed report: {exc!r}"]
