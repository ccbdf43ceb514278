"""Command-line interface: evaluate, compare, match and synth subcommands.

Exit codes: 0 success, 2 input parse error, 3 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np

from . import evaluation, matching, pointfile, synth
from .evaluation import Aggregate, EvalConfig, Protocol
from .pointfile import PointFileError, PointRecord, RunManifest
from .types import as_point_set

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3

_PROTOCOL_FLAGS = {
    "matched": Protocol.MATCHED,
    "raw-hungarian": Protocol.RAW_HUNGARIAN,
    "greedy": Protocol.GREEDY,
}
_AGGREGATE_FLAGS = {
    "dataset-counts": Aggregate.DATASET_COUNTS,
    "per-image-mean": Aggregate.PER_IMAGE_MEAN,
}


class ConfigError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointmatch",
        description="Point-set matching and detection F1 evaluation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_eval(p):
        p.add_argument("gt", help="ground truth point file (csv or json)")
        p.add_argument("pred", help="prediction point file (csv or json)")
        p.add_argument("--radius", type=float, default=6.0, help="match radius in pixels")
        p.add_argument("--class-ids", default=None, help="comma-separated class ids, e.g. 1,2,3,4")
        p.add_argument("--classes", default=None, help="comma-separated class names bound to ids 1..T")
        p.add_argument("--aggregate", default="dataset-counts")
        p.add_argument("--format", dest="fmt", default="table", choices=["table", "json", "csv"])
        p.add_argument("--output", default=None, help="write report here instead of stdout")

    p_eval = sub.add_parser("evaluate", help="score predictions against ground truth")
    add_common_eval(p_eval)
    p_eval.add_argument("--protocol", default="matched",
                        help="matched | raw-hungarian | greedy")

    p_cmp = sub.add_parser("compare", help="run all three protocols side by side")
    add_common_eval(p_cmp)

    p_match = sub.add_parser("match", help="training-style matching and loss dump")
    p_match.add_argument("gt")
    p_match.add_argument("pred")
    p_match.add_argument("--tau", type=float, default=matching.DEFAULT_TAU)
    p_match.add_argument("--beta", type=int, default=1)
    p_match.add_argument("--lambda-bg", type=float, default=matching.DEFAULT_BG_WEIGHT)
    p_match.add_argument("--lambda-fg", type=float, default=matching.DEFAULT_FG_WEIGHT)
    p_match.add_argument("--lambda-reg", type=float, default=matching.DEFAULT_REG_WEIGHT)
    p_match.add_argument("--lambda-one2many", type=float, default=matching.DEFAULT_ONE2MANY_WEIGHT)
    p_match.add_argument("--format", dest="fmt", default="json", choices=["json", "table"])
    p_match.add_argument("--output", default=None)

    p_synth = sub.add_parser("synth", help="generate a synthetic gt/prediction pair")
    p_synth.add_argument("--gt-out", required=True)
    p_synth.add_argument("--pred-out", required=True)
    p_synth.add_argument("--fixture", default=None, help="named fixture, e.g. figure3")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--density", type=float, default=30.0)
    p_synth.add_argument("--extent", type=float, nargs=2, default=(224.0, 224.0),
                         metavar=("W", "H"))
    p_synth.add_argument("--jitter", type=float, default=0.0)
    p_synth.add_argument("--drop", type=float, default=0.0)
    p_synth.add_argument("--spurious", type=float, default=0.0)
    p_synth.add_argument("--num-classes", type=int, default=1)

    return parser


def _parse_classes(args) -> tuple[tuple[int, ...] | None, dict[int, str]]:
    """The class ids named by ``--class-ids`` or ``--classes`` (None: take
    them from the input files), and the names ``--classes`` binds to 1..T."""
    names = dict(enumerate((n for n in (args.classes or "").split(",") if n), start=1))
    if not args.class_ids:
        return (tuple(names) if args.classes else None), names
    try:
        ids = tuple(int(v) for v in args.class_ids.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --class-ids: {exc}") from None
    if any(i < 1 for i in ids):
        raise ConfigError("class ids must be >= 1")
    return ids, names


def _load_eval_inputs(args):
    """The checked ``--aggregate`` and ``--radius`` of ``evaluate`` and
    ``compare``, then their inputs: points by image, class ids and names."""
    aggregate = _AGGREGATE_FLAGS.get(args.aggregate)
    if aggregate is None:
        raise ConfigError(f"unknown aggregate mode: {args.aggregate}")
    EvalConfig(radius=args.radius)  # refuses a radius that is not positive and finite
    gt_table = pointfile.read_point_file(args.gt)
    pred_table = pointfile.read_point_file(args.pred)
    gt_by_image = pointfile.group_labeled(gt_table)
    pred_by_image = pointfile.group_labeled(pred_table)
    class_ids, names = _parse_classes(args)
    observed = set(np.union1d(gt_table.cls, pred_table.cls).tolist())
    if class_ids is None:
        class_ids = tuple(sorted(observed)) or (1,)
    else:
        unknown = observed - set(class_ids)
        if unknown:
            raise PointFileError(
                f"unknown class_id(s) in input files: {sorted(unknown)}"
            )
    names = {c: names.get(c, str(c)) for c in class_ids}
    return aggregate, gt_by_image, pred_by_image, class_ids, names


def _fmt_float(v: float) -> str:
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.4f}"


def _manifest_lines(manifest: RunManifest) -> list[str]:
    lines = [f"# tool_version: {manifest.tool_version}"]
    for k, v in sorted(manifest.config.items()):
        lines.append(f"# config.{k}: {v}")
    for path, digest in sorted(manifest.input_digests.items()):
        lines.append(f"# input: {path} sha256={digest}")
    lines.append(f"# timestamp: {manifest.timestamp}")
    return lines


def _write_report(args, config: dict, payload: dict, render) -> int:
    """Write the report to ``--output`` or stdout. JSON is ``payload`` plus
    the run manifest; table and csv are the lines of ``render(fmt)``
    followed by the manifest as ``#`` lines."""
    digests = {path: pointfile.file_digest(path) for path in (args.gt, args.pred)}
    manifest = RunManifest(config=config, input_digests=digests)
    if args.fmt == "json":
        text = json.dumps({**payload, "manifest": manifest.as_dict()}, indent=2, sort_keys=True)
    else:
        text = "\n".join(render(args.fmt) + _manifest_lines(manifest))
    with (open(args.output, "w", encoding="utf-8", newline="\n") if args.output
          else contextlib.nullcontext(sys.stdout)) as f:
        f.write(text + "\n")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    protocol = _PROTOCOL_FLAGS.get(args.protocol)
    if protocol is None:
        raise ConfigError(f"unknown protocol: {args.protocol}")
    aggregate, gt_by_image, pred_by_image, class_ids, names = _load_eval_inputs(args)
    config = EvalConfig(
        radius=args.radius, protocol=protocol, class_ids=class_ids, aggregate=aggregate
    )
    report = evaluation.evaluate_dataset(gt_by_image, pred_by_image, config)
    per_class = [
        {"class_id": c.class_id, "class": names[c.class_id],
         "tp": c.tp, "fp": c.fp, "fn": c.fn, "f1": f1}
        for c, f1 in report.per_class
    ]

    def render(fmt):
        if fmt == "csv":
            return [
                "class_id,class,tp,fp,fn,f1",
                *(f"{r['class_id']},{r['class']},{r['tp']},{r['fp']},{r['fn']},"
                  f"{_fmt_float(r['f1'])}" for r in per_class),
                f"macro,,,,,{_fmt_float(report.macro_f1)}",
            ]
        return [
            f"protocol: {protocol.value}  images: {report.images}",
            f"{'class':>12} {'tp':>6} {'fp':>6} {'fn':>6} {'f1':>8}",
            *(f"{r['class']:>12} {r['tp']:>6} {r['fp']:>6} {r['fn']:>6} "
              f"{_fmt_float(r['f1']):>8}" for r in per_class),
            f"{'macro_f1':>12} {'':>6} {'':>6} {'':>6} {_fmt_float(report.macro_f1):>8}",
        ]

    return _write_report(
        args,
        {"radius": args.radius, "protocol": protocol.value, "class_ids": list(class_ids),
         "aggregate": aggregate.value},
        {"protocol": protocol.value, "per_class": per_class, "macro_f1": report.macro_f1,
         "images": report.images},
        render,
    )


def cmd_compare(args) -> int:
    aggregate, gt_by_image, pred_by_image, class_ids, names = _load_eval_inputs(args)
    rows = evaluation.compare_protocols(
        gt_by_image, pred_by_image, args.radius, class_ids, aggregate
    )
    table = [
        {
            "protocol": row.protocol.value,
            "per_class": [
                {"class_id": cls, "class": names[cls], "f1": f1, "delta_pct": delta}
                for (cls, f1), (_, delta) in zip(row.per_class_f1, row.per_class_delta_pct)
            ],
            "macro_f1": row.macro_f1,
            "macro_delta_pct": row.macro_delta_pct,
        }
        for row in rows
    ]

    def render(fmt):
        sep, widths = (",", (0,) * 4) if fmt == "csv" else (" ", (14, 12, 8, 9))
        cells = [("protocol", "class", "f1", "delta_pct" if fmt == "csv" else "delta%")]
        for row in table:
            cells += [
                (row["protocol"], pc["class"], _fmt_float(pc["f1"]), _fmt_float(pc["delta_pct"]))
                for pc in row["per_class"]
            ]
            cells.append((row["protocol"], "macro", _fmt_float(row["macro_f1"]),
                          _fmt_float(row["macro_delta_pct"])))
        return [sep.join(c.rjust(w) for c, w in zip(line, widths)) for line in cells]

    return _write_report(
        args,
        {"radius": args.radius, "class_ids": list(class_ids), "aggregate": aggregate.value},
        {"protocols": table},
        render,
    )


def cmd_match(args) -> int:
    # the options are checked before the files are read; the class weights
    # are sized once the files give the number of classes
    config = matching.MatchConfig(
        tau=args.tau,
        beta=args.beta,
        class_weights=(args.lambda_bg, args.lambda_fg),
        reg_weight=args.lambda_reg,
        one2many_weight=args.lambda_one2many,
    )
    gt_table = pointfile.read_point_file(args.gt)
    pred_table = pointfile.read_point_file(args.pred)
    classes = np.concatenate([gt_table.cls, pred_table.cls])
    if pred_table.confidences is not None:
        num_classes = max(pred_table.confidences.shape[1] - 1, int(classes.max(initial=0)))
    else:
        # no confidence vectors: only the classes that occur need a column,
        # and all foreground weights are equal, so numbering them 1..K
        # changes no cost or loss
        occurring, cls = np.unique(classes, return_inverse=True)
        gt_table = replace(gt_table, cls=cls[: len(gt_table)] + 1)
        pred_table = replace(pred_table, cls=cls[len(gt_table) :] + 1)
        num_classes = max(len(occurring), 1)
    gt_by_image = pointfile.group_labeled(gt_table)
    pred_by_image = pointfile.group_predicted(pred_table, num_classes)
    config = replace(config, class_weights=(args.lambda_bg,) + (args.lambda_fg,) * num_classes)

    images = []
    for image_id in sorted(set(gt_by_image) | set(pred_by_image)):
        gts = gt_by_image.get(image_id) or as_point_set(())
        preds = pred_by_image.get(image_id) or as_point_set(())
        if len(gts) > len(preds):
            raise ConfigError(
                f"image {image_id}: {len(gts)} ground truths but only "
                f"{len(preds)} proposals"
            )
        costs = matching.build_cost_matrix(gts, preds, config.tau)
        one2one, one2many = matching.match_hybrid(gts, preds, config)
        losses = matching.combined_loss(gts, preds, config)
        gxy, pxy = gts.xy.tolist(), preds.xy.tolist()

        def dump(outcome):
            pairs = []
            for gi, pi in outcome.matched:
                (gx, gy), (px, py) = gxy[gi], pxy[pi]
                pairs.append({
                    "gt_index": gi,
                    "pred_index": pi,
                    "distance": math.hypot(gx - px, gy - py),
                    "cost": costs.values[gi, pi],
                })
            return {"pairs": pairs, "negatives": list(outcome.negatives)}

        images.append({
            "image_id": image_id,
            "one_to_one": dump(one2one),
            "one_to_many": dump(one2many),
            "losses": asdict(losses),
        })

    def render(fmt):
        lines = []
        for img in images:
            lines.append(f"image {img['image_id']}:")
            for section in ("one_to_one", "one_to_many"):
                lines.append(f"  {section}:")
                for p in img[section]["pairs"]:
                    lines.append(
                        f"    gt {p['gt_index']} <- pred {p['pred_index']} "
                        f"dist={p['distance']:.3f} cost={p['cost']:.4f}"
                    )
                lines.append(f"    negatives: {img[section]['negatives']}")
            lines.append(
                "  losses: " + " ".join(f"{k}={v:.6g}" for k, v in img["losses"].items())
            )
        return lines

    return _write_report(
        args,
        {"tau": args.tau, "beta": args.beta, "lambda_bg": args.lambda_bg,
         "lambda_fg": args.lambda_fg, "lambda_reg": args.lambda_reg,
         "lambda_one2many": args.lambda_one2many},
        {"images": images},
        render,
    )


def cmd_synth(args) -> int:
    if args.fixture is not None:
        if args.fixture != "figure3":
            raise ConfigError(f"unknown fixture: {args.fixture}")
        image_id = "figure3"
        gts, preds = synth.figure3_fixture()
    else:
        model = synth.PerturbationModel(
            seed=args.seed,
            jitter_sigma=args.jitter,
            drop_rate=args.drop,
            spurious_rate=args.spurious,
            extent=tuple(args.extent),
            density=args.density,
            class_ids=tuple(range(1, args.num_classes + 1)),
        )
        image_id = f"synthetic-{args.seed}"
        gts = synth.gen_ground_truth(model)
        preds = synth.perturb(gts, model)

    pointfile.write_point_file(
        args.gt_out, [PointRecord(image_id, p.x, p.y, p.class_id) for p in gts]
    )
    pointfile.write_point_file(
        args.pred_out,
        [PointRecord(image_id, p.x, p.y, p.class_id, confidence=1.0) for p in preds],
    )
    return EXIT_OK


_COMMANDS = {
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
    "match": cmd_match,
    "synth": cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except PointFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
