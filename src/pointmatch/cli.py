"""Command-line interface: evaluate, compare, match and synth subcommands.

Exit codes: 0 success, 2 input parse error, 3 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

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


def _parse_class_ids(args) -> tuple[int, ...] | None:
    if args.class_ids:
        try:
            ids = tuple(int(v) for v in args.class_ids.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --class-ids: {exc}") from None
        if any(i < 1 for i in ids):
            raise ConfigError("class ids must be >= 1")
        return ids
    if args.classes:
        names = [n for n in args.classes.split(",") if n]
        return tuple(range(1, len(names) + 1))
    return None


def _class_names(args, class_ids) -> dict[int, str]:
    if not args.classes:
        return {c: str(c) for c in class_ids}
    names = [n for n in args.classes.split(",") if n]
    mapping = {i + 1: name for i, name in enumerate(names)}
    return {c: mapping.get(c, str(c)) for c in class_ids}


def _load_eval_inputs(args):
    gt_table = pointfile.read_point_file(args.gt)
    pred_table = pointfile.read_point_file(args.pred)
    gt_by_image = pointfile.group_labeled(gt_table)
    pred_by_image = pointfile.group_labeled(pred_table)
    class_ids = _parse_class_ids(args)
    observed = set(np.union1d(gt_table.cls, pred_table.cls).tolist())
    if class_ids is None:
        class_ids = tuple(sorted(observed)) or (1,)
    else:
        unknown = observed - set(class_ids)
        if unknown:
            raise PointFileError(
                f"unknown class_id(s) in input files: {sorted(unknown)}"
            )
    return gt_by_image, pred_by_image, class_ids


def _manifest(args, config: dict) -> RunManifest:
    digests = {}
    for attr in ("gt", "pred"):
        path = getattr(args, attr, None)
        if path:
            digests[path] = pointfile.file_digest(path)
    return RunManifest(config=config, input_digests=digests)


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


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


def cmd_evaluate(args) -> int:
    protocol = _PROTOCOL_FLAGS.get(args.protocol)
    if protocol is None:
        raise ConfigError(f"unknown protocol: {args.protocol}")
    aggregate = _AGGREGATE_FLAGS.get(args.aggregate)
    if aggregate is None:
        raise ConfigError(f"unknown aggregate mode: {args.aggregate}")
    if args.radius <= 0:
        raise ConfigError("radius must be positive")

    gt_by_image, pred_by_image, class_ids = _load_eval_inputs(args)
    config = EvalConfig(
        radius=args.radius, protocol=protocol, class_ids=class_ids, aggregate=aggregate
    )
    report = evaluation.evaluate_dataset(gt_by_image, pred_by_image, config)
    names = _class_names(args, class_ids)
    manifest = _manifest(args, {
        "radius": args.radius,
        "protocol": protocol.value,
        "class_ids": list(class_ids),
        "aggregate": aggregate.value,
    })

    per_class = [
        {"class_id": c.class_id, "class": names[c.class_id],
         "tp": c.tp, "fp": c.fp, "fn": c.fn, "f1": f1}
        for c, f1 in report.per_class
    ]
    if args.fmt == "json":
        payload = {
            "protocol": protocol.value,
            "per_class": per_class,
            "macro_f1": report.macro_f1,
            "images": report.images,
            "manifest": manifest.as_dict(),
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output)
    elif args.fmt == "csv":
        lines = ["class_id,class,tp,fp,fn,f1"]
        for row in per_class:
            lines.append(
                f"{row['class_id']},{row['class']},{row['tp']},{row['fp']},"
                f"{row['fn']},{_fmt_float(row['f1'])}"
            )
        lines.append(f"macro,,,,,{_fmt_float(report.macro_f1)}")
        lines += _manifest_lines(manifest)
        _emit("\n".join(lines) + "\n", args.output)
    else:
        lines = [f"protocol: {protocol.value}  images: {report.images}",
                 f"{'class':>12} {'tp':>6} {'fp':>6} {'fn':>6} {'f1':>8}"]
        for row in per_class:
            lines.append(
                f"{row['class']:>12} {row['tp']:>6} {row['fp']:>6} {row['fn']:>6} "
                f"{_fmt_float(row['f1']):>8}"
            )
        lines.append(f"{'macro_f1':>12} {'':>6} {'':>6} {'':>6} {_fmt_float(report.macro_f1):>8}")
        lines += _manifest_lines(manifest)
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_compare(args) -> int:
    aggregate = _AGGREGATE_FLAGS.get(args.aggregate)
    if aggregate is None:
        raise ConfigError(f"unknown aggregate mode: {args.aggregate}")
    if args.radius <= 0:
        raise ConfigError("radius must be positive")

    gt_by_image, pred_by_image, class_ids = _load_eval_inputs(args)
    rows = evaluation.compare_protocols(
        gt_by_image, pred_by_image, args.radius, class_ids, aggregate
    )
    names = _class_names(args, class_ids)
    manifest = _manifest(args, {
        "radius": args.radius,
        "class_ids": list(class_ids),
        "aggregate": aggregate.value,
    })

    table = []
    for row in rows:
        table.append({
            "protocol": row.protocol.value,
            "per_class": [
                {"class_id": cls, "class": names[cls], "f1": f1, "delta_pct": delta}
                for (cls, f1), (_, delta) in zip(row.per_class_f1, row.per_class_delta_pct)
            ],
            "macro_f1": row.macro_f1,
            "macro_delta_pct": row.macro_delta_pct,
        })

    if args.fmt == "json":
        payload = {"protocols": table, "manifest": manifest.as_dict()}
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output)
    elif args.fmt == "csv":
        lines = ["protocol,class,f1,delta_pct"]
        for row in table:
            for pc in row["per_class"]:
                lines.append(
                    f"{row['protocol']},{pc['class']},{_fmt_float(pc['f1'])},"
                    f"{_fmt_float(pc['delta_pct'])}"
                )
            lines.append(
                f"{row['protocol']},macro,{_fmt_float(row['macro_f1'])},"
                f"{_fmt_float(row['macro_delta_pct'])}"
            )
        lines += _manifest_lines(manifest)
        _emit("\n".join(lines) + "\n", args.output)
    else:
        lines = [f"{'protocol':>14} {'class':>12} {'f1':>8} {'delta%':>9}"]
        for row in table:
            for pc in row["per_class"]:
                lines.append(
                    f"{row['protocol']:>14} {pc['class']:>12} "
                    f"{_fmt_float(pc['f1']):>8} {_fmt_float(pc['delta_pct']):>9}"
                )
            lines.append(
                f"{row['protocol']:>14} {'macro':>12} {_fmt_float(row['macro_f1']):>8} "
                f"{_fmt_float(row['macro_delta_pct']):>9}"
            )
        lines += _manifest_lines(manifest)
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_match(args) -> int:
    if args.beta < 1:
        raise ConfigError("beta must be >= 1")
    if args.tau <= 0:
        raise ConfigError("tau must be positive")
    gt_table = pointfile.read_point_file(args.gt)
    pred_table = pointfile.read_point_file(args.pred)
    gt_by_image = pointfile.group_labeled(gt_table)

    num_classes = int(np.concatenate([gt_table.cls, pred_table.cls, [1]]).max())
    if pred_table.confidences is not None:
        num_classes = max(num_classes, pred_table.confidences.shape[1] - 1)
    pred_by_image = pointfile.group_predicted(pred_table, num_classes)

    class_weights = (args.lambda_bg,) + (args.lambda_fg,) * num_classes
    config = matching.MatchConfig(
        tau=args.tau,
        beta=args.beta,
        class_weights=class_weights,
        reg_weight=args.lambda_reg,
        one2many_weight=args.lambda_one2many,
    )
    manifest = _manifest(args, {
        "tau": args.tau,
        "beta": args.beta,
        "lambda_bg": args.lambda_bg,
        "lambda_fg": args.lambda_fg,
        "lambda_reg": args.lambda_reg,
        "lambda_one2many": args.lambda_one2many,
    })

    images = []
    for image_id in sorted(set(gt_by_image) | set(pred_by_image)):
        gts = gt_by_image.get(image_id) or as_point_set(())
        preds = pred_by_image.get(image_id, [])
        if len(gts) > len(preds):
            raise ConfigError(
                f"image {image_id}: {len(gts)} ground truths but only "
                f"{len(preds)} proposals"
            )
        costs = matching.build_cost_matrix(gts, preds, config.tau)
        one2one, one2many = matching.match_hybrid(gts, preds, config)
        losses = matching.combined_loss(gts, preds, config)
        gxy = gts.xy.tolist()

        def dump(outcome):
            pairs = []
            for gi, pi in outcome.matched:
                (gx, gy), p = gxy[gi], preds[pi]
                pairs.append({
                    "gt_index": gi,
                    "pred_index": pi,
                    "distance": math.hypot(gx - p.x, gy - p.y),
                    "cost": costs.values[gi, pi],
                })
            return {"pairs": pairs, "negatives": list(outcome.negatives)}

        images.append({
            "image_id": image_id,
            "one_to_one": dump(one2one),
            "one_to_many": dump(one2many),
            "losses": {
                "cls_1v1": losses.cls_1v1,
                "reg_1v1": losses.reg_1v1,
                "cls_1vN": losses.cls_1vN,
                "reg_1vN": losses.reg_1vN,
                "combined": losses.combined,
            },
        })

    if args.fmt == "table":
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
            loss = img["losses"]
            lines.append(
                "  losses: "
                + " ".join(f"{k}={v:.6g}" for k, v in loss.items())
            )
        lines += _manifest_lines(manifest)
        _emit("\n".join(lines) + "\n", args.output)
    else:
        payload = {"images": images, "manifest": manifest.as_dict()}
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output)
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.fixture is not None:
        if args.fixture != "figure3":
            raise ConfigError(f"unknown fixture: {args.fixture}")
        gts, preds = synth.figure3_fixture()
        gt_records = [
            PointRecord("figure3", p.x, p.y, p.class_id) for p in gts
        ]
        pred_records = [
            PointRecord("figure3", p.x, p.y, p.class_id, confidence=1.0) for p in preds
        ]
    else:
        try:
            model = synth.PerturbationModel(
                seed=args.seed,
                jitter_sigma=args.jitter,
                drop_rate=args.drop,
                spurious_rate=args.spurious,
                extent=tuple(args.extent),
                density=args.density,
                class_ids=tuple(range(1, args.num_classes + 1)),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        image_id = f"synthetic-{args.seed}"
        gts = synth.gen_ground_truth(model)
        preds = synth.perturb(gts, model)
        gt_records = [PointRecord(image_id, p.x, p.y, p.class_id) for p in gts]
        pred_records = [
            PointRecord(image_id, p.x, p.y, p.class_id, confidence=1.0) for p in preds
        ]

    pointfile.write_point_file(args.gt_out, gt_records)
    pointfile.write_point_file(args.pred_out, pred_records)
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
