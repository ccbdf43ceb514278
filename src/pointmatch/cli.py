"""Command-line interface: evaluate, compare, match and synth subcommands.

Exit codes: 0 success, 2 input parse error, 3 configuration error or bad option.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings

# no command calls BLAS, so numpy's OpenBLAS need not start a spinning worker per CPU
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# evaluation, matching and synth are imported by the commands that run
# them, so a process loads only the modules its command needs
from . import __version__, pointfile, types
from .pointfile import PointFileError, PointRecord
from .types import Aggregate, Protocol, as_point_set, distance_matrix

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A bad value, an unknown option or a missing argument is a
    configuration error; subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        p.add_argument("--aggregate", default="dataset-counts",
                       choices=[a.value.replace("_", "-") for a in Aggregate])
        p.add_argument("--format", dest="fmt", default="table", choices=["table", "json", "csv"])
        p.add_argument("--output", default=None, help="write report here instead of stdout")

    p_eval = sub.add_parser("evaluate", help="score predictions against ground truth")
    add_common_eval(p_eval)
    p_eval.add_argument("--protocol", default="matched",
                        choices=[p.value.replace("_", "-") for p in Protocol])

    p_cmp = sub.add_parser("compare", help="run all three protocols side by side")
    add_common_eval(p_cmp)

    p_match = sub.add_parser("match", help="training-style matching and loss dump")
    p_match.add_argument("gt")
    p_match.add_argument("pred")
    p_match.add_argument("--tau", type=float, default=types.DEFAULT_TAU)
    p_match.add_argument("--beta", type=int, default=1)
    p_match.add_argument("--lambda-bg", type=float, default=types.DEFAULT_BG_WEIGHT)
    p_match.add_argument("--lambda-fg", type=float, default=types.DEFAULT_FG_WEIGHT)
    p_match.add_argument("--lambda-reg", type=float, default=types.DEFAULT_REG_WEIGHT)
    p_match.add_argument("--lambda-one2many", type=float, default=types.DEFAULT_ONE2MANY_WEIGHT)
    p_match.add_argument("--format", dest="fmt", default="json", choices=["json", "table"])
    p_match.add_argument("--output", default=None)

    p_synth = sub.add_parser("synth", help="generate a synthetic gt/prediction pair")
    p_synth.add_argument("--gt-out", required=True)
    p_synth.add_argument("--pred-out", required=True)
    p_synth.add_argument("--fixture", default=None, choices=["figure3"], help="named fixture")
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
    names = {} if args.classes is None else dict(enumerate(args.classes.split(","), start=1))
    if "" in names.values():  # dropping it would shift the names after it to lower ids
        raise ConfigError(f"--classes holds an empty name: {args.classes!r}")
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
    """The ``--aggregate`` and the checked ``--radius`` of ``evaluate`` and
    ``compare``, then their inputs: the two tables, class ids and names."""
    from . import evaluation

    aggregate = Aggregate(args.aggregate.replace("-", "_"))
    evaluation.EvalConfig(radius=args.radius)  # refuses a radius that is not positive and finite
    gt_table, pred_table = map(pointfile.read_point_file, (args.gt, args.pred))
    class_ids, names = _parse_classes(args)
    observed = set(gt_table.cls.tolist()) | set(pred_table.cls.tolist())
    if class_ids is None:
        class_ids = tuple(sorted(observed)) or (1,)
    else:
        unknown = observed - set(class_ids)
        if unknown:
            raise PointFileError(
                f"unknown class_id(s) in input files: {sorted(unknown)}"
            )
    names = {c: names.get(c, str(c)) for c in class_ids}
    return aggregate, (gt_table, pred_table), class_ids, names


def _write_report(args, tables, config: dict, payload: dict, render) -> int:
    """Write the report to ``--output`` or stdout. JSON is ``payload`` plus
    the run manifest, which names the digests of the (gt, pred) ``tables``;
    table and csv are the lines of ``render(fmt)`` followed by the manifest
    as ``#`` lines."""
    manifest = {
        "tool_version": __version__,
        "config": config,
        "input_digests": {path: t.digest for path, t in zip((args.gt, args.pred), tables)},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
    }
    if args.fmt == "json":
        text = json.dumps({**payload, "manifest": manifest}, indent=2, sort_keys=True)
    else:
        text = "\n".join([
            *render(args.fmt),
            f"# tool_version: {manifest['tool_version']}",
            *(f"# config.{k}: {v}" for k, v in sorted(config.items())),
            *(f"# input: {p} sha256={d}" for p, d in sorted(manifest["input_digests"].items())),
            f"# timestamp: {manifest['timestamp']}",
        ])
    text += "\n"
    try:  # before --output is opened, which would truncate it
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        line = text[text.rfind("\n", 0, exc.start) + 1:text.find("\n", exc.start)].strip()
        raise ValueError(f"the report cannot be encoded as UTF-8: {line!r}") from None
    if args.output:
        with open(args.output, "wb") as f:
            f.write(data)
    elif hasattr(sys.stdout, "buffer"):  # the bytes of --output, whatever stdout's codec
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
    else:  # a text stream without bytes, such as io.StringIO
        sys.stdout.write(text)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from . import evaluation

    protocol = Protocol(args.protocol.replace("-", "_"))
    aggregate, tables, class_ids, names = _load_eval_inputs(args)
    config = evaluation.EvalConfig(
        radius=args.radius, protocol=protocol, class_ids=class_ids, aggregate=aggregate
    )
    report = evaluation.evaluate_dataset(*tables, config)
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
                  f"{r['f1']:.4f}" for r in per_class),
                f"macro,,,,,{report.macro_f1:.4f}",
            ]
        return [
            f"protocol: {protocol.value}  images: {report.images}",
            f"{'class':>12} {'tp':>6} {'fp':>6} {'fn':>6} {'f1':>8}",
            *(f"{r['class']:>12} {r['tp']:>6} {r['fp']:>6} {r['fn']:>6} "
              f"{r['f1']:>8.4f}" for r in per_class),
            f"{'macro_f1':>12} {'':>6} {'':>6} {'':>6} {report.macro_f1:>8.4f}",
        ]

    return _write_report(
        args,
        tables,
        {"radius": args.radius, "protocol": protocol.value, "class_ids": list(class_ids),
         "aggregate": aggregate.value},
        {"protocol": protocol.value, "per_class": per_class, "macro_f1": report.macro_f1,
         "images": report.images},
        render,
    )


def cmd_compare(args) -> int:
    from . import evaluation

    aggregate, tables, class_ids, names = _load_eval_inputs(args)
    rows = evaluation.compare_protocols(*tables, args.radius, class_ids, aggregate)
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
                (row["protocol"], pc["class"], f"{pc['f1']:.4f}", f"{pc['delta_pct']:.4f}")
                for pc in row["per_class"]
            ]
            cells.append((row["protocol"], "macro", f"{row['macro_f1']:.4f}",
                          f"{row['macro_delta_pct']:.4f}"))
        return [sep.join(c.rjust(w) for c, w in zip(line, widths)) for line in cells]

    return _write_report(
        args,
        tables,
        {"radius": args.radius, "class_ids": list(class_ids), "aggregate": aggregate.value},
        {"protocols": table},
        render,
    )


def cmd_match(args) -> int:
    from . import matching

    config = matching.MatchConfig(  # checks the options before any file is read
        tau=args.tau,
        beta=args.beta,
        bg_weight=args.lambda_bg,
        fg_weight=args.lambda_fg,
        reg_weight=args.lambda_reg,
        one2many_weight=args.lambda_one2many,
    )
    tables = tuple(map(pointfile.read_point_file, (args.gt, args.pred)))
    gt_by_image, pred_by_image = pointfile.match_inputs(*tables)

    images, notes = [], []
    for image_id in sorted(set(gt_by_image) | set(pred_by_image)):
        gts = gt_by_image.get(image_id) or as_point_set(())
        preds = pred_by_image.get(image_id) or as_point_set(())
        with warnings.catch_warnings(record=True) as caught:  # printed once, after the report
            warnings.simplefilter("always")
            try:  # match_hybrid refuses too few proposals and an oversized matrix
                one2one, one2many = matching.match_hybrid(gts, preds, config)
                costs = matching.build_cost_matrix(gts, preds, config.tau)
                losses = matching.combined_loss(gts, preds, config)
            except ValueError as exc:
                raise ConfigError(f"image {image_id}: {exc}") from None
        notes += dict.fromkeys(f"warning: image {image_id}: {w.message}\n" for w in caught)
        distances = distance_matrix(gts.xy, preds.xy)  # the distances of the costs

        def dump(outcome):
            pairs = [{"gt_index": gi, "pred_index": pi, "distance": distances[gi, pi],
                      "cost": costs.values[gi, pi]} for gi, pi in outcome.matched]
            return {"pairs": pairs, "negatives": list(outcome.negatives)}

        images.append({
            "image_id": image_id,
            "one_to_one": dump(one2one),
            "one_to_many": dump(one2many),
            "losses": losses._asdict(),
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

    code = _write_report(
        args,
        tables,
        {"tau": args.tau, "beta": args.beta, "lambda_bg": args.lambda_bg,
         "lambda_fg": args.lambda_fg, "lambda_reg": args.lambda_reg,
         "lambda_one2many": args.lambda_one2many},
        {"images": images},
        render,
    )
    sys.stderr.writelines(notes)
    return code


def cmd_synth(args) -> int:
    from . import synth

    if args.fixture is not None:
        image_id = "figure3"
        gts, preds = synth.figure3_fixture()
    else:
        if args.num_classes > synth.SIZE_LIMIT:  # before the class ids are built
            raise ConfigError(f"--num-classes must be at most {synth.SIZE_LIMIT:g}")
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
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (PointFileError, OSError) as exc:  # OSError: a missing, unreadable or directory path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
