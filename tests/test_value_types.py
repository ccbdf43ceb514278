"""The contract of the 16 value types: constructor order, keywords and
defaults, each validation message, equality, hashing, immutability, and the
``_replace``/``_asdict`` calls the CLI and the reader make."""

import copy
import dataclasses
import inspect
import math
import pickle

import numpy as np
import pytest

from pointmatch import cli
from pointmatch.anchors import AnchorSet, GridSpec
from pointmatch.evaluation import ClassCounts, EvalConfig, EvalReport, ProtocolComparison
from pointmatch.matching import (DEFAULT_BG_WEIGHT, DEFAULT_FG_WEIGHT, DEFAULT_ONE2MANY_WEIGHT,
                                 DEFAULT_REG_WEIGHT, DEFAULT_TAU, LossBreakdown, MatchConfig,
                                 MatchOutcome)
from pointmatch.pointfile import PointRecord, PointTable, read_point_file, write_point_file
from pointmatch.synth import PerturbationModel
from pointmatch.types import (_COORD_ERROR, Aggregate, Assignment, LabeledPoint, PointSet,
                              PredictedPoint, Protocol)

REQUIRED = inspect.Parameter.empty

# type: (fields in positional order with their defaults, one valid set of
# arguments, one other valid value for the first field)
TYPES = {
    LabeledPoint: ({"x": REQUIRED, "y": REQUIRED, "class_id": REQUIRED}, (1.0, 2.0, 1), 5.0),
    PredictedPoint: ({"x": REQUIRED, "y": REQUIRED, "confidences": REQUIRED},
                     (1.0, 2.0, (0.25, 0.75)), 5.0),
    PointSet: ({"xy": REQUIRED, "cls": REQUIRED, "conf": None},
               (np.zeros((1, 2)), np.ones(1, dtype=np.int64), None), np.ones((1, 2))),
    Assignment: ({"pairs": REQUIRED, "unmatched_rows": (), "unmatched_cols": ()},
                 (((0, 1),), (1,), (0,)), ((0, 2),)),
    PointRecord: ({"image_id": REQUIRED, "x": REQUIRED, "y": REQUIRED, "class_id": REQUIRED,
                   "confidence": None, "confidences": None}, ("a", 1.0, 2.0, 1, 0.5, None), "b"),
    PointTable: ({"image_id": REQUIRED, "xy": REQUIRED, "cls": REQUIRED, "confidence": None,
                  "confidences": None, "digest": None},
                 (("a",), np.zeros((1, 2)), np.ones(1, dtype=np.int64), None, None, "d"), ("b",)),
    MatchConfig: ({"tau": DEFAULT_TAU, "beta": 1,
                   "class_weights": (DEFAULT_BG_WEIGHT, DEFAULT_FG_WEIGHT),
                   "reg_weight": DEFAULT_REG_WEIGHT, "one2many_weight": DEFAULT_ONE2MANY_WEIGHT},
                  (0.1, 2, (1.0, 2.0), 0.5, 0.25), 0.2),
    MatchOutcome: ({"matched": REQUIRED, "negatives": REQUIRED}, (((0, 1),), (0,)), ()),
    LossBreakdown: ({"cls_1v1": REQUIRED, "reg_1v1": REQUIRED, "cls_1vN": REQUIRED,
                     "reg_1vN": REQUIRED, "combined": REQUIRED}, (1.0, 2.0, 3.0, 4.0, 5.0), 0.0),
    EvalConfig: ({"radius": 6.0, "protocol": Protocol.MATCHED, "class_ids": (1,),
                  "aggregate": Aggregate.DATASET_COUNTS},
                 (3.0, Protocol.GREEDY, (1, 2), Aggregate.PER_IMAGE_MEAN), 4.0),
    ClassCounts: ({"class_id": REQUIRED, "tp": 0, "fp": 0, "fn": 0}, (2, 3, 4, 5), 1),
    EvalReport: ({"per_class": REQUIRED, "macro_f1": REQUIRED, "protocol": REQUIRED,
                  "images": REQUIRED}, (((ClassCounts(1, 1), 1.0),), 1.0, Protocol.MATCHED, 1), ()),
    ProtocolComparison: ({"protocol": REQUIRED, "per_class_f1": REQUIRED, "macro_f1": REQUIRED,
                          "per_class_delta_pct": REQUIRED, "macro_delta_pct": REQUIRED},
                         (Protocol.GREEDY, ((1, 0.5),), 0.5, ((1, -50.0),), -50.0),
                         Protocol.MATCHED),
    GridSpec: ({"feature_height": REQUIRED, "feature_width": REQUIRED, "stride": REQUIRED,
                "per_cell": (2, 2)}, (2, 3, 8.0, (1, 2)), 4),
    AnchorSet: ({"positions": REQUIRED, "spec": REQUIRED},
                (((4.0, 4.0),), GridSpec(1, 1, 8.0, (1, 1))), ()),
    PerturbationModel: ({"seed": 0, "jitter_sigma": 0.0, "drop_rate": 0.0, "spurious_rate": 0.0,
                         "confusion": None, "extent": (224.0, 224.0), "density": 30.0,
                         "class_ids": (1,)},
                        (3, 1.0, 0.1, 2.0, ((0.5, 0.5), (0.0, 1.0)), (64.0, 32.0), 10.0, (1, 2)),
                        4),
}
# the plain records, which are NamedTuples
TUPLES = {PointRecord, MatchOutcome, LossBreakdown, ClassCounts, EvalReport, ProtocolComparison,
          AnchorSet}


def test_the_table_covers_every_value_type():
    assert len(TYPES) == 16
    assert not any(dataclasses.is_dataclass(t) for t in TYPES)
    assert {t for t in TYPES if issubclass(t, tuple)} == TUPLES


@pytest.mark.parametrize("kind", TYPES, ids=lambda t: t.__name__)
def test_positional_order_keywords_and_defaults(kind):
    fields, args, _ = TYPES[kind]
    parameters = inspect.signature(kind).parameters
    assert {n: p.default for n, p in parameters.items()} == fields
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters.values())
    by_position = kind(*args)
    by_keyword = kind(**dict(zip(fields, args)))
    for name, value in zip(fields, args):
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    defaults = {n: d for n, d in fields.items() if d is not REQUIRED}
    required = [a for a, d in zip(args, fields.values()) if d is REQUIRED]
    assert {n: getattr(kind(*required), n) for n in defaults} == defaults
    assert repr(by_position).startswith(f"{kind.__name__}({next(iter(fields))}=")


@pytest.mark.parametrize("kind", TYPES, ids=lambda t: t.__name__)
def test_equality_hashing_and_immutability(kind):
    fields, args, other_first = TYPES[kind]
    a, b, c = kind(*args), kind(*args), kind(other_first, *args[1:])
    first = next(iter(fields))
    if kind is PointSet:  # it holds arrays: equal only to itself
        assert a == a and a != b and hash(a) != hash(b)
    elif kind is PointTable:  # a sequence of records: equal to any with equal records
        assert a == b == [PointRecord("a", 0.0, 0.0, 1)] and a != c
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert a == b and hash(a) == hash(b) and a != c
        assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(AttributeError):
        setattr(a, first, other_first)
    with pytest.raises(AttributeError):
        delattr(a, first)
    assert getattr(a, first) is args[0]
    assert list(a._asdict()) == list(fields)
    assert a._replace(**{first: other_first})._asdict() == {**a._asdict(), first: other_first}


@pytest.mark.parametrize("build, message", [
    (lambda: LabeledPoint(0.0, 0.0, 0), "class_id must be >= 1 (0 is reserved for background)"),
    (lambda: LabeledPoint(math.nan, 0.0, 1), _COORD_ERROR),
    (lambda: LabeledPoint(0.0, 2e100, 1), _COORD_ERROR),
    (lambda: PredictedPoint(0.0, 0.0, (1.0,)),
     "confidences needs background plus at least one class"),
    (lambda: PredictedPoint(0.0, 0.0, (0.5, 1.5)), "confidences must lie in [0, 1]"),
    (lambda: PredictedPoint(math.inf, 0.0, (0.5, 0.5)), _COORD_ERROR),
    (lambda: Assignment(((0, 0), (0, 1))), "duplicate row or column index in pairs"),
    (lambda: Assignment(((0, 0),), unmatched_cols=(0,)), "matched index listed as unmatched"),
    (lambda: MatchConfig(tau=0.0), "tau must be positive and finite"),
    (lambda: MatchConfig(beta=1.5), "beta must be an integer, not 1.5"),
    (lambda: MatchConfig(beta=0), "beta must be >= 1"),
    (lambda: MatchConfig(class_weights=(1.0,)),
     "class_weights must cover background plus classes, all finite > 0"),
    (lambda: MatchConfig(one2many_weight=-1.0), "loss weights must be non-negative and finite"),
    (lambda: MatchConfig()._replace(beta=0), "beta must be >= 1"),
    (lambda: EvalConfig(radius=math.inf), "radius must be positive and finite"),
    (lambda: EvalConfig(class_ids=(1, 1)), "class_ids must be non-empty and unique"),
    (lambda: GridSpec(0, 1, 8.0), "feature map dimensions must be >= 1"),
    (lambda: GridSpec(1, 1, math.nan), "stride must be positive and finite"),
    (lambda: GridSpec(1, 1, 8.0, (1, 0)), "per-cell anchor counts must be >= 1"),
    (lambda: PerturbationModel(seed=2**64), "seed must be in [0, 2**64) (--seed)"),
    (lambda: PerturbationModel(drop_rate=1.5), "drop_rate must be in [0, 1]"),
    (lambda: PerturbationModel(jitter_sigma=-1.0),
     "rates and sigma must be non-negative and finite"),
    (lambda: PerturbationModel(extent=(0.0, 1.0)),
     "extent must be positive, finite and at most 1e+100"),
    (lambda: PerturbationModel(extent=(1e100, 1.0), jitter_sigma=1e99),
     "extent + 40 * jitter sigma must be at most 1e+100 (--extent, --jitter)"),
    (lambda: PerturbationModel(density=2e6),
     "density and spurious rate must be at most 1e+06 (--density, --spurious)"),
    (lambda: PerturbationModel(class_ids=()), "at least one class id required"),
    (lambda: PerturbationModel(confusion=((1.0,), (1.0,))),
     "confusion matrix must be TxT over class_ids"),
    (lambda: PerturbationModel(confusion=((0.5,),)),
     "confusion rows must be non-negative and sum to 1"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


def test_the_cli_and_the_reader_replace_and_dump_fields(tmp_path):
    # cmd_match renumbers a table's classes and sizes the class weights with
    # _replace, which keeps the other fields and checks again; its report
    # lists the losses in _asdict's field order
    path = str(tmp_path / "pred.csv")
    write_point_file(path, [PointRecord("a", 1.0, 0.0, 3, confidences=(0.1, 0.2, 0.3, 0.4))])
    table = read_point_file(path)
    assert table.digest is not None  # set by the reader with _replace
    renumbered = table._replace(cls=np.array([1]))
    assert type(renumbered) is PointTable and renumbered.cls.tolist() == [1]
    assert renumbered.digest == table.digest and renumbered.confidences is table.confidences
    config = MatchConfig(0.1, 2, (0.5, 10.0), 0.01, 0.25)
    assert config._replace(class_weights=(0.5, 10.0, 10.0)) == MatchConfig(
        0.1, 2, (0.5, 10.0, 10.0), 0.01, 0.25)
    assert list(LossBreakdown(1.0, 2.0, 3.0, 4.0, 5.0)._asdict().items()) == [
        ("cls_1v1", 1.0), ("reg_1v1", 2.0), ("cls_1vN", 3.0), ("reg_1vN", 4.0), ("combined", 5.0)]
    gt = tmp_path / "gt.csv"
    gt.write_text("image_id,x,y,class_id\na,0,0,3\n")
    out = tmp_path / "report.txt"
    assert cli.main(["match", str(gt), path, "--format", "table", "--output", str(out)]) == 0
    losses = next(line for line in out.read_text().splitlines() if "losses:" in line)
    assert [kv.split("=")[0] for kv in losses.split()[1:]] == list(LossBreakdown._fields)


def test_records_are_tuples_and_checked_types_are_not():
    # a NamedTuple also equals the plain tuple of its fields; a checked type
    # equals only an instance of its own type
    assert ClassCounts(1, 2, 3, 4) == (1, 2, 3, 4)
    assert LabeledPoint(1.0, 2.0, 1) != (1.0, 2.0, 1)
