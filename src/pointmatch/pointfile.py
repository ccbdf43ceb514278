"""Point-file I/O: CSV and JSON readers/writers for ground-truth and
prediction point sets, plus the run manifest attached to every report.

CSV schema (UTF-8, comma-delimited, LF):
    image_id,x,y,class_id
    image_id,x,y,class_id,confidence
    image_id,x,y,class_id,conf_bg,conf_1,...,conf_T
The JSON variant is an array of objects with the same field names.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__ as TOOL_VERSION
from .types import LabeledPoint, PredictedPoint


class PointFileError(Exception):
    """Malformed input file; message carries the offending line number."""


@dataclass(frozen=True)
class PointRecord:
    image_id: str
    x: float
    y: float
    class_id: int
    confidence: float | None = None
    confidences: tuple[float, ...] | None = None


@dataclass
class RunManifest:
    tool_version: str = TOOL_VERSION
    config: dict = field(default_factory=dict)
    input_digests: dict = field(default_factory=dict)
    timestamp: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat(timespec="seconds")
    )

    def as_dict(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "config": self.config,
            "input_digests": self.input_digests,
            "timestamp": self.timestamp,
        }


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _check_record(rec: PointRecord, lineno) -> PointRecord:
    where = f"line {lineno}" if lineno is not None else f"record {rec!r}"
    if rec.class_id < 1:
        raise PointFileError(f"{where}: class_id must be >= 1")
    if not (math.isfinite(rec.x) and math.isfinite(rec.y)):
        raise PointFileError(f"{where}: coordinates must be finite")
    if rec.confidence is not None and not 0.0 <= rec.confidence <= 1.0:
        raise PointFileError(f"{where}: confidence must be in [0, 1]")
    if rec.confidences is not None:
        if any(not 0.0 <= c <= 1.0 for c in rec.confidences):
            raise PointFileError(f"{where}: confidences must be in [0, 1]")
        if rec.class_id > len(rec.confidences) - 1:
            raise PointFileError(f"{where}: class_id outside confidence vector")
    return rec


def _parse_csv(text: str) -> list[PointRecord]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise PointFileError("line 1: missing header") from None
    header = [h.strip() for h in header]
    if header[:4] != ["image_id", "x", "y", "class_id"]:
        raise PointFileError(
            "line 1: header must start with image_id,x,y,class_id"
        )
    extra = header[4:]
    if extra and extra != ["confidence"] and (not extra[0] == "conf_bg"):
        raise PointFileError("line 1: unrecognized extra columns")
    n_conf = len(extra) if extra and extra[0] == "conf_bg" else 0

    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise PointFileError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            image_id = row[0]
            x, y = float(row[1]), float(row[2])
            class_id = int(row[3])
            confidence = None
            confidences = None
            if extra == ["confidence"]:
                confidence = float(row[4])
            elif n_conf:
                confidences = tuple(float(v) for v in row[4:])
        except ValueError as exc:
            raise PointFileError(f"line {lineno}: {exc}") from None
        records.append(
            _check_record(
                PointRecord(image_id, x, y, class_id, confidence, confidences), lineno
            )
        )
    return records


def _is_number(value, kind=(int, float)) -> bool:
    # JSON numbers only: a string would be coerced, and a boolean is an int
    return isinstance(value, kind) and not isinstance(value, bool)


def _number(value, name: str, kind=(int, float)):
    if not _is_number(value, kind):
        raise ValueError(f"{name} must be a JSON {'integer' if kind is int else 'number'}")
    return value


def _parse_json(text: str) -> list[PointRecord]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PointFileError(f"invalid JSON: {exc}") from None
    if not isinstance(data, list):
        raise PointFileError("JSON point file must be an array of records")
    records = []
    for i, obj in enumerate(data):
        try:
            if not isinstance(obj, dict):
                raise ValueError("a record must be a JSON object")
            conf, confs = obj.get("confidence"), obj.get("confidences")
            if confs is not None and not (isinstance(confs, list) and all(map(_is_number, confs))):
                raise ValueError("confidences must be an array of numbers")
            rec = PointRecord(
                image_id=str(obj["image_id"]),
                x=float(_number(obj["x"], "x")),
                y=float(_number(obj["y"], "y")),
                class_id=_number(obj["class_id"], "class_id", int),
                confidence=None if conf is None else float(_number(conf, "confidence")),
                confidences=None if confs is None else tuple(confs),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PointFileError(f"record {i}: {exc}") from None
        records.append(_check_record(rec, None))
    return records


def read_point_file(path: str) -> list[PointRecord]:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if path.endswith(".json"):
        return _parse_json(text)
    return _parse_csv(text)


def write_point_file(path: str, records: list[PointRecord]) -> None:
    if path.endswith(".json"):
        payload = []
        for r in records:
            obj = {"image_id": r.image_id, "x": r.x, "y": r.y, "class_id": r.class_id}
            if r.confidence is not None:
                obj["confidence"] = r.confidence
            if r.confidences is not None:
                obj["confidences"] = list(r.confidences)
            payload.append(obj)
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        return

    n_conf = 0
    has_single = any(r.confidence is not None for r in records)
    for r in records:
        if r.confidences is not None:
            n_conf = max(n_conf, len(r.confidences))
    header = ["image_id", "x", "y", "class_id"]
    if n_conf:
        header += ["conf_bg"] + [f"conf_{t}" for t in range(1, n_conf)]
    elif has_single:
        header += ["confidence"]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for r in records:
            row = [r.image_id, repr(r.x), repr(r.y), r.class_id]
            if n_conf:
                row += [repr(c) for c in r.confidences]
            elif has_single:
                row += [repr(r.confidence) if r.confidence is not None else ""]
            writer.writerow(row)


def group_labeled(records: list[PointRecord]) -> dict[str, list[LabeledPoint]]:
    """Group records by image into LabeledPoint lists (confidences ignored)."""
    out: dict[str, list[LabeledPoint]] = {}
    for r in records:
        out.setdefault(r.image_id, []).append(LabeledPoint(x=r.x, y=r.y, class_id=r.class_id))
    return out


def group_predicted(
    records: list[PointRecord], num_classes: int
) -> dict[str, list[PredictedPoint]]:
    """Group records by image into PredictedPoint lists.

    Records with full confidence vectors are taken as-is; records with a
    single confidence c are treated as one-class predictions (bg = 1 - c);
    records with no confidence get full confidence for their class.
    """
    out: dict[str, list[PredictedPoint]] = {}
    for r in records:
        if r.confidences is not None:
            conf = r.confidences
            if len(conf) != num_classes + 1:
                raise PointFileError(
                    f"record for image {r.image_id}: expected {num_classes + 1} "
                    f"confidences, got {len(conf)}"
                )
        else:
            c = r.confidence if r.confidence is not None else 1.0
            conf = [0.0] * (num_classes + 1)
            conf[r.class_id] = c
            conf[0] = 1.0 - c
            conf = tuple(conf)
        out.setdefault(r.image_id, []).append(PredictedPoint(x=r.x, y=r.y, confidences=conf))
    return out
