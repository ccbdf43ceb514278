"""Point-file I/O: CSV and JSON readers/writers for ground-truth and
prediction point sets.

CSV schema (UTF-8, optionally with a byte-order mark, comma-delimited, LF):
    image_id,x,y,class_id
    image_id,x,y,class_id,confidence
    image_id,x,y,class_id,conf_bg,conf_1,...,conf_T
An empty ``confidence`` cell is a record without a confidence, and a row
whose ``conf_*`` cells are all empty a record without a vector. The JSON
variant is an array of objects with the same field names (``confidences``
holds the vector); ``image_id`` must be a JSON string.

A file is read into one ``PointTable`` of numpy columns, validated as a
whole; the first faulty line is located only once a check fails. A plain
CSV is split into columns with no object per row, one with quotes, CR or
over-long lines is read by ``csv.reader``; a NUL is refused on its line.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
from collections.abc import Sequence
from contextlib import suppress
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .types import _COORD_ERROR, _MAX_COORD, PointSet, _Frozen

_BASE_COLUMNS = ["image_id", "x", "y", "class_id"]


class PointFileError(Exception):
    """Malformed input file; message carries the offending line number."""


class PointRecord(NamedTuple):
    image_id: str
    x: float
    y: float
    class_id: int
    confidence: float | None = None
    confidences: tuple[float, ...] | None = None


class PointTable(_Frozen, Sequence):
    """The records of one point file as numpy columns, in file order.

    ``confidence`` (n,) is NaN where a record has no confidence, and the
    rows of ``confidences`` (n, T+1) are NaN where a record has no vector;
    a column is None when no record has one. ``digest`` is the sha256 of
    the bytes the table was parsed from. As a sequence the table yields
    ``PointRecord``s, so it compares equal to the records it was written
    from.
    """

    __slots__ = ("image_id", "xy", "cls", "confidence", "confidences", "digest")

    def __init__(self, image_id: Sequence[str], xy: np.ndarray, cls: np.ndarray,
                 confidence: np.ndarray | None = None, confidences: np.ndarray | None = None,
                 digest: str | None = None):
        self._set(image_id, xy, cls, confidence, confidences, digest)

    def __len__(self) -> int:
        return len(self.cls)

    def __getitem__(self, i: int) -> PointRecord:
        x, y = self.xy[i].tolist()
        conf = None if self.confidence is None else float(self.confidence[i])
        vector = None if self.confidences is None else self.confidences[i]
        return PointRecord(
            self.image_id[i], x, y, int(self.cls[i]),
            None if conf is None or math.isnan(conf) else conf,
            None if vector is None or np.isnan(vector).all() else tuple(vector.tolist()),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


class _BadRow(Exception):
    """A fault in row ``index`` of the rows a table is built from."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _checked(rows: list, build, where) -> PointTable:
    """``build(rows)``, or PointFileError naming the first faulty row.

    A build stops at the first fault of its first failing stage, but an
    earlier row may hold a fault that a later stage checks; so the rows
    before the fault are built first, to raise for that row instead.
    """
    try:
        return build(rows)
    except _BadRow as bad:
        _checked(rows[: bad.index], build, where)
        raise PointFileError(f"{where(bad.index)}: {bad}") from None


def _column(cells, dtype) -> np.ndarray:
    """``cells`` (values or rows of values) as one array of ``dtype``."""
    try:
        return np.array(cells, dtype=dtype)
    except (ValueError, OverflowError):
        for i, cell in enumerate(cells):
            try:
                np.array([cell], dtype=dtype)
            except (ValueError, OverflowError) as exc:
                raise _BadRow(i, str(exc)) from None
        raise


def _table(image_id, xy, cls, confidence=None, confidences=None,
           no_confidence=None, no_vector=None) -> PointTable:
    """Validate the columns, then mark with NaN the records that have no
    confidence or no vector, whose cells hold zero placeholders until then."""
    checks = [
        (cls < 1, "class_id must be >= 1"),
        (~(np.abs(xy) <= _MAX_COORD).all(axis=1), _COORD_ERROR),
    ]
    if confidence is not None:
        checks.append((~((confidence >= 0.0) & (confidence <= 1.0)),
                       "confidence must be in [0, 1]"))
    if confidences is not None:
        outside = cls > confidences.shape[1] - 1
        checks += [
            (~((confidences >= 0.0) & (confidences <= 1.0)).all(axis=1),
             "confidences must be in [0, 1]"),
            (outside if no_vector is None else outside & ~no_vector,
             "class_id outside confidence vector"),
        ]
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        raise _BadRow(i, next(message for mask, message in checks if mask[i]))
    columns = [confidence, confidences]
    for i, missing in enumerate((no_confidence, no_vector)):
        if missing is not None:
            columns[i][missing] = np.nan
        if not len(cls) or missing is not None and missing.all():
            columns[i] = None  # no record fills the column, as in JSON
    return PointTable(image_id, xy, cls, *columns)


def _parse_csv(lines: io.TextIOBase) -> PointTable:
    text = lines.read()
    if "\0" in text:  # Python 3.10's csv refuses a NUL, later versions read it
        line = len(io.StringIO(text[: text.index("\0") + 1], newline="").readlines())
        raise PointFileError(f"line {line}: line contains NUL")
    # without a quote, a CR or a line past the field size limit, csv.reader's
    # rows are the comma-separated fields of the lines between the \n's
    # (str.splitlines also breaks at \x0b, \x85 or \u2028, which csv keeps)
    plain = None if not text or '"' in text or "\r" in text else text.split("\n")
    del text
    if plain is not None and max(map(len, plain)) <= csv.field_size_limit():
        header = plain[0].split(",")
    else:
        plain = None
        lines.seek(0)
        reader = csv.reader(lines)
        try:
            header = next(reader)
            rows = list(reader)
        except StopIteration:
            raise PointFileError("line 1: missing header") from None
        except csv.Error as exc:  # e.g. an unclosed quote runs past the field size limit
            raise PointFileError(f"line {reader.line_num}: {exc}") from None
    header = [h.strip() for h in header]
    if header[:4] != _BASE_COLUMNS:
        raise PointFileError("line 1: header must start with image_id,x,y,class_id")
    extra = header[4:]
    vector = ["conf_bg"] + [f"conf_{t}" for t in range(1, len(extra))]
    if extra and extra != ["confidence"] and (extra != vector or len(extra) < 2):
        raise PointFileError(
            "line 1: extra columns must be confidence or conf_bg,conf_1,...,conf_T"
        )
    width = len(header)

    def from_columns(columns) -> PointTable:
        xy = np.stack([_column(columns[1], float), _column(columns[2], float)], axis=1)
        cls = _column(columns[3], np.int64)
        image_id = tuple(columns[0])
        if not extra:
            return _table(image_id, xy, cls)
        cells = columns[4:]
        # a row whose extra cells are all empty is a record without a
        # confidence (vector); a row with only some empty fails to parse
        empty = None
        if any("" in c for c in cells):
            empty = np.logical_and.reduce([np.array(c) == "" for c in cells])
            cells = [["0" if e else v for v, e in zip(c, empty)] for c in cells]
        values = np.stack([_column(c, float) for c in cells], axis=1)
        if extra == ["confidence"]:
            return _table(image_id, xy, cls, values[:, 0], no_confidence=empty)
        return _table(image_id, xy, cls, confidences=values, no_vector=empty)

    def build(rows) -> PointTable:
        if set(map(len, rows)) - {width}:
            short = next(i for i, row in enumerate(rows) if len(row) != width)
            raise _BadRow(short, f"expected {width} fields, got {len(rows[short])}")
        return from_columns(list(zip(*rows)) or [()] * width)

    def where(i: int) -> str:
        # a quoted field may hold a line break, so the line each row starts
        # on comes from reading the file's bytes again
        lines.seek(0)
        reader = csv.reader(lines)
        ends = [reader.line_num for _ in reader]  # the last lines of the header and rows
        return f"line {[end + 1 for end, row in zip(ends, rows) if row][i]}"

    if plain is not None:
        # one split of the joined records, read as strided columns, with the lines
        # freed first; a fault is located on the rows csv.reader would give
        records = list(filter(None, plain[1:]))
        del plain
        if records and not set(map(str.count, records, repeat(","))) - {width - 1}:
            joined = ",".join(records)
            del records
            cells = joined.split(",")
            del joined
            with suppress(_BadRow):
                return from_columns([cells[j::width] for j in range(width)])
        lines.seek(0)
        rows = [line.split(",") if line else [] for line in lines.read().split("\n")[1:]]
    return _checked(list(filter(None, rows)), build, where)


def _is_number(value, kind=(int, float)) -> bool:
    # JSON numbers only: a string would be coerced, and a boolean is an int
    return isinstance(value, kind) and not isinstance(value, bool)


def _number(value, name: str, kind=(int, float)):
    if not _is_number(value, kind):
        raise ValueError(f"{name} must be a JSON {'integer' if kind is int else 'number'}")
    return value


def _check_fields(obj: dict) -> None:
    """The type checks of one JSON record's fields, which the writer also
    makes of every record it writes (whose vector is a tuple)."""
    vector = obj.get("confidences")
    if vector is not None and not (isinstance(vector, (list, tuple))
                                   and all(map(_is_number, vector))):
        raise ValueError("confidences must be an array of numbers")
    if not isinstance(obj["image_id"], str):
        raise ValueError("image_id must be a JSON string")
    _number(obj["x"], "x")
    _number(obj["y"], "y")
    _number(obj["class_id"], "class_id", int)
    if obj.get("confidence") is not None:
        _number(obj["confidence"], "confidence")


def _json_table(data: list) -> PointTable:
    image_id, x, y, cls, conf, vectors = [], [], [], [], [], []
    width = None
    for i, obj in enumerate(data):
        try:
            if not isinstance(obj, dict):
                raise ValueError("a record must be a JSON object")
            _check_fields(obj)
            vector = obj.get("confidences")
            if vector is not None:
                width = len(vector) if width is None else width
                if len(vector) != width:
                    raise ValueError("confidences must all have the same length")
            image_id.append(obj["image_id"])
            x.append(obj["x"])
            y.append(obj["y"])
            cls.append(obj["class_id"])
            conf.append(obj.get("confidence"))
            vectors.append(vector)
        except (KeyError, TypeError, ValueError) as exc:
            raise _BadRow(i, str(exc)) from None
    xy = np.stack([_column(x, float), _column(y, float)], axis=1)
    confidence = no_confidence = confidences = no_vector = None
    if any(c is not None for c in conf):
        no_confidence = np.array([c is None for c in conf])
        confidence = _column([0.0 if c is None else c for c in conf], float)
    if width is not None:
        no_vector = np.array([v is None for v in vectors])
        confidences = _column([[0.0] * width if v is None else v for v in vectors], float)
    return _table(image_id, xy, _column(cls, np.int64), confidence, confidences,
                  no_confidence, no_vector)


def _parse_json(text: str) -> PointTable:
    try:
        data = json.loads(text)
    # RecursionError: arrays or objects nested too deeply
    except (json.JSONDecodeError, RecursionError) as exc:
        raise PointFileError(f"invalid JSON: {exc}") from None
    # the one other ValueError: int() refusing a literal past the
    # interpreter's digit limit
    except ValueError:
        raise PointFileError(
            f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    if not isinstance(data, list):
        raise PointFileError("JSON point file must be an array of records")
    return _checked(data, _json_table, lambda i: f"record {i}")


def read_point_file(path: str) -> PointTable:
    """The table of one file, read once: its ``digest`` hashes the bytes
    that were parsed, and a byte that is not UTF-8 is named by its offset
    in the file."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        data.decode("utf-8")  # whole, so that an error's offset is the file's
    except UnicodeDecodeError as exc:
        raise PointFileError(
            f"byte offset {exc.start}: byte 0x{exc.object[exc.start]:02x} is not valid UTF-8"
        ) from None
    # csv.reader decodes the bytes as it reads them: a StringIO of the decoded
    # text would copy the file again at 4 bytes a character
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="") as lines:
        table = _parse_json(lines.read()) if path.endswith(".json") else _parse_csv(lines)
    return table._replace(digest=hashlib.sha256(data).hexdigest())


def _plain(value):
    # a numpy scalar as the Python value it holds: numpy 2 writes an np.float64
    # as "np.float64(1.5)", and json refuses an np.int64
    return value.item() if isinstance(value, np.generic) else value


def write_point_file(path: str, records: list[PointRecord]) -> None:
    records = [PointRecord(*map(_plain, r[:5]), None if r.confidences is None
                           else tuple(map(_plain, r.confidences))) for r in records]
    n_conf = next((len(r.confidences) for r in records if r.confidences is not None), 0)
    for i, r in enumerate(records):
        try:
            _check_fields(r._asdict())
        except ValueError as exc:
            raise ValueError(f"record {i} (image {r.image_id}): {exc}") from None
        if r.confidences is not None and len(r.confidences) != n_conf:
            raise ValueError(f"record {i} (image {r.image_id}): {len(r.confidences)} "
                             f"confidences, but the first vector has {n_conf}")
        if r.confidences is not None and (n_conf < 2 or r.class_id >= n_conf):
            raise ValueError(f"record {i} (image {r.image_id}): {n_conf} confidences, but "
                             f"a vector needs bg, 1..T with T >= {max(r.class_id, 1)}")
        if "\0" in r.image_id and not path.endswith(".json"):
            raise ValueError(f"record {i} (image {r.image_id!r}): a CSV image_id cannot hold a NUL")
    # the reader's checks of the columns, so that no file it refuses is written
    vectors = [(0.0,) * n_conf if r.confidences is None else r.confidences for r in records]
    try:
        _table(None, _column([(r.x, r.y) for r in records], float).reshape(-1, 2),
               _column([r.class_id for r in records], np.int64),
               _column([r.confidence or 0.0 for r in records], float),
               _column(vectors, float) if n_conf else None,
               no_vector=np.array([r.confidences is None for r in records]) if n_conf else None)
    except _BadRow as bad:
        i = bad.index
        raise ValueError(f"record {i} (image {records[i].image_id}): {bad}") from None
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

    has_single = any(r.confidence is not None for r in records)
    header = list(_BASE_COLUMNS)
    if n_conf:
        header += ["conf_bg"] + [f"conf_{t}" for t in range(1, n_conf)]
        if has_single:
            i = next(i for i, r in enumerate(records) if r.confidence is not None)
            raise ValueError(
                f"record {i} (image {records[i].image_id}): a conf_* CSV has no column "
                "for its single confidence"
            )
    elif has_single:
        header += ["confidence"]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        writer = csv.writer(f, lineterminator="\n")
        # csv quotes a field holding a CR only from Python 3.13 on
        quoted = csv.writer(f, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(header)
        for r in records:
            row = [r.image_id, repr(r.x), repr(r.y), r.class_id]
            if n_conf:
                row += [""] * n_conf if r.confidences is None else [repr(c) for c in r.confidences]
            elif has_single:
                row += [repr(r.confidence) if r.confidence is not None else ""]
            (quoted if "\r" in r.image_id else writer).writerow(row)


def _image_rows(table: PointTable):
    """(image_id, row indices in file order) per image, in order of first
    appearance, from one stable sort of the image codes."""
    index = {image_id: code for code, image_id in enumerate(dict.fromkeys(table.image_id))}
    codes = np.fromiter(map(index.__getitem__, table.image_id), dtype=np.intp, count=len(table))
    order = np.argsort(codes, kind="stable")
    return zip(index, np.split(order, np.cumsum(np.bincount(codes))[:-1]))


def group_labeled(table: PointTable) -> dict[str, PointSet]:
    """Group a table by image into PointSets (confidences ignored)."""
    return {
        image_id: PointSet(table.xy[rows], table.cls[rows])
        for image_id, rows in _image_rows(table)
    }


def group_predicted(table: PointTable, num_classes: int) -> dict[str, PointSet]:
    """Group a table by image into proposal PointSets, each with its
    (bg, 1..num_classes) confidence matrix ``conf``.

    Records with full confidence vectors are taken as-is; records with a
    single confidence c are treated as one-class predictions (bg = 1 - c);
    records with no confidence get full confidence for their class.
    """
    n = len(table)
    vector = np.zeros(n, dtype=bool)
    if table.confidences is not None:
        vector = ~np.isnan(table.confidences).all(axis=1)
        if table.confidences.shape[1] != num_classes + 1 and vector.any():
            raise PointFileError(
                f"record for image {table.image_id[int(np.argmax(vector))]}: expected "
                f"{num_classes + 1} confidences, got {table.confidences.shape[1]}"
            )
    conf = np.zeros((n, num_classes + 1))
    if vector.any():
        conf[vector] = table.confidences[vector]
    single = np.ones(n) if table.confidence is None else table.confidence
    plain = np.flatnonzero(~vector)
    if (table.cls[plain] > num_classes).any():
        i = plain[np.argmax(table.cls[plain] > num_classes)]
        raise PointFileError(f"record for image {table.image_id[i]}: class {table.cls[i]} "
                             f"is outside classes 1..{num_classes}")
    level = np.where(np.isnan(single[plain]), 1.0, single[plain])
    conf[plain, table.cls[plain]] = level
    conf[plain, 0] = 1.0 - level
    return {
        image_id: PointSet(table.xy[rows], table.cls[rows], conf[rows])
        for image_id, rows in _image_rows(table)
    }
