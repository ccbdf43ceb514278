import csv
import gc
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pointmatch import pointfile
from pointmatch.pointfile import (
    _COORD_ERROR,
    PointFileError,
    PointRecord,
    match_inputs,
    read_point_file,
    write_point_file,
)


def roundtrip(tmp_path, records, name):
    path = str(tmp_path / name)
    write_point_file(path, records)
    return path, read_point_file(path)


# records with and without a confidence in one file
MIXED = [
    PointRecord("a", 1.0, 2.0, 1, confidence=0.5),
    PointRecord("b", -1.0, 0.0, 3),
]


def table(tmp_path, records):
    """The PointTable the reader makes of ``records``."""
    return roundtrip(tmp_path, records, "table.csv")[1]


class TestRoundTrip:
    def test_csv_plain(self, tmp_path):
        records = [
            PointRecord("im1", 1.5, 2.25, 1),
            PointRecord("im1", -3.0, 0.125, 2),
            PointRecord("im2", 10.0, 20.0, 1),
        ]
        path, back = roundtrip(tmp_path, records, "pts.csv")
        assert back == records
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + open(path, "rb").read())
        assert read_point_file(str(bom)) == records

    def test_csv_with_confidence(self, tmp_path):
        for i, records in enumerate([[PointRecord("a", 0.0, 0.0, 1, confidence=0.75)], MIXED]):
            _, back = roundtrip(tmp_path, records, f"pts{i}.csv")
            assert back == records

    def test_csv_with_confidence_vector(self, tmp_path):
        vector = PointRecord("a", 1.0, 2.0, 2, confidences=(0.1, 0.2, 0.7))
        # records with and without a vector, as one JSON file may hold them
        for i, records in enumerate([[vector], [vector, PointRecord("b", 0.0, 0.0, 1)]]):
            _, back = roundtrip(tmp_path, records, f"pts{i}.csv")
            assert back == records
        partial = tmp_path / "partial.csv"
        partial.write_text("image_id,x,y,class_id,conf_bg,conf_1\na,1,2,1,,\na,1,2,1,0.5,\n")
        with pytest.raises(PointFileError, match="line 3"):
            read_point_file(str(partial))
        with pytest.raises(ValueError, match="record 1"):
            write_point_file(str(tmp_path / "single.csv"), [vector, MIXED[0]])

    def test_json_roundtrip(self, tmp_path):
        _, back = roundtrip(tmp_path, MIXED, "pts.json")
        assert back == MIXED

    def test_byte_stable_write(self, tmp_path):
        records = [PointRecord("a", 1.0, 2.0, 1)]
        p1 = str(tmp_path / "one.csv")
        p2 = str(tmp_path / "two.csv")
        write_point_file(p1, records)
        write_point_file(p2, records)
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
        assert read_point_file(p1).digest == read_point_file(p2).digest


class TestParseErrors:
    def test_bad_header(self, tmp_path):
        base = "image_id,x,y,class_id"
        path = tmp_path / "bad.csv"
        for header in ["x,y,z", f"{base},conf_bg,foo", f"{base},conf_bg,conf_bg",
                       f"{base},confidence,confidence", f"{base},conf_bg", f"{base},image_id"]:
            path.write_text(header + "\n")
            with pytest.raises(PointFileError, match="line 1"):
                read_point_file(str(path))

    def test_bad_class_id(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("image_id,x,y,class_id\nim,1,2,0\n")
        with pytest.raises(PointFileError, match="class_id must be >= 1"):
            read_point_file(str(path))
        # a quoted image_id spanning lines 2-3 puts the faulty row on line 4
        path.write_text('image_id,x,y,class_id\n"a\nb",1,2,1\nc,1,2,0\n')
        with pytest.raises(PointFileError, match="line 4: class_id must be >= 1"):
            read_point_file(str(path))

    def test_non_numeric_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("image_id,x,y,class_id\nim,1,2,1\nim,oops,2,1\n")
        with pytest.raises(PointFileError, match="line 3"):
            read_point_file(str(path))

    def test_confidence_out_of_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("image_id,x,y,class_id,confidence\nim,1,2,1,1.5\n")
        with pytest.raises(PointFileError, match="confidence"):
            read_point_file(str(path))

    def test_unclosed_quote(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('image_id,x,y,class_id\n"a,1,2,1\n' + "b,1,2,1\n" * 20000)
        with pytest.raises(PointFileError, match="field larger than field limit"):
            read_point_file(str(path))

    def test_nul_refused_on_its_physical_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("image_id,x,y,class_id\0\na,1,2,1\n")
        with pytest.raises(PointFileError) as refused:
            read_point_file(str(path))
        assert str(refused.value) == "line 1: line contains NUL"
        # inside a quoted field that spans lines 2-3, on line 3
        path.write_text('image_id,x,y,class_id\r\n"a\n\0b",1,2,1\r\n')
        with pytest.raises(PointFileError) as refused:
            read_point_file(str(path))
        assert str(refused.value) == "line 3: line contains NUL"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(PointFileError):
            read_point_file(str(path))

    def test_long_json_integer(self, tmp_path):
        path = tmp_path / "digits.json"
        path.write_text('[{"image_id": "a", "x": ' + "1" * 5000 + ', "y": 1, "class_id": 1}]')
        with pytest.raises(PointFileError) as refused:
            read_point_file(str(path))
        assert str(refused.value) == "invalid JSON: an integer has more than 4300 digits"


class TestGrouping:
    """``match_inputs`` groups each table by image into PointSets."""

    def test_group_labeled(self, tmp_path):
        records = [
            PointRecord("a", 0, 0, 1),
            PointRecord("b", 1, 1, 2),
            PointRecord("a", 2, 2, 1),
        ]
        groups, _ = match_inputs(table(tmp_path, records), table(tmp_path, []))
        assert set(groups) == {"a", "b"}
        assert len(groups["a"]) == 2

    def test_group_predicted_single_confidence(self, tmp_path):
        gt = table(tmp_path, [PointRecord("a", 5, 5, 1)])
        records = [PointRecord("a", 0, 0, 2, confidence=0.8)]
        _, groups = match_inputs(gt, table(tmp_path, records))
        assert groups["a"].conf.shape[1] - 1 == 2  # K
        assert groups["a"].conf[0].tolist() == [0.19999999999999996, 0.0, 0.8]

    def test_group_predicted_full_vector(self, tmp_path):
        records = [PointRecord("a", 0, 0, 1, confidences=(0.1, 0.9))]
        _, groups = match_inputs(table(tmp_path, []), table(tmp_path, records))
        assert groups["a"].conf.shape[1] - 1 == 1  # K
        assert groups["a"].conf[0].tolist() == [0.1, 0.9]

    def test_group_predicted_missing_confidence(self, tmp_path):
        records = [PointRecord("a", 0, 0, 1, confidence=0.25), PointRecord("a", 1, 1, 1)]
        _, groups = match_inputs(table(tmp_path, []), table(tmp_path, records))
        assert groups["a"].conf.tolist() == [[0.75, 0.25], [0.0, 1.0]]


# Lines of CSV text without quotes or CR: every header schema, rows with
# too few or too many fields, bad numbers, class 0, confidences outside
# [0, 1], empty confidence cells, blank and whitespace-only lines, and
# characters that str.splitlines would break at but csv keeps in a field
HEADERS = st.sampled_from([
    "image_id,x,y,class_id",
    "image_id,x,y,class_id,confidence",
    "image_id,x,y,class_id,conf_bg,conf_1",
    "image_id,x,y,class_id,conf_bg,conf_1,conf_2",
] * 3 + [" image_id, x,y,class_id", "image_id,x,y"])
# valid cells are drawn more often than faulty ones, so that many files parse
IMAGE_IDS = st.sampled_from(["a", "b", "", " im 1", "a\x0bb", "c\x1cd", "e\x85", "f\u2028g", "\xe9"])
NUMBERS = st.sampled_from(["0", "1.5", "-3", "1e3", "1_0", " 2", "12.5"] * 6
                          + ["nan", "inf", "1e400", "oops", ""])
CLASSES = st.sampled_from(["1", "2", "3", " 1"] * 4 + ["0", "-1", "1.5", ""])
CONFIDENCES = st.sampled_from(["", "0", "0.25", "1"] * 4 + ["1.5", "-0.1", "nan", "x"])


@st.composite
def csv_texts(draw):
    header = draw(HEADERS)
    width = header.count(",") + 1
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 12 + ["blank", "space", "short", "long"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", " , "])))
        else:
            fields = [draw(IMAGE_IDS), draw(NUMBERS), draw(NUMBERS), draw(CLASSES)]
            fields += [draw(CONFIDENCES) for _ in range(width - 4)]
            fields = fields[:width]
            if kind == "short":
                fields = fields[: draw(st.integers(1, width - 1))]
            elif kind == "long":
                fields.append(draw(NUMBERS))
            lines.append(",".join(fields))
    if draw(st.integers(0, 19)) == 0:  # a line past the field size limit
        lines.insert(draw(st.integers(1, len(lines))), "z" * (csv.field_size_limit() + 1) + ",1,1,1")
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def _outcome(path):
    """What the reader makes of ``path``: its columns, or its error."""
    try:
        t = read_point_file(path)
    except PointFileError as exc:
        return str(exc)
    arrays = [t.image, t.xy, t.cls, t.confidence, t.confidences]
    return t.image_ids, [None if a is None else (a.dtype, a.shape, a.tobytes()) for a in arrays]


@pytest.fixture(scope="module")
def text_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("texts")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=csv_texts())
def test_split_columns_equal_csv_reader(text_dir, text):
    # a CRLF file is always read by csv.reader
    lf, crlf = text_dir / "lf.csv", text_dir / "crlf.csv"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    with mock.patch.object(pointfile.csv, "reader", wraps=csv.reader) as reader:
        split = _outcome(str(lf))
    assert split == _outcome(str(crlf))
    if not isinstance(split, str) and max(map(len, text.split("\n"))) <= csv.field_size_limit():
        assert not reader.called


def test_parse_and_group_run_few_collections(tmp_path):
    rng = np.random.default_rng(0)
    xy = rng.uniform(0, 224, size=(20_000, 2)).tolist()
    conf = rng.uniform(0, 1, size=20_000).tolist()
    path = str(tmp_path / "pred.csv")
    write_point_file(path, [
        PointRecord(f"img{i // 134:05d}", x, y, 1 + i % 3, confidence=c)
        for i, ((x, y), c) in enumerate(zip(xy, conf))
    ])
    gt = table(tmp_path, [])
    runs = []

    def count(phase, info):
        if phase == "start":
            runs.append(info["generation"])

    threshold = gc.get_threshold()
    assert gc.isenabled()
    gc.collect()
    gc.set_threshold(700, 10, 10)
    gc.callbacks.append(count)
    try:
        _, groups = match_inputs(gt, read_point_file(path))
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
    assert sum(map(len, groups.values())) == 20_000
    assert len(runs) <= 2


def _columns(t):
    return (list(t.image_ids), t.image.tolist(), t.xy.tolist(), t.cls.tolist(),
            *(None if c is None else c.tolist() for c in (t.confidence, t.confidences)))


@pytest.mark.parametrize("header, rows", [
    ("conf_bg,conf_1", "a,1,0,1,,\nb,2,0,3,,\n"),
    ("confidence", "a,1,0,1,\nb,2,0,3,\n"),
    ("conf_bg,conf_1", ""),
], ids=["vector", "confidence", "header-only"])
def test_unfilled_column_reads_as_its_json_copy(tmp_path, header, rows):
    # a column that no record fills is None in both formats
    path = tmp_path / "pred.csv"
    path.write_text(f"image_id,x,y,class_id,{header}\n{rows}")
    from_csv = read_point_file(str(path))
    write_point_file(str(tmp_path / "pred.json"), list(from_csv))
    from_json = read_point_file(str(tmp_path / "pred.json"))
    assert from_csv.confidence is None and from_csv.confidences is None
    assert _columns(from_csv) == _columns(from_json)


def test_json_vectors_roundtrip_and_refuse_uneven_lengths(tmp_path):
    records = [PointRecord("a", 1.0, 2.0, 2, confidences=(0.1, 0.2, 0.7)),
               PointRecord("b", 0.0, 0.0, 3)]
    _, back = roundtrip(tmp_path, records, "vectors.json")
    assert back == records and back.confidences.shape == (2, 3)
    path = tmp_path / "uneven.json"
    path.write_text('[{"image_id": "a", "x": 0, "y": 0, "class_id": 1, "confidences": [0.1, 0.9]},'
                    ' {"image_id": "a", "x": 1, "y": 0, "class_id": 1, "confidences": [0, 1, 0]}]')
    with pytest.raises(PointFileError) as refused:
        read_point_file(str(path))
    assert str(refused.value) == "record 1: confidences must all have the same length"


@pytest.mark.parametrize("name", ["uneven.csv", "uneven.json"])
def test_writer_refuses_vectors_of_different_lengths(tmp_path, name):
    records = [PointRecord("a", 0.0, 0.0, 1), PointRecord("a", 1.0, 0.0, 1, confidences=(0.1, 0.9)),
               PointRecord("b", 0.0, 0.0, 1, confidences=(0.1, 0.2, 0.7))]
    with pytest.raises(ValueError) as refused:
        write_point_file(str(tmp_path / name), records)
    assert str(refused.value) == "record 2 (image b): confidences must all have the same length"
    assert not (tmp_path / name).exists()


# one record of each kind the reader refuses, and the reader's message for it
REFUSED_RECORDS = {
    "class-below-1": (PointRecord("b", 1.0, 0.0, 0), "class_id must be >= 1"),
    "nan-coordinate": (PointRecord("b", float("nan"), 0.0, 1), _COORD_ERROR),
    "coordinate-beyond-bound": (PointRecord("b", 1.0, -2e100, 1), _COORD_ERROR),
    "confidence-above-1": (PointRecord("b", 1.0, 0.0, 1, confidence=1.5),
                           "confidence must be in [0, 1]"),
    "confidence-nan": (PointRecord("b", 1.0, 0.0, 1, confidence=float("nan")),
                       "confidence must be in [0, 1]"),
    "vector-entry-below-0": (PointRecord("b", 1.0, 0.0, 1, confidences=(-0.25, 1.0)),
                             "confidences must be in [0, 1]"),
    "one-entry-vector": (PointRecord("b", 1.0, 0.0, 1, confidences=(0.5,)),
                         "class_id outside confidence vector"),
    "empty-vector": (PointRecord("b", 1.0, 0.0, 1, confidences=()),
                     "class_id outside confidence vector"),
    "class-beyond-vector": (PointRecord("b", 1.0, 0.0, 2, confidences=(0.4, 0.6)),
                            "class_id outside confidence vector"),
    # field types: CSV wrote them as text its reader refuses or reads back
    # differently, JSON as values of the wrong JSON type
    "string-x": (PointRecord("b", "1", 0.0, 1), "x must be a JSON number"),
    "string-y": (PointRecord("b", 1.0, "0", 1), "y must be a JSON number"),
    "string-confidence": (PointRecord("b", 1.0, 0.0, 1, confidence="0.5"),
                          "confidence must be a JSON number"),
    "string-vector-entry": (PointRecord("b", 1.0, 0.0, 1, confidences=("0.5", 0.5)),
                            "confidences must be an array of numbers"),
    "bool-class": (PointRecord("b", 1.0, 0.0, True), "class_id must be a JSON integer"),
    "numpy-bool-class": (PointRecord("b", 1.0, 0.0, np.True_), "class_id must be a JSON integer"),
    "fractional-class": (PointRecord("b", 1.0, 0.0, 1.5), "class_id must be a JSON integer"),
    "integral-float-class": (PointRecord("b", 1.0, 0.0, 1.0), "class_id must be a JSON integer"),
    "int-image-id": (PointRecord(5, 1.0, 0.0, 1), "image_id must be a JSON string"),
    "class-beyond-int64": (PointRecord("b", 1.0, 0.0, 2**70),
                           "Python int too large to convert to C long"),
}


@pytest.mark.parametrize("ext", ["csv", "json"])
@pytest.mark.parametrize("kind", REFUSED_RECORDS)
def test_writer_refuses_records_its_reader_refuses(tmp_path, ext, kind):
    record, message = REFUSED_RECORDS[kind]
    path = tmp_path / f"refused.{ext}"
    with pytest.raises(ValueError) as refused:
        write_point_file(str(path), [PointRecord("a", 0.0, 0.0, 1), record])
    assert str(refused.value) == f"record 1 (image {record.image_id}): {message}"
    assert not path.exists()
    # the reader gives the same message for the record written by hand
    by_hand = tmp_path / "by_hand.json"
    obj = {k: pointfile._plain(v) for k, v in record._asdict().items() if v is not None}
    by_hand.write_text(json.dumps([obj]))
    with pytest.raises(PointFileError) as read:
        read_point_file(str(by_hand))
    assert str(read.value) == f"record 0: {message}"


PLAIN_RECORDS = [
    PointRecord("a", 1.5, -2.25, 2, confidences=(0.25, 0.25, 0.5)),
    PointRecord("b", 3.0, 0.0, 1),
]
# the same values as numpy scalars and arrays
NUMPY_RECORDS = [
    PointRecord(np.str_("a"), np.float64(1.5), np.float32(-2.25), np.int64(2),
                confidences=np.array([0.25, 0.25, 0.5])),
    PointRecord("b", np.float64(3.0), np.float16(0.0), np.int32(1)),
]


@pytest.mark.parametrize("ext", ["csv", "json"])
@pytest.mark.parametrize("plain, numpy", [
    (PLAIN_RECORDS, NUMPY_RECORDS),
    ([PointRecord("c", 0.5, 1.0, 3, confidence=0.75)],
     [PointRecord("c", np.float64(0.5), 1.0, np.uint8(3), confidence=np.float64(0.75))]),
], ids=["vectors", "single-confidence"])
def test_numpy_scalars_are_written_as_plain_values(tmp_path, ext, plain, numpy):
    _, back = roundtrip(tmp_path, numpy, f"numpy.{ext}")
    assert back == plain
    write_point_file(str(tmp_path / f"plain.{ext}"), plain)
    assert (tmp_path / f"numpy.{ext}").read_bytes() == (tmp_path / f"plain.{ext}").read_bytes()


@pytest.mark.parametrize("ext", ["csv", "json"])
def test_image_ids_with_line_breaks_and_quotes_read_back_equal(tmp_path, ext):
    # csv quotes a CR only from Python 3.13 on; unquoted, the file read back
    # as "line 2: expected 4 fields, got 1"
    records = [PointRecord(image_id, 1.0, 2.0, 1)
               for image_id in ("a\rb", "c\r\nd", "e\nf", "g\"h,i", "\r", "plain")]
    _, back = roundtrip(tmp_path, records, f"ids.{ext}")
    assert back == records


def test_csv_writer_refuses_a_nul_image_id_before_opening_the_file(tmp_path):
    records = [PointRecord("a", 0.0, 0.0, 1), PointRecord("b\0c", 1.0, 0.0, 1)]
    path = tmp_path / "nul.csv"
    with pytest.raises(ValueError) as refused:
        write_point_file(str(path), records)
    assert str(refused.value) == "record 1 (image 'b\\x00c'): a CSV image_id cannot hold a NUL"
    assert not path.exists()
    # JSON escapes it, and its reader takes it back
    assert roundtrip(tmp_path, records, "nul.json")[1] == records


# valid values are drawn more often than faulty ones, so that many lists are written
WRITTEN_IDS = st.sampled_from(["a", "b", "c d", np.str_("e")] * 3
                              + ["f\rg", "h\ni", 'j"k', "l,m", "n\0o", "\0", "p\ud800q", 5])
WRITTEN_COORDS = st.sampled_from([0.0, 1.5, -3.0, 7, np.float64(2.5), np.float32(0.5)] * 6
                                 + [float("nan"), float("inf"), -float("inf"), 1e101, "1"])
WRITTEN_CLASSES = st.sampled_from([1, 2, np.int64(2)] * 6 + [3, 0, True, 1.5, 2**70])
WRITTEN_CONFIDENCES = st.sampled_from([0.0, 0.25, 1, np.float64(0.5)] * 6
                                      + [1.5, -0.1, float("nan"), "0.5"])
# the three refusals a JSON file cannot express
CSV_ONLY = ("a CSV image_id cannot hold a NUL",
            "a CSV image_id cannot hold a surrogate, which UTF-8 cannot encode",
            "a conf_* CSV has no column for its single confidence")


@st.composite
def written_records(draw):
    # most vectors of a list share one length
    width = draw(st.sampled_from([3, 4] * 3 + [0, 1, 2]))
    records = []
    for _ in range(draw(st.integers(0, 4))):
        confidence = draw(st.none() | st.none() | WRITTEN_CONFIDENCES)
        vector = None
        if draw(st.booleans()):
            length = draw(st.sampled_from([width] * 8 + [0, 1, 2, 3, 4]))
            vector = tuple(draw(WRITTEN_CONFIDENCES) for _ in range(length))
        records.append(PointRecord(draw(WRITTEN_IDS), draw(WRITTEN_COORDS), draw(WRITTEN_COORDS),
                                   draw(WRITTEN_CLASSES), confidence, vector))
    return records


def _json_object(record):
    """``record`` as the JSON object a person would write for it."""
    obj = {k: pointfile._plain(v) for k, v in record._asdict().items() if v is not None}
    if "confidences" in obj:
        obj["confidences"] = [pointfile._plain(c) for c in obj["confidences"]]
    return obj


@settings(max_examples=300, deadline=None, derandomize=True)
@given(records=written_records())
# a CSV writer that opened the file before refusing the second id left it truncated
@example(records=[PointRecord("a", 1.0, 2.0, 1), PointRecord("p\ud800q", 1.0, 2.0, 1)])
def test_writer_refuses_what_its_reader_refuses_and_writes_what_it_reads_back(text_dir, records):
    by_hand = text_dir / "by_hand.json"
    by_hand.write_text(json.dumps([_json_object(r) for r in records]))
    expected = None
    try:
        read_point_file(str(by_hand))
    except PointFileError as exc:
        where, message = str(exc).split(": ", 1)
        i = int(where.removeprefix("record "))
        expected = f"record {i} (image {records[i].image_id}): {message}"
    for ext in ("csv", "json"):
        path = text_dir / f"written.{ext}"
        path.unlink(missing_ok=True)
        try:
            write_point_file(str(path), records)
        except ValueError as exc:
            assert not path.exists()
            if expected is None:
                assert ext == "csv" and str(exc).endswith(CSV_ONLY)
            else:
                assert str(exc) == expected
        else:
            assert expected is None and read_point_file(str(path)) == records
