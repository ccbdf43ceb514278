import pytest

from pointmatch.pointfile import (
    PointFileError,
    PointRecord,
    file_digest,
    group_labeled,
    group_predicted,
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
        assert file_digest(p1) == file_digest(p2)


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

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(PointFileError):
            read_point_file(str(path))


class TestGrouping:
    def test_group_labeled(self, tmp_path):
        records = [
            PointRecord("a", 0, 0, 1),
            PointRecord("b", 1, 1, 2),
            PointRecord("a", 2, 2, 1),
        ]
        groups = group_labeled(table(tmp_path, records))
        assert set(groups) == {"a", "b"}
        assert len(groups["a"]) == 2

    def test_group_predicted_single_confidence(self, tmp_path):
        records = [PointRecord("a", 0, 0, 2, confidence=0.8)]
        groups = group_predicted(table(tmp_path, records), num_classes=2)
        assert groups["a"].conf[0].tolist() == [0.19999999999999996, 0.0, 0.8]

    def test_group_predicted_full_vector(self, tmp_path):
        records = [PointRecord("a", 0, 0, 1, confidences=(0.1, 0.9))]
        groups = group_predicted(table(tmp_path, records), num_classes=1)
        assert groups["a"].conf[0].tolist() == [0.1, 0.9]

    def test_group_predicted_wrong_vector_length(self, tmp_path):
        records = [PointRecord("a", 0, 0, 1, confidences=(0.1, 0.9))]
        with pytest.raises(PointFileError):
            group_predicted(table(tmp_path, records), num_classes=3)
