"""CSV ingestion, label handling, oracle subprocess protocol, partitions."""

import csv
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from woexplain import (
    Dataset,
    csv_header,
    load_csv,
    load_partition,
    query_oracle,
    write_csv,
)
from woexplain import data
from woexplain.errors import ConfigError, CsvParseError, InvalidDataError, OracleProtocolError


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_header_only_file(self, tmp_path):
        path = write_text(tmp_path / "empty.csv", "a,b,c\n")
        ds = load_csv(path)
        assert ds.header == ("a", "b", "c")
        assert ds.n_rows == 0
        assert ds.n_features == 3
        assert ds.labels is None

    def test_label_column_split(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "x,y,target\n1.5,2,0\n3,4.25,1\n0,1,1\n")
        ds = load_csv(path, label_column="target")
        assert ds.header == ("x", "y")
        assert ds.label_name == "target"
        assert ds.label_index == 2
        np.testing.assert_array_equal(ds.rows, [[1.5, 2.0], [3.0, 4.25], [0.0, 1.0]])
        np.testing.assert_array_equal(ds.labels, [0, 1, 1])
        assert ds.label_mapping is None

    def test_label_column_in_the_middle(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "x,target,y\n1,0,2\n3,1,4\n")
        ds = load_csv(path, label_column="target")
        assert ds.header == ("x", "y")
        assert ds.label_index == 1
        np.testing.assert_array_equal(ds.rows, [[1.0, 2.0], [3.0, 4.0]])

    def test_text_labels_get_sorted_mapping(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "x,grade\n1,low\n2,high\n3,mid\n4,low\n")
        ds = load_csv(path, label_column="grade")
        assert ds.label_mapping == {"high": 0, "low": 1, "mid": 2}
        np.testing.assert_array_equal(ds.labels, [1, 0, 2, 1])

    def test_negative_integer_labels_rejected(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "x,y\n1,0\n2,-1\n")
        with pytest.raises(CsvParseError, match=r"negative.*\(row 2, column 'y'\)"):
            load_csv(path, label_column="y")

    @pytest.mark.parametrize("cell", ["1e300", "9" * 300, "9223372036854775808"],
                             ids=["1e300", "300 digits", "2**63"])
    def test_integer_labels_beyond_int64_rejected(self, tmp_path, cell):
        path = write_text(tmp_path / "t.csv", f"x,y\n1,0\n2,{cell}\n3,1\n")
        with pytest.raises(CsvParseError, match=r"too large.*\(row 2, column 'y'\)"):
            load_csv(path, label_column="y")
        near = write_text(tmp_path / "near.csv", "x,y\n1,0\n2,4611686018427387904\n")
        np.testing.assert_array_equal(load_csv(near, label_column="y").labels, [0, 2 ** 62])

    def test_cell_errors_carry_location(self, tmp_path):
        bad_number = write_text(tmp_path / "a.csv", "x,y\n1,2\n3,oops\n")
        with pytest.raises(CsvParseError, match=r"\(row 2, column 'y'\)"):
            load_csv(bad_number)
        not_finite = write_text(tmp_path / "b.csv", "x,y\n1,2\nnan,4\n")
        with pytest.raises(CsvParseError, match=r"\(row 2, column 'x'\)"):
            load_csv(not_finite)
        ragged = write_text(tmp_path / "c.csv", "x,y\n1,2\n3\n")
        with pytest.raises(CsvParseError, match=r"\(row 2\)"):
            load_csv(ragged)

    def test_missing_label_column(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "x,y\n1,2\n")
        with pytest.raises(CsvParseError, match="label"):
            load_csv(path, label_column="target")

    def test_column_selection(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "a,b,c,d\n1,2,3,4\n5,6,7,8\n")
        ds = load_csv(path, columns=["c", "a"])
        assert ds.header == ("c", "a")
        np.testing.assert_array_equal(ds.rows, [[3.0, 1.0], [7.0, 5.0]])

    def test_column_selection_skips_unparsable_others(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "a,note,b\n1,hello,2\n3,world,4\n")
        ds = load_csv(path, columns=["a", "b"])
        np.testing.assert_array_equal(ds.rows, [[1.0, 2.0], [3.0, 4.0]])

    def test_column_selection_errors(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "a,b\n1,2\n")
        with pytest.raises(CsvParseError, match="'z'"):
            load_csv(path, columns=["z"])
        with pytest.raises(CsvParseError, match="feature and label"):
            load_csv(path, label_column="b", columns=["a", "b"])

    def test_structural_errors(self, tmp_path):
        empty = write_text(tmp_path / "empty.csv", "")
        with pytest.raises(CsvParseError, match="empty"):
            load_csv(empty)
        blank_name = write_text(tmp_path / "blank.csv", "a,,c\n1,2,3\n")
        with pytest.raises(CsvParseError, match="empty column name"):
            load_csv(blank_name)
        only_label = write_text(tmp_path / "only.csv", "y\n1\n")
        with pytest.raises(CsvParseError, match="no feature columns"):
            load_csv(only_label, label_column="y")
        binary = tmp_path / "bin.csv"
        binary.write_bytes(b"a,b\n\xff\xfe,2\n")
        with pytest.raises(CsvParseError, match="UTF-8"):
            load_csv(binary)

    def test_bom_and_whitespace_tolerated(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("﻿x, y\n 1.5 ,2\n".encode("utf-8"))
        ds = load_csv(path)
        assert ds.header == ("x", "y")
        np.testing.assert_array_equal(ds.rows, [[1.5, 2.0]])

    def test_csv_header_helper(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "alpha,beta\n1,2\n")
        assert csv_header(path) == ("alpha", "beta")

    def test_csv_header_reads_past_a_malformed_body(self, tmp_path):
        """Only the header record is parsed; load_csv still rejects the body."""
        path = write_text(tmp_path / "t.csv", "alpha,beta\n1,2\n" + "9" * 200_000 + ",3\n")
        assert csv_header(path) == ("alpha", "beta")
        with pytest.raises(CsvParseError, match="row 2"):
            load_csv(path)

    def test_csv_header_errors(self, tmp_path):
        with pytest.raises(CsvParseError, match="empty"):
            csv_header(write_text(tmp_path / "empty.csv", ""))
        with pytest.raises(CsvParseError, match="empty column name"):
            csv_header(write_text(tmp_path / "blank.csv", "a,,c\n1,2,3\n"))
        binary = tmp_path / "bin.csv"
        binary.write_bytes(b"a,b\n\xff\xfe,2\n")
        with pytest.raises(CsvParseError, match="UTF-8"):
            csv_header(binary)


def per_cell_rows(text, columns):
    """The feature rows as float(cell.strip()) per cell, read by the csv module alone."""
    records = list(csv.reader(text.splitlines()))
    header = [h.strip() for h in records[0]]
    cols = [header.index(name) for name in columns]
    rows = [[float(record[j].strip()) for j in cols] for record in records[1:]]
    return np.array(rows, dtype=float).reshape(len(rows), len(cols))


def csv_error(path, **kwargs):
    """The CsvParseError load_csv raises for path, as (message, row, column)."""
    with pytest.raises(CsvParseError) as info:
        load_csv(path, **kwargs)
    return str(info.value), info.value.row, info.value.column


class TestLoadCsvMatchesPerCellParsing:
    """load_csv gives bitwise the values and exactly the errors of a per-cell parse."""

    PADDING = ("", " ", "\t", "\u00a0", "\u2003", "\x1f")

    def test_random_file_with_label_in_the_middle(self, tmp_path):
        rng = np.random.default_rng(5)
        names = ["a", "b", "c", "y", "d", "e", "f"]
        lines = [",".join(names)]
        for _ in range(200):
            cells = []
            for name in names:
                if name == "y":
                    text = str(int(rng.integers(0, 4)))
                else:
                    v = float(rng.normal(0.0, 10.0 ** rng.integers(-5, 6)))
                    text = str(rng.choice([repr(v), f"{v:.17g}", f"{v:.3e}", str(round(v)), "-0.0"]))
                pad = self.PADDING
                cells.append(pad[rng.integers(len(pad))] + text + pad[rng.integers(len(pad))])
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
        path = write_text(tmp_path / "t.csv", text)
        permuted = ["e", "a", "f", "c", "b", "d"]
        cases = [
            (load_csv(path, label_column="y", columns=permuted), permuted),
            (load_csv(path, label_column="y"), ["a", "b", "c", "d", "e", "f"]),
            (load_csv(path), names),
        ]
        for ds, columns in cases:
            expected = per_cell_rows(text, columns)
            assert ds.header == tuple(columns)
            assert ds.rows.shape == expected.shape == (200, len(columns))
            assert ds.rows.tobytes() == expected.tobytes()
        labels = [int(line.split(",")[3].strip()) for line in lines[1:]]
        np.testing.assert_array_equal(cases[0][0].labels, labels)

    def test_padded_and_unusual_cells_parse_as_float_does(self, tmp_path):
        """U+001F is removed by str.strip() but refused by float(); both padded forms parse."""
        text = (
            "a,b,c\n"
            "\t1.5\t,\u00a0-2\u00a0,\u20033e2\u2003\n"
            "\x1f4\x1f,\x1f 5.25 \x1f,6\n"
            "1_000,\u0661\u0662\u0663,\u0664.\u0665\n"
        )
        path = write_text(tmp_path / "t.csv", text)
        ds = load_csv(path)
        expected = per_cell_rows(text, ["a", "b", "c"])
        np.testing.assert_array_equal(expected, [[1.5, -2.0, 300.0], [4.0, 5.25, 6.0], [1000.0, 123.0, 4.5]])
        assert ds.rows.tobytes() == expected.tobytes()

    def test_non_finite_cells_are_rejected_with_their_location(self, tmp_path):
        for r, cell, shown in [(1, "1e999", "1e999"), (2, "inf", "inf"),
                               (3, "-Infinity", "-Infinity"), (2, " nan ", "nan")]:
            body = ["1,2", "3,4", "5,6"]
            body[r - 1] = f"7,{cell}"
            path = write_text(tmp_path / "t.csv", "a,b\n" + "\n".join(body) + "\n")
            assert csv_error(path) == (
                f"cell {shown!r} is not finite (row {r}, column 'b')", r, "b"
            )

    def test_first_failing_record_then_first_failing_column_wins(self, tmp_path):
        later_parse_error = write_text(tmp_path / "rows.csv", "a,b\n1,2\nnan,4\n5,oops\n")
        assert csv_error(later_parse_error) == (
            "cell 'nan' is not finite (row 2, column 'a')", 2, "a"
        )
        later_csv_error = write_text(
            tmp_path / "long.csv", "a,b\n1,inf\n" + "9" * 200_000 + ",3\n"
        )
        assert csv_error(later_csv_error) == (
            "cell 'inf' is not finite (row 1, column 'b')", 1, "b"
        )
        columns = write_text(tmp_path / "cols.csv", "a,b\n1,2\nnan,oops\n")
        assert csv_error(columns) == ("cell 'nan' is not finite (row 2, column 'a')", 2, "a")
        assert csv_error(columns, columns=["b", "a"]) == (
            "cell 'oops' does not parse as a number (row 2, column 'b')", 2, "b"
        )
        length_first = write_text(tmp_path / "len.csv", "a,b\n1,2\noops,nan,3\n")
        assert csv_error(length_first) == ("expected 2 cells, got 3 (row 2)", 2, None)

    def test_label_columns_of_every_kind(self, tmp_path):
        """Integral cells pass through; anything else gets a sorted text mapping."""
        cases = [
            (["2", " 0 ", "1.0", "1e0", "3"], [2, 0, 1, 1, 3], None),
            (["cat", "dog", "cat", "ant"], [1, 2, 1, 0],
             {"ant": 0, "cat": 1, "dog": 2}),
            (["0", "nan", "1", "nan"], [0, 2, 1, 2], {"0": 0, "1": 1, "nan": 2}),
            (["0", "inf", "1.5"], [0, 2, 1], {"0": 0, "1.5": 1, "inf": 2}),
            (["1", "0.5", "2"], [1, 0, 2], {"0.5": 0, "1": 1, "2": 2}),
        ]
        for cells, labels, mapping in cases:
            body = "".join(f"{k},{cell}\n" for k, cell in enumerate(cells))
            ds = load_csv(write_text(tmp_path / "t.csv", "x,y\n" + body), label_column="y")
            np.testing.assert_array_equal(ds.labels, labels)
            assert ds.label_mapping == mapping


def per_record_error(text):
    """The error of a record-by-record parse read by csv.reader, as (message, row, column).

    Each record's width, then each cell in header order; a csv.Error
    names the record after the last one read. None when the file parses.
    """
    records = csv.reader(text.splitlines())
    header = [h.strip() for h in next(records)]
    r = 0
    try:
        for r, record in enumerate(records, start=1):
            if len(record) != len(header):
                return f"expected {len(header)} cells, got {len(record)} (row {r})", r, None
            for name, cell in zip(header, record):
                cell = cell.strip()
                try:
                    value = float(cell)
                except ValueError:
                    return (f"cell {cell!r} does not parse as a number "
                            f"(row {r}, column {name!r})", r, name)
                if not math.isfinite(value):
                    return f"cell {cell!r} is not finite (row {r}, column {name!r})", r, name
    except csv.Error as exc:
        return f"malformed CSV record: {exc} (row {r + 1})", r + 1, None
    return None


@pytest.fixture
def lowered_field_limit():
    """csv.field_size_limit lowered to 40 characters for one test."""
    default = csv.field_size_limit(40)
    yield 40
    csv.field_size_limit(default)


class TestBlocksMatchRecordByRecord:
    """Bodies converted a block at a time give the values and errors of a per-record parse.

    Blocks are shrunk to B = 3 records, so small files cross several.
    """

    B = 3
    NAMES = ["a", "b", "y", "c"]
    FAULTS = {
        "bad cell": lambda cells: cells[:1] + ["oops"] + cells[2:],
        "non-finite": lambda cells: cells[:3] + ["-inf"],
        "short record": lambda cells: cells[:3],
        "long record": lambda cells: cells + ["5"],
        "empty line": lambda cells: [],
        "padded": lambda cells: ["\x1f" + cells[0]] + cells[1:],
    }

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(data, "BLOCK_CELLS", self.B * len(self.NAMES), raising=False)

    def body(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return [[repr(float(v)) for v in rng.normal(0.0, 100.0, size=2)]
                + [str(int(rng.integers(0, 3))), f"{float(rng.normal()):.6e}"]
                for _ in range(n)]

    def text(self, body):
        return "\n".join(",".join(r) for r in [self.NAMES] + body) + "\n"

    def test_record_counts_around_the_block_size(self, tmp_path):
        b = self.B
        for n in (0, 1, b - 1, b, b + 1, 2 * b + 3):
            body = self.body(n, seed=n)
            text = self.text(body)
            path = write_text(tmp_path / f"n{n}.csv", text)
            ds = load_csv(path)
            assert ds.rows.tobytes() == per_cell_rows(text, self.NAMES).tobytes()
            assert ds.rows.shape == (n, 4)
            labelled = load_csv(path, label_column="y")
            assert labelled.rows.tobytes() == per_cell_rows(text, ["a", "b", "c"]).tobytes()
            assert labelled.labels.tolist() == [int(r[2]) for r in body]

    def test_each_fault_in_the_second_block(self, tmp_path):
        b = self.B
        for kind, fault in self.FAULTS.items():
            for r in range(b + 1, 2 * b + 1):
                body = self.body(3 * b + 1, seed=r)
                body[r - 1] = fault(body[r - 1])
                text = self.text(body)
                path = write_text(tmp_path / "t.csv", text)
                expected = per_record_error(text)
                if kind == "padded":
                    assert expected is None
                    assert load_csv(path).rows.tobytes() == per_cell_rows(text, self.NAMES).tobytes()
                else:
                    assert expected[1] == r, kind
                    assert csv_error(path) == expected, kind

    def test_the_first_of_two_faults_in_a_block_wins(self, tmp_path):
        b = self.B
        for first, fault in self.FAULTS.items():
            for second, later in self.FAULTS.items():
                body = self.body(3 * b, seed=7)
                body[b] = fault(body[b])
                body[2 * b - 1] = later(body[2 * b - 1])
                text = self.text(body)
                expected = per_record_error(text)
                if expected is None:
                    continue
                assert expected[1] == (b + 1 if first != "padded" else 2 * b)
                assert csv_error(write_text(tmp_path / "t.csv", text)) == expected, (first, second)

    def test_csv_error_after_a_bad_cell_in_the_same_block(self, tmp_path, lowered_field_limit):
        b = self.B
        for bad_row, long_row in [(b + 1, b + 2), (b + 1, 2 * b), (b + 2, 2 * b)]:
            body = self.body(3 * b, seed=bad_row)
            body[bad_row - 1][1] = "oops"
            body[long_row - 1][3] = "9" * (lowered_field_limit + 1)
            path = write_text(tmp_path / "t.csv", self.text(body))
            assert csv_error(path) == (
                f"cell 'oops' does not parse as a number (row {bad_row}, column 'b')",
                bad_row, "b",
            )
            body[bad_row - 1][1] = "1"
            path = write_text(tmp_path / "t.csv", self.text(body))
            message, row, column = csv_error(path)
            assert (row, column) == (long_row, None)
            assert message.startswith("malformed CSV record: field larger than field limit (40)")

    def test_csv_error_in_the_second_block(self, tmp_path, lowered_field_limit):
        b = self.B
        for r in range(b + 1, 2 * b + 1):
            body = self.body(3 * b, seed=r)
            body[r - 1][0] = "1" + "0" * lowered_field_limit
            text = self.text(body)
            expected = per_record_error(text)
            assert expected[1] == r
            assert csv_error(write_text(tmp_path / "t.csv", text)) == expected

    def assert_read_by_the_csv_module(self, path, text):
        """The csv module's own reading, its NUL handling and field limit included."""
        assert isinstance(data._read_records(path)[1], type(csv.reader([])))
        expected = per_record_error(text)
        if expected is None:
            assert load_csv(path).rows.tobytes() == per_cell_rows(text, self.NAMES).tobytes()
        else:
            assert csv_error(path) == expected

    def test_nul_takes_the_csv_module(self, tmp_path):
        """csv.reader raises for a NUL before Python 3.11 and keeps it in the cell after."""
        body = self.body(2 * self.B)
        body[self.B][1] += "\x00"
        text = self.text(body)
        self.assert_read_by_the_csv_module(write_text(tmp_path / "t.csv", text), text)

    def test_long_lines_take_the_csv_module(self, tmp_path, lowered_field_limit):
        long_line = "a,b,y,c\n" + ",".join(["1" * 20] * 4) + "\n"
        long_field = "a,b,y,c\n1,2,0,3\n" + ",".join(["1" * 41] * 4) + "\n"
        for text in (long_line, long_field):
            self.assert_read_by_the_csv_module(write_text(tmp_path / "t.csv", text), text)

    def test_split_lines_read_as_the_csv_module_reads_them(self, tmp_path):
        """Seeded fuzz of quote-free text: the records of _read_records are csv.reader's."""
        rng = np.random.default_rng(11)
        atoms = ["", "0", "1", "-2.5", "x", " ", "\t", "\x1f", "\u00a0", "a b", "'", "\\"]
        breaks = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                  "\u2028"]
        without_empty_lines = 0
        for case in range(300):
            width = int(rng.integers(1, 5))
            blank = 0.1 if rng.random() < 0.3 else 0.0
            lines = [",".join(f"h{j}" for j in range(width))]
            for _ in range(int(rng.integers(0, 12))):
                cells = [str(rng.choice(atoms)) for _ in range(width + int(rng.integers(-1, 2)))]
                line = ",".join(cells) + ("," if rng.random() < 0.2 else "")
                lines.append("" if rng.random() < blank else line or "0")
            brk = str(rng.choice(breaks))
            text = brk.join(lines) + (brk if rng.random() < 0.7 else "")
            path = tmp_path / "t.csv"
            path.write_text(text, encoding="utf-8", newline="")
            header, body = data._read_records(path)
            records = list(csv.reader(text.splitlines()))
            assert header == [h.strip() for h in records[0]], case
            assert list(body) == records[1:], case
            without_empty_lines += "" not in text.splitlines()
        assert without_empty_lines > 150


class TestLoadCsvMemory:
    def test_peak_stays_below_a_list_of_float_lists(self, tmp_path):
        """A 20,000 x 10 file (3.9 MB) peaked at 13.7 MB when every row was a list of
        floats before becoming an array, and at 9.0 MB converted in blocks, most of it
        the file text and its lines (Python 3.11, numpy 2.4)."""
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(20_000, 10))
        text = "".join(",".join(map(repr, map(float, row))) + "\n" for row in rows)
        path = write_text(tmp_path / "big.csv", ",".join(f"f{j}" for j in range(10)) + "\n" + text)
        del text
        load_csv(path)
        tracemalloc.start()
        try:
            ds = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.rows.tobytes() == rows.tobytes()
        assert peak < 11_500_000, peak


class TestWriteCsv:
    def test_round_trip_preserves_floats_and_label_position(self, tmp_path):
        source = write_text(
            tmp_path / "in.csv", "x,target,y\n0.1,1,2.5\n-3.25,0,1e-9\n"
        )
        ds = load_csv(source, label_column="target")
        out = tmp_path / "out.csv"
        write_csv(ds, out)
        again = load_csv(out, label_column="target")
        assert again.header == ds.header
        assert again.label_index == 1
        np.testing.assert_array_equal(again.rows, ds.rows)
        np.testing.assert_array_equal(again.labels, ds.labels)
        assert out.read_text(encoding="utf-8").splitlines()[0] == "x,target,y"

    def test_round_trip_restores_text_labels(self, tmp_path):
        source = write_text(tmp_path / "in.csv", "x,kind\n1,cat\n2,dog\n3,cat\n")
        ds = load_csv(source, label_column="kind")
        out = tmp_path / "out.csv"
        write_csv(ds, out)
        body = out.read_text(encoding="utf-8").splitlines()
        assert body[1].endswith(",cat")
        assert body[2].endswith(",dog")
        again = load_csv(out, label_column="kind")
        np.testing.assert_array_equal(again.labels, ds.labels)
        assert again.label_mapping == ds.label_mapping

    def test_programmatic_dataset_appends_labels(self, tmp_path):
        ds = Dataset(
            header=("a", "b"),
            rows=np.array([[1.0, 2.0]]),
            labels=np.array([1]),
            label_name="y",
        )
        out = tmp_path / "out.csv"
        write_csv(ds, out)
        assert out.read_text(encoding="utf-8").splitlines()[0] == "a,b,y"

    def test_dataset_validation(self):
        with pytest.raises(InvalidDataError):
            Dataset(header=("a",), rows=np.zeros((2, 2)))
        with pytest.raises(InvalidDataError):
            Dataset(header=("a", "b"), rows=np.zeros((2, 2)), labels=np.array([0]))
        with pytest.raises(InvalidDataError):
            Dataset(header=("a", "b"), rows=np.zeros((2, 2)), labels=np.array([0, -1]))


def oracle_script(tmp_path, body):
    """A runnable oracle command backed by a temp python script."""
    script = tmp_path / "oracle.py"
    script.write_text(body, encoding="utf-8")
    return f"{sys.executable} {script}"


THRESHOLD_ORACLE = """\
import sys

for line in sys.stdin:
    first = float(line.split(",")[0])
    print(1 if first > 0 else 0)
"""


class TestQueryOracle:
    def make_dataset(self):
        return Dataset(
            header=("x", "y"),
            rows=np.array([[1.5, 2.0], [-0.25, 4.0], [0.5, -1.0]]),
        )

    def test_subprocess_oracle_labels_rows(self, tmp_path):
        cmd = oracle_script(tmp_path, THRESHOLD_ORACLE)
        labels = query_oracle(cmd, self.make_dataset())
        np.testing.assert_array_equal(labels, [1, 0, 1])

    def test_subprocess_input_is_deterministic(self, tmp_path):
        """The oracle sees byte-identical csv lines on every call."""
        record = tmp_path / "seen.txt"
        cmd = oracle_script(
            tmp_path,
            "import sys\n"
            f"lines = sys.stdin.read()\n"
            f"open({str(record)!r}, 'a').write(lines)\n"
            "print(len(lines.splitlines()) * '0\\n', end='')\n",
        )
        ds = self.make_dataset()
        query_oracle(cmd, ds)
        query_oracle(cmd, ds)
        first, second = record.read_text().splitlines()[:3], record.read_text().splitlines()[3:]
        assert first == second
        assert first[0] == "1.5,2.0"

    def test_short_output_reports_line(self, tmp_path):
        cmd = oracle_script(tmp_path, "print(0)\nprint(1)\n")
        with pytest.raises(OracleProtocolError, match=r"expected 3 label lines.*line 3"):
            query_oracle(cmd, self.make_dataset())

    def test_malformed_label_reports_line(self, tmp_path):
        cmd = oracle_script(tmp_path, "print(0)\nprint('maybe')\nprint(1)\n")
        with pytest.raises(OracleProtocolError, match=r"not an integer.*line 2"):
            query_oracle(cmd, self.make_dataset())

    def test_negative_label_rejected(self, tmp_path):
        cmd = oracle_script(tmp_path, "print(0)\nprint(-1)\nprint(1)\n")
        with pytest.raises(OracleProtocolError, match=r"negative label -1.*line 2"):
            query_oracle(cmd, self.make_dataset())

    def test_nonzero_exit_surfaces_stderr(self, tmp_path):
        cmd = oracle_script(
            tmp_path, "import sys\nsys.stderr.write('boom: bad flag\\n')\nsys.exit(3)\n"
        )
        with pytest.raises(OracleProtocolError, match="status 3.*boom"):
            query_oracle(cmd, self.make_dataset())


class TestLoadPartition:
    def write_partition(self, tmp_path, doc):
        path = tmp_path / "partition.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_names_and_indices_resolve(self, tmp_path):
        path = self.write_partition(tmp_path, {"groups": [
            {"name": "size", "features": ["width", "height"]},
            {"name": "rest", "features": [2, "depth"]},
        ]})
        p = load_partition(path, feature_names=["width", "height", "weight", "depth"])
        assert p.groups == ((0, 1), (2, 3))
        assert p.names == ("size", "rest")

    def test_group_order_preserved_files_drive_reports(self, tmp_path):
        path = self.write_partition(tmp_path, {"groups": [
            {"features": [3]},
            {"features": [0, 1]},
            {"features": [2]},
        ]})
        p = load_partition(path, n_features=4)
        assert p.groups == ((3,), (0, 1), (2,))
        assert p.names is None

    def test_thirty_features_in_ten_triples(self, tmp_path):
        names = [f"f{i}" for i in range(30)]
        doc = {"groups": [
            {"name": f"attr{k}", "features": [f"f{3 * k + j}" for j in range(3)]}
            for k in range(10)
        ]}
        p = load_partition(self.write_partition(tmp_path, doc), feature_names=names)
        assert len(p) == 10
        assert p.n_features == 30

    def test_partial_names_are_filled(self, tmp_path):
        path = self.write_partition(tmp_path, {"groups": [
            {"name": "named", "features": [0]},
            {"features": [1]},
        ]})
        p = load_partition(path, n_features=2)
        assert p.names == ("named", "group1")

    def test_lenient_collects_residual(self, tmp_path):
        path = self.write_partition(tmp_path, {"groups": [
            {"name": "pair", "features": [1, 3]},
        ]})
        with pytest.raises(ConfigError, match=r"\[0, 2, 4\]"):
            load_partition(path, n_features=5)
        p = load_partition(path, n_features=5, lenient=True)
        assert p.groups == ((1, 3), (0, 2, 4))
        assert p.names == ("pair", "residual")

    def test_structure_errors_name_the_group(self, tmp_path):
        overlap = self.write_partition(tmp_path, {"groups": [
            {"name": "a", "features": [0, 1]},
            {"name": "b", "features": [1, 2]},
        ]})
        with pytest.raises(ConfigError, match="'a'.*'b'"):
            load_partition(overlap, n_features=3)
        duplicate = self.write_partition(tmp_path, {"groups": [
            {"features": [0, 0]},
        ]})
        with pytest.raises(ConfigError, match="twice"):
            load_partition(duplicate, n_features=1)
        unknown = self.write_partition(tmp_path, {"groups": [
            {"features": ["nope"]},
        ]})
        with pytest.raises(ConfigError, match="'nope'"):
            load_partition(unknown, feature_names=["a"])
        out_of_range = self.write_partition(tmp_path, {"groups": [
            {"features": [5]},
        ]})
        with pytest.raises(ConfigError, match="outside"):
            load_partition(out_of_range, n_features=2)
        empty_group = self.write_partition(tmp_path, {"groups": [
            {"name": "void", "features": []},
        ]})
        with pytest.raises(ConfigError, match="'void'"):
            load_partition(empty_group, n_features=2)
        boolean = self.write_partition(tmp_path, {"groups": [
            {"features": [True]},
        ]})
        with pytest.raises(ConfigError, match="non-feature"):
            load_partition(boolean, n_features=2)

    def test_file_level_errors(self, tmp_path):
        not_json = write_text(tmp_path / "p.json", "{broken")
        with pytest.raises(ConfigError, match="JSON"):
            load_partition(not_json, n_features=2)
        no_groups = self.write_partition(tmp_path, {"partition": []})
        with pytest.raises(ConfigError, match="groups"):
            load_partition(no_groups, n_features=2)
        path = self.write_partition(tmp_path, {"groups": [{"features": [0]}]})
        with pytest.raises(ConfigError, match="feature_names or n_features"):
            load_partition(path)
