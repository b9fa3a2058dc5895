"""CSV ingestion, label handling, oracle subprocess protocol, partitions."""

import csv
import io
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from woexplain import (
    Dataset,
    GaussianClassModel,
    csv_header,
    load_csv,
    load_partition,
    query_oracle,
    run_validation,
    save_model,
    write_csv,
)
from woexplain import data
from woexplain.cli import _parse_input_row, _sampled_rows
from woexplain.cli import main as cli_main
from woexplain.errors import (
    ConfigError,
    CsvParseError,
    InvalidDataError,
    OracleProtocolError,
    WoeError,
)

from oracles import random_model


def csv_lines(text):
    """The lines of text, each with its break, as the csv module reading a file of text
    takes them: ended at \\r, \\n and \\r\\n alone, so a quoted line break stays in its cell."""
    return list(io.StringIO(text, newline=""))


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def every_record(path, names, label_column=None):
    """The rows validate's CLI source gives for path with every record sampled, in order."""
    source = _sampled_rows(str(path), names, label_column)
    return source.take(np.arange(source.shape[0]))


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

    def test_repeated_column_name_is_refused(self, tmp_path):
        """Names match columns, so a name given twice would read its first column twice."""
        path = write_text(tmp_path / "t.csv", "a,b, a ,y\n3.04,3.15,-4.82,1\n")
        for read in (load_csv, csv_header, lambda path: load_csv(path, "y", ["a", "b"])):
            with pytest.raises(CsvParseError,
                               match=r"^header repeats a column name \(column 'a'\)$"):
                read(path)
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

    def test_malformed_header_record_is_a_parse_error(self, tmp_path, lowered_field_limit):
        """A csv.Error in the header record is a CsvParseError, not a bare csv.Error."""
        path = write_text(tmp_path / "t.csv", '"' + "a" * (lowered_field_limit + 1) + '",b\n1,2\n')
        for read in (load_csv, csv_header):
            with pytest.raises(CsvParseError, match=r"^malformed CSV header: field larger "
                                                    r"than field limit \(40\)$"):
                read(path)

    def test_csv_header_errors(self, tmp_path):
        with pytest.raises(CsvParseError, match="empty"):
            csv_header(write_text(tmp_path / "empty.csv", ""))
        with pytest.raises(CsvParseError, match="empty column name"):
            csv_header(write_text(tmp_path / "blank.csv", "a,,c\n1,2,3\n"))
        binary = tmp_path / "bin.csv"
        binary.write_bytes(b"a,b\n\xff\xfe,2\n")
        with pytest.raises(CsvParseError, match="UTF-8"):
            csv_header(binary)

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_invalid_utf8_names_its_position_in_the_file(self, tmp_path, bom):
        """A bad byte past the reader's first chunks is named at its offset in the
        file, not in the chunk being decoded (the BOM is not counted)."""
        path = tmp_path / "late.csv"
        path.write_bytes(bom + b"a,b\n" + b"1,2\n" * 5000 + b"\xff,3\n")
        for read in (load_csv, csv_header):
            with pytest.raises(CsvParseError, match=r"can't decode byte 0xff in "
                                                    r"position 20004: invalid start byte$"):
                read(path)


def per_cell_rows(text, columns):
    """The feature rows as float(cell.strip()) per cell, read by the csv module alone."""
    records = list(csv.reader(csv_lines(text)))
    header = [h.strip() for h in records[0]]
    cols = [header.index(name) for name in columns]
    rows = [[float(record[j].strip()) for j in cols] for record in records[1:]]
    return np.array(rows, dtype=float).reshape(len(rows), len(cols))


def per_cell_labels(text, name):
    """Column name's labels and text mapping, or its error as (message, row, column).

    Every stripped cell parsed by float(): when all are integral they are
    the labels, which must be nonnegative and then fit numpy's integer,
    each rule naming its first failing row; otherwise the sorted distinct
    texts are numbered.
    """
    records = list(csv.reader(csv_lines(text)))
    j = [h.strip() for h in records[0]].index(name)
    cells = [record[j].strip() for record in records[1:]]
    try:
        values = [float(cell) for cell in cells]
    except ValueError:
        values = [math.nan]
    if all(v.is_integer() for v in values):
        for r, v in enumerate(values, start=1):
            if v < 0:
                return (f"label {int(v)} is negative; integer labels must be 0..K-1 (use text "
                        f"labels to get an automatic mapping) (row {r}, column {name!r})", r, name)
        for r, v in enumerate(values, start=1):
            if v > np.iinfo(int).max:
                return (f"label {cells[r - 1]!r} is too large for an integer label "
                        f"(row {r}, column {name!r})", r, name)
        return [int(v) for v in values], None
    texts = sorted(set(cells))
    return [texts.index(cell) for cell in cells], {text: k for k, text in enumerate(texts)}


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
            (["1", "inf", "0", "-inf"], [2, 3, 1, 0], {"-inf": 0, "0": 1, "1": 2, "inf": 3}),
            (["1", "0.5", "2"], [1, 0, 2], {"0.5": 0, "1": 1, "2": 2}),
        ]
        for cells, labels, mapping in cases:
            body = "".join(f"{k},{cell}\n" for k, cell in enumerate(cells))
            ds = load_csv(write_text(tmp_path / "t.csv", "x,y\n" + body), label_column="y")
            np.testing.assert_array_equal(ds.labels, labels)
            assert ds.label_mapping == mapping


def per_record_error(text, columns=None):
    """The error of a record-by-record parse read by csv.reader, as (message, row, column).

    Each record's width, then each cell of columns (by default every
    column, in header order); a csv.Error names the record after the last
    one read. None when the file parses.
    """
    records = csv.reader(csv_lines(text))
    header = [h.strip() for h in next(records)]
    cols = range(len(header)) if columns is None else [header.index(name) for name in columns]
    r = 0
    try:
        for r, record in enumerate(records, start=1):
            if len(record) != len(header):
                return f"expected {len(header)} cells, got {len(record)} (row {r})", r, None
            for j in cols:
                name, cell = header[j], record[j].strip()
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
    """Whole bodies give the values and errors of a per-record parse: the first faulty
    record is the one named.

    The faults are placed by blocks of B = 3 records: at each record of
    the second block, and two to a file.
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
        """Seeded fuzz of quote-free text: csv.reader reads the body lines of _read_records
        as the body records the csv module reads from the file."""
        rng = np.random.default_rng(11)
        atoms = ["", "0", "1", "-2.5", "x", " ", "\t", "\x1f", "\u00a0", "a b", "'", "\\"]
        breaks = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                  "\u2028"]
        without_empty_lines = repeated = 0
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
            records = list(csv.reader(io.StringIO(text, newline="")))
            without_empty_lines += [] not in records
            want = [h.strip() for h in records[0]]
            if not all(want):
                # a break the csv module reads through joins lines into the header
                with pytest.raises(CsvParseError, match="header contains an empty column name"):
                    data._read_records(path)
                continue
            if len(set(want)) != len(want):
                # and can give it a name twice, such as 0\x1e0
                with pytest.raises(CsvParseError, match="header repeats a column name"):
                    data._read_records(path)
                repeated += 1
                continue
            header, body = data._read_records(path)
            assert header == want, case
            lines = csv_lines(text)
            assert body == lines[len(lines) - len(body):], case
            assert list(csv.reader(body)) == records[1:], case
        assert without_empty_lines > 150
        assert repeated > 0


def quoted_twin(path, text):
    """A csv.QUOTE_ALL copy of text at path: the same records, read by csv.reader."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(csv.reader(csv_lines(text)))
    return path


def outcome(path, **kwargs):
    """load_csv's Dataset as comparable parts, or its error as (message, row, column)."""
    try:
        ds = load_csv(path, **kwargs)
    except CsvParseError as exc:
        return str(exc), exc.row, exc.column
    labels = None if ds.labels is None else ds.labels.tolist()
    return (ds.header, ds.rows.shape, ds.rows.tobytes(), labels, ds.label_mapping,
            ds.label_name, ds.label_index)


class TestOnePassMatchesTheReferences:
    """Bodies converted in one np.loadtxt pass give what the per-cell references give."""

    CELLS = ("-0.0", " 7 ", "\t-4\t", "\u00a03\u00a0", "\x1f4\x1f", "1_0", "\u0661\u0662",
             "1e999", "nan", "", " ", "oops", "0x1p3", "1e0", "+.5")
    LABELS = ("2", " 0 ", "1.0", "1e0", "0.5", "-1", "1e300", "nan", "cat")
    # quoting hazards: a quoted line break or comma, a space before the opening
    # quote, text after the closing quote, a doubled quote and quoted text
    QUOTED_CELLS = ('"3\n4"', '"1,5"', ' "2"', '"2"x', '"2"""', '"7"')
    QUOTED_LABELS = ('"a\nb"', '"1,0"', ' "2"', '"2"x', '"2"""', '"cat"', '"1"')
    QUOTED_IDS = ('"r\n{}"', '"r,{}"', ' "r{}"')

    def plain_file(self, rng):
        """Header names, label column or None, read columns or None, and the text of one case."""
        features = [f"f{j}" for j in range(int(rng.integers(1, 4)))]
        names = list(features)
        label = "y" if rng.random() < 0.7 else None
        for extra in ([label] if label else []) + (["id"] if rng.random() < 0.3 else []):
            names.insert(int(rng.integers(0, len(names) + 1)), extra)
        columns = None
        if "id" in names or rng.random() < 0.3:
            columns = [str(name) for name in rng.permutation(features)]
        integral = rng.random() < 0.5
        quoted = rng.random() < 0.3
        lines = [",".join(names)]
        for r in range(int(rng.integers(0, 8))):
            cells = []
            for name in names:
                if name == "y":
                    cells.append(str(rng.integers(0, 4)) if integral else
                                 str(rng.choice(self.LABELS + self.QUOTED_LABELS * quoted)))
                elif name == "id":
                    cells.append(str(rng.choice(self.QUOTED_IDS)).format(r)
                                 if quoted and rng.random() < 0.3 else f"r{r}")
                elif rng.random() < 0.9:
                    cells.append(repr(float(rng.normal(0.0, 10.0 ** rng.integers(-3, 4)))))
                else:
                    cells.append(str(rng.choice(self.CELLS + self.QUOTED_CELLS * quoted)))
            line = ",".join(cells) + ("," if rng.random() < 0.04 else "")
            lines.append(" " if rng.random() < 0.04 else line)
        if quoted and len(lines) > 1 and rng.random() < 0.2:
            # a quote left open at the end of the file
            head, comma, tail = lines[-1].rpartition(",")
            lines[-1] = head + comma + '"' + tail
        return label, columns, "\n".join(lines) + "\n"

    def reference(self, text, label, columns):
        header = [h.strip() for h in next(csv.reader(csv_lines(text)))]
        features = columns or [name for name in header if name != label]
        error = per_record_error(text, features)
        if error is not None:
            return error
        labels = mapping = None
        if label is not None:
            parsed = per_cell_labels(text, label)
            if isinstance(parsed[1], int):
                return parsed
            labels, mapping = parsed
        rows = per_cell_rows(text, features)
        return (tuple(features), rows.shape, rows.tobytes(), labels, mapping, label,
                None if label is None else header.index(label))

    def test_seeded_files_match_the_references_and_the_quoted_twin(self, tmp_path, monkeypatch):
        """Whitespace-only lines, trailing commas, width 1, header-only files, an unread
        text id column, every label kind and the quoting hazards, read as the references and
        the quoted twin read them; every file, the twin too, is offered to the one pass."""
        one_pass, accepted, refused = data._one_pass, [], []

        def spy(*args):
            result = one_pass(*args)
            (refused if result is None else accepted).append(args)
            return result

        monkeypatch.setattr(data, "_one_pass", spy)
        rng = np.random.default_rng(17)
        hazards, hazards_passed = 0, 0
        for case in range(400):
            label, columns, text = self.plain_file(rng)
            path = write_text(tmp_path / "t.csv", text)
            calls, passed = len(accepted) + len(refused), len(accepted)
            got = outcome(path, label_column=label, columns=columns)
            assert got == self.reference(text, label, columns), (case, text)
            if '"' in text:
                hazards += 1
                hazards_passed += len(accepted) > passed
            assert outcome(quoted_twin(tmp_path / "q.csv", text),
                           label_column=label, columns=columns) == got, (case, text)
            assert len(accepted) + len(refused) == calls + 2
        assert len(accepted) > 100 and len(refused) > 100
        assert hazards > 50 and hazards_passed > 5

    def test_each_file_takes_its_route(self, tmp_path, monkeypatch):
        """Plain text, quoted text and text labels: one pass; 1_0: refused, then per record."""
        one_pass, per_record, routes = data._one_pass, data._per_record, []

        def spy_one_pass(*args):
            result = one_pass(*args)
            routes.append("one pass" if result is not None else "refused")
            return result

        def spy_per_record(*args):
            routes.append("per record")
            return per_record(*args)

        monkeypatch.setattr(data, "_one_pass", spy_one_pass)
        monkeypatch.setattr(data, "_per_record", spy_per_record)
        cases = [
            ("x,y,label\n1.5,2,0\n3,4,1\n", "label", ["one pass"], [[1.5, 2.0], [3.0, 4.0]]),
            ('"x","y","label"\n"1.5","2","0"\n"3","4","1"\n', "label", ["one pass"],
             [[1.5, 2.0], [3.0, 4.0]]),
            ("x,y,label\n1_0,2,0\n3,4,1\n", "label", ["refused", "per record"],
             [[10.0, 2.0], [3.0, 4.0]]),
            ("x,y,label\n1.5,2,cat\n3,4,dog\n", "label", ["one pass"],
             [[1.5, 2.0], [3.0, 4.0]]),
        ]
        for text, label, route, rows in cases:
            routes.clear()
            path = write_text(tmp_path / "t.csv", text)
            assert load_csv(path, label_column=label).rows.tolist() == rows
            assert routes == route, text
        # validate converts only the records it samples, the label column unread: no
        # whole-file route runs, even with every record sampled
        routes.clear()
        assert every_record(path, ("x", "y"), "label").tolist() == rows
        assert routes == []

    def test_a_late_text_label_costs_one_pass(self, tmp_path, monkeypatch):
        """Integer labels ending in one text cell are read by a single np.loadtxt call, whose
        result is kept, and mapped as text, as the references read them."""
        rng = np.random.default_rng(23)
        lines = ["a,b,y"] + [f"{float(u)!r},{float(v)!r},{int(k)}" for u, v, k in zip(
            rng.normal(size=200), rng.normal(size=200), rng.integers(0, 3, size=200))]
        lines[-1] = lines[-1].rpartition(",")[0] + ",cat"
        text = "\n".join(lines) + "\n"
        path = write_text(tmp_path / "t.csv", text)
        loadtxt, one_pass, calls, kept = np.loadtxt, data._one_pass, [], []

        def spy(*args, **kwargs):
            calls.append(args)
            return loadtxt(*args, **kwargs)

        def spy_one_pass(*args):
            result = one_pass(*args)
            kept.append(result is not None)
            return result

        monkeypatch.setattr(np, "loadtxt", spy)
        monkeypatch.setattr(data, "_one_pass", spy_one_pass)
        got = outcome(path, label_column="y")
        assert len(calls) == 1 and kept == [True]
        assert got == self.reference(text, "y", None)
        assert got[4] == {"0": 0, "1": 1, "2": 2, "cat": 3}


def one_record_reference(text, path, row, columns):
    """Body record row of text, read by csv.reader, as float(cell.strip()) per cell.

    The values' bytes, or the error as (type name, message, row, column):
    a csv.Error anywhere names the record after the last one read; a row
    outside the body is a ConfigError naming path; then record row's
    width, then each cell of columns (header indices) in order. No other
    record is checked.
    """
    reader = csv.reader(csv_lines(text))
    header = [h.strip() for h in next(reader)]
    records = []
    try:
        records.extend(reader)
    except csv.Error as exc:
        r = len(records) + 1
        return "CsvParseError", f"malformed CSV record: {exc} (row {r})", r, None
    if not 0 <= row < len(records):
        return "ConfigError", f"row {row} outside 0..{len(records) - 1} in {path}", None, None
    record, r = records[row], row + 1
    if len(record) != len(header):
        return "CsvParseError", f"expected {len(header)} cells, got {len(record)} (row {r})", r, None
    values = []
    for j in columns:
        name, cell = header[j], record[j].strip()
        try:
            value = float(cell)
        except ValueError:
            return ("CsvParseError", f"cell {cell!r} does not parse as a number "
                    f"(row {r}, column {name!r})", r, name)
        if not math.isfinite(value):
            return "CsvParseError", f"cell {cell!r} is not finite (row {r}, column {name!r})", r, name
        values.append(value)
    return np.array(values, dtype=float).tobytes()


def input_row_outcome(path, feature_names, row):
    """explain's @path:row as the values' bytes, or its error as (type name, message, row, column)."""
    try:
        values = _parse_input_row(f"@{path}:{row}", feature_names)
    except (CsvParseError, ConfigError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    return values.tobytes()


class TestInputRowMatchesAOneRecordReference:
    """explain's @file.csv:ROW converts record ROW alone, as a per-cell parse of it gives."""

    def test_seeded_files_row_by_row(self, tmp_path):
        """Every ROW from -1 to one past the end of the seeded files and their quoted twins,
        features matched by name and by position; where the whole file reads, its row ROW."""
        plain_file = TestOnePassMatchesTheReferences().plain_file
        rng = np.random.default_rng(29)
        whole_file, only_the_row = 0, 0
        for case in range(200):
            label, columns, text = plain_file(rng)
            header = text.splitlines()[0].split(",")
            features = columns or [name for name in header if name != label]
            n_body = len(list(csv.reader(csv_lines(text)))) - 1
            plain = write_text(tmp_path / "t.csv", text)
            quoted = quoted_twin(tmp_path / "q.csv", text)
            for names, cols in ((tuple(features), [header.index(name) for name in features]),
                                (tuple(f"x{j}" for j in range(len(header))), range(len(header)))):
                for path in (plain, quoted):
                    try:
                        rows = every_record(path, names)
                    except CsvParseError:
                        rows = None
                    for row in range(-1, n_body + 1):
                        got = input_row_outcome(path, names, row)
                        assert got == one_record_reference(text, path, row, cols), (case, row, text)
                        if rows is not None and 0 <= row < n_body:
                            assert got == rows[row].tobytes(), (case, row, text)
                            whole_file += 1
                        elif rows is None and isinstance(got, bytes):
                            only_the_row += 1
        assert whole_file > 500 and only_the_row > 100

    def test_only_the_explained_record_is_converted(self, tmp_path, monkeypatch):
        """No whole-file converter runs, and the per-cell parse sees record ROW alone."""
        from woexplain import cli

        parse_cells, parsed = cli._parse_cells, []

        def spy(record, feature_cols, header, r):
            parsed.append(r)
            return parse_cells(record, feature_cols, header, r)

        def refuse(*args):
            raise AssertionError("a whole-file converter ran")

        monkeypatch.setattr(cli, "_parse_cells", spy)
        monkeypatch.setattr(data, "_parse_records", refuse)
        monkeypatch.setattr(data, "_one_pass", refuse)
        monkeypatch.setattr(data, "_per_record", refuse)
        text = "id,b,a\nr0,1,oops\nr1,2.5,-3\nr2,\nr3,4,inf\n"
        for path in (write_text(tmp_path / "t.csv", text), quoted_twin(tmp_path / "q.csv", text)):
            parsed.clear()
            assert _parse_input_row(f"@{path}:1", ("a", "b")).tolist() == [-3.0, 2.5]
            assert parsed == [2]

    def test_an_empty_line_is_an_empty_record(self, tmp_path):
        """csv.reader reads an empty line as a record of no cells, and so does explain."""
        text = "a,b\n1,2\n\n3,4\n"
        path = write_text(tmp_path / "t.csv", text)
        for row in range(-1, 4):
            assert input_row_outcome(path, ("a", "b"), row) == one_record_reference(
                text, path, row, [0, 1])
        assert input_row_outcome(path, ("a", "b"), 1)[1] == "expected 2 cells, got 0 (row 2)"

    def test_a_malformed_record_anywhere_stops_it(self, tmp_path, lowered_field_limit):
        """csv.reader reads the whole body, so a csv.Error after ROW or past the range still raises."""
        text = '"a","b"\n"1","2"\n"3","4"\n"5","' + "6" * (lowered_field_limit + 1) + '"\n'
        path = write_text(tmp_path / "q.csv", text)
        for row in (0, 1, 2, 3):
            assert input_row_outcome(path, ("a", "b"), row) == one_record_reference(
                text, path, row, [0, 1])
            with pytest.raises(CsvParseError, match=r"^malformed CSV record: field larger "
                                                    r"than field limit \(40\) \(row 3\)$"):
                _parse_input_row(f"@{path}:{row}", ("a", "b"))


def named_model(rng, names):
    """A random 3-class full model whose features are names."""
    model = random_model(rng, 3, len(names))
    return GaussianClassModel(means=model.means, covariances=model.covariances,
                              priors=model.priors, mode=model.mode,
                              feature_names=tuple(names)).validate()


def printed_checks(model, rows, trials, seed):
    """The (exit code, stdout, stderr) validate prints for run_validation on rows."""
    try:
        checks = run_validation(model, rows, trials=trials, seed=seed)
    except WoeError as exc:
        return 2, "", f"error: {exc}\n"
    out = "".join(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: max deviation "
                  f"{c.max_deviation:.3e} (tolerance "
                  f"{c.tolerance:{'.3e' if c.tolerance > 1e-9 else '.0e'}}) {c.detail}\n"
                  for c in checks)
    return int(not all(c.passed for c in checks)), out, ""


def sampled_reference(text, path, columns, model, trials, seed):
    """validate's (exit code, stdout, stderr) for text at path, record by record.

    A csv.Error anywhere comes first, then an empty body. Then the
    records run_validation's draw samples are read in ascending order by
    one_record_reference: the first faulty one is the error; otherwise
    the checks are run_validation's on rows holding the sampled records
    and NaN in every other row.
    """
    reader = csv.reader(csv_lines(text))
    next(reader)
    n_body = 0
    try:
        for _ in reader:
            n_body += 1
    except csv.Error:
        return 3, "", f"error: {one_record_reference(text, path, 0, columns)[1]}\n"
    if n_body == 0:
        return 2, "", "error: no data rows to validate on\n"
    rows = np.full((n_body, len(columns)), np.nan)
    for i in np.unique(np.random.default_rng(seed).integers(0, n_body, size=trials)).tolist():
        got = one_record_reference(text, path, i, columns)
        if not isinstance(got, bytes):
            return 3, "", f"error: {got[1]}\n"
        rows[i] = np.frombuffer(got)
    return printed_checks(model, rows, trials, seed)


class TestValidateMatchesTheSampledRecordReference:
    """validate converts the records it samples and no other, each as a per-cell parse of it
    gives; where the whole file converts, it prints run_validation's checks on its rows."""

    @staticmethod
    def validated(capsys, model_path, path, label, trials, seed):
        capsys.readouterr()
        code = cli_main(["validate", "--model", str(model_path), "--data", str(path),
                         *(["--labels", label] if label else []),
                         "--trials", str(trials), "--seed", str(seed)])
        printed = capsys.readouterr()
        return code, printed.out, printed.err

    def test_seeded_files(self, tmp_path, capsys):
        """The seeded files of the one-pass references and their quoted twins, 3 trials each:
        the sampled-record reference always, and the whole file's rows where they convert."""
        plain_file = TestOnePassMatchesTheReferences().plain_file
        rng, models = np.random.default_rng(37), np.random.default_rng(38)
        model_path = tmp_path / "model.json"
        whole_file, only_sampled, faulty = 0, 0, 0
        for case in range(150):
            label, columns, text = plain_file(rng)
            header = [h.strip() for h in next(csv.reader(csv_lines(text)))]
            features = columns or [name for name in header if name != label]
            cols = [header.index(name) for name in features]
            model = named_model(models, features)
            save_model(model, model_path)
            plain = write_text(tmp_path / "t.csv", text)
            try:
                rows = load_csv(plain, columns=features).rows
            except CsvParseError:
                rows = None
            for path in (plain, quoted_twin(tmp_path / "q.csv", text)):
                got = self.validated(capsys, model_path, path, label, 3, case)
                assert got == sampled_reference(text, path, cols, model, 3, case), (case, text)
                if rows is not None:
                    assert got == printed_checks(model, rows, 3, case), (case, text)
                    whole_file += 1
                elif got[0] != 3:
                    only_sampled += 1
                else:
                    faulty += 1
        assert whole_file > 100 and only_sampled > 20 and faulty > 20

    def test_only_the_sampled_records_are_converted(self, tmp_path, monkeypatch, capsys):
        """No whole-file converter runs, and the per-cell parse sees each distinct sampled
        record once, in ascending order, on a plain file and its QUOTE_ALL twin."""
        from woexplain import cli

        parse_cells, parsed = cli._parse_cells, []

        def spy(record, feature_cols, header, r):
            parsed.append(r)
            return parse_cells(record, feature_cols, header, r)

        def refuse(*args):
            raise AssertionError("a whole-file converter ran")

        monkeypatch.setattr(cli, "_parse_cells", spy)
        monkeypatch.setattr(data, "_parse_records", refuse)
        monkeypatch.setattr(data, "_one_pass", refuse)
        monkeypatch.setattr(data, "_per_record", refuse)
        rng = np.random.default_rng(41)
        text = "id,b,y,a\n" + "".join(
            f"r{i},{float(u)!r},{'cat' if i % 3 else 1},{float(v)!r}\n"
            for i, (u, v) in enumerate(rng.normal(size=(40, 2))))
        model_path = tmp_path / "model.json"
        save_model(named_model(rng, ("a", "b")), model_path)
        for path in (write_text(tmp_path / "t.csv", text), quoted_twin(tmp_path / "q.csv", text)):
            for trials, seed in ((1, 0), (25, 3), (200, 1)):
                parsed.clear()
                assert self.validated(capsys, model_path, path, "y", trials, seed)[0] == 0
                ids = np.random.default_rng(seed).integers(0, 40, size=trials)
                # record i is body row i + 1
                assert parsed == [i + 1 for i in sorted(set(ids.tolist()))]


def every_record_outcome(path, names):
    """validate's rows with every record sampled, as load_csv's outcome parts of the columns
    names, or its error as (message, row, column)."""
    try:
        rows = every_record(path, names)
    except CsvParseError as exc:
        return str(exc), exc.row, exc.column
    return tuple(names), rows.shape, rows.tobytes(), None, None, None, None


class TestRecordsEndWhereTheCsvModuleEndsThem:
    """A record ends only where the csv module reading the file ends one: the other
    characters str.splitlines() breaks at are cell text."""

    # vertical tab, form feed, file, group and record separators, next line, line and
    # paragraph separators
    BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")

    def test_in_feature_label_and_ignored_cells(self, tmp_path):
        """Each character padding or inside a feature cell, a label cell and an unread id
        cell: load_csv, validate's rows and explain's @file.csv:ROW give what the
        references give from the csv module's records, on the file and its quoted twin."""
        reference = TestOnePassMatchesTheReferences().reference
        for ch in self.BREAKS:
            for feature, label in ((f"{ch}1{ch}", f"{ch}2"), (f"1{ch}5", f"c{ch}t")):
                text = f"id,a,y,b\nr{ch}0,{feature},{label},3\nr{ch}1,4,1{ch},{ch}5{ch}\n"
                assert len(list(csv.reader(io.StringIO(text, newline="")))) == 3
                for path in (write_text(tmp_path / "t.csv", text),
                             quoted_twin(tmp_path / "q.csv", text)):
                    for label_column, columns in (("y", ["b", "a"]), ("y", None), (None, ["a"])):
                        assert outcome(path, label_column=label_column, columns=columns) == \
                            reference(text, label_column, columns), (ch, text, path)
                    assert every_record_outcome(path, ("a", "b")) == reference(
                        text, None, ["a", "b"]), (ch, text, path)
                    for row in range(-1, 3):
                        assert input_row_outcome(path, ("a", "b"), row) == one_record_reference(
                            text, path, row, [1, 3]), (ch, text, path, row)


def generator_scan(lines):
    """The line scan _body_records made one Python step per line, kept as the reference."""
    return (not any('"' in line or "\0" in line or line in ("\n", "\r", "\r\n")
                    for line in lines)
            and max(map(len, lines), default=0) <= csv.field_size_limit())


class TestBodyScan:
    """_body_records tests its body for one record per line at C speed, with the branch,
    the count and the cells of the per-line scan."""

    PIECES = ("1.5", "-2", "x", '"q"', '"a,b"', '"3\n4"', '"open', "\0", "", "y" * 45)
    BREAKS = ("\n", "\r", "\r\n")

    def test_seeded_bodies(self, lowered_field_limit):
        rng = np.random.default_rng(31)
        branches = set()
        for case in range(400):
            lines = []
            for _ in range(int(rng.integers(0, 6))):
                cells = [self.PIECES[int(j)] for j in
                         rng.choice(len(self.PIECES), size=int(rng.integers(1, 4)),
                                    p=np.r_[[0.3, 0.3, 0.2], [0.2 / 7] * 7])]
                lines += csv_lines(",".join(cells) + self.BREAKS[int(rng.integers(3))])
                if rng.random() < 0.1:
                    lines.append(self.BREAKS[int(rng.integers(3))])
            plain = generator_scan(lines)
            assert data._one_record_per_line(lines) == plain, lines
            branches.add(plain)
            try:
                records = list(csv.reader(lines))
            except csv.Error:
                with pytest.raises(CsvParseError):
                    data._body_records(lines)
                continue
            count, record = data._body_records(lines)
            assert count == len(records), lines
            assert [record(i) for i in range(count)] == records, lines
        assert branches == {True, False}

    def test_each_kind_of_line_takes_the_csv_reader(self, lowered_field_limit):
        plain = ["1,2\n", "3,4\r\n", "5,6"]
        assert data._one_record_per_line(plain) and generator_scan(plain)
        assert data._one_record_per_line([]) and generator_scan([])
        for odd in ('"7",8\n', "7,\x008\n", "\n", "\r", "\r\n", "9," + "9" * 40 + "\n"):
            lines = plain[:2] + [odd] + plain[2:]
            assert not data._one_record_per_line(lines) and not generator_scan(lines), odd


class TestQuotedLineBreaksAreCellText:
    """A line break inside quotes (\\n, \\r or \\r\\n) is cell text, as the csv module reading
    the file keeps it: no reader drops it."""

    BREAKS = ("\n", "\r", "\r\n")

    @staticmethod
    def written(path, text):
        path.write_text(text, encoding="utf-8", newline="")
        return path

    @pytest.mark.parametrize("brk", BREAKS, ids=["LF", "CR", "CRLF"])
    def test_feature_cell_raises_the_per_cell_error(self, tmp_path, brk):
        text = f'y,f,g\n1,2,5\n0,"3{brk}4",6\n1,2,3\n'
        path = self.written(tmp_path / "t.csv", text)
        message = f"cell {'3' + brk + '4'!r} does not parse as a number (row 2, column 'f')"
        assert csv_error(path, label_column="y") == (message, 2, "f")
        assert every_record_outcome(path, ("f", "g")) == (message, 2, "f")
        assert outcome(path, label_column="y") == TestOnePassMatchesTheReferences().reference(
            text, "y", None)

    @pytest.mark.parametrize("brk", BREAKS, ids=["LF", "CR", "CRLF"])
    def test_label_cell_maps_as_itself(self, tmp_path, brk):
        text = f'f,y\n1,"a{brk}b"\n2,c\n3,"a{brk}b"\n'
        ds = load_csv(self.written(tmp_path / "t.csv", text), label_column="y")
        assert ds.label_mapping == {f"a{brk}b": 0, "c": 1}
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.rows.tolist() == [[1.0], [2.0], [3.0]]

    @pytest.mark.parametrize("brk", BREAKS, ids=["LF", "CR", "CRLF"])
    def test_input_row_reads_its_own_record(self, tmp_path, brk):
        """ROW 1 holds the break in a feature cell and raises its error; the records around
        it, one with a break in its id cell, read their own values."""
        text = f'id,f,g\n"r{brk}0",1,2\nr1,"3{brk}4",5\nr2,6,7\n'
        path = self.written(tmp_path / "t.csv", text)
        message = f"cell {'3' + brk + '4'!r} does not parse as a number (row 2, column 'f')"
        assert input_row_outcome(path, ("f", "g"), 1) == ("CsvParseError", message, 2, "f")
        assert _parse_input_row(f"@{path}:0", ("f", "g")).tolist() == [1.0, 2.0]
        assert _parse_input_row(f"@{path}:2", ("f", "g")).tolist() == [6.0, 7.0]
        for row in range(-1, 4):
            assert input_row_outcome(path, ("f", "g"), row) == one_record_reference(
                text, path, row, [1, 2]), row


class TestLoadCsvMemory:
    def test_peak_stays_below_a_list_of_float_lists(self, tmp_path):
        """A 20,000 x 10 file (3.9 MB) peaked at 13.7 MB when every row was a list of
        floats before becoming an array, at 9.2 MB converted in one np.loadtxt pass with
        the file text beside its lines and the lines beside their join for the NUL check,
        and peaks at 8.5 MB read straight into its lines, which the NUL check reads in
        place (Python 3.11, numpy 2.4)."""
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

    def test_labels_without_a_name_are_not_written(self, tmp_path):
        """A label column needs a name in the header, so nameless labels stay out of every record."""
        ds = Dataset(header=("a", "b"), rows=[[1, 2], [3, 4]], labels=[0, 1], label_index=0)
        out = tmp_path / "out.csv"
        write_csv(ds, out)
        again = load_csv(out)
        assert again.header == ds.header
        np.testing.assert_array_equal(again.rows, ds.rows)
        assert out.read_text(encoding="utf-8").splitlines() == ["a,b", "1.0,2.0", "3.0,4.0"]

    def test_dataset_validation(self):
        with pytest.raises(InvalidDataError, match=r"^rows must be 2-D, got shape \(2,\)$"):
            Dataset(header=("a", "b"), rows=np.zeros(2))
        with pytest.raises(InvalidDataError, match="^1 header names for 2 feature columns$"):
            Dataset(header=("a",), rows=np.zeros((2, 2)))
        with pytest.raises(InvalidDataError,
                           match=r"^labels shape \(1,\) does not match 2 rows$"):
            Dataset(header=("a", "b"), rows=np.zeros((2, 2)), labels=np.array([0]))
        with pytest.raises(InvalidDataError, match="^negative label -1$"):
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
        p = load_partition(path, feature_names=["a", "b", "c", "d"])
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
        p = load_partition(path, feature_names=["a", "b"])
        assert p.names == ("named", "group1")

    def test_lenient_collects_residual(self, tmp_path):
        path = self.write_partition(tmp_path, {"groups": [
            {"name": "pair", "features": [1, 3]},
        ]})
        with pytest.raises(ConfigError, match=r"\[0, 2, 4\]"):
            load_partition(path, feature_names=list("abcde"))
        p = load_partition(path, feature_names=list("abcde"), lenient=True)
        assert p.groups == ((1, 3), (0, 2, 4))
        assert p.names == ("pair", "residual")

    def test_structure_errors_name_the_group(self, tmp_path):
        overlap = self.write_partition(tmp_path, {"groups": [
            {"name": "a", "features": [0, 1]},
            {"name": "b", "features": [1, 2]},
        ]})
        with pytest.raises(ConfigError, match="'a'.*'b'"):
            load_partition(overlap, feature_names=["a", "b", "c"])
        duplicate = self.write_partition(tmp_path, {"groups": [
            {"features": [0, 0]},
        ]})
        with pytest.raises(ConfigError, match="twice"):
            load_partition(duplicate, feature_names=["a"])
        unknown = self.write_partition(tmp_path, {"groups": [
            {"features": ["nope"]},
        ]})
        with pytest.raises(ConfigError, match="'nope'"):
            load_partition(unknown, feature_names=["a"])
        out_of_range = self.write_partition(tmp_path, {"groups": [
            {"features": [5]},
        ]})
        with pytest.raises(ConfigError, match="outside"):
            load_partition(out_of_range, feature_names=["a", "b"])
        empty_group = self.write_partition(tmp_path, {"groups": [
            {"name": "void", "features": []},
        ]})
        with pytest.raises(ConfigError, match="'void'"):
            load_partition(empty_group, feature_names=["a", "b"])
        boolean = self.write_partition(tmp_path, {"groups": [
            {"features": [True]},
        ]})
        with pytest.raises(ConfigError, match="non-feature"):
            load_partition(boolean, feature_names=["a", "b"])
        # an unnamed group is named by its position in the file
        for groups, message in [
            (["ab"], "group 0 must be an object with a features list"),
            ([{"features": [0]}, {}], "group 1 is empty or missing its features list"),
            ([{"features": [True]}], "group 0 has a non-feature entry True"),
            ([{"features": [0]}, {"features": [1.5]}], "group 1 has a non-feature entry 1.5"),
            ([{"features": ["c"]}], "group 0 names unknown feature 'c'"),
            ([{"features": [0, 2]}], "group 0 index 2 outside 0..1"),
            ([{"features": [0, 1]}, {"features": [1]}],
             "feature 1 appears in both group 0 and group 1"),
            ([{"name": "x", "features": [0]}, {"features": [0]}],
             "feature 0 appears in both group 'x' and group 'group1'"),
            ([{"features": [1, 1]}], "group 0 lists feature 1 twice"),
        ]:
            path = self.write_partition(tmp_path, {"groups": groups})
            with pytest.raises(ConfigError) as caught:
                load_partition(path, feature_names=["a", "b"])
            assert str(caught.value) == message

    @pytest.mark.parametrize("lenient", [False, True])
    def test_one_label_per_group_in_a_file(self, tmp_path, lenient):
        """An unnamed group is 'group{k}' in every message once another group has a name,
        and its position in every message otherwise; the residual's name changes neither."""
        for groups, message in [
            ([{"name": "x", "features": ["a"]}, {"features": ["d"]}],
             "group 'group1' names unknown feature 'd'"),
            ([{"name": "x", "features": ["a"]}, {"features": ["a", "b"]}],
             "feature 0 appears in both group 'x' and group 'group1'"),
            ([{"name": "x", "features": ["a"]}, "b"],
             "group 'group1' must be an object with a features list"),
            ([{"features": ["a"]}, {"features": ["a"]}],
             "feature 0 appears in both group 0 and group 1"),
            ([{"features": ["a", "a"]}], "group 0 lists feature 0 twice"),
            ([{"features": ["a"]}, {"features": []}], "group 1 is empty"),
        ]:
            path = self.write_partition(tmp_path, {"groups": groups})
            with pytest.raises(ConfigError) as caught:
                load_partition(path, feature_names=["a", "b", "c"], lenient=lenient)
            assert str(caught.value) == message
        path = self.write_partition(tmp_path, {"groups": [{"features": [2]}, {"features": [0]}]})
        p = load_partition(path, feature_names=["a", "b", "c"], lenient=True)
        assert p.groups == ((2,), (0,), (1,))
        assert p.names == ("group0", "group1", "residual")

    def test_file_level_errors(self, tmp_path):
        not_json = write_text(tmp_path / "p.json", "{broken")
        with pytest.raises(ConfigError, match="JSON"):
            load_partition(not_json, feature_names=["a", "b"])
        no_groups = self.write_partition(tmp_path, {"partition": []})
        with pytest.raises(ConfigError, match="groups"):
            load_partition(no_groups, feature_names=["a", "b"])
