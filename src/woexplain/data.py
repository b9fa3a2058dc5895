"""Data ingestion: CSV files, label oracles, and partition configs.

CSV files are UTF-8 with a header row; every feature cell must parse as
a finite real. Labels come either from a named column or from an
external oracle command that reads one CSV row per line on stdin and
writes one integer label per line on stdout. Attribute partitions are
JSON documents listing named feature groups.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import subprocess
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    CsvParseError,
    InvalidDataError,
    InvalidPartitionError,
    OracleProtocolError,
)
from .types import AttributePartition


@dataclass(frozen=True)
class Dataset:
    """A rectangular table of feature rows, optionally with labels.

    label_mapping records how a non-integer label column was densified
    (original cell text to 0..K-1); label_index remembers where the
    label column sat in the original file so a round trip preserves it.
    """

    header: tuple[str, ...]
    rows: np.ndarray
    labels: np.ndarray | None = None
    label_name: str | None = None
    label_index: int | None = None
    label_mapping: dict[str, int] | None = None

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise InvalidDataError(f"rows must be 2-D, got shape {rows.shape}")
        header = tuple(str(h) for h in self.header)
        if rows.shape[1] != len(header):
            raise InvalidDataError(
                f"{len(header)} header names for {rows.shape[1]} feature columns"
            )
        rows = rows.copy()
        rows.setflags(write=False)
        object.__setattr__(self, "header", header)
        object.__setattr__(self, "rows", rows)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=int)
            if labels.shape != (rows.shape[0],):
                raise InvalidDataError(
                    f"labels shape {labels.shape} does not match {rows.shape[0]} rows"
                )
            if labels.size and labels.min() < 0:
                raise InvalidDataError(f"negative label {int(labels.min())}")
            labels = labels.copy()
            labels.setflags(write=False)
            object.__setattr__(self, "labels", labels)

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.rows.shape[1])


def _parse_labels(cells: Iterable[str], column: str) -> tuple[np.ndarray, dict[str, int] | None]:
    """Densify a label column; every cell is stripped first.

    Integer-valued cells pass through unchanged and must be nonnegative
    and fit numpy's default integer; each rule names the first row that
    breaks it. Anything else is treated as categorical: distinct cell
    texts are sorted and mapped to 0..K-1, and the mapping is returned.
    """
    cells = list(map(str.strip, cells))
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        integral = False
    else:
        integral = (np.isfinite(values) & (np.floor(values) == values)).all()
    if integral:
        negative = np.flatnonzero(values < 0)
        if negative.size:
            r = int(negative[0]) + 1
            raise CsvParseError(
                f"label {int(values[r - 1])} is negative; integer labels must be 0..K-1 "
                "(use text labels to get an automatic mapping)",
                row=r, column=column,
            )
        # -min is the first integral float past the maximum: 2**63 for int64
        large = np.flatnonzero(values >= -float(np.iinfo(int).min))
        if large.size:
            r = int(large[0]) + 1
            raise CsvParseError(
                f"label {cells[r - 1]!r} is too large for an integer label",
                row=r, column=column,
            )
        return values.astype(int), None
    mapping = {text: k for k, text in enumerate(sorted(set(cells)))}
    return np.array([mapping[c] for c in cells], dtype=int), mapping


def _read_records(path: "str | Path") -> tuple[list[str], list[str]]:
    """The checked header and the body lines, each with its line break.

    The lines are those of the file opened with newline="", as the csv
    docs prescribe: a line ends at \\n, \\r or \\r\\n alone and keeps its
    break, so csv.reader and np.loadtxt keep a quoted line break in its
    cell. (str.splitlines() would also break at form feeds, the file,
    group and record separators and Unicode's line and paragraph
    separators.) The header is csv.reader's first record, its names
    stripped, nonempty and distinct, and the body is every line after the
    lines that record took; no body line is split or converted here.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        # readlines decodes chunk by chunk and counts a bad byte's position
        # from its chunk; the whole file decoded at once counts from its start
        try:
            Path(path).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as whole:
            exc = whole
        raise CsvParseError(f"file {path} is not valid UTF-8: {exc}") from exc
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise CsvParseError(f"malformed CSV header: {exc}") from exc
    if header is None:
        raise CsvParseError(f"file {path} is empty, expected a header row")
    header = [h.strip() for h in header]
    if any(not h for h in header):
        raise CsvParseError("header contains an empty column name")
    if len(set(header)) != len(header):
        repeated = next(h for j, h in enumerate(header) if h in header[:j])
        raise CsvParseError("header repeats a column name", column=repeated)
    return header, lines[reader.line_num:]


def _parse_cells(
    record: list[str], feature_cols: Sequence[int], header: Sequence[str], r: int
) -> list[float]:
    """The feature cells of body record r, checked and parsed one at a time.

    The record's width is checked first; then each cell is stripped,
    parsed and checked for finiteness in feature_cols order, so the first
    failing cell is the one named. The values are returned when every
    cell passes: float() alone rejects padding that str.strip() removes,
    such as U+001F.
    """
    if len(record) != len(header):
        raise CsvParseError(f"expected {len(header)} cells, got {len(record)}", row=r)
    parsed = []
    for j in feature_cols:
        cell = record[j].strip()
        try:
            v = float(cell)
        except ValueError:
            raise CsvParseError(
                f"cell {cell!r} does not parse as a number", row=r, column=header[j]
            ) from None
        if not math.isfinite(v):
            raise CsvParseError(
                f"cell {cell!r} is not finite", row=r, column=header[j]
            )
        parsed.append(v)
    return parsed


def csv_header(path: "str | Path") -> tuple[str, ...]:
    """Column names of a CSV file, without parsing the body."""
    return tuple(_read_records(path)[0])


def load_csv(
    path: "str | Path",
    label_column: str | None = None,
    columns: Sequence[str] | None = None,
) -> Dataset:
    """Read a UTF-8 CSV with a header row into a Dataset.

    When label_column names a header entry, that column is split off as
    labels and excluded from the features. When columns is given, only
    those named columns are parsed as features (in the given order) and
    everything else is ignored. Parse failures report the 1-based data
    row and the column name. The body is converted in one C-level pass
    where it can be, and record by record otherwise (_parse_records);
    both give the same values and errors.
    """
    header, body = _read_records(path)
    return _parse_records(header, body, *_columns(header, label_column, columns))


def _columns(
    header: Sequence[str],
    label_column: str | None = None,
    columns: Sequence[str] | None = None,
) -> tuple[list[int], int | None]:
    """The feature column indices and the label column index of load_csv, checked.

    The label column must be in the header. The features are the named
    columns, in their order, when columns is given, and every other
    column otherwise; there must be at least one, and none may be the
    label column.
    """
    label_idx: int | None = None
    if label_column is not None:
        if label_column not in header:
            raise CsvParseError(
                f"label column not found in header {header}", column=label_column
            )
        label_idx = header.index(label_column)
    if columns is not None:
        feature_cols = []
        for name in columns:
            if name not in header:
                raise CsvParseError(
                    f"column not found in header {header}", column=name
                )
            j = header.index(name)
            if j == label_idx:
                raise CsvParseError(
                    f"column {name!r} requested both as feature and label"
                )
            feature_cols.append(j)
    else:
        feature_cols = [j for j in range(len(header)) if j != label_idx]
    if not feature_cols:
        raise CsvParseError("no feature columns besides the label column")
    return feature_cols, label_idx


def _parse_records(
    header: list[str],
    body: list[str],
    feature_cols: Sequence[int],
    label_idx: int | None = None,
) -> Dataset:
    """The Dataset of feature_cols and label_idx of a file already read (_read_records).

    The body lines are converted in one np.loadtxt pass (_one_pass); a
    body that pass refuses is read record by record (_per_record), which
    raises the first faulty record's error or parses what only it
    accepts. Either way the label cells go to _parse_labels. Columns
    outside feature_cols and label_idx are never converted.
    """
    parsed = _one_pass(body, feature_cols, label_idx, len(header))
    if parsed is None:
        parsed = _per_record(body, feature_cols, label_idx, header)
    rows, label_cells = parsed
    labels = mapping = None
    if label_idx is not None:
        labels, mapping = _parse_labels(label_cells, header[label_idx])
    return Dataset(
        header=tuple(header[j] for j in feature_cols),
        rows=rows,
        labels=labels,
        label_name=header[label_idx] if label_idx is not None else None,
        label_index=label_idx,
        label_mapping=mapping,
    )


def _one_pass(
    lines: list[str], feature_cols: Sequence[int], label_idx: int | None, width: int
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """The rows and raw label cells of body lines, or None for the per-record route.

    One np.loadtxt call reads every line, quoted or not, as csv.reader's
    excel dialect reads it, with one dtype field per column: floats for
    the features, text cells for the label and empty text for the rest,
    so a line of any other width raises. It strips the whitespace
    str.strip() strips and converts the rest with PyOS_string_to_double,
    as float() does, so the values it gives are bitwise those of
    _parse_cells; it refuses underscores and non-ASCII digits, which
    float() reads. None is returned, and the per-record route runs on the
    same lines, when there are no lines, a NUL (which csv.reader refuses
    before Python 3.11) or a line longer than csv.field_size_limit(); when
    loadtxt raises; when it gives fewer rows than there are lines, as an
    empty line (which it skips) or a quoted line break does; or when a
    feature is not finite.
    """
    if (not lines or any("\0" in line for line in lines)
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    # a column read as empty text ("U0") counts towards the width but is never kept
    kinds = dict.fromkeys(range(width), "U0") | dict.fromkeys(feature_cols, float)
    if label_idx is not None:
        kinds[label_idx] = object
    dtype = np.dtype([(f"c{j}", kind) for j, kind in kinds.items()])
    try:
        values = np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                            ndmin=1)
    except ValueError:
        return None
    rows = np.stack([values[f"c{j}"] for j in feature_cols], axis=1)
    if len(values) != len(lines) or not np.isfinite(rows).all():
        return None
    return rows, (None if label_idx is None else values[f"c{label_idx}"])


def _per_record(
    lines: list[str],
    feature_cols: Sequence[int],
    label_idx: int | None,
    header: Sequence[str],
) -> tuple[np.ndarray, list[str]]:
    """The rows and raw label cells of body lines read by csv.reader, record by record.

    Each record goes through _parse_cells, so the first faulty record
    raises its error; a csv.Error names the record after the last one
    read.
    """
    rows, label_cells, r = [], [], 0
    try:
        for r, record in enumerate(csv.reader(lines), start=1):
            rows.append(_parse_cells(record, feature_cols, header, r))
            if label_idx is not None:
                label_cells.append(record[label_idx])
    except csv.Error as exc:
        raise CsvParseError(f"malformed CSV record: {exc}", row=r + 1) from exc
    return np.array(rows, dtype=float).reshape(len(rows), len(feature_cols)), label_cells


def _one_record_per_line(lines: list[str]) -> bool:
    """Whether csv.reader reads each line as one record, tested with no Python step per line.

    That is so where no line holds a quote or a NUL, none is an empty
    line and none is longer than csv.field_size_limit(). Each test runs
    a C loop over the lines and no copy of the body is made. The empty
    lines are looked for in the list, by length and then by value: a set
    test would hash every line of a file just read.
    """
    return (not any(map(operator.contains, lines, repeat('"')))
            and not any(map(operator.contains, lines, repeat("\0")))
            and "\n" not in lines and "\r" not in lines and "\r\n" not in lines
            and max(map(len, lines), default=0) <= csv.field_size_limit())


def _body_records(lines: list[str]) -> tuple[int, Callable[[int], list[str]]]:
    """The number of body records, and a function giving record i's cells.

    The body is scanned once and no cell is converted. Where each line is
    one record, as csv.reader reads it (no quote, no NUL, no empty line
    and no line longer than csv.field_size_limit()), the lines are
    counted and record i is line i split at its commas, its break left
    off. Otherwise csv.reader reads the body to its end, so a malformed
    record anywhere raises _per_record's error, and the line each record
    starts at is kept: record i is csv.reader's one record of its own
    lines.
    """
    if _one_record_per_line(lines):
        return len(lines), lambda i: lines[i].rstrip("\r\n").split(",")
    reader, starts = csv.reader(lines), [0]
    try:
        for _ in reader:
            starts.append(reader.line_num)
    except csv.Error as exc:
        raise CsvParseError(f"malformed CSV record: {exc}", row=len(starts)) from exc
    return len(starts) - 1, lambda i: next(csv.reader(lines[starts[i]:starts[i + 1]]))


def _format_value(v: float) -> str:
    # repr gives the shortest digits that round-trip to the same float
    return repr(float(v))


def write_csv(dataset: Dataset, path: "str | Path") -> None:
    """Write a Dataset back to CSV, restoring the label column position.

    The labels get a column only where they have a name to head it: at
    label_index, or last where that is None. Labels without a
    label_name are not written, so every record has a cell per header
    name and the file reads back.
    """
    header = list(dataset.header)
    label_idx = None
    if dataset.labels is not None and dataset.label_name is not None:
        label_idx = len(header) if dataset.label_index is None else dataset.label_index
        header.insert(label_idx, dataset.label_name)
    # invert the mapping so categorical labels round-trip as text
    inverse = None
    if dataset.label_mapping is not None:
        inverse = {v: k for k, v in dataset.label_mapping.items()}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(dataset.n_rows):
            record = [_format_value(v) for v in dataset.rows[i]]
            if label_idx is not None:
                label = int(dataset.labels[i])
                cell = inverse[label] if inverse is not None else str(label)
                record.insert(label_idx, cell)
            writer.writerow(record)


def query_oracle(command: str, dataset: Dataset) -> np.ndarray:
    """Label every dataset row by running an external command.

    The subprocess protocol: each feature row is written as one CSV line
    (no header) to the command's stdin; the command must exit 0 and
    write exactly one nonnegative integer label per line, in row order.
    Identical rows are always serialized to identical bytes.
    """
    stdin_text = "".join(
        ",".join(_format_value(v) for v in row) + "\n" for row in dataset.rows
    )
    try:
        proc = subprocess.run(
            command,
            shell=True,
            input=stdin_text,
            capture_output=True,
            text=True,
        )
    except OSError as exc:
        raise OracleProtocolError(f"could not run oracle command: {exc}") from exc
    if proc.returncode != 0:
        detail = proc.stderr.strip().splitlines()
        suffix = f": {detail[-1]}" if detail else ""
        raise OracleProtocolError(
            f"oracle command exited with status {proc.returncode}{suffix}"
        )
    lines = proc.stdout.splitlines()
    if len(lines) != dataset.n_rows:
        raise OracleProtocolError(
            f"expected {dataset.n_rows} label lines, got {len(lines)}",
            line=min(dataset.n_rows, len(lines)) + 1,
        )
    labels = np.empty(dataset.n_rows, dtype=int)
    for i, line in enumerate(lines, start=1):
        try:
            v = int(line.strip())
        except ValueError:
            raise OracleProtocolError(
                f"label line {line!r} is not an integer", line=i
            ) from None
        if v < 0:
            raise OracleProtocolError(f"negative label {v}", line=i)
        labels[i - 1] = v
    return labels


def load_partition(
    path: "str | Path",
    feature_names: Sequence[str],
    lenient: bool = False,
) -> AttributePartition:
    """Read a JSON partition file: {"groups": [{"name", "features"}, ...]}.

    Feature entries may be indices or names from feature_names. The
    groups are checked as AttributePartition checks them, and must cover
    every feature; with lenient=True the leftovers become one final
    auto-named residual group. Group order in the file is preserved, and
    every fault of the file's content is a ConfigError.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"partition file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("groups"), list) or not doc["groups"]:
        raise ConfigError('partition file must contain a nonempty "groups" list')
    n = len(feature_names)
    # a JSON integer in range or a feature name, to its index
    lookup = {i: i for i in range(n)} | {str(name): i for i, name in enumerate(feature_names)}
    entries = doc["groups"]
    given = [e.get("name") if isinstance(e, dict) else None for e in entries]
    # the names the report shows when the file names any group, an unnamed one being
    # 'group{k}'; every message labels a group as AttributePartition does, by repr(name),
    # or by its position when the file names none, whatever the residual is called
    names = ([f"group{k}" if nm is None else str(nm) for k, nm in enumerate(given)]
             if any(nm is not None for nm in given) else None)
    labels = list(map(repr, names)) if names else list(map(str, range(len(entries))))
    groups: list[list[int]] = []
    for label, entry in zip(labels, entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"group {label} must be an object with a features list")
        feats = entry.get("features")
        if not isinstance(feats, list):
            raise ConfigError(f"group {label} is empty or missing its features list")
        for item in feats:
            # type(), not isinstance(): True is an int to isinstance and would look up 1
            if type(item) not in (int, str):
                raise ConfigError(f"group {label} has a non-feature entry {item!r}")
            if isinstance(item, str) and item not in lookup:
                raise ConfigError(f"group {label} names unknown feature {item!r}")
            if item not in lookup:
                raise ConfigError(f"group {label} index {item} outside 0..{n - 1}")
        groups.append([lookup[item] for item in feats])
    missing = sorted(set(range(n)).difference(*groups))
    if missing:
        # a residual holds only unassigned features, so no group error can name it
        groups.append(missing)
        if names is not None:
            names.append("residual")
    try:
        partition = AttributePartition(groups=groups, names=names)
    except InvalidPartitionError as exc:
        raise ConfigError(str(exc)) from exc
    if missing and not lenient:
        raise ConfigError(
            f"features {missing} are not assigned to any group "
            "(pass lenient to collect them into a residual group)"
        )
    if missing and names is None:
        # the residual is named, so every group of the file takes its report name
        names = [f"group{k}" for k in range(len(entries))] + ["residual"]
        partition = AttributePartition(groups=partition.groups, names=names)
    return partition
