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
import subprocess
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, CsvParseError, InvalidDataError, OracleProtocolError
from .types import AttributePartition

# body cells (records x header width) converted together in one block; a
# block's split cells live at once, so larger blocks only raise the peak
BLOCK_CELLS = 1 << 13


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


def _parse_labels(cells: list[str], column: str) -> tuple[np.ndarray, dict[str, int] | None]:
    """Densify a label column.

    Integer-valued cells pass through unchanged and must be nonnegative
    and fit numpy's default integer. Anything else is treated as
    categorical: distinct cell texts are sorted and mapped to 0..K-1, and
    the mapping is returned.
    """
    try:
        parsed = list(map(float, cells))
    except ValueError:
        integral = False
    else:
        # is_integer is False for inf and nan too, so this also checks finiteness
        integral = all(map(float.is_integer, parsed))
    if integral:
        values = list(map(int, parsed))
        for r, v in enumerate(values, start=1):
            if v < 0:
                raise CsvParseError(
                    f"label {v} is negative; integer labels must be 0..K-1 "
                    "(use text labels to get an automatic mapping)",
                    row=r, column=column,
                )
        try:
            return np.asarray(values, dtype=int), None
        except OverflowError:
            # only a label past numpy's integer range overflows; the first is named
            r = next(r for r, v in enumerate(values, start=1) if v > np.iinfo(int).max)
            raise CsvParseError(
                f"label {cells[r - 1]!r} is too large for an integer label",
                row=r, column=column,
            ) from None
    mapping = {text: k for k, text in enumerate(sorted(set(cells)))}
    return np.array([mapping[c] for c in cells], dtype=int), mapping


def _read_records(path: "str | Path") -> tuple[list[str], Iterator[list[str]]]:
    """The checked header and an iterator over the body records.

    The file is read and split into lines at once; each record is split
    from its line as the iterator is consumed. Text with no quote, no NUL,
    no empty line and no line longer than csv.field_size_limit() is split
    at every comma by str.split, which is what the csv module's excel
    dialect does with it; any other text goes through csv.reader.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"file {path} is not valid UTF-8: {exc}") from exc
    lines = text.splitlines()
    plain = ('"' not in text and "\0" not in text and "" not in lines
             and max(map(len, lines), default=0) <= csv.field_size_limit())
    records = map(str.split, lines, repeat(",")) if plain else csv.reader(lines)
    header = next(records, None)
    if header is None:
        raise CsvParseError(f"file {path} is empty, expected a header row")
    header = [h.strip() for h in header]
    if any(not h for h in header):
        raise CsvParseError("header contains an empty column name")
    return header, records


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
    row and the column name.
    """
    return _parse_records(*_read_records(path), label_column, columns)


def _parse_records(
    header: list[str],
    body: Iterator[list[str]],
    label_column: str | None = None,
    columns: Sequence[str] | None = None,
) -> Dataset:
    """load_csv on the checked header and body records of a file already read.

    The body is taken BLOCK_CELLS cells at a time, and each block goes
    through _block_rows; a csv.Error is raised once the records read
    before it have been checked, so every error names the first faulty
    record, as a record-by-record parse would.
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

    width = len(header)
    per_block = max(1, BLOCK_CELLS // width)
    blocks: list[np.ndarray] = []
    label_cells: list[str] = []
    r = 0  # body records checked so far
    while True:
        block: list[list[str]] = []
        error = None
        try:
            # extend keeps the records read before a csv.Error
            block.extend(islice(body, per_block))
        except csv.Error as exc:
            error = exc
        if block:
            blocks.append(_block_rows(block, feature_cols, header, r))
            if label_idx is not None:
                label_cells.extend(map(str.strip, map(itemgetter(label_idx), block)))
            r += len(block)
        if error is not None:
            raise CsvParseError(f"malformed CSV record: {error}", row=r + 1) from error
        if len(block) < per_block:
            break

    labels = mapping = None
    if label_idx is not None:
        labels, mapping = _parse_labels(label_cells, header[label_idx])

    data = np.concatenate(blocks) if blocks else np.empty((0, len(feature_cols)))
    return Dataset(
        header=tuple(header[j] for j in feature_cols),
        rows=data,
        labels=labels,
        label_name=header[label_idx] if label_idx is not None else None,
        label_index=label_idx,
        label_mapping=mapping,
    )


def _block_rows(
    block: list[list[str]], feature_cols: Sequence[int], header: Sequence[str], r: int
) -> np.ndarray:
    """The feature rows of body records r+1.. in block.

    When every record has the header's width, each feature column is
    converted by one C-level float() pass and the block is checked for
    finiteness at once. float() skips only whitespace that str.strip()
    also removes, so a block that passes holds the values _parse_cells
    gives. A block that fails any check goes through _parse_cells
    record by record, which raises for its first faulty record or parses
    cells that only str.strip() can clean.
    """
    width = len(header)
    if all(map(width.__eq__, map(len, block))):
        cells = list(chain.from_iterable(block))
        values = np.empty((len(feature_cols), len(block)))
        try:
            for k, j in enumerate(feature_cols):
                values[k] = list(map(float, cells[j::width]))
        except ValueError:
            pass
        else:
            if np.isfinite(values).all():
                return values.T
    return np.array([
        _parse_cells(record, feature_cols, header, i)
        for i, record in enumerate(block, start=r + 1)
    ])


def _format_value(v: float) -> str:
    # repr gives the shortest digits that round-trip to the same float
    return repr(float(v))


def write_csv(dataset: Dataset, path: "str | Path") -> None:
    """Write a Dataset back to CSV, restoring the label column position."""
    header = list(dataset.header)
    label_idx = dataset.label_index
    if dataset.labels is not None and dataset.label_name is not None:
        if label_idx is None:
            label_idx = len(header)
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
            if dataset.labels is not None and label_idx is not None:
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
    feature_names: Sequence[str] | None = None,
    n_features: int | None = None,
    lenient: bool = False,
) -> AttributePartition:
    """Read a JSON partition file: {"groups": [{"name", "features"}, ...]}.

    Feature entries may be indices or header names (names need
    feature_names). Groups must be disjoint and, in strict mode, cover
    every feature; with lenient=True the leftovers become one final
    auto-named residual group. Group order in the file is preserved.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"partition file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("groups"), list) or not doc["groups"]:
        raise ConfigError('partition file must contain a nonempty "groups" list')

    if feature_names is not None:
        n = len(feature_names)
        name_to_index = {str(name): i for i, name in enumerate(feature_names)}
    elif n_features is not None:
        n = int(n_features)
        name_to_index = {}
    else:
        raise ConfigError("resolving a partition needs feature_names or n_features")

    owner: dict[int, str] = {}
    groups: list[tuple[int, ...]] = []
    names: list[str | None] = []
    for k, entry in enumerate(doc["groups"]):
        if not isinstance(entry, dict):
            raise ConfigError(f"group {k} must be an object with a features list")
        gname = entry.get("name")
        label = repr(gname) if gname is not None else f"group {k}"
        feats = entry.get("features")
        if not isinstance(feats, list) or not feats:
            raise ConfigError(f"group {label} is empty or missing its features list")
        resolved = []
        for item in feats:
            if isinstance(item, bool):
                raise ConfigError(f"group {label} has a non-feature entry {item!r}")
            if isinstance(item, int):
                idx = item
            elif isinstance(item, str):
                if item not in name_to_index:
                    raise ConfigError(f"group {label} names unknown feature {item!r}")
                idx = name_to_index[item]
            else:
                raise ConfigError(f"group {label} has a non-feature entry {item!r}")
            if not 0 <= idx < n:
                raise ConfigError(f"group {label} index {idx} outside 0..{n - 1}")
            if idx in owner:
                raise ConfigError(
                    f"feature {idx} appears in both group {owner[idx]} and group {label}"
                )
            if idx in resolved:
                raise ConfigError(f"group {label} lists feature {idx} twice")
            resolved.append(idx)
        for idx in resolved:
            owner[idx] = label
        groups.append(tuple(sorted(resolved)))
        names.append(str(gname) if gname is not None else None)

    missing = sorted(set(range(n)) - set(owner))
    if missing:
        if not lenient:
            raise ConfigError(
                f"features {missing} are not assigned to any group "
                "(pass lenient to collect them into a residual group)"
            )
        groups.append(tuple(missing))
        names.append("residual")

    final_names = None
    if any(nm is not None for nm in names):
        final_names = tuple(nm if nm is not None else f"group{k}" for k, nm in enumerate(names))
    return AttributePartition(groups=tuple(groups), names=final_names)
