"""Tabular output, stored and rendered by column.

A `Table` holds one sequence per column: a list that `Table.append`
grows one row at a time, or an array given whole (the sorted ASR samples
of the CDF). Rendering formats each column once and joins rows from the
formatted columns; no per-row dict or per-cell writer call is made.

- CSV: metadata as leading ``# key: value`` lines, then the header and
  rows with CRLF line ends and the csv module's minimal quoting (a field
  holding a comma, a quote, CR or LF is quoted, quotes doubled, and a
  lone empty field is written ``""``). Floats are written as ``repr``, so
  they read back bit for bit.
- JSON: a metadata object plus an array of row objects with identical
  keys, laid out as ``json.dumps(..., indent=1)`` lays it out.

`Table.rows` is a read-only view of the rows as dicts, for callers that
read a table row by row; rendering does not use it.
"""

import json
from collections.abc import Sequence
from typing import Dict, Iterable, List, Mapping, Optional

import numpy as np

__all__ = ["Table", "render_csv", "render_json", "write_table"]


class Table:
    """Named columns, one sequence each, all of one length."""

    def __init__(self, columns: Iterable[str], data: Optional[Mapping[str, Sequence]] = None):
        self.columns: List[str] = list(columns)
        if data is None:
            self.data: Dict[str, Sequence] = {c: [] for c in self.columns}
            return
        self.data = {c: data[c] for c in self.columns}
        if len({len(col) for col in self.data.values()}) > 1:
            raise ValueError("table columns differ in length")

    def __len__(self) -> int:
        return len(self.data[self.columns[0]]) if self.columns else 0

    def append(self, **values):
        """Add one row; every column must be a list."""
        row = [values[c] for c in self.columns]
        for col, v in zip(self.data.values(), row):
            col.append(v)

    @property
    def rows(self) -> "_RowView":
        return _RowView(self)


class _RowView(Sequence):
    """The rows of a `Table` as dicts, built on access; numpy values come
    out as Python scalars."""

    def __init__(self, table: Table):
        self._table = table

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        data = self._table.data.items()
        return {c: col[i].item() if isinstance(col, np.ndarray) else col[i] for c, col in data}

    def __iter__(self):
        columns = self._table.columns
        cells = zip(*map(_values, self._table.data.values()))
        return (dict(zip(columns, row)) for row in cells)


def _values(col: Sequence) -> Sequence:
    return col.tolist() if isinstance(col, np.ndarray) else col


def _is_float_array(col: Sequence) -> bool:
    return isinstance(col, np.ndarray) and col.dtype.kind == "f"


def _csv_cell(value) -> str:
    """One field as csv.writer writes it: str of the value (repr for a
    float, empty for None), quoted when it holds a delimiter, a quote, CR
    or LF."""
    if isinstance(value, float):
        return repr(value)  # digits, ".", "e", a sign, "inf" or "nan": never quoted
    text = value if type(value) is str else "" if value is None else str(value)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_column(col: Sequence) -> List[str]:
    if _is_float_array(col):
        return list(map(repr, col.tolist()))
    return list(map(_csv_cell, _values(col)))


def render_csv(table: Table, meta: Dict[str, object]) -> str:
    lines = [",".join(map(_csv_cell, table.columns))]
    lines += map(",".join, zip(*(_csv_column(table.data[c]) for c in table.columns)))
    if len(table.columns) == 1:  # csv.writer quotes a row's lone empty field
        lines = [line or '""' for line in lines]
    head = [f"# {key}: {meta[key]}" for key in sorted(meta)]
    return "\r\n".join(head + lines + [""])


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_cell(value) -> str:
    if type(value) is float:  # not a subclass: np.float64's repr is not float.__repr__
        text = repr(value)
        return _JSON_NONFINITE.get(text, text)
    return json.dumps(value)


def _json_column(col: Sequence) -> List[str]:
    if _is_float_array(col):
        return [_JSON_NONFINITE.get(t, t) for t in map(repr, col.tolist())]
    return [_json_cell(v) for v in _values(col)]


def render_json(table: Table, meta: Dict[str, object]) -> str:
    doc = json.dumps({"meta": dict(sorted(meta.items())), "rows": []}, indent=1)
    if not len(table):
        return doc + "\n"
    members = []
    for c in table.columns:
        key = json.dumps(c) + ": "
        members.append([key + v for v in _json_column(table.data[c])])
    # each row object at depth 2, its members at depth 3, as indent=1 writes them
    rows = ",\n".join("  {\n   " + ",\n   ".join(row) + "\n  }" for row in zip(*members))
    return doc[: -len("[]\n}")] + "[\n" + rows + "\n ]\n}\n"


def write_table(table: Table, path, fmt: str, meta: Dict[str, object]) -> None:
    text = render_csv(table, meta) if fmt == "csv" else render_json(table, meta)
    with open(path, "w", newline="") as fh:
        fh.write(text)
