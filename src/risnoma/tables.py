"""Tabular output, stored and rendered by column.

A `Table` has one constructor: a mapping from column name to a sequence
(a list, or an array such as the CDF's sorted ASR samples), whose keys in
order are the columns, so a builder writes each name once. Rendering
formats a column once per distinct value, then joins rows from the
formatted columns; no per-row dict is made. The CDF repeats much: its
levels ``i/n`` recur once per scheme, MPA and SRM often share ASR
samples, and ``scheme`` holds three or four strings.

Float arrays are keyed on their float64 bit patterns, so ``0.0`` and
``-0.0`` (and NaNs of different payloads) stay apart, where ``==`` would
merge the zeros and never match a NaN. List columns memoise only their
``str`` cells: as dict keys ``0.0 == -0.0 == False`` and
``1 == 1.0 == True``, yet each is written differently.

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
from typing import Callable, Dict, List, Mapping

import numpy as np

__all__ = ["Table", "render_csv", "render_json", "write_table"]


class Table:
    """Named columns, one sequence each, all of one length: the mapping's
    keys, in order."""

    def __init__(self, data: Mapping[str, Sequence]):
        self.data: Dict[str, Sequence] = dict(data)
        self.columns: List[str] = list(self.data)
        if len({len(col) for col in self.data.values()}) > 1:
            raise ValueError("table columns differ in length")

    def __len__(self) -> int:
        return len(self.data[self.columns[0]]) if self.columns else 0

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


def _column_texts(
    col: Sequence, float_text: Callable[[float], str], cell: Callable[[object], str]
) -> List[str]:
    """The text of each value: float_text once per distinct float64 bit
    pattern of a float array, else cell once per distinct string and once
    per other value."""
    if isinstance(col, np.ndarray) and col.dtype.kind == "f":
        distinct, inverse = np.unique(col.astype(np.float64, copy=False).view(np.int64), return_inverse=True)
        texts = np.array(list(map(float_text, distinct.view(np.float64).tolist())), dtype=object)
        return texts[inverse].tolist()
    memo: Dict[str, str] = {}
    return [
        (memo[v] if v in memo else memo.setdefault(v, cell(v))) if type(v) is str else cell(v)
        for v in _values(col)
    ]


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


def render_csv(table: Table, meta: Dict[str, object]) -> str:
    lines = [",".join(map(_csv_cell, table.columns))]
    # a float's field is its repr
    columns = (_column_texts(table.data[c], repr, _csv_cell) for c in table.columns)
    lines += map(",".join, zip(*columns))
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


def render_json(table: Table, meta: Dict[str, object]) -> str:
    doc = json.dumps({"meta": dict(sorted(meta.items())), "rows": []}, indent=1)
    if not len(table):
        return doc + "\n"
    members = []
    for c in table.columns:
        key = json.dumps(c) + ": "
        members.append([key + v for v in _column_texts(table.data[c], _json_cell, _json_cell)])
    # each row object at depth 2, its members at depth 3, as indent=1 writes them
    rows = ",\n".join("  {\n   " + ",\n   ".join(row) + "\n  }" for row in zip(*members))
    return doc[: -len("[]\n}")] + "[\n" + rows + "\n ]\n}\n"


def write_table(table: Table, path, fmt: str, meta: Dict[str, object]) -> None:
    text = render_csv(table, meta) if fmt == "csv" else render_json(table, meta)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
