"""Tabular output, stored and rendered by column.

A `Table` has one constructor: a mapping from column name to a sequence
(a list, or an array such as the CDF's sorted ASR samples), whose keys in
order are the columns, so a builder writes each name once. Rendering
formats a float column once per distinct value, then joins rows from the
formatted columns; no per-row dict is made. The CDF repeats much: its
levels ``i/n`` recur once per scheme, MPA and SRM often share ASR
samples, and ``scheme`` holds three or four strings.

Rows are rendered ``CHUNK_ROWS`` at a time, the same chunks for
`render_csv` and `render_json`, which join them, and for `write_table`,
which writes each as it is made, so a file is written holding one
chunk's text, not the whole table's. The distinct values of a float
column, or of a list column of ``str`` values only (the CDF's
``scheme``), are formatted over the whole column, once; each chunk
gathers and joins only its own rows. A table of at most ``CHUNK_ROWS``
rows is one chunk, rendered without slicing. Other columns, and every
list column of a one-chunk table, are formatted one cell per value,
except that a ``str`` array (sweep-delta's ``mode``) is formatted once
per distinct string in each chunk.

Float arrays are keyed on their float64 bit patterns, so ``0.0`` and
``-0.0`` (and NaNs of different payloads) stay apart, where ``==`` would
merge the zeros and never match a NaN. Fewer than 1024 distinct values
are formatted by ``repr`` (or the JSON cell), one call each; more,
``CHUNK_ROWS`` at a time by one numpy kernel that writes ``repr``'s
bytes (`floattext.shortest_texts`), and a value it cannot certify goes
to ``repr`` (or the JSON cell) itself.

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
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, Iterable, Iterator, List, Mapping

import numpy as np

__all__ = ["Table", "render_csv", "render_json", "write_table"]

# rows rendered at once; write_table holds one chunk's text at a time
CHUNK_ROWS = 2**12


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


def _float_texts(col: np.ndarray, float_text: Callable[[float], str]):
    """(texts, inverse): the text of each distinct float64 bit pattern of a
    float array, and each value's index into those texts. Fewer than 1024
    distinct values are formatted by float_text, one call each; more,
    CHUNK_ROWS at a time by floattext.shortest_texts, whose fixed cost of
    some 150 numpy calls a slice is more than float_text takes on fewer."""
    if col.dtype != np.float64:
        with np.errstate(invalid="ignore"):  # a signalling float32 NaN widens to a quiet one, still "nan"
            col = col.astype(np.float64)
    distinct, inverse = np.unique(col.view(np.int64), return_inverse=True)
    values = distinct.view(np.float64)
    if len(values) < 1024:
        return np.array(list(map(float_text, values.tolist())), dtype=object), inverse
    from .floattext import shortest_texts  # compiled only by runs that format a large float column

    texts = np.empty(len(values), dtype=object)
    for start in range(0, len(values), CHUNK_ROWS):
        shortest_texts(values[start : start + CHUNK_ROWS], texts[start : start + CHUNK_ROWS], float_text)
    return texts, inverse


def _column_texts(
    col: Sequence, float_text: Callable[[float], str], cell: Callable[[object], str]
) -> List[str]:
    """The text of each value: float_text once per distinct float64 bit
    pattern of a float array, cell once per distinct string of a str array
    (sweep-delta's mode), else cell once per value."""
    if isinstance(col, np.ndarray) and col.dtype.kind == "f":
        texts, inverse = _float_texts(col, float_text)
        return texts[inverse].tolist()
    values = _values(col)
    if isinstance(col, np.ndarray) and col.dtype.kind == "U":
        text = {v: cell(v) for v in set(values)}
        return list(map(text.__getitem__, values))
    return list(map(cell, values))


def _chunks(
    table: Table, float_text: Callable[[float], str], cell: Callable[[object], str]
) -> Iterable[List[List[str]]]:
    """The columns' texts, CHUNK_ROWS rows at a time. The distinct values
    of a float column, or of a list column of str values only, are
    formatted once, over the whole column, and each chunk gathers its own
    rows' texts; other columns are formatted chunk by chunk. A table of
    one chunk is a list, its columns unsliced."""
    n = len(table)
    columns = [table.data[c] for c in table.columns]
    if n <= CHUNK_ROWS:  # one chunk: nothing sliced
        return [[_column_texts(col, float_text, cell) for col in columns]]
    texts_of = [_texts_by_rows(col, float_text, cell) for col in columns]
    bounds = [slice(start, start + CHUNK_ROWS) for start in range(0, n, CHUNK_ROWS)]
    return ([text_of(rows) for text_of in texts_of] for rows in bounds)


def _texts_by_rows(
    col: Sequence, float_text: Callable[[float], str], cell: Callable[[object], str]
) -> Callable[[slice], List[str]]:
    """The texts of a slice of the column's rows. The distinct values of a
    float array, or of a list column of str values only, are formatted
    once, over the whole column; other columns slice by slice."""
    if isinstance(col, np.ndarray) and col.dtype.kind == "f":
        texts, inverse = _float_texts(col, float_text)
        return lambda rows: texts[inverse[rows]].tolist()
    if not isinstance(col, np.ndarray) and set(map(type, col)) == {str}:
        text = {v: cell(v) for v in set(col)}
        return lambda rows: list(map(text.__getitem__, col[rows]))
    return lambda rows: _column_texts(col[rows], float_text, cell)


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


def _csv_chunks(table: Table, meta: Dict[str, object]) -> Iterator[str]:
    lines = [f"# {key}: {meta[key]}" for key in sorted(meta)]
    lines.append(",".join(map(_csv_cell, table.columns)))
    for columns in _chunks(table, repr, _csv_cell):  # a float's field is its repr
        lines += map(",".join, zip(*columns))
        if len(table.columns) == 1:  # csv.writer quotes a row's lone empty field
            lines = [line or '""' for line in lines]
        lines.append("")
        yield "\r\n".join(lines)
        lines = []


def render_csv(table: Table, meta: Dict[str, object]) -> str:
    return "".join(_csv_chunks(table, meta))


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_cell(value) -> str:
    if type(value) is float:  # not a subclass: np.float64's repr is not float.__repr__
        text = repr(value)
        return _JSON_NONFINITE.get(text, text)
    if isinstance(value, str):  # json.dumps's own str encoder, without its dispatch
        return encode_basestring_ascii(value)
    return json.dumps(value)


def _json_chunks(table: Table, meta: Dict[str, object]) -> Iterator[str]:
    doc = json.dumps({"meta": dict(sorted(meta.items())), "rows": []}, indent=1)
    if not len(table):
        yield doc + "\n"
        return
    keys = [json.dumps(c) + ": " for c in table.columns]
    sep = doc[: -len("[]\n}")] + "[\n"
    for columns in _chunks(table, _json_cell, _json_cell):
        members = [[key + v for v in texts] for key, texts in zip(keys, columns)]
        # each row object at depth 2, its members at depth 3, as indent=1 writes them
        yield sep + ",\n".join("  {\n   " + ",\n   ".join(row) + "\n  }" for row in zip(*members))
        sep = ",\n"
    yield "\n ]\n}\n"


def render_json(table: Table, meta: Dict[str, object]) -> str:
    return "".join(_json_chunks(table, meta))


def write_table(table: Table, path, fmt: str, meta: Dict[str, object]) -> None:
    """Write the table chunk by chunk, as each is rendered."""
    chunks = _csv_chunks(table, meta) if fmt == "csv" else _json_chunks(table, meta)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)
