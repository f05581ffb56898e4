"""Tabular output: CSV (RFC-4180 quoting via the csv module, metadata as
leading comment lines) and JSON (metadata object plus an array of row
objects with identical keys)."""

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["Table", "render_csv", "render_json", "write_table"]


@dataclass
class Table:
    columns: List[str]
    rows: List[dict] = field(default_factory=list)

    def append(self, **values):
        self.rows.append({c: values[c] for c in self.columns})


def render_csv(table: Table, meta: Dict[str, object]) -> str:
    buf = io.StringIO()
    for key in sorted(meta):
        buf.write(f"# {key}: {meta[key]}\r\n")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_fmt(row[c]) for c in table.columns])
    return buf.getvalue()


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return value


def render_json(table: Table, meta: Dict[str, object]) -> str:
    rows = [{c: row[c] for c in table.columns} for row in table.rows]
    return json.dumps({"meta": dict(sorted(meta.items())), "rows": rows}, indent=1) + "\n"


def write_table(table: Table, path, fmt: str, meta: Dict[str, object]) -> None:
    text = render_csv(table, meta) if fmt == "csv" else render_json(table, meta)
    with open(path, "w", newline="") as fh:
        fh.write(text)
