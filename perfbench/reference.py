"""Reference campaign means for ``check.max_rel_dev``.

A small fixed campaign (seed 0, two drops, all schemes, default sweep)
is run by every traced run and compared, cell by cell, with the means
recorded in ``reference/syslevel_seed0_drops2.csv``. The deviation is
informational: a physics change is expected to move it.

Regenerate the file with ``python3 perfbench/reference.py`` only when a
change to the means is intended, and say so in the change.
"""

import csv
import math
import os
from typing import Dict, List, Tuple

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "reference", "syslevel_seed0_drops2.csv")
ARGV = ["syslevel", "--seed", "0", "--drops", "2"]
COLUMNS = ("scheme", "delta_deg") + checks.MEAN_KEYS + ("n_pairs",)


def _key(row: Dict[str, str]) -> Tuple[str, float]:
    return row["scheme"], checks.delta_key(row["delta_deg"])


def max_rel_dev(rows: List[Dict[str, str]], ref: List[Dict[str, str]]) -> float:
    """Largest |x - ref| / |ref| over every numeric cell of the reference;
    a cell missing from rows, or not a number, counts as 1."""
    got = {_key(r): r for r in rows}
    worst = 0.0
    for r in ref:
        row = got.get(_key(r))
        for col in checks.MEAN_KEYS + ("n_pairs",):
            want = float(r[col])
            try:
                x = float(row[col]) if row is not None else math.nan
            except (KeyError, ValueError):
                x = math.nan
            dev = abs(x - want) / max(abs(want), 1e-300)
            worst = max(worst, dev if math.isfinite(dev) else 1.0)
    return worst


def load() -> List[Dict[str, str]]:
    with open(PATH, newline="") as fh:
        return list(csv.DictReader(fh))


def main() -> None:
    from run import SCRATCH
    from workloads import invoke_cli, read_means

    os.makedirs(SCRATCH, exist_ok=True)
    out = os.path.join(SCRATCH, "reference.csv")
    if not invoke_cli(ARGV + ["--out", out]):
        raise SystemExit("reference campaign failed")
    rows = read_means(out)
    os.makedirs(os.path.dirname(PATH), exist_ok=True)
    with open(PATH, "w", newline="") as fh:
        writer = csv.DictWriter(fh, COLUMNS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {PATH}")


if __name__ == "__main__":
    import run  # sets up the import path and thread limits

    run.prepare()
    main()
