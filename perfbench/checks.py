"""Output checks behind ``failed``/``fail_frac``.

Every check follows from the optimisation problems themselves, not from
the channel or interference model, so a change to the physics does not
register as a failure:

* MPA maximises the sum rate over a region that contains EEPA's and
  OMA's operating points, so its ASR is never below theirs.
* EEPA maximises the energy efficiency over a region that contains
  MPA's NOMA point, so where EEPA pairs, MPA pairs too, at no higher EE.
* OMA rates fall with sinc^2(delta), which falls on [0, pi).
* At delta = 0 the phase-oblivious SRM allocation is MPA's.
* A NOMA decision meets both users' rate floors.

A campaign op is one (scheme, delta) cell of the means table; a
pair-study op is one instance. Check functions return the failed ops.
"""

import csv
import io
import math
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

RTOL = 1e-9  # rounding slack for comparisons that hold exactly in reals
EE_TOL = 1e-6  # Dinkelbach stops at a residual of 1e-8; leave slack

Cell = Tuple[str, float]


def parse_csv(lines: Iterable[str]) -> Iterator[Dict[str, str]]:
    """Rows of a risnoma CSV (an open file or a list of lines), skipping
    the ``#`` metadata lines; rows are produced one at a time."""
    return csv.DictReader(ln for ln in lines if not ln.startswith("#"))


def delta_key(value) -> float:
    """Degrees as a table key: the CLI round-trips them through radians."""
    return round(float(value), 6)


def _leq(a: float, b: float, tol: float = RTOL) -> bool:
    """a <= b up to a relative tolerance."""
    return a <= b + tol * max(1.0, abs(a), abs(b))


def _finite(row: Dict[str, str], keys: Sequence[str]) -> bool:
    try:
        return all(math.isfinite(float(row[k])) for k in keys)
    except (KeyError, TypeError, ValueError):
        return False


MEAN_KEYS = ("mean_r1", "se_r1", "mean_r2", "se_r2", "mean_asr", "se_asr", "mean_ee", "se_ee")


def check_campaign(
    means: List[Dict[str, str]],
    cdf: Optional[Iterable[Dict[str, str]]],
    schemes: Sequence[str],
    deltas_deg: Sequence[float],
    cdf_delta_deg: float,
) -> Set[Cell]:
    """Failed (scheme, delta_deg) cells of one campaign's output."""
    cells = [(s, delta_key(d)) for d in deltas_deg for s in schemes]
    failed: Set[Cell] = set()
    table: Dict[Cell, Dict[str, float]] = {}
    for row in means:
        try:
            key = (row["scheme"], delta_key(row["delta_deg"]))
        except (KeyError, ValueError):
            continue
        if key not in cells or key in table or not _finite(row, MEAN_KEYS + ("n_pairs",)):
            failed.add(key)
            continue
        table[key] = {k: float(row[k]) for k in MEAN_KEYS + ("n_pairs",)}
    failed.update(c for c in cells if c not in table)
    if len(means) != len(cells):  # unparsable or surplus rows
        failed.update(cells)

    n_counts = [v["n_pairs"] for v in table.values()]
    n_pairs = max(set(n_counts), key=n_counts.count) if n_counts else 0
    failed.update(c for c, v in table.items() if v["n_pairs"] != n_pairs or n_pairs < 1)

    def asr(scheme, d):
        v = table.get((scheme, d))
        return None if v is None else v["mean_asr"]

    deltas = sorted(delta_key(d) for d in deltas_deg)
    for d in deltas:
        mpa = asr("mpa", d)
        for other in ("eepa", "oma"):
            x = asr(other, d)
            if mpa is not None and x is not None and not _leq(x, mpa):
                failed.update({("mpa", d), (other, d)})
    for prev, d in zip(deltas, deltas[1:]):
        a, b = asr("oma", prev), asr("oma", d)
        if a is not None and b is not None and not _leq(b, a):
            failed.add(("oma", d))
    if 0.0 in deltas:
        mpa, srm = table.get(("mpa", 0.0)), table.get(("srm", 0.0))
        if mpa is not None and srm is not None:
            if any(not _leq(mpa[k], srm[k]) or not _leq(srm[k], mpa[k]) for k in MEAN_KEYS if k.startswith("mean")):
                failed.update({("mpa", 0.0), ("srm", 0.0)})

    if cdf is not None:
        cdf_cell = delta_key(cdf_delta_deg)
        # per scheme: [rows, last asr, last cdf, ordered]; streamed, since
        # the CDF table has one row per pair and scheme
        blocks: Dict[str, list] = {}
        for row in cdf:
            scheme = row.get("scheme", "")
            if not _finite(row, ("asr", "cdf")):
                failed.add((scheme, cdf_cell))
                continue
            a, c = float(row["asr"]), float(row["cdf"])
            b = blocks.setdefault(scheme, [0, -math.inf, -math.inf, True])
            b[3] = b[3] and b[1] <= a and b[2] < c
            b[0], b[1], b[2] = b[0] + 1, a, c
        for scheme in schemes:
            count, _, last, ordered = blocks.get(scheme, [0, 0.0, 0.0, False])
            if not (count == n_pairs > 0 and ordered and abs(last - 1.0) <= 1e-12):
                failed.add((scheme, cdf_cell))
    return failed


def oma_floor(gamma_db: float) -> float:
    """Rate floor of the default target policy (OMA rate at delta = 0)."""
    return 0.5 * math.log2(1.0 + 10.0 ** (gamma_db / 10.0))


PAIR_KEYS = ("alpha1", "alpha2", "r1", "r2", "asr", "ee")


def check_pair_study(rows: List[Dict[str, str]], gammas_db: Tuple[float, float]) -> List[str]:
    """Violations in one pair-study table (all four schemes); empty when
    the instance passes."""
    by_scheme = {r.get("scheme"): r for r in rows}
    if len(rows) != 4 or set(by_scheme) != {"oma", "mpa", "eepa", "srm"}:
        return ["expected one row per scheme oma/mpa/eepa/srm"]
    bad = [s for s, r in by_scheme.items() if not _finite(r, PAIR_KEYS) or r["mode"] not in ("noma", "oma")]
    if bad:
        return [f"non-finite or malformed row: {s}" for s in sorted(bad)]
    v = {s: {k: float(r[k]) for k in PAIR_KEYS} for s, r in by_scheme.items()}
    noma = {s: r["mode"] == "noma" for s, r in by_scheme.items()}
    out = []
    r1_min, r2_min = oma_floor(gammas_db[0]), oma_floor(gammas_db[1])
    for s in ("mpa", "eepa"):
        if noma[s] and not (_leq(r1_min, v[s]["r1"]) and _leq(r2_min, v[s]["r2"])):
            out.append(f"{s} NOMA row below a rate floor")
    for s in ("eepa", "oma"):
        if not _leq(v[s]["asr"], v["mpa"]["asr"]):
            out.append(f"mpa asr below {s}")
    if noma["eepa"]:
        if not noma["mpa"]:
            out.append("eepa pairs where mpa does not")
        elif not _leq(v["mpa"]["ee"], v["eepa"]["ee"], EE_TOL):
            out.append("mpa ee above eepa")
    return out
