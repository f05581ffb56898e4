"""Seeded float64 values in ten families, and a check of the float column
texts against repr on them: the column path (risnoma.tables._float_texts)
and the kernel behind it (risnoma.floattext.shortest_texts), which the
column path leaves out on fewer than 1024 distinct values.

    python tests/float_families.py [COUNT] [SEED]

formats COUNT values (default 4,000,000, spread evenly over the
families) both ways, compares every text with repr of the value, prints
each family's count of mismatches and exits 1 if there is any.
"""

import sys

import numpy as np

from risnoma import tables
from risnoma.floattext import shortest_texts

FAMILIES = (
    "uniform",
    "asr",
    "levels",
    "six_decimals",
    "powers_of_ten",
    "integers",
    "bit_patterns",
    "mixed_sign",
    "decimals",
    "near_powers_of_ten",
)


def family(name: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """n values of the named family drawn from rng."""
    if name == "uniform":
        return rng.random(n)
    if name == "asr":  # log2(1 + SINR) with the SINR from -30 to 40 dB
        return np.log2(1.0 + 10.0 ** rng.uniform(-3.0, 4.0, n))
    if name == "levels":  # the CDF's i/n
        return np.arange(1, n + 1) / n
    if name == "six_decimals":
        return np.round(rng.uniform(-1000.0, 1000.0, n), 6)
    if name == "powers_of_ten":  # across both ends of the positional range
        return 10.0 ** rng.uniform(-6.0, 18.0, n)
    if name == "integers":
        return rng.integers(-(10**17), 10**17, n).astype(np.float64) // 10.0 ** rng.integers(0, 17, n)
    if name == "bit_patterns":  # NaNs, infinities and subnormals among them
        return rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64).view(np.float64)
    if name == "mixed_sign":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-5, 17, n)
    if name == "decimals":  # 1 to 17 significant digits, read as Python reads them
        k = rng.integers(1, 18, n)
        digits = rng.integers(10 ** (k - 1), 10**k)
        exps = rng.integers(-5, 17, n) - k
        return np.array([float(f"{d}e{e}") for d, e in zip(digits.tolist(), exps.tolist())])
    if name == "near_powers_of_ten":  # 10^j and up to two ulps either side
        x = 10.0 ** rng.integers(-6, 18, n)
        for _ in range(2):
            x = np.where(rng.random(n) < 0.5, x, np.nextafter(x, np.where(rng.random(n) < 0.5, -np.inf, np.inf)))
        return x * np.where(rng.random(n) < 0.5, -1.0, 1.0)
    raise ValueError(f"unknown family {name!r}")


def mismatches(values: np.ndarray, float_text=repr) -> list:
    """(value, column text, kernel text, float_text's text) of each value
    that the column path, or the kernel on the distinct values in slices
    of CHUNK_ROWS, writes otherwise than float_text writes it."""
    texts, inverse = tables._float_texts(values, float_text)
    with np.errstate(invalid="ignore"):  # a signalling float32 NaN widens to a quiet one
        distinct = np.unique(values.astype(np.float64).view(np.int64)).view(np.float64)
    kernel = np.empty(len(distinct), dtype=object)
    for start in range(0, len(distinct), tables.CHUNK_ROWS):
        part = slice(start, start + tables.CHUNK_ROWS)
        shortest_texts(distinct[part], kernel[part], float_text)
    got = zip(texts[inverse].tolist(), kernel[inverse].tolist())
    want = list(map(float_text, values.tolist()))
    return [(v, a, k, b) for v, (a, k), b in zip(values.tolist(), got, want) if a != b or k != b]


def main(argv) -> int:
    count = int(argv[1]) if len(argv) > 1 else 4_000_000
    seed = int(argv[2]) if len(argv) > 2 else 0
    failed = False
    for index, name in enumerate(FAMILIES):
        bad = mismatches(family(name, count // len(FAMILIES), np.random.default_rng([seed, index])))
        print(f"{name}: {len(bad)} mismatches", *bad[:3])
        failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
