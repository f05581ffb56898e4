"""repr's text of float64 values, made by one vectorised numpy kernel.

`shortest_texts` writes the text of a slice of distinct values as repr
writes it, byte for byte, and leaves to a given float_text (repr, or the
JSON cell) every value it cannot certify. tables formats the distinct
values of each float column of 1024 or more with it, and imports it on
the first such column, so a run that writes none does not compile it.
"""

from typing import Callable

import numpy as np

__all__ = ["shortest_texts"]

# 10^k for k = 0..22, exact in float64, and the high 26 bits of each
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)


def _times_pow10(a: np.ndarray, k: np.ndarray):
    """(hi, lo): a * 10^k = hi + lo exactly, hi the rounded product
    (Dekker's two-product on 26-bit halves)."""
    p, ph = _POW10[k], _POW10_HI[k]
    pl = p - ph
    hi = a * p
    c = a * 134217729.0
    ah = c - (c - a)
    al = a - ah
    return hi, ((ah * ph - hi) + ah * pl + al * ph) + al * pl


def _trailing_zeros(k: np.ndarray) -> np.ndarray:
    """Decimal trailing zeros of int64 values from 1 to 10^15, in four
    halving steps."""
    tz = np.zeros(len(k), np.int64)
    for step in (8, 4, 2, 1):
        kq = k // 10**step
        hit = k == kq * 10**step
        k = np.where(hit, kq, k)
        tz += hit * step
    return tz


def shortest_texts(x: np.ndarray, out: np.ndarray, float_text: Callable[[float], str]) -> None:
    """Write repr of each float64 of x into the object array out.

    repr writes the shortest decimal digits that read back as the value,
    the nearest such ones to it, positionally from 1e-4 to 1e16. For a
    finite x with 1e-4 <= |x| < 1e16 that is not a power of two (whose
    neighbours below are nearer than above), let E = floor(log10|x|) and
    y = |x| 10^(16-E) in [1e16, 1e17), computed exactly as hi + lo and
    split into an integer N and f in [0, 1) (to within a rounding of f).
    Every number strictly within hs of y, half a spacing of |x| scaled as
    y (0.55 <= hs <= 11.2), reads back as x. repr's digits are then the
    multiple of 10^q nearest y for the largest q whose nearest multiple
    lies within hs, less its trailing zeros: as hs < 50, at most one
    multiple of 100 lies within hs; when none does, the nearest multiple
    of 10 if it does, else of 1. A value whose distance to hs, or whose
    two nearest multiples' distances, are within 1e-9 of each other, or
    that is out of that range goes to float_text. So would one whose
    digits reached 10^17, but 10^(E+1) reads back as itself, never as x.
    """
    bits = x.view(np.int64)
    ax = np.abs(x)
    sure = (ax >= 1e-4) & (ax < 1e16) & (bits & (2**52 - 1) != 0)  # nan compares False
    rows = slice(None) if sure.all() else np.flatnonzero(sure)
    a, bits = ax[rows], bits[rows]
    if len(a):
        e = (np.log10(a) + 20.0).astype(np.int64) - 20  # floor: the sum is positive
        hi, lo = _times_pow10(a, 16 - e)
        # log10 may round across a power of ten: y = hi + lo outside [1e16, 1e17)
        below, above = (hi - 1e16) + lo < 0.0, (hi - 1e17) + lo >= 0.0
        fix = np.flatnonzero(below | above)
        if len(fix):
            e[fix] += np.where(above[fix], 1, -1)
            hi[fix], lo[fix] = _times_pow10(a[fix], 16 - e[fix])
        lo_int = (lo + 8.0).astype(np.int64) - 8  # floor: |lo| <= half a spacing of y, 8
        f = lo - lo_int
        n = hi.astype(np.int64) + lo_int
        hs = ((bits & 0x7FF0000000000000) - (53 << 52)).view(np.float64) * _POW10[16 - e]
        n100 = n // 100 * 100
        below100 = (n - n100) + f  # y's distance to the multiple of 100 below it
        d100 = np.minimum(below100, 100.0 - below100)
        digits = n100 + 100 * (below100 > 50.0)  # the multiple of 100 nearest y
        unsure = np.abs(d100 - hs) <= 1e-9
        hundreds = d100 < hs
        if hundreds.all():
            hundreds, written = slice(None), np.empty(len(a), np.int64)
        else:  # the others take the nearest multiple of 10, or of 1
            n10 = n // 10 * 10
            below10 = (n - n10) + f
            above10 = 10.0 - below10
            d10 = np.minimum(below10, above10)
            ones = d10 < hs
            digits = np.where(hundreds, digits, np.where(ones, n10 + 10 * (above10 < below10), n + (f > 0.5)))
            written = np.maximum(17 - ones, e + 2)
            # near hs, or tied between the two nearest multiples at the level chosen
            tie = np.abs(np.where(ones, below10 - 5.0, f - 0.5))
            unsure |= np.minimum(np.abs(d10 - hs), tie) <= 1e-9
            hundreds = np.flatnonzero(hundreds)
        # a multiple of 100 is written to its first fraction digit, or further
        # to its last nonzero digit: 15 less the trailing zeros of it over 100
        eh, v = e[hundreds], digits[hundreds] // 100
        written[hundreds] = eh + 2
        r = v / _POW10[np.maximum(13 - eh, 0)]  # v < 2^53: an integer ratio is exact, others are not
        more = np.flatnonzero(r != np.floor(r))
        if len(more):
            written[np.arange(len(a))[hundreds][more]] = 15 - _trailing_zeros(v[more])
        unsure |= digits == 10**17  # never: 10^(E+1) reads back as itself, not as x
        neg = bits < 0
        out[rows] = _layout(e, neg, digits, written).tolist()
        sure[rows] = ~unsure
    rest = np.flatnonzero(~sure)
    if len(rest):
        out[rest] = list(map(float_text, x[rest].tolist()))


def _layout(e: np.ndarray, neg: np.ndarray, digits: np.ndarray, written: np.ndarray) -> np.ndarray:
    """repr's positional text of each value's sign, 17-digit integer digits
    and E, as a str array. The first `written` digits are written, at
    least E + 2 of them: the integer part and a first fraction digit.

    The digits become char codes: a sign, then "0." and zeros for E < 0,
    else the integer digits, "." and the fraction. Values of one sign and
    E come in runs (x is sorted by bit pattern), each laid out by slice
    copies, and the codes are read as str through a fixed-width view."""
    k = int(written.max())
    codes = np.empty((k, len(digits)), np.uint32)  # codes[i]: the (i+1)-th digit of each value
    top = digits // 10 ** (17 - k)
    high = top // 10**9
    i = k - 1
    for part in ((top - high * 10**9).astype(np.uint32), high.astype(np.uint32)):
        for _ in range(min(9, i + 1)):
            quot = part // 10
            np.subtract(part, quot * 10, out=codes[i])
            part = quot
            i -= 1
    codes += 48
    codes *= np.arange(k)[:, None] < written
    width = int(neg.any()) + k + 1 - min(int(e.min()), 0)  # at least the longest text
    chars = np.zeros((len(digits), width), np.uint32)
    runs = [0, *(np.flatnonzero(np.diff(e * 2 + neg)) + 1).tolist(), len(digits)]
    for start, stop in zip(runs[:-1], runs[1:]):
        exp, c = int(e[start]), int(neg[start])
        row, code = chars[start:stop], codes[:, start:stop].T
        if c:
            row[:, 0] = 45  # "-"
        if exp < 0:  # "0.", -exp - 1 zeros, the digits
            row[:, c : c + 1 - exp] = 48
            row[:, c + 1] = 46
            row[:, c + 1 - exp : c + 1 - exp + k] = code
        else:  # exp + 1 integer digits, ".", the fraction
            row[:, c : c + exp + 1] = code[:, : exp + 1]
            row[:, c + exp + 1] = 46
            row[:, c + exp + 2 : c + k + 1] = code[:, exp + 1 :]
    return chars.view(f"U{width}")[:, 0]
