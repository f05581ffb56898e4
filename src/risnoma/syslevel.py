"""System-level Monte-Carlo evaluation: PPP deployments on a toroidal
window, log-distance path loss, max-power association with one RIS per
serving BS, uplink interference from the other cells' co-scheduled
pairs, and metric aggregation across drops.

Association never forms a users x BS array: the window is cut into
about one grid square per BS, and each user compares only its square's
candidate BSs, which provably contain its nearest one. Path gain falls
strictly with the clamped distance, so the max-power BS is the one at
the least squared min-image distance; torus distance and path gain are
then computed once per user, for the serving BS only. The candidates
are found in slices of about BLOCK_INSTANCES squares x BS entries and
compared in slices of about BLOCK_INSTANCES users x candidates entries,
and the interference each BS hears is summed over slices of about
BLOCK_INSTANCES transmitters x BS entries, so memory per drop grows with
users (a few arrays of one value per user) plus the squares' candidate
lists, not users x BS, squares x BS nor users x candidates.

Users are paired per cell by pairing.cell_pairs, strongest with weakest
by composite gain, which within a cell ranks Gamma as well; the
co-scheduled interferers are drawn from those pairs. campaign_pairs, the
one drop stage, draws, associates and pairs every drop of a campaign and
checks the pairs' Gamma once. Per-pair decisions come from the schemes'
array kernels (pairing.KERNELS), the same kernels that
pairing.run_scheme and experiments.pair_study_table evaluate on one pair
at a time. run_campaign binds each kernel to every pair and its floors
once per campaign (once per block under oma-current, whose floors follow
delta), then decides a block of consecutive deltas at a time: it forms
the block's effective SNRs x = Gamma * sinc^2(delta) once, a row per
delta, on which every kernel decides, makes the block's OMA decision
once, which is OMA's output and every other scheme's fallback, and
reduces each output along the pair axis with one sum for both its mean
and its standard error. A sweep is then a few array calls, not one small
call per (scheme, delta). Blocks hold max(1, BLOCK_INSTANCES // pairs)
deltas, which bounds each call's arrays; a whole 200-drop sweep in one
call would hold about 3.6M instances. The result holds one list per
(scheme, statistic), a value per delta.
"""

import math
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .channel import MAX_GAMMA_DB, _link_gamma, db_to_linear, sinc_sq
from .mpa import PolicyKind, TargetPolicy, _oma, _or_oma
from .pairing import KERNELS, Scheme, cell_pairs

__all__ = [
    "DeploymentConfig",
    "RadioConfig",
    "MetricsTable",
    "drop_ppp",
    "path_gain",
    "associate_and_budget",
    "campaign_pairs",
    "run_campaign",
]

# (delta, pair) instances per kernel call in run_campaign, at least one
# delta; square x BS entries per slice in _grid_candidates, at least one
# square; user x candidate entries per slice in _nearest_bs, at least one
# user; transmitter x BS entries per slice of interference, at least one row
BLOCK_INSTANCES = 2**15
# expected users and BSs per drop (density x area)
MAX_USERS_PER_DROP = 500_000
MAX_BS_PER_DROP = 3_000


@dataclass(frozen=True)
class DeploymentConfig:
    bs_density: float = 25.0  # BS per km^2
    user_density: float = 2000.0  # users per km^2
    area_km2: float = 1.0
    seed: int = 0
    drops: int = 1

    def __post_init__(self):
        if not all(0.0 < x < math.inf for x in (self.bs_density, self.user_density, self.area_km2)):
            raise ValueError("densities and area must be positive and finite")
        if self.drops < 1:
            raise ValueError("drops must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.user_density * self.area_km2 > MAX_USERS_PER_DROP:
            raise ValueError(f"a drop expects more than {MAX_USERS_PER_DROP} users; lower user_density or area_km2")
        if self.bs_density * self.area_km2 > MAX_BS_PER_DROP:
            raise ValueError(f"a drop expects more than {MAX_BS_PER_DROP} BSs; lower bs_density or area_km2")

    @property
    def side_m(self) -> float:
        return math.sqrt(self.area_km2) * 1000.0


@dataclass(frozen=True)
class RadioConfig:
    bs_antennas: int = 8
    ris_elements: int = 32
    transmit_power: float = 10 ** ((23.0 - 30.0) / 10.0)  # 23 dBm, watts
    noise_power: float = 10 ** ((-94.0 - 30.0) / 10.0)  # -94 dBm, watts
    pathloss_intercept: float = 32.4  # dB at 1 m
    pathloss_exponent: float = 3.0
    ris_offset_m: float = 10.0
    min_distance_m: float = 1.0

    def __post_init__(self):
        fields = (self.transmit_power, self.noise_power, self.pathloss_intercept,
                  self.pathloss_exponent, self.ris_offset_m, self.min_distance_m)
        if not all(map(math.isfinite, fields)):
            raise ValueError("radio powers, path loss and distances must be finite")
        if self.bs_antennas < 1 or self.ris_elements < 1:
            raise ValueError("antenna/element counts must be >= 1")
        if self.ris_elements**2 * self.bs_antennas > sys.float_info.max:  # as ints: the check cannot overflow
            raise ValueError("the coherent gain ris_elements^2 * bs_antennas must be a finite float")
        if self.pathloss_exponent < 2.0:
            raise ValueError("pathloss_exponent must be >= 2")
        if self.transmit_power <= 0 or self.noise_power <= 0:
            raise ValueError("powers must be positive")
        if self.min_distance_m <= 0:
            raise ValueError("min_distance_m must be positive")
        if self.ris_offset_m < 0:
            raise ValueError("ris_offset_m must be >= 0")
        with np.errstate(all="ignore"):  # nan or +inf where the model overflows
            peak = path_gain(self.min_distance_m, self) * path_gain(self.ris_offset_m, self)
        if not 0.0 < peak < math.inf:  # the composite gain of a user within min_distance_m of the RIS
            raise ValueError("path gain must be finite and positive over both hops, RIS to BS and user to RIS")


@dataclass
class MetricsTable:
    """Campaign output keyed by scheme.value: means maps each statistic
    (mean_r1, se_r1, ..., se_ee) to its values in sweep order, and cdf the
    sorted ASR samples at cdf_delta; experiments.syslevel_tables lays out both.
    skipped_drops counts the drops that formed no pair, and lone_users the
    other drops' unpaired users, one per cell of odd size."""

    means: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    cdf: Dict[str, np.ndarray] = field(default_factory=dict)
    cdf_delta: Optional[float] = None
    n_pairs: int = 0
    skipped_drops: int = 0
    lone_users: int = 0


def drop_ppp(density_per_km2: float, area_km2: float, seed) -> np.ndarray:
    """Poisson point process on a square window; positions in meters.

    seed may be an integer or a Generator (reused for chained draws).
    """
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(density_per_km2 * area_km2))
    side = math.sqrt(area_km2) * 1000.0
    return rng.uniform(0.0, side, size=(n, 2))


def path_gain(distance_m, radio: RadioConfig):
    """Log-distance power gain, linear scale; distances clamp at the
    minimum coupling distance."""
    d = np.maximum(np.asarray(distance_m, dtype=float), radio.min_distance_m)
    gain_db = -(radio.pathloss_intercept + 10.0 * radio.pathloss_exponent * np.log10(d))
    out = 10.0 ** (gain_db / 10.0)
    return float(out) if np.isscalar(distance_m) else out


def _torus_dist(a: np.ndarray, b: np.ndarray, side: float) -> np.ndarray:
    """Distance on the side x side torus between the points of a and b,
    broadcast against each other; the last axis holds (x, y).

    Each axis's offset plus side/2, in (-side/2, 3 side/2) for points of
    [0, side), is wrapped by adding or subtracting side where it falls
    outside [0, side). That rounds as % side does, except where % rounds
    up to side and this wraps to 0: the same magnitude, side/2, after
    the shift back, and so the same distance bit for bit.
    """
    half = side / 2.0
    offsets = []
    for axis in (0, 1):
        d = a[..., axis] - b[..., axis]
        d += half
        np.add(d, side, out=d, where=d < 0.0)
        np.subtract(d, side, out=d, where=d >= side)
        d -= half
        offsets.append(d)
    return np.hypot(*offsets)


def _min_image(delta: np.ndarray, side: float) -> np.ndarray:
    """Magnitude of a coordinate offset on the torus, min(|delta|,
    side - |delta|), for offsets between points of [0, side]."""
    delta = np.abs(delta)
    return np.minimum(delta, side - delta, out=delta)


def _grid_candidates(users: np.ndarray, bss: np.ndarray, radio: RadioConfig, side: float):
    """Split the window into g x g squares of width w, g = isqrt(#BS),
    and give each square its candidates, the BSs that can be nearest to
    some point of the square, and each user its square.

    A user u lies within h = w/sqrt(2) of its square's centre c, and the
    clamped distance D = max(d, min_distance_m) is 1-Lipschitz in either
    point, so for u's nearest BS b* and any BS b,
    D(c, b*) <= D(u, b*) + h <= D(u, b) + h <= D(c, b) + 2h.
    Every BS nearest to, or tied for, some user of the square thus has
    D(c, b) <= min_b D(c, b) + w sqrt(2); the relative slack absorbs
    rounding. Received power falls strictly with D, so the max-power BS
    is the least-D one and is among the candidates. Returns (cand,
    square): cand[k] square k's candidates in ascending BS index, padded
    by repeating the first one, and square[u] user u's square.

    Squares are taken in slices of max(1, BLOCK_INSTANCES // #BS) rows of
    square x BS distances, so no squares x BS array is formed.
    """
    g = math.isqrt(len(bss))
    w = side / g
    centre = (np.arange(g) + 0.5) * w
    centres = np.stack(np.meshgrid(centre, centre, indexing="ij"), axis=-1).reshape(-1, 1, 2)
    rows, cols = [], []  # each near (square, BS), square by square, BSs ascending
    step = max(1, BLOCK_INSTANCES // len(bss))
    for start in range(0, g * g, step):
        d = np.maximum(_torus_dist(centres[start : start + step], bss, side), radio.min_distance_m)
        r, c = np.nonzero(d <= ((d.min(axis=1) + w * math.sqrt(2.0)) * (1.0 + 1e-9))[:, None])
        rows.append(r + start)
        cols.append(c)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    counts = np.bincount(rows, minlength=g * g)
    cand = np.empty((g * g, counts.max()), dtype=np.intp)
    cand[rows, np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]] = cols
    cand = np.where(np.arange(cand.shape[1]) < counts[:, None], cand, cand[:, :1])
    square = np.floor(users / w).astype(np.int64) % g  # % g: users at the far edge wrap
    return cand, square[:, 0] * g + square[:, 1]


def _nearest_bs(users: np.ndarray, bss: np.ndarray, radio: RadioConfig, side: float) -> np.ndarray:
    """Each user's max-received-power BS, users and BSs inside the window.

    Path gain falls strictly with the clamped distance D = max(d,
    min_distance_m), so the max-power BS is the first of the user's grid
    candidates (ascending index, so ties go to the lower index) at the
    least D^2 = max(dx^2 + dy^2, min_distance_m^2), dx and dy the
    min-image offsets. No distance or path gain is formed per candidate.
    Users are taken in slices of about BLOCK_INSTANCES users x candidates
    entries, which bounds the temporaries whatever the number of users.
    """
    per_square, square = _grid_candidates(users, bss, radio, side)  # per_square[square[u]]: user u's candidates
    bx, by = bss[:, 0][per_square], bss[:, 1][per_square]  # the candidates' coordinates, a row per square
    serving = np.empty(len(users), dtype=per_square.dtype)
    step = max(1, BLOCK_INSTANCES // per_square.shape[1])
    for start in range(0, len(users), step):
        u = users[start : start + step]
        sq = square[start : start + step]
        dx = _min_image(u[:, :1] - bx[sq], side)
        dy = _min_image(u[:, 1:] - by[sq], side)
        best = np.argmin(np.maximum(dx * dx + dy * dy, radio.min_distance_m**2), axis=1)  # first minimum
        serving[start : start + step] = per_square[sq, best]
    return serving


def associate_and_budget(
    users: np.ndarray, bss: np.ndarray, radio: RadioConfig, side_m: float, seed=0
):
    """Attach each user to its max-received-power BS (ties to the lower
    BS index) and build the per-user link budget terms.

    Association is exact but never forms a users x BS array: each user
    compares only the candidate BSs of its grid square, a superset of
    every BS that can be nearest to a point of the square (see
    _grid_candidates), by squared min-image distance (see _nearest_bs).
    Torus distance and path gain are then computed once per user, for
    its serving BS. Positions are first wrapped onto the window
    (x % side_m), which leaves those inside it unchanged.

    The RIS sits ris_offset_m from the serving BS on the BS-user bearing,
    so the composite gain separates into user->RIS and RIS->BS hops.

    Interference is what the user's serving BS receives on the user's
    resource block from the other cells (uplink model of Novlan, Dhillon
    & Andrews, IEEE TWC 2013). Assumption: every cell co-schedules one
    NOMA pair per resource block, its k-th pair by pairing.cell_pairs on
    the composite gain (k-th strongest with k-th weakest), with k drawn
    uniformly per cell from seed (an integer or a Generator); a cell
    with fewer than two users forms no pair and is silent. All users of
    a cell therefore see the same interference. What each BS hears is
    summed over slices of max(1, BLOCK_INSTANCES // #BS) co-scheduled
    users, so no 2 cells x BS array is formed.

    Within a cell, Gamma = P g N^2 M / (I + sigma^2) shares I and is a
    non-decreasing function of the composite gain g, each rounding step
    being monotone, so the composite ranking is a descending-Gamma order:
    its pairs hold the (Gamma1, Gamma2) values of cell_pairs(gamma, ...)
    bit for bit (a tie in Gamma may swap two users, never the values).
    Returns (gamma, serving, interference, strong, weak): strong and
    weak index the users of every cell's pairs, as cell_pairs gives them.
    """
    if len(bss) == 0:
        raise ValueError("need at least one BS")
    rng = np.random.default_rng(seed)
    users = users % side_m  # x % side is x inside the window, so outputs keep their bits
    bss = bss % side_m
    serving = _nearest_bs(users, bss, radio, side_m)
    d_serving = _torus_dist(users, bss[serving], side_m)
    d_user_ris = np.abs(d_serving - radio.ris_offset_m)
    composite = path_gain(d_user_ris, radio) * path_gain(radio.ris_offset_m, radio)

    strong, weak, first = cell_pairs(composite, serving, len(bss))
    counts = np.bincount(serving, minlength=len(bss))
    k = rng.integers(0, np.maximum(counts // 2, 1))  # one draw per cell
    cells = np.flatnonzero(counts >= 2)
    pick = first[cells] + k[cells]
    tx = np.concatenate([strong[pick], weak[pick]])
    own = np.concatenate([cells, cells])
    # each co-scheduled user heard at every BS, a slice of them at a time;
    # the running total enters each slice's first row, so rows are added
    # in the order one sum(axis=0) over all of them adds them, bit for bit
    total = np.zeros(len(bss))
    step = max(1, BLOCK_INSTANCES // len(bss))
    for start in range(0, len(tx), step):
        rows = slice(start, start + step)
        heard = radio.transmit_power * path_gain(_torus_dist(users[tx[rows], None, :], bss, side_m), radio)
        heard[np.arange(len(heard)), own[rows]] = 0.0  # own cell is not interference
        heard[0] += total
        total = heard.sum(axis=0)
    interference = total[serving]

    gamma = _link_gamma(radio.transmit_power, composite, radio.ris_elements,
                        radio.bs_antennas, interference, radio.noise_power)
    return gamma, serving, interference, strong, weak


def campaign_pairs(deploy: DeploymentConfig, radio: RadioConfig):
    """Every pair of the campaign, drop k drawn from default_rng([seed, k])
    and paired by associate_and_budget: (g1, g2, skipped_drops, lone_users),
    the pairs' Gamma in drop order and MetricsTable's counts. Raises
    ValueError if no drop forms a pair or a pair's Gamma is 0, not finite
    or above MAX_GAMMA_DB."""
    pairs, lone = [], 0  # pairs: per drop that forms pairs, its (Gamma1, Gamma2) rows
    for k in range(deploy.drops):
        rng = np.random.default_rng([deploy.seed, k])
        bss = drop_ppp(deploy.bs_density, deploy.area_km2, rng)
        users = drop_ppp(deploy.user_density, deploy.area_km2, rng)
        if len(bss) == 0 or len(users) < 2:
            continue
        gamma, _, _, si, wi = associate_and_budget(users, bss, radio, deploy.side_m, rng)
        if len(si):  # a drop without pairs is skipped, and its users are not lone
            pairs.append(gamma[[si, wi]])
            lone += len(users) - 2 * len(si)
    if not pairs:
        raise ValueError("no pairs produced by any drop")
    g1, g2 = np.concatenate(pairs, axis=1)
    if not np.all((g2 > 0.0) & (g1 < math.inf)):  # Gamma1 >= Gamma2: every Gamma is then positive and finite
        raise ValueError("degenerate channel: a pair's Gamma is 0 or not finite")
    if g1.max() > db_to_linear(MAX_GAMMA_DB):  # a drop with one BS hears no interference
        raise ValueError(f"a pair's Gamma exceeds {MAX_GAMMA_DB:g} dB; lower the transmit power")
    return g1, g2, deploy.drops - len(pairs), lone


def _mean_se(arr: np.ndarray):
    """Each row's mean and standard error, std(ddof=1) / sqrt(n), from one
    sum: numpy's own mean and variance steps, bit for bit, with the
    variance taking the mean from the first sum, not a second. One
    value per row (n = 1) has standard error 0."""
    n = arr.shape[1]
    mean = np.add.reduce(arr, axis=1, keepdims=True) / n
    if n == 1:
        return mean[:, 0], np.zeros(len(arr))
    dev = arr - mean
    dev *= dev
    return mean[:, 0], np.sqrt(np.add.reduce(dev, axis=1) / (n - 1)) / math.sqrt(n)


def run_campaign(
    deploy: DeploymentConfig,
    radio: RadioConfig,
    schemes: Sequence[Scheme],
    delta_sweep: Sequence[float],
    targets_policy: TargetPolicy = TargetPolicy(),
    cdf_delta: Optional[float] = None,
) -> MetricsTable:
    """Run the Monte-Carlo campaign and aggregate per (scheme, delta)
    means with standard errors, plus the ASR CDF samples at cdf_delta.

    The pairs come from campaign_pairs, so the campaign is deterministic
    for a fixed deployment seed. cdf_delta must lie within 1e-12 of a
    swept delta. The sweep is decided in blocks of deltas (see
    BLOCK_INSTANCES); every number equals its one-delta-at-a-time value
    bit for bit.
    """
    if not schemes:
        raise ValueError("schemes must be non-empty")
    if not len(delta_sweep):
        raise ValueError("delta_sweep must be non-empty")
    if cdf_delta is None:
        cdf_delta = float(delta_sweep[0])
    cdf_index = next((i for i, d in enumerate(delta_sweep) if abs(float(d) - cdf_delta) < 1e-12), None)
    if cdf_index is None:
        raise ValueError(f"cdf_delta {math.degrees(cdf_delta):g} deg is not one of the swept deltas")

    g1, g2, skipped, lone = campaign_pairs(deploy, radio)
    n = len(g1)
    names = [scheme.value for scheme in schemes]  # the tables' keys in the schemes' order, whatever the deciding order
    table = MetricsTable({name: {} for name in names}, dict.fromkeys(names), cdf_delta, n, skipped, lone)
    step = max(1, BLOCK_INSTANCES // n)
    floors_follow_delta = targets_policy.kind is PolicyKind.OMA_AT_CURRENT
    # EEPA first, so its solve runs before the block's OMA decision is made
    order = sorted(schemes, key=lambda scheme: scheme is not Scheme.EEPA)
    decide = {}
    for start in range(0, len(delta_sweep), step):
        s = np.array([sinc_sq(float(d)) for d in delta_sweep[start : start + step]])[:, None]  # a row per delta
        if not decide or floors_follow_delta:  # bind once, or once per block
            floors = targets_policy.rates(g1, g2, s)
            decide = {scheme: KERNELS[scheme](g1, g2, *floors) for scheme in schemes}
        x1, x2 = g1 * s, g2 * s
        oma = None
        for scheme in order:
            noma, _, _, *outputs, _ = decide[scheme](x1, x2)
            if oma is None:
                oma = _oma(x1, x2)[3:7]
            r1, r2, asr, ee = _or_oma(noma, outputs, oma)
            stats = table.means[scheme.value]
            for name, arr in (("r1", r1), ("r2", r2), ("asr", asr), ("ee", ee)):
                mean, se = _mean_se(arr)
                stats.setdefault(f"mean_{name}", []).extend(mean.tolist())
                stats.setdefault(f"se_{name}", []).extend(se.tolist())
            if start <= cdf_index < start + step:
                table.cdf[scheme.value] = np.sort(asr[cdf_index - start])
            del noma, outputs, r1, r2, asr, ee, arr  # freed before the next scheme decides
        del x1, x2, oma  # and before the next block forms its own
    return table
