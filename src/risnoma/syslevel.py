"""System-level Monte-Carlo evaluation: PPP deployments on a toroidal
window, log-distance path loss, max-power association with one RIS per
serving BS, uplink interference from the other cells' co-scheduled
pairs, and metric aggregation across drops.

Association never forms a users x BS array: the window is cut into
about one grid square per BS, and each user compares only its square's
candidate BSs, which provably contain its nearest one. Memory per drop
grows with users x candidates (a few dozen) plus BS^2, not users x BS.

Per-pair decisions here come from one vectorized kernel per scheme,
which tests check against pairing.run_scheme pair by pair; EEPA's,
dinkelbach_batch, runs the same Dinkelbach loop as the per-pair solver.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .channel import sinc_sq
from .eepa import dinkelbach_batch
from .mpa import EPS, PolicyKind, TargetPolicy
from .pairing import Scheme

__all__ = [
    "DeploymentConfig",
    "RadioConfig",
    "DropResult",
    "MetricsTable",
    "drop_ppp",
    "path_gain",
    "associate_and_budget",
    "run_campaign",
]


@dataclass(frozen=True)
class DeploymentConfig:
    bs_density: float = 25.0  # BS per km^2
    user_density: float = 2000.0  # users per km^2
    area_km2: float = 1.0
    seed: int = 0
    drops: int = 1

    def __post_init__(self):
        if self.bs_density <= 0 or self.user_density <= 0 or self.area_km2 <= 0:
            raise ValueError("densities and area must be positive")
        if self.drops < 1:
            raise ValueError("drops must be >= 1")

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
        if self.bs_antennas < 1 or self.ris_elements < 1:
            raise ValueError("antenna/element counts must be >= 1")
        if self.pathloss_exponent < 2.0:
            raise ValueError("pathloss_exponent must be >= 2")
        if self.transmit_power <= 0 or self.noise_power <= 0:
            raise ValueError("powers must be positive")


@dataclass
class DropResult:
    pair_gamma_strong: np.ndarray
    pair_gamma_weak: np.ndarray
    lone_users: int


@dataclass
class MetricsTable:
    """Aggregated campaign output: one row per (scheme, delta) plus the
    ASR samples backing the empirical CDF at cdf_delta."""

    rows: List[dict] = field(default_factory=list)
    cdf: Dict[str, np.ndarray] = field(default_factory=dict)
    cdf_delta: Optional[float] = None
    n_pairs: int = 0
    skipped_drops: int = 0
    lone_users: int = 0


def drop_ppp(density_per_km2: float, area_km2: float, seed) -> np.ndarray:
    """Poisson point process on a square window; positions in meters.

    seed may be an integer or a Generator (reused for chained draws).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
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
    broadcast against each other; the last axis holds (x, y)."""
    disp = a - b
    disp += side / 2.0
    disp %= side
    disp -= side / 2.0
    return np.hypot(disp[..., 0], disp[..., 1])


def _grid_candidates(users: np.ndarray, bss: np.ndarray, radio: RadioConfig, side: float):
    """Split the window into g x g squares of width w, g = isqrt(#BS),
    and give each user its square's candidates: the BSs that can be
    nearest to some point of the square.

    A user u lies within h = w/sqrt(2) of its square's centre c, and the
    clamped distance D = max(d, min_distance_m) is 1-Lipschitz in either
    point, so for u's nearest BS b* and any BS b,
    D(c, b*) <= D(u, b*) + h <= D(u, b) + h <= D(c, b) + 2h.
    Every BS nearest to, or tied for, some user of the square thus has
    D(c, b) <= min_b D(c, b) + w sqrt(2); the relative slack absorbs
    rounding. Returns cand, cand[u] user u's candidates in ascending BS
    index, padded by repeating the first one.
    """
    g = math.isqrt(len(bss))
    w = side / g
    centre = (np.arange(g) + 0.5) * w
    centres = np.stack(np.meshgrid(centre, centre, indexing="ij"), axis=-1).reshape(-1, 1, 2)
    d = np.maximum(_torus_dist(centres, bss, side), radio.min_distance_m)
    near = d <= ((d.min(axis=1) + w * math.sqrt(2.0)) * (1.0 + 1e-9))[:, None]
    counts = near.sum(axis=1)
    cand = np.argsort(~near, axis=1, kind="stable")[:, : counts.max()]
    cand = np.where(np.arange(cand.shape[1]) < counts[:, None], cand, cand[:, :1])
    square = np.floor(users / w).astype(np.int64) % g  # % g: users at the far edge wrap
    return cand[square[:, 0] * g + square[:, 1]]


def associate_and_budget(
    users: np.ndarray, bss: np.ndarray, radio: RadioConfig, side_m: float, seed=0
):
    """Attach each user to its max-received-power BS (ties to the lower
    BS index) and build the per-user link budget terms.

    Association is exact but never forms a users x BS array: each user
    compares only the candidate BSs of its grid square, a superset of
    every BS that can be nearest to a point of the square (see
    _grid_candidates), taken in ascending index so that ties still go to
    the lower index.

    The RIS sits ris_offset_m from the serving BS on the BS-user bearing,
    so the composite gain separates into user->RIS and RIS->BS hops.

    Interference is what the user's serving BS receives on the user's
    resource block from the other cells (uplink model of Novlan, Dhillon
    & Andrews, IEEE TWC 2013). Assumption: every cell co-schedules one
    NOMA pair per resource block, paired as in _build_drop (k-th
    strongest with k-th weakest by composite gain), with k drawn
    uniformly per cell from seed (an integer or a Generator); a cell
    with fewer than two users forms no pair and is silent. All users of
    a cell therefore see the same interference.
    Returns (gamma, serving, interference) arrays.
    """
    if len(bss) == 0:
        raise ValueError("need at least one BS")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    cand = _grid_candidates(users, bss, radio, side_m)  # cand[u, j]: user u's j-th candidate
    dist = _torus_dist(users[:, None, :], bss[cand], side_m)
    best = np.argmax(radio.transmit_power * path_gain(dist, radio), axis=1)  # first maximum
    rows = np.arange(len(users))
    serving = cand[rows, best]
    d_serving = dist[rows, best]
    d_user_ris = np.abs(d_serving - radio.ris_offset_m)
    composite = path_gain(d_user_ris, radio) * path_gain(radio.ris_offset_m, radio)

    # users grouped by cell, strongest first (lexsort is stable: ties by index)
    order = np.lexsort((-composite, serving))
    counts = np.bincount(serving, minlength=len(bss))
    start = np.cumsum(counts) - counts
    k = rng.integers(0, np.maximum(counts // 2, 1))  # one draw per cell
    cells = np.flatnonzero(counts >= 2)
    strong = start[cells] + k[cells]
    weak = start[cells] + counts[cells] - 1 - k[cells]
    tx = order[np.concatenate([strong, weak])]
    # each co-scheduled user heard at every BS
    heard = radio.transmit_power * path_gain(_torus_dist(users[tx, None, :], bss, side_m), radio)
    heard[np.arange(len(tx)), np.concatenate([cells, cells])] = 0.0  # own cell is not interference
    interference = heard.sum(axis=0)[serving]

    num = (
        radio.transmit_power
        * composite
        * radio.ris_elements**2
        * radio.bs_antennas
    )
    gamma = num / (interference + radio.noise_power)
    return gamma, serving, interference


def _build_drop(deploy: DeploymentConfig, radio: RadioConfig, drop_index: int) -> Optional[DropResult]:
    rng = np.random.default_rng([deploy.seed, drop_index])
    bss = drop_ppp(deploy.bs_density, deploy.area_km2, rng)
    users = drop_ppp(deploy.user_density, deploy.area_km2, rng)
    if len(bss) == 0 or len(users) < 2:
        return None
    gamma, serving, _ = associate_and_budget(users, bss, radio, deploy.side_m, rng)
    # users grouped by cell, strongest first; pair k joins a cell's k-th
    # strongest and k-th weakest user
    ranked = gamma[np.lexsort((-gamma, serving))]
    counts = np.bincount(serving, minlength=len(bss))
    half = counts // 2
    if not half.any():
        return None
    cell = np.repeat(np.arange(len(bss)), half)
    k = np.arange(half.sum()) - np.repeat(np.cumsum(half) - half, half)
    start = np.cumsum(counts) - counts
    return DropResult(
        pair_gamma_strong=ranked[start[cell] + k],
        pair_gamma_weak=ranked[start[cell] + counts[cell] - 1 - k],
        lone_users=int((counts % 2).sum()),
    )


def _targets(policy: TargetPolicy, g1, g2, s: float):
    if policy.kind is PolicyKind.OMA_AT_REFERENCE:
        s_ref = sinc_sq(policy.delta_ref)
        return 0.5 * np.log2(1.0 + g1 * s_ref), 0.5 * np.log2(1.0 + g2 * s_ref)
    if policy.kind is PolicyKind.OMA_AT_CURRENT:
        return 0.5 * np.log2(1.0 + g1 * s), 0.5 * np.log2(1.0 + g2 * s)
    return (
        np.full_like(g1, policy.r1_min),
        np.full_like(g1, policy.r2_min),
    )


def _noma_rates(a1, a2, g1, g2, s: float):
    r1 = np.log2(1.0 + a1 * g1 * s / (1.0 + a2 * g2 * s))
    r2 = np.log2(1.0 + a2 * g2 * s)
    return r1, r2


def _scheme_arrays(scheme: Scheme, g1, g2, s: float, policy: TargetPolicy):
    """Per-pair (r1, r2, ee) arrays for one scheme at one delta, the
    decisions of pairing.run_scheme on every pair at once."""
    r1o = 0.5 * np.log2(1.0 + g1 * s)
    r2o = 0.5 * np.log2(1.0 + g2 * s)
    ee_oma = (r1o + r2o) / 2.0
    if scheme is Scheme.OMA:
        return r1o, r2o, ee_oma

    if scheme is Scheme.SRM:
        r1bar0, _ = _targets(TargetPolicy.oma_at_reference(0.0), g1, g2, 1.0)
        pow1 = 2.0**r1bar0
        ub0 = (g1 + 1.0 - pow1) / (g2 * (pow1 - 1.0))
        a2 = np.clip(ub0, 0.0, 1.0)
        r1, r2 = _noma_rates(1.0, a2, g1, g2, s)
        return r1, r2, (r1 + r2) / (1.0 + a2)

    r1bar, r2bar = _targets(policy, g1, g2, s)
    pow1 = 2.0**r1bar
    pow2 = 2.0**r2bar

    if scheme is Scheme.MPA:
        threshold = pow2 * (pow1 - 1.0) / g1
        lb = (pow2 - 1.0) / (g2 * s)
        feasible = (s >= threshold) & (lb <= 1.0 + EPS)
        with np.errstate(divide="ignore", invalid="ignore"):
            ub = (g1 * s + 1.0 - pow1) / (g2 * s * (pow1 - 1.0))
        a2 = np.clip(np.where(pow1 > 1.0, ub, 1.0), 0.0, 1.0)
        r1n, r2n = _noma_rates(1.0, a2, g1, g2, s)
        feasible &= r1n + r2n > 0.0  # rates underflow to 0: OMA fallback
        r1 = np.where(feasible, r1n, r1o)
        r2 = np.where(feasible, r2n, r2o)
        ee = np.where(feasible, (r1n + r2n) / (1.0 + a2), ee_oma)
        return r1, r2, ee

    if scheme is Scheme.EEPA:
        with np.errstate(divide="ignore"):
            denom = g1 / (pow1 - 1.0) - g2
        th1 = np.where(pow1 > 1.0, np.where(denom > 0.0, 1.0 / denom, np.inf), 0.0)
        th2 = (pow2 - 1.0) / g2
        feasible = s >= np.maximum(th1, th2)
        r1 = r1o.copy()
        r2 = r2o.copy()
        ee = ee_oma.copy()
        idx = np.flatnonzero(feasible)
        if idx.size:
            a1, a2, lam = dinkelbach_batch(g1[idx], g2[idx], r1bar[idx], r2bar[idx], s)
            noma = lam > 0.0  # lambda* = 0: rates underflow, OMA fallback
            idx, a1, a2, lam = idx[noma], a1[noma], a2[noma], lam[noma]
            r1n, r2n = _noma_rates(a1, a2, g1[idx], g2[idx], s)
            r1[idx] = r1n
            r2[idx] = r2n
            ee[idx] = lam
        return r1, r2, ee

    raise ValueError(f"unknown scheme {scheme}")


def run_campaign(
    deploy: DeploymentConfig,
    radio: RadioConfig,
    schemes: Sequence[Scheme],
    delta_sweep: Sequence[float],
    targets_policy: Optional[TargetPolicy] = None,
    cdf_delta: Optional[float] = None,
) -> MetricsTable:
    """Run the Monte-Carlo campaign and aggregate per (scheme, delta)
    means with standard errors, plus the ASR CDF samples at cdf_delta.

    Deterministic for a fixed deployment seed: drops derive their own
    generators from (seed, drop index).
    """
    if not schemes:
        raise ValueError("schemes must be non-empty")
    if not len(delta_sweep):
        raise ValueError("delta_sweep must be non-empty")
    policy = targets_policy or TargetPolicy.oma_at_reference(0.0)
    if cdf_delta is None:
        cdf_delta = float(delta_sweep[0])

    strong, weak = [], []
    skipped = 0
    lone = 0
    for k in range(deploy.drops):
        drop = _build_drop(deploy, radio, k)
        if drop is None:
            skipped += 1
            continue
        strong.append(drop.pair_gamma_strong)
        weak.append(drop.pair_gamma_weak)
        lone += drop.lone_users
    if not strong:
        raise ValueError("no pairs produced by any drop")
    g1 = np.concatenate(strong)
    g2 = np.concatenate(weak)

    table = MetricsTable(
        cdf_delta=cdf_delta, n_pairs=len(g1), skipped_drops=skipped, lone_users=lone
    )
    for delta in delta_sweep:
        s = sinc_sq(float(delta))
        for scheme in schemes:
            r1, r2, ee = _scheme_arrays(scheme, g1, g2, s, policy)
            asr = r1 + r2
            n = len(asr)
            row = {"scheme": scheme.value, "delta": float(delta)}
            for name, arr in (("r1", r1), ("r2", r2), ("asr", asr), ("ee", ee)):
                row[f"mean_{name}"] = float(arr.mean())
                row[f"se_{name}"] = float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
            row["n_pairs"] = n
            table.rows.append(row)
            if abs(float(delta) - cdf_delta) < 1e-12 and scheme.value not in table.cdf:
                table.cdf[scheme.value] = np.sort(asr)
    return table
