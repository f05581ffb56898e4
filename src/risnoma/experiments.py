"""Experiment runners behind the CLI subcommands: power-fraction sweeps,
phase-error sweeps, single-pair studies, the system-level campaign, and
the Monte-Carlo validation of the sinc^2 approximation.

The two sweeps are built on arrays over their grid from the rate, bound
and threshold formulas and one MPA kernel call (see pairing.KERNELS),
after the input checks the one-pair API makes; only a delta upper bound,
a bisection, is found row by row. The single-pair study decides each
scheme with run_scheme and reads the MPA and EEPA criteria's delta upper
bounds from their thresholds.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .channel import EffectiveCsi, PhaseModel, _noma_rates, _oma_rate, db_to_linear, phase_error_gain_mc, sinc_sq
from .eepa import _eepa_thresholds
from .mpa import Mode, TargetPolicy, _alpha2_lb, _alpha2_ub, _delta_ub, _mpa_threshold
from .pairing import KERNELS, Scheme, UserRecord, run_scheme
from .syslevel import DeploymentConfig, RadioConfig, run_campaign
from .tables import Table

__all__ = [
    "ConfigError",
    "ExperimentKind",
    "ExperimentConfig",
    "parse_float_list",
    "sweep_alpha2_table",
    "sweep_delta_table",
    "pair_study_table",
    "syslevel_tables",
    "validate_approx_table",
]


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class ExperimentKind(Enum):
    SWEEP_ALPHA2 = "sweep-alpha2"
    SWEEP_DELTA = "sweep-delta"
    PAIR_STUDY = "pair-study"
    SYSLEVEL = "syslevel"
    VALIDATE_APPROX = "validate-approx"


@dataclass(frozen=True)
class ExperimentConfig:
    kind: ExperimentKind
    gammas_db: Tuple[float, float] = (8.0, 5.0)
    delta_deg: Tuple[float, ...] = (0.0,)
    alpha2_step: float = 0.001
    schemes: Tuple[Scheme, ...] = (Scheme.OMA, Scheme.MPA, Scheme.EEPA, Scheme.SRM)
    targets_policy: TargetPolicy = field(default_factory=lambda: TargetPolicy.oma_at_reference(0.0))
    deploy: DeploymentConfig = field(default_factory=DeploymentConfig)
    radio: RadioConfig = field(default_factory=RadioConfig)
    cdf_delta_deg: Optional[float] = None
    mc_elements: Tuple[int, ...] = (4, 16, 64, 256, 1024)
    mc_trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if len(self.delta_deg) == 0:
            raise ConfigError("delta grid must be non-empty")
        if list(self.delta_deg) != sorted(self.delta_deg):
            raise ConfigError("delta grid must be sorted ascending")
        if not all(0.0 <= d < 180.0 for d in self.delta_deg):
            raise ConfigError("delta values must lie in [0, 180) degrees")
        if self.kind is ExperimentKind.PAIR_STUDY and len(self.delta_deg) != 1:
            raise ConfigError("a pair study takes exactly one delta")
        if len(self.schemes) == 0:
            raise ConfigError("scheme list must be non-empty")
        if not 0.0 < self.alpha2_step <= 0.1:
            raise ConfigError("alpha2_step must lie in (0, 0.1]")
        if len(self.gammas_db) != 2:
            raise ConfigError("gammas_db must hold exactly two values (strong, weak)")
        if not all(math.isfinite(g) for g in self.gammas_db):
            raise ConfigError("gammas_db must be finite")
        if self.gammas_db[0] < self.gammas_db[1]:
            raise ConfigError("strong user's gamma must come first")
        if self.mc_trials < 1 or any(n < 1 for n in self.mc_elements):
            raise ConfigError("Monte-Carlo sizes must be positive")


def parse_float_list(text: str) -> Tuple[float, ...]:
    """Comma list ("0,5,10") or range syntax ("0:90:5", inclusive stop)."""
    text = text.strip()
    if ":" in text:
        parts = [float(x) for x in text.split(":")]
        if len(parts) != 3 or parts[2] <= 0:
            raise ConfigError(f"bad range spec {text!r}, expected start:stop:step")
        start, stop, step = parts
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(start + i * step for i in range(n))
    try:
        return tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError as e:
        raise ConfigError(f"bad number list {text!r}") from e


def _pair_on_grid(cfg: ExperimentConfig):
    """The pair's Gamma1 and Gamma2 and sinc^2(delta) at each delta of the
    grid, as arrays over the grid. Rejects, as the one-pair API does, a
    Gamma1 of 0 and a Gamma2 * sinc^2 of 0 at any delta."""
    s = np.array([sinc_sq(math.radians(d)) for d in cfg.delta_deg])
    g1, g2 = (np.full_like(s, db_to_linear(g)) for g in cfg.gammas_db)
    if not g1[0] > 0.0:
        raise ValueError("Gamma1 must be positive")
    if not np.all(g2 * s > 0.0):
        raise ValueError("degenerate channel: Gamma2 * sinc^2 = 0")
    return g1, g2, s


def sweep_alpha2_table(cfg: ExperimentConfig) -> Table:
    """Rates versus the weak user's power fraction at alpha1=1, one block
    per configured delta, with OMA references and both alpha2 bounds."""
    g1, g2, s = (x[:, None] for x in _pair_on_grid(cfg))  # a row per delta, a column per alpha2
    n = round(1.0 / cfg.alpha2_step)
    alpha2 = np.arange(n + 1) / n
    r1_min, r2_min = cfg.targets_policy.rates(g1, g2, s)
    p1, p2 = np.power(2.0, (r1_min, r2_min))
    r1, r2 = _noma_rates(1.0, alpha2, g1, g2, s)
    columns = {
        "delta_deg": np.array(cfg.delta_deg, dtype=float)[:, None],
        "alpha2": alpha2,
        "r1": r1,
        "r2": r2,
        "asr": r1 + r2,
        "r1_oma": _oma_rate(g1, s),
        "r2_oma": _oma_rate(g2, s),
        "r1_target": r1_min,
        "r2_target": r2_min,
        "alpha2_lb": _alpha2_lb(g2, s, p2),
        # a zero floor, or one below float resolution, leaves alpha2 unbounded
        "alpha2_ub": np.where(p1 == 1.0, np.inf, _alpha2_ub(g1, g2, s, p1)),
    }
    return Table(columns, {c: np.broadcast_to(v, r1.shape).ravel() for c, v in columns.items()})


def _delta_ub_deg(threshold):
    """The largest delta, in degrees, with sinc^2(delta) >= threshold; empty when there is none."""
    delta_ub = _delta_ub(float(threshold))
    return math.degrees(delta_ub) if delta_ub is not None else ""


def sweep_delta_table(cfg: ExperimentConfig) -> Table:
    """Single-pair MPA decision versus phase imperfection, with the OMA
    reference rates and the criterion's delta upper bound."""
    g1, g2, s = _pair_on_grid(cfg)
    r1_min, r2_min = cfg.targets_policy.rates(g1, g2, s)
    noma, _, alpha2, r1, r2, _, _ = KERNELS[Scheme.MPA](g1, g2, s, r1_min, r2_min)
    r1_oma, r2_oma = _oma_rate(g1, s), _oma_rate(g2, s)
    columns = {
        "delta_deg": np.array(cfg.delta_deg, dtype=float),
        "mode": np.where(noma, Mode.NOMA.value, Mode.OMA.value),
        "alpha2": alpha2,
        "r1": r1,
        "r2": r2,
        "asr": r1 + r2,
        "r1_oma": r1_oma,
        "r2_oma": r2_oma,
        "asr_oma": r1_oma + r2_oma,
        "delta_ub_deg": [_delta_ub_deg(t) for t in _mpa_threshold(g1, *np.power(2.0, (r1_min, r2_min)))],
    }
    return Table(columns, columns)


def pair_study_table(cfg: ExperimentConfig) -> Table:
    """Full per-scheme decision dump for one pair at one delta, with the
    MPA and EEPA criteria's delta upper bounds."""
    csi1, csi2 = (EffectiveCsi.from_db(g) for g in cfg.gammas_db)
    phase = PhaseModel.from_degrees(cfg.delta_deg[0])
    users = [UserRecord(0, csi1), UserRecord(1, csi2)]
    g1, g2 = csi1.gamma, csi2.gamma
    p1, p2 = np.power(2.0, cfg.targets_policy.rates(g1, g2, phase.degradation))
    table = Table(
        [
            "scheme",
            "mode",
            "alpha1",
            "alpha2",
            "r1",
            "r2",
            "asr",
            "ee",
            "delta_ub_deg",
            "iterations",
        ]
    )
    for scheme in cfg.schemes:
        # run_scheme first: it rejects a degenerate pair before a threshold divides by its Gamma
        dec = run_scheme(users, scheme, phase, cfg.targets_policy)[0]
        delta_ub = ""
        if scheme is Scheme.MPA:
            delta_ub = _delta_ub_deg(_mpa_threshold(g1, p1, p2))
        elif scheme is Scheme.EEPA:
            delta_ub = _delta_ub_deg(max(_eepa_thresholds(g1, g2, p1, p2)))
        table.append(
            scheme=scheme.value,
            mode=dec.mode.value,
            alpha1=dec.alpha1,
            alpha2=dec.alpha2,
            r1=dec.rates.strong,
            r2=dec.rates.weak,
            asr=dec.asr,
            ee=dec.ee,
            delta_ub_deg=delta_ub,
            iterations=dec.iterations if dec.iterations is not None else "",
        )
    return table


def syslevel_tables(cfg: ExperimentConfig):
    """Campaign means per (scheme, delta) plus the ASR empirical CDF at
    the chosen delta. Returns (means_table, cdf_table)."""
    delta_rad = [math.radians(d) for d in cfg.delta_deg]
    cdf_delta = (
        math.radians(cfg.cdf_delta_deg) if cfg.cdf_delta_deg is not None else None
    )
    metrics = run_campaign(
        cfg.deploy, cfg.radio, cfg.schemes, delta_rad, cfg.targets_policy, cdf_delta
    )
    means = Table(
        [
            "scheme",
            "delta_deg",
            "mean_r1",
            "se_r1",
            "mean_r2",
            "se_r2",
            "mean_asr",
            "se_asr",
            "mean_ee",
            "se_ee",
            "n_pairs",
        ]
    )
    degrees = dict(zip(delta_rad, cfg.delta_deg))  # the configured values, not a radian round trip
    for row in metrics.rows:
        means.append(delta_deg=degrees[row["delta"]], **row)
    # each scheme's sorted samples in turn, at levels i / n for i = 1..n
    # (one correctly rounded division each)
    samples = list(metrics.cdf.values())
    levels = [np.arange(1, len(a) + 1) / len(a) for a in samples]
    cdf = Table(
        ["scheme", "asr", "cdf"],
        {
            "scheme": [scheme for scheme, asr in metrics.cdf.items() for _ in range(len(asr))],
            "asr": np.concatenate([np.empty(0), *samples]),
            "cdf": np.concatenate([np.empty(0), *levels]),
        },
    )
    return means, cdf


def validate_approx_table(cfg: ExperimentConfig) -> Table:
    """Monte-Carlo phase gain versus the sinc^2 approximation across
    element counts and deltas."""
    table = Table(["n_elements", "delta_deg", "mc_estimate", "sinc_sq", "rel_error"])
    for i, n in enumerate(cfg.mc_elements):
        for j, d in enumerate(cfg.delta_deg):
            delta = math.radians(d)
            approx = sinc_sq(delta)
            est = phase_error_gain_mc(n, delta, cfg.mc_trials, seed=cfg.seed + 1000 * i + j)
            table.append(
                n_elements=n,
                delta_deg=d,
                mc_estimate=est,
                sinc_sq=approx,
                rel_error=(est - approx) / approx,
            )
    return table
