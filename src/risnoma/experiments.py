"""Experiment runners behind the CLI subcommands: power-fraction sweeps,
phase-error sweeps, single-pair studies, the system-level campaign, and
the Monte-Carlo validation of the sinc^2 approximation.

The two sweeps are built on arrays of the pair's effective SNRs over
their grid from the rate, bound and threshold formulas and one MPA kernel
call (see pairing.KERNELS), after the input checks the one-pair API makes;
only a delta upper bound, a bisection, is found row by row. The
single-pair study uses only the one-pair API: TargetPolicy.resolve, once
per study, then run_scheme and the delta upper bounds of
pairing_criterion_mpa and pairing_criterion_eepa on the floors it gives.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .channel import (
    MAX_GAMMA_DB, MC_CHUNK_VALUES, EffectiveCsi, PhaseModel, _noma_rates, _oma_rate, db_to_linear,
    phase_error_gain_mc, sinc_sq,
)
from .eepa import pairing_criterion_eepa
from .mpa import (
    Mode, TargetPolicy, _alpha2_lb, _alpha2_ub, _delta_ub, _mpa_threshold, _oma, _or_oma, pairing_criterion_mpa,
)
from .pairing import KERNELS, Scheme, run_scheme
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


# the largest sweep-alpha2 table (about 0.63 KiB of peak memory per row)
# and the most points a start:stop:step range may expand to
MAX_GRID_ROWS = 10**6
MAX_RANGE_POINTS = 10**5
# the most elements of one Monte-Carlo trial: one chunk of phase_error_gain_mc
MAX_MC_ELEMENTS = MC_CHUNK_VALUES


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
    targets_policy: TargetPolicy = field(default_factory=TargetPolicy)
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
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError("scheme list must not repeat a scheme")
        if not 0.0 < self.alpha2_step <= 0.1:
            raise ConfigError("alpha2_step must lie in (0, 0.1]")
        if self.kind is ExperimentKind.SWEEP_ALPHA2:
            n = round(min(1.0 / self.alpha2_step, MAX_GRID_ROWS))  # 1 / step overflows below about 5.6e-309
            if len(self.delta_deg) * (n + 1) > MAX_GRID_ROWS:
                raise ConfigError(f"the alpha2 grid exceeds {MAX_GRID_ROWS} rows; take a larger alpha2_step")
        if len(self.gammas_db) != 2:
            raise ConfigError("gammas_db must hold exactly two values (strong, weak)")
        if not all(math.isfinite(g) for g in self.gammas_db):
            raise ConfigError("gammas_db must be finite")
        if max(self.gammas_db) > MAX_GAMMA_DB:
            raise ConfigError(f"gammas_db must not exceed {MAX_GAMMA_DB:g} dB")
        if self.gammas_db[0] < self.gammas_db[1]:
            raise ConfigError("strong user's gamma must come first")
        if len(self.mc_elements) == 0:
            raise ConfigError("element list must be non-empty")
        if self.mc_trials < 1 or any(n < 1 for n in self.mc_elements):
            raise ConfigError("Monte-Carlo sizes must be positive")
        if max(self.mc_elements) > MAX_MC_ELEMENTS:
            raise ConfigError(f"element counts must not exceed {MAX_MC_ELEMENTS}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


def parse_float_list(text: str) -> Tuple[float, ...]:
    """Comma list ("0,5,10") or range syntax ("0:90:5", inclusive stop)."""
    text = text.strip()
    if ":" in text:
        parts = [float(x) for x in text.split(":")]
        if len(parts) != 3 or not all(map(math.isfinite, parts)) or parts[2] <= 0:
            raise ConfigError(f"bad range spec {text!r}, expected start:stop:step")
        start, stop, step = parts
        span = (stop - start) / step + 1e-9
        if not span < MAX_RANGE_POINTS:  # checked before a single point is built
            raise ConfigError(f"range {text!r} has more than {MAX_RANGE_POINTS} points")
        return tuple(start + i * step for i in range(math.floor(span) + 1))
    try:
        return tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError as e:
        raise ConfigError(f"bad number list {text!r}") from e


def _pair_on_grid(cfg: ExperimentConfig):
    """The pair's Gamma1 and Gamma2, sinc^2(delta) and the effective SNRs
    x1 and x2 at each delta of the grid, as arrays over the grid. Rejects,
    as the one-pair API does, a Gamma1 of 0 and an x2 of 0 at any delta."""
    s = np.array([sinc_sq(math.radians(d)) for d in cfg.delta_deg])
    g1, g2 = (np.full_like(s, db_to_linear(g)) for g in cfg.gammas_db)
    x1, x2 = g1 * s, g2 * s
    if not g1[0] > 0.0:
        raise ValueError("Gamma1 must be positive")
    if not np.all(x2 > 0.0):
        raise ValueError("degenerate channel: Gamma2 * sinc^2 = 0")
    return g1, g2, s, x1, x2


def sweep_alpha2_table(cfg: ExperimentConfig) -> Table:
    """Rates versus the weak user's power fraction at alpha1=1, one block
    per configured delta, with OMA references and both alpha2 bounds."""
    g1, g2, s, x1, x2 = (x[:, None] for x in _pair_on_grid(cfg))  # a row per delta, a column per alpha2
    n = round(1.0 / cfg.alpha2_step)
    alpha2 = np.arange(n + 1) / n
    r1_min, r2_min = cfg.targets_policy.rates(g1, g2, s)
    p1, p2 = np.power(2.0, (r1_min, r2_min))
    r1, r2 = _noma_rates(1.0, alpha2, x1, x2)
    columns = {
        "delta_deg": np.array(cfg.delta_deg, dtype=float)[:, None],
        "alpha2": alpha2,
        "r1": r1,
        "r2": r2,
        "asr": r1 + r2,
        "r1_oma": _oma_rate(x1),
        "r2_oma": _oma_rate(x2),
        "r1_target": r1_min,
        "r2_target": r2_min,
        "alpha2_lb": _alpha2_lb(x2, p2),
        "alpha2_ub": _alpha2_ub(x1, x2, p1),
    }
    return Table({c: np.broadcast_to(v, r1.shape).ravel() for c, v in columns.items()})


def _degrees(delta_ub):
    """A delta upper bound in degrees; empty when there is none."""
    return math.degrees(delta_ub) if delta_ub is not None else ""


def sweep_delta_table(cfg: ExperimentConfig) -> Table:
    """Single-pair MPA decision versus phase imperfection, with the OMA
    reference rates and the criterion's delta upper bound."""
    g1, g2, s, x1, x2 = _pair_on_grid(cfg)
    r1_min, r2_min = cfg.targets_policy.rates(g1, g2, s)
    noma, _, *nomas, _, _ = KERNELS[Scheme.MPA](g1, g2, r1_min, r2_min)(x1, x2)
    oma = _oma(x1, x2)
    alpha2, r1, r2, asr = _or_oma(noma, nomas, oma[2:6])
    thresholds = _mpa_threshold(g1, *np.power(2.0, (r1_min, r2_min)))
    columns = {
        "delta_deg": np.array(cfg.delta_deg, dtype=float),
        "mode": np.where(noma, Mode.NOMA.value, Mode.OMA.value),
        "alpha2": alpha2,
        "r1": r1,
        "r2": r2,
        "asr": asr,
        "r1_oma": oma[3],
        "r2_oma": oma[4],
        "asr_oma": oma[5],
        "delta_ub_deg": [_degrees(_delta_ub(float(t))) for t in thresholds],
    }
    return Table(columns)


def pair_study_table(cfg: ExperimentConfig) -> Table:
    """Full per-scheme decision dump for one pair at one delta, with the
    MPA and EEPA criteria's delta upper bounds."""
    csi1, csi2 = (EffectiveCsi.from_db(g) for g in cfg.gammas_db)
    phase = PhaseModel.from_degrees(cfg.delta_deg[0])
    targets = cfg.targets_policy.resolve(csi1, csi2, phase)
    # run_scheme first: it rejects a degenerate pair before a criterion divides by its Gamma
    decisions = [run_scheme(csi1, csi2, scheme, phase, targets) for scheme in cfg.schemes]
    criteria = {  # evaluated only for the schemes in the study
        Scheme.MPA: lambda: pairing_criterion_mpa(targets, csi1, phase),
        Scheme.EEPA: lambda: pairing_criterion_eepa(targets, csi1, csi2, phase),
    }
    return Table(
        {
            "scheme": [scheme.value for scheme in cfg.schemes],
            "mode": [dec.mode.value for dec in decisions],
            "alpha1": [dec.alpha1 for dec in decisions],
            "alpha2": [dec.alpha2 for dec in decisions],
            "r1": [dec.rates.strong for dec in decisions],
            "r2": [dec.rates.weak for dec in decisions],
            "asr": [dec.asr for dec in decisions],
            "ee": [dec.ee for dec in decisions],
            "delta_ub_deg": [_degrees(criteria[s]().delta_ub) if s in criteria else "" for s in cfg.schemes],
            "iterations": [dec.iterations if dec.iterations is not None else "" for dec in decisions],
        }
    )


def syslevel_tables(cfg: ExperimentConfig):
    """The campaign's means, a row per (delta, scheme), and its ASR
    empirical CDF at the chosen delta. Returns (means_table, cdf_table)."""
    delta_rad = [math.radians(d) for d in cfg.delta_deg]
    cdf_delta = (
        math.radians(cfg.cdf_delta_deg) if cfg.cdf_delta_deg is not None else None
    )
    metrics = run_campaign(
        cfg.deploy, cfg.radio, cfg.schemes, delta_rad, cfg.targets_policy, cdf_delta
    )
    # rows by delta, then scheme; each delta as configured, not its radians' round trip
    cells = [(i, scheme.value) for i in range(len(cfg.delta_deg)) for scheme in cfg.schemes]
    stats = {stat: [metrics.means[s][stat][i] for i, s in cells] for stat in metrics.means[cfg.schemes[0].value]}
    means = Table({"scheme": [s for _, s in cells], "delta_deg": [cfg.delta_deg[i] for i, _ in cells],
                   **stats, "n_pairs": [metrics.n_pairs] * len(cells)})
    # each scheme's sorted samples in turn, at levels i / n for i = 1..n
    # (one correctly rounded division each)
    samples = list(metrics.cdf.values())
    schemes = []
    for scheme, asr in metrics.cdf.items():
        schemes += [scheme] * len(asr)
    cdf = Table(
        {
            "scheme": schemes,
            "asr": np.concatenate(samples),
            "cdf": np.concatenate([np.arange(1, len(a) + 1) / len(a) for a in samples]),
        }
    )
    return means, cdf


def validate_approx_table(cfg: ExperimentConfig) -> Table:
    """Monte-Carlo phase gain versus the sinc^2 approximation across
    element counts and deltas."""
    cells = [
        (n, d, cfg.seed + 1000 * i + j) for i, n in enumerate(cfg.mc_elements) for j, d in enumerate(cfg.delta_deg)
    ]
    approx = [sinc_sq(math.radians(d)) for _, d, _ in cells]
    est = [phase_error_gain_mc(n, math.radians(d), cfg.mc_trials, seed=seed) for n, d, seed in cells]
    return Table(
        {
            "n_elements": [n for n, _, _ in cells],
            "delta_deg": [d for _, d, _ in cells],
            "mc_estimate": est,
            "sinc_sq": approx,
            "rel_error": [(e - a) / a for e, a in zip(est, approx)],
        }
    )
