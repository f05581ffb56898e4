"""Experiment runners behind the CLI subcommands: power-fraction sweeps,
phase-error sweeps, single-pair studies, the system-level campaign, and
the Monte-Carlo validation of the sinc^2 approximation."""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .channel import (
    EffectiveCsi,
    PhaseModel,
    phase_error_gain_mc,
    rate_noma,
    rate_oma,
    sinc_sq,
)
from .eepa import pairing_criterion_eepa
from .mpa import PolicyKind, TargetPolicy, allocate_mpa, mpa_bounds, oma_decision
from .pairing import Scheme, UserRecord, run_scheme
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


def _pair(cfg: ExperimentConfig):
    return EffectiveCsi.from_db(cfg.gammas_db[0]), EffectiveCsi.from_db(cfg.gammas_db[1])


def sweep_alpha2_table(cfg: ExperimentConfig) -> Table:
    """Rates versus the weak user's power fraction at alpha1=1, one block
    per configured delta, with OMA references and both alpha2 bounds."""
    csi1, csi2 = _pair(cfg)
    n = round(1.0 / cfg.alpha2_step)
    grid = [i / n for i in range(n + 1)]
    table = Table(
        [
            "delta_deg",
            "alpha2",
            "r1",
            "r2",
            "asr",
            "r1_oma",
            "r2_oma",
            "r1_target",
            "r2_target",
            "alpha2_lb",
            "alpha2_ub",
        ]
    )
    for d in cfg.delta_deg:
        phase = PhaseModel.from_degrees(d)
        targets = cfg.targets_policy.resolve(csi1, csi2, phase)
        bounds = mpa_bounds(targets, csi1, csi2, phase)
        r1_oma = rate_oma(csi1, phase)
        r2_oma = rate_oma(csi2, phase)
        for a2 in grid:
            rates = rate_noma(1.0, a2, csi1, csi2, phase)
            table.append(
                delta_deg=d,
                alpha2=a2,
                r1=rates.strong,
                r2=rates.weak,
                asr=rates.strong + rates.weak,
                r1_oma=r1_oma,
                r2_oma=r2_oma,
                r1_target=targets.r1_min,
                r2_target=targets.r2_min,
                alpha2_lb=bounds.alpha2_lb,
                alpha2_ub=bounds.alpha2_ub,
            )
    return table


def sweep_delta_table(cfg: ExperimentConfig) -> Table:
    """Single-pair MPA decision versus phase imperfection, with the OMA
    reference rates and the criterion's delta upper bound."""
    csi1, csi2 = _pair(cfg)
    table = Table(
        [
            "delta_deg",
            "mode",
            "alpha2",
            "r1",
            "r2",
            "asr",
            "r1_oma",
            "r2_oma",
            "asr_oma",
            "delta_ub_deg",
        ]
    )
    for d in cfg.delta_deg:
        phase = PhaseModel.from_degrees(d)
        targets = cfg.targets_policy.resolve(csi1, csi2, phase)
        bounds = mpa_bounds(targets, csi1, csi2, phase)
        dec = allocate_mpa(targets, csi1, csi2, phase)
        r1_oma = rate_oma(csi1, phase)
        r2_oma = rate_oma(csi2, phase)
        table.append(
            delta_deg=d,
            mode=dec.mode.value,
            alpha2=dec.alpha2,
            r1=dec.rates.strong,
            r2=dec.rates.weak,
            asr=dec.asr,
            r1_oma=r1_oma,
            r2_oma=r2_oma,
            asr_oma=r1_oma + r2_oma,
            delta_ub_deg=math.degrees(bounds.delta_ub) if bounds.delta_ub is not None else "",
        )
    return table


def pair_study_table(cfg: ExperimentConfig) -> Table:
    """Full per-scheme decision dump for one pair at one delta."""
    csi1, csi2 = _pair(cfg)
    phase = PhaseModel.from_degrees(cfg.delta_deg[0])
    users = [UserRecord(0, csi1), UserRecord(1, csi2)]
    targets = cfg.targets_policy.resolve(csi1, csi2, phase)
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
        plan = run_scheme(users, scheme, phase, cfg.targets_policy)
        dec = plan.decisions[0]
        delta_ub = ""
        if scheme is Scheme.MPA:
            b = mpa_bounds(targets, csi1, csi2, phase)
            delta_ub = math.degrees(b.delta_ub) if b.delta_ub is not None else ""
        elif scheme is Scheme.EEPA:
            crit = pairing_criterion_eepa(targets, csi1, csi2, phase)
            delta_ub = math.degrees(crit.delta_ub) if crit.delta_ub is not None else ""
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
    for row in metrics.rows:
        means.append(
            scheme=row["scheme"],
            delta_deg=math.degrees(row["delta"]),
            mean_r1=row["mean_r1"],
            se_r1=row["se_r1"],
            mean_r2=row["mean_r2"],
            se_r2=row["se_r2"],
            mean_asr=row["mean_asr"],
            se_asr=row["se_asr"],
            mean_ee=row["mean_ee"],
            se_ee=row["se_ee"],
            n_pairs=row["n_pairs"],
        )
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
