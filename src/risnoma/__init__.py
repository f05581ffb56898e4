"""Spectral- and energy-efficient user pairing for RIS-assisted uplink
NOMA under imperfect phase compensation."""

from .channel import (
    EffectiveCsi,
    PhaseModel,
    RatePair,
    db_to_linear,
    phase_error_gain_mc,
    rate_noma,
    rate_oma,
    sinc_sq,
)
from .eepa import (
    ConvergenceError,
    DinkelbachResult,
    dinkelbach_allocate,
    pairing_criterion_eepa,
)
from .mpa import (
    Mode,
    PairDecision,
    RateTargets,
    TargetPolicy,
    allocate_mpa,
    alpha2_lower,
    alpha2_upper,
    pairing_criterion_mpa,
)
from .pairing import Scheme, run_scheme
from .syslevel import (
    DeploymentConfig,
    MetricsTable,
    RadioConfig,
    associate_and_budget,
    drop_ppp,
    path_gain,
    run_campaign,
)

__version__ = "0.1.0"
