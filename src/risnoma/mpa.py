"""Maximum-sum-rate pairing: power-fraction bounds, the pairing criterion
on phase imperfection, and the closed-form allocation.

Each bound and threshold is one numpy formula on floats or arrays; the
OMA, MPA and SRM decisions are each one array kernel (see pairing.KERNELS)
with the OMA fallback applied in _or_oma. The object-based functions
(alpha2_lower, alpha2_upper, eta_kappa, pairing_criterion_mpa and
allocate_mpa) validate one pair and evaluate the same formulas and
kernels on it; the CLI's tables and the campaign call the formulas and
kernels on arrays directly.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .channel import EffectiveCsi, PhaseModel, RatePair, _noma_rates, _oma_rate, sinc_sq

__all__ = [
    "EPS",
    "PolicyKind",
    "TargetPolicy",
    "RateTargets",
    "Mode",
    "PairDecision",
    "MpaCriterion",
    "alpha2_lower",
    "alpha2_upper",
    "eta_kappa",
    "invert_sinc_sq",
    "pairing_criterion_mpa",
    "allocate_mpa",
]

# absolute tolerance absorbing floating-point noise at analytic boundaries
EPS = 1e-9


class PolicyKind(Enum):
    OMA_AT_REFERENCE = "oma-ref"
    OMA_AT_CURRENT = "oma-current"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class TargetPolicy:
    """How the per-pair minimum rates are produced.

    The default freezes targets at the OMA rates of a reference phase
    error (delta_ref=0), so that growing imperfection eventually breaks
    the pairing criterion and the pair falls back to OMA.
    """

    kind: PolicyKind
    delta_ref: float = 0.0
    r1_min: float = 0.0
    r2_min: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.delta_ref < math.pi:
            raise ValueError(f"delta_ref must lie in [0, pi), got {self.delta_ref}")
        _check_floors(self.r1_min, self.r2_min)

    @classmethod
    def oma_at_reference(cls, delta_ref: float = 0.0) -> "TargetPolicy":
        return cls(PolicyKind.OMA_AT_REFERENCE, delta_ref=delta_ref)

    @classmethod
    def oma_at_current(cls) -> "TargetPolicy":
        return cls(PolicyKind.OMA_AT_CURRENT)

    @classmethod
    def explicit(cls, r1_min: float, r2_min: float) -> "TargetPolicy":
        return cls(PolicyKind.EXPLICIT, r1_min=r1_min, r2_min=r2_min)

    def rates(self, g1, g2, s):
        """Floors (r1_min, r2_min) of pairs g1, g2 at degradation s, on floats or arrays."""
        if self.kind is PolicyKind.EXPLICIT:  # np.full, not full_like: an int Gamma keeps float floors
            shape = np.shape(g1)
            return np.full(shape, self.r1_min, dtype=float), np.full(shape, self.r2_min, dtype=float)
        if self.kind is PolicyKind.OMA_AT_REFERENCE:
            s = sinc_sq(self.delta_ref)
        return _oma_rate(g1, s), _oma_rate(g2, s)

    def resolve(self, csi1: EffectiveCsi, csi2: EffectiveCsi, phase: PhaseModel) -> "RateTargets":
        """The floors of one pair."""
        r1, r2 = self.rates(csi1.gamma, csi2.gamma, phase.degradation)
        return RateTargets(float(r1), float(r2))


def _check_floors(r1_min, r2_min) -> None:
    if not (0.0 <= r1_min < 1024.0 and 0.0 <= r2_min < 1024.0):
        raise ValueError("rate targets must lie in [0, 1024) bits/s/Hz, where 2^r is finite")


@dataclass(frozen=True)
class RateTargets:
    """Minimum required rates for the strong and weak user."""

    r1_min: float
    r2_min: float

    def __post_init__(self):
        _check_floors(self.r1_min, self.r2_min)


class Mode(Enum):
    NOMA = "noma"
    OMA = "oma"


@dataclass(frozen=True)
class PairDecision:
    """Outcome for one candidate pair: NOMA with power fractions, or the
    OMA fallback (both users at full power on orthogonal resources)."""

    mode: Mode
    alpha1: float
    alpha2: float
    rates: RatePair
    asr: float
    ee: float
    strong_index: int = 0
    weak_index: int = 1
    iterations: Optional[int] = None  # Dinkelbach iterations, EEPA NOMA only

    @classmethod
    def from_kernel(cls, decision, strong_index=0, weak_index=1) -> "PairDecision":
        """One pair's kernel output (noma, alpha1, alpha2, r1, r2, ee,
        iterations) as a decision; 0 iterations (no solve) read as None."""
        noma, alpha1, alpha2, r1, r2, ee, iterations = decision
        rates = RatePair(float(r1), float(r2))
        return cls(Mode.NOMA if noma else Mode.OMA, float(alpha1), float(alpha2), rates,
                   rates.strong + rates.weak, float(ee), strong_index, weak_index, int(iterations) or None)


@dataclass(frozen=True)
class MpaCriterion:
    feasible: bool
    sinc_sq_threshold: float

    @property
    def delta_ub(self) -> Optional[float]:  # computed on reading: decisions need only the threshold
        return _delta_ub(self.sinc_sq_threshold)


# Formulas on floats or arrays. They take the rate floors as p = 2^r_min,
# the form every bound uses them in.


def _alpha2_lb(g2, s, p2):
    """Smallest weak-user power fraction meeting its floor."""
    return (p2 - 1.0) / (g2 * s)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # p1 = 1: +inf or nan; subnormal Gamma2: +inf
def _alpha2_ub(g1, g2, s, p1):
    """Largest weak-user power fraction keeping the strong user, at
    alpha1 = 1, on its floor."""
    return (g1 * s + 1.0 - p1) / (g2 * s * (p1 - 1.0))


def _eta_kappa(g1, g2, s, p1):
    """Coefficients of the strong-user constraint alpha1 >= kappa*alpha2 + eta."""
    return (p1 - 1.0) / (g1 * s), (p1 - 1.0) * g2 / g1


def _mpa_threshold(g1, p1, p2):
    """The MPA criterion's bound on sinc^2(delta)."""
    return p2 * (p1 - 1.0) / g1


def _check_channel(csi: EffectiveCsi, phase: PhaseModel, user: int) -> None:
    if not csi.gamma * phase.degradation > 0.0:
        raise ValueError(f"degenerate channel: Gamma{user} * sinc^2 = 0")


def alpha2_lower(targets: RateTargets, csi2: EffectiveCsi, phase: PhaseModel) -> float:
    """Smallest weak-user power fraction meeting its rate floor; may
    exceed 1, which signals infeasibility handled by the caller."""
    _check_channel(csi2, phase, 2)
    return float(_alpha2_lb(csi2.gamma, phase.degradation, np.power(2.0, targets.r2_min)))


def alpha2_upper(
    targets: RateTargets, csi1: EffectiveCsi, csi2: EffectiveCsi, phase: PhaseModel
) -> float:
    """Largest weak-user power fraction that keeps the strong user (at
    alpha1=1) at or above its rate floor. Unbounded when r1_min=0; may be
    negative (pair infeasible) or exceed 1 (clamped by the allocation)."""
    _check_channel(csi2, phase, 2)
    p1 = np.power(2.0, targets.r1_min)
    if p1 == 1.0:  # a zero floor, or one below float resolution
        return math.inf
    return float(_alpha2_ub(csi1.gamma, csi2.gamma, phase.degradation, p1))


def eta_kappa(
    targets: RateTargets, csi1: EffectiveCsi, csi2: EffectiveCsi, phase: PhaseModel
) -> tuple:
    """Coefficients of the strong-user constraint alpha1 >= kappa*alpha2 + eta."""
    _check_channel(csi1, phase, 1)
    p1 = np.power(2.0, targets.r1_min)
    return tuple(map(float, _eta_kappa(csi1.gamma, csi2.gamma, phase.degradation, p1)))


def invert_sinc_sq(target: float) -> float:
    """Unique root of sinc^2(x) = target on (0, pi), by bisection on the
    strictly decreasing sinc^2 to a bracket below 1e-10. mid stays in
    (0, pi), so sinc^2 is computed inline, without sinc_sq's domain check."""
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must lie in (0, 1), got {target}")
    lo, hi = 0.0, math.pi
    while hi - lo >= 1e-10:
        mid = 0.5 * (lo + hi)
        if (math.sin(mid) / mid) ** 2 >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _delta_ub(threshold: float) -> Optional[float]:
    """Largest delta with sinc^2(delta) >= threshold; None when every
    delta passes (threshold <= 0) or none does (threshold > 1)."""
    if threshold <= 0.0 or threshold > 1.0:
        return None
    return 0.0 if threshold == 1.0 else invert_sinc_sq(threshold)


def pairing_criterion_mpa(
    targets: RateTargets, csi1: EffectiveCsi, phase: PhaseModel
) -> MpaCriterion:
    """NOMA pairing criterion: sinc^2(delta) >= 2^r2min * (2^r1min - 1) / Gamma1.

    delta_ub is the largest phase error still satisfying the criterion;
    None when the criterion holds for every delta (threshold <= 0) or for
    none (threshold > 1).
    """
    if csi1.gamma <= 0.0:
        raise ValueError("Gamma1 must be positive")
    p1, p2 = np.power(2.0, (targets.r1_min, targets.r2_min))
    threshold = float(_mpa_threshold(csi1.gamma, p1, p2))
    return MpaCriterion(phase.degradation >= threshold, threshold)


def _oma_kernel(g1, g2, s, r1_min=None, r2_min=None):
    """OMA: both users at full power on orthogonal resources, whatever the floors."""
    r1, r2 = _oma_rate(g1, s), _oma_rate(g2, s)
    return False, 1.0, 1.0, r1, r2, (r1 + r2) / 2.0, 0


def _or_oma(noma, alpha1, alpha2, r1, r2, ee, iterations, g1, g2, s):
    """The given NOMA decisions where noma holds, the OMA fallback elsewhere."""
    _, _, _, r1_oma, r2_oma, ee_oma, _ = _oma_kernel(g1, g2, s)
    ones = 0.0 * r1_oma + 1.0  # in the pairs' shape; np.ones_like costs more on one pair
    nomas = (alpha1 * ones, alpha2, r1, r2, ee)
    return (noma, *np.where(noma, nomas, (ones, ones, r1_oma, r2_oma, ee_oma)), np.where(noma, iterations, 0))


def _sum_rate_alpha2(g1, g2, s, p1):
    """The sum-rate optimum's alpha2 at alpha1 = 1: the largest alpha2 in
    [0, 1] keeping the strong user on its floor p1 (1 for a zero floor)."""
    return np.fmax(np.fmin(_alpha2_ub(g1, g2, s, p1), 1.0), 0.0)


def _full_power_noma(g1, g2, s, alpha2):
    """NOMA decisions at alpha1 = 1 and the given alpha2."""
    r1, r2 = _noma_rates(1.0, alpha2, g1, g2, s)
    return True, 1.0, alpha2, r1, r2, (r1 + r2) / (1.0 + alpha2), 0


def _mpa_kernel(g1, g2, s, r1_min, r2_min):
    """MPA: the sum-rate optimum where the criterion holds, the weak
    user's floor fits (alpha2_lb <= 1) and the sum rate is positive (the
    rates can underflow to 0); OMA elsewhere."""
    p1, p2 = np.power(2.0, (r1_min, r2_min))
    _, alpha1, alpha2, r1, r2, ee, _ = _full_power_noma(g1, g2, s, _sum_rate_alpha2(g1, g2, s, p1))
    noma = (s >= _mpa_threshold(g1, p1, p2)) & (_alpha2_lb(g2, s, p2) <= 1.0 + EPS) & (r1 + r2 > 0.0)
    return _or_oma(noma, alpha1, alpha2, r1, r2, ee, 0, g1, g2, s)


def _srm_kernel(g1, g2, s, r1_min=None, r2_min=None):
    """SRM baseline: the sum-rate optimum for delta = 0 under OMA floors
    at delta = 0, evaluated at the true delta. Phase-oblivious by design,
    it ignores the given floors and never falls back to OMA, not even
    when every rate underflows to 0."""
    alpha2 = _sum_rate_alpha2(g1, g2, 1.0, np.power(2.0, _oma_rate(g1, 1.0)))
    return _full_power_noma(g1, g2, s, alpha2)


def allocate_mpa(
    targets: RateTargets,
    csi1: EffectiveCsi,
    csi2: EffectiveCsi,
    phase: PhaseModel,
    strong_index: int = 0,
    weak_index: int = 1,
) -> PairDecision:
    """Sum-rate-optimal allocation: alpha1=1, alpha2=min(alpha2_ub, 1),
    falling back to OMA when the pairing criterion fails.

    The criterion only guarantees alpha2_ub >= alpha2_lb; the weak user's
    floor additionally needs alpha2_lb <= 1, which the source criterion
    leaves implicit, so it is checked here to keep NOMA decisions honest.
    A NOMA sum rate of 0 (the rates underflow) also falls back to OMA.
    """
    _check_channel(csi1, phase, 1)
    _check_channel(csi2, phase, 2)
    decision = _mpa_kernel(csi1.gamma, csi2.gamma, phase.degradation, targets.r1_min, targets.r2_min)
    return PairDecision.from_kernel(decision, strong_index, weak_index)
