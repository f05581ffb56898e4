"""Maximum-sum-rate pairing: power-fraction bounds, the pairing criterion
on phase imperfection, and the closed-form allocation.

Each bound and threshold is one numpy formula on floats or arrays of the
effective SNRs x = Gamma * sinc^2(delta); the OMA, MPA and SRM decisions
are each one array kernel, bound to the pairs and floors and then decided
at (x1, x2) (see pairing.KERNELS), with the OMA fallback applied in
_or_oma. The object-based functions (alpha2_lower, alpha2_upper,
eta_kappa, pairing_criterion_mpa and allocate_mpa) validate one pair and
evaluate the same formulas and kernels on it; the CLI's tables and the
campaign call the formulas and kernels on arrays directly.

Both pairing rules, MPA's here and EEPA's (eepa.pairing_criterion_eepa),
pair when sinc^2(delta) reaches a threshold; each returns a Criterion,
whose delta_ub is the largest delta meeting it. The kernels test it on
x1 = Gamma1 * sinc^2(delta).
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
    "Criterion",
    "alpha2_lower",
    "alpha2_upper",
    "eta_kappa",
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

    kind: PolicyKind = PolicyKind.OMA_AT_REFERENCE
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
        return _oma_rate(g1 * s), _oma_rate(g2 * s)

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
    iterations: Optional[int] = None  # Dinkelbach iterations, EEPA NOMA only

    @classmethod
    def from_kernel(cls, kernel, targets: RateTargets, csi1: EffectiveCsi, csi2: EffectiveCsi,
                    phase: PhaseModel) -> "PairDecision":
        """One pair's decision by a scheme's kernel, bound to the pair and
        its floors and decided at its effective SNRs; the OMA decision is
        computed only when it is the fallback. 0 iterations (no solve)
        read as None. The kernels assume Gamma1 >= Gamma2, so a pair given
        weak user first is rejected."""
        if csi1.gamma < csi2.gamma:
            raise ValueError("the strong user (Gamma1 >= Gamma2) must come first")
        g1, g2, s = float(csi1.gamma), float(csi2.gamma), phase.degradation
        x1, x2 = g1 * s, g2 * s
        decision = kernel(g1, g2, targets.r1_min, targets.r2_min)(x1, x2)
        noma, alpha1, alpha2, r1, r2, asr, ee, iterations = decision if decision[0] else _oma(x1, x2)
        return cls(Mode.NOMA if noma else Mode.OMA, float(alpha1), float(alpha2), RatePair(float(r1), float(r2)),
                   float(asr), float(ee), int(iterations) or None)


@dataclass(frozen=True)
class Criterion:
    """A pairing criterion evaluated at one phase: pair when
    sinc^2(delta) >= sinc_sq_threshold."""

    feasible: bool
    sinc_sq_threshold: float

    @property
    def delta_ub(self) -> Optional[float]:  # computed on reading: decisions need only the threshold
        return _delta_ub(self.sinc_sq_threshold)


# Formulas on floats or arrays of effective SNRs x = Gamma * s. They take
# the rate floors as p = 2^r_min, the form every bound uses them in.


@np.errstate(over="ignore")  # subnormal x2: +inf
def _alpha2_lb(x2, p2):
    """Smallest weak-user power fraction meeting its floor."""
    return (p2 - 1.0) / x2


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # p1 = 1: +inf or nan; subnormal x2: +inf
def _alpha2_ub(x1, x2, p1):
    """Largest weak-user power fraction keeping the strong user, at
    alpha1 = 1, on its floor; unbounded (+inf) for a zero floor, or one
    below float resolution (p1 = 1)."""
    return np.where(p1 == 1.0, np.inf, (x1 + 1.0 - p1) / (x2 * (p1 - 1.0)))


def _eta_kappa(x1, x2, p1):
    """Coefficients of the strong-user constraint alpha1 >= kappa*alpha2 + eta."""
    return (p1 - 1.0) / x1, (p1 - 1.0) * x2 / x1


@np.errstate(over="ignore")  # floors near 1024 bits: +inf, which no sinc^2 meets
def _mpa_threshold(g1, p1, p2):
    """The MPA criterion's bound on sinc^2(delta); at Gamma1 = 1, exactly
    its bound p2 * (p1 - 1) on x1."""
    return p2 * (p1 - 1.0) / g1


def _check_channel(csi: EffectiveCsi, phase: PhaseModel, user: int) -> None:
    if not csi.gamma * phase.degradation > 0.0:
        raise ValueError(f"degenerate channel: Gamma{user} * sinc^2 = 0")


def alpha2_lower(targets: RateTargets, csi2: EffectiveCsi, phase: PhaseModel) -> float:
    """Smallest weak-user power fraction meeting its rate floor; may
    exceed 1, which signals infeasibility handled by the caller."""
    _check_channel(csi2, phase, 2)
    return float(_alpha2_lb(csi2.gamma * phase.degradation, np.power(2.0, targets.r2_min)))


def alpha2_upper(
    targets: RateTargets, csi1: EffectiveCsi, csi2: EffectiveCsi, phase: PhaseModel
) -> float:
    """Largest weak-user power fraction that keeps the strong user (at
    alpha1=1) at or above its rate floor. Unbounded when r1_min=0; may be
    negative (pair infeasible) or exceed 1 (clamped by the allocation)."""
    _check_channel(csi2, phase, 2)
    s = phase.degradation
    return float(_alpha2_ub(csi1.gamma * s, csi2.gamma * s, np.power(2.0, targets.r1_min)))


def eta_kappa(
    targets: RateTargets, csi1: EffectiveCsi, csi2: EffectiveCsi, phase: PhaseModel
) -> tuple:
    """Coefficients of the strong-user constraint alpha1 >= kappa*alpha2 + eta."""
    _check_channel(csi1, phase, 1)
    s = phase.degradation
    return tuple(map(float, _eta_kappa(csi1.gamma * s, csi2.gamma * s, np.power(2.0, targets.r1_min))))


def _delta_ub(threshold: float) -> Optional[float]:
    """Largest delta with sinc^2(delta) >= threshold; None when every
    delta passes (threshold <= 0) or none does (threshold > 1).

    Newton's method on sin(delta)/delta = sqrt(threshold), strictly
    decreasing on (0, pi), from a lower bound on the root (sin(d)/d is at
    least 1 - d^2/6 and 1 - d/pi), to a step below 1e-12. Each iterate
    narrows a bracket [lo, hi] of the root, and a step leaving it bisects
    it instead; near delta = 0, where rounding in sin(delta)/delta can
    flip the sign of the residual from step to step, the search ends at a
    bracket below 1e-10. hi starts at the largest float below pi, so
    delta stays in sinc_sq's domain, and sinc is computed inline.
    """
    if not 0.0 < threshold <= 1.0:
        return None
    if threshold == 1.0:
        return 0.0
    root = math.sqrt(threshold)
    lo, hi = 0.0, math.nextafter(math.pi, 0.0)
    delta = min(max(math.sqrt(6.0 * (1.0 - root)), math.pi * (1.0 - root)), hi)
    while hi - lo >= 1e-10:
        sin = math.sin(delta)
        f = sin / delta - root
        if f > 0.0:
            lo = delta
        else:
            hi = delta
        step = f * delta / (math.cos(delta) - sin / delta)  # f / f'
        if abs(step) < 1e-12:
            return min(max(delta - step, lo), hi)
        delta = delta - step if lo < delta - step < hi else 0.5 * (lo + hi)
    return delta


def pairing_criterion_mpa(
    targets: RateTargets, csi1: EffectiveCsi, phase: PhaseModel
) -> Criterion:
    """MPA's pairing criterion at the given phase: sinc^2(delta) >=
    2^r2min * (2^r1min - 1) / Gamma1."""
    if csi1.gamma <= 0.0:
        raise ValueError("Gamma1 must be positive")
    p1, p2 = np.power(2.0, (targets.r1_min, targets.r2_min))
    threshold = float(_mpa_threshold(csi1.gamma, p1, p2))
    return Criterion(phase.degradation >= threshold, threshold)


def _oma(x1, x2):
    """The OMA decisions (noma, alpha1, alpha2, r1, r2, asr, ee,
    iterations) at effective SNRs x1, x2: both users at full power on
    orthogonal resources."""
    r1, r2 = _oma_rate(x1), _oma_rate(x2)
    asr = r1 + r2
    return False, 1.0, 1.0, r1, r2, asr, asr / 2.0, 0


def _oma_kernel(g1, g2, r1_min=None, r2_min=None):
    """OMA, whatever the floors: no pair takes NOMA, so every output is
    the caller's OMA decision."""
    return lambda x1, x2: (False,) * 8


def _or_oma(noma, nomas, omas):
    """The outputs nomas where noma holds, the OMA outputs omas elsewhere.

    A shape-() noma picks one tuple. On arrays the OMA values are copied
    into each NOMA array where noma fails, in place; an output a kernel
    gives as one value (MPA's alpha1 = 1 and 0 iterations) is the same
    on both branches and is left as it is."""
    if np.ndim(noma) == 0:
        return tuple(nomas if noma else omas)
    oma = ~noma
    for x, y in zip(nomas, omas):
        if np.ndim(x):
            np.copyto(x, y, where=oma)
    return tuple(nomas)


def _sum_rate_alpha2(x1, x2, p1):
    """The sum-rate optimum's alpha2 at alpha1 = 1: the largest alpha2 in
    [0, 1] keeping the strong user on its floor p1 (1 for a zero floor)."""
    alpha2 = _alpha2_ub(x1, x2, p1)
    return np.fmax(np.fmin(alpha2, 1.0, out=alpha2), 0.0, out=alpha2)


def _full_power_noma(x1, x2, alpha2):
    """NOMA decisions at alpha1 = 1 and the given alpha2."""
    r1, r2 = _noma_rates(1.0, alpha2, x1, x2)
    asr = r1 + r2
    return True, 1.0, alpha2, r1, r2, asr, asr / (1.0 + alpha2), 0


def _mpa_kernel(g1, g2, r1_min, r2_min):
    """MPA: the sum-rate optimum where the criterion holds (x1 >=
    p2 * (p1 - 1)), the weak user's floor fits (alpha2_lb <= 1) and the
    sum rate is positive (the rates can underflow to 0). Binds 2^floors
    and the criterion's bound."""
    p1, p2 = np.power(2.0, (r1_min, r2_min))
    bound = _mpa_threshold(1.0, p1, p2)

    def decide(x1, x2):
        _, alpha1, alpha2, r1, r2, asr, ee, _ = _full_power_noma(x1, x2, _sum_rate_alpha2(x1, x2, p1))
        noma = (x1 >= bound) & (_alpha2_lb(x2, p2) <= 1.0 + EPS) & (asr > 0.0)
        return noma, alpha1, alpha2, r1, r2, asr, ee, 0

    return decide


def _srm_kernel(g1, g2, r1_min=None, r2_min=None):
    """SRM baseline: the sum-rate optimum for delta = 0 under OMA floors
    at delta = 0 (x = Gamma), evaluated at the true delta. Phase-oblivious
    by design, it ignores the given floors and never falls back to OMA,
    not even when every rate underflows to 0. Binds the whole allocation."""
    alpha2 = _sum_rate_alpha2(g1, g2, np.power(2.0, _oma_rate(g1)))
    return lambda x1, x2: _full_power_noma(x1, x2, alpha2)


def allocate_mpa(
    targets: RateTargets,
    csi1: EffectiveCsi,
    csi2: EffectiveCsi,
    phase: PhaseModel,
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
    return PairDecision.from_kernel(_mpa_kernel, targets, csi1, csi2, phase)
