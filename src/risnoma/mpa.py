"""Maximum-sum-rate pairing: power-fraction bounds, the pairing criterion
on phase imperfection, the closed-form allocation, and the KKT candidate
enumeration used to verify optimality."""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .channel import EffectiveCsi, PhaseModel, RatePair, ee, rate_noma, rate_oma, sinc_sq

__all__ = [
    "EPS",
    "PolicyKind",
    "TargetPolicy",
    "RateTargets",
    "Mode",
    "PairDecision",
    "MpaBounds",
    "MpaCriterion",
    "alpha2_lower",
    "alpha2_upper",
    "eta_kappa",
    "invert_sinc_sq",
    "pairing_criterion_mpa",
    "mpa_bounds",
    "oma_decision",
    "allocate_mpa",
    "kkt_candidates",
    "best_kkt_candidate",
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

    @classmethod
    def oma_at_reference(cls, delta_ref: float = 0.0) -> "TargetPolicy":
        return cls(PolicyKind.OMA_AT_REFERENCE, delta_ref=delta_ref)

    @classmethod
    def oma_at_current(cls) -> "TargetPolicy":
        return cls(PolicyKind.OMA_AT_CURRENT)

    @classmethod
    def explicit(cls, r1_min: float, r2_min: float) -> "TargetPolicy":
        return cls(PolicyKind.EXPLICIT, r1_min=r1_min, r2_min=r2_min)

    def resolve(self, csi1: EffectiveCsi, csi2: EffectiveCsi, phase: PhaseModel) -> "RateTargets":
        if self.kind is PolicyKind.OMA_AT_REFERENCE:
            ref = PhaseModel(self.delta_ref)
            return RateTargets(rate_oma(csi1, ref), rate_oma(csi2, ref), self)
        if self.kind is PolicyKind.OMA_AT_CURRENT:
            return RateTargets(rate_oma(csi1, phase), rate_oma(csi2, phase), self)
        return RateTargets(self.r1_min, self.r2_min, self)


@dataclass(frozen=True)
class RateTargets:
    """Minimum required rates for the strong and weak user."""

    r1_min: float
    r2_min: float
    policy: Optional[TargetPolicy] = None

    def __post_init__(self):
        if self.r1_min < 0 or self.r2_min < 0:
            raise ValueError("rate targets must be non-negative")


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


@dataclass(frozen=True)
class MpaBounds:
    alpha2_lb: float
    alpha2_ub: float
    eta: float
    kappa: float
    sinc_sq_threshold: float
    delta_ub: Optional[float]


@dataclass(frozen=True)
class MpaCriterion:
    feasible: bool
    sinc_sq_threshold: float
    delta_ub: Optional[float]


def alpha2_lower(targets: RateTargets, csi2: EffectiveCsi, phase: PhaseModel) -> float:
    """Smallest weak-user power fraction meeting its rate floor; may
    exceed 1, which signals infeasibility handled by the caller."""
    num = 2.0**targets.r2_min - 1.0
    if num == 0.0:
        return 0.0
    g2s = csi2.gamma * phase.degradation
    if g2s <= 0.0:
        raise ValueError("degenerate channel: Gamma2 * sinc^2 = 0 with a positive rate target")
    return num / g2s


def alpha2_upper(
    targets: RateTargets, csi1: EffectiveCsi, csi2: EffectiveCsi, phase: PhaseModel
) -> float:
    """Largest weak-user power fraction that keeps the strong user (at
    alpha1=1) at or above its rate floor. Unbounded when r1_min=0; may be
    negative (pair infeasible) or exceed 1 (clamped by the allocation)."""
    pow1 = 2.0**targets.r1_min
    if pow1 == 1.0:  # a zero floor, or one below float resolution
        return math.inf
    s = phase.degradation
    g2s = csi2.gamma * s
    if g2s <= 0.0:
        raise ValueError("degenerate channel: Gamma2 * sinc^2 = 0")
    return (csi1.gamma * s + 1.0 - pow1) / (g2s * (pow1 - 1.0))


def eta_kappa(
    targets: RateTargets, csi1: EffectiveCsi, csi2: EffectiveCsi, phase: PhaseModel
) -> tuple:
    """Coefficients of the strong-user constraint alpha1 >= kappa*alpha2 + eta."""
    a = 2.0**targets.r1_min - 1.0
    g1s = csi1.gamma * phase.degradation
    if g1s <= 0.0 and a > 0.0:
        raise ValueError("degenerate channel: Gamma1 * sinc^2 = 0 with a positive rate target")
    eta = a / g1s if a > 0.0 else 0.0
    kappa = a * csi2.gamma / csi1.gamma if a > 0.0 else 0.0
    return eta, kappa


def invert_sinc_sq(target: float, tol: float = 1e-10, max_iter: int = 200) -> float:
    """Unique root of sinc^2(x) = target on (0, pi), by bisection on the
    strictly decreasing sinc^2."""
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must lie in (0, 1), got {target}")
    lo, hi = 0.0, math.pi
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if sinc_sq(mid) >= target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


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
    threshold = 2.0**targets.r2_min * (2.0**targets.r1_min - 1.0) / csi1.gamma
    if threshold <= 0.0:
        return MpaCriterion(True, threshold, None)
    if threshold > 1.0:
        return MpaCriterion(False, threshold, None)
    delta_ub = 0.0 if threshold == 1.0 else invert_sinc_sq(threshold)
    return MpaCriterion(phase.degradation >= threshold, threshold, delta_ub)


def mpa_bounds(
    targets: RateTargets, csi1: EffectiveCsi, csi2: EffectiveCsi, phase: PhaseModel
) -> MpaBounds:
    crit = pairing_criterion_mpa(targets, csi1, phase)
    eta, kappa = eta_kappa(targets, csi1, csi2, phase)
    return MpaBounds(
        alpha2_lb=alpha2_lower(targets, csi2, phase),
        alpha2_ub=alpha2_upper(targets, csi1, csi2, phase),
        eta=eta,
        kappa=kappa,
        sinc_sq_threshold=crit.sinc_sq_threshold,
        delta_ub=crit.delta_ub,
    )


def oma_decision(
    csi1: EffectiveCsi,
    csi2: EffectiveCsi,
    phase: PhaseModel,
    strong_index: int = 0,
    weak_index: int = 1,
) -> PairDecision:
    """Fallback decision: both users on orthogonal resources at full power."""
    rates = RatePair(rate_oma(csi1, phase), rate_oma(csi2, phase))
    total = rates.strong + rates.weak
    return PairDecision(Mode.OMA, 1.0, 1.0, rates, total, total / 2.0, strong_index, weak_index)


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
    crit = pairing_criterion_mpa(targets, csi1, phase)
    if not crit.feasible:
        return oma_decision(csi1, csi2, phase, strong_index, weak_index)
    lb = alpha2_lower(targets, csi2, phase)
    if lb > 1.0 + EPS:
        return oma_decision(csi1, csi2, phase, strong_index, weak_index)
    a2 = min(alpha2_upper(targets, csi1, csi2, phase), 1.0)
    a2 = min(max(a2, 0.0), 1.0)
    rates = rate_noma(1.0, a2, csi1, csi2, phase)
    if rates.strong + rates.weak <= 0.0:
        return oma_decision(csi1, csi2, phase, strong_index, weak_index)
    return PairDecision(
        Mode.NOMA,
        1.0,
        a2,
        rates,
        rates.strong + rates.weak,
        ee(rates, 1.0, a2),
        strong_index,
        weak_index,
    )


def kkt_candidates(eta: float, kappa: float, alpha2_lb: float) -> list:
    """Stationary-point candidates of the reformulated sum-rate program,
    filtered to those satisfying the constraint set (tolerance EPS)."""
    cands = [
        (alpha2_lb * kappa + eta, alpha2_lb),
        (kappa + eta, 1.0),
        (1.0, 1.0),
        (1.0, alpha2_lb),
    ]
    if kappa > 0.0:
        cands.append((1.0, (1.0 - eta) / kappa))

    def ok(a1, a2):
        return (
            -EPS <= a1 <= 1.0 + EPS
            and -EPS <= a2 <= 1.0 + EPS
            and a2 >= alpha2_lb - EPS
            and a1 >= kappa * a2 + eta - EPS
        )

    return [c for c in cands if ok(*c)]


def best_kkt_candidate(candidates: list, csi1: EffectiveCsi, csi2: EffectiveCsi) -> tuple:
    """Candidate maximizing alpha1*Gamma1 + alpha2*Gamma2; ties broken
    toward the smaller total power."""
    if not candidates:
        raise ValueError("empty candidate set")
    best_obj = max(a1 * csi1.gamma + a2 * csi2.gamma for a1, a2 in candidates)
    tied = [c for c in candidates if c[0] * csi1.gamma + c[1] * csi2.gamma >= best_obj - 1e-12]
    return min(tied, key=lambda c: c[0] + c[1])
