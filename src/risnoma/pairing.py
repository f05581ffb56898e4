"""Adaptive user pairing over a cell population: sort by effective CSI,
pair strongest with weakest, dispatch each pair to the selected
allocation scheme with OMA fallback, plus the phase-oblivious SRM
baseline."""

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from .channel import EffectiveCsi, PhaseModel, ee, rate_noma
from .eepa import dinkelbach_allocate, pairing_criterion_eepa
from .mpa import (
    Mode,
    PairDecision,
    TargetPolicy,
    allocate_mpa,
    alpha2_upper,
    oma_decision,
)

__all__ = ["Scheme", "UserRecord", "PairingPlan", "build_pairs", "run_scheme", "srm_baseline"]

_REF_PHASE = PhaseModel(0.0)


class Scheme(Enum):
    MPA = "mpa"
    EEPA = "eepa"
    SRM = "srm"
    OMA = "oma"


@dataclass(frozen=True)
class UserRecord:
    id: int
    csi: EffectiveCsi


@dataclass(frozen=True)
class PairingPlan:
    decisions: Tuple[PairDecision, ...]
    unpaired: Optional[UserRecord]
    scheme: Scheme


def build_pairs(users: List[UserRecord]):
    """Sort by CSI descending (ties by id) and pair first with last.

    Odd populations leave the median user unpaired; it is served in OMA
    by the caller. Returns (pairs, unpaired).
    """
    if len(users) < 2:
        raise ValueError("pairing requires at least two users")
    ordered = sorted(users, key=lambda u: (-u.csi.gamma, u.id))
    half = len(ordered) // 2
    pairs = [(ordered[i], ordered[len(ordered) - 1 - i]) for i in range(half)]
    unpaired = ordered[half] if len(ordered) % 2 else None
    return pairs, unpaired


def _decide_mpa(strong, weak, phase, policy):
    targets = policy.resolve(strong.csi, weak.csi, phase)
    return allocate_mpa(targets, strong.csi, weak.csi, phase, strong.id, weak.id)


def _decide_eepa(strong, weak, phase, policy):
    targets = policy.resolve(strong.csi, weak.csi, phase)
    crit = pairing_criterion_eepa(targets, strong.csi, weak.csi, phase)
    if not crit.feasible_at(phase.delta):
        return oma_decision(strong.csi, weak.csi, phase, strong.id, weak.id)
    res = dinkelbach_allocate(targets, strong.csi, weak.csi, phase)
    if res.lambda_star <= 0.0:  # rates underflow to 0: no EE to gain from NOMA
        return oma_decision(strong.csi, weak.csi, phase, strong.id, weak.id)
    rates = rate_noma(res.alpha1, res.alpha2, strong.csi, weak.csi, phase)
    return PairDecision(
        Mode.NOMA,
        res.alpha1,
        res.alpha2,
        rates,
        rates.strong + rates.weak,
        res.lambda_star,
        strong.id,
        weak.id,
        res.iterations,
    )


def _decide_srm(strong, weak, phase):
    # phase-oblivious: allocation chosen as if delta were zero, rates
    # evaluated at the true delta, never falling back to OMA, by design:
    # not even when every rate underflows to 0, where MPA and EEPA do
    targets = TargetPolicy.oma_at_reference(0.0).resolve(strong.csi, weak.csi, _REF_PHASE)
    a2 = min(alpha2_upper(targets, strong.csi, weak.csi, _REF_PHASE), 1.0)
    rates = rate_noma(1.0, a2, strong.csi, weak.csi, phase)
    return PairDecision(
        Mode.NOMA,
        1.0,
        a2,
        rates,
        rates.strong + rates.weak,
        ee(rates, 1.0, a2),
        strong.id,
        weak.id,
    )


def run_scheme(
    users: List[UserRecord],
    scheme: Scheme,
    phase: PhaseModel,
    targets_policy: Optional[TargetPolicy] = None,
) -> PairingPlan:
    """Build pairs and decide each one under the given scheme."""
    policy = targets_policy or TargetPolicy.oma_at_reference(0.0)
    pairs, unpaired = build_pairs(users)
    decisions = []
    for strong, weak in pairs:
        if scheme is Scheme.OMA:
            d = oma_decision(strong.csi, weak.csi, phase, strong.id, weak.id)
        elif scheme is Scheme.MPA:
            d = _decide_mpa(strong, weak, phase, policy)
        elif scheme is Scheme.EEPA:
            d = _decide_eepa(strong, weak, phase, policy)
        elif scheme is Scheme.SRM:
            d = _decide_srm(strong, weak, phase)
        else:
            raise ValueError(f"unknown scheme {scheme}")
        decisions.append(d)
    return PairingPlan(tuple(decisions), unpaired, scheme)


def srm_baseline(users: List[UserRecord], phase: PhaseModel) -> PairingPlan:
    """Sum-rate-maximization baseline: perfect-phase MPA allocation
    evaluated at the true phase error."""
    return run_scheme(users, Scheme.SRM, phase)
