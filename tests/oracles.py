"""Brute-force and enumeration references for the allocation tests:
the EE grid oracle behind the Dinkelbach checks and the KKT candidate
enumeration behind the MPA optimality checks."""

import numpy as np

from risnoma.channel import EffectiveCsi, PhaseModel
from risnoma.eepa import EmptyPolytopeError
from risnoma.mpa import EPS, RateTargets, alpha2_lower, eta_kappa


def grid_oracle_ee(
    targets: RateTargets,
    csi1: EffectiveCsi,
    csi2: EffectiveCsi,
    phase: PhaseModel,
    step: float = 1e-3,
) -> tuple:
    """Exhaustive grid search maximizing EE over the feasible set.

    Test-only brute-force reference for the Dinkelbach solver. The mesh
    is augmented with the exact constraint-boundary values (the
    alpha2-lower-bound row and the strong-user line alpha1 =
    kappa*alpha2 + eta), since the EE optimum typically sits on the
    boundary where a bare cell grid under-reports it by O(step).
    """
    if not 0.0 < step <= 0.1:
        raise ValueError("step must lie in (0, 0.1]")
    eta, kappa = eta_kappa(targets, csi1, csi2, phase)
    lb = alpha2_lower(targets, csi2, phase)
    g1, g2, s = csi1.gamma, csi2.gamma, phase.degradation
    n = round(1.0 / step)
    grid = np.linspace(0.0, 1.0, n + 1)
    a2_vals = grid if lb > 1.0 else np.unique(np.concatenate([grid, [lb]]))
    a1_edge = np.clip(kappa * a2_vals + eta, 0.0, 1.0)
    a1 = np.concatenate([np.repeat(grid, a2_vals.size), a1_edge])
    a2 = np.concatenate([np.tile(a2_vals, grid.size), a2_vals])
    feas = (a1 >= kappa * a2 + eta - EPS) & (a2 >= lb - EPS) & (kappa * a2 + eta <= 1.0 + EPS)
    total = a1 + a2
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.log2(1.0 + (a1 * g1 + a2 * g2) * s) / total
    val = np.where(feas & (total > 0.0), val, -np.inf)
    if not np.any(np.isfinite(val)):
        raise EmptyPolytopeError("no feasible grid point")
    k = int(np.argmax(val))
    return float(a1[k]), float(a2[k]), float(val[k])


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
