"""Energy-efficiency pairing: the conservative delta-thresholds, the
Dinkelbach solver for the pseudo-concave ratio program, and the grid
oracle used to verify it.

The feasible power fractions form the polygon
{lb <= a2 <= hi, kappa*a2 + eta <= a1 <= 1} with hi = min(1, (1-eta)/kappa).
Each Dinkelbach subproblem maximizes the concave log2(1 + (a1*G1 +
a2*G2)*s) - lam*(a1 + a2) over it. Its gradient can only vanish in the
interior when Gamma1 = Gamma2, so a maximizer sits on one of the four
edges, and along each edge the maximum has a closed form (the edge
step). One array-valued Dinkelbach loop serves both the scalar solver
(on 0-d arrays) and the batch solver of system-level campaigns.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import EffectiveCsi, PhaseModel, sinc_sq
from .mpa import EPS, RateTargets, alpha2_lower, eta_kappa, invert_sinc_sq

__all__ = [
    "ConvergenceError",
    "EmptyPolytopeError",
    "EepaCriterion",
    "DinkelbachResult",
    "pairing_criterion_eepa",
    "dinkelbach_allocate",
    "grid_oracle_ee",
    "dinkelbach_batch",
]


class ConvergenceError(RuntimeError):
    """Dinkelbach iteration failed to reach the residual tolerance."""


class EmptyPolytopeError(ValueError):
    """The feasible set of power fractions is empty."""


@dataclass(frozen=True)
class EepaCriterion:
    """Conservative pairing criterion: two sinc^2 thresholds, one from
    the worst-case alpha2=1 strong-user bound and one from the weak
    user's lower bound fitting inside [0, 1]."""

    sinc_sq_threshold_1: float
    sinc_sq_threshold_2: float
    delta_ub: Optional[float]

    @property
    def sinc_sq_threshold(self) -> float:
        return max(self.sinc_sq_threshold_1, self.sinc_sq_threshold_2)

    def feasible_at(self, delta: float) -> bool:
        return sinc_sq(delta) >= self.sinc_sq_threshold


@dataclass(frozen=True)
class DinkelbachResult:
    alpha1: float
    alpha2: float
    lambda_star: float
    iterations: int
    residual: float
    # (lambda, F(lambda)) per iteration, for monotonicity checks
    history: tuple = ()


def pairing_criterion_eepa(
    targets: RateTargets, csi1: EffectiveCsi, csi2: EffectiveCsi, phase: PhaseModel
) -> EepaCriterion:
    """Both thresholds are independent of delta; feasibility at a given
    delta compares its sinc^2 against their maximum."""
    if not csi1.gamma >= csi2.gamma > 0.0:
        raise ValueError("requires Gamma1 >= Gamma2 > 0")
    a = 2.0**targets.r1_min - 1.0
    if a == 0.0:  # a zero floor, or one below float resolution
        th1 = 0.0
    else:
        denom = csi1.gamma / a - csi2.gamma
        th1 = 1.0 / denom if denom > 0.0 else math.inf
    th2 = (2.0**targets.r2_min - 1.0) / csi2.gamma
    threshold = max(th1, th2)
    if threshold <= 0.0 or threshold > 1.0:
        delta_ub = None
    elif threshold == 1.0:
        delta_ub = 0.0
    else:
        delta_ub = invert_sinc_sq(threshold)
    return EepaCriterion(th1, th2, delta_ub)


def _edge_step(lam, g1, g2, s, eta, kappa, lb):
    """Maximizer (a1, a2) of log2(1 + (a1*g1 + a2*g2)*s) - lam*(a1 + a2)
    over the nonempty polygon {lb <= a2 <= hi, kappa*a2 + eta <= a1 <= 1}.

    Rows of the (4, ...) stacks are the edges a2 = lb, a2 = hi, a1 = 1
    and a1 = kappa*a2 + eta, each walked from P0 to P1 with both
    fractions non-decreasing. Along a row the objective reads
    log2(a + b*t) - lam*(C + D*t) with b, D >= 0, so its maximum on
    [0, 1] is the clipped stationary point 1/(lam*D*ln2) - a/b, or t = 1
    when lam*D <= 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        hi = np.clip(np.where(eta + kappa > 1.0, (1.0 - eta) / kappa, 1.0), lb, 1.0)
    lo_lb = np.minimum(eta + kappa * lb, 1.0)
    lo_hi = np.minimum(eta + kappa * hi, 1.0)
    one = np.ones_like(lo_lb)
    p1 = np.stack([lo_lb, lo_hi, one, lo_lb])
    p2 = np.stack([lb, hi, lb, lb])
    d1 = np.stack([one, one, one, lo_hi]) - p1
    d2 = np.stack([lb, hi, hi, hi]) - p2
    a = 1.0 + (p1 * g1 + p2 * g2) * s
    b = (d1 * g1 + d2 * g2) * s
    c = lam * (d1 + d2) * math.log(2.0)
    with np.errstate(all="ignore"):
        t = np.where(c > 0.0, 1.0 / c - a / b, 1.0)
    t = np.fmin(np.fmax(t, 0.0), 1.0)  # also maps inf - inf (b = 0, tiny c) to t = 0
    a1 = p1 + t * d1
    a2 = p2 + t * d2
    val = np.log2(1.0 + (a1 * g1 + a2 * g2) * s) - lam * (a1 + a2)
    k = np.argmax(val, axis=0, keepdims=True)
    return np.take_along_axis(a1, k, 0)[0], np.take_along_axis(a2, k, 0)[0]


def _dinkelbach(g1, g2, s, eta, kappa, lb, tol, max_iter):
    """Dinkelbach iteration on arrays of instances (0-d for one pair).

    lambda starts at the EE of the minimal-power vertex and is updated
    to f/g at each subproblem maximizer until the subtractive optimum
    F(lambda) drops below tol; converged instances are frozen. Returns
    (alpha1, alpha2, lambda_star, iterations, residual, history) with
    history the per-iteration (lambda, F(lambda)) arrays.
    """
    if np.any(lb > 1.0 + EPS) or np.any(eta + kappa * lb > 1.0 + EPS):
        raise EmptyPolytopeError("no feasible power fractions")
    lb = np.minimum(lb, 1.0)

    def f(a1, a2):
        return np.log2(1.0 + (a1 * g1 + a2 * g2) * s)

    a1 = np.minimum(eta + kappa * lb, 1.0)
    a2 = lb
    gv = a1 + a2
    with np.errstate(invalid="ignore"):
        lam = np.where(gv > 0.0, f(a1, a2) / gv, 0.0)
    done = np.zeros(lam.shape, dtype=bool)
    iterations = np.zeros(lam.shape, dtype=int)
    history = []
    for it in range(1, max_iter + 1):
        n1, n2 = _edge_step(lam, g1, g2, s, eta, kappa, lb)
        a1 = np.where(done, a1, n1)
        a2 = np.where(done, a2, n2)
        fv = f(a1, a2)
        gv = a1 + a2
        resid = fv - lam * gv
        history.append((lam, resid))
        iterations = np.where(done, iterations, it)
        done = done | (resid <= tol)
        with np.errstate(invalid="ignore"):
            ratio = fv / gv  # gv = 0 only at f = 0, where resid = 0 and lam stays
        if done.all():
            return a1, a2, np.where(gv > 0.0, ratio, lam), iterations, resid, history
        lam = np.where(done, lam, ratio)
    raise ConvergenceError(f"Dinkelbach residual {np.max(resid):.3e} > {tol:.1e} after {max_iter} iterations")


def dinkelbach_allocate(
    targets: RateTargets,
    csi1: EffectiveCsi,
    csi2: EffectiveCsi,
    phase: PhaseModel,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> DinkelbachResult:
    """Dinkelbach iteration for the EE ratio program of one pair.

    Raises EmptyPolytopeError when the rate floors admit no power
    fractions, ConvergenceError when the residual stays above tol.
    """
    eta, kappa = np.array(eta_kappa(targets, csi1, csi2, phase))  # numpy floats: kappa may be 0
    lb = alpha2_lower(targets, csi2, phase)
    a1, a2, lam, iterations, resid, history = _dinkelbach(
        csi1.gamma, csi2.gamma, phase.degradation, eta, kappa, lb, tol, max_iter
    )
    return DinkelbachResult(
        float(a1),
        float(a2),
        float(lam),
        int(iterations),
        float(resid),
        tuple((float(lam_k), float(f_k)) for lam_k, f_k in history),
    )


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


def dinkelbach_batch(
    gamma1: np.ndarray,
    gamma2: np.ndarray,
    r1_min: np.ndarray,
    r2_min: np.ndarray,
    s: float,
    tol: float = 1e-8,
    max_iter: int = 100,
):
    """Vectorized Dinkelbach over the instances of one degradation s,
    by the same iteration as dinkelbach_allocate.

    Returns (alpha1, alpha2, lambda_star) arrays. Raises
    EmptyPolytopeError if any instance has no feasible power fractions
    and ConvergenceError if any instance fails to converge.
    """
    g1 = np.asarray(gamma1, dtype=float)
    g2 = np.asarray(gamma2, dtype=float)
    a = 2.0 ** np.asarray(r1_min, dtype=float) - 1.0
    lb = (2.0 ** np.asarray(r2_min, dtype=float) - 1.0) / (g2 * s)
    a1, a2, lam, *_ = _dinkelbach(g1, g2, s, a / (g1 * s), a * g2 / g1, lb, tol, max_iter)
    return a1, a2, lam
