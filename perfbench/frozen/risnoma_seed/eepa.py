"""Energy-efficiency pairing: the conservative delta-thresholds, the
Dinkelbach solver for the pseudo-concave ratio program, and the grid
oracle used to verify it.

The constraint polytope in (alpha1, alpha2) is tiny (four linear
inequalities, two variables), so the Dinkelbach subproblem is solved by
enumerating its edges: the subtractive objective is concave and its
gradient can only vanish in the interior when Gamma1 = Gamma2, so the
maximizer sits on the boundary.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .channel import EffectiveCsi, PhaseModel, sinc_sq
from .mpa import EPS, RateTargets, alpha2_lower, eta_kappa, invert_sinc_sq

__all__ = [
    "ConvergenceError",
    "EmptyPolytopeError",
    "EepaCriterion",
    "DinkelbachResult",
    "pairing_criterion_eepa",
    "feasible_polytope",
    "polytope_vertices",
    "polytope_is_empty",
    "golden_section_max",
    "inner_maximize",
    "dinkelbach_allocate",
    "grid_oracle_ee",
    "dinkelbach_batch",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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
    if targets.r1_min == 0.0:
        th1 = 0.0
    else:
        denom = csi1.gamma / (2.0**targets.r1_min - 1.0) - csi2.gamma
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


def feasible_polytope(eta: float, kappa: float, alpha2_lb: float) -> list:
    """Constraints as (c1, c2, b) rows meaning c1*a1 + c2*a2 <= b.

    With eta, kappa, alpha2_lb >= 0 these four rows also enforce
    non-negativity of both fractions.
    """
    return [
        (-1.0, kappa, -eta),
        (0.0, -1.0, -alpha2_lb),
        (1.0, 0.0, 1.0),
        (0.0, 1.0, 1.0),
    ]


def polytope_vertices(constraints: list, tol: float = EPS) -> list:
    verts = []
    n = len(constraints)
    for i in range(n):
        a1i, a2i, bi = constraints[i]
        for j in range(i + 1, n):
            a1j, a2j, bj = constraints[j]
            det = a1i * a2j - a2i * a1j
            if abs(det) < 1e-14:
                continue
            x = (bi * a2j - a2i * bj) / det
            y = (a1i * bj - bi * a1j) / det
            if all(c1 * x + c2 * y <= b + tol for c1, c2, b in constraints):
                if not any(abs(x - vx) < 1e-12 and abs(y - vy) < 1e-12 for vx, vy in verts):
                    verts.append((x, y))
    return verts


def polytope_is_empty(constraints: list, tol: float = EPS) -> bool:
    """Exact (vertex-enumeration) nonemptiness test, the sharper
    alternative to the conservative worst-case criterion."""
    return not polytope_vertices(constraints, tol)


def golden_section_max(fn: Callable, p: tuple, q: tuple, tol: float = 1e-10) -> tuple:
    """Maximize fn over the segment p->q by golden-section search.

    Returns ((a1, a2), value); endpoints are included in the comparison.
    Degenerate (zero-length) segments collapse to a point evaluation.
    """
    length = math.hypot(q[0] - p[0], q[1] - p[1])

    def at(t):
        return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))

    if length < tol:
        return p, fn(*p)
    a, b = 0.0, 1.0
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = fn(*at(c))
    fd = fn(*at(d))
    while (b - a) * length > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(*at(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(*at(d))
    best_t = c if fc >= fd else d
    cands = [(at(best_t), max(fc, fd)), (p, fn(*p)), (q, fn(*q))]
    return max(cands, key=lambda x: x[1])


def _edges(constraints: list, verts: list, tol: float = 1e-8) -> list:
    edges = []
    for c1, c2, b in constraints:
        on = [v for v in verts if abs(c1 * v[0] + c2 * v[1] - b) <= tol]
        if len(on) < 2:
            continue
        # extreme points along the line direction (-c2, c1)
        key = lambda v: -c2 * v[0] + c1 * v[1]
        edges.append((min(on, key=key), max(on, key=key)))
    return edges


def inner_maximize(
    lam: float,
    constraints: list,
    csi1: EffectiveCsi,
    csi2: EffectiveCsi,
    phase: PhaseModel,
) -> tuple:
    """Maximize f(a) - lam*g(a) with f the pair sum rate and g the total
    power, over the constraint polytope: vertex evaluation plus
    golden-section search along every edge."""
    verts = polytope_vertices(constraints)
    if not verts:
        raise EmptyPolytopeError("no feasible power fractions")
    g1, g2, s = csi1.gamma, csi2.gamma, phase.degradation

    def obj(a1, a2):
        return math.log2(1.0 + (a1 * g1 + a2 * g2) * s) - lam * (a1 + a2)

    best_pt = max(verts, key=lambda v: obj(*v))
    best_val = obj(*best_pt)
    for p, q in _edges(constraints, verts):
        pt, val = golden_section_max(obj, p, q)
        if val > best_val:
            best_pt, best_val = pt, val
    return best_pt


def dinkelbach_allocate(
    targets: RateTargets,
    csi1: EffectiveCsi,
    csi2: EffectiveCsi,
    phase: PhaseModel,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> DinkelbachResult:
    """Dinkelbach iteration for the EE ratio program.

    lambda starts at the EE of the minimal-power feasible vertex and is
    updated to f/g at each subproblem maximizer until the subtractive
    optimum F(lambda) drops below tol.
    """
    eta, kappa = eta_kappa(targets, csi1, csi2, phase)
    lb = alpha2_lower(targets, csi2, phase)
    constraints = feasible_polytope(eta, kappa, lb)
    g1, g2, s = csi1.gamma, csi2.gamma, phase.degradation

    def f(a1, a2):
        return math.log2(1.0 + (a1 * g1 + a2 * g2) * s)

    a1_0 = min(max(eta + kappa * lb, 0.0), 1.0)
    a2_0 = lb
    power0 = a1_0 + a2_0
    lam = f(a1_0, a2_0) / power0 if power0 > 0.0 else 0.0
    history = []
    for it in range(1, max_iter + 1):
        a1, a2 = inner_maximize(lam, constraints, csi1, csi2, phase)
        fv = f(a1, a2)
        gv = a1 + a2
        resid = fv - lam * gv
        history.append((lam, resid))
        if resid <= tol:
            lam_star = fv / gv if gv > 0.0 else lam
            return DinkelbachResult(a1, a2, lam_star, it, resid, tuple(history))
        lam = fv / gv
    raise ConvergenceError(f"Dinkelbach residual {resid:.3e} > {tol:.1e} after {max_iter} iterations")


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


# ---------------------------------------------------------------------------
# Vectorized solver for system-level campaigns. Mirrors the scalar path
# exactly (same polytope geometry, golden-section edge search, Dinkelbach
# update); instances must already satisfy the EEPA pairing criterion, which
# guarantees eta + kappa <= 1 and alpha2_lb <= 1 so the polytope is the box
# {lb <= a2 <= 1, kappa*a2 + eta <= a1 <= 1}.
# ---------------------------------------------------------------------------


def _golden_edge_batch(obj, lo1, lo2, hi1, hi2, n_iter: int = 64):
    """Vectorized golden-section maximization along per-instance segments
    (lo1, lo2) -> (hi1, hi2). Returns (a1, a2, value) including endpoints."""
    a = np.zeros_like(lo1)
    b = np.ones_like(lo1)

    def at(t):
        return lo1 + t * (hi1 - lo1), lo2 + t * (hi2 - lo2)

    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = obj(*at(c))
    fd = obj(*at(d))
    for _ in range(n_iter):
        left = fc >= fd  # maximum bracketed in [a, d]
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        new_c = np.where(left, b - _INVPHI * (b - a), d)
        new_d = np.where(left, c, a + _INVPHI * (b - a))
        eval_c = obj(*at(new_c))
        eval_d = obj(*at(new_d))
        fc, fd = np.where(left, eval_c, fd), np.where(left, fc, eval_d)
        c, d = new_c, new_d
    t_best = np.where(fc >= fd, c, d)
    a1, a2 = at(t_best)
    val = obj(a1, a2)
    for t_end in (np.zeros_like(a), np.ones_like(a)):
        e1, e2 = at(t_end)
        ev = obj(e1, e2)
        take = ev > val
        a1 = np.where(take, e1, a1)
        a2 = np.where(take, e2, a2)
        val = np.where(take, ev, val)
    return a1, a2, val


def _inner_batch(lam, eta, kappa, lb, g1, g2, s):
    def obj(a1, a2):
        return np.log2(1.0 + (a1 * g1 + a2 * g2) * s) - lam * (a1 + a2)

    lo_at = lambda a2: np.clip(eta + kappa * a2, 0.0, 1.0)
    one = np.ones_like(eta)
    segments = [
        (lo_at(lb), lb, one, lb),          # a2 = lb
        (lo_at(one), one, one, one),       # a2 = 1
        (one, lb, one, one),               # a1 = 1
        (lo_at(lb), lb, lo_at(one), one),  # a1 = kappa*a2 + eta
    ]
    best = None
    for lo1, lo2, hi1, hi2 in segments:
        a1, a2, val = _golden_edge_batch(obj, lo1, lo2, hi1, hi2)
        if best is None:
            best = (a1, a2, val)
        else:
            take = val > best[2]
            best = (
                np.where(take, a1, best[0]),
                np.where(take, a2, best[1]),
                np.where(take, val, best[2]),
            )
    return best[0], best[1]


def dinkelbach_batch(
    gamma1: np.ndarray,
    gamma2: np.ndarray,
    r1_min: np.ndarray,
    r2_min: np.ndarray,
    s: float,
    tol: float = 1e-8,
    max_iter: int = 100,
):
    """Vectorized Dinkelbach over EEPA-feasible instances.

    Returns (alpha1, alpha2, lambda_star) arrays. Raises ConvergenceError
    if any instance fails to converge.
    """
    g1 = np.asarray(gamma1, dtype=float)
    g2 = np.asarray(gamma2, dtype=float)
    a = 2.0 ** np.asarray(r1_min, dtype=float) - 1.0
    eta = a / (g1 * s)
    kappa = a * g2 / g1
    lb = (2.0 ** np.asarray(r2_min, dtype=float) - 1.0) / (g2 * s)
    if np.any(eta + kappa > 1.0 + 1e-6) or np.any(lb > 1.0 + 1e-6):
        raise ValueError("dinkelbach_batch requires EEPA-feasible instances")
    lb = np.clip(lb, 0.0, 1.0)

    def f(a1, a2):
        return np.log2(1.0 + (a1 * g1 + a2 * g2) * s)

    a1_0 = np.clip(eta + kappa * lb, 0.0, 1.0)
    power0 = a1_0 + lb
    lam = np.where(power0 > 0.0, f(a1_0, lb) / np.where(power0 > 0.0, power0, 1.0), 0.0)
    a1 = a1_0.copy()
    a2 = lb.copy()
    done = np.zeros_like(lam, dtype=bool)
    for _ in range(max_iter):
        n1, n2 = _inner_batch(lam, eta, kappa, lb, g1, g2, s)
        a1 = np.where(done, a1, n1)
        a2 = np.where(done, a2, n2)
        fv = f(a1, a2)
        gv = a1 + a2
        resid = fv - lam * gv
        done = done | (resid <= tol)
        if bool(done.all()):
            lam_star = np.where(gv > 0.0, fv / np.where(gv > 0.0, gv, 1.0), lam)
            return a1, a2, lam_star
        lam = np.where(done, lam, fv / gv)
    raise ConvergenceError("batch Dinkelbach did not converge on every instance")
