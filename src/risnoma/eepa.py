"""Energy-efficiency pairing: the conservative delta-thresholds and the
Dinkelbach solver for the pseudo-concave ratio program.

Everything here works on the effective SNRs x1 = Gamma1 * s and x2 =
Gamma2 * s, s = sinc^2(delta). The feasible power fractions form the
polygon {lb <= a2 <= hi, kappa*a2 + eta <= a1 <= 1} with hi = min(1,
(1-eta)/kappa). Each Dinkelbach subproblem maximizes the concave
log2(1 + a1*x1 + a2*x2) - lam*(a1 + a2) over it. Every pair has x1 >= x2,
so moving power from the weak user to the strong one never lowers the
objective: a maximizer lies on the path a2 = lb (the weak user at its
rate floor), then a1 = 1, and along each of the two legs the maximum is
a clipped closed form (the edge step). The EE optimum itself keeps the
weak user at its floor. One array-valued Dinkelbach loop serves the
scalar solver, the batch solver and the EEPA decision. Each solve binds
the edge step's lambda-free terms (hi, the first leg's start and each
leg's offset, _edge_terms) once, before the loop, so an iteration
computes only what depends on lambda.

The pairing criterion has MPA's form (a mpa.Criterion): pair when
sinc^2(delta) reaches the larger of two conservative thresholds. The
EEPA decision is one array kernel, _eepa_kernel, which binds that
threshold, as a bound on x1, to the pairs and floors and decides at
(x1, x2). It pairs where lambda* > 0: a pair the criterion rejects is
left unsolved at 0, and a pair whose rates underflow solves to 0; the
caller's OMA decision is the fallback.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import EffectiveCsi, PhaseModel, _noma_rates
from .mpa import EPS, Criterion, RateTargets, _alpha2_lb, _check_channel, _eta_kappa

__all__ = [
    "ConvergenceError",
    "EmptyPolytopeError",
    "DinkelbachResult",
    "pairing_criterion_eepa",
    "dinkelbach_allocate",
    "dinkelbach_batch",
]

TOL = 1e-8  # Dinkelbach stops once F(lambda) <= TOL
MAX_ITER = 100


class ConvergenceError(RuntimeError):
    """Dinkelbach iteration failed to reach the residual tolerance."""


class EmptyPolytopeError(ValueError):
    """The feasible set of power fractions is empty."""


@dataclass(frozen=True)
class DinkelbachResult:
    alpha1: float
    alpha2: float
    lambda_star: float
    iterations: int
    residual: float
    # (lambda, F(lambda)) per iteration, for monotonicity checks
    history: tuple = ()


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # a zero floor: p1 - 1 = 0; subnormal Gamma2
def _eepa_thresholds(g1, g2, p1, p2):
    """EEPA's two bounds on sinc^2(delta) for floors p = 2^r_min: the
    strong user's floor at the worst case alpha2 = 1 (+inf when no delta
    meets it), and the weak user's alpha2_lb <= 1."""
    return 1.0 / np.fmax(g1 / (p1 - 1.0) - g2, 0.0), (p2 - 1.0) / g2


def pairing_criterion_eepa(
    targets: RateTargets, csi1: EffectiveCsi, csi2: EffectiveCsi, phase: PhaseModel
) -> Criterion:
    """EEPA's conservative pairing criterion at the given phase: sinc^2(delta)
    at or above the larger of its two thresholds, both independent of delta."""
    if not csi1.gamma >= csi2.gamma > 0.0:
        raise ValueError("requires Gamma1 >= Gamma2 > 0")
    p1, p2 = np.power(2.0, (targets.r1_min, targets.r2_min))
    threshold = float(max(_eepa_thresholds(csi1.gamma, csi2.gamma, p1, p2)))
    return Criterion(phase.degradation >= threshold, threshold)


def _edge_terms(x1, x2, eta, kappa, lb):
    """The edge step's lambda-free terms, bound once per solve: (hi, the
    first leg's offset, the first leg's start, the second leg's offset)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        hi = np.minimum(np.maximum(np.where(eta + kappa > 1.0, (1.0 - eta) / kappa, 1.0), lb), 1.0)
        return hi, (1.0 + lb * x2) / x1, eta + kappa * lb, (1.0 + x1) / x2


def _edge_step(lam, lb, hi, offset1, start1, offset2):
    """Maximizer (a1, a2) of log2(1 + a1*x1 + a2*x2) - lam*(a1 + a2)
    over the nonempty polygon {lb <= a2 <= hi, kappa*a2 + eta <= a1 <= 1},
    given the polygon's _edge_terms.

    With x1 >= x2 a maximizer lies on the path a2 = lb, then a1 = 1.
    Along each leg the objective is concave, with its stationary point
    at 1/(lam*ln2) minus the leg's offset: the first leg's clipped point
    is the maximizer unless it ends at a1 = 1, and then the second leg's
    is. fmax/fmin map the nan of inf - inf (lam = 0, x = 0) to a leg's start.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        peak = np.divide(1.0, lam * math.log(2.0))
        a1 = np.fmin(np.fmax(peak - offset1, start1), 1.0)
        a2 = np.fmin(np.fmax(peak - offset2, lb), hi)
    return a1, np.where(a1 == 1.0, a2, lb)


def _dinkelbach(x1, x2, r1_min, r2_min):
    """Dinkelbach iteration on arrays of instances (0-d for one pair) at
    effective SNRs x1, x2.

    lambda starts at the EE of the minimal-power vertex and is updated
    to f/g at each subproblem maximizer until the subtractive optimum
    F(lambda) drops to TOL; converged instances keep their lambda, so
    the edge step repeats their maximizer bit for bit. The edge step's
    lambda-free terms are bound once, before the loop. Returns
    (alpha1, alpha2, lambda_star, iterations, residual, history) with
    history the per-iteration (lambda, F(lambda)) arrays. The edge step
    assumes x1 >= x2, so an instance given weak user first is rejected.
    """
    if np.count_nonzero(x1 < x2):
        raise ValueError("the strong user (Gamma1 >= Gamma2) must come first")
    p1, p2 = np.power(2.0, (r1_min, r2_min))
    eta, kappa = _eta_kappa(x1, x2, p1)
    lb = _alpha2_lb(x2, p2)
    if np.count_nonzero((lb > 1.0 + EPS) | (eta + kappa * lb > 1.0 + EPS)):
        raise EmptyPolytopeError("no feasible power fractions")
    lb = np.minimum(lb, 1.0)
    hi, offset1, start1, offset2 = _edge_terms(x1, x2, eta, kappa, lb)
    del p1, p2, eta, kappa  # the loop reads lb and the bound terms only; freed, a large batch peaks no higher

    def f(a1, a2):
        return np.log2(1.0 + (a1 * x1 + a2 * x2))

    a1 = np.minimum(start1, 1.0)
    a2 = lb
    gv = a1 + a2
    with np.errstate(invalid="ignore"):  # gv = 0 only at f = 0: the ratio is nan, and lam stays
        lam = np.where(gv > 0.0, f(a1, a2) / gv, 0.0)
        done = np.zeros(lam.shape, dtype=bool)
        iterations = np.zeros(lam.shape, dtype=int)
        history = []
        for it in range(1, MAX_ITER + 1):
            a1, a2 = _edge_step(lam, lb, hi, offset1, start1, offset2)
            fv = f(a1, a2)
            gv = a1 + a2
            resid = fv - lam * gv
            history.append((lam, resid))
            iterations = np.where(done, iterations, it)
            done = done | (resid <= TOL)
            ratio = fv / gv
            if done.all():
                return a1, a2, np.where(gv > 0.0, ratio, lam), iterations, resid, history
            lam = np.where(done, lam, ratio)
    raise ConvergenceError(f"Dinkelbach residual {np.max(resid):.3e} > {TOL:.1e} after {MAX_ITER} iterations")


def dinkelbach_allocate(
    targets: RateTargets,
    csi1: EffectiveCsi,
    csi2: EffectiveCsi,
    phase: PhaseModel,
) -> DinkelbachResult:
    """Dinkelbach iteration for the EE ratio program of one pair.

    Raises EmptyPolytopeError when the rate floors admit no power
    fractions, ConvergenceError when the residual stays above TOL.
    """
    _check_channel(csi1, phase, 1)
    _check_channel(csi2, phase, 2)
    s = phase.degradation
    a1, a2, lam, iterations, resid, history = _dinkelbach(
        csi1.gamma * s, csi2.gamma * s, targets.r1_min, targets.r2_min
    )
    return DinkelbachResult(
        float(a1),
        float(a2),
        float(lam),
        int(iterations),
        float(resid),
        tuple((float(lam_k), float(f_k)) for lam_k, f_k in history),
    )


def dinkelbach_batch(x1: np.ndarray, x2: np.ndarray, r1_min: np.ndarray, r2_min: np.ndarray):
    """Vectorized Dinkelbach over a batch of instances at effective SNRs
    x1 = Gamma1 * s and x2 = Gamma2 * s, by the same iteration as
    dinkelbach_allocate. Each instance's result is independent of the
    others in the batch, bit for bit.

    Returns (alpha1, alpha2, lambda_star, iterations) arrays. Raises
    EmptyPolytopeError if any instance has no feasible power fractions
    and ConvergenceError if any instance fails to converge.
    """
    return _dinkelbach(*(np.asarray(v, dtype=float) for v in (x1, x2, r1_min, r2_min)))[:4]


def _eepa_kernel(g1, g2, r1_min, r2_min):
    """EEPA decisions, binding the criterion's threshold as a bound on x1 = Gamma1 * s:
    Dinkelbach solves the pairs meeting it, one pair on its 0-d values (masking costs more
    than its solve); NOMA where lambda* > 0. One pair the criterion rejects is not solved.
    On arrays, the floors broadcast to x's shape (for instance a row of pairs against x, a
    delta per row) and one dinkelbach_batch call solves every feasible instance."""
    with np.errstate(over="ignore"):  # a threshold no delta meets may overflow to +inf
        bound = g1 * np.maximum(*_eepa_thresholds(g1, g2, *np.power(2.0, (r1_min, r2_min))))

    def decide(x1, x2):
        feasible = x1 >= bound
        if np.ndim(feasible) == 0:
            if not feasible:
                return (False,) * 8
            alpha1, alpha2, lam, iterations = _dinkelbach(x1, x2, r1_min, r2_min)[:4]
        else:
            alpha1, alpha2, lam = np.zeros((3,) + feasible.shape)
            iterations = np.zeros(feasible.shape, dtype=int)
            if feasible.any():
                alpha1[feasible], alpha2[feasible], lam[feasible], iterations[feasible] = dinkelbach_batch(
                    *(np.broadcast_to(v, feasible.shape)[feasible] for v in (x1, x2, r1_min, r2_min))
                )
        r1, r2 = _noma_rates(alpha1, alpha2, x1, x2)
        return lam > 0.0, alpha1, alpha2, r1, r2, r1 + r2, lam, iterations

    return decide
