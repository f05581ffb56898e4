"""Energy-efficiency pairing: the conservative delta-thresholds and the
Dinkelbach solver for the pseudo-concave ratio program.

Everything here works on the effective SNRs x1 = Gamma1 * s and x2 =
Gamma2 * s. The rate floors leave the polygon {lb <= a2, kappa*a2 + eta
<= a1 <= 1} of power fractions. Every pair has x1 >= x2, so Dinkelbach's
method maximizes the pair's EE on the weak user's floor leg {a2 = lb,
eta + kappa*lb <= a1 <= 1} alone: at every lambda it visits, a
subproblem's maximizer over the polygon lies on that leg (the lemma in
_dinkelbach), where it is a clipped closed form (the edge step). One
array-valued Dinkelbach loop serves the scalar solver, the batch solver
and the EEPA decision; each solve binds the leg's lambda-free terms
(_edge_terms) once, before the loop.

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
    """The edge step's lambda-free terms, bound once per solve: the floor
    leg's offset (1 + lb*x2)/x1 and its start eta + kappa*lb."""
    return (1.0 + lb * x2) / x1, eta + kappa * lb


def _edge_step(lam, offset, start):
    """Maximizer a1 of log2(1 + a1*x1 + lb*x2) - lam*(a1 + lb) on the floor
    leg {a2 = lb, start <= a1 <= 1}, given its _edge_terms: the concave
    objective's stationary point 1/(lam*ln2) - offset, clipped to the leg.
    From lam2 up (_dinkelbach) it is the maximizer over the whole polygon.
    fmax/fmin map the nan of inf - inf (lam = 0, offset = inf) to start."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.fmin(np.fmax(np.divide(1.0, lam * math.log(2.0)) - offset, start), 1.0)


def _dinkelbach(x1, x2, r1_min, r2_min):
    """Dinkelbach iteration on arrays of instances (0-d for one pair) at
    effective SNRs x1, x2, on the weak user's floor leg a2 = lb. lambda
    starts at the EE of the minimal-power vertex and is updated to f/g at
    each subproblem maximizer until the subtractive optimum F(lambda)
    drops to TOL; converged instances keep their lambda, so the edge step
    repeats their maximizer bit for bit. Returns (alpha1, alpha2,
    lambda_star, iterations, residual, history) with history the
    per-iteration (lambda, F(lambda)) arrays.

    The lemma: with x1 >= x2 (an instance given weak user first is
    rejected) moving power from a2 to a1 never lowers a subproblem's
    objective, so its maximizer over the polygon lies on the floor leg or
    on the leg a1 = 1, which beats the point (1, lb) only when lam < lam2
    = x2 / ((1 + x1 + lb*x2) ln2). Each lambda is the EE of a floor point
    (a1, lb) with y = a1*x1 + lb*x2 > 0, and lam*ln2 = ln(1 + y)/(a1 + lb)
    > y/((1 + y)(a1 + lb)) >= x2/(1 + y) >= x2/(1 + x1 + lb*x2) by x1 >= x2
    and a1 <= 1: lam > lam2. Two zero floors are the one exception: the
    vertex (0, 0) starts lambda at 0, the first step is (1, 0), and the EE
    has no maximizer, only its supremum x1/ln2 as the power falls to 0.
    """
    if np.count_nonzero(x1 < x2):
        raise ValueError("the strong user (Gamma1 >= Gamma2) must come first")
    p1, p2 = np.power(2.0, (r1_min, r2_min))
    eta, kappa = _eta_kappa(x1, x2, p1)
    lb = _alpha2_lb(x2, p2)
    if np.count_nonzero((lb > 1.0 + EPS) | (eta + kappa * lb > 1.0 + EPS)):
        raise EmptyPolytopeError("no feasible power fractions")
    lb = np.minimum(lb, 1.0)
    offset, start = _edge_terms(x1, x2, eta, kappa, lb)
    del p1, p2, eta, kappa  # the loop reads lb and the bound terms only; freed, a large batch peaks no higher
    y2 = lb * x2

    def f(a1):
        return np.log2(1.0 + (a1 * x1 + y2))

    a1 = np.minimum(start, 1.0)
    gv = a1 + lb
    with np.errstate(invalid="ignore"):  # gv = 0 only at f = 0: the ratio is nan, and lam stays
        lam = np.where(gv > 0.0, f(a1) / gv, 0.0)
        done = np.zeros(lam.shape, dtype=bool)
        iterations = np.zeros(lam.shape, dtype=int)
        history = []
        for it in range(1, MAX_ITER + 1):
            a1 = _edge_step(lam, offset, start)
            fv = f(a1)
            gv = a1 + lb
            resid = fv - lam * gv
            history.append((lam, resid))
            iterations = np.where(done, iterations, it)
            done = done | (resid <= TOL)
            ratio = fv / gv
            if done.all():
                return a1, lb, np.where(gv > 0.0, ratio, lam), iterations, resid, history
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

    Returns (alpha1, alpha2, lambda_star, iterations) arrays of the
    instances' broadcast shape. Raises ValueError if any x is 0, negative
    or not finite, EmptyPolytopeError if any instance has no feasible
    power fractions and ConvergenceError if any instance fails to converge.
    """
    x1, x2, r1_min, r2_min = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x1, x2, r1_min, r2_min)))
    for user, x in ((1, x1), (2, x2)):
        if not np.all((x > 0.0) & (x < np.inf)):
            raise ValueError(f"degenerate channel: Gamma{user} * sinc^2 not in (0, inf)")
    return _dinkelbach(x1, x2, r1_min, r2_min)[:4]


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
