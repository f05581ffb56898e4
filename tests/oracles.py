"""Brute-force, closed-form and enumeration references for the
allocation tests: the EE grid oracle behind the Dinkelbach checks (dense,
and the same mesh searched row by row), the Lambert-W optimum on the
weak user's floor, the KKT candidate enumeration behind the MPA
optimality checks, and the OMA decision the MPA fallback must equal."""

import numpy as np

from risnoma.channel import EffectiveCsi, PhaseModel, RatePair, rate_oma
from risnoma.eepa import EmptyPolytopeError
from risnoma.mpa import EPS, Mode, PairDecision, RateTargets, alpha2_lower, eta_kappa


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


def grid_oracle_ee_rows(
    targets: RateTargets,
    csi1: EffectiveCsi,
    csi2: EffectiveCsi,
    phase: PhaseModel,
    step: float = 1e-3,
) -> tuple:
    """grid_oracle_ee's result on the same augmented mesh, in O(rows).

    On each a2 row, EE(a1) is concave over affine, so quasi-concave: on
    the row's feasible grid points (a suffix of the a1 grid) the values
    rise, then fall. A binary search on the sign of neighbouring
    differences finds each row's peak. The peak's two neighbours and the
    row's boundary point a1 = kappa*a2 + eta join the candidates, and a
    tie goes to the lowest index of the dense mesh, as argmax does there.
    """
    if not 0.0 < step <= 0.1:
        raise ValueError("step must lie in (0, 0.1]")
    eta, kappa = eta_kappa(targets, csi1, csi2, phase)
    lb = alpha2_lower(targets, csi2, phase)
    g1, g2, s = csi1.gamma, csi2.gamma, phase.degradation
    n = round(1.0 / step)
    grid = np.linspace(0.0, 1.0, n + 1)
    a2_vals = grid if lb > 1.0 else np.unique(np.concatenate([grid, [lb]]))
    m = a2_vals.size

    def ee(a1, a2):  # the dense oracle's expression, so equal points give equal bits
        total = a1 + a2
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.log2(1.0 + (a1 * g1 + a2 * g2) * s) / total
        return np.where(total > 0.0, val, -np.inf)

    line = kappa * a2_vals + eta
    rows = np.flatnonzero((a2_vals >= lb - EPS) & (line <= 1.0 + EPS))
    lo = np.searchsorted(grid, line[rows] - EPS, side="left")  # first feasible a1 index
    rows, lo = rows[lo <= n], lo[lo <= n]
    start, hi = lo.copy(), np.full_like(lo, n)
    while np.any(lo < hi):
        active, mid = lo < hi, (lo + hi) // 2
        nxt = np.minimum(mid + 1, n)  # mid < hi <= n on an active row
        rising = ee(grid[nxt], a2_vals[rows]) > ee(grid[mid], a2_vals[rows])
        lo, hi = np.where(active & rising, nxt, lo), np.where(active & ~rising, mid, hi)
    peak = np.clip(lo + np.array([[-1], [0], [1]]), start, n).ravel()
    a1_edge = np.clip(line, 0.0, 1.0)
    edge_rows = rows[a1_edge[rows] >= line[rows] - EPS]
    j = np.concatenate([np.tile(rows, 3), edge_rows])
    a1 = np.concatenate([grid[peak], a1_edge[edge_rows]])
    a2 = a2_vals[j]
    index = np.concatenate([peak * m + np.tile(rows, 3), (n + 1) * m + edge_rows])
    val = ee(a1, a2)
    if not np.any(np.isfinite(val)):
        raise EmptyPolytopeError("no feasible grid point")
    k = np.flatnonzero(val == val.max())
    k = k[np.argmin(index[k])]
    return float(a1[k]), float(a2[k]), float(val[k])


def floor_edge_u(k):
    """Root u >= 1 of u*(ln u - 1) = k for k >= -1 (the branch point, u =
    1), ie u = k / W0(k/e), with u = e at k = 0. Newton's method from
    e*(1 + max(k, 0)), which lies above the root: the left side is convex
    and increasing for u >= 1, so the iterates fall monotonically to the
    root, quadratically except at the branch point, where they halve the
    distance."""
    k = np.maximum(np.asarray(k, dtype=float), -1.0)
    u = np.e * (1.0 + np.maximum(k, 0.0))
    for _ in range(200):
        log_u = np.log(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(log_u > 0.0, (u * (log_u - 1.0) - k) / log_u, 0.0)
        nxt = np.maximum(u - step, 1.0)
        if not np.any(nxt < u):
            return u
        u = np.minimum(nxt, u)
    raise RuntimeError("Newton iteration on u*(ln u - 1) = k did not settle")


def floor_edge_ee(g1, g2, s, eta, kappa, lb):
    """EEPA's optimal EE in closed form, on arrays of instances.

    With Gamma1 >= Gamma2 the optimum keeps the weak user at its floor
    a2 = lb, where EE = log2(A + B*x) / (x + lb) over x = a1 in
    [kappa*lb + eta, 1], with A = 1 + lb*Gamma2*s and B = Gamma1*s. Its
    stationary point u* = A + B*x* solves u*(ln u - 1) = K = B*lb - A >= -1,
    so u* = K / W0(K/e) (Corless et al., Adv. Comput. Math. 1996), and the
    ratio is pseudo-concave, so x* clipped to the edge is the maximizer.
    """
    a, b = 1.0 + lb * g2 * s, g1 * s
    x = np.clip((floor_edge_u(b * lb - a) - a) / b, kappa * lb + eta, 1.0)
    return np.log2(a + b * x) / (x + lb)


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


def oma_decision(csi1: EffectiveCsi, csi2: EffectiveCsi, phase: PhaseModel) -> PairDecision:
    """The OMA decision: both users at full power on orthogonal resources,
    each at its OMA rate, the EE the sum rate over the total power of 2."""
    rates = RatePair(rate_oma(csi1, phase), rate_oma(csi2, phase))
    asr = rates.strong + rates.weak
    return PairDecision(Mode.OMA, 1.0, 1.0, rates, asr, asr / 2.0)
