"""Brute-force, closed-form and enumeration references for the
allocation tests: the EE grid oracle behind the Dinkelbach checks (dense,
and the same mesh searched row by row), the Lambert-W optimum on the
weak user's floor, the KKT candidate enumeration behind the MPA
optimality checks, the OMA decision the MPA fallback must equal, the
one-delta-at-a-time campaign sweep the blocked one must equal, the
strongest-weakest pairing of one cell written with sorted(), which
cell_pairs must equal cell by cell, the grid candidate search over one
squares x BS array, which the sliced one must equal, and the Dinkelbach
loop that rebuilds every edge-step term at each iteration, which the
solver, binding the lambda-free terms once, must equal bit for bit.
run_scheme_under decides one pair under a TargetPolicy, and
kernel_decision decides arrays of pairs with every output in place. The
schemes' kernels as they were written on (Gamma, s), before they decided
on the effective SNRs x = Gamma * s, are kept verbatim as PARENT_KERNELS,
the reference the kernels on x must match."""

import math

import numpy as np

from risnoma.channel import EffectiveCsi, PhaseModel, RatePair, rate_oma, sinc_sq
from risnoma.eepa import MAX_ITER, TOL, ConvergenceError, EmptyPolytopeError
from risnoma.mpa import (
    EPS, Mode, PairDecision, RateTargets, TargetPolicy, _alpha2_lb, _eta_kappa, _oma, _or_oma, alpha2_lower,
    eta_kappa,
)
from risnoma.pairing import KERNELS, Scheme, run_scheme
from risnoma.syslevel import MetricsTable, _torus_dist, campaign_pairs


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


def build_pairs(key):
    """One cell's strongest-weakest pairs by sorting: rank users by key,
    largest first, ties to the lower index, and pair first with last.
    Returns the (strong, weak) index pairs and the unpaired median user's
    index (None for an even cell)."""
    ordered = sorted(range(len(key)), key=lambda i: (-key[i], i))
    half = len(ordered) // 2
    pairs = [(ordered[i], ordered[len(ordered) - 1 - i]) for i in range(half)]
    return pairs, ordered[half] if len(ordered) % 2 else None


def oma_decision(csi1: EffectiveCsi, csi2: EffectiveCsi, phase: PhaseModel) -> PairDecision:
    """The OMA decision: both users at full power on orthogonal resources,
    each at its OMA rate, the EE the sum rate over the total power of 2."""
    rates = RatePair(rate_oma(csi1, phase), rate_oma(csi2, phase))
    asr = rates.strong + rates.weak
    return PairDecision(Mode.OMA, 1.0, 1.0, rates, asr, asr / 2.0)


def kernel_decision(scheme, g1, g2, r1_min, r2_min, s):
    """KERNELS[scheme] bound to the pairs and floors, decided at the pairs'
    x = Gamma * s: every output (noma, alpha1, alpha2, r1, r2, asr, ee,
    iterations), OMA's where the kernel does not pair."""
    x1, x2 = g1 * s, g2 * s
    noma, *nomas = KERNELS[scheme](g1, g2, r1_min, r2_min)(x1, x2)
    return (noma, *_or_oma(noma, nomas, _oma(x1, x2)[1:]))


def run_campaign_per_delta(deploy, radio, schemes, delta_sweep, targets_policy, cdf_delta, parent=False):
    """run_campaign's table on campaign_pairs' pairs, deciding the sweep
    one delta at a time: each scheme's kernel bound to the 1-D pair arrays
    and that delta's floors, then decided at that delta, and each delta's
    means and standard errors from 1-D mean and std(ddof=1) calls. With
    parent, the kernels are PARENT_KERNELS, on (Gamma, s)."""
    g1, g2, _, _ = campaign_pairs(deploy, radio)
    table = MetricsTable(cdf_delta=cdf_delta, n_pairs=len(g1))
    for delta in delta_sweep:
        s = sinc_sq(float(delta))
        floors = targets_policy.rates(g1, g2, s)
        for scheme in schemes:
            if parent:
                _, _, _, r1, r2, ee, _ = PARENT_KERNELS[scheme](g1, g2, *floors)(s)
            else:
                _, _, _, r1, r2, _, ee, _ = kernel_decision(scheme, g1, g2, *floors, s)
            asr = r1 + r2
            n = len(asr)
            stats = table.means.setdefault(scheme.value, {})
            for name, arr in (("r1", r1), ("r2", r2), ("asr", asr), ("ee", ee)):
                stats.setdefault(f"mean_{name}", []).append(float(arr.mean()))
                stats.setdefault(f"se_{name}", []).append(float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0)
            if abs(float(delta) - cdf_delta) < 1e-12 and scheme.value not in table.cdf:
                table.cdf[scheme.value] = np.sort(asr)
    return table


def grid_candidates_dense(users, bss, radio, side):
    """syslevel._grid_candidates with every square's distances to every BS
    in one squares x BS array, its near mask and a stable argsort over it:
    the (cand, square) the sliced search must equal bit for bit."""
    g = math.isqrt(len(bss))
    w = side / g
    centre = (np.arange(g) + 0.5) * w
    centres = np.stack(np.meshgrid(centre, centre, indexing="ij"), axis=-1).reshape(-1, 1, 2)
    d = np.maximum(_torus_dist(centres, bss, side), radio.min_distance_m)
    near = d <= ((d.min(axis=1) + w * math.sqrt(2.0)) * (1.0 + 1e-9))[:, None]
    counts = near.sum(axis=1)
    cand = np.argsort(~near, axis=1, kind="stable")[:, : counts.max()]
    cand = np.where(np.arange(cand.shape[1]) < counts[:, None], cand, cand[:, :1])
    square = np.floor(users / w).astype(np.int64) % g
    return cand, square[:, 0] * g + square[:, 1]


def run_scheme_under(csi1: EffectiveCsi, csi2: EffectiveCsi, scheme: Scheme, phase: PhaseModel,
                     policy: TargetPolicy = TargetPolicy()) -> PairDecision:
    """run_scheme on the pair's floors under the policy (TargetPolicy.resolve)."""
    return run_scheme(csi1, csi2, scheme, phase, policy.resolve(csi1, csi2, phase))


def edge_step_unbound(lam, x1, x2, eta, kappa, lb):
    """The edge step with every term built from the polygon at each call."""
    with np.errstate(divide="ignore", invalid="ignore"):
        hi = np.clip(np.where(eta + kappa > 1.0, (1.0 - eta) / kappa, 1.0), lb, 1.0)
        peak = np.divide(1.0, lam * math.log(2.0))
        a1 = np.fmin(np.fmax(peak - (1.0 + lb * x2) / x1, eta + kappa * lb), 1.0)
        a2 = np.fmin(np.fmax(peak - (1.0 + x1) / x2, lb), hi)
    return a1, np.where(a1 == 1.0, a2, lb)


def dinkelbach_unbound(x1, x2, r1_min, r2_min):
    """eepa._dinkelbach's iteration with edge_step_unbound at each step:
    (alpha1, alpha2, lambda_star, iterations, residual, history)."""
    if np.any(x1 < x2):
        raise ValueError("the strong user (Gamma1 >= Gamma2) must come first")
    p1, p2 = np.power(2.0, (r1_min, r2_min))
    eta, kappa = _eta_kappa(x1, x2, p1)
    lb = _alpha2_lb(x2, p2)
    if np.any(lb > 1.0 + EPS) or np.any(eta + kappa * lb > 1.0 + EPS):
        raise EmptyPolytopeError("no feasible power fractions")
    lb = np.minimum(lb, 1.0)

    def f(a1, a2):
        return np.log2(1.0 + (a1 * x1 + a2 * x2))

    a1 = np.minimum(eta + kappa * lb, 1.0)
    a2 = lb
    gv = a1 + a2
    with np.errstate(invalid="ignore"):
        lam = np.where(gv > 0.0, f(a1, a2) / gv, 0.0)
    done = np.zeros(lam.shape, dtype=bool)
    iterations = np.zeros(lam.shape, dtype=int)
    history = []
    for it in range(1, MAX_ITER + 1):
        a1, a2 = edge_step_unbound(lam, x1, x2, eta, kappa, lb)
        fv = f(a1, a2)
        gv = a1 + a2
        resid = fv - lam * gv
        history.append((lam, resid))
        iterations = np.where(done, iterations, it)
        done = done | (resid <= TOL)
        with np.errstate(invalid="ignore"):
            ratio = fv / gv  # gv = 0 only at f = 0, where resid = 0 and lam stays
        if done.all():
            return a1, a2, np.where(gv > 0.0, ratio, lam), iterations, resid, history
        lam = np.where(done, lam, ratio)
    raise ConvergenceError(f"Dinkelbach residual {np.max(resid):.3e} > {TOL:.1e} after {MAX_ITER} iterations")


# The schemes' kernels on (Gamma, s), verbatim as they were before the
# kernels decided on x = Gamma * s, with the formulas they call; only the
# names carry a gs_ prefix. KERNELS[scheme](g1, g2, r1_min, r2_min)(s)
# gave (noma, alpha1, alpha2, r1, r2, ee, iterations), OMA's fallback
# applied.


def gs_oma_rate(gamma, s):
    return 0.5 * np.log2(1.0 + gamma * s)


def gs_noma_rates(alpha1, alpha2, gamma1, gamma2, s):
    weak = alpha2 * gamma2 * s
    return np.log2(1.0 + alpha1 * gamma1 * s / (1.0 + weak)), np.log2(1.0 + weak)


@np.errstate(over="ignore")
def gs_alpha2_lb(g2, s, p2):
    return (p2 - 1.0) / (g2 * s)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def gs_alpha2_ub(g1, g2, s, p1):
    return np.where(p1 == 1.0, np.inf, (g1 * s + 1.0 - p1) / (g2 * s * (p1 - 1.0)))


def gs_eta_kappa(g1, g2, s, p1):
    return (p1 - 1.0) / (g1 * s), (p1 - 1.0) * g2 / g1


@np.errstate(over="ignore")
def gs_mpa_threshold(g1, p1, p2):
    return p2 * (p1 - 1.0) / g1


def gs_oma(g1, g2, s):
    r1, r2 = gs_oma_rate(g1, s), gs_oma_rate(g2, s)
    return False, 1.0, 1.0, r1, r2, (r1 + r2) / 2.0, 0


def gs_oma_kernel(g1, g2, r1_min=None, r2_min=None):
    return lambda s: gs_oma(g1, g2, s)


def gs_or_oma(noma, alpha1, alpha2, r1, r2, ee, iterations, g1, g2, s):
    nomas = (alpha1, alpha2, r1, r2, ee, iterations)
    if np.ndim(noma) == 0:
        return (noma, *(nomas if noma else gs_oma(g1, g2, s)[1:]))
    _, _, _, r1_oma, r2_oma, ee_oma, _ = gs_oma(g1, g2, s)
    omas = (1.0, 1.0, r1_oma, r2_oma, ee_oma, 0)
    return (noma, *(np.where(noma, x, oma) for x, oma in zip(nomas, omas)))


def gs_sum_rate_alpha2(g1, g2, s, p1):
    return np.fmax(np.fmin(gs_alpha2_ub(g1, g2, s, p1), 1.0), 0.0)


def gs_full_power_noma(g1, g2, s, alpha2):
    r1, r2 = gs_noma_rates(1.0, alpha2, g1, g2, s)
    return True, 1.0, alpha2, r1, r2, (r1 + r2) / (1.0 + alpha2), 0


def gs_mpa_kernel(g1, g2, r1_min, r2_min):
    p1, p2 = np.power(2.0, (r1_min, r2_min))
    threshold = gs_mpa_threshold(g1, p1, p2)

    def decide(s):
        _, alpha1, alpha2, r1, r2, ee, _ = gs_full_power_noma(g1, g2, s, gs_sum_rate_alpha2(g1, g2, s, p1))
        noma = (s >= threshold) & (gs_alpha2_lb(g2, s, p2) <= 1.0 + EPS) & (r1 + r2 > 0.0)
        return gs_or_oma(noma, alpha1, alpha2, r1, r2, ee, 0, g1, g2, s)

    return decide


def gs_srm_kernel(g1, g2, r1_min=None, r2_min=None):
    alpha2 = gs_sum_rate_alpha2(g1, g2, 1.0, np.power(2.0, gs_oma_rate(g1, 1.0)))
    return lambda s: gs_full_power_noma(g1, g2, s, alpha2)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def gs_eepa_thresholds(g1, g2, p1, p2):
    return 1.0 / np.fmax(g1 / (p1 - 1.0) - g2, 0.0), (p2 - 1.0) / g2


def gs_edge_terms(g1, g2, s, eta, kappa, lb):
    with np.errstate(divide="ignore", invalid="ignore"):
        hi = np.clip(np.where(eta + kappa > 1.0, (1.0 - eta) / kappa, 1.0), lb, 1.0)
        return hi, (1.0 + lb * g2 * s) / (g1 * s), eta + kappa * lb, (1.0 + g1 * s) / (g2 * s)


def gs_edge_step(lam, lb, hi, offset1, start1, offset2):
    with np.errstate(divide="ignore", invalid="ignore"):
        peak = np.divide(1.0, lam * math.log(2.0))
        a1 = np.fmin(np.fmax(peak - offset1, start1), 1.0)
        a2 = np.fmin(np.fmax(peak - offset2, lb), hi)
    return a1, np.where(a1 == 1.0, a2, lb)


def gs_dinkelbach(g1, g2, s, r1_min, r2_min):
    if np.any(g1 < g2):
        raise ValueError("the strong user (Gamma1 >= Gamma2) must come first")
    p1, p2 = np.power(2.0, (r1_min, r2_min))
    eta, kappa = gs_eta_kappa(g1, g2, s, p1)
    lb = gs_alpha2_lb(g2, s, p2)
    if np.any(lb > 1.0 + EPS) or np.any(eta + kappa * lb > 1.0 + EPS):
        raise EmptyPolytopeError("no feasible power fractions")
    lb = np.minimum(lb, 1.0)
    hi, offset1, start1, offset2 = gs_edge_terms(g1, g2, s, eta, kappa, lb)
    del p1, p2, eta, kappa

    def f(a1, a2):
        return np.log2(1.0 + (a1 * g1 + a2 * g2) * s)

    a1 = np.minimum(start1, 1.0)
    a2 = lb
    gv = a1 + a2
    with np.errstate(invalid="ignore"):
        lam = np.where(gv > 0.0, f(a1, a2) / gv, 0.0)
    done = np.zeros(lam.shape, dtype=bool)
    iterations = np.zeros(lam.shape, dtype=int)
    history = []
    for it in range(1, MAX_ITER + 1):
        a1, a2 = gs_edge_step(lam, lb, hi, offset1, start1, offset2)
        fv = f(a1, a2)
        gv = a1 + a2
        resid = fv - lam * gv
        history.append((lam, resid))
        iterations = np.where(done, iterations, it)
        done = done | (resid <= TOL)
        with np.errstate(invalid="ignore"):
            ratio = fv / gv
        if done.all():
            return a1, a2, np.where(gv > 0.0, ratio, lam), iterations, resid, history
        lam = np.where(done, lam, ratio)
    raise ConvergenceError(f"Dinkelbach residual {np.max(resid):.3e} > {TOL:.1e} after {MAX_ITER} iterations")


def gs_dinkelbach_batch(gamma1, gamma2, r1_min, r2_min, s):
    g1, g2, r1, r2 = (np.asarray(x, dtype=float) for x in (gamma1, gamma2, r1_min, r2_min))
    return gs_dinkelbach(g1, g2, s, r1, r2)[:4]


def gs_eepa_kernel(g1, g2, r1_min, r2_min):
    threshold = np.maximum(*gs_eepa_thresholds(g1, g2, *np.power(2.0, (r1_min, r2_min))))

    def decide(s):
        feasible = s >= threshold
        if np.ndim(feasible) == 0:
            if not feasible:
                return gs_oma(g1, g2, s)
            alpha1, alpha2, lam, iterations = gs_dinkelbach(g1, g2, s, r1_min, r2_min)[:4]
        else:
            alpha1, alpha2, lam = np.zeros((3,) + feasible.shape)
            iterations = np.zeros(feasible.shape, dtype=int)
            if feasible.any():
                alpha1[feasible], alpha2[feasible], lam[feasible], iterations[feasible] = gs_dinkelbach_batch(
                    *(np.broadcast_to(x, feasible.shape)[feasible] for x in (g1, g2, r1_min, r2_min, s))
                )
        r1, r2 = gs_noma_rates(alpha1, alpha2, g1, g2, s)
        return gs_or_oma(lam > 0.0, alpha1, alpha2, r1, r2, lam, iterations, g1, g2, s)

    return decide


PARENT_KERNELS = {Scheme.MPA: gs_mpa_kernel, Scheme.EEPA: gs_eepa_kernel, Scheme.SRM: gs_srm_kernel,
                  Scheme.OMA: gs_oma_kernel}
