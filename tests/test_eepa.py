import math

import numpy as np
import pytest

from risnoma.channel import EffectiveCsi, PhaseModel, rate_noma, sinc_sq
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from risnoma.eepa import (
    EmptyPolytopeError,
    _edge_step,
    _eepa_kernel,
    dinkelbach_allocate,
    dinkelbach_batch,
    pairing_criterion_eepa,
)
from risnoma.mpa import (
    RateTargets,
    TargetPolicy,
    _alpha2_lb,
    allocate_mpa,
    alpha2_lower,
    eta_kappa,
)
from oracles import floor_edge_ee, floor_edge_u, grid_oracle_ee, grid_oracle_ee_rows

P0 = PhaseModel(0.0)
POLICY = TargetPolicy.oma_at_reference(0.0)


def sample_feasible(rng):
    """Random instance satisfying the EEPA criterion at its delta."""
    while True:
        g1_db = rng.uniform(8, 25)
        g2_db = rng.uniform(-5, g1_db - 5)
        csi1, csi2 = EffectiveCsi.from_db(g1_db), EffectiveCsi.from_db(g2_db)
        targets = POLICY.resolve(csi1, csi2, P0)
        crit = pairing_criterion_eepa(targets, csi1, csi2, P0)
        if crit.delta_ub is None or crit.delta_ub <= 0:
            continue
        phase = PhaseModel(rng.uniform(0, crit.delta_ub * 0.98))
        if crit.feasible_at(phase.delta):
            return targets, csi1, csi2, phase


class TestCriterion:
    def test_8_5_worst_case_infeasible(self):
        csi1, csi2 = EffectiveCsi.from_db(8), EffectiveCsi.from_db(5)
        crit = pairing_criterion_eepa(POLICY.resolve(csi1, csi2, P0), csi1, csi2, P0)
        assert crit.sinc_sq_threshold_1 == pytest.approx(1.8473, abs=1e-3)
        assert crit.sinc_sq_threshold_1 > 1.0
        assert crit.delta_ub is None
        assert not crit.feasible_at(0.0)

    def test_15_5_thresholds(self):
        csi1, csi2 = EffectiveCsi.from_db(15), EffectiveCsi.from_db(5)
        crit = pairing_criterion_eepa(POLICY.resolve(csi1, csi2, P0), csi1, csi2, P0)
        assert crit.sinc_sq_threshold_1 == pytest.approx(0.28174, abs=1e-5)
        assert crit.sinc_sq_threshold_2 == pytest.approx(0.32893, abs=1e-5)
        assert crit.delta_ub == pytest.approx(1.723, abs=2e-3)

    def test_zero_targets(self):
        crit = pairing_criterion_eepa(RateTargets(0.0, 0.0), EffectiveCsi(5.0), EffectiveCsi(2.0), P0)
        assert crit.sinc_sq_threshold == 0.0
        assert crit.feasible_at(3.0)

    def test_ordering_required(self):
        with pytest.raises(ValueError):
            pairing_criterion_eepa(RateTargets(0.0, 0.0), EffectiveCsi(1.0), EffectiveCsi(2.0), P0)


def edge_step(lam, eta, kappa, lb, g1, g2, s):
    """The solver's inner maximizer on one instance, as floats."""
    a1, a2 = _edge_step(lam, g1, g2, s, np.float64(eta), np.float64(kappa), lb)
    return float(a1), float(a2)


def instance_polygon(targets, csi1, csi2, phase):
    eta, kappa = eta_kappa(targets, csi1, csi2, phase)
    return eta, kappa, alpha2_lower(targets, csi2, phase)


def inner_objective(lam, g1, g2, s):
    return lambda x, y: np.log2(1 + (x * g1 + y * g2) * s) - lam * (x + y)


# strong floor 2^r1 - 1 = 4, weak floor 2^r2 - 1 = 0.5 at Gamma = 10, 2:
# eta = 0.4, kappa = 0.8, lb = 0.25, so eta + kappa > 1 >= eta + kappa*lb
# and the upper edge is a2 = (1 - eta)/kappa = 0.75
NON_BOX = (RateTargets(math.log2(5.0), math.log2(1.5)), EffectiveCsi(10.0), EffectiveCsi(2.0), P0)


class TestPolytope:
    def test_box_vertices(self):
        # zero floors make the unit box; with Gamma1 > Gamma2 the strong
        # fraction fills first, so the maximizer walks (0,0) -> (1,0) ->
        # (1,1) as lam falls past the slopes at those vertices
        g1, g2 = 10.0, 2.0
        ln2 = math.log(2.0)
        cases = [
            (1.01 * g1 / ln2, (0.0, 0.0)),
            (0.5 * (g1 + g2) / ((1 + g1) * ln2), (1.0, 0.0)),
            (0.99 * g2 / ((1 + g1 + g2) * ln2), (1.0, 1.0)),
        ]
        for lam, vertex in cases:
            assert edge_step(lam, 0.0, 0.0, 0.0, g1, g2, 1.0) == pytest.approx(vertex, abs=1e-12)

    def test_empty(self):
        # eta > 1 pushes the strong-user line above the box
        with pytest.raises(EmptyPolytopeError):
            dinkelbach_allocate(RateTargets(5.0, 0.5), EffectiveCsi(10.0), EffectiveCsi(2.0), P0)

    def test_degenerate_point(self):
        # lb = 1 and eta + kappa = 1 collapse the polygon to the corner (1, 1)
        for lam in (0.0, 0.3, 50.0):
            assert edge_step(lam, 0.5, 0.5, 1.0, 4.0, 2.0, 1.0) == pytest.approx((1.0, 1.0))
        # floors 2^r - 1 = 4/3 and 2 at Gamma = 4, 2: eta = 1/3, kappa = 2/3, lb = 1
        targets = RateTargets(math.log2(7.0 / 3.0), math.log2(3.0))
        res = dinkelbach_allocate(targets, EffectiveCsi(4.0), EffectiveCsi(2.0), P0)
        assert (res.alpha1, res.alpha2) == pytest.approx((1.0, 1.0))
        assert res.lambda_star == pytest.approx(math.log2(7.0) / 2.0)


class TestEdgeStep:
    def test_interior_maximum(self):
        # on a1 = 1 (zero floors) the stationary point of
        # log2(1 + g1 + a2*g2) - lam*(1 + a2) is a2 = 1/(lam ln2) - (1 + g1)/g2
        g1, g2, a2_star = 4.0, 3.0, 0.4
        lam = 1.0 / (math.log(2.0) * (a2_star + (1.0 + g1) / g2))
        a1, a2 = edge_step(lam, 0.0, 0.0, 0.0, g1, g2, 1.0)
        assert (a1, a2) == pytest.approx((1.0, a2_star), abs=1e-12)

    def test_endpoint_maximum(self):
        # past the clip, the stationary point lies beyond a2 = 1: the edge
        # maximum sits at its endpoint
        assert edge_step(0.1, 0.0, 0.0, 0.0, 4.0, 3.0, 1.0) == (1.0, 1.0)

    def test_degenerate_segment(self):
        # the non-box polygon's edge a2 = hi is the single point (1, hi);
        # with the power nearly free that corner is the maximizer
        eta, kappa, lb = instance_polygon(*NON_BOX)
        assert edge_step(1e-6, eta, kappa, lb, 10.0, 2.0, 1.0) == pytest.approx((1.0, 0.75), abs=1e-12)


class TestInnerMaximize:
    def test_lambda_zero_maximizes_rate(self):
        targets, csi1, csi2, phase = sample_feasible(np.random.default_rng(1))
        eta, kappa, lb = instance_polygon(targets, csi1, csi2, phase)
        a1, a2 = edge_step(0.0, eta, kappa, lb, csi1.gamma, csi2.gamma, phase.degradation)
        # with no power penalty the maximizer saturates both fractions
        assert (a1, a2) == (1.0, 1.0)

    def test_large_lambda_minimizes_power(self):
        targets, csi1, csi2, phase = sample_feasible(np.random.default_rng(2))
        eta, kappa, lb = instance_polygon(targets, csi1, csi2, phase)
        a1, a2 = edge_step(100.0, eta, kappa, lb, csi1.gamma, csi2.gamma, phase.degradation)
        assert a2 == pytest.approx(lb, abs=1e-12)
        assert a1 == pytest.approx(eta + kappa * lb, abs=1e-12)

    def test_symmetric_instance(self):
        # Gamma1 = Gamma2: the objective depends on a1 + a2 only, and the
        # best total power is 1/ln2 - 1/g
        g = EffectiveCsi.from_db(10).gamma
        a1, a2 = edge_step(1.0, 0.0, 0.0, 0.0, g, g, 1.0)
        obj = lambda x, y: math.log2(1 + (x + y) * g) - (x + y)
        assert obj(a1, a2) == pytest.approx(obj(a2, a1), abs=1e-12)
        assert a1 + a2 == pytest.approx(1.0 / math.log(2.0) - 1.0 / g, abs=1e-12)

    def test_empty_polytope(self):
        # the weak user's floor needs alpha2 > 1
        with pytest.raises(EmptyPolytopeError):
            dinkelbach_allocate(RateTargets(0.5, 3.0), EffectiveCsi(10.0), EffectiveCsi(2.0), P0)

    def test_matches_dense_grid(self):
        rng = np.random.default_rng(3)
        grid = np.linspace(0, 1, 501)
        x, y = np.meshgrid(grid, grid, indexing="ij")
        for _ in range(20):
            targets, csi1, csi2, phase = sample_feasible(rng)
            eta, kappa, lb = instance_polygon(targets, csi1, csi2, phase)
            g1, g2, s = csi1.gamma, csi2.gamma, phase.degradation
            lam = rng.uniform(0.0, 8.0)
            obj = inner_objective(lam, g1, g2, s)
            a1, a2 = edge_step(lam, eta, kappa, lb, g1, g2, s)
            feas = (x >= kappa * y + eta) & (y >= lb)
            assert obj(a1, a2) >= np.where(feas, obj(x, y), -np.inf).max() - 1e-12

    def test_non_box_polygon(self):
        targets, csi1, csi2, phase = NON_BOX
        eta, kappa, lb = instance_polygon(*NON_BOX)
        assert eta + kappa > 1.0 >= eta + kappa * lb
        res = dinkelbach_allocate(*NON_BOX)
        assert res.alpha1 >= kappa * res.alpha2 + eta - 1e-12
        assert lb - 1e-12 <= res.alpha2 <= (1.0 - eta) / kappa + 1e-12
        _, _, ee_grid = grid_oracle_ee(*NON_BOX, step=1e-3)
        assert res.lambda_star >= ee_grid - 1e-9
        assert res.lambda_star - ee_grid <= 2e-3

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        g1_db=st.floats(8.0, 25.0),
        gap_db=st.floats(5.0, 30.0),
        delta_frac=st.floats(0.0, 0.98),
        lam=st.floats(0.0, 8.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_beats_random_feasible_points(self, g1_db, gap_db, delta_frac, lam, seed):
        csi1, csi2 = EffectiveCsi.from_db(g1_db), EffectiveCsi.from_db(g1_db - gap_db)
        targets = POLICY.resolve(csi1, csi2, P0)
        crit = pairing_criterion_eepa(targets, csi1, csi2, P0)
        assume(crit.delta_ub is not None and crit.delta_ub > 0)
        phase = PhaseModel(delta_frac * crit.delta_ub)
        eta, kappa, lb = instance_polygon(targets, csi1, csi2, phase)
        g1, g2, s = csi1.gamma, csi2.gamma, phase.degradation
        obj = inner_objective(lam, g1, g2, s)
        a1, a2 = edge_step(lam, eta, kappa, lb, g1, g2, s)
        # random points of the polygon: a2 in [lb, 1], a1 above the strong-user line
        rng = np.random.default_rng(seed)
        y = rng.uniform(lb, 1.0, 1000)
        x = rng.uniform(np.minimum(kappa * y + eta, 1.0), 1.0)
        assert obj(a1, a2) >= obj(x, y).max() - 1e-12
        res = dinkelbach_allocate(targets, csi1, csi2, phase)
        assert res.lambda_star >= allocate_mpa(targets, csi1, csi2, phase).ee - 1e-9


class TestDinkelbach:
    def test_monotone_and_converged(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            targets, csi1, csi2, phase = sample_feasible(rng)
            res = dinkelbach_allocate(targets, csi1, csi2, phase)
            assert res.residual <= 1e-8
            assert res.iterations <= 100
            lams = [h[0] for h in res.history]
            resids = [h[1] for h in res.history]
            assert all(b >= a - 1e-12 for a, b in zip(lams, lams[1:]))
            assert all(b <= a + 1e-12 for a, b in zip(resids, resids[1:]))

    def test_constraints_and_ratio(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            targets, csi1, csi2, phase = sample_feasible(rng)
            res = dinkelbach_allocate(targets, csi1, csi2, phase)
            eta, kappa = eta_kappa(targets, csi1, csi2, phase)
            lb = alpha2_lower(targets, csi2, phase)
            assert res.alpha1 >= kappa * res.alpha2 + eta - 1e-9
            assert res.alpha2 >= lb - 1e-9
            assert res.alpha1 <= 1 + 1e-9 and res.alpha2 <= 1 + 1e-9
            rates = rate_noma(min(res.alpha1, 1.0), min(res.alpha2, 1.0), csi1, csi2, phase)
            assert res.lambda_star == pytest.approx(
                (rates.strong + rates.weak) / (res.alpha1 + res.alpha2), abs=1e-8
            )

    def test_beats_grid_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            targets, csi1, csi2, phase = sample_feasible(rng)
            res = dinkelbach_allocate(targets, csi1, csi2, phase)
            _, _, ee_grid = grid_oracle_ee(targets, csi1, csi2, phase, step=1e-3)
            assert res.lambda_star >= ee_grid - 1e-9
            assert abs(res.lambda_star - ee_grid) <= 2e-3

    def test_dominates_mpa_ee(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            targets, csi1, csi2, phase = sample_feasible(rng)
            res = dinkelbach_allocate(targets, csi1, csi2, phase)
            mpa = allocate_mpa(targets, csi1, csi2, phase)
            assert res.lambda_star >= mpa.ee - 1e-8

    def test_grid_oracle_empty(self):
        with pytest.raises(EmptyPolytopeError):
            grid_oracle_ee(RateTargets(5.0, 3.0), EffectiveCsi(2.0), EffectiveCsi(1.0), P0)

    def test_grid_step_validation(self):
        with pytest.raises(ValueError):
            grid_oracle_ee(RateTargets(0.0, 0.0), EffectiveCsi(2.0), EffectiveCsi(1.0), P0, step=0.5)


class TestBatch:
    def test_matches_scalar(self):
        rng = np.random.default_rng(8)
        insts = [sample_feasible(rng) for _ in range(100)]
        g1 = np.array([i[1].gamma for i in insts])
        g2 = np.array([i[2].gamma for i in insts])
        r1 = np.array([i[0].r1_min for i in insts])
        r2 = np.array([i[0].r2_min for i in insts])
        # group by identical degradation is impossible here, so run per-instance
        for k, (targets, csi1, csi2, phase) in enumerate(insts):
            a1, a2, lam, iterations = dinkelbach_batch(
                g1[k : k + 1], g2[k : k + 1], r1[k : k + 1], r2[k : k + 1], phase.degradation
            )
            res = dinkelbach_allocate(targets, csi1, csi2, phase)
            assert lam[0] == pytest.approx(res.lambda_star, abs=1e-7)
            assert iterations[0] == res.iterations

    def test_vector_call(self):
        rng = np.random.default_rng(9)
        # shared delta so one vectorized call covers all instances
        phase = PhaseModel(0.3)
        rows = []
        while len(rows) < 50:
            g1_db = rng.uniform(10, 25)
            g2_db = rng.uniform(-5, g1_db - 6)
            csi1, csi2 = EffectiveCsi.from_db(g1_db), EffectiveCsi.from_db(g2_db)
            targets = POLICY.resolve(csi1, csi2, phase)
            crit = pairing_criterion_eepa(targets, csi1, csi2, phase)
            if crit.feasible_at(phase.delta):
                rows.append((targets, csi1, csi2))
        g1 = np.array([r[1].gamma for r in rows])
        g2 = np.array([r[2].gamma for r in rows])
        r1 = np.array([r[0].r1_min for r in rows])
        r2 = np.array([r[0].r2_min for r in rows])
        a1, a2, lam, _ = dinkelbach_batch(g1, g2, r1, r2, phase.degradation)
        for k, (targets, csi1, csi2) in enumerate(rows):
            res = dinkelbach_allocate(targets, csi1, csi2, phase)
            assert lam[k] == pytest.approx(res.lambda_star, abs=1e-7)

    def test_rejects_infeasible(self):
        with pytest.raises(ValueError):
            dinkelbach_batch(
                np.array([2.0]), np.array([1.9]), np.array([2.0]), np.array([2.0]), 1.0
            )


class TestWeakUserFloor:
    def test_lambda_star_matches_lambert_w(self):
        # Gamma1 >= Gamma2 puts the EE optimum on the weak user's floor,
        # where it has a closed form; abs=1e-12 covers low-EE instances
        # (large delta) whose lambda* carries Dinkelbach's absolute stop
        rng = np.random.default_rng(10)
        for policy in (POLICY, TargetPolicy.oma_at_current()):
            rows, lams = [], []
            while len(rows) < 3000:
                g1_db = rng.uniform(0, 20)
                csi1, csi2 = EffectiveCsi.from_db(g1_db), EffectiveCsi.from_db(rng.uniform(0, g1_db))
                phase = PhaseModel(rng.uniform(0, 0.9 * math.pi))
                targets = policy.resolve(csi1, csi2, phase)
                if not pairing_criterion_eepa(targets, csi1, csi2, phase).feasible_at(phase.delta):
                    continue
                polygon = instance_polygon(targets, csi1, csi2, phase)
                rows.append((csi1.gamma, csi2.gamma, phase.degradation, *polygon))
                lams.append(dinkelbach_allocate(targets, csi1, csi2, phase).lambda_star)
            assert np.array(lams) == pytest.approx(floor_edge_ee(*np.array(rows).T), rel=1e-12, abs=1e-12)

    def test_lambert_root(self):
        # u*(ln u - 1) = k, from the branch point k = -1 (u = 1) upward
        k = np.array([-1.0, -1.0 + 1e-12, -0.5, 0.0, 1.0, 1e6, 1e300])
        u = floor_edge_u(k)
        assert u[0] == 1.0 and u[3] == pytest.approx(math.e, rel=1e-15)
        assert np.all(np.diff(u) > 0.0)
        assert u * (np.log(u) - 1.0) == pytest.approx(k, rel=1e-14, abs=1e-15)

    def test_kernel_noma_alpha2_is_the_floor(self):
        # every EEPA NOMA decision gives the weak user exactly its floor
        rng = np.random.default_rng(11)
        g1 = 10.0 ** (rng.uniform(-3.0, 4.0, 20000))  # -30 to 40 dB
        g2 = g1 * 10.0 ** (-rng.uniform(0.0, 4.0, g1.size))
        policies = (POLICY, TargetPolicy.oma_at_reference(0.3), TargetPolicy.oma_at_current(),
                    TargetPolicy.explicit(1.5, 0.7))
        decisions = 0
        for policy in policies:
            for delta in np.radians(np.arange(0.0, 171.0, 10.0)):
                s = sinc_sq(delta)
                r1, r2 = policy.rates(g1, g2, s)
                noma, _, alpha2, *_ = _eepa_kernel(g1, g2, s, r1, r2)
                floor = np.minimum(_alpha2_lb(g2, s, np.power(2.0, r2)), 1.0)
                assert np.array_equal(alpha2[noma], floor[noma])
                decisions += np.count_nonzero(noma)
        assert decisions > 10000


class TestGridOracleRows:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        instances = [sample_feasible(rng) for _ in range(200)] + [NON_BOX]
        for instance in instances:
            assert grid_oracle_ee_rows(*instance) == grid_oracle_ee(*instance)

    def test_empty(self):
        with pytest.raises(EmptyPolytopeError):
            grid_oracle_ee_rows(RateTargets(5.0, 3.0), EffectiveCsi(2.0), EffectiveCsi(1.0), P0)
