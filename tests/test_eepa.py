import math

import numpy as np
import pytest

from risnoma.channel import EffectiveCsi, PhaseModel, rate_noma, sinc_sq
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from risnoma.eepa import (
    MAX_ITER,
    TOL,
    EmptyPolytopeError,
    _dinkelbach,
    _edge_step,
    _edge_terms,
    _eepa_kernel,
    _eepa_thresholds,
    dinkelbach_allocate,
    dinkelbach_batch,
    pairing_criterion_eepa,
)
from risnoma.mpa import (
    EPS,
    RateTargets,
    TargetPolicy,
    _alpha2_lb,
    _eta_kappa,
    allocate_mpa,
    alpha2_lower,
    eta_kappa,
)
from risnoma.syslevel import DeploymentConfig, RadioConfig, campaign_pairs
from oracles import (
    dinkelbach_unbound, edge_step_unbound, floor_edge_ee, floor_edge_u, grid_oracle_ee, grid_oracle_ee_rows,
)

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
        if phase.degradation >= crit.sinc_sq_threshold:
            return targets, csi1, csi2, phase


def eepa_thresholds(targets, csi1, csi2):
    """EEPA's two sinc^2 thresholds of one pair."""
    return _eepa_thresholds(csi1.gamma, csi2.gamma, *np.power(2.0, (targets.r1_min, targets.r2_min)))


class TestCriterion:
    def test_8_5_worst_case_infeasible(self):
        csi1, csi2 = EffectiveCsi.from_db(8), EffectiveCsi.from_db(5)
        targets = POLICY.resolve(csi1, csi2, P0)
        th1, th2 = eepa_thresholds(targets, csi1, csi2)
        assert th1 == pytest.approx(1.8473, abs=1e-3)
        crit = pairing_criterion_eepa(targets, csi1, csi2, P0)
        assert crit.sinc_sq_threshold == max(th1, th2) == th1 > 1.0
        assert crit.delta_ub is None
        assert not crit.feasible

    def test_15_5_thresholds(self):
        csi1, csi2 = EffectiveCsi.from_db(15), EffectiveCsi.from_db(5)
        targets = POLICY.resolve(csi1, csi2, P0)
        th1, th2 = eepa_thresholds(targets, csi1, csi2)
        assert th1 == pytest.approx(0.28174, abs=1e-5)
        assert th2 == pytest.approx(0.32893, abs=1e-5)
        crit = pairing_criterion_eepa(targets, csi1, csi2, P0)
        assert crit.sinc_sq_threshold == th2
        assert crit.delta_ub == pytest.approx(1.723, abs=2e-3)

    def test_feasible_at_the_given_phase(self):
        # the criterion is evaluated at its phase argument: sinc^2(delta) >= the larger threshold
        verdicts = set()
        for gammas_db in ((15, 5), (20, 3), (8, 5), (12, 12)):
            csi1, csi2 = (EffectiveCsi.from_db(g) for g in gammas_db)
            for policy in (POLICY, TargetPolicy.oma_at_current(), TargetPolicy.explicit(0.5, 0.3)):
                for delta in (0.0, 0.5, 1.0, 1.5, 1.72, 1.73, 2.0, 2.5, 3.0):
                    phase = PhaseModel(delta)
                    targets = policy.resolve(csi1, csi2, phase)
                    crit = pairing_criterion_eepa(targets, csi1, csi2, phase)
                    expected = sinc_sq(phase.delta) >= max(eepa_thresholds(targets, csi1, csi2))
                    assert crit.feasible == expected
                    verdicts.add(crit.feasible)
        assert verdicts == {True, False}

    def test_zero_targets(self):
        crit = pairing_criterion_eepa(RateTargets(0.0, 0.0), EffectiveCsi(5.0), EffectiveCsi(2.0), PhaseModel(3.0))
        assert crit.sinc_sq_threshold == 0.0
        assert crit.feasible

    def test_ordering_required(self):
        with pytest.raises(ValueError):
            pairing_criterion_eepa(RateTargets(0.0, 0.0), EffectiveCsi(1.0), EffectiveCsi(2.0), P0)


def edge_step(lam, eta, kappa, lb, g1, g2, s):
    """The solver's inner maximizer (a1, lb) on one instance's floor leg,
    as floats, through the terms the solver binds once per solve."""
    return float(_edge_step(lam, *_edge_terms(g1 * s, g2 * s, np.float64(eta), np.float64(kappa), lb))), float(lb)


def edge_step_ref(lam, eta, kappa, lb, g1, g2, s):
    """The reference's maximizer over the whole polygon, as floats."""
    a1, a2 = edge_step_unbound(lam, g1 * s, g2 * s, np.float64(eta), np.float64(kappa), np.float64(lb))
    return float(a1), float(a2)


def leg_lambda2(x1, x2, lb):
    """The lambda below which a subproblem's maximizer over the polygon
    leaves the floor leg for the leg a1 = 1: its slope in a2 at (1, lb)."""
    return x2 / ((1.0 + x1 + lb * x2) * math.log(2.0))


def floor_ee(x1, x2, a1, lb):
    """The EE of the floor-leg point (a1, lb): a lambda the iteration visits."""
    return np.log2(1.0 + (a1 * x1 + lb * x2)) / (a1 + lb)


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
        # fraction fills first, so the polygon's maximizer walks (0,0) ->
        # (1,0) -> (1,1) as lam falls past the slopes at those vertices.
        # The floor leg a2 = 0 holds the first two; the third needs lam
        # below lambda2, which the reference reaches and no iterate visits
        g1, g2 = 10.0, 2.0
        ln2 = math.log(2.0)
        cases = [
            (1.01 * g1 / ln2, (0.0, 0.0)),
            (0.5 * (g1 + g2) / ((1 + g1) * ln2), (1.0, 0.0)),
            (1.01 * leg_lambda2(g1, g2, 0.0), (1.0, 0.0)),
        ]
        for lam, vertex in cases:
            assert edge_step(lam, 0.0, 0.0, 0.0, g1, g2, 1.0) == pytest.approx(vertex, abs=1e-12)
            assert edge_step_ref(lam, 0.0, 0.0, 0.0, g1, g2, 1.0) == edge_step(lam, 0.0, 0.0, 0.0, g1, g2, 1.0)
        lam = 0.99 * g2 / ((1 + g1 + g2) * ln2)  # below the slope at (1, 1), itself below lambda2
        assert edge_step(lam, 0.0, 0.0, 0.0, g1, g2, 1.0) == (1.0, 0.0)
        assert edge_step_ref(lam, 0.0, 0.0, 0.0, g1, g2, 1.0) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_empty(self):
        # eta > 1 pushes the strong-user line above the box
        with pytest.raises(EmptyPolytopeError):
            dinkelbach_allocate(RateTargets(5.0, 0.5), EffectiveCsi(10.0), EffectiveCsi(2.0), P0)

    def test_degenerate_point(self):
        # lb = 1 and eta + kappa = 1 collapse the polygon, and its floor
        # leg, to the corner (1, 1), which every lambda picks
        for lam in (0.0, 0.3, 50.0):
            assert edge_step(lam, 0.5, 0.5, 1.0, 4.0, 2.0, 1.0) == pytest.approx((1.0, 1.0))
        # floors 2^r - 1 = 4/3 and 2 at Gamma = 4, 2: eta = 1/3, kappa = 2/3, lb = 1
        targets = RateTargets(math.log2(7.0 / 3.0), math.log2(3.0))
        res = dinkelbach_allocate(targets, EffectiveCsi(4.0), EffectiveCsi(2.0), P0)
        assert (res.alpha1, res.alpha2) == pytest.approx((1.0, 1.0))
        assert res.lambda_star == pytest.approx(math.log2(7.0) / 2.0)


class TestEdgeStep:
    def test_interior_maximum(self):
        # on the floor leg a2 = lb the stationary point of
        # log2(1 + a1*g1 + lb*g2) - lam*(a1 + lb) is a1 = 1/(lam ln2) - (1 + lb*g2)/g1;
        # a lambda putting it inside the leg is above lambda2, as the polygon's maximizer
        g1, g2, eta, kappa, lb, a1_star = 4.0, 3.0, 0.1, 0.2, 0.25, 0.4
        lam = 1.0 / (math.log(2.0) * (a1_star + (1.0 + lb * g2) / g1))
        assert lam > leg_lambda2(g1, g2, lb)
        assert edge_step(lam, eta, kappa, lb, g1, g2, 1.0) == pytest.approx((a1_star, lb), abs=1e-12)
        assert edge_step_ref(lam, eta, kappa, lb, g1, g2, 1.0) == edge_step(lam, eta, kappa, lb, g1, g2, 1.0)

    def test_endpoint_maximum(self):
        # past either clip the leg's maximum sits at that endpoint: its
        # start eta + kappa*lb when power is dear, (1, lb) from lambda2 up
        # to the lambda whose stationary point is a1 = 1
        g1, g2, eta, kappa, lb = 4.0, 3.0, 0.1, 0.2, 0.25
        assert edge_step(50.0, eta, kappa, lb, g1, g2, 1.0) == pytest.approx((eta + kappa * lb, lb), abs=1e-15)
        for lam in (leg_lambda2(g1, g2, lb), 1.01 * leg_lambda2(g1, g2, lb)):
            assert edge_step(lam, eta, kappa, lb, g1, g2, 1.0) == (1.0, lb)
            assert edge_step_ref(lam, eta, kappa, lb, g1, g2, 1.0) == (1.0, lb)

    def test_degenerate_segment(self):
        # the non-box polygon's upper edge a2 = hi is the single point (1, hi);
        # the reference reaches that corner only with the power nearly free,
        # far below lambda2, where the floor leg's maximizer is (1, lb)
        eta, kappa, lb = instance_polygon(*NON_BOX)
        lam2 = leg_lambda2(10.0, 2.0, lb)
        assert edge_step_ref(1e-6, eta, kappa, lb, 10.0, 2.0, 1.0) == pytest.approx((1.0, 0.75), abs=1e-12)
        assert edge_step(1e-6, eta, kappa, lb, 10.0, 2.0, 1.0) == (1.0, lb)
        for lam in lam2 * np.geomspace(1.0, 100.0, 50):
            assert edge_step_ref(lam, eta, kappa, lb, 10.0, 2.0, 1.0) == edge_step(lam, eta, kappa, lb, 10.0, 2.0, 1.0)


class TestInnerMaximize:
    def test_lambda_zero_maximizes_rate(self):
        targets, csi1, csi2, phase = sample_feasible(np.random.default_rng(1))
        eta, kappa, lb = instance_polygon(targets, csi1, csi2, phase)
        a1, a2 = edge_step(0.0, eta, kappa, lb, csi1.gamma, csi2.gamma, phase.degradation)
        # with no power penalty the floor leg's maximizer is its full-power
        # end; the reference, over the whole polygon, saturates both fractions.
        # Only two zero floors start an iteration at lambda = 0
        assert (a1, a2) == (1.0, lb)
        assert edge_step_ref(0.0, eta, kappa, lb, csi1.gamma, csi2.gamma, phase.degradation) == (1.0, 1.0)
        x1, x2 = 10.0, 2.0
        history = _dinkelbach(x1, x2, 0.0, 0.0)[5]
        assert history[0][0] == 0.0 and history[1][0] == np.log2(1.0 + x1)  # the first step: (1, 0)

    def test_large_lambda_minimizes_power(self):
        targets, csi1, csi2, phase = sample_feasible(np.random.default_rng(2))
        eta, kappa, lb = instance_polygon(targets, csi1, csi2, phase)
        a1, a2 = edge_step(100.0, eta, kappa, lb, csi1.gamma, csi2.gamma, phase.degradation)
        assert a2 == pytest.approx(lb, abs=1e-12)
        assert a1 == pytest.approx(eta + kappa * lb, abs=1e-12)

    def test_symmetric_instance(self):
        # Gamma1 = Gamma2: the objective depends on a1 + a2 only, and the
        # best total power is 1/(lam ln2) - 1/g, which at lam = 2 > lambda2
        # lies inside the floor leg
        g, lam = EffectiveCsi.from_db(10).gamma, 2.0
        assert lam > leg_lambda2(g, g, 0.0)
        a1, a2 = edge_step(lam, 0.0, 0.0, 0.0, g, g, 1.0)
        obj = lambda x, y: math.log2(1 + (x + y) * g) - lam * (x + y)
        assert obj(a1, a2) == pytest.approx(obj(a2, a1), abs=1e-12)
        assert a1 + a2 == pytest.approx(1.0 / (lam * math.log(2.0)) - 1.0 / g, abs=1e-12)

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
            lam2 = leg_lambda2(g1 * s, g2 * s, lb)
            lam = rng.uniform(lam2, max(8.0, 2.0 * lam2))
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
        # lam from lambda2 up, where the floor leg holds the polygon's maximizer
        csi1, csi2 = EffectiveCsi.from_db(g1_db), EffectiveCsi.from_db(g1_db - gap_db)
        targets = POLICY.resolve(csi1, csi2, P0)
        crit = pairing_criterion_eepa(targets, csi1, csi2, P0)
        assume(crit.delta_ub is not None and crit.delta_ub > 0)
        phase = PhaseModel(delta_frac * crit.delta_ub)
        eta, kappa, lb = instance_polygon(targets, csi1, csi2, phase)
        g1, g2, s = csi1.gamma, csi2.gamma, phase.degradation
        lam += leg_lambda2(g1 * s, g2 * s, lb)
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
            s = phase.degradation
            a1, a2, lam, iterations = dinkelbach_batch(
                g1[k : k + 1] * s, g2[k : k + 1] * s, r1[k : k + 1], r2[k : k + 1]
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
            if pairing_criterion_eepa(targets, csi1, csi2, phase).feasible:
                rows.append((targets, csi1, csi2))
        g1 = np.array([r[1].gamma for r in rows])
        g2 = np.array([r[2].gamma for r in rows])
        r1 = np.array([r[0].r1_min for r in rows])
        r2 = np.array([r[0].r2_min for r in rows])
        s = phase.degradation
        a1, a2, lam, _ = dinkelbach_batch(g1 * s, g2 * s, r1, r2)
        for k, (targets, csi1, csi2) in enumerate(rows):
            res = dinkelbach_allocate(targets, csi1, csi2, phase)
            assert lam[k] == pytest.approx(res.lambda_star, abs=1e-7)

    def test_rejects_infeasible(self):
        with pytest.raises(ValueError):
            dinkelbach_batch(np.array([2.0]), np.array([1.9]), np.array([2.0]), np.array([2.0]))

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_names_degenerate_instances(self, bad):
        # named before any arithmetic, so no RuntimeWarning (an error in
        # tier-1) is raised on the way: a 0, nan or inf once ran 100 nan
        # iterations, x2 = 0 divided by zero, and x2 = -1 returned (1, 1)
        r = np.full(3, 0.5)
        for user in (1, 2):
            x1, x2 = np.array([10.0, 8.0, 6.0]), np.array([1.0, 2.0, 3.0])
            (x1 if user == 1 else x2)[1] = bad
            with pytest.raises(ValueError, match=f"degenerate channel: Gamma{user}"):
                dinkelbach_batch(x1, x2, r, r)

    def test_broadcast_shape(self):
        # every output takes the instances' broadcast shape, a2 = lb too
        a1, a2, lam, iterations = dinkelbach_batch(np.array([10.0, 20.0]), 2.0, 0.5, 0.5)
        assert a1.shape == a2.shape == lam.shape == iterations.shape == (2,)
        assert a2[0] == a2[1] == _alpha2_lb(2.0, math.sqrt(2.0))


class TestWeakUserFirst:
    def test_rejected_by_every_solver(self):
        # the edge step assumes Gamma1 >= Gamma2: given (1, 10) it stopped at
        # lambda* = 2.378, where the grid oracle finds EE 4.534 at (0.133, 0.085).
        # MPA's kernel assumes it too: given (5, 8) dB at 10 degrees it paired
        # with alpha2 = 0.322 and ASR 2.618, against 0.852 and 3.309 in order
        targets, csi1, csi2 = RateTargets(0.1, 0.1), EffectiveCsi(1.0), EffectiveCsi(10.0)
        assert grid_oracle_ee(targets, csi1, csi2, P0, step=1e-2)[2] > 4.5
        g1, g2, r = np.array([10.0, 1.0]), np.array([1.0, 10.0]), np.full(2, 0.1)
        for solve in (
            lambda: dinkelbach_allocate(targets, csi1, csi2, P0),
            lambda: dinkelbach_batch(g1, g2, r, r),
            lambda: _eepa_kernel(g1, g2, r, r)(g1, g2),
            lambda: _eepa_kernel(1.0, 10.0, 0.1, 0.1)(1.0, 10.0),
            lambda: allocate_mpa(targets, csi1, csi2, P0),
        ):
            with pytest.raises(ValueError, match="strong user"):
                solve()


FLOOR_POLICIES = st.one_of(
    st.just(POLICY),
    st.just(TargetPolicy.oma_at_current()),
    st.builds(TargetPolicy.explicit, st.sampled_from([0.0, 1e-3]) | st.floats(0.0, 4.0),
              st.sampled_from([0.0, 1e-3]) | st.floats(0.0, 2.0)),
)
GRID = np.meshgrid(np.linspace(0.0, 1.0, 401), np.linspace(0.0, 1.0, 401), indexing="ij")


class TestFloorLeg:
    """The lemma that lets Dinkelbach walk the weak user's floor leg alone:
    at the EE of any floor-leg point, the lambdas the iteration visits, the
    subproblem's maximizer over the whole polygon lies on that leg."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        g1_db=st.floats(-30.0, 40.0),
        gap_db=st.floats(0.0, 40.0),
        delta=st.floats(0.0, 3.1),
        policy=FLOOR_POLICIES,
        u=st.floats(0.0, 1.0),
    )
    def test_visited_lambda_stays_on_the_leg(self, g1_db, gap_db, delta, policy, u):
        g1, g2 = 10.0 ** (g1_db / 10.0), 10.0 ** ((g1_db - gap_db) / 10.0)
        s = sinc_sq(delta)
        x1, x2 = np.float64(g1 * s), np.float64(g2 * s)
        p1, p2 = np.power(2.0, policy.rates(g1, g2, s))
        eta, kappa = _eta_kappa(x1, x2, p1)
        lb = _alpha2_lb(x2, p2)
        assume(lb <= 1.0 and eta + kappa * lb <= 1.0)
        offset, start = _edge_terms(x1, x2, eta, kappa, lb)
        point = start + u * (1.0 - start)
        # y > 0 is the lemma's premise; its margin is y/2 relative, which
        # rounding erases near y = 1e-16 (iterates have y >= p1*p2 - 1, or,
        # for two zero floors, about the final relative gap, 1e-5 or more)
        assume(point * x1 + lb * x2 > 1e-9)
        lam = floor_ee(x1, x2, point, lb)
        a1 = _edge_step(lam, offset, start)
        a1_ref, a2_ref = edge_step_unbound(lam, x1, x2, eta, kappa, lb)
        assert same_bytes(a1, a1_ref) and a2_ref == lb
        # the floor leg's maximizer is the polygon's: no grid point beats it
        x, y = GRID
        obj = lambda a, b: np.log2(1.0 + (a * x1 + b * x2)) - lam * (a + b)
        feasible = (y >= lb) & (x >= kappa * y + eta)
        assert obj(a1, lb) >= np.where(feasible, obj(x, y), -np.inf).max() - 1e-12
        # and lambda2 is where it stops being so: just below it the reference
        # leaves the leg wherever the polygon's upper edge lies above lb
        hi = min(1.0, (1.0 - eta) / kappa) if eta + kappa > 1.0 else 1.0
        a1_ref, a2_ref = edge_step_unbound(0.99 * leg_lambda2(x1, x2, lb), x1, x2, eta, kappa, lb)
        assert a1_ref == 1.0 and (a2_ref > lb if hi > lb else a2_ref == lb)


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
                if not pairing_criterion_eepa(targets, csi1, csi2, phase).feasible:
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
                noma, _, alpha2, *_ = _eepa_kernel(g1, g2, r1, r2)(g1 * s, g2 * s)
                floor = np.minimum(_alpha2_lb(g2 * s, np.power(2.0, r2)), 1.0)
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


def same_bytes(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_solves_as_unbound(x1, x2, r1_min, r2_min):
    """The solver and the reference rebuilding every edge-step term at each
    iteration give the same bytes: alpha1, alpha2, lambda*, iterations,
    residual and the per-iteration history. Returns the solver's result."""
    bound, unbound = _dinkelbach(x1, x2, r1_min, r2_min), dinkelbach_unbound(x1, x2, r1_min, r2_min)
    for x, y in zip(bound[:5], unbound[:5]):
        assert same_bytes(x, y)
    assert len(bound[5]) == len(unbound[5])
    for (lam, f), (lam_ref, f_ref) in zip(bound[5], unbound[5]):
        assert same_bytes(lam, lam_ref) and same_bytes(f, f_ref)
    return bound


def eepa_feasible(g1, g2, s, r1_min, r2_min):
    return s >= np.maximum(*_eepa_thresholds(g1, g2, *np.power(2.0, (r1_min, r2_min))))


class TestBoundEdgeStep:
    """Binding the edge step's lambda-free terms once per solve, on the
    floor leg alone, leaves every iterate bit for bit as the reference,
    which rebuilds every term of the two-leg polygon walk at each
    iteration, makes it."""

    def test_edge_step_at_any_lambda(self):
        # the edge step alone, at lambdas the iteration never visits too:
        # the reference's two legs' interiors, their clips, and lambda = 0.
        # a1 is the reference's at every lambda; a2 = lb is, except on the
        # reference's second leg, which only lambda < lambda2 reaches
        rng = np.random.default_rng(30)
        n = 20000
        g1 = 10.0 ** rng.uniform(-3.0, 4.0, n)
        g2 = g1 * 10.0 ** -rng.uniform(0.0, 3.0, n)
        s = np.array([sinc_sq(d) for d in rng.uniform(0.0, 3.1, n)])
        x1, x2 = g1 * s, g2 * s
        p1 = 1.0 + x1 * rng.uniform(0.0, 0.3, n) * (rng.uniform(size=n) < 0.8)
        eta, kappa = _eta_kappa(x1, x2, p1)
        lb = np.minimum(rng.uniform(0.0, 1.0, n) * (1.0 - eta) / np.maximum(kappa, 1.0), 1.0)
        offset, start = _edge_terms(x1, x2, eta, kappa, lb)
        with np.errstate(divide="ignore"):  # a zero strong floor: kappa = 0
            hi = np.clip(np.where(eta + kappa > 1.0, (1.0 - eta) / kappa, 1.0), lb, 1.0)  # the polygon's upper edge
        # lambdas aimed inside each of the reference's legs, at random and at 0
        u = rng.uniform(size=n)
        peak = np.choose(rng.integers(0, 3, n), [lb + (hi - lb) * u + (1.0 + x1) / x2,
                                                  start + (1.0 - start) * u + offset, 10.0 ** rng.uniform(-2.0, 3.0, n)])
        lam = np.where(u < 0.02, 0.0, 1.0 / (peak * math.log(2.0)))
        a1 = _edge_step(lam, offset, start)
        a1_ref, a2_ref = edge_step_unbound(lam, x1, x2, eta, kappa, lb)
        assert same_bytes(a1, a1_ref)
        assert np.all(hi > lb) and np.array_equal(a2_ref != lb, lam < leg_lambda2(x1, x2, lb))
        assert np.count_nonzero((a2_ref > lb) & (a2_ref < hi)) > 1000  # the reference's second leg's interior
        assert np.count_nonzero((a1 > start) & (a1 < 1.0)) > 1000  # the floor leg's

    def test_campaign_instances(self):
        # every feasible (delta, pair) of a 2-drop default campaign over the
        # default 18-delta sweep, solved in one batch
        g1, g2, _, _ = campaign_pairs(DeploymentConfig(drops=2), RadioConfig())
        parts = []
        for delta in np.radians(np.arange(0.0, 171.0, 10.0)):
            s = sinc_sq(delta)
            r1, r2 = POLICY.rates(g1, g2, s)
            f = eepa_feasible(g1, g2, s, r1, r2)
            parts.append((g1[f] * s, g2[f] * s, r1[f], r2[f]))
        instances = [np.concatenate(column) for column in zip(*parts)]
        assert len(instances[0]) > 10000
        bound = assert_solves_as_unbound(*instances)
        for x, y in zip(dinkelbach_batch(*instances), bound[:4]):
            assert same_bytes(x, y)

    def test_pair_study_draws(self):
        # the pair-study draws (Gamma1 ~ U(0, 20) dB, Gamma2 ~ U(0, Gamma1)
        # dB, delta ~ U(0, 90) degrees), each EEPA-feasible one solved on
        # its 0-d values, history included
        rng = np.random.default_rng(701)
        g1_db = rng.uniform(0.0, 20.0, 2000)
        g2_db = rng.uniform(0.0, 1.0, 2000) * g1_db
        delta = rng.uniform(0.0, 90.0, 2000)
        solved = 0
        for a, b, d in zip(g1_db.tolist(), g2_db.tolist(), delta.tolist()):
            csi1, csi2, phase = EffectiveCsi.from_db(a), EffectiveCsi.from_db(b), PhaseModel.from_degrees(d)
            targets = POLICY.resolve(csi1, csi2, phase)
            if not pairing_criterion_eepa(targets, csi1, csi2, phase).feasible:
                continue
            res = dinkelbach_allocate(targets, csi1, csi2, phase)
            s = phase.degradation
            a1, a2, lam, iterations, resid, history = assert_solves_as_unbound(
                csi1.gamma * s, csi2.gamma * s, targets.r1_min, targets.r2_min
            )
            assert same_bytes((res.alpha1, res.alpha2, res.lambda_star, res.residual), (a1, a2, lam, resid))
            assert res.iterations == iterations
            assert same_bytes(res.history, history)
            solved += 1
        assert solved > 500

    def test_zero_floors(self):
        # p1 = p2 = 1: eta = kappa = lb = 0, the unit box. The EE has no
        # maximizer, only its supremum x1/ln2 as the power falls to 0, and
        # lambda starts at 0 below lambda2: the first step is (1, 0), where
        # the reference's is (1, 1), and the iterates differ from there on.
        # At the stop F(lambda) <= TOL, and near the supremum F = gap^2 /
        # (2 ln2) for the relative gap of lambda, so both solvers end within
        # GAP of x1/ln2, hence of each other
        gap = math.sqrt(2.0 * math.log(2.0) * TOL)  # 1.18e-4; measured at most 5.9e-5 on these draws
        rng = np.random.default_rng(31)
        g1 = 10.0 ** rng.uniform(-3.0, 4.0, 4000)
        g2 = g1 * 10.0 ** -rng.uniform(0.0, 4.0, 4000)
        s = np.array([sinc_sq(d) for d in rng.uniform(0.0, 3.1, 4000)])
        zeros = np.zeros(4000)
        x1, x2 = g1 * s, g2 * s
        scalars = [(float(x1[k]), float(x2[k]), 0.0, 0.0) for k in range(0, 4000, 400)]
        for instance in [(x1, x2, zeros, zeros)] + scalars:
            a1, a2, lam, iterations, _, history = _dinkelbach(*instance)
            lam_ref = dinkelbach_unbound(*instance)[2]
            sup = instance[0] / math.log(2.0)
            assert np.all(lam < sup) and np.all(lam > sup * (1.0 - gap))
            assert np.all(np.abs(lam - lam_ref) < sup * gap)
            assert np.all(iterations <= MAX_ITER) and len(history) <= MAX_ITER
            assert np.all(a2 == 0.0) and np.all(a1 > 0.0)

    def test_first_leg_ends_at_full_power(self):
        # weak Gamma and a weak-user floor near alpha2 = 1: along the floor
        # leg the EE rises up to alpha1 = 1, where the reference's path turns
        # onto its second leg and, at every lambda visited, stops at a2 = lb
        rng = np.random.default_rng(32)
        g1 = 10.0 ** rng.uniform(-1.0, 0.7, 4000)
        g2 = g1 * 10.0 ** -rng.uniform(0.0, 2.0, 4000)
        s = np.array([sinc_sq(d) for d in rng.uniform(0.0, 1.5, 4000)])
        r1 = np.log2(1.0 + g1 * s * rng.uniform(0.0, 0.2, 4000))
        r2 = np.log2(1.0 + g2 * s * rng.uniform(0.5, 1.0, 4000))
        a1, a2, *_ = assert_solves_as_unbound(g1 * s, g2 * s, r1, r2)
        assert np.count_nonzero(a1 == 1.0) > 100 and np.any(a1 < 1.0)

    def test_floor_clipped_to_one(self):
        # the weak user's floor needs alpha2_lb in (1, 1 + EPS], clipped to 1
        # (EEPA's criterion rejects these pairs; the solvers take them)
        rng = np.random.default_rng(33)
        g1 = 10.0 ** rng.uniform(0.0, 3.0, 4000)
        g2 = g1 * 10.0 ** -rng.uniform(0.0, 2.0, 4000)
        s = np.array([sinc_sq(d) for d in rng.uniform(0.0, 1.5, 4000)])
        r2 = np.log2(1.0 + g2 * s * (1.0 + rng.uniform(0.0, 1.0, 4000) * EPS))
        r1 = np.log2(1.0 + g1 * s * rng.uniform(0.0, 1e-3, 4000))
        x1, x2 = g1 * s, g2 * s
        lb = _alpha2_lb(x2, np.power(2.0, r2))
        eta, kappa = _eta_kappa(x1, x2, np.power(2.0, r1))
        keep = (lb > 1.0) & (lb <= 1.0 + EPS) & (eta + kappa * lb <= 1.0 + EPS)
        assert np.count_nonzero(keep) > 100
        _, a2, *_ = assert_solves_as_unbound(*(x[keep] for x in (x1, x2, r1, r2)))
        assert np.all(a2 == 1.0)

    def test_subnormal_weak_gamma(self):
        # x2 = Gamma2 * s subnormal: the reference's second-leg offset
        # overflows to +inf, with numpy's overflow warning for array inputs
        x2 = np.array([5e-324, 1e-320, 2.2e-308])
        x1 = np.array([2.0, 10.0, 1e3])
        zeros = np.zeros(3)
        with np.errstate(over="ignore"):
            assert_solves_as_unbound(x1, x2, zeros, zeros)
            assert_solves_as_unbound(x1, x2, np.full(3, 0.5), zeros)
        for a, b in zip(x1.tolist(), x2.tolist()):  # floats: the reference's division overflows to +inf silently
            assert_solves_as_unbound(a, b, 0.0, 0.0)
