import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risnoma.channel import EffectiveCsi, PhaseModel, db_to_linear, rate_noma, rate_oma, sinc_sq
from risnoma.mpa import (
    Mode,
    PolicyKind,
    RateTargets,
    TargetPolicy,
    allocate_mpa,
    alpha2_lower,
    alpha2_upper,
    best_kkt_candidate,
    eta_kappa,
    invert_sinc_sq,
    kkt_candidates,
    mpa_bounds,
    pairing_criterion_mpa,
)

P0 = PhaseModel(0.0)
POLICY = TargetPolicy.oma_at_reference(0.0)


def oma_targets(csi1, csi2):
    return POLICY.resolve(csi1, csi2, P0)


def bisect_alpha2(fn, target, lo=0.0, hi=1.0, iters=200):
    """Independent oracle: bisection on a monotone rate function."""
    increasing = fn(hi) > fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (fn(mid) < target) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestTargetPolicy:
    def test_reference_freezes_targets(self):
        csi1, csi2 = EffectiveCsi.from_db(8), EffectiveCsi.from_db(5)
        t = TargetPolicy.oma_at_reference(0.0).resolve(csi1, csi2, PhaseModel(1.0))
        assert t.r1_min == pytest.approx(rate_oma(csi1, P0))
        assert t.r2_min == pytest.approx(rate_oma(csi2, P0))

    def test_current_tracks_delta(self):
        csi1, csi2 = EffectiveCsi.from_db(8), EffectiveCsi.from_db(5)
        phase = PhaseModel(1.0)
        t = TargetPolicy.oma_at_current().resolve(csi1, csi2, phase)
        assert t.r1_min == pytest.approx(rate_oma(csi1, phase))

    def test_explicit(self):
        t = TargetPolicy.explicit(1.2, 0.4).resolve(EffectiveCsi(1.0), EffectiveCsi(1.0), P0)
        assert (t.r1_min, t.r2_min) == (1.2, 0.4)
        assert t.policy.kind is PolicyKind.EXPLICIT

    def test_negative_targets_rejected(self):
        with pytest.raises(ValueError):
            RateTargets(-0.1, 0.0)


class TestAlpha2Lower:
    def test_zero_target(self):
        t = RateTargets(1.0, 0.0)
        assert alpha2_lower(t, EffectiveCsi(5.0), P0) == 0.0

    def test_oma_target_5db(self):
        csi2 = EffectiveCsi.from_db(5)
        t = RateTargets(0.0, rate_oma(csi2, P0))
        assert alpha2_lower(t, csi2, P0) == pytest.approx(0.32893, abs=1e-5)

    def test_oma_target_2db(self):
        csi2 = EffectiveCsi.from_db(2)
        t = RateTargets(0.0, rate_oma(csi2, P0))
        assert alpha2_lower(t, csi2, P0) == pytest.approx(0.383471, abs=1e-5)

    def test_matches_bisection_oracle(self):
        csi1, csi2 = EffectiveCsi.from_db(10), EffectiveCsi.from_db(4)
        phase = PhaseModel(0.4)
        t = RateTargets(0.0, 0.6)
        lb = alpha2_lower(t, csi2, phase)
        oracle = bisect_alpha2(
            lambda a2: rate_noma(1.0, a2, csi1, csi2, phase).weak, t.r2_min
        )
        assert lb == pytest.approx(oracle, abs=1e-9)

    def test_degenerate_channel(self):
        with pytest.raises(ValueError):
            alpha2_lower(RateTargets(0.0, 1.0), EffectiveCsi(0.0), P0)


class TestAlpha2Upper:
    def test_8_5_case(self):
        csi1, csi2 = EffectiveCsi.from_db(8), EffectiveCsi.from_db(5)
        t = oma_targets(csi1, csi2)
        assert alpha2_upper(t, csi1, csi2, P0) == pytest.approx(0.85497, abs=1e-5)

    def test_8_2_exceeds_one(self):
        csi1, csi2 = EffectiveCsi.from_db(8), EffectiveCsi.from_db(2)
        t = oma_targets(csi1, csi2)
        assert alpha2_upper(t, csi1, csi2, P0) == pytest.approx(1.705870, abs=1e-4)

    def test_matches_bisection_oracle(self):
        csi1, csi2 = EffectiveCsi.from_db(8), EffectiveCsi.from_db(5)
        t = oma_targets(csi1, csi2)
        oracle = bisect_alpha2(
            lambda a2: rate_noma(1.0, a2, csi1, csi2, P0).strong, t.r1_min
        )
        assert alpha2_upper(t, csi1, csi2, P0) == pytest.approx(oracle, abs=1e-9)

    def test_boundary_tightness(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            g1_db = rng.uniform(2, 20)
            g2_db = rng.uniform(0, g1_db)
            csi1, csi2 = EffectiveCsi.from_db(g1_db), EffectiveCsi.from_db(g2_db)
            phase = PhaseModel(rng.uniform(0, 1.0))
            t = RateTargets(rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0))
            ub = alpha2_upper(t, csi1, csi2, phase)
            if not 0.0 <= ub <= 1.0:
                continue
            r1 = rate_noma(1.0, ub, csi1, csi2, phase).strong
            assert r1 == pytest.approx(t.r1_min, abs=1e-9)

    def test_zero_r1_unbounded(self):
        t = RateTargets(0.0, 0.5)
        assert alpha2_upper(t, EffectiveCsi(5.0), EffectiveCsi(2.0), P0) == math.inf


class TestCriterion:
    def test_zero_targets_always_feasible(self):
        crit = pairing_criterion_mpa(RateTargets(0.0, 0.0), EffectiveCsi(5.0), PhaseModel(3.0))
        assert crit.feasible and crit.sinc_sq_threshold == 0.0 and crit.delta_ub is None

    def test_8_5_threshold(self):
        csi1, csi2 = EffectiveCsi.from_db(8), EffectiveCsi.from_db(5)
        crit = pairing_criterion_mpa(oma_targets(csi1, csi2), csi1, P0)
        assert crit.sinc_sq_threshold == pytest.approx(0.55086, abs=1e-5)
        assert math.degrees(crit.delta_ub) == pytest.approx(74.33, abs=0.05)

    def test_8_2_threshold(self):
        csi1, csi2 = EffectiveCsi.from_db(8), EffectiveCsi.from_db(2)
        crit = pairing_criterion_mpa(oma_targets(csi1, csi2), csi1, P0)
        assert crit.sinc_sq_threshold == pytest.approx(0.43411, abs=1e-5)
        assert math.degrees(crit.delta_ub) == pytest.approx(86.83, abs=0.05)

    def test_threshold_above_one(self):
        crit = pairing_criterion_mpa(RateTargets(3.0, 3.0), EffectiveCsi(2.0), P0)
        assert not crit.feasible and crit.delta_ub is None

    def test_invert_sinc_sq_round_trip(self):
        for target in (0.9, 0.55086, 0.1, 0.01):
            x = invert_sinc_sq(target)
            assert sinc_sq(x) == pytest.approx(target, abs=1e-9)

    def test_threshold_equivalence(self):
        # alpha2_ub >= alpha2_lb iff sinc^2(delta) >= threshold
        rng = np.random.default_rng(11)
        for _ in range(2000):
            g1_db = rng.uniform(0, 20)
            g2_db = rng.uniform(-5, g1_db)
            csi1, csi2 = EffectiveCsi.from_db(g1_db), EffectiveCsi.from_db(g2_db)
            phase = PhaseModel(rng.uniform(0, math.pi - 1e-3))
            t = RateTargets(rng.uniform(0.01, 2.0), rng.uniform(0.0, 2.0))
            ub = alpha2_upper(t, csi1, csi2, phase)
            lb = alpha2_lower(t, csi2, phase)
            crit = pairing_criterion_mpa(t, csi1, phase)
            margin_bounds = ub - lb
            margin_crit = phase.degradation - crit.sinc_sq_threshold
            if abs(margin_bounds) > 1e-9 and abs(margin_crit) > 1e-9:
                assert (margin_bounds > 0) == (margin_crit > 0)


class TestAllocate:
    def test_8_5(self):
        csi1, csi2 = EffectiveCsi.from_db(8), EffectiveCsi.from_db(5)
        d = allocate_mpa(oma_targets(csi1, csi2), csi1, csi2, P0)
        assert d.mode is Mode.NOMA
        assert d.alpha1 == 1.0
        assert d.alpha2 == pytest.approx(0.85497, abs=1e-5)
        assert d.asr == pytest.approx(3.32384, abs=1e-4)

    def test_8_2_clamps(self):
        csi1, csi2 = EffectiveCsi.from_db(8), EffectiveCsi.from_db(2)
        d = allocate_mpa(oma_targets(csi1, csi2), csi1, csi2, P0)
        assert (d.alpha1, d.alpha2) == (1.0, 1.0)

    def test_fallback_beyond_delta_ub(self):
        csi1, csi2 = EffectiveCsi.from_db(8), EffectiveCsi.from_db(5)
        t = oma_targets(csi1, csi2)
        phase = PhaseModel(math.radians(80.0))  # beyond the 74.33 deg bound
        d = allocate_mpa(t, csi1, csi2, phase)
        assert d.mode is Mode.OMA
        assert d.rates.strong == pytest.approx(rate_oma(csi1, phase))
        assert d.rates.weak == pytest.approx(rate_oma(csi2, phase))

    def test_rate_floors_and_clamp_safety(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            g1_db = rng.uniform(0, 20)
            g2_db = rng.uniform(-5, g1_db)
            csi1, csi2 = EffectiveCsi.from_db(g1_db), EffectiveCsi.from_db(g2_db)
            phase = PhaseModel(rng.uniform(0, math.pi - 1e-3))
            t = POLICY.resolve(csi1, csi2, phase)
            d = allocate_mpa(t, csi1, csi2, phase)
            assert 0.0 <= d.alpha1 <= 1.0 and 0.0 <= d.alpha2 <= 1.0
            if d.mode is Mode.NOMA:
                assert d.rates.strong >= t.r1_min - 1e-9
                assert d.rates.weak >= t.r2_min - 1e-9
                assert d.asr >= t.r1_min + t.r2_min - 1e-9


class TestKkt:
    def test_8_5_candidates(self):
        csi1, csi2 = EffectiveCsi.from_db(8), EffectiveCsi.from_db(5)
        t = oma_targets(csi1, csi2)
        eta, kappa = eta_kappa(t, csi1, csi2, P0)
        lb = alpha2_lower(t, csi2, P0)
        cands = kkt_candidates(eta, kappa, lb)
        assert any(c == pytest.approx((1.0, lb)) for c in cands)
        assert any(c[0] == 1.0 and c[1] == pytest.approx(0.85497, abs=1e-5) for c in cands)
        assert (1.0, 1.0) not in cands  # violates the strong-user constraint

    def test_empty_when_infeasible(self):
        # eta + kappa > 1 and even the minimal-power corner above alpha1=1
        cands = kkt_candidates(eta=0.9, kappa=0.5, alpha2_lb=0.5)
        assert cands == []

    def test_best_matches_allocation(self):
        rng = np.random.default_rng(31)
        found = 0
        while found < 300:
            g1_db = rng.uniform(0, 20)
            g2_db = rng.uniform(-5, g1_db)
            csi1, csi2 = EffectiveCsi.from_db(g1_db), EffectiveCsi.from_db(g2_db)
            phase = PhaseModel(rng.uniform(0, 1.5))
            t = POLICY.resolve(csi1, csi2, phase)
            d = allocate_mpa(t, csi1, csi2, phase)
            if d.mode is not Mode.NOMA:
                continue
            found += 1
            eta, kappa = eta_kappa(t, csi1, csi2, phase)
            lb = alpha2_lower(t, csi2, phase)
            best = best_kkt_candidate(kkt_candidates(eta, kappa, lb), csi1, csi2)
            assert best[0] == pytest.approx(d.alpha1, abs=1e-9)
            assert best[1] == pytest.approx(d.alpha2, abs=1e-9)


class TestBounds:
    def test_identity_ub_from_eta_kappa(self):
        csi1, csi2 = EffectiveCsi.from_db(8), EffectiveCsi.from_db(5)
        b = mpa_bounds(oma_targets(csi1, csi2), csi1, csi2, PhaseModel(0.2))
        assert b.alpha2_ub == pytest.approx((1 - b.eta) / b.kappa, rel=1e-12)


POLICIES = st.one_of(
    st.builds(TargetPolicy.oma_at_reference, st.floats(0.0, 1.5)),
    st.just(TargetPolicy.oma_at_current()),
    st.builds(TargetPolicy.explicit, st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
)


def feasible_delta_end(crit):
    """Upper end of the phase errors the criterion admits: delta_ub, or
    +inf when every delta passes (threshold <= 0), -inf when none does."""
    if crit.sinc_sq_threshold <= 0.0:
        return math.inf
    if crit.sinc_sq_threshold > 1.0:
        return -math.inf
    return crit.delta_ub


class TestCriterionProperties:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        g2_db=st.floats(-20.0, 30.0),
        gap_db=st.floats(0.0, 30.0),
        step_db=st.floats(0.01, 20.0),
        delta=st.floats(0.0, 3.1),
        policy=POLICIES,
    )
    def test_delta_ub_non_decreasing_in_gamma1(self, g2_db, gap_db, step_db, delta, policy):
        # threshold = 2^r2min (2^r1min - 1) / Gamma1 falls as Gamma1 grows at
        # fixed Gamma2, for all three policies: with an explicit floor the
        # numerator is fixed, with an OMA floor 2^r1min - 1 =
        # sqrt(1 + Gamma1 s) - 1 grows slower than Gamma1; invert_sinc_sq
        # is monotone in the threshold
        csi2 = EffectiveCsi.from_db(g2_db)
        phase = PhaseModel(delta)
        ends = []
        for g1_db in (g2_db + gap_db, g2_db + gap_db + step_db):
            csi1 = EffectiveCsi.from_db(g1_db)
            targets = policy.resolve(csi1, csi2, phase)
            ends.append(feasible_delta_end(pairing_criterion_mpa(targets, csi1, phase)))
        assert ends[1] >= ends[0] - 1e-9

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        g1_db=st.floats(-10.0, 30.0),
        gap_db=st.floats(0.0, 30.0),
        delta=st.floats(0.0, 0.98 * math.pi),
        policy=POLICIES,
    )
    def test_criterion_iff_bounds_ordered(self, g1_db, gap_db, delta, policy):
        csi1, csi2 = EffectiveCsi.from_db(g1_db), EffectiveCsi.from_db(g1_db - gap_db)
        phase = PhaseModel(delta)
        targets = policy.resolve(csi1, csi2, phase)
        lb = alpha2_lower(targets, csi2, phase)
        ub = alpha2_upper(targets, csi1, csi2, phase)
        crit = pairing_criterion_mpa(targets, csi1, phase)
        if abs(ub - lb) < 1e-9 or abs(phase.degradation - crit.sinc_sq_threshold) < 1e-9:
            return  # too close to the boundary to call either way, as in acceptance 3
        assert crit.feasible == (lb <= ub)
