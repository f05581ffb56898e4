import math

import numpy as np
import pytest

from risnoma.channel import (
    EffectiveCsi,
    PhaseModel,
    _link_gamma,
    db_to_linear,
    phase_error_gain_mc,
    rate_noma,
    rate_oma,
    sinc_sq,
)
from risnoma.mpa import _full_power_noma


class TestSincSq:
    def test_limit_at_zero(self):
        assert sinc_sq(0.0) == 1.0

    def test_eleven_degrees(self):
        assert sinc_sq(0.191986) == pytest.approx(0.98777, abs=1e-5)

    def test_half_pi(self):
        assert sinc_sq(math.pi / 2) == pytest.approx((2 / math.pi) ** 2, rel=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, math.pi, 4.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            sinc_sq(bad)

    def test_monotone_decreasing(self):
        xs = np.linspace(0.0, math.pi - 1e-6, 500)
        vals = [sinc_sq(float(x)) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestPhaseModel:
    def test_caches_degradation(self):
        pm = PhaseModel(0.5)
        assert pm.degradation == sinc_sq(0.5)

    def test_from_degrees(self):
        assert PhaseModel.from_degrees(90.0).delta == pytest.approx(math.pi / 2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            PhaseModel(math.pi)


class TestPhaseErrorMc:
    def test_zero_delta_exact(self):
        assert phase_error_gain_mc(8, 0.0, 1, seed=1) == 1.0

    def test_large_n_matches_sinc_sq(self):
        est = phase_error_gain_mc(1024, 0.5, 10_000, seed=7)
        assert est == pytest.approx(sinc_sq(0.5), rel=0.01)

    def test_small_n_bias(self):
        # E|sum e^{j th}/N|^2 = sinc^2 + (1 - sinc^2)/N for i.i.d. errors
        est = phase_error_gain_mc(4, 0.5, 1_000_000, seed=3)
        s = sinc_sq(0.5)
        assert est > s
        assert est == pytest.approx(s + (1 - s) / 4, rel=2e-3)

    def test_deterministic(self):
        a = phase_error_gain_mc(64, 1.0, 500, seed=42)
        b = phase_error_gain_mc(64, 1.0, 500, seed=42)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            phase_error_gain_mc(0, 0.5, 10, seed=0)
        with pytest.raises(ValueError):
            phase_error_gain_mc(4, -1.0, 10, seed=0)
        with pytest.raises(ValueError):
            phase_error_gain_mc(4, 0.5, 0, seed=0)


class TestEffectiveCsi:
    # _link_gamma(P_t, |alpha*beta|^2, N, M, I, sigma^2)
    def test_zero_gain(self):
        assert _link_gamma(1.0, 0.0, 4, 4, 0.0, 1.0) == 0.0

    def test_identity_budget(self):
        assert _link_gamma(1.0, 1.0, 1, 1, 0.0, 1.0) == 1.0

    def test_scaling(self):
        g = _link_gamma(1.0, 2.0, 4, 2, 0.5, 0.5)
        assert _link_gamma(1.0, 2.0, 8, 2, 0.5, 0.5) == pytest.approx(4 * g)  # N^2
        assert _link_gamma(1.0, 2.0, 4, 4, 0.5, 0.5) == pytest.approx(2 * g)  # M

    def test_db_round_trip(self):
        for db in (-10.0, 0.0, 5.0, 8.0, 23.4):
            csi = EffectiveCsi.from_db(db)
            assert 10.0 * math.log10(csi.gamma) == pytest.approx(db, rel=1e-12)

    def test_db_overflow_is_a_value_error(self):
        with pytest.raises(ValueError, match="overflows"):
            EffectiveCsi.from_db(3100.0)


class TestRates:
    def test_oma_zero(self):
        assert rate_oma(EffectiveCsi(0.0), PhaseModel(0.0)) == 0.0

    def test_oma_figure_points(self):
        p0 = PhaseModel(0.0)
        assert rate_oma(EffectiveCsi.from_db(8), p0) == pytest.approx(1.434894, abs=1e-5)
        assert rate_oma(EffectiveCsi.from_db(5), p0) == pytest.approx(1.028690, abs=1e-5)

    def test_noma_alpha1_zero(self):
        r = rate_noma(0.0, 0.5, EffectiveCsi(5.0), EffectiveCsi(2.0), PhaseModel(0.1))
        assert r.strong == 0.0

    def test_noma_no_interference(self):
        r = rate_noma(1.0, 0.0, EffectiveCsi(5.0), EffectiveCsi(2.0), PhaseModel(0.0))
        assert r.strong == pytest.approx(math.log2(6.0))
        assert r.weak == 0.0

    def test_noma_at_alpha2_upper(self):
        # at the strong user's bound the NOMA rate equals its OMA rate
        r = rate_noma(1.0, 0.85497, EffectiveCsi.from_db(8), EffectiveCsi.from_db(5), PhaseModel(0.0))
        assert r.strong == pytest.approx(1.43487, abs=1e-4)

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_alpha_domain(self, bad):
        with pytest.raises(ValueError):
            rate_noma(bad, 0.5, EffectiveCsi(1.0), EffectiveCsi(1.0), PhaseModel(0.0))

    def test_asr_zero(self):
        r = rate_noma(1.0, 1.0, EffectiveCsi(0.0), EffectiveCsi(0.0), PhaseModel(0.0))
        assert r.strong + r.weak == 0.0

    def test_asr_figure_point(self):
        rates = rate_noma(1.0, 0.85497, EffectiveCsi.from_db(8), EffectiveCsi.from_db(5), PhaseModel(0.0))
        assert rates.strong + rates.weak == pytest.approx(3.32384, abs=1e-4)

    def test_ee_full_power(self):
        # at alpha1 = alpha2 = 1 the EE is the sum rate over a total power of 2
        csi1, csi2, phase = EffectiveCsi.from_db(8), EffectiveCsi.from_db(5), PhaseModel(0.3)
        s = phase.degradation
        *_, ee, _ = _full_power_noma(csi1.gamma * s, csi2.gamma * s, 1.0)
        rates = rate_noma(1.0, 1.0, csi1, csi2, phase)
        assert ee == pytest.approx((rates.strong + rates.weak) / 2)


class TestInvariants:
    def test_sum_rate_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            a1, a2 = rng.uniform(0, 1, 2)
            g1 = db_to_linear(rng.uniform(-5, 20))
            g2 = db_to_linear(rng.uniform(-5, 20))
            phase = PhaseModel(rng.uniform(0, math.pi - 1e-3))
            r = rate_noma(a1, a2, EffectiveCsi(g1), EffectiveCsi(g2), phase)
            expected = math.log2(1 + (a1 * g1 + a2 * g2) * phase.degradation)
            assert r.strong + r.weak == pytest.approx(expected, abs=1e-9)

    def test_monotonicity_in_alphas(self):
        csi1, csi2 = EffectiveCsi.from_db(8), EffectiveCsi.from_db(5)
        phase = PhaseModel(0.3)
        grid = np.linspace(0, 1, 101)
        strong = [rate_noma(1.0, a2, csi1, csi2, phase).strong for a2 in grid]
        weak = [rate_noma(1.0, a2, csi1, csi2, phase).weak for a2 in grid]
        total = [s + w for s, w in zip(strong, weak)]
        assert all(a >= b - 1e-12 for a, b in zip(strong, strong[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(weak, weak[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(total, total[1:]))
        by_a1 = [rate_noma(a1, 0.5, csi1, csi2, phase).strong for a1 in grid]
        assert all(b >= a - 1e-12 for a, b in zip(by_a1, by_a1[1:]))

    def test_degradation_monotone_in_delta(self):
        csi1, csi2 = EffectiveCsi.from_db(8), EffectiveCsi.from_db(5)
        deltas = np.linspace(0, math.pi - 1e-3, 200)
        omas = [rate_oma(csi1, PhaseModel(float(d))) for d in deltas]
        rates = [rate_noma(1.0, 0.7, csi1, csi2, PhaseModel(float(d))) for d in deltas]
        nomas = [r.strong + r.weak for r in rates]
        assert all(a >= b - 1e-12 for a, b in zip(omas, omas[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(nomas, nomas[1:]))

    @pytest.mark.parametrize("delta", [0.1, 0.5, 1.0, 2.0])
    def test_mc_approximation_law(self, delta):
        est = phase_error_gain_mc(1024, delta, 10_000, seed=int(delta * 100))
        assert est == pytest.approx(sinc_sq(delta), rel=0.02)
