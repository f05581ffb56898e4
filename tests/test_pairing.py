import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risnoma.channel import EffectiveCsi, PhaseModel, rate_oma
from risnoma.mpa import Mode, TargetPolicy
from risnoma.pairing import Scheme, UserRecord, build_pairs, cell_pairs, run_scheme


def users_from_db(gammas_db):
    return [UserRecord(i, EffectiveCsi.from_db(g)) for i, g in enumerate(gammas_db)]


class TestBuildPairs:
    def test_even_population(self):
        pairs, unpaired = build_pairs(users_from_db([9, 7, 5, 3]))
        assert unpaired is None
        assert [(p[0].id, p[1].id) for p in pairs] == [(0, 3), (1, 2)]

    def test_odd_population_median_unpaired(self):
        pairs, unpaired = build_pairs(users_from_db([9, 7, 5, 3, 1]))
        assert unpaired is not None
        assert unpaired.csi.gamma_db == pytest.approx(5.0)
        assert [(p[0].id, p[1].id) for p in pairs] == [(0, 4), (1, 3)]

    def test_unsorted_input(self):
        pairs, _ = build_pairs(users_from_db([3, 9, 5, 7]))
        gammas = [(p[0].csi.gamma_db, p[1].csi.gamma_db) for p in pairs]
        assert gammas[0] == pytest.approx((9.0, 3.0))
        assert gammas[1] == pytest.approx((7.0, 5.0))

    def test_too_few_users(self):
        with pytest.raises(ValueError):
            build_pairs(users_from_db([5]))
        with pytest.raises(ValueError):
            build_pairs([])

    def test_tie_break_by_id(self):
        pairs, _ = build_pairs(users_from_db([5, 5, 5, 5]))
        assert [(p[0].id, p[1].id) for p in pairs] == [(0, 3), (1, 2)]

    def test_partition_property(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            users = users_from_db(rng.uniform(-5, 20, n))
            pairs, unpaired = build_pairs(users)
            seen = [u.id for p in pairs for u in p] + ([unpaired.id] if unpaired else [])
            assert sorted(seen) == list(range(n))
            assert len(pairs) == n // 2
            for strong, weak in pairs:
                assert strong.csi.gamma >= weak.csi.gamma

    def test_nested_ordering(self):
        # the k-th pair's users bracket every later pair's users
        rng = np.random.default_rng(12)
        users = users_from_db(rng.uniform(-5, 20, 12))
        pairs, _ = build_pairs(users)
        for (s1, w1), (s2, w2) in zip(pairs, pairs[1:]):
            assert s1.csi.gamma >= s2.csi.gamma
            assert w1.csi.gamma <= w2.csi.gamma


class TestCellPairs:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)), max_size=40))
    def test_matches_build_pairs_per_cell(self, users):
        # integer keys force ties, which go to the lower index in both forms
        cell = np.array([c for c, _ in users], dtype=np.int64)
        key = np.array([float(k) for _, k in users])
        strong, weak, first = cell_pairs(key, cell, 5)
        expected, starts = [], []
        for c in range(5):
            members = [UserRecord(int(i), EffectiveCsi(key[i])) for i in np.flatnonzero(cell == c)]
            starts.append(len(expected))
            if len(members) >= 2:
                expected += [(s.id, w.id) for s, w in build_pairs(members)[0]]
        assert list(zip(strong.tolist(), weak.tolist())) == expected
        assert first.tolist() == starts


class TestRunScheme:
    def test_oma_scheme(self):
        phase = PhaseModel(0.3)
        d = run_scheme(users_from_db([8, 5]), Scheme.OMA, phase)[0]
        assert d.mode is Mode.OMA
        assert d.rates.strong == pytest.approx(rate_oma(EffectiveCsi.from_db(8), phase))
        assert d.rates.weak == pytest.approx(rate_oma(EffectiveCsi.from_db(5), phase))
        assert d.ee == d.asr / 2  # full power: the sum rate over a total power of 2

    def test_zero_weak_gamma(self):
        # Gamma2 * sinc^2 = 0 is a degenerate channel to every scheme but OMA
        users = [UserRecord(0, EffectiveCsi(2.0)), UserRecord(1, EffectiveCsi(0.0))]
        for scheme in (Scheme.MPA, Scheme.SRM, Scheme.EEPA):
            with pytest.raises(ValueError, match="degenerate channel"):
                run_scheme(users, scheme, PhaseModel(0.0))
        d = run_scheme(users, Scheme.OMA, PhaseModel(0.0))[0]
        assert (d.mode, d.rates.weak) == (Mode.OMA, 0.0)

    def test_mpa_figure_pair(self):
        d = run_scheme(users_from_db([8, 5]), Scheme.MPA, PhaseModel(0.0))[0]
        assert d.mode is Mode.NOMA
        assert d.alpha1 == 1.0
        assert d.alpha2 == pytest.approx(0.85497, abs=1e-4)
        assert d.strong_index == 0 and d.weak_index == 1

    def test_mpa_falls_back_at_large_delta(self):
        phase = PhaseModel.from_degrees(80.0)
        plan_mpa = run_scheme(users_from_db([8, 5]), Scheme.MPA, phase)
        plan_oma = run_scheme(users_from_db([8, 5]), Scheme.OMA, phase)
        assert plan_mpa[0].mode is Mode.OMA
        assert plan_mpa[0] == plan_oma[0]

    def test_srm_equals_mpa_at_zero_delta(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            users = users_from_db(rng.uniform(-2, 20, n))
            p0 = PhaseModel(0.0)
            srm = run_scheme(users, Scheme.SRM, p0)
            mpa = run_scheme(users, Scheme.MPA, p0)
            for a, b in zip(srm, mpa):
                assert a.alpha1 == pytest.approx(b.alpha1, abs=1e-12)
                assert a.alpha2 == pytest.approx(b.alpha2, abs=1e-12)
                assert a.asr == pytest.approx(b.asr, abs=1e-9)

    def test_srm_never_falls_back(self):
        decisions = run_scheme(users_from_db([8, 5]), Scheme.SRM, PhaseModel.from_degrees(80.0))
        assert decisions[0].mode is Mode.NOMA

    def test_srm_keeps_zero_delta_allocation(self):
        p0 = run_scheme(users_from_db([8, 5]), Scheme.SRM, PhaseModel(0.0))
        p1 = run_scheme(users_from_db([8, 5]), Scheme.SRM, PhaseModel.from_degrees(60.0))
        assert p0[0].alpha2 == p1[0].alpha2
        assert p1[0].asr < p0[0].asr

    def test_eepa_falls_back_for_close_pair(self):
        # Gamma=[8,5] dB with OMA-at-0 targets fails the worst-case
        # criterion even at delta=0
        decisions = run_scheme(users_from_db([8, 5]), Scheme.EEPA, PhaseModel(0.0))
        assert decisions[0].mode is Mode.OMA

    def test_eepa_noma_for_separated_pair(self):
        d = run_scheme(users_from_db([15, 5]), Scheme.EEPA, PhaseModel(0.0))[0]
        assert d.mode is Mode.NOMA
        assert d.alpha1 == pytest.approx(0.30397, abs=1e-4)
        assert d.alpha2 == pytest.approx(0.32893, abs=1e-4)
        assert d.ee == pytest.approx(5.59736, abs=1e-4)
        assert d.iterations == 1

    def test_eepa_falls_back_at_zero_ee(self):
        # -400/-500 dB: the targets and every rate underflow to 0, so the
        # Dinkelbach optimum lambda* = 0 and NOMA gains nothing
        d = run_scheme(users_from_db([-400, -500]), Scheme.EEPA, PhaseModel(0.0))[0]
        assert d.mode is Mode.OMA
        assert (d.ee, d.iterations) == (0.0, None)

    def test_eepa_ee_at_least_mpa(self):
        # when EEPA pairs, its EE dominates the full-power MPA allocation
        users = users_from_db([15, 5])
        phase = PhaseModel(0.5)
        eepa = run_scheme(users, Scheme.EEPA, phase)[0]
        mpa = run_scheme(users, Scheme.MPA, phase)[0]
        assert eepa.mode is Mode.NOMA
        assert eepa.ee >= mpa.ee - 1e-8

    def test_explicit_policy_respected(self):
        policy = TargetPolicy.explicit(0.5, 0.25)
        d = run_scheme(users_from_db([8, 5]), Scheme.MPA, PhaseModel(0.1), policy)[0]
        assert d.mode is Mode.NOMA
        assert d.rates.strong >= 0.5 - 1e-9
        assert d.rates.weak >= 0.25 - 1e-9

    def test_rate_floors_hold_when_pairing(self):
        rng = np.random.default_rng(14)
        policy = TargetPolicy.oma_at_reference(0.0)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            users = users_from_db(rng.uniform(-2, 20, n))
            phase = PhaseModel(rng.uniform(0, 1.2))
            for scheme in (Scheme.MPA, Scheme.EEPA):
                decisions = run_scheme(users, scheme, phase, policy)
                for d, (strong, weak) in zip(decisions, build_pairs(users)[0]):
                    if d.mode is not Mode.NOMA:
                        continue
                    targets = policy.resolve(strong.csi, weak.csi, phase)
                    assert d.rates.strong >= targets.r1_min - 1e-6
                    assert d.rates.weak >= targets.r2_min - 1e-6

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        g1_db=st.floats(-30.0, 40.0),
        gap_db=st.floats(0.0, 40.0),
        delta=st.floats(0.0, 3.1),
        policy=st.one_of(
            st.builds(TargetPolicy.oma_at_reference, st.floats(0.0, 1.5)),
            st.just(TargetPolicy.oma_at_current()),
            st.builds(TargetPolicy.explicit, st.floats(0.0, 6.0), st.floats(0.0, 6.0)),
        ),
    )
    def test_noma_rates_meet_floors(self, g1_db, gap_db, delta, policy):
        users = users_from_db([g1_db, g1_db - gap_db])
        phase = PhaseModel(delta)
        targets = policy.resolve(users[0].csi, users[1].csi, phase)
        for scheme in (Scheme.MPA, Scheme.EEPA):
            d = run_scheme(users, scheme, phase, policy)[0]
            if d.mode is Mode.NOMA:
                assert d.rates.strong >= targets.r1_min - 1e-9
                assert d.rates.weak >= targets.r2_min - 1e-9
