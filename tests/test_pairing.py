import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import build_pairs, run_scheme_under
from risnoma.channel import EffectiveCsi, PhaseModel, rate_oma
from risnoma.mpa import Mode, TargetPolicy
from risnoma.pairing import Scheme, cell_pairs


def one_cell(key):
    """cell_pairs with every user in cell 0: its (strong, weak) pairs as index tuples."""
    strong, weak, first = cell_pairs(np.asarray(key, dtype=float), np.zeros(len(key), dtype=np.int64), 1)
    assert first.tolist() == [0]
    return list(zip(strong.tolist(), weak.tolist()))


def unpaired(key, pairs):
    return sorted(set(range(len(key))) - {u for p in pairs for u in p})


def csi_from_db(*gammas_db):
    return [EffectiveCsi.from_db(g) for g in gammas_db]


def population(rng, low, high, size):
    """A one-cell population of size users with Gamma uniform in [low, high)
    dB, as its cell_pairs pairs of (strong, weak) CSI."""
    gammas_db = rng.uniform(low, high, size)
    csi = csi_from_db(*gammas_db)
    return [(csi[s], csi[w]) for s, w in one_cell(gammas_db)]


class TestBuildPairs:
    """The strongest-weakest rule on one cell, cell_pairs(key, zeros, 1)."""

    def test_even_population(self):
        pairs = one_cell([9, 7, 5, 3])
        assert unpaired([9, 7, 5, 3], pairs) == []
        assert pairs == [(0, 3), (1, 2)]

    def test_odd_population_median_unpaired(self):
        pairs = one_cell([9, 7, 5, 3, 1])
        assert unpaired([9, 7, 5, 3, 1], pairs) == [2]
        assert pairs == [(0, 4), (1, 3)]

    def test_unsorted_input(self):
        assert one_cell([3, 9, 5, 7]) == [(1, 0), (3, 2)]

    def test_too_few_users(self):
        # fewer than two users make no pair
        assert one_cell([5]) == []
        assert one_cell([]) == []

    def test_tie_break_by_id(self):
        assert one_cell([5, 5, 5, 5]) == [(0, 3), (1, 2)]

    def test_partition_property(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            key = rng.uniform(-5, 20, n)
            pairs = one_cell(key)
            seen = [u for p in pairs for u in p] + unpaired(key, pairs)
            assert sorted(seen) == list(range(n))
            assert len(pairs) == n // 2
            for strong, weak in pairs:
                assert key[strong] >= key[weak]

    def test_nested_ordering(self):
        # the k-th pair's users bracket every later pair's users
        rng = np.random.default_rng(12)
        key = rng.uniform(-5, 20, 12)
        pairs = one_cell(key)
        for (s1, w1), (s2, w2) in zip(pairs, pairs[1:]):
            assert key[s1] >= key[s2]
            assert key[w1] <= key[w2]


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
            members = np.flatnonzero(cell == c)
            starts.append(len(expected))
            expected += [(int(members[s]), int(members[w])) for s, w in build_pairs(key[members].tolist())[0]]
        assert list(zip(strong.tolist(), weak.tolist())) == expected
        assert first.tolist() == starts

    @pytest.mark.parametrize("n_cells", [1, 2, 3000])
    def test_order_matches_lexsort(self, n_cells):
        # the two stable sorts (by key, then by cell as a small int) order
        # users as np.lexsort((-key, cell)) does, ties by index: every
        # cell's users ranked largest key first, paired first with last
        rng = np.random.default_rng(n_cells)
        n = 20 * n_cells + 1
        cell = rng.integers(0, n_cells, n)
        key = np.where(rng.uniform(size=n) < 0.5, rng.integers(0, 4, n).astype(float), rng.uniform(0.0, 4.0, n))
        strong, weak, first = cell_pairs(key, cell, n_cells)
        order = np.lexsort((-key, cell))
        counts = np.bincount(cell, minlength=n_cells)
        want, starts, start = [], [], 0
        for c in range(n_cells):
            ranked = order[start : start + counts[c]].tolist()
            starts.append(len(want))
            want += [(ranked[k], ranked[-1 - k]) for k in range(counts[c] // 2)]
            start += counts[c]
        assert list(zip(strong.tolist(), weak.tolist())) == want
        assert first.tolist() == starts
        assert len(np.unique(key)) < n  # tied keys


class TestRunScheme:
    def test_oma_scheme(self):
        phase = PhaseModel(0.3)
        d = run_scheme_under(*csi_from_db(8, 5), Scheme.OMA, phase)
        assert d.mode is Mode.OMA
        assert d.rates.strong == pytest.approx(rate_oma(EffectiveCsi.from_db(8), phase))
        assert d.rates.weak == pytest.approx(rate_oma(EffectiveCsi.from_db(5), phase))
        assert d.ee == d.asr / 2  # full power: the sum rate over a total power of 2

    def test_zero_weak_gamma(self):
        # Gamma2 * sinc^2 = 0 is a degenerate channel to every scheme but OMA
        csi1, csi2 = EffectiveCsi(2.0), EffectiveCsi(0.0)
        for scheme in (Scheme.MPA, Scheme.SRM, Scheme.EEPA):
            with pytest.raises(ValueError, match="degenerate channel"):
                run_scheme_under(csi1, csi2, scheme, PhaseModel(0.0))
        d = run_scheme_under(csi1, csi2, Scheme.OMA, PhaseModel(0.0))
        assert (d.mode, d.rates.weak) == (Mode.OMA, 0.0)

    def test_weak_user_first_rejected(self):
        # the kernels assume Gamma1 >= Gamma2; a tie is a valid pair
        for scheme in Scheme:
            with pytest.raises(ValueError, match="strong user"):
                run_scheme_under(*csi_from_db(5, 8), scheme, PhaseModel(0.0))
            run_scheme_under(*csi_from_db(5, 5), scheme, PhaseModel(0.0))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            run_scheme_under(*csi_from_db(8, 5), "mpa", PhaseModel(0.0))

    def test_mpa_figure_pair(self):
        d = run_scheme_under(*csi_from_db(8, 5), Scheme.MPA, PhaseModel(0.0))
        assert d.mode is Mode.NOMA
        assert d.alpha1 == 1.0
        assert d.alpha2 == pytest.approx(0.85497, abs=1e-4)

    def test_mpa_falls_back_at_large_delta(self):
        phase = PhaseModel.from_degrees(80.0)
        mpa = run_scheme_under(*csi_from_db(8, 5), Scheme.MPA, phase)
        oma = run_scheme_under(*csi_from_db(8, 5), Scheme.OMA, phase)
        assert mpa.mode is Mode.OMA
        assert mpa == oma

    def test_srm_equals_mpa_at_zero_delta(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            p0 = PhaseModel(0.0)
            for csi1, csi2 in population(rng, -2, 20, int(rng.integers(2, 12))):
                a = run_scheme_under(csi1, csi2, Scheme.SRM, p0)
                b = run_scheme_under(csi1, csi2, Scheme.MPA, p0)
                assert a.alpha1 == pytest.approx(b.alpha1, abs=1e-12)
                assert a.alpha2 == pytest.approx(b.alpha2, abs=1e-12)
                assert a.asr == pytest.approx(b.asr, abs=1e-9)

    def test_srm_never_falls_back(self):
        d = run_scheme_under(*csi_from_db(8, 5), Scheme.SRM, PhaseModel.from_degrees(80.0))
        assert d.mode is Mode.NOMA

    def test_srm_keeps_zero_delta_allocation(self):
        d0 = run_scheme_under(*csi_from_db(8, 5), Scheme.SRM, PhaseModel(0.0))
        d1 = run_scheme_under(*csi_from_db(8, 5), Scheme.SRM, PhaseModel.from_degrees(60.0))
        assert d0.alpha2 == d1.alpha2
        assert d1.asr < d0.asr

    def test_eepa_falls_back_for_close_pair(self):
        # Gamma=[8,5] dB with OMA-at-0 targets fails the worst-case
        # criterion even at delta=0
        d = run_scheme_under(*csi_from_db(8, 5), Scheme.EEPA, PhaseModel(0.0))
        assert d.mode is Mode.OMA

    def test_eepa_noma_for_separated_pair(self):
        d = run_scheme_under(*csi_from_db(15, 5), Scheme.EEPA, PhaseModel(0.0))
        assert d.mode is Mode.NOMA
        assert d.alpha1 == pytest.approx(0.30397, abs=1e-4)
        assert d.alpha2 == pytest.approx(0.32893, abs=1e-4)
        assert d.ee == pytest.approx(5.59736, abs=1e-4)
        assert d.iterations == 1

    def test_eepa_falls_back_at_zero_ee(self):
        # -400/-500 dB: the targets and every rate underflow to 0, so the
        # Dinkelbach optimum lambda* = 0 and NOMA gains nothing
        d = run_scheme_under(*csi_from_db(-400, -500), Scheme.EEPA, PhaseModel(0.0))
        assert d.mode is Mode.OMA
        assert (d.ee, d.iterations) == (0.0, None)

    def test_eepa_ee_at_least_mpa(self):
        # when EEPA pairs, its EE dominates the full-power MPA allocation
        csi = csi_from_db(15, 5)
        phase = PhaseModel(0.5)
        eepa = run_scheme_under(*csi, Scheme.EEPA, phase)
        mpa = run_scheme_under(*csi, Scheme.MPA, phase)
        assert eepa.mode is Mode.NOMA
        assert eepa.ee >= mpa.ee - 1e-8

    def test_explicit_policy_respected(self):
        policy = TargetPolicy.explicit(0.5, 0.25)
        d = run_scheme_under(*csi_from_db(8, 5), Scheme.MPA, PhaseModel(0.1), policy)
        assert d.mode is Mode.NOMA
        assert d.rates.strong >= 0.5 - 1e-9
        assert d.rates.weak >= 0.25 - 1e-9

    def test_rate_floors_hold_when_pairing(self):
        rng = np.random.default_rng(14)
        policy = TargetPolicy.oma_at_reference(0.0)
        for _ in range(100):
            pairs = population(rng, -2, 20, int(rng.integers(2, 10)))
            phase = PhaseModel(rng.uniform(0, 1.2))
            for scheme in (Scheme.MPA, Scheme.EEPA):
                for strong, weak in pairs:
                    d = run_scheme_under(strong, weak, scheme, phase, policy)
                    if d.mode is not Mode.NOMA:
                        continue
                    targets = policy.resolve(strong, weak, phase)
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
        csi1, csi2 = csi_from_db(g1_db, g1_db - gap_db)
        phase = PhaseModel(delta)
        targets = policy.resolve(csi1, csi2, phase)
        for scheme in (Scheme.MPA, Scheme.EEPA):
            d = run_scheme_under(csi1, csi2, scheme, phase, policy)
            if d.mode is Mode.NOMA:
                assert d.rates.strong >= targets.r1_min - 1e-9
                assert d.rates.weak >= targets.r2_min - 1e-9
