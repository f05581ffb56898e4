import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risnoma.channel import EffectiveCsi, PhaseModel, sinc_sq
from risnoma.experiments import ExperimentConfig, ExperimentKind, syslevel_tables
from risnoma.mpa import TargetPolicy
from risnoma.pairing import Scheme, UserRecord, run_scheme
from risnoma.syslevel import (
    DeploymentConfig,
    RadioConfig,
    _build_drop,
    _scheme_arrays,
    associate_and_budget,
    drop_ppp,
    path_gain,
    run_campaign,
)

RADIO = RadioConfig()


def dense_associate_and_budget(users, bss, radio, side, seed):
    """associate_and_budget over the full users x BS distance matrix, the
    reference the grid-square candidates must reproduce exactly."""
    rng = np.random.default_rng(seed)
    disp = users[:, None, :] - bss[None, :, :]
    disp = (disp + side / 2.0) % side - side / 2.0
    dist = np.hypot(disp[..., 0], disp[..., 1])
    rx = radio.transmit_power * path_gain(dist, radio)
    serving = np.argmax(rx, axis=1)
    d_serving = dist[np.arange(len(users)), serving]
    composite = path_gain(np.abs(d_serving - radio.ris_offset_m), radio) * path_gain(
        radio.ris_offset_m, radio
    )
    order = np.lexsort((-composite, serving))
    counts = np.bincount(serving, minlength=len(bss))
    start = np.cumsum(counts) - counts
    k = rng.integers(0, np.maximum(counts // 2, 1))
    cells = np.flatnonzero(counts >= 2)
    tx = order[np.concatenate([start[cells] + k[cells], start[cells] + counts[cells] - 1 - k[cells]])]
    heard = rx[tx]
    heard[np.arange(len(tx)), np.concatenate([cells, cells])] = 0.0
    interference = heard.sum(axis=0)[serving]
    num = radio.transmit_power * composite * radio.ris_elements**2 * radio.bs_antennas
    return num / (interference + radio.noise_power), serving, interference


@st.composite
def layouts(draw):
    """1-60 BSs uniform on the window, users uniform plus users on the
    grid-square boundaries, at 0 and just below side, within
    min_distance_m of two BSs (a clamped tie) and across the wrap."""
    n_bs = draw(st.integers(1, 60))
    side = draw(st.floats(1.0, 4000.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bss = rng.uniform(0.0, side, (n_bs, 2))
    users = [rng.uniform(0.0, side, (draw(st.integers(0, 150)), 2))]
    g = math.isqrt(n_bs)
    edges = np.array([k * side / g for k in range(g)] + [np.nextafter(side, 0.0)])
    n_edge = draw(st.integers(0, 40))
    users.append(rng.choice(edges, (n_edge, 2)))
    users.append(np.column_stack([rng.choice(edges, n_edge), rng.uniform(0.0, side, n_edge)]))
    if n_bs >= 2 and draw(st.booleans()):
        # BS j within 2 m of BS i, across the wrap if i is moved to the edge
        i, j = rng.choice(n_bs, 2, replace=False)
        if draw(st.booleans()):
            bss[i, 0] = 0.4
        offset = rng.uniform(-0.9, 0.9, 2)
        bss[j] = (bss[i] + offset) % side
        mid = (bss[i] + offset / 2.0) % side
        users.append(mid + rng.uniform(-0.05, 0.05, (5, 2)))
        users.append(np.array([bss[i], bss[j]]))
    users = np.concatenate(users) % side  # points on the edge stay below side
    return users, bss, side, draw(st.integers(0, 2**32 - 1))


class TestDropPpp:
    def test_deterministic(self):
        a = drop_ppp(25.0, 1.0, 7)
        b = drop_ppp(25.0, 1.0, 7)
        assert np.array_equal(a, b)

    def test_window(self):
        pts = drop_ppp(2000.0, 1.0, 3)
        assert pts.shape[1] == 2
        assert pts.min() >= 0.0 and pts.max() <= 1000.0

    def test_area_scaling(self):
        pts = drop_ppp(100.0, 4.0, 5)
        assert pts.max() <= 2000.0

    def test_poisson_mean(self):
        counts = [len(drop_ppp(50.0, 1.0, s)) for s in range(2000)]
        mean = np.mean(counts)
        # 2000 samples of Poisson(50): SE of the mean ~ 0.16
        assert mean == pytest.approx(50.0, abs=0.8)
        assert np.var(counts) == pytest.approx(50.0, rel=0.1)

    def test_generator_chaining(self):
        rng = np.random.default_rng(9)
        a = drop_ppp(25.0, 1.0, rng)
        b = drop_ppp(25.0, 1.0, rng)
        assert a.shape != b.shape or not np.array_equal(a, b)


class TestPathGain:
    def test_intercept(self):
        assert 10 * math.log10(path_gain(1.0, RADIO)) == pytest.approx(-32.4)

    def test_hundred_meters(self):
        assert 10 * math.log10(path_gain(100.0, RADIO)) == pytest.approx(-92.4)

    def test_clamps_below_min_distance(self):
        assert path_gain(0.001, RADIO) == path_gain(RADIO.min_distance_m, RADIO)

    def test_monotone_decreasing(self):
        d = np.linspace(1.0, 500.0, 100)
        g = path_gain(d, RADIO)
        assert np.all(np.diff(g) < 0)

    def test_array_shape(self):
        d = np.ones((3, 4))
        assert path_gain(d, RADIO).shape == (3, 4)


class TestAssociation:
    def test_single_bs_no_interference(self):
        users = np.array([[100.0, 100.0], [500.0, 500.0]])
        bss = np.array([[120.0, 100.0]])
        gamma, serving, interference = associate_and_budget(users, bss, RADIO, 1000.0)
        assert np.all(serving == 0)
        assert np.all(interference == 0.0)
        assert np.all(gamma > 0.0)

    def test_gamma_formula(self):
        users = np.array([[100.0, 100.0]])
        bss = np.array([[150.0, 100.0]])
        gamma, _, _ = associate_and_budget(users, bss, RADIO, 1000.0)
        d_user_ris = 50.0 - RADIO.ris_offset_m
        composite = path_gain(d_user_ris, RADIO) * path_gain(RADIO.ris_offset_m, RADIO)
        expected = (
            RADIO.transmit_power
            * composite
            * RADIO.ris_elements**2
            * RADIO.bs_antennas
            / RADIO.noise_power
        )
        assert gamma[0] == pytest.approx(expected, rel=1e-12)

    def test_nearest_bs_wins(self):
        users = np.array([[100.0, 100.0]])
        bss = np.array([[400.0, 100.0], [150.0, 100.0]])
        _, serving, _ = associate_and_budget(users, bss, RADIO, 1000.0)
        assert serving[0] == 1

    def test_tie_goes_to_lower_index(self):
        users = np.array([[200.0, 100.0]])
        bss = np.array([[100.0, 100.0], [300.0, 100.0]])
        _, serving, _ = associate_and_budget(users, bss, RADIO, 1000.0)
        assert serving[0] == 0

    def test_toroidal_wraparound(self):
        users = np.array([[990.0, 500.0]])
        bss = np.array([[10.0, 500.0], [500.0, 500.0]])
        _, serving, _ = associate_and_budget(users, bss, RADIO, 1000.0)
        # 20 m across the wrap beats 490 m in the interior
        assert serving[0] == 0

    def test_interference_sums_other_cells(self):
        # cells A and B hold one pair each, cell C one lone (silent) user;
        # interference is what the serving BS hears from the other cells'
        # pairs, not what the user delivers at the other BSs
        bss = np.array([[200.0, 200.0], [800.0, 200.0], [200.0, 1200.0]])
        a = np.array([[230.0, 200.0], [200.0, 300.0]])
        b = np.array([[800.0, 250.0], [700.0, 200.0]])
        c = np.array([[200.0, 1250.0]])
        users = np.concatenate([a, b, c])

        def heard(pts, bs):
            d = [math.hypot(*(p - bs)) for p in pts]
            return float(np.sum(RADIO.transmit_power * path_gain(np.array(d), RADIO)))

        _, serving, interference = associate_and_budget(users, bss, RADIO, 2000.0)
        assert list(serving) == [0, 0, 1, 1, 2]
        at_a, at_b = heard(b, bss[0]), heard(a, bss[1])
        at_c = heard(a, bss[2]) + heard(b, bss[2])
        assert interference == pytest.approx([at_a, at_a, at_b, at_b, at_c], rel=1e-12, abs=0.0)
        # differs from the interference user 0 causes at the BSs it does not use
        caused = heard(a[:1], bss[1]) + heard(a[:1], bss[2])
        assert abs(interference[0] - caused) > 0.5 * caused

    def test_interferers_are_one_pair_per_cell(self):
        # a four-user cell co-schedules its (1st, 4th) or its (2nd, 3rd)
        # strongest users; the draw follows the seed
        bss = np.array([[200.0, 200.0], [800.0, 200.0]])
        a = np.array([[230.0, 200.0], [200.0, 260.0], [140.0, 200.0], [200.0, 100.0]])
        b = np.array([[800.0, 250.0], [900.0, 200.0]])
        users = np.concatenate([a, b])
        at_b = RADIO.transmit_power * path_gain(np.hypot(*(a - bss[1]).T), RADIO)
        pairs = {at_b[0] + at_b[3], at_b[1] + at_b[2]}
        seen = set()
        for seed in range(20):
            _, serving, interference = associate_and_budget(users, bss, RADIO, 2000.0, seed)
            assert list(serving) == [0, 0, 0, 0, 1, 1]
            match = [p for p in pairs if interference[4] == pytest.approx(p, rel=1e-12, abs=0.0)]
            assert len(match) == 1 and interference[5] == interference[4]
            seen.add(match[0])
        assert seen == pairs
        again = associate_and_budget(users, bss, RADIO, 2000.0, np.random.default_rng(7))[2]
        assert np.array_equal(again, associate_and_budget(users, bss, RADIO, 2000.0, 7)[2])

    def test_no_bs(self):
        with pytest.raises(ValueError):
            associate_and_budget(np.zeros((1, 2)), np.zeros((0, 2)), RADIO, 1000.0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(layout=layouts())
    def test_matches_dense_reference(self, layout):
        users, bss, side, seed = layout
        got = associate_and_budget(users, bss, RADIO, side, seed)
        want = dense_associate_and_budget(users, bss, RADIO, side, seed)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_no_users_by_bs_array(self):
        rng = np.random.default_rng(0)
        side = 4000.0
        users = rng.uniform(0.0, side, (20_000, 2))
        bss = rng.uniform(0.0, side, (400, 2))
        tracemalloc.start()
        try:
            associate_and_budget(users, bss, RADIO, side)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense users x BS displacement alone is 20k * 400 * 2 * 8 B = 128 MB
        assert peak < 32e6


class TestBuildDrop:
    def test_deterministic(self):
        deploy = DeploymentConfig(seed=4, drops=1)
        a = _build_drop(deploy, RADIO, 0)
        b = _build_drop(deploy, RADIO, 0)
        assert np.array_equal(a.pair_gamma_strong, b.pair_gamma_strong)

    @pytest.mark.parametrize("user_density", [40.0, 2000.0])
    def test_pairs_match_per_cell_loop(self, user_density):
        # the per-BS loop is the reference: pair k of a cell joins its
        # k-th strongest and k-th weakest user; 40 users per km^2 leaves
        # cells empty, lone and odd
        deploy = DeploymentConfig(user_density=user_density, seed=6, drops=4)
        for index in range(deploy.drops):
            drop = _build_drop(deploy, RADIO, index)
            rng = np.random.default_rng([deploy.seed, index])
            bss = drop_ppp(deploy.bs_density, deploy.area_km2, rng)
            users = drop_ppp(deploy.user_density, deploy.area_km2, rng)
            gamma, serving, _ = associate_and_budget(users, bss, RADIO, deploy.side_m, rng)
            strong, weak, lone = [], [], 0
            for b in range(len(bss)):
                g = np.sort(gamma[serving == b])[::-1]
                half = len(g) // 2
                strong.append(g[:half])
                weak.append(g[len(g) - half :][::-1])
                lone += len(g) % 2
            assert np.array_equal(drop.pair_gamma_strong, np.concatenate(strong))
            assert np.array_equal(drop.pair_gamma_weak, np.concatenate(weak))
            assert drop.lone_users == lone

    @staticmethod
    def user_gammas(deploy, index):
        """Every user's effective CSI in drop `index`, drawn as `_build_drop` draws it."""
        rng = np.random.default_rng([deploy.seed, index])
        bss = drop_ppp(deploy.bs_density, deploy.area_km2, rng)
        users = drop_ppp(deploy.user_density, deploy.area_km2, rng)
        return associate_and_budget(users, bss, RADIO, deploy.side_m, rng)[0]

    def test_pair_structure(self):
        deploy = DeploymentConfig(seed=1, drops=1)
        drop = _build_drop(deploy, RADIO, 0)
        assert np.all(drop.pair_gamma_strong >= drop.pair_gamma_weak)
        paired = 2 * len(drop.pair_gamma_strong)
        assert paired + drop.lone_users == len(self.user_gammas(deploy, 0))

    def test_csi_calibration(self):
        # the default deployment's user CSI must reach the single-digit-dB
        # range of the closed-form examples and beyond; only the few users
        # close to their serving RIS get there (19 of 2024 in 2-8 dB here);
        # the median user sits near -25 dB, the median pair at -19/-31 dB
        db = 10 * np.log10(self.user_gammas(DeploymentConfig(seed=1, drops=1), 0))
        assert np.all(np.isfinite(db))
        assert np.any((db >= 2.0) & (db <= 8.0))
        assert db.max() > 8.0 and db.min() < 2.0


class TestSchemeArrays:
    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("delta", [0.0, 0.4, 1.2])
    def test_matches_scalar_path(self, scheme, delta):
        rng = np.random.default_rng(21)
        g1_db = rng.uniform(0, 25, 60)
        g2_db = g1_db - rng.uniform(0.5, 15, 60)
        g1 = 10 ** (g1_db / 10)
        g2 = 10 ** (g2_db / 10)
        phase = PhaseModel(delta)
        policy = TargetPolicy.oma_at_reference(0.0)
        r1, r2, ee = _scheme_arrays(scheme, g1, g2, phase.degradation, policy)
        for k in range(len(g1)):
            users = [UserRecord(0, EffectiveCsi(g1[k])), UserRecord(1, EffectiveCsi(g2[k]))]
            d = run_scheme(users, scheme, phase, policy).decisions[0]
            assert r1[k] == pytest.approx(d.rates.strong, abs=1e-7)
            assert r2[k] == pytest.approx(d.rates.weak, abs=1e-7)
            assert ee[k] == pytest.approx(d.ee, abs=1e-6)

    def test_eepa_zero_ee_falls_back_to_oma(self, monkeypatch):
        # every other feasible pair gets lambda* = 0 from the solver: those
        # must report OMA's rates and EE, the others the solver's
        import risnoma.syslevel as syslevel

        solve = syslevel.dinkelbach_batch

        def zero_every_other(*args):
            a1, a2, lam = solve(*args)
            lam[::2] = 0.0
            return a1, a2, lam

        g1 = 10 ** (np.linspace(15, 25, 8) / 10)
        g2 = 10 ** (np.linspace(-5, 5, 8) / 10)
        s, policy = sinc_sq(0.3), TargetPolicy.oma_at_reference(0.0)
        real = _scheme_arrays(Scheme.EEPA, g1, g2, s, policy)
        oma = _scheme_arrays(Scheme.OMA, g1, g2, s, policy)
        monkeypatch.setattr(syslevel, "dinkelbach_batch", zero_every_other)
        patched = _scheme_arrays(Scheme.EEPA, g1, g2, s, policy)
        assert np.all(real[2] != oma[2])  # all eight pairs are EEPA NOMA pairs
        for got, want, ref in zip(patched, real, oma):
            np.testing.assert_array_equal(got[::2], ref[::2])
            np.testing.assert_array_equal(got[1::2], want[1::2])

    @pytest.mark.parametrize("delta", [0.0, 0.6, 1.5, 2.9])
    def test_srm_weak_rate_below_oma_closed_form(self, delta):
        # SRM's alpha2 = min(sqrt(1+G1)/G2, 1) puts the weak user below its
        # OMA rate iff G2 > 2 sqrt(1+G1) + (1+G1) sinc^2(delta); never at
        # delta = 0 (G2 <= G1), on both sides of the boundary at larger
        # delta once Gamma2 reaches the tens of dB
        rng = np.random.default_rng(22)
        g1 = 10 ** (rng.uniform(0, 45, 2000) / 10)
        g2 = g1 * 10 ** (-rng.uniform(0, 12, 2000) / 10)
        s = sinc_sq(delta)
        policy = TargetPolicy.oma_at_reference(0.0)
        _, r2_srm, _ = _scheme_arrays(Scheme.SRM, g1, g2, s, policy)
        _, r2_oma, _ = _scheme_arrays(Scheme.OMA, g1, g2, s, policy)
        margin = g2 - (2.0 * np.sqrt(1.0 + g1) + (1.0 + g1) * s)
        decisive = np.abs(margin) >= 1e-9
        below = r2_srm < r2_oma
        assert np.array_equal(below[decisive], margin[decisive] > 0)
        assert below.any() == (delta > 0) and not below.all()


@pytest.fixture(scope="module")
def small_table():
    deploy = DeploymentConfig(bs_density=10, user_density=300, seed=2, drops=5)
    return run_campaign(deploy, RADIO, list(Scheme), [0.0, 0.5, 1.0, 1.5], cdf_delta=0.5)


class TestRunCampaign:
    def test_deterministic(self, small_table):
        deploy = DeploymentConfig(bs_density=10, user_density=300, seed=2, drops=5)
        again = run_campaign(deploy, RADIO, list(Scheme), [0.0, 0.5, 1.0, 1.5], cdf_delta=0.5)
        assert again.rows == small_table.rows

    def test_row_structure(self, small_table):
        assert len(small_table.rows) == 4 * len(Scheme)
        for row in small_table.rows:
            assert row["mean_asr"] == pytest.approx(row["mean_r1"] + row["mean_r2"], abs=1e-9)
            assert row["n_pairs"] == small_table.n_pairs

    def test_monotone_in_delta(self, small_table):
        for scheme in Scheme:
            means = [r["mean_asr"] for r in small_table.rows if r["scheme"] == scheme.value]
            assert all(a >= b - 1e-9 for a, b in zip(means, means[1:]))

    def test_cdf_samples(self, small_table):
        assert small_table.cdf_delta == 0.5
        for scheme in Scheme:
            samples = small_table.cdf[scheme.value]
            assert len(samples) == small_table.n_pairs
            assert np.all(np.diff(samples) >= 0)

    def test_cdf_matches_mean(self, small_table):
        for row in small_table.rows:
            if row["delta"] == 0.5:
                assert small_table.cdf[row["scheme"]].mean() == pytest.approx(
                    row["mean_asr"], abs=1e-9
                )

    def test_oma_invariant_under_scheme_order(self):
        deploy = DeploymentConfig(bs_density=10, user_density=200, seed=3, drops=3)
        a = run_campaign(deploy, RADIO, [Scheme.OMA, Scheme.MPA], [0.3])
        b = run_campaign(deploy, RADIO, [Scheme.MPA, Scheme.OMA], [0.3])
        row_a = next(r for r in a.rows if r["scheme"] == "oma")
        row_b = next(r for r in b.rows if r["scheme"] == "oma")
        assert row_a == row_b

    def test_srm_equals_mpa_at_zero(self):
        deploy = DeploymentConfig(bs_density=10, user_density=200, seed=3, drops=3)
        table = run_campaign(deploy, RADIO, [Scheme.SRM, Scheme.MPA], [0.0])
        srm = next(r for r in table.rows if r["scheme"] == "srm")
        mpa = next(r for r in table.rows if r["scheme"] == "mpa")
        assert srm["mean_asr"] == pytest.approx(mpa["mean_asr"], abs=1e-9)

    def test_validation(self):
        deploy = DeploymentConfig(bs_density=10, user_density=200, seed=3, drops=1)
        with pytest.raises(ValueError):
            run_campaign(deploy, RADIO, [], [0.0])
        with pytest.raises(ValueError):
            run_campaign(deploy, RADIO, [Scheme.OMA], [])


class TestConfigValidation:
    def test_deployment(self):
        with pytest.raises(ValueError):
            DeploymentConfig(bs_density=0)
        with pytest.raises(ValueError):
            DeploymentConfig(drops=0)

    def test_radio(self):
        with pytest.raises(ValueError):
            RadioConfig(bs_antennas=0)
        with pytest.raises(ValueError):
            RadioConfig(pathloss_exponent=1.5)
        with pytest.raises(ValueError):
            RadioConfig(noise_power=0.0)

    def test_side(self):
        assert DeploymentConfig(area_km2=4.0).side_m == pytest.approx(2000.0)


class TestSyslevelTables:
    def test_cdf_from_sorted_samples(self):
        deploy = DeploymentConfig(bs_density=10, user_density=300, seed=2, drops=5)
        schemes = (Scheme.OMA, Scheme.MPA, Scheme.SRM)
        cfg = ExperimentConfig(
            kind=ExperimentKind.SYSLEVEL,
            delta_deg=(0.0, 20.0),
            schemes=schemes,
            deploy=deploy,
            cdf_delta_deg=20.0,
        )
        _, cdf = syslevel_tables(cfg)
        drops = [_build_drop(deploy, RADIO, k) for k in range(deploy.drops)]
        g1 = np.concatenate([d.pair_gamma_strong for d in drops if d is not None])
        g2 = np.concatenate([d.pair_gamma_weak for d in drops if d is not None])
        n = len(g1)
        assert len(cdf.rows) == len(schemes) * n
        levels = np.array([(i + 1) / n for i in range(n)])
        s = sinc_sq(math.radians(20.0))
        for k, scheme in enumerate(schemes):
            part = slice(k * n, (k + 1) * n)
            assert cdf.data["scheme"][part] == [scheme.value] * n
            assert np.array_equal(cdf.data["cdf"][part].view(np.int64), levels.view(np.int64))
            r1, r2, _ = _scheme_arrays(scheme, g1, g2, s, TargetPolicy.oma_at_reference(0.0))
            assert np.array_equal(cdf.data["asr"][part], np.sort(r1 + r2))
