import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from risnoma import syslevel
from risnoma.channel import EffectiveCsi, PhaseModel, sinc_sq
from risnoma.experiments import ExperimentConfig, ExperimentKind, syslevel_tables
from risnoma.mpa import Mode, PolicyKind, TargetPolicy
from risnoma.pairing import KERNELS, Scheme
from risnoma.syslevel import (
    BLOCK_INSTANCES,
    _mean_se,
    DeploymentConfig,
    RadioConfig,
    associate_and_budget,
    campaign_pairs,
    drop_ppp,
    path_gain,
    run_campaign,
)
from oracles import grid_candidates_dense, kernel_decision, run_campaign_per_delta, run_scheme_under

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
    strong, weak = [], []
    for b in range(len(bss)):  # each cell's users by composite gain, strongest first
        ranked = order[start[b] : start[b] + counts[b]]
        strong.append(ranked[: counts[b] // 2])
        weak.append(ranked[::-1][: counts[b] // 2])
    gamma = num / (interference + radio.noise_power)
    return gamma, serving, interference, np.concatenate(strong), np.concatenate(weak)


def per_cell_pairs(gamma, serving, n_bs):
    """The per-BS loop: pair k of a cell joins its k-th largest and k-th
    smallest Gamma. Returns the pairs' (Gamma1, Gamma2), cell by cell,
    and the number of unpaired users."""
    strong, weak, lone = [], [], 0
    for b in range(n_bs):
        g = np.sort(gamma[serving == b])[::-1]
        half = len(g) // 2
        strong.append(g[:half])
        weak.append(g[len(g) - half :][::-1])
        lone += len(g) % 2
    return np.concatenate(strong), np.concatenate(weak), lone


def drawn_positions(deploy, index):
    """Drop `index` of the campaign as campaign_pairs draws it: its BS and
    user positions, and the generator that goes on to draw its interferers."""
    rng = np.random.default_rng([deploy.seed, index])
    bss = drop_ppp(deploy.bs_density, deploy.area_km2, rng)
    users = drop_ppp(deploy.user_density, deploy.area_km2, rng)
    return bss, users, rng


def drawn_drop(deploy, index, radio=RADIO):
    """Drop `index` of the campaign, drawn as campaign_pairs draws it:
    associate_and_budget's (gamma, serving) and the number of BSs, or None
    for a drop with no BS or fewer than two users, which is not associated."""
    bss, users, rng = drawn_positions(deploy, index)
    if len(bss) == 0 or len(users) < 2:
        return None
    gamma, serving, _, _, _ = associate_and_budget(users, bss, radio, deploy.side_m, rng)
    return gamma, serving, len(bss)


def per_drop_pairs(deploy, radio=RADIO):
    """campaign_pairs' (g1, g2, skipped_drops, lone_users) drop by drop,
    each drop paired by the per-BS loop: a drop that forms no pair is
    skipped, and only a drop that forms pairs counts its unpaired users."""
    strong, weak, skipped, lone = [], [], 0, 0
    for index in range(deploy.drops):
        drop = drawn_drop(deploy, index, radio)
        g1, g2, unpaired = per_cell_pairs(*drop) if drop is not None else ([], [], 0)
        if len(g1) == 0:
            skipped += 1
            continue
        strong.append(g1)
        weak.append(g2)
        lone += unpaired
    return np.concatenate(strong), np.concatenate(weak), skipped, lone


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


class TestPppLaws:
    """The drop stage follows the PPP laws: users attach to their nearest BS
    at the distance law of a Poisson field of BSs, and cells hold users in
    proportion to Poisson-Voronoi areas."""

    @staticmethod
    def associated_drops(deploy):
        """(users, bss, serving) of each drop the campaign associates."""
        for index in range(deploy.drops):
            bss, users, rng = drawn_positions(deploy, index)
            if len(bss) == 0 or len(users) < 2:
                continue
            _, serving, _, _, _ = associate_and_budget(users, bss, RADIO, deploy.side_m, rng)
            yield users, bss, serving

    def test_serving_distance_law(self):
        # P(R <= r) = 1 - exp(-lambda pi r^2). One user per drop keeps the
        # sample independent: the users of one drop share its BSs, and 20
        # default drops' 40k users read D = 0.011-0.014 on seeds 0-3,
        # above the independent-sample 1% value of 0.0081
        deploy = DeploymentConfig(seed=0, drops=400, user_density=10.0)
        side = deploy.side_m
        r = np.sort([syslevel._torus_dist(u[:1], b[s[:1]], side)[0] for u, b, s in self.associated_drops(deploy)])
        n = len(r)
        law = -np.expm1(-deploy.bs_density * 1e-6 * math.pi * r**2)
        d = max((np.arange(1, n + 1) / n - law).max(), (law - np.arange(n) / n).max())
        assert n > 390
        assert d < 1.63 / math.sqrt(n)  # Kolmogorov-Smirnov at 1%

    def test_cell_size_dispersion(self):
        # user counts per cell: CV^2 = 0.28 (Poisson-Voronoi area) + 1/mean
        # (Poisson users); over seeds 0-19 the 10,000-cell estimate lies
        # within 0.013 of it, standard deviation 0.0045
        deploy = DeploymentConfig(seed=0, drops=100, area_km2=4.0, user_density=1000.0)
        sizes = np.concatenate(
            [np.bincount(s, minlength=len(b)) for _, b, s in self.associated_drops(deploy)]
        )
        mean = sizes.mean()
        assert len(sizes) > 9000
        assert sizes.var() / mean**2 == pytest.approx(0.28 + 1.0 / mean, abs=0.02)


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
        gamma, serving, interference, _, _ = associate_and_budget(users, bss, RADIO, 1000.0)
        assert np.all(serving == 0)
        assert np.all(interference == 0.0)
        assert np.all(gamma > 0.0)

    def test_gamma_formula(self):
        users = np.array([[100.0, 100.0]])
        bss = np.array([[150.0, 100.0]])
        gamma, _, _, _, _ = associate_and_budget(users, bss, RADIO, 1000.0)
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
        _, serving, _, _, _ = associate_and_budget(users, bss, RADIO, 1000.0)
        assert serving[0] == 1

    def test_tie_goes_to_lower_index(self):
        users = np.array([[200.0, 100.0]])
        bss = np.array([[100.0, 100.0], [300.0, 100.0]])
        _, serving, _, _, _ = associate_and_budget(users, bss, RADIO, 1000.0)
        assert serving[0] == 0

    def test_toroidal_wraparound(self):
        users = np.array([[990.0, 500.0]])
        bss = np.array([[10.0, 500.0], [500.0, 500.0]])
        _, serving, _, _, _ = associate_and_budget(users, bss, RADIO, 1000.0)
        # 20 m across the wrap beats 490 m in the interior
        assert serving[0] == 0

    @pytest.mark.parametrize("side", [1.0, 3.7, 1000.0, math.sqrt(12.0) * 1000.0, 10_000.0])
    def test_torus_dist_matches_modulo_form(self, side):
        # every pair of the points below, both ways round and each point
        # with itself: random points, points at 0, at side - ulp and
        # around side / 2 (offsets of exactly +-side / 2, and a hair over,
        # where side / 2 + offset is a hair below 0 and % side rounds up to side)
        rng = np.random.default_rng(8)
        marks = [0.0, np.nextafter(side, 0.0), side / 4.0, side / 2.0, 0.75 * side,
                 np.nextafter(side / 2.0, 0.0), np.nextafter(side / 2.0, side)]
        marks = np.array(marks + list(rng.uniform(0.0, side, 13)))
        points = np.stack(np.meshgrid(marks, marks), axis=-1).reshape(-1, 2)
        got = syslevel._torus_dist(points[:, None, :], points, side)
        disp = points[:, None, :] - points
        disp = (disp + side / 2.0) % side - side / 2.0  # the offsets wrapped by %
        want = np.hypot(disp[..., 0], disp[..., 1])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert np.all(np.diag(got) == 0.0)
        assert syslevel._torus_dist(points, points[::-1], side).tobytes() == np.diag(want[:, ::-1]).tobytes()

    def test_tie_across_the_wrap_goes_to_lower_index(self):
        # each user is 250 m from both BSs, once through the interior and
        # once across the wrap
        users = np.array([[250.0, 0.0], [750.0, 0.0]])
        bss = np.array([[0.0, 0.0], [500.0, 0.0]])
        _, serving, _, _, _ = associate_and_budget(users, bss, RADIO, 1000.0)
        assert list(serving) == [0, 0]

    def test_positions_outside_the_window_wrap(self):
        # multiples of 1/8 m, so that shifting by a whole side is exact
        rng = np.random.default_rng(3)
        side = 1000.0
        users = rng.integers(0, 8000, (400, 2)) / 8.0
        bss = rng.integers(0, 8000, (30, 2)) / 8.0
        want = associate_and_budget(users, bss, RADIO, side, 5)
        mixed = rng.integers(-1, 2, users.shape) * side, rng.integers(-1, 2, bss.shape) * side
        for shift_users, shift_bss in ((side, -side), (-side, side), mixed):
            got = associate_and_budget(users + shift_users, bss + shift_bss, RADIO, side, 5)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

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

        _, serving, interference, _, _ = associate_and_budget(users, bss, RADIO, 2000.0)
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
            _, serving, interference, _, _ = associate_and_budget(users, bss, RADIO, 2000.0, seed)
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
        assert peak < 20e6

    def test_nearest_bs_takes_users_in_slices(self):
        rng = np.random.default_rng(0)
        side = 4000.0
        users = rng.uniform(0.0, side, (20_000, 2))
        bss = rng.uniform(0.0, side, (400, 2))
        tracemalloc.start()
        try:
            syslevel._nearest_bs(users, bss, RADIO, side)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # all users' candidates at once, 20k x about 20 x 8 B per array, took 21.6 MB
        assert peak < 6e6

    def test_grid_candidates_take_squares_in_slices(self):
        rng = np.random.default_rng(0)
        side = 10_000.0
        users = rng.uniform(0.0, side, (20_000, 2))
        bss = rng.uniform(0.0, side, (2_520, 2))
        tracemalloc.start()
        try:
            got = syslevel._grid_candidates(users, bss, RADIO, side)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 2,500 squares x 2,520 BS array, its mask and argsort peaked at 144 MiB
        assert peak < 10 * 2**20
        for a, b in zip(got, grid_candidates_dense(users, bss, RADIO, side)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(layout=layouts(), block=st.sampled_from([1, 7, 100, syslevel.BLOCK_INSTANCES]))
    def test_grid_candidates_match_one_array_search(self, layout, block):
        users, bss, side, _ = layout
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(syslevel, "BLOCK_INSTANCES", block)
            got = syslevel._grid_candidates(users, bss, RADIO, side)
        for a, b in zip(got, grid_candidates_dense(users, bss, RADIO, side)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(layout=layouts())
    def test_user_slices_leave_outputs_unchanged(self, layout):
        users, bss, side, seed = layout
        want = associate_and_budget(users, bss, RADIO, side, seed)
        for block in (1, 7):  # one user per slice, and a few
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(syslevel, "BLOCK_INSTANCES", block)
                got = associate_and_budget(users, bss, RADIO, side, seed)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)


class TestBuildDrop:
    """The pairs campaign_pairs builds from each drop."""

    def test_deterministic(self):
        deploy = DeploymentConfig(seed=4, drops=1)
        a = campaign_pairs(deploy, RADIO)
        b = campaign_pairs(deploy, RADIO)
        assert np.array_equal(a[0], b[0])

    @pytest.mark.parametrize("user_density", [40.0, 2000.0])
    def test_pairs_match_per_cell_loop(self, user_density):
        # the per-BS loop is the reference: pair k of a cell joins its
        # k-th strongest and k-th weakest user; 40 users per km^2 leaves
        # cells empty, lone and odd
        deploy = DeploymentConfig(user_density=user_density, seed=6, drops=4)
        g1, g2, skipped, lone = campaign_pairs(deploy, RADIO)
        strong, weak, want_skipped, want_lone = per_drop_pairs(deploy)
        assert np.array_equal(g1, strong)
        assert np.array_equal(g2, weak)
        assert (skipped, lone) == (want_skipped, want_lone)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(layout=layouts(), copies=st.integers(1, 40), copy_seed=st.integers(0, 2**32 - 1))
    def test_tied_users_pair_as_sorted_gamma(self, layout, copies, copy_seed):
        # users repeated at one position (equal composite gain and Gamma,
        # within a cell and over several), a hair off it, and at the same
        # offset on the other side of a BS; the drop's pairs take the
        # composite ranking, the reference sorts each cell's Gamma
        users, bss, side, seed = layout
        assume(len(users) >= 1)
        rng = np.random.default_rng(copy_seed)
        pick = rng.integers(0, len(users), copies)
        near = np.nextafter(users[pick[: copies // 2]], 0.0)
        mirror = 2.0 * bss[rng.integers(0, len(bss), copies)] - users[pick]
        users = np.concatenate([users, users[pick], near, mirror]) % side
        deploy = DeploymentConfig(area_km2=(side / 1000.0) ** 2, seed=seed)
        gamma, serving, _, _, _ = associate_and_budget(
            users, bss, RADIO, deploy.side_m, np.random.default_rng([deploy.seed, 0]))
        assert len(np.unique(gamma)) < len(gamma)  # the copies tie
        strong, weak, lone = per_cell_pairs(gamma, serving, len(bss))
        for block in (1, 7, BLOCK_INSTANCES):
            drawn = iter([bss, users])  # campaign_pairs draws the BSs, then the users
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(syslevel, "BLOCK_INSTANCES", block)
                mp.setattr(syslevel, "drop_ppp", lambda *_: next(drawn))
                g1, g2, _, got_lone = campaign_pairs(deploy, RADIO)
            assert g1.tobytes() == strong.tobytes()
            assert g2.tobytes() == weak.tobytes()
            assert got_lone == lone

    def test_pair_structure(self):
        deploy = DeploymentConfig(seed=1, drops=1)
        g1, g2, _, lone = campaign_pairs(deploy, RADIO)
        assert np.all(g1 >= g2)
        paired = 2 * len(g1)
        assert paired + lone == len(drawn_drop(deploy, 0)[0])

    def test_csi_calibration(self):
        # the default deployment's user CSI must reach the single-digit-dB
        # range of the closed-form examples and beyond; only the few users
        # close to their serving RIS get there (19 of 2024 in 2-8 dB here);
        # the median user sits near -25 dB, the median pair at -19/-31 dB
        db = 10 * np.log10(drawn_drop(DeploymentConfig(seed=1, drops=1), 0)[0])
        assert np.all(np.isfinite(db))
        assert np.any((db >= 2.0) & (db <= 8.0))
        assert db.max() > 8.0 and db.min() < 2.0


class TestCampaignPairs:
    """campaign_pairs and run_campaign's counts against the per-drop
    reference, and the stage's three pair checks."""

    @pytest.mark.parametrize(
        "deploy, counts",
        [
            # drop 2 has no BS
            (DeploymentConfig(drops=4, bs_density=0.5), (2976, 1, 0)),
            # drops without a BS or with fewer than two users, and drop 1,
            # whose two users are alone in their cells: not lone, skipped
            (DeploymentConfig(drops=6, bs_density=1, user_density=1), (1, 5, 1)),
            # drop 1's four users are alone in four cells; drop 3 has one lone user
            (DeploymentConfig(drops=4, bs_density=3, user_density=3), (3, 2, 1)),
        ],
        ids=["no-bs", "few-users", "no-cell-of-two"],
    )
    def test_counts_match_per_drop_reference(self, deploy, counts):
        # (pairs, skipped drops, lone users)
        g1, g2, skipped, lone = campaign_pairs(deploy, RADIO)
        strong, weak, want_skipped, want_lone = per_drop_pairs(deploy)
        assert g1.tobytes() == strong.tobytes() and g2.tobytes() == weak.tobytes()
        assert (len(g1), skipped, lone) == (len(strong), want_skipped, want_lone) == counts
        table = run_campaign(deploy, RADIO, [Scheme.OMA], [0.0])
        assert (table.n_pairs, table.skipped_drops, table.lone_users) == counts

    @pytest.mark.parametrize(
        "deploy, radio, message",
        [
            (DeploymentConfig(drops=1, bs_density=0.001, user_density=1), RADIO, "no pairs produced by any drop"),
            # every composite gain underflows to 0, so every Gamma is 0
            (DeploymentConfig(bs_density=10, user_density=200, seed=3, drops=1), RadioConfig(pathloss_exponent=100.0),
             "degenerate channel"),
            # a drop with one BS hears no interference
            (DeploymentConfig(bs_density=1, user_density=30, drops=1), RadioConfig(transmit_power=10 ** 287.0),
             "exceeds 1000 dB"),
        ],
        ids=["no-pairs", "degenerate", "gamma-bound"],
    )
    def test_pair_checks(self, deploy, radio, message):
        with pytest.raises(ValueError, match=message):
            campaign_pairs(deploy, radio)
        with pytest.raises(ValueError, match="schemes must be non-empty"):  # run_campaign checks its arguments first
            run_campaign(deploy, radio, [], [0.0])


POLICIES = (
    TargetPolicy.oma_at_reference(0.0),
    TargetPolicy.oma_at_current(),
    TargetPolicy.explicit(0.8, 0.4),
)


def kernel_arrays(scheme, g1, g2, s, policy=TargetPolicy.oma_at_reference(0.0)):
    """A scheme's kernel on every pair, each output broadcast to the pairs."""
    out = kernel_decision(scheme, g1, g2, *policy.rates(g1, g2, s), s)
    return [np.broadcast_to(x, np.shape(g1)) for x in out]


class TestSchemeArrays:
    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("delta", [0.0, 0.4, 1.2])
    def test_matches_scalar_path(self, scheme, delta):
        # under each target policy, the kernel on all 60 pairs equals, bit
        # for bit, the kernel on each pair's shape-() values, and
        # run_scheme's decision for the pair, iterations included, is the latter's
        rng = np.random.default_rng(21)
        g1_db = rng.uniform(0, 25, 60)
        g2_db = g1_db - rng.uniform(0.5, 15, 60)
        g1 = 10 ** (g1_db / 10)
        g2 = 10 ** (g2_db / 10)
        phase = PhaseModel(delta)
        s = phase.degradation
        for policy in POLICIES:
            r1_min, r2_min = policy.rates(g1, g2, s)
            batch = np.array(kernel_arrays(scheme, g1, g2, s, policy), dtype=float)
            for k in range(len(g1)):
                one = kernel_decision(scheme, g1[k], g2[k], r1_min[k], r2_min[k], s)
                assert np.array(one, dtype=float).tobytes() == batch[:, k].tobytes()
                csi = EffectiveCsi(g1[k]), EffectiveCsi(g2[k])
                d = run_scheme_under(*csi, scheme, phase, policy)
                fields = [d.mode is Mode.NOMA, d.alpha1, d.alpha2, d.rates.strong, d.rates.weak, d.asr, d.ee,
                          d.iterations or 0]
                assert np.array(fields, dtype=float).tobytes() == batch[:, k].tobytes()

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_delta_grid_matches_per_delta_calls(self, scheme):
        # under each target policy, the kernel on a (delta x pair) grid, x a
        # row per delta, equals its 1-D call at each delta bit for bit, all
        # eight outputs; on the grid EEPA hands dinkelbach_batch the
        # instances of several deltas in one call
        rng = np.random.default_rng(23)
        g1 = 10 ** (rng.uniform(0, 25, 60) / 10)
        g2 = g1 * 10 ** (-rng.uniform(0.5, 15, 60) / 10)
        s = np.array([sinc_sq(d) for d in (0.0, 0.4, 0.9, 1.2, 2.0, 2.9)])[:, None]
        for policy in POLICIES:
            out = kernel_decision(scheme, g1, g2, *policy.rates(g1, g2, s), s)
            grid = [np.broadcast_to(x, (len(s), len(g1))) for x in out]
            for i in range(len(s)):
                for got, want in zip(grid, kernel_arrays(scheme, g1, g2, float(s[i, 0]), policy)):
                    assert got[i].dtype == want.dtype and got[i].tobytes() == want.tobytes()
            if scheme is Scheme.EEPA:
                assert (grid[7] > 0).any(axis=1).sum() >= 2

    def test_eepa_zero_ee_falls_back_to_oma(self, monkeypatch):
        # every other feasible pair gets lambda* = 0 from the solver: those
        # must report OMA's decision, the others the solver's
        import risnoma.eepa as eepa

        solve = eepa.dinkelbach_batch

        def zero_every_other(*args):
            a1, a2, lam, iterations = solve(*args)
            lam[::2] = 0.0
            return a1, a2, lam, iterations

        g1 = 10 ** (np.linspace(15, 25, 8) / 10)
        g2 = 10 ** (np.linspace(-5, 5, 8) / 10)
        s = sinc_sq(0.3)
        real = kernel_arrays(Scheme.EEPA, g1, g2, s)
        oma = kernel_arrays(Scheme.OMA, g1, g2, s)
        monkeypatch.setattr(eepa, "dinkelbach_batch", zero_every_other)
        patched = kernel_arrays(Scheme.EEPA, g1, g2, s)
        assert np.all(real[0]) and np.all(real[6] != oma[6])  # eight EEPA NOMA pairs
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
        r2_srm = kernel_arrays(Scheme.SRM, g1, g2, s)[4]
        r2_oma = kernel_arrays(Scheme.OMA, g1, g2, s)[4]
        margin = g2 - (2.0 * np.sqrt(1.0 + g1) + (1.0 + g1) * s)
        decisive = np.abs(margin) >= 1e-9
        below = r2_srm < r2_oma
        assert np.array_equal(below[decisive], margin[decisive] > 0)
        assert below.any() == (delta > 0) and not below.all()


@pytest.mark.parametrize("rows", [1, 18])
@pytest.mark.parametrize("n", [1, 2, 3, 1003, 19927])
def test_mean_se_from_one_sum(rows, n):
    # the mean and std(ddof=1) / sqrt(n) numpy's own calls give, bit for
    # bit, rows of rates spread over decades and a constant row; one value
    # a row has standard error 0
    rng = np.random.default_rng(n)
    arr = 10.0 ** rng.uniform(-6.0, 1.0, (rows, n))
    arr[-1] = 0.1
    mean, se = _mean_se(arr)
    assert mean.tobytes() == arr.mean(axis=1).tobytes()
    want = arr.std(axis=1, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(rows)
    assert se.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def small_table():
    deploy = DeploymentConfig(bs_density=10, user_density=300, seed=2, drops=5)
    return run_campaign(deploy, RADIO, list(Scheme), [0.0, 0.5, 1.0, 1.5], cdf_delta=0.5)


class TestRunCampaign:
    def test_deterministic(self, small_table):
        deploy = DeploymentConfig(bs_density=10, user_density=300, seed=2, drops=5)
        again = run_campaign(deploy, RADIO, list(Scheme), [0.0, 0.5, 1.0, 1.5], cdf_delta=0.5)
        assert again.means == small_table.means

    def test_row_structure(self, small_table):
        # one list per statistic, one value per delta, schemes in the given order
        assert list(small_table.means) == [scheme.value for scheme in Scheme]
        for stats in small_table.means.values():
            assert list(stats) == [f"{kind}_{name}" for name in ("r1", "r2", "asr", "ee") for kind in ("mean", "se")]
            assert all(len(values) == 4 for values in stats.values())
            assert stats["mean_asr"] == pytest.approx(np.add(stats["mean_r1"], stats["mean_r2"]), abs=1e-9)

    def test_monotone_in_delta(self, small_table):
        for scheme in Scheme:
            means = small_table.means[scheme.value]["mean_asr"]
            assert all(a >= b - 1e-9 for a, b in zip(means, means[1:]))

    def test_cdf_samples(self, small_table):
        assert small_table.cdf_delta == 0.5
        for scheme in Scheme:
            samples = small_table.cdf[scheme.value]
            assert len(samples) == small_table.n_pairs
            assert np.all(np.diff(samples) >= 0)

    def test_cdf_matches_mean(self, small_table):
        for scheme, stats in small_table.means.items():  # 0.5 is the second delta
            assert small_table.cdf[scheme].mean() == pytest.approx(stats["mean_asr"][1], abs=1e-9)

    def test_oma_invariant_under_scheme_order(self):
        deploy = DeploymentConfig(bs_density=10, user_density=200, seed=3, drops=3)
        a = run_campaign(deploy, RADIO, [Scheme.OMA, Scheme.MPA], [0.3])
        b = run_campaign(deploy, RADIO, [Scheme.MPA, Scheme.OMA], [0.3])
        assert a.means["oma"] == b.means["oma"]

    def test_srm_equals_mpa_at_zero(self):
        deploy = DeploymentConfig(bs_density=10, user_density=200, seed=3, drops=3)
        table = run_campaign(deploy, RADIO, [Scheme.SRM, Scheme.MPA], [0.0])
        assert table.means["srm"]["mean_asr"] == pytest.approx(table.means["mpa"]["mean_asr"], abs=1e-9)

    def test_validation(self):
        deploy = DeploymentConfig(bs_density=10, user_density=200, seed=3, drops=1)
        with pytest.raises(ValueError):
            run_campaign(deploy, RADIO, [], [0.0])
        with pytest.raises(ValueError):
            run_campaign(deploy, RADIO, [Scheme.OMA], [])
        with pytest.raises(ValueError, match="cdf_delta"):
            run_campaign(deploy, RADIO, [Scheme.OMA], [0.0, 0.5], cdf_delta=0.1)
        # every composite gain underflows to 0, so every Gamma is 0
        with pytest.raises(ValueError, match="degenerate channel"):
            run_campaign(deploy, RadioConfig(pathloss_exponent=100.0), list(Scheme), [0.0])

    def test_gamma_bound(self):
        # a drop with one BS hears no interference, so its Gamma grows with
        # the transmit power: about 988 dB at 1000 dBm, where MPA keeps the
        # weak user at or above its OMA rate, and 2888 dB at 2900 dBm, where
        # MPA's alpha2 bound overflowed to 0 and its mean r2 read 0
        deploy = DeploymentConfig(bs_density=1, user_density=30, drops=1)
        table = run_campaign(deploy, RadioConfig(transmit_power=10 ** 97.0), list(Scheme), [0.0, 0.5])
        assert all(m >= o - 1e-9 for m, o in zip(table.means["mpa"]["mean_r2"], table.means["oma"]["mean_r2"]))
        with pytest.raises(ValueError, match="exceeds 1000 dB"):
            run_campaign(deploy, RadioConfig(transmit_power=10 ** 287.0), list(Scheme), [0.0])

    def test_underflowing_gamma(self):
        # at -200 dBm every Gamma1 lies below 1e-16: the OMA floor
        # 2^r1min rounds to 1, alpha2_ub is unbounded, and SRM takes
        # alpha2 = 1 on every pair, as the per-pair decision does
        deploy = DeploymentConfig(seed=0, drops=1)
        radio = RadioConfig(transmit_power=10 ** ((-200.0 - 30.0) / 10.0))
        g1, g2, _, _ = campaign_pairs(deploy, radio)
        assert g1.max() < 1e-16 and g2.min() > 0.0
        table = run_campaign(deploy, radio, list(Scheme), [0.0, 0.5])
        for stats in table.means.values():
            assert all(math.isfinite(v) for values in stats.values() for v in values)
        phase = PhaseModel(0.5)
        srm = [run_scheme_under(EffectiveCsi(a), EffectiveCsi(b), Scheme.SRM, phase) for a, b in zip(g1, g2)]
        assert all(d.alpha2 == 1.0 for d in srm)
        for key, values in (
            ("mean_r1", [d.rates.strong for d in srm]),
            ("mean_r2", [d.rates.weak for d in srm]),
            ("mean_ee", [d.ee for d in srm]),
        ):
            assert table.means["srm"][key][1] == np.array(values).mean()  # at 0.5, the second delta


DELTAS_18 = [math.radians(d) for d in range(0, 171, 10)]
# the order run_campaign decides the schemes in, within each block: EEPA
# first, before the block's OMA decision is made
DECISION_ORDER = [Scheme.EEPA, Scheme.MPA, Scheme.SRM, Scheme.OMA]


def record_kernel_calls(monkeypatch, binds=None):
    """Wrap each KERNELS entry and the decide it returns; every decision
    appends (scheme, deltas, instances), its count of delta rows and of
    (delta, pair) instances, to the list returned, and every bind appends
    its scheme to binds, if given."""
    calls = []
    for scheme, kernel in list(KERNELS.items()):
        def bind(g1, g2, *floors, kernel=kernel, scheme=scheme):
            if binds is not None:
                binds.append(scheme)
            decide = kernel(g1, g2, *floors)

            def recorded(x1, x2):
                calls.append((scheme, np.shape(x1)[0], np.broadcast(g1, g2, x1, x2).size))
                return decide(x1, x2)

            return recorded

        monkeypatch.setitem(KERNELS, scheme, bind)
    return calls


def assert_same_table(got, want):
    assert got.n_pairs == want.n_pairs and got.cdf_delta == want.cdf_delta
    assert got.means == want.means  # dicts compare without order: check the schemes' and statistics' too
    assert [(s, list(stats)) for s, stats in got.means.items()] == [(s, list(stats)) for s, stats in want.means.items()]
    assert list(got.cdf) == list(want.cdf)
    for scheme, samples in want.cdf.items():
        assert got.cdf[scheme].dtype == samples.dtype and got.cdf[scheme].tobytes() == samples.tobytes()


class TestCampaignBlocks:
    """run_campaign decides the delta sweep in blocks of max(1,
    BLOCK_INSTANCES // pairs) deltas, one decision per scheme and block,
    from kernels bound once per campaign, or once per block when the
    floors follow delta; its table equals the one-delta-at-a-time sweep's
    exactly."""

    DEPLOY = DeploymentConfig(drops=1)  # about 990 pairs: the 18 deltas fit one block

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.kind.value)
    @pytest.mark.parametrize("blocks", [[18], [5, 5, 5, 3]], ids=["default", "uneven"])
    def test_blocks_match_per_delta(self, policy, blocks, monkeypatch):
        # cdf_delta, the 17th delta, falls in the last block of either split
        args = (self.DEPLOY, RADIO, list(Scheme), DELTAS_18, policy, DELTAS_18[16])
        want = run_campaign_per_delta(*args)
        if len(blocks) > 1:
            monkeypatch.setattr(syslevel, "BLOCK_INSTANCES", blocks[0] * want.n_pairs)
        calls = record_kernel_calls(monkeypatch)
        got = run_campaign(*args)
        assert [deltas for scheme, deltas, _ in calls if scheme is Scheme.OMA] == blocks
        assert_same_table(got, want)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.kind.value)
    @pytest.mark.parametrize("blocks", [[18], [5, 5, 5, 3]], ids=["default", "uneven"])
    def test_kernels_bound_once_unless_floors_follow_delta(self, policy, blocks, monkeypatch):
        # floors at a reference delta or given explicitly are bound once per
        # campaign; oma-current's, at each block's deltas, once per block
        if len(blocks) > 1:
            n_pairs = len(campaign_pairs(self.DEPLOY, RADIO)[0])
            monkeypatch.setattr(syslevel, "BLOCK_INSTANCES", blocks[0] * n_pairs)
        binds = []
        calls = record_kernel_calls(monkeypatch, binds)
        run_campaign(self.DEPLOY, RADIO, list(Scheme), DELTAS_18, policy)
        per_block = policy.kind is PolicyKind.OMA_AT_CURRENT
        assert binds == list(Scheme) * (len(blocks) if per_block else 1)
        assert [scheme for scheme, _, _ in calls] == DECISION_ORDER * len(blocks)

    def test_calls_hold_at_most_one_block(self, monkeypatch):
        # a one-drop campaign makes one call per scheme; no call holds more
        # than max(BLOCK_INSTANCES, pairs) instances, one delta when pairs
        # alone exceed the bound (all 18 at once peaked near 1 GiB at 200 drops)
        calls = record_kernel_calls(monkeypatch)
        one = run_campaign(self.DEPLOY, RADIO, list(Scheme), DELTAS_18)
        assert [scheme for scheme, _, _ in calls] == DECISION_ORDER
        assert [deltas for _, deltas, _ in calls] == [18] * len(Scheme)
        calls.clear()
        four = run_campaign(DeploymentConfig(drops=4), RADIO, list(Scheme), DELTAS_18)
        assert 1 < len(calls) // len(Scheme) < 18
        assert max(instances for _, _, instances in calls) <= max(BLOCK_INSTANCES, four.n_pairs)
        calls.clear()
        monkeypatch.setattr(syslevel, "BLOCK_INSTANCES", one.n_pairs // 2)
        run_campaign(self.DEPLOY, RADIO, list(Scheme), DELTAS_18)
        assert len(calls) == 18 * len(Scheme)
        assert {instances for _, _, instances in calls} == {one.n_pairs}


class TestConfigValidation:
    def test_deployment(self):
        with pytest.raises(ValueError):
            DeploymentConfig(bs_density=0)
        with pytest.raises(ValueError):
            DeploymentConfig(drops=0)
        for field in ("bs_density", "user_density", "area_km2"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match="finite"):
                    DeploymentConfig(**{field: value})
        DeploymentConfig(area_km2=100.0)  # about 200,000 users and 2,500 BSs
        with pytest.raises(ValueError, match="users"):
            DeploymentConfig(user_density=1e9)
        with pytest.raises(ValueError, match="BSs"):
            DeploymentConfig(bs_density=1e6)

    def test_radio(self):
        with pytest.raises(ValueError):
            RadioConfig(bs_antennas=0)
        with pytest.raises(ValueError):
            RadioConfig(pathloss_exponent=1.5)
        with pytest.raises(ValueError):
            RadioConfig(noise_power=0.0)
        for value in (0.0, -1.0):
            with pytest.raises(ValueError, match="min_distance_m must be positive"):
                RadioConfig(min_distance_m=value)
        with pytest.raises(ValueError, match="ris_offset_m must be >= 0"):
            RadioConfig(ris_offset_m=-5.0)
        RadioConfig(ris_offset_m=0.0)  # an RIS at the BS is allowed
        fields = ("transmit_power", "noise_power", "pathloss_intercept", "pathloss_exponent",
                  "ris_offset_m", "min_distance_m")
        for field in fields:
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="finite"):
                    RadioConfig(**{field: value})
        # finite fields, but a two-hop gain that is nan at 1 m (inf * log10(1)),
        # overflows at 1 m, underflows at the RIS, or overflows as a product
        for kwargs in ({"pathloss_exponent": 1e308}, {"pathloss_intercept": -1e308}, {"ris_offset_m": 1e308},
                       {"pathloss_intercept": -3000.0}):
            with pytest.raises(ValueError, match="path gain"):
                RadioConfig(**kwargs)

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
        g1, g2, _, _ = campaign_pairs(deploy, RADIO)
        n = len(g1)
        assert len(cdf.rows) == len(schemes) * n
        levels = np.array([(i + 1) / n for i in range(n)])
        s = sinc_sq(math.radians(20.0))
        for k, scheme in enumerate(schemes):
            part = slice(k * n, (k + 1) * n)
            assert cdf.data["scheme"][part] == [scheme.value] * n
            assert np.array_equal(cdf.data["cdf"][part].view(np.int64), levels.view(np.int64))
            _, _, _, r1, r2, asr, _, _ = kernel_arrays(scheme, g1, g2, s)
            assert np.array_equal(asr, r1 + r2)
            assert np.array_equal(cdf.data["asr"][part], np.sort(r1 + r2))

    def test_means_laid_out_by_delta_then_scheme(self, monkeypatch):
        # schemes in a non-enum order and the 18 deltas in uneven blocks of
        # 5, 5, 5, 3: the table holds the one-delta-at-a-time statistics row
        # by row, each delta as configured
        deploy = DeploymentConfig(drops=1)
        cfg = ExperimentConfig(
            kind=ExperimentKind.SYSLEVEL,
            delta_deg=tuple(float(d) for d in range(0, 171, 10)),
            schemes=(Scheme.SRM, Scheme.OMA),
            deploy=deploy,
            cdf_delta_deg=160.0,
        )
        want = run_campaign_per_delta(deploy, RADIO, cfg.schemes, DELTAS_18, TargetPolicy(), DELTAS_18[16])
        monkeypatch.setattr(syslevel, "BLOCK_INSTANCES", 5 * want.n_pairs)
        calls = record_kernel_calls(monkeypatch)
        means, _ = syslevel_tables(cfg)
        assert [deltas for scheme, deltas, _ in calls if scheme is Scheme.OMA] == [5, 5, 5, 3]
        rows = [
            {"scheme": scheme.value, "delta_deg": delta,
             **{stat: values[i] for stat, values in want.means[scheme.value].items()}, "n_pairs": want.n_pairs}
            for i, delta in enumerate(cfg.delta_deg)
            for scheme in cfg.schemes
        ]
        assert means.columns == list(rows[0])
        assert list(means.rows) == rows
