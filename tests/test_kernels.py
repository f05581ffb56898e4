"""The schemes' kernels, which decide on the effective SNRs x = Gamma * s,
against the same kernels as they were written on (Gamma, s)
(oracles.PARENT_KERNELS). Deciding on x reorders a few products
(alpha2 * x2 for (alpha2 * Gamma2) * s, EEPA's kappa, its objective and
its criterion on x1), so the outputs may move in their last bits: the
decisions must agree but within a few ulps of a criterion's boundary, and
the rates and EE within the ulp bounds below, the largest moves measured
over these draws. In the campaign's regime the closed-form schemes'
outputs are bit-identical."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from risnoma.channel import sinc_sq
from risnoma.eepa import _eepa_thresholds
from risnoma.mpa import TargetPolicy, _mpa_threshold
from risnoma.pairing import Scheme
from risnoma.syslevel import DeploymentConfig, RadioConfig, run_campaign
from oracles import PARENT_KERNELS, kernel_decision, run_campaign_per_delta

POLICIES = (TargetPolicy.oma_at_reference(0.0), TargetPolicy.oma_at_current(), TargetPolicy.explicit(0.8, 0.4))
OUTPUTS = ("alpha1", "alpha2", "r1", "r2", "ee")
# the largest move of each output, in ulps of max(|value|, 1), where the
# two decide alike, measured over 200,000 pairs (Gamma uniform in dB on
# [-40, 30]) at eight deltas from 0 to 170 degrees under each policy; the
# draws below stay within them (EEPA's alpha1 moved at most 8 ulps on
# them, its r1 5). EEPA's alpha1, and so its r1, is fixed only to about
# 2e-11 by Dinkelbach's stopping rule where the EE is flat, and moves
# with the rounding of its iterates. No decision flipped in either sample.
ULPS = {
    Scheme.OMA: dict.fromkeys(OUTPUTS, 0),
    Scheme.MPA: {"alpha1": 0, "alpha2": 0, "r1": 3, "r2": 2, "ee": 4},
    Scheme.SRM: {"alpha1": 0, "alpha2": 0, "r1": 3, "r2": 3, "ee": 4},
    Scheme.EEPA: {"alpha1": 91648, "alpha2": 0, "r1": 361, "r2": 3, "ee": 4},
}
NEAR = 4 * np.finfo(float).eps  # relative distance from a criterion's boundary within which a decision may flip


def ulps(a, b):
    """|a - b| in units of the spacing at max(|a|, |b|, 1)."""
    return np.abs(a - b) / np.spacing(np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0))


def moves(scheme, g1, g2, policy, s):
    """Each output's largest move in ulps over the pairs deciding alike,
    after checking that every pair deciding otherwise lies within NEAR of
    the scheme's criterion."""
    r1_min, r2_min = policy.rates(g1, g2, s)
    old = [np.broadcast_to(v, g1.shape) for v in PARENT_KERNELS[scheme](g1, g2, r1_min, r2_min)(s)]
    new = [np.broadcast_to(v, g1.shape) for v in kernel_decision(scheme, g1, g2, r1_min, r2_min, s)]
    new = new[:5] + new[6:]  # the parent's kernels gave no asr
    flips = old[0] != new[0]
    if flips.any():
        p1, p2 = np.power(2.0, (r1_min, r2_min))
        threshold = (_mpa_threshold(g1, p1, p2) if scheme is Scheme.MPA
                     else np.maximum(*_eepa_thresholds(g1, g2, p1, p2)))
        assert np.all(np.abs(s - threshold[flips]) <= NEAR * threshold[flips])
    same = ~flips
    assert np.array_equal(old[6][same], new[6][same])  # Dinkelbach's iterations
    return {name: float(ulps(a[same], b[same]).max(initial=0.0)) for name, a, b in zip(OUTPUTS, old[1:6], new[1:6])}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    gammas_db=st.tuples(st.floats(-40.0, 30.0), st.floats(-40.0, 30.0)),
    seed=st.integers(0, 2**32 - 1),
    delta=st.floats(0.0, 0.98 * math.pi),
    policy=st.sampled_from(POLICIES),
)
def test_kernels_on_x_match_the_parent(gammas_db, seed, delta, policy):
    # the drawn pair, 400 more with Gamma in [-40, 30] dB and the range's
    # ends, the strong user first; s = sinc^2(delta)
    rng = np.random.default_rng(seed)
    db = np.sort(np.concatenate([[gammas_db, [-40.0, -40.0], [30.0, -40.0]], rng.uniform(-40.0, 30.0, (400, 2))]),
                 axis=1)
    g1, g2 = 10.0 ** (db[:, 1] / 10.0), 10.0 ** (db[:, 0] / 10.0)
    s = sinc_sq(delta)
    for scheme in Scheme:
        for name, move in moves(scheme, g1, g2, policy, s).items():
            assert move <= ULPS[scheme][name], (scheme, name, move)


def test_decisions_agree_off_the_criteria():
    # explicit floors fix both criteria's bounds on s, so s can be put at
    # each pair's boundary times 1 + k eps: the two kernels may decide
    # differently only where |k| <= 4, and the weak user's floor fits
    # (Gamma2 within 4 dB of Gamma1), so the criterion alone decides
    policy = TargetPolicy.explicit(0.8, 0.4)
    rng = np.random.default_rng(3)
    g1 = 10.0 ** rng.uniform(1.0, 3.0, 300)
    g2 = g1 * 10.0 ** -rng.uniform(0.0, 0.4, 300)
    k = np.array([0, 1, 2, 3, 4, 8, 64, 2**10, 2**16, 2**20])
    k = np.concatenate([-k[:0:-1], k])
    p1, p2 = np.power(2.0, (policy.r1_min, policy.r2_min))
    flipped = 0
    for scheme, threshold in ((Scheme.MPA, _mpa_threshold(g1, p1, p2)),
                              (Scheme.EEPA, np.maximum(*_eepa_thresholds(g1, g2, p1, p2)))):
        s = (threshold[:, None] * (1.0 + k * np.finfo(float).eps)).ravel()
        ks, G1, G2 = np.tile(k, len(g1)), np.repeat(g1, len(k)), np.repeat(g2, len(k))
        keep = s <= 1.0
        ks, G1, G2, s = ks[keep], G1[keep], G2[keep], s[keep]
        r1_min, r2_min = policy.rates(G1, G2, s)
        old = np.broadcast_to(PARENT_KERNELS[scheme](G1, G2, r1_min, r2_min)(s)[0], s.shape)
        new = np.broadcast_to(kernel_decision(scheme, G1, G2, r1_min, r2_min, s)[0], s.shape)
        assert np.all(np.abs(ks[old != new]) <= 4)
        assert old[ks >= 8].all() and not old[ks <= -8].any()  # both sides of each boundary are tested
        flipped += np.count_nonzero(old != new)
    assert flipped < 0.5 * len(g1)


def test_campaign_closed_forms_bit_identical():
    # a 2-drop default campaign over the default sweep: OMA's, MPA's and
    # SRM's means, standard errors and CDF samples as the parent's kernels give them
    deploy, radio = DeploymentConfig(drops=2), RadioConfig()
    deltas = [math.radians(d) for d in range(0, 171, 10)]
    schemes = [Scheme.OMA, Scheme.MPA, Scheme.SRM]
    got = run_campaign(deploy, radio, schemes, deltas, TargetPolicy(), deltas[4])
    want = run_campaign_per_delta(deploy, radio, schemes, deltas, TargetPolicy(), deltas[4], parent=True)
    assert got.means == want.means
    for scheme in schemes:
        assert got.cdf[scheme.value].tobytes() == want.cdf[scheme.value].tobytes()
