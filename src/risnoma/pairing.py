"""Adaptive user pairing over a cell population: sort by effective CSI,
pair strongest with weakest, and decide each pair under the selected
scheme with OMA fallback, plus the phase-oblivious SRM baseline.

Pair, then decide. The pairing rule is written once on arrays,
cell_pairs, for every cell of a drop at a time (one cell is
cell_pairs(key, np.zeros(n, int), 1)); run_scheme(csi1, csi2, scheme,
phase, targets) decides the one (strong, weak) pair it is given, under
the floors its caller resolved (TargetPolicy.resolve), as the other
one-pair functions take them.

Each scheme's decision is one array kernel, bound, then decided:
KERNELS[scheme](g1, g2, r1_min, r2_min) computes once what does not
depend on delta (2^floors, MPA's and EEPA's thresholds, SRM's allocation
at x = Gamma) and returns decide(x1, x2) -> (noma, alpha1, alpha2, r1,
r2, asr, ee, iterations) at the effective SNRs x = Gamma * sinc^2(delta),
on arrays of pairs or shape-() values; iterations are Dinkelbach's where
EEPA chose NOMA, else 0. Where noma fails the decision is OMA's (mpa._oma),
which the caller makes once and applies with mpa._or_oma, and run_scheme
only when its pair falls back; OMA's own kernel pairs none. run_campaign,
run_scheme, the sweep-delta table and the pair study
(experiments.pair_study_table) decide every pair through them.
"""

from enum import Enum

import numpy as np

from .channel import EffectiveCsi, PhaseModel
from .eepa import _eepa_kernel
from .mpa import PairDecision, RateTargets, _check_channel, _mpa_kernel, _oma_kernel, _srm_kernel

__all__ = ["Scheme", "KERNELS", "cell_pairs", "run_scheme"]


class Scheme(Enum):
    MPA = "mpa"
    EEPA = "eepa"
    SRM = "srm"
    OMA = "oma"


KERNELS = {Scheme.MPA: _mpa_kernel, Scheme.EEPA: _eepa_kernel, Scheme.SRM: _srm_kernel, Scheme.OMA: _oma_kernel}


def cell_pairs(key: np.ndarray, cell: np.ndarray, n_cells: int):
    """The strongest-weakest pairs of every cell at once, on arrays.

    Users are grouped by cell (cell[u] in [0, n_cells)) and ranked by
    key, largest first, ties to the lower index; pair k of a cell joins
    its k-th strongest and k-th weakest user, and an odd cell leaves its
    median user unpaired. Returns (strong, weak, first): the pairs' user
    indices, cell by cell, and first[c] the index of cell c's first pair.
    """
    order = np.argsort(-key, kind="stable")  # ties by index; then by cell, a radix sort on small ints
    order = order[np.argsort(cell[order].astype(np.min_scalar_type(n_cells)), kind="stable")]
    counts = np.bincount(cell, minlength=n_cells)
    half = counts // 2
    first = np.cumsum(half) - half
    pair_cell = np.repeat(np.arange(n_cells), half)
    k = np.arange(len(pair_cell)) - first[pair_cell]
    start = (np.cumsum(counts) - counts)[pair_cell]
    return order[start + k], order[start + counts[pair_cell] - 1 - k], first


def run_scheme(
    csi1: EffectiveCsi, csi2: EffectiveCsi, scheme: Scheme, phase: PhaseModel, targets: RateTargets
) -> PairDecision:
    """Decide one (strong, weak) pair with the scheme's kernel, under the
    pair's resolved floors (TargetPolicy.resolve). A pair given weak
    user first is rejected (PairDecision.from_kernel); every scheme but
    OMA needs Gamma2 * sinc^2(delta) > 0."""
    if scheme not in KERNELS:
        raise ValueError(f"unknown scheme {scheme}")
    if scheme is not Scheme.OMA:
        _check_channel(csi2, phase, 2)
    return PairDecision.from_kernel(KERNELS[scheme], targets, csi1, csi2, phase)
