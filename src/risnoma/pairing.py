"""Adaptive user pairing over a cell population: sort by effective CSI,
pair strongest with weakest, and decide each pair under the selected
scheme with OMA fallback, plus the phase-oblivious SRM baseline.

The pairing rule is written once on arrays, cell_pairs, for every cell
of a drop at a time; build_pairs is its object form for one cell.

Each scheme's decision is one array kernel, KERNELS[scheme]: (g1, g2, s,
r1_min, r2_min) -> (noma, alpha1, alpha2, r1, r2, ee, iterations) on arrays
of pairs or shape-() values; iterations are Dinkelbach's where EEPA chose
NOMA, else 0. run_campaign and run_scheme decide every pair through them.
"""

from dataclasses import dataclass
from enum import Enum
from typing import List

import numpy as np

from .channel import EffectiveCsi, PhaseModel
from .eepa import _eepa_kernel
from .mpa import PairDecision, TargetPolicy, _check_channel, _mpa_kernel, _oma_kernel, _srm_kernel

__all__ = ["Scheme", "KERNELS", "UserRecord", "build_pairs", "cell_pairs", "run_scheme"]


class Scheme(Enum):
    MPA = "mpa"
    EEPA = "eepa"
    SRM = "srm"
    OMA = "oma"


KERNELS = {Scheme.MPA: _mpa_kernel, Scheme.EEPA: _eepa_kernel, Scheme.SRM: _srm_kernel, Scheme.OMA: _oma_kernel}


@dataclass(frozen=True)
class UserRecord:
    id: int
    csi: EffectiveCsi


def build_pairs(users: List[UserRecord]):
    """Sort by CSI descending (ties by id) and pair first with last.

    Odd populations leave the median user unpaired; it is served in OMA
    by the caller. Returns (pairs, unpaired).
    """
    if len(users) < 2:
        raise ValueError("pairing requires at least two users")
    ordered = sorted(users, key=lambda u: (-u.csi.gamma, u.id))
    half = len(ordered) // 2
    pairs = [(ordered[i], ordered[len(ordered) - 1 - i]) for i in range(half)]
    unpaired = ordered[half] if len(ordered) % 2 else None
    return pairs, unpaired


def cell_pairs(key: np.ndarray, cell: np.ndarray, n_cells: int):
    """build_pairs for every cell at once, on arrays.

    Users are grouped by cell (cell[u] in [0, n_cells)) and ranked by
    key, largest first, ties to the lower index; pair k of a cell joins
    its k-th strongest and k-th weakest user, and an odd cell leaves its
    median user unpaired. Returns (strong, weak, first): the pairs' user
    indices, cell by cell, and first[c] the index of cell c's first pair.
    """
    order = np.lexsort((-key, cell))  # stable: ties by index
    counts = np.bincount(cell, minlength=n_cells)
    half = counts // 2
    first = np.cumsum(half) - half
    pair_cell = np.repeat(np.arange(n_cells), half)
    k = np.arange(len(pair_cell)) - first[pair_cell]
    start = (np.cumsum(counts) - counts)[pair_cell]
    return order[start + k], order[start + counts[pair_cell] - 1 - k], first


def run_scheme(
    users: List[UserRecord],
    scheme: Scheme,
    phase: PhaseModel,
    targets_policy: TargetPolicy = TargetPolicy(),
) -> List[PairDecision]:
    """Build pairs and decide each one with the scheme's kernel; the
    decisions follow build_pairs' order. Every scheme but OMA needs
    Gamma2 * sinc^2(delta) > 0."""
    if scheme not in KERNELS:
        raise ValueError(f"unknown scheme {scheme}")
    s = phase.degradation
    decisions = []
    for strong, weak in build_pairs(users)[0]:
        if scheme is not Scheme.OMA:
            _check_channel(weak.csi, phase, 2)
        g1, g2 = float(strong.csi.gamma), float(weak.csi.gamma)
        decision = KERNELS[scheme](g1, g2, s, *targets_policy.rates(g1, g2, s))
        decisions.append(PairDecision.from_kernel(decision, strong.id, weak.id))
    return decisions
