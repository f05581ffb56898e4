"""Core channel math for RIS-assisted uplink links.

Everything downstream works on the effective per-user CSI (a scalar
SNR-like quantity, linear scale) and the phase-error degradation factor
sinc^2(delta). The effective CSI and the OMA and NOMA rates are each one
numpy formula on floats or arrays, shared by the functions below and the
schemes' array kernels.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PhaseModel",
    "EffectiveCsi",
    "RatePair",
    "db_to_linear",
    "linear_to_db",
    "sinc_sq",
    "phase_error_gain_mc",
    "rate_oma",
    "rate_noma",
]


def db_to_linear(value_db: float) -> float:
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        raise ValueError(f"{value_db} dB overflows a float") from None


def linear_to_db(value: float) -> float:
    if value <= 0:
        raise ValueError("dB conversion requires a positive linear value")
    return 10.0 * math.log10(value)


def sinc_sq(delta: float) -> float:
    """Degradation factor (sin(delta)/delta)^2 for a uniform phase error
    on [-delta, delta]. Unnormalized sinc; exact 1.0 at delta=0."""
    if not 0.0 <= delta < math.pi:
        raise ValueError(f"delta must lie in [0, pi), got {delta}")
    if delta == 0.0:
        return 1.0
    return (math.sin(delta) / delta) ** 2


@dataclass(frozen=True)
class PhaseModel:
    """Half-width of the uniform phase-error distribution, in radians,
    with the induced sinc^2 degradation cached at construction."""

    delta: float
    degradation: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "degradation", sinc_sq(self.delta))

    @classmethod
    def from_degrees(cls, delta_deg: float) -> "PhaseModel":
        return cls(math.radians(delta_deg))


@dataclass(frozen=True)
class EffectiveCsi:
    """Per-user effective CSI Gamma (linear scale, >= 0)."""

    gamma: float

    def __post_init__(self):
        if not (self.gamma >= 0 and math.isfinite(self.gamma)):
            raise ValueError("gamma must be finite and non-negative")

    @classmethod
    def from_db(cls, gamma_db: float) -> "EffectiveCsi":
        return cls(db_to_linear(gamma_db))

    @property
    def gamma_db(self) -> float:
        return linear_to_db(self.gamma)


@dataclass(frozen=True)
class RatePair:
    """Achievable rates (bits/s/Hz) of the strong and weak user."""

    strong: float
    weak: float

    def __post_init__(self):
        for r in (self.strong, self.weak):
            if not (r >= 0 and math.isfinite(r)):
                raise ValueError("rates must be finite and non-negative")


def phase_error_gain_mc(n_elements: int, delta: float, trials: int, seed: int) -> float:
    """Monte-Carlo estimate of E|sum_k exp(j*theta_k)/N|^2 with
    theta_k ~ Uniform[-delta, delta] i.i.d.

    Brute-force oracle for the sinc^2 approximation; deterministic per seed.
    """
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 <= delta < math.pi:
        raise ValueError(f"delta must lie in [0, pi), got {delta}")
    rng = np.random.default_rng(seed)
    # chunked so trials * n_elements never materializes at once
    chunk = max(1, 8_000_000 // n_elements)
    total = 0.0
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        theta = rng.uniform(-delta, delta, size=(m, n_elements))
        re = np.cos(theta).mean(axis=1)
        im = np.sin(theta).mean(axis=1)
        total += float(np.sum(re * re + im * im))
        done += m
    return total / trials


def _link_gamma(transmit_power, composite_gain, ris_elements, bs_antennas, interference, noise_power):
    """Effective CSI Gamma = P_t * |alpha*beta|^2 * N^2 * M / (I + sigma^2)
    on floats or arrays; |alpha*beta|^2 is the composite power gain of
    the user->RIS and RIS->BS hops."""
    return transmit_power * composite_gain * ris_elements**2 * bs_antennas / (interference + noise_power)


def _oma_rate(gamma, s):
    """OMA rate 0.5 * log2(1 + Gamma * s) on floats or arrays; the half
    accounts for the orthogonal resource split."""
    return 0.5 * np.log2(1.0 + gamma * s)


def _noma_rates(alpha1, alpha2, gamma1, gamma2, s):
    """NOMA rates (strong, weak) on floats or arrays: SIC decodes the
    strong user first, with the weak user's signal as interference, then
    the weak user interference-free."""
    weak = alpha2 * gamma2 * s
    return np.log2(1.0 + alpha1 * gamma1 * s / (1.0 + weak)), np.log2(1.0 + weak)


def rate_oma(csi: EffectiveCsi, phase: PhaseModel) -> float:
    """OMA rate 0.5 * log2(1 + Gamma * sinc^2(delta))."""
    return float(_oma_rate(csi.gamma, phase.degradation))


def rate_noma(
    alpha1: float,
    alpha2: float,
    csi1: EffectiveCsi,
    csi2: EffectiveCsi,
    phase: PhaseModel,
) -> RatePair:
    """NOMA rates of a (strong, weak) pair under SIC at the receiver."""
    for a in (alpha1, alpha2):
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"power fractions must lie in [0, 1], got {a}")
    strong, weak = _noma_rates(alpha1, alpha2, csi1.gamma, csi2.gamma, phase.degradation)
    return RatePair(float(strong), float(weak))
