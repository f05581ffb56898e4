"""Core channel math for RIS-assisted uplink links.

Everything downstream works on the effective per-user CSI (a scalar
SNR-like quantity, linear scale) and the phase-error degradation factor
sinc^2(delta). Raw array responses exist only to validate the norm
identity that collapses the channel into that scalar.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PhaseModel",
    "LinkBudget",
    "EffectiveCsi",
    "ArrayGeometry",
    "RatePair",
    "db_to_linear",
    "linear_to_db",
    "sinc_sq",
    "phase_error_gain_mc",
    "array_response",
    "effective_csi",
    "rate_oma",
    "rate_noma",
    "asr",
    "ee",
]


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


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
class LinkBudget:
    """Per-user physical inputs from which the effective CSI is derived.

    composite_gain is the dimensionless power gain |alpha*beta|^2, the
    product of the user->RIS and RIS->BS channel gains.
    """

    transmit_power: float
    composite_gain: float
    ris_elements: int
    bs_antennas: int
    interference: float
    noise_power: float

    def __post_init__(self):
        if self.transmit_power < 0 or self.composite_gain < 0 or self.interference < 0:
            raise ValueError("power quantities must be non-negative")
        if self.noise_power <= 0:
            raise ValueError("noise_power must be strictly positive")
        if self.ris_elements < 1 or self.bs_antennas < 1:
            raise ValueError("element counts must be >= 1")


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
class ArrayGeometry:
    """Uniform square planar array: element count (perfect square),
    spacing over wavelength, and the azimuth/elevation steering angles."""

    elements: int
    spacing_over_wavelength: float
    azimuth: float
    elevation: float

    def __post_init__(self):
        side = math.isqrt(self.elements)
        if self.elements < 1 or side * side != self.elements:
            raise ValueError(f"elements must be a perfect square, got {self.elements}")
        if self.spacing_over_wavelength <= 0:
            raise ValueError("spacing_over_wavelength must be positive")

    @property
    def side(self) -> int:
        return math.isqrt(self.elements)


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


def array_response(geom: ArrayGeometry) -> np.ndarray:
    """Array response vector of a uniform square planar array.

    Element (x, y) carries phase 2*pi*(d/lambda)*(x sin(az) sin(az) + y cos(el)),
    reproduced as printed in the source model. Entries are unit modulus, so
    the squared norm equals the element count regardless of the exponent.
    """
    side = geom.side
    x, y = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    phase = (
        2.0
        * math.pi
        * geom.spacing_over_wavelength
        * (x * math.sin(geom.azimuth) * math.sin(geom.azimuth) + y * math.cos(geom.elevation))
    )
    return np.exp(1j * phase).ravel()


def effective_csi(link: LinkBudget) -> EffectiveCsi:
    """Gamma = P_t * |alpha*beta|^2 * N^2 * M / (I + sigma^2)."""
    num = link.transmit_power * link.composite_gain * link.ris_elements**2 * link.bs_antennas
    return EffectiveCsi(num / (link.interference + link.noise_power))


def rate_oma(csi: EffectiveCsi, phase: PhaseModel) -> float:
    """OMA rate 0.5 * log2(1 + Gamma * sinc^2(delta)); the half accounts
    for the orthogonal resource split."""
    return 0.5 * math.log2(1.0 + csi.gamma * phase.degradation)


def rate_noma(
    alpha1: float,
    alpha2: float,
    csi1: EffectiveCsi,
    csi2: EffectiveCsi,
    phase: PhaseModel,
) -> RatePair:
    """NOMA rates of a (strong, weak) pair under SIC at the receiver.

    The strong user is decoded first, treating the weak user's signal as
    interference; the weak user is decoded interference-free.
    """
    for a in (alpha1, alpha2):
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"power fractions must lie in [0, 1], got {a}")
    s = phase.degradation
    strong = math.log2(1.0 + alpha1 * csi1.gamma * s / (1.0 + alpha2 * csi2.gamma * s))
    weak = math.log2(1.0 + alpha2 * csi2.gamma * s)
    return RatePair(strong, weak)


def asr(rates: RatePair) -> float:
    """Achievable sum rate of the pair."""
    return rates.strong + rates.weak


def ee(rates: RatePair, alpha1: float, alpha2: float) -> float:
    """Energy efficiency: sum rate per unit of total power fraction."""
    total = alpha1 + alpha2
    if total <= 0:
        raise ZeroDivisionError("energy efficiency undefined for alpha1 + alpha2 = 0")
    return (rates.strong + rates.weak) / total
