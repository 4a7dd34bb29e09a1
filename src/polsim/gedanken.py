"""Two-source thought-experiment model of erasable and inerasable marking.

A photon reaches the detector from one of two sources.  A which-source
marker of quality m (0 = no marking, 1 = perfect marking) tags first-source
emissions; a polarizer angle theta and an erasure angle gamma control how
much of the remaining path information interferes.  The detection
probability splits into a flagged (incoherent) part and a coherent part:

    p = |a1|^2 (1 - m^2) + |a1*m + a2|^2

with path amplitudes a1 = exp(i*phi1) cos(theta - gamma)/2 and
a2 = exp(i*phi2) cos(theta)/2.  monte_carlo_detection draws the branch
counts of N samples, in time and memory independent of N.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .zwm import _check_grid

MAX_SAMPLES = 2**63 - 1  # the largest count Generator.binomial takes (int64)


@dataclass(frozen=True)
class GedankenConfig:
    """Parameters of one thought-experiment configuration.

    gamma: erasure rotation angle (rad), cos(gamma) >= 0 required
    m: marker quality in [0, 1]
    phi1, phi2: path phases (rad)
    theta: analyzer angle (rad)
    """

    gamma: float
    m: float
    phi1: float = 0.0
    phi2: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.phi1, self.phi2, self.theta))):
            raise ParameterError("phases and the analyzer angle must be finite")
        _check_grid(self.gamma, self.m)  # m has the range of |T|


def _amplitudes(gamma, phi1, phi2, theta) -> tuple[complex, complex]:
    a1 = cmath.exp(1j * phi1) * math.cos(theta - gamma) / 2.0
    a2 = cmath.exp(1j * phi2) * math.cos(theta) / 2.0
    return a1, a2


def detection_probability(cfg: GedankenConfig) -> float:
    """Closed-form detection probability of the three-branch bookkeeping."""
    a1, a2 = _amplitudes(cfg.gamma, cfg.phi1, cfg.phi2, cfg.theta)
    return abs(a1) ** 2 * (1.0 - cfg.m**2) + abs(a1 * cfg.m + a2) ** 2


def extremal_probabilities(gamma: float, m: float) -> tuple[float, float]:
    """(max, min) of the detection probability over the analyzer angle.

    With equal path phases the extrema sit at theta = gamma/2 and
    gamma/2 + pi/2:

        p_max = (1 + m) cos^2(gamma/2) / 2
        p_min = (1 - m) sin^2(gamma/2) / 2
    """
    GedankenConfig(gamma=gamma, m=m)
    half = gamma / 2.0
    return (
        (1.0 + m) * math.cos(half) ** 2 / 2.0,
        (1.0 - m) * math.sin(half) ** 2 / 2.0,
    )


def degree_of_polarization_gedanken_grid(gammas, ms) -> np.ndarray:
    """Visibility (p_max - p_min)/(p_max + p_min) = (m + cos g)/(1 + m cos g)
    at (gammas[i], ms[j]), shape (n_g, n_m)."""
    gammas, ms = _check_grid(gammas, ms)
    c = np.cos(gammas)[:, None]
    return (ms + c) / (1.0 + ms * c)


def degree_of_polarization_gedanken(gamma: float, m: float) -> float:
    """Visibility at one (gamma, m): a 1x1 degree_of_polarization_gedanken_grid."""
    return float(degree_of_polarization_gedanken_grid(gamma, m)[0, 0])


def monte_carlo_detection(
    cfg: GedankenConfig, samples: int, seed
) -> tuple[float, float]:
    """Sample the detection probability; returns (estimate, std_error).

    Each sample emits from source 1 or 2 with probability 1/2.  A source-1
    photon is reported by the marker with probability 1 - m^2; reported
    samples are distinguishable and detect with the conditional probability
    2|a1|^2, all other samples form the coherent class and detect with
    2|a1*m + a2|^2 / (1 + m^2).  Weighting by the branch probabilities
    (1 - m^2)/2 and (1 + m^2)/2 reproduces the closed form, so the sampler
    checks the probability bookkeeping independently of it.

    Only the total hit count of the N i.i.d. samples is used, so it is drawn
    as nested binomial branch counts, with exactly the law of the per-sample
    draw, in time and memory independent of N.  seed is what np.random.default_rng
    takes: the same seed and samples give the same estimate, and a Generator is
    advanced, so successive calls on one Generator draw successive estimates.
    """
    if not 1 <= samples <= MAX_SAMPLES:
        raise ParameterError(f"samples must be in [1, {MAX_SAMPLES}], got {samples}")
    return _sample_detection(cfg.gamma, cfg.m, cfg.phi1, cfg.phi2, cfg.theta, samples, seed)


def _sample_detection(gamma, m, phi1, phi2, theta, samples, seed) -> tuple[float, float]:
    """monte_carlo_detection on parameters the caller has checked."""
    a1, a2 = _amplitudes(gamma, phi1, phi2, theta)
    # squared moduli (>= 0) that rounding may put an ulp above 1
    p_flagged = min(2.0 * abs(a1) ** 2, 1.0)
    p_coherent = min(2.0 * abs(a1 * m + a2) ** 2 / (1.0 + m**2), 1.0)
    rng = np.random.default_rng(seed)
    n_flag = rng.binomial(rng.binomial(samples, 0.5), 1.0 - m**2)
    hits = rng.binomial(n_flag, p_flagged) + rng.binomial(samples - n_flag, p_coherent)
    p_hat = hits / samples
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / samples)
