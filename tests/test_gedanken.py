"""Thought-experiment detection probability, extrema and Monte-Carlo sampler."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polsim import gedanken
from polsim.errors import ParameterError
from polsim.gedanken import (
    MAX_SAMPLES,
    GedankenConfig,
    degree_of_polarization_gedanken,
    detection_probability,
    extremal_probabilities,
    monte_carlo_detection,
)
from polsim.zwm import analytic_p_special


def test_config_validation():
    with pytest.raises(ParameterError):
        GedankenConfig(gamma=0.0, m=1.5)
    with pytest.raises(ParameterError):
        GedankenConfig(gamma=math.pi, m=0.5)
    with pytest.raises(ParameterError, match="every gamma"):
        GedankenConfig(gamma=math.inf, m=0.5)  # refused before its cosine is taken
    GedankenConfig(gamma=2 * math.pi, m=0.5)  # cos(2 pi) = 1 is fine


@pytest.mark.parametrize(
    "cfg,expected",
    [
        (GedankenConfig(gamma=0.0, m=1.0, theta=0.0), 1.0),
        (GedankenConfig(gamma=math.pi / 2, m=0.0, theta=0.0), 0.25),
        (GedankenConfig(gamma=math.pi / 2, m=0.7, theta=0.0), 0.25),
        (GedankenConfig(gamma=math.pi / 2, m=1.0, theta=math.pi / 4), 0.5),
    ],
)
def test_detection_probability_pinned_points(cfg, expected):
    assert detection_probability(cfg) == pytest.approx(expected, abs=1e-12)


def test_detection_sum_rule():
    """p(theta) + p(theta + pi/2) does not depend on theta."""
    rng = np.random.default_rng(12)
    for _ in range(5):
        gamma = rng.uniform(0, math.pi / 2)
        m = rng.uniform(0, 1)
        phi1, phi2 = rng.uniform(0, 2 * math.pi, size=2)
        totals = []
        for theta in np.linspace(0.0, math.pi, 40):
            pair = (
                GedankenConfig(gamma=gamma, m=m, phi1=phi1, phi2=phi2, theta=theta),
                GedankenConfig(gamma=gamma, m=m, phi1=phi1, phi2=phi2,
                               theta=theta + math.pi / 2),
            )
            totals.append(sum(detection_probability(c) for c in pair))
        assert max(totals) - min(totals) < 1e-12


@pytest.mark.parametrize(
    "gamma,m,expected",
    [
        (0.0, 1.0, (1.0, 0.0)),
        (math.pi / 2, 0.0, (0.25, 0.25)),
        (math.pi / 3, 0.5, (0.5625, 0.0625)),
    ],
)
def test_extremal_probabilities_pinned(gamma, m, expected):
    p_max, p_min = extremal_probabilities(gamma, m)
    assert p_max == pytest.approx(expected[0], abs=1e-12)
    assert p_min == pytest.approx(expected[1], abs=1e-12)


def test_extrema_bound_the_scan():
    gamma, m = 0.9, 0.4
    p_max, p_min = extremal_probabilities(gamma, m)
    probs = [
        detection_probability(GedankenConfig(gamma=gamma, m=m, theta=th))
        for th in np.linspace(0, math.pi, 500)
    ]
    assert max(probs) <= p_max + 1e-12
    assert min(probs) >= p_min - 1e-12
    assert max(probs) == pytest.approx(p_max, abs=1e-4)
    assert min(probs) == pytest.approx(p_min, abs=1e-4)


@pytest.mark.parametrize(
    "gamma,m,expected",
    [
        (0.0, 1.0, 1.0),
        (0.77, 1.0, 1.0),
        (math.pi / 2, 0.0, 0.0),
        (math.pi / 3, 0.5, 0.8),
    ],
)
def test_degree_of_polarization_pinned(gamma, m, expected):
    assert degree_of_polarization_gedanken(gamma, m) == pytest.approx(expected, abs=1e-15)


def test_polarization_monotone_in_marker_and_angle():
    ms = np.linspace(0.0, 1.0, 21)
    gammas = np.linspace(0.0, math.pi / 2, 21)
    for gamma in gammas:
        ps = [degree_of_polarization_gedanken(gamma, m) for m in ms]
        assert all(b >= a - 1e-15 for a, b in zip(ps, ps[1:]))
    for m in ms:
        # decreasing gamma means increasing cos(gamma), so walk the grid backwards
        ps = [degree_of_polarization_gedanken(g, m) for g in gammas[::-1]]
        assert all(b >= a - 1e-15 for a, b in zip(ps, ps[1:]))


def test_bridge_to_interferometer_special_case():
    for m in np.linspace(0, 1, 11):
        for gamma in np.linspace(0, math.pi / 2, 10):
            assert degree_of_polarization_gedanken(gamma, m) == analytic_p_special(m, gamma)


# ---------------------------------------------------------------------------
# Monte-Carlo sampler
# ---------------------------------------------------------------------------

def test_monte_carlo_is_deterministic():
    cfg = GedankenConfig(gamma=0.4, m=0.6, theta=0.2)
    assert monte_carlo_detection(cfg, 10_000, 99) == monte_carlo_detection(cfg, 10_000, 99)


def test_monte_carlo_rejects_empty_run():
    with pytest.raises(ParameterError):
        monte_carlo_detection(GedankenConfig(gamma=0.0, m=0.0), 0, 1)


def test_monte_carlo_rejects_more_samples_than_the_binomial_draw_takes():
    cfg = GedankenConfig(gamma=0.0, m=0.0)
    assert 0.0 < monte_carlo_detection(cfg, MAX_SAMPLES, 1)[0] < 1.0
    with pytest.raises(ParameterError, match="samples must be in"):
        monte_carlo_detection(cfg, MAX_SAMPLES + 1, 1)


@pytest.mark.parametrize("samples", [1, 10**6, 2**62])
def test_monte_carlo_certain_and_dark_extrema(samples):
    """m = 1 with aligned phases makes the coherent branch certain
    (p_coherent = 1 exactly); with phi2 = pi it is dark (about 1e-33)."""
    certain = GedankenConfig(gamma=0.0, m=1.0)
    dark = GedankenConfig(gamma=0.0, m=1.0, phi2=math.pi)
    assert detection_probability(certain) == 1.0
    assert 0.0 < detection_probability(dark) < 1e-32
    assert monte_carlo_detection(certain, samples, 3) == (1.0, 0.0)
    assert monte_carlo_detection(dark, samples, 3) == (0.0, 0.0)


def test_monte_carlo_clamps_branch_probabilities_rounded_above_one(monkeypatch):
    # first p_coherent, then p_flagged one ulp above 1
    one_ulp_up = 0.5 * (1.0 + 2.0**-52)
    monkeypatch.setattr(gedanken, "_amplitudes", lambda *angles: (one_ulp_up, one_ulp_up))
    cfg = GedankenConfig(gamma=0.0, m=1.0)
    assert monte_carlo_detection(cfg, 1000, 5) == (1.0, 0.0)
    cfg = GedankenConfig(gamma=0.0, m=0.0)
    monkeypatch.setattr(gedanken, "_amplitudes",
                        lambda *angles: (math.sqrt(0.5) * (1.0 + 2.0**-52), 0.0))
    assert monte_carlo_detection(cfg, 1000, 5)[0] == pytest.approx(0.5, abs=0.1)


def test_monte_carlo_unmarked_balanced_point():
    cfg = GedankenConfig(gamma=0.0, m=0.0, theta=0.0)
    est, se = monte_carlo_detection(cfg, 10**6, 314)
    assert abs(est - 0.5) <= 3 * se


def test_monte_carlo_destructive_interference():
    cfg = GedankenConfig(gamma=0.0, m=1.0, phi2=math.pi, theta=0.0)
    est, _ = monte_carlo_detection(cfg, 10**6, 42)
    assert est == 0.0


def test_monte_carlo_matches_closed_form():
    cfg = GedankenConfig(gamma=math.pi / 3, m=0.5, theta=math.pi / 6)
    est, se = monte_carlo_detection(cfg, 10**6, 2718)
    assert abs(est - detection_probability(cfg)) <= 3 * se


def test_monte_carlo_random_configurations():
    """Fifty seeded random points, each within five standard errors."""
    rng = np.random.default_rng(1234)
    for k in range(50):
        cfg = GedankenConfig(
            gamma=rng.uniform(0, math.pi / 2),
            m=rng.uniform(0, 1),
            phi1=rng.uniform(0, 2 * math.pi),
            phi2=rng.uniform(0, 2 * math.pi),
            theta=rng.uniform(0, math.pi),
        )
        p = detection_probability(cfg)
        est, _ = monte_carlo_detection(cfg, 10**5, 5000 + k)
        se = math.sqrt(p * (1 - p) / 10**5)
        assert abs(est - p) <= 5 * se


angle = st.floats(-10.0, 10.0)


@settings(max_examples=200, deadline=None)
@given(gamma=st.floats(-math.pi / 2, math.pi / 2), m=st.floats(0.0, 1.0),
       phi1=angle, phi2=angle, theta=angle,
       samples=st.integers(1, 2**62), seed=st.integers(0, 2**64 - 1))
def test_monte_carlo_estimate_is_a_deterministic_fraction(gamma, m, phi1, phi2, theta,
                                                          samples, seed):
    cfg = GedankenConfig(gamma=gamma, m=m, phi1=phi1, phi2=phi2, theta=theta)
    est, se = monte_carlo_detection(cfg, samples, seed)
    assert 0.0 <= est <= 1.0
    assert math.isfinite(se) and se >= 0.0
    assert monte_carlo_detection(cfg, samples, seed) == (est, se)
