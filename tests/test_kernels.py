"""Numeric kernels against their element-by-element oracles: the
Monte-Carlo hit count of gedanken.monte_carlo_detection, whose branch-count
draw must follow the same law as the per-sample loop oracle (a distributional
check: the two use different random streams), and the floored Poisson
likelihood of the optimizer oracle that the tomography fit is checked
against (tests/_oracles.py), against a plain reimplementation and finite
differences."""

import math

import numpy as np
import pytest

from _oracles import _nll_poisson_batch, _nll_poisson_grad, mc_detection_count_loop
from polsim.gedanken import GedankenConfig, _amplitudes, monte_carlo_detection


def random_problem(rng):
    t = rng.normal(size=4) * 150.0
    pxx = rng.uniform(0, 1, 4)
    pyy = rng.uniform(0, 1, 4)
    rexy = rng.uniform(-0.5, 0.5, 4)
    imxy = rng.uniform(-0.5, 0.5, 4)
    counts = rng.uniform(0, 1e5, 4)
    floor = 1e-12 * (counts.sum() + 1.0)
    return t, (pxx, pyy, rexy, imxy, counts, floor)


def reference_nll(t, pxx, pyy, rexy, imxy, counts, floor):
    """Straightforward reimplementation used as the correctness oracle."""
    gxx = t[0] ** 2
    gyy = t[1] ** 2 + t[2] ** 2 + t[3] ** 2
    gxy = t[0] * (t[2] - 1j * t[3])
    mu = pxx * gxx + pyy * gyy + 2.0 * (rexy * gxy.real + imxy * gxy.imag)
    mu = np.maximum(mu, floor)
    return float(np.sum(mu - counts * np.log(mu)))


def mc_hits(cfg, samples, seed):
    """Hit count behind monte_carlo_detection(cfg, samples, seed)."""
    p_hat, _ = monte_carlo_detection(cfg, samples, seed)
    return round(p_hat * samples)


def branch_thresholds(cfg):
    """The documented branch probabilities: marker report, flagged and
    coherent detection."""
    a1, a2 = _amplitudes(cfg.gamma, cfg.phi1, cfg.phi2, cfg.theta)
    return (1.0 - cfg.m**2, 2.0 * abs(a1) ** 2,
            2.0 * abs(a1 * cfg.m + a2) ** 2 / (1.0 + cfg.m**2))


def loop_hits(cfg, samples, seed):
    """The loop oracle on its own uniform stream, with the documented
    branch thresholds."""
    u = np.random.default_rng(seed).random((3, samples))
    return mc_detection_count_loop(u[0], u[1], u[2], *branch_thresholds(cfg))


def test_mc_count_matches_direct_enumeration():
    rng = np.random.default_rng(1)
    u = rng.random((3, 5000))
    one_minus_m2, p_flag, p_coh = 0.64, 0.4, 0.7
    want = 0
    for s, r, d in zip(*u):
        p = p_flag if (s < 0.5 and r < one_minus_m2) else p_coh
        want += d < p
    assert mc_detection_count_loop(u[0], u[1], u[2], one_minus_m2, p_flag, p_coh) == want


def _distribution_configs():
    rng = np.random.default_rng(2)
    fixed = [
        GedankenConfig(gamma=0.0, m=0.0),                             # unmarked, p = 1/2
        GedankenConfig(gamma=math.pi / 2, m=0.0, theta=math.pi / 4),  # unmarked
        GedankenConfig(gamma=0.0, m=1.0),                             # certain detection
        GedankenConfig(gamma=0.0, m=1.0, phi2=math.pi),               # dark extremum
        GedankenConfig(gamma=math.pi / 3, m=1.0, theta=math.pi / 6),  # marked maximum
        GedankenConfig(gamma=math.pi / 3, m=0.5, theta=2 * math.pi / 3),  # minimum
        GedankenConfig(gamma=0.7, m=0.6, phi1=0.4, phi2=2.1, theta=1.3),
        GedankenConfig(gamma=1.2, m=0.3, theta=0.0),   # flagged and coherent far apart
    ]
    return fixed + [
        GedankenConfig(gamma=rng.uniform(0.0, math.pi / 2.0), m=rng.uniform(0.0, 1.0),
                       phi1=rng.uniform(0.0, 2.0 * math.pi),
                       phi2=rng.uniform(0.0, 2.0 * math.pi),
                       theta=rng.uniform(0.0, math.pi))
        for _ in range(4)
    ]


def binomial_moment_z(hits, n, p):
    """(z of the sample mean, z of the sample variance) of i.i.d. hit
    counts against Binomial(n, p), each with its exact standard error."""
    k = hits.size
    var = n * p * (1.0 - p)
    mu4 = var * (1.0 + 3.0 * (n - 2) * p * (1.0 - p))  # central fourth moment
    se_var = math.sqrt((mu4 - var**2 * (k - 3) / (k - 1)) / k)
    return ((hits.mean() - n * p) / math.sqrt(var / k),
            (hits.var(ddof=1) - var) / se_var)


MC_DIST_SAMPLES, MC_DIST_SEEDS, MC_DIST_Z = 40, 2000, 4.5


@pytest.mark.parametrize("cfg", _distribution_configs())
def test_mc_branch_count_draw_matches_the_loop_oracle_in_distribution(cfg):
    """monte_carlo_detection draws the branch counts, not one uniform triple
    per sample, so it and the loop oracle see different streams.  Both hit
    counts must follow Binomial(N, p) with p the per-sample hit probability
    of the loop's thresholds: mean and variance over 2000 seeds at N = 40
    within 4.5 of their exact standard errors.  Where N p (1 - p) is
    negligible (a dark or a certain extremum) every count must be the same."""
    one_minus_m2, p_flag, p_coh = branch_thresholds(cfg)
    p = 0.5 * one_minus_m2 * p_flag + (1.0 - 0.5 * one_minus_m2) * p_coh
    n = MC_DIST_SAMPLES
    draws = {
        "branch counts": np.array([mc_hits(cfg, n, np.random.SeedSequence((70, k)))
                                   for k in range(MC_DIST_SEEDS)]),
        "loop oracle": np.array([loop_hits(cfg, n, np.random.SeedSequence((71, k)))
                                 for k in range(MC_DIST_SEEDS)]),
    }
    for name, hits in draws.items():
        if n * p * (1.0 - p) < 1e-9:
            assert np.all(hits == round(n * p)), name
            continue
        z_mean, z_var = binomial_moment_z(hits, n, p)
        assert abs(z_mean) <= MC_DIST_Z, (name, z_mean)
        assert abs(z_var) <= MC_DIST_Z, (name, z_var)


def test_nll_value_matches_reference():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t, args = random_problem(rng)
        nll, _ = _nll_poisson_grad(t, *args)
        assert nll == pytest.approx(reference_nll(t, *args), rel=1e-13)


def test_nll_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(10):
        t, args = random_problem(rng)
        _, grad = _nll_poisson_grad(t, *args)
        h = 1e-5 * max(1.0, np.max(np.abs(t)))
        for k in range(4):
            tp, tm = t.copy(), t.copy()
            tp[k] += h
            tm[k] -= h
            fd = (reference_nll(tp, *args) - reference_nll(tm, *args)) / (2 * h)
            assert grad[k] == pytest.approx(fd, rel=2e-5, abs=1e-4)


def test_nll_batch_rows_equal_single_evaluations():
    rng = np.random.default_rng(6)
    _, args = random_problem(rng)
    batch = rng.normal(size=(25, 4)) * 100.0
    out = _nll_poisson_batch(batch, *args)
    for k in (0, 7, 24):
        single, _ = _nll_poisson_grad(batch[k], *args)
        assert out[k] == pytest.approx(single, rel=1e-13)


def test_floor_keeps_nll_finite_at_origin():
    rng = np.random.default_rng(7)
    _, args = random_problem(rng)
    nll, grad = _nll_poisson_grad(np.zeros(4), *args)
    assert np.isfinite(nll)
    assert np.all(np.isfinite(grad))
