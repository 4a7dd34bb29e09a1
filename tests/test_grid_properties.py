"""Property tests of the closed-form grids against the formulas written out
with math.* point by point, and of both exact estimators near a dark fringe
against the 45-digit decimal reference."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _oracles import decimal_p
from polsim.config import DEFAULTS, build_configs
from polsim.errors import ParameterError, ZeroTraceError
from polsim.gedanken import degree_of_polarization_gedanken_grid
from polsim.zwm import (
    ImperfectionConfig,
    ZwmConfig,
    analytic_p_general,
    analytic_p_grid,
    analytic_p_special,
    coherence_grid,
    degree_of_polarization_grid,
)

unit = st.floats(0.0, 1.0)
gammas = st.lists(st.floats(-math.pi / 2, math.pi / 2), min_size=1, max_size=6)
t_values = st.lists(unit, min_size=1, max_size=6)
small_phase = st.floats(-0.25, 0.25)
# the 201x201 grid of 0 to 90 deg and 0 to 1, on which the analytic and
# gedanken sweeps must agree
DENSE_GAMMAS = [math.radians(90 * i / 200) for i in range(201)]
DENSE_TS = [i / 200 for i in range(201)]


# general corpus: 2000 configs with every key that reaches ZwmConfig random,
# and 400 more tuned to a dark fringe at gamma = 0, |T| = 1
CORPUS_SIZE, CORPUS_DARK = 2400, 400


def general_corpus():
    """(cfg, gammas, |T| values) triples from config values: gains log-uniform
    over [1e-100, 0.1], every other key uniform over its range, each config
    on a 7x5 grid holding a random gamma and |T|, gamma = 0 and 90 deg and
    |T| = 0 and 1.  Every sixth config is a dark fringe at gamma = 0, |T| = 1:
    eta_idler = mu_overlap = 1, |g2| / |g1| = t_x / r_x and beta = pi.  Every
    fifth of the others has eta_idler = mu_overlap = 1, so m = 1 at |T| = 1."""
    rng = np.random.default_rng(2610)
    for k in range(CORPUS_SIZE):
        values = dict(DEFAULTS)
        for key in ("g1_mag", "g2_mag"):
            values[key] = 10.0 ** rng.uniform(-100.0, -1.0)
        for key in ("g1_phase_rad", "g2_phase_rad", "t_phase_rad",
                    "phi_s1_rad", "phi_s2_rad", "phi_i_rad"):
            values[key] = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        t_abs = rng.uniform(0.0, 1.0)
        for key in ("eta_idler", "bs_tx", "bs_ty", "mu_overlap"):
            values[key] = rng.uniform(0.0, 1.0)
        gamma = math.radians(rng.uniform(-90.0, 90.0))
        if k % 6 == 0 or k % 5 == 0:
            values["eta_idler"] = values["mu_overlap"] = 1.0
        if k % 6 == 0:
            ratio = math.sqrt(2.0 / values["bs_tx"] ** 2 - 1.0)  # t_x / r_x
            values["g1_mag"] = min(values["g1_mag"], 0.1 / ratio)
            values["g2_mag"] = values["g1_mag"] * ratio
            values["phi_s2_rad"] = (math.pi + values["phi_s1_rad"] + values["phi_i_rad"]
                                    + values["t_phase_rad"] - values["g2_phase_rad"]
                                    + values["g1_phase_rad"])
        cfg, _ = build_configs(values)
        gs = np.array([gamma, 0.0, math.pi / 2, *rng.uniform(-math.pi / 2, math.pi / 2, 4)])
        ts = np.array([t_abs, 0.0, 1.0, *rng.uniform(0.0, 1.0, 2)])
        yield cfg, gs, ts


def test_analytic_grid_agrees_with_the_pipeline_on_every_config():
    dark = 0
    for cfg, gs, ts in general_corpus():
        try:
            p = analytic_p_grid(cfg, gs, ts)
        except ZeroTraceError:
            p = None
        try:
            q = degree_of_polarization_grid(coherence_grid(cfg, gs, ts))
        except ZeroTraceError:
            q = None
        assert (p is None) == (q is None), cfg
        if p is None:
            dark += 1
        else:
            assert np.max(np.abs(p - q)) <= 1e-12, cfg
    assert dark == CORPUS_DARK


def test_closed_form_obeys_the_determinant_identity():
    """det G = w1 w2 r_x^2 t_y^2 (1 - m^2) sin^2 gamma, so 1 - P^2 = 4 det G / (tr G)^2
    and P = 1 wherever m = 1 or sin gamma = 0: the beam is partially polarized
    only where both kinds of distinguishability exist."""
    for cfg, gs, ts in general_corpus():
        try:
            p = analytic_p_grid(cfg, gs, ts)
        except ZeroTraceError:
            continue
        imp = cfg.imperfections
        big = max(abs(cfg.g1), abs(cfg.g2))
        w1, w2 = (abs(cfg.g1) / big) ** 2, (abs(cfg.g2) / big) ** 2
        m = ts * imp.eta_idler * imp.mu_overlap
        s = np.sin(gs)[:, None]
        rx2, ty2 = imp.bs_tx ** 2 / 2.0, 1.0 - imp.bs_ty ** 2 / 2.0
        det = w1 * w2 * rx2 * ty2 * (1.0 - m * m) * s * s
        g = coherence_grid(cfg, gs, ts) / big ** 2
        tr = g[..., 0, 0].real + g[..., 1, 1].real
        assert np.max(np.abs((1.0 - p * p) - 4.0 * det / tr ** 2)) <= 1e-12, cfg
        pure = (m == 1.0) | (s == 0.0)
        assert np.all(np.abs(p - 1.0)[pure] <= 1e-12), cfg


# near-fringe corpus: beta within 1e-3 of pi, gamma from 1e-8 to 0.1 rad and
# 1 - |T| from 1e-13 to 1e-2, checked against the 45-digit decimal reference
FRINGE_SIZE = 2100


def near_fringe_corpus():
    """(cfg, gamma, |T|) from config values, in turn: the ideal instrument with
    beta set by phi_s2_rad; the ideal instrument with beta set by t_phase_rad;
    random imperfections and gains, the gains balanced so that the fringe is
    dark at gamma = 0, |T| = 1 (a2 r_x eta mu = a1 t_x), and beta set by
    phi_s2_rad against random phases.  gamma, 1 - |T| and |beta - pi| are
    log-uniform over their ranges."""
    rng = np.random.default_rng(3110)
    for k in range(FRINGE_SIZE):
        values = dict(DEFAULTS)
        beta = math.pi + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16.0, -3.0)
        if k % 3 == 0:
            values["phi_s2_rad"] = beta
        elif k % 3 == 1:
            values["t_phase_rad"] = -beta
        else:
            for key in ("eta_idler", "bs_tx", "bs_ty", "mu_overlap"):
                values[key] = rng.uniform(0.2, 1.0)
            for key in ("g1_phase_rad", "g2_phase_rad", "t_phase_rad", "phi_s1_rad",
                        "phi_i_rad"):
                values[key] = rng.uniform(-math.pi, math.pi)
            ratio = math.sqrt(2.0 / values["bs_tx"] ** 2 - 1.0) / (
                values["eta_idler"] * values["mu_overlap"])  # a2 / a1
            values["g1_mag"] = 10.0 ** rng.uniform(-100.0, math.log10(0.1 / ratio))
            values["g2_mag"] = values["g1_mag"] * ratio
            values["phi_s2_rad"] = (beta + values["phi_s1_rad"] + values["phi_i_rad"]
                                    + values["t_phase_rad"] - values["g2_phase_rad"]
                                    + values["g1_phase_rad"])
        cfg, _ = build_configs(values)
        yield cfg, 10.0 ** rng.uniform(-8.0, -1.0), 1.0 - 10.0 ** rng.uniform(-13.0, -2.0)


def test_exact_estimators_match_the_decimal_reference_at_the_fringe():
    """Both exact estimators lie within 1e-12 of the two-branch G evaluated at 45
    digits wherever the reference's shared amplitude is above the zero rule, and
    they make the same zero-intensity decision at every point."""
    checked = 0
    for cfg, gamma, t_abs in near_fringe_corpus():
        want, ratio = decimal_p(cfg, gamma, t_abs)
        got = []
        for estimate in (analytic_p_grid, lambda *point: degree_of_polarization_grid(
                coherence_grid(*point))):
            try:
                got.append(float(estimate(cfg, [gamma], [t_abs])[0, 0]))
            except ZeroTraceError:
                got.append(None)
        assert (got[0] is None) == (got[1] is None), (cfg, gamma, t_abs)
        if ratio > 1e-13:
            checked += 1
            assert None not in got, (cfg, gamma, t_abs)
            assert max(abs(p - float(want)) for p in got) <= 1e-12, (cfg, gamma, t_abs, got, want)
    assert checked >= 2000


def closed_form(gamma, t_eff, beta):
    c, s, cb = math.cos(gamma), math.sin(gamma), math.cos(beta)
    num = c * c + t_eff * t_eff * (s * s + c * c * cb * cb) + 2.0 * t_eff * c * cb
    return math.sqrt(num) / (1.0 + t_eff * c * cb)


@settings(max_examples=150, deadline=None)
@given(gammas, t_values, unit, st.tuples(*[small_phase] * 6))
@example(DENSE_GAMMAS, DENSE_TS, 1.0, (0.0,) * 6)
def test_analytic_grid_matches_the_closed_form_point_by_point(gs, ts, eta, phases):
    # phases small enough that beta needs no reduction and the denominator
    # stays above 1, so the only rounding difference is arg(T) itself
    g1_arg, g2_arg, t_arg, phi_s1, phi_s2, phi_i = phases
    cfg = ZwmConfig(g1=0.01 * complex(math.cos(g1_arg), math.sin(g1_arg)),
                    g2=0.01 * complex(math.cos(g2_arg), math.sin(g2_arg)),
                    t=complex(math.cos(t_arg), math.sin(t_arg)),
                    phi_s1=phi_s1, phi_s2=phi_s2, phi_i=phi_i,
                    imperfections=ImperfectionConfig(eta_idler=eta))
    p = analytic_p_grid(cfg, gs, ts)
    assert p.shape == (len(gs), len(ts))
    for i, gamma in enumerate(gs):
        for j, t in enumerate(ts):
            arg_t = t_arg if t > 0.0 else 0.0
            beta = phi_s2 - phi_s1 - phi_i - arg_t + g2_arg - g1_arg
            want = min(closed_form(gamma, t * eta, beta), 1.0)
            assert abs(p[i, j] - want) <= 1e-15


@settings(max_examples=150, deadline=None)
@given(gammas, t_values, st.floats(-math.pi, math.pi), unit)
def test_analytic_grid_lies_in_the_unit_interval(gs, ts, phi_s2, eta):
    cfg = ZwmConfig(phi_s2=phi_s2, imperfections=ImperfectionConfig(eta_idler=eta))
    try:
        p = analytic_p_grid(cfg, gs, ts)
    except ZeroTraceError:
        return
    assert np.all((p >= 0.0) & (p <= 1.0))


@settings(max_examples=150, deadline=None)
@given(gammas, t_values)
def test_analytic_grid_does_not_decrease_with_t_at_zero_beta(gs, ts):
    ts = sorted(ts)
    p = analytic_p_grid(ZwmConfig(), gs, ts)
    assert np.all(np.diff(p, axis=1) >= -1e-15)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(0.0, math.pi / 2), min_size=1, max_size=6), t_values)
@example(DENSE_GAMMAS, DENSE_TS)
def test_gedanken_grid_is_the_bridge_to_the_special_case(gs, ms):
    p = degree_of_polarization_gedanken_grid(gs, ms)
    assert p.shape == (len(gs), len(ms))
    for i, gamma in enumerate(gs):
        for j, m in enumerate(ms):
            assert abs(p[i, j] - analytic_p_special(m, gamma)) <= 1e-15
            assert 0.0 <= p[i, j] <= 1.0


def test_analytic_grid_entries_equal_single_point_calls():
    cfg = ZwmConfig(g1=0.01j, g2=-0.01, t=0.7 - 0.2j, phi_s1=0.3, phi_s2=1.9,
                    phi_i=-0.8, imperfections=ImperfectionConfig(eta_idler=0.85))
    gs, ts = np.linspace(-1.5, 1.5, 7), np.linspace(0.0, 1.0, 6)
    p = analytic_p_grid(cfg, gs, ts)
    phase = cfg.t / abs(cfg.t)
    for i, gamma in enumerate(gs):
        for j, t in enumerate(ts):
            assert p[i, j] == analytic_p_grid(cfg, [gamma], [t])[0, 0]
            # the point's |T| is |t * phase|, which can round an ulp off t
            point = ZwmConfig(g1=cfg.g1, g2=cfg.g2, t=t * phase, gamma=gamma,
                              phi_s1=cfg.phi_s1, phi_s2=cfg.phi_s2, phi_i=cfg.phi_i,
                              imperfections=cfg.imperfections)
            assert p[i, j] == pytest.approx(analytic_p_general(point), rel=1e-14, abs=1e-15)


def test_analytic_grid_guards():
    with pytest.raises(ParameterError):
        analytic_p_grid(ZwmConfig(), [0.0, math.nan], [0.5])
    with pytest.raises(ParameterError):
        analytic_p_grid(ZwmConfig(), [0.0, math.pi], [0.5])
    with pytest.raises(ParameterError):
        analytic_p_grid(ZwmConfig(), [0.0], [0.5, 1.5])
    # one dark point (gamma = 0, |T| = 1, beta = pi) fails the whole grid
    with pytest.raises(ZeroTraceError):
        analytic_p_grid(ZwmConfig(phi_s2=math.pi), [-0.5, 0.0, 0.5], [0.2, 1.0])


def test_gedanken_grid_range_checks():
    with pytest.raises(ParameterError, match=r"every \|T\|"):
        degree_of_polarization_gedanken_grid([0.0, 0.3], [0.5, 1.5])
    with pytest.raises(ParameterError, match=r"every \|T\|"):
        degree_of_polarization_gedanken_grid([0.0], [math.nan])
    with pytest.raises(ParameterError, match="every gamma"):
        degree_of_polarization_gedanken_grid([0.0, math.pi], [0.5])
    with pytest.raises(ParameterError, match="every gamma"):
        degree_of_polarization_gedanken_grid([math.nan], [0.5])
    for gamma in (math.inf, -math.inf):
        with pytest.raises(ParameterError, match="every gamma"):
            degree_of_polarization_gedanken_grid([0.0, gamma], [0.5])
