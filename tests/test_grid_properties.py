"""Property tests of the closed-form grids against the formulas written out
with math.* point by point."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polsim.errors import ParameterError, ZeroTraceError
from polsim.gedanken import degree_of_polarization_gedanken_grid
from polsim.zwm import (
    ImperfectionConfig,
    ZwmConfig,
    analytic_p_general,
    analytic_p_grid,
    analytic_p_special,
)

unit = st.floats(0.0, 1.0)
gammas = st.lists(st.floats(-math.pi / 2, math.pi / 2), min_size=1, max_size=6)
t_values = st.lists(unit, min_size=1, max_size=6)
small_phase = st.floats(-0.25, 0.25)


def closed_form(gamma, t_eff, beta):
    c, s, cb = math.cos(gamma), math.sin(gamma), math.cos(beta)
    num = c * c + t_eff * t_eff * (s * s + c * c * cb * cb) + 2.0 * t_eff * c * cb
    return math.sqrt(num) / (1.0 + t_eff * c * cb)


@settings(max_examples=150, deadline=None)
@given(gammas, t_values, unit, st.tuples(*[small_phase] * 6))
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
            point = ZwmConfig(g1=cfg.g1, g2=cfg.g2, t=t * phase, gamma=gamma,
                              phi_s1=cfg.phi_s1, phi_s2=cfg.phi_s2, phi_i=cfg.phi_i,
                              imperfections=cfg.imperfections)
            assert p[i, j] == analytic_p_general(point)


def test_analytic_grid_guards():
    with pytest.raises(ParameterError):
        analytic_p_grid(ZwmConfig(g1=0.01, g2=0.02), [0.0], [0.5])
    with pytest.raises(ParameterError):
        analytic_p_grid(ZwmConfig(imperfections=ImperfectionConfig(bs_ty=0.9)),
                        [0.0], [0.5])
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
    with pytest.raises(ParameterError, match="marker quality"):
        degree_of_polarization_gedanken_grid([0.0, 0.3], [0.5, 1.5])
    with pytest.raises(ParameterError, match="marker quality"):
        degree_of_polarization_gedanken_grid([0.0], [math.nan])
    with pytest.raises(ParameterError, match="erasure angle"):
        degree_of_polarization_gedanken_grid([0.0, math.pi], [0.5])
    with pytest.raises(ParameterError, match="erasure angle"):
        degree_of_polarization_gedanken_grid([math.nan], [0.5])
