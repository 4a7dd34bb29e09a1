"""Passive optics: the mode-operator attenuator, rotator and beam splitter
of the sparse Fock reference (tests/_fock.py), and the Jones matrices."""

import cmath
import math

import numpy as np
import pytest

from polsim.errors import ParameterError
from polsim.elements import polarizer_jones, waveplate_jones
from _fock import (
    ModeExpr,
    ModeId,
    attenuator,
    beam_splitter,
    polarization_rotation,
    unit_expr,
)

AX = unit_expr(ModeId("S1", "x"))
AY = unit_expr(ModeId("S1", "y"))
VAC = ModeId("VAC0", "xp")
IDLER = ModeId("I1", "xp")


def coeffs(expr, *modes):
    return tuple(expr.coefficient(m) for m in modes)


# ---------------------------------------------------------------------------
# attenuator
# ---------------------------------------------------------------------------

def test_attenuator_lossless_passthrough():
    out = attenuator(1.0, unit_expr(IDLER), VAC, phi=0.7)
    assert out.coefficient(IDLER) == pytest.approx(cmath.exp(0.7j), rel=1e-15)
    assert out.coefficient(VAC) == 0.0


def test_attenuator_full_block():
    out = attenuator(0.0, unit_expr(IDLER), VAC, phi=0.3)
    assert out.coefficient(IDLER) == 0.0
    assert out.coefficient(VAC) == pytest.approx(cmath.exp(0.3j), rel=1e-15)


def test_attenuator_intermediate():
    out = attenuator(0.6, unit_expr(IDLER), VAC)
    assert out.coefficient(IDLER) == pytest.approx(0.6, abs=1e-15)
    assert out.coefficient(VAC) == pytest.approx(0.8, abs=1e-15)


def test_attenuator_rejects_gain_and_vacuum_reuse():
    with pytest.raises(ParameterError):
        attenuator(1.1, unit_expr(IDLER), VAC)
    with pytest.raises(ParameterError):
        attenuator(0.5, unit_expr(VAC), VAC)


def test_attenuator_is_isometry_on_unit_inputs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        t = rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        out = attenuator(t, unit_expr(IDLER), VAC, phi=rng.uniform(0, 2 * math.pi))
        assert out.coefficient_norm_sq() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# polarization rotation
# ---------------------------------------------------------------------------

def test_rotation_identity_and_quarter_turn():
    rx, ry = polarization_rotation(0.0, AX, AY)
    assert dict(rx.terms) == dict(AX.terms)
    assert dict(ry.terms) == dict(AY.terms)
    rx, ry = polarization_rotation(math.pi / 2, AX, AY)
    np.testing.assert_allclose(coeffs(rx, *AX.terms, *AY.terms), (0.0, -1.0), atol=1e-15)
    np.testing.assert_allclose(coeffs(ry, *AX.terms, *AY.terms), (1.0, 0.0), atol=1e-15)


def test_rotation_sixty_degrees():
    rx, _ = polarization_rotation(math.pi / 3, AX, AY)
    assert rx.coefficient(next(iter(AX.terms))) == pytest.approx(0.5, rel=1e-15)
    assert rx.coefficient(next(iter(AY.terms))) == pytest.approx(-math.sqrt(3) / 2, rel=1e-15)


def test_rotation_composition():
    g1, g2 = 0.3, 0.8
    once = polarization_rotation(g2, *polarization_rotation(g1, AX, AY))
    both = polarization_rotation(g1 + g2, AX, AY)
    for a, b in zip(once, both):
        for mode in b.terms:
            assert a.coefficient(mode) == pytest.approx(b.coefficient(mode), abs=1e-12)


def test_rotation_rejects_obtuse_but_accepts_full_turn():
    with pytest.raises(ParameterError):
        polarization_rotation(math.pi, AX, AY)
    rx, _ = polarization_rotation(2 * math.pi, AX, AY)
    # 2 pi reduces to 0 before the cosine test
    assert rx.coefficient(next(iter(AX.terms))) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# beam splitter
# ---------------------------------------------------------------------------

def test_balanced_splitter_on_single_input():
    s = 1 / math.sqrt(2)
    out1, out2 = beam_splitter(s, s, AX, ModeExpr({}))
    mode = next(iter(AX.terms))
    assert out1.coefficient(mode) == pytest.approx(s, rel=1e-15)
    assert out2.coefficient(mode) == pytest.approx(1j * s, rel=1e-15)


def test_trivial_splitter_is_identity():
    out1, out2 = beam_splitter(1.0, 0.0, AX, AY)
    assert dict(out1.terms) == dict(AX.terms)
    assert dict(out2.terms) == dict(AY.terms)


def test_splitter_unitarity_guards():
    with pytest.raises(ParameterError):
        beam_splitter(1.0, 0.1, AX, AY)
    with pytest.raises(ParameterError):
        beam_splitter(0.8, 0.6j, AX, AY)  # relative phase between t and r


def test_splitter_preserves_total_power():
    rng = np.random.default_rng(3)
    for _ in range(10):
        th = rng.uniform(0, math.pi / 2)
        out1, out2 = beam_splitter(math.cos(th), math.sin(th), AX, AY)
        total = out1.coefficient_norm_sq() + out2.coefficient_norm_sq()
        assert total == pytest.approx(2.0, abs=1e-12)
        assert out1.coefficient_norm_sq() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Jones matrices
# ---------------------------------------------------------------------------

def test_quarter_and_half_wave_plates_at_zero():
    np.testing.assert_allclose(
        waveplate_jones("quarter", 0.0), np.diag([1.0, 1j]), atol=1e-15
    )
    np.testing.assert_allclose(
        waveplate_jones("half", 0.0), np.diag([1.0, -1.0]), atol=1e-15
    )


def test_half_wave_plate_rotates_linear_polarization():
    out = waveplate_jones("half", math.pi / 8) @ np.array([1.0, 0.0])
    # up to a global phase this is the diagonal state
    out = out / out[0] * abs(out[0])
    np.testing.assert_allclose(out, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)


def test_waveplates_are_unitary():
    rng = np.random.default_rng(5)
    for kind in ("half", "quarter"):
        for _ in range(8):
            j = waveplate_jones(kind, rng.uniform(0, math.pi))
            np.testing.assert_allclose(j.conj().T @ j, np.eye(2), atol=1e-12)


def test_waveplate_kind_is_checked():
    with pytest.raises(ParameterError):
        waveplate_jones("third", 0.0)


@pytest.mark.parametrize(
    "theta,expected",
    [
        (0.0, [[1, 0], [0, 0]]),
        (math.pi / 2, [[0, 0], [0, 1]]),
        (math.pi / 4, [[0.5, 0.5], [0.5, 0.5]]),
    ],
)
def test_polarizer_matrices(theta, expected):
    np.testing.assert_allclose(polarizer_jones(theta), expected, atol=1e-15)


def test_polarizer_is_projector_built_from_unit_vector():
    rng = np.random.default_rng(9)
    for _ in range(10):
        th = rng.uniform(0, 2 * math.pi)
        p = polarizer_jones(th)
        v = np.array([math.cos(th), math.sin(th)])
        assert np.array_equal(p, np.outer(v, v).astype(complex))
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        np.testing.assert_allclose(p, p.conj().T, atol=0)
        assert np.linalg.matrix_rank(p, tol=1e-12) == 1
