"""Passive optics of the references in tests/_oracles.py: the attenuator,
rotation and splitter coefficient maps of the dense Fock reference, and the
Jones matrices of the tomography analyzer (quarter-wave plate and polarizer)."""

import cmath
import math

import numpy as np
import pytest

from polsim.errors import ParameterError
from _oracles import MODES, attenuator, polarizer_jones, quarter_wave_jones, rotation, splitter

I1, VAC0 = MODES.index("I1"), MODES.index("VAC0")


# ---------------------------------------------------------------------------
# attenuator: I1 -> (t I1 + r VAC0) e^{i phi}
# ---------------------------------------------------------------------------

def test_attenuator_lossless_passthrough():
    out = attenuator(1.0, 0.7)
    assert out[I1] == pytest.approx(cmath.exp(0.7j), rel=1e-15)
    assert out[VAC0] == 0.0
    assert not np.delete(out, [I1, VAC0]).any()


def test_attenuator_full_block():
    out = attenuator(0.0, 0.3)
    assert out[I1] == 0.0
    assert out[VAC0] == pytest.approx(cmath.exp(0.3j), rel=1e-15)


def test_attenuator_intermediate():
    out = attenuator(0.6, 0.0)
    assert out[I1] == pytest.approx(0.6, abs=1e-15)
    assert out[VAC0] == pytest.approx(0.8, abs=1e-15)


def test_attenuator_is_isometry_on_unit_inputs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        t = rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        out = attenuator(t, rng.uniform(0, 2 * math.pi))
        assert np.vdot(out, out).real == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# polarization rotation: (x, y) -> (c x - s y, s x + c y)
# ---------------------------------------------------------------------------

def test_rotation_identity_and_quarter_turn():
    assert np.array_equal(rotation(0.0), np.eye(2))
    np.testing.assert_allclose(rotation(math.pi / 2), [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)


def test_rotation_sixty_degrees():
    rx = rotation(math.pi / 3)[0]
    assert rx[0] == pytest.approx(0.5, rel=1e-15)
    assert rx[1] == pytest.approx(-math.sqrt(3) / 2, rel=1e-15)


def test_rotation_composition():
    g1, g2 = 0.3, 0.8
    both = rotation(g1 + g2)
    np.testing.assert_allclose(rotation(g2) @ rotation(g1), both, atol=1e-12)
    np.testing.assert_allclose(both.T @ both, np.eye(2), atol=1e-12)


# ---------------------------------------------------------------------------
# beam splitter: output k = sum_j S[k, j] input j, S = [[t, i r], [i r, t]]
# ---------------------------------------------------------------------------

def test_balanced_splitter_on_single_input():
    s = 1 / math.sqrt(2)
    out1, out2 = splitter(s, s) @ np.array([1.0, 0.0])
    assert out1 == pytest.approx(s, rel=1e-15)
    assert out2 == pytest.approx(1j * s, rel=1e-15)


def test_trivial_splitter_is_identity():
    assert np.array_equal(splitter(1.0, 0.0), np.eye(2))


def test_splitter_unitarity_guards():
    with pytest.raises(ParameterError):
        splitter(1.0, 0.1)
    with pytest.raises(ParameterError):
        splitter(0.8, 0.6j)  # relative phase between t and r


def test_splitter_preserves_total_power():
    rng = np.random.default_rng(3)
    for _ in range(10):
        th = rng.uniform(0, math.pi / 2)
        s = splitter(math.cos(th), math.sin(th))
        np.testing.assert_allclose(s.conj().T @ s, np.eye(2), atol=1e-12)
        # one unit input on each port: each output carries unit power
        np.testing.assert_allclose(np.sum(np.abs(s) ** 2, axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Jones matrices
# ---------------------------------------------------------------------------


def test_quarter_wave_plate_at_zero():
    np.testing.assert_allclose(quarter_wave_jones(0.0), np.diag([1.0, 1j]), atol=1e-15)


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
