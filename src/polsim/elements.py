"""Jones matrices of the tomography analyzer: wave plates and polarizers,
returned as plain 2x2 complex arrays."""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ParameterError


def _frame_rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, s], [-s, c]])


def waveplate_jones(kind: str, angle: float) -> np.ndarray:
    """Jones matrix of a retarder with its fast axis at `angle`.

    kind is "half" (retardance pi) or "quarter" (retardance pi/2); the fast
    axis carries no phase, the slow axis gets exp(i*retardance).
    """
    try:
        delta = {"half": math.pi, "quarter": math.pi / 2}[kind]
    except KeyError:
        raise ParameterError(f"waveplate kind must be 'half' or 'quarter', got {kind!r}") from None
    retard = np.array([[1.0, 0.0], [0.0, cmath.exp(1j * delta)]])
    rot = _frame_rotation(angle)
    return rot.T @ retard @ rot


def polarizer_jones(theta: float) -> np.ndarray:
    """Projector onto linear polarization at angle theta."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)
