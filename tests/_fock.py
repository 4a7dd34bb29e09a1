"""Sparse multi-mode bosonic Fock states and the mode-operator transforms
of passive optics: a reference implementation of the interferometer physics
that the tests check the biphoton-matrix pipeline against.

States are finite superpositions of occupation-number vectors over a fixed
mode registry, truncated at a maximum total photon number.  With pair sources
driven at small gain only a handful of terms ever carry weight, so amplitudes
are stored in a dict keyed by the occupation tuple.  All values are immutable;
operations return new states.  Optical elements (attenuator, polarization
rotator, beam splitter) act on `ModeExpr` values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from polsim.errors import ParameterError, PolsimError


class RegistryError(PolsimError, ValueError):
    """An operation referenced a mode that is not in the state's registry."""


BEAM_LABELS = ("S1", "S2", "I1", "VAC0")
SIGNAL_POLS = ("x", "y")
IDLER_POL = "xp"


@dataclass(frozen=True)
class ModeId:
    """One optical mode: a beam label plus a polarization axis.

    Signal beams (S1, S2) carry an x or y polarization; the idler beam I1 and
    the attenuator's vacuum port VAC0 carry the single idler axis "xp".
    """

    label: str
    pol: str

    def __post_init__(self):
        if self.label not in BEAM_LABELS:
            raise ParameterError(f"unknown beam label {self.label!r}")
        allowed = SIGNAL_POLS if self.label in ("S1", "S2") else (IDLER_POL,)
        if self.pol not in allowed:
            raise ParameterError(
                f"polarization {self.pol!r} invalid for beam {self.label!r}"
            )

    def __str__(self):
        return f"{self.label}.{self.pol}"


class ModeRegistry:
    """Fixed, ordered set of modes defining the occupation-vector layout."""

    def __init__(self, modes: Iterable[ModeId]):
        modes = tuple(modes)
        if not modes:
            raise ParameterError("registry needs at least one mode")
        if len(set(modes)) != len(modes):
            raise ParameterError("duplicate modes in registry")
        self._modes = modes
        self._index = {m: i for i, m in enumerate(modes)}

    @property
    def modes(self) -> tuple[ModeId, ...]:
        return self._modes

    def index(self, mode: ModeId) -> int:
        try:
            return self._index[mode]
        except KeyError:
            raise RegistryError(f"mode {mode} not in registry") from None

    def __contains__(self, mode: ModeId) -> bool:
        return mode in self._index

    def __len__(self) -> int:
        return len(self._modes)

    def __iter__(self) -> Iterator[ModeId]:
        return iter(self._modes)

    def __eq__(self, other) -> bool:
        return isinstance(other, ModeRegistry) and self._modes == other._modes

    def __hash__(self) -> int:
        return hash(self._modes)

    def __repr__(self):
        return f"ModeRegistry({', '.join(str(m) for m in self._modes)})"


def _pruned(terms: dict, threshold: float) -> dict:
    if threshold > 0.0:
        return {occ: a for occ, a in terms.items() if abs(a) >= threshold}
    return {occ: a for occ, a in terms.items() if a != 0}


@dataclass(frozen=True)
class FockState:
    """Sparse superposition of occupation-number basis vectors.

    `terms` maps full-length occupation tuples (one entry per registry mode)
    to complex amplitudes.  `truncation_loss` accumulates the squared weight
    of amplitudes that creation operators pushed past `truncation_order`.
    """

    registry: ModeRegistry
    terms: Mapping[tuple[int, ...], complex]
    truncation_order: int = 2
    prune_threshold: float = 0.0
    truncation_loss: float = 0.0

    def __post_init__(self):
        if self.truncation_order < 1:
            raise ParameterError("truncation_order must be >= 1")
        if self.prune_threshold < 0:
            raise ParameterError("prune_threshold must be >= 0")
        n = len(self.registry)
        for occ in self.terms:
            if len(occ) != n:
                raise ParameterError(
                    f"occupation tuple {occ} does not match registry size {n}"
                )
            if any(k < 0 for k in occ):
                raise ParameterError(f"negative occupation in {occ}")
            if sum(occ) > self.truncation_order:
                raise ParameterError(
                    f"occupation {occ} exceeds truncation order {self.truncation_order}"
                )

    def amplitude(self, occupation: tuple[int, ...]) -> complex:
        return complex(self.terms.get(tuple(occupation), 0.0))

    def __add__(self, other: "FockState") -> "FockState":
        _check_same_registry(self, other)
        out = dict(self.terms)
        for occ, a in other.terms.items():
            out[occ] = out.get(occ, 0j) + a
        return FockState(
            self.registry,
            _pruned(out, self.prune_threshold),
            self.truncation_order,
            self.prune_threshold,
            self.truncation_loss + other.truncation_loss,
        )

    def __mul__(self, scalar) -> "FockState":
        scalar = complex(scalar)
        out = {occ: scalar * a for occ, a in self.terms.items()}
        return FockState(
            self.registry,
            _pruned(out, self.prune_threshold),
            self.truncation_order,
            self.prune_threshold,
            self.truncation_loss,
        )

    __rmul__ = __mul__


def vacuum(
    registry: ModeRegistry, truncation_order: int = 2, prune_threshold: float = 0.0
) -> FockState:
    """All-modes-empty state with unit amplitude."""
    occ = (0,) * len(registry)
    return FockState(registry, {occ: 1.0 + 0j}, truncation_order, prune_threshold)


def _check_same_registry(a: FockState, b: FockState) -> None:
    if a.registry != b.registry:
        raise RegistryError("states live on different mode registries")


def apply_creation(state: FockState, mode: ModeId) -> FockState:
    """Apply a creation operator; amplitudes pushed past the truncation are
    dropped and their squared weight is added to `truncation_loss`."""
    i = state.registry.index(mode)
    out: dict = {}
    lost = state.truncation_loss
    for occ, amp in state.terms.items():
        n = occ[i]
        if sum(occ) + 1 > state.truncation_order:
            lost += (n + 1) * abs(amp) ** 2
            continue
        new_occ = occ[:i] + (n + 1,) + occ[i + 1 :]
        out[new_occ] = out.get(new_occ, 0j) + math.sqrt(n + 1) * amp
    return FockState(
        state.registry,
        _pruned(out, state.prune_threshold),
        state.truncation_order,
        state.prune_threshold,
        lost,
    )


def apply_annihilation(state: FockState, mode: ModeId) -> FockState:
    i = state.registry.index(mode)
    out: dict = {}
    for occ, amp in state.terms.items():
        n = occ[i]
        if n == 0:
            continue
        new_occ = occ[:i] + (n - 1,) + occ[i + 1 :]
        out[new_occ] = out.get(new_occ, 0j) + math.sqrt(n) * amp
    return FockState(
        state.registry,
        _pruned(out, state.prune_threshold),
        state.truncation_order,
        state.prune_threshold,
        state.truncation_loss,
    )


def inner_product(bra: FockState, ket: FockState) -> complex:
    """<bra|ket> with the bra amplitudes conjugated."""
    _check_same_registry(bra, ket)
    if len(bra.terms) <= len(ket.terms):
        return complex(sum(
            a.conjugate() * ket.terms[occ]
            for occ, a in bra.terms.items() if occ in ket.terms
        ))
    return complex(sum(
        bra.terms[occ].conjugate() * a
        for occ, a in ket.terms.items() if occ in bra.terms
    ))


@dataclass(frozen=True)
class ModeExpr:
    """Complex linear combination of annihilation operators.

    Optical elements act on these; applying one to a state annihilates
    term by term.  Arithmetic is exact (no pruning).
    """

    terms: Mapping[ModeId, complex] = field(default_factory=dict)

    def __add__(self, other: "ModeExpr") -> "ModeExpr":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0j) + c
        return ModeExpr({m: c for m, c in out.items() if c != 0})

    def __sub__(self, other: "ModeExpr") -> "ModeExpr":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "ModeExpr":
        scalar = complex(scalar)
        if scalar == 0:
            return ModeExpr({})
        return ModeExpr({m: scalar * c for m, c in self.terms.items()})

    __rmul__ = __mul__

    def coefficient(self, mode: ModeId) -> complex:
        return complex(self.terms.get(mode, 0.0))

    def coefficient_norm_sq(self) -> float:
        return float(sum(abs(c) ** 2 for c in self.terms.values()))


def unit_expr(mode: ModeId) -> ModeExpr:
    return ModeExpr({mode: 1.0 + 0j})


def apply_expr(expr: ModeExpr, state: FockState) -> FockState:
    """Apply a linear combination of annihilation operators to a state."""
    result = FockState(
        state.registry, {}, state.truncation_order, state.prune_threshold
    )
    for mode, coef in expr.terms.items():
        result = result + coef * apply_annihilation(state, mode)
    return result


def pair_expectation(state: FockState, p: ModeExpr, q: ModeExpr) -> complex:
    """<state| p^dagger q |state> for mode expressions p and q.

    Since <psi| p^dagger = (p|psi>)^dagger this is the inner product of the
    two annihilated states, which makes conjugate symmetry automatic.
    """
    return inner_product(apply_expr(p, state), apply_expr(q, state))


# ---------------------------------------------------------------------------
# Passive optics on mode operators
# ---------------------------------------------------------------------------

UNITARY_TOL = 1e-12


def attenuator(
    t: complex, input_expr: ModeExpr, vac_port: ModeId, phi: float = 0.0
) -> ModeExpr:
    """Lossy channel modeled as a beam splitter onto a vacuum port.

    Returns (t * input + r * a_vac) * exp(i*phi) with r = sqrt(1 - |t|^2)
    chosen real and non-negative, so the coefficient map is an isometry.
    """
    t = complex(t)
    if abs(t) > 1.0 + UNITARY_TOL:
        raise ParameterError(f"attenuator transmission |t| = {abs(t)} exceeds 1")
    if vac_port in input_expr.terms:
        raise ParameterError("input expression already uses the vacuum port")
    r = math.sqrt(max(0.0, 1.0 - abs(t) ** 2))
    phase = cmath.exp(1j * phi)
    return (t * input_expr + r * unit_expr(vac_port)) * phase


def _reduced_cos_sin(gamma: float) -> tuple[float, float]:
    gamma = math.remainder(gamma, 2.0 * math.pi)
    c, s = math.cos(gamma), math.sin(gamma)
    if c < -UNITARY_TOL:
        raise ParameterError(
            f"rotation angle {gamma} rad has cos < 0; rotate the frame instead"
        )
    return c, s


def polarization_rotation(
    gamma: float, ax: ModeExpr, ay: ModeExpr
) -> tuple[ModeExpr, ModeExpr]:
    """Rotate a polarization mode pair by gamma.

    Returns (cos(g)*ax - sin(g)*ay, sin(g)*ax + cos(g)*ay).  Angles with
    cos(gamma) < 0 are rejected rather than remapped.
    """
    c, s = _reduced_cos_sin(gamma)
    return c * ax - s * ay, s * ax + c * ay


def beam_splitter(
    t: complex, r: complex, a1: ModeExpr, a2: ModeExpr
) -> tuple[ModeExpr, ModeExpr]:
    """Two-port splitter with the symmetric convention [[t, i*r], [i*r, t]].

    Output 1 is t*a1 + i*r*a2; output 2 is i*r*a1 + t*a2.  The coefficient
    matrix must be unitary: |t|^2 + |r|^2 = 1 and t*conj(r) real.
    """
    t, r = complex(t), complex(r)
    if abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) > UNITARY_TOL:
        raise ParameterError("beam splitter coefficients violate |t|^2 + |r|^2 = 1")
    if abs((r * t.conjugate()).imag) > UNITARY_TOL:
        raise ParameterError("beam splitter t and r must share a common phase")
    return t * a1 + (1j * r) * a2, (1j * r) * a1 + t * a2
