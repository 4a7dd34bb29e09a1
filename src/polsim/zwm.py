"""Two-crystal induced-coherence interferometer.

Two pair sources share one idler path: the first source's idler is sent
through an attenuator (amplitude transmission T) into the second source's
idler mode, so the two signal beams stay mutually coherent only to the
degree the idler path survives.  A polarization rotation by gamma in the
first signal arm makes the path information erasable; the superposed signal
beams are analyzed through a balanced splitter and their 2x2 coherence
matrix gives the degree of polarization.

To first order in the gains the post-selected state is a 4x2 biphoton
amplitude matrix A: rows are the signal modes (S1x, S1y, S2x, S2y), columns
the idler modes (I1 and the attenuator's vacuum port VAC0).  The signal
moments are M = conj(A) A^T, the detector fields a 2x4 map F of the signal
modes, and G = conj(F) M F^T: the reduced-signal-state picture of induced
coherence (Zou, Wang & Mandel, PRL 67, 318, 1991).  A depends on |T| only
and F on gamma only, so a whole (gamma, |T|) grid is one array expression.
To this order the S2 block of M is |g2|^2 for any T_eff and the S1-S2 block
is linear in T_eff, so the overlap mu that scales that block is a factor on
|T| (Mandel, Opt. Lett. 16, 1882, 1991); not so at high gain, where |T| also
weights stimulated emission.  G is a Gram matrix, so Hermitian and positive
semidefinite by construction.  It is not checked at run time:
test_pipeline_matrices_satisfy_strict_invariants in tests/test_zwm.py pins it.

The splitter's reflection phase is folded into the second arm's phase
reference, so the interferometric phase of every cross term is exactly
``beta(cfg)`` and an all-zero-phase configuration sits at beta = 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ZeroTraceError

_COS_TOL = 1e-12
_CANCEL_TOL = 1e-13


def _check_unit_interval(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ParameterError(f"{name} = {value} outside [0, 1]")


def _check_gamma(gamma: float) -> None:
    if not (math.isfinite(gamma) and math.cos(gamma) >= -_COS_TOL):
        raise ParameterError(f"gamma = {gamma} rad must be finite with cos(gamma) >= 0")


@dataclass(frozen=True)
class ImperfectionConfig:
    """Device imperfections, all 1.0 for the ideal instrument.

    eta_idler: lumped idler-path amplitude transmission, multiplies T
    bs_tx, bs_ty: per-polarization splitter coupling of the second arm into
        the detector port, relative to the balanced 1/sqrt(2)
    mu_overlap: spectral/spatial overlap of the two signal beams, scales
        every cross-source coherence term
    """

    eta_idler: float = 1.0
    bs_tx: float = 1.0
    bs_ty: float = 1.0
    mu_overlap: float = 1.0

    def __post_init__(self):
        for name in ("eta_idler", "bs_tx", "bs_ty", "mu_overlap"):
            _check_unit_interval(getattr(self, name), name)


@dataclass(frozen=True)
class ZwmConfig:
    """One operating point of the interferometer.

    g1, g2: complex pair-source gains, 0 < |g| <= 0.1 (perturbative regime)
    t: complex attenuator amplitude transmission, |t| <= 1
    gamma: polarization rotation in the first signal arm (rad), cos >= 0
    phi_s1, phi_s2, phi_i: signal-arm and idler propagation phases (rad)
    """

    g1: complex = 0.01
    g2: complex = 0.01
    t: complex = 1.0
    gamma: float = 0.0
    phi_s1: float = 0.0
    phi_s2: float = 0.0
    phi_i: float = 0.0
    imperfections: ImperfectionConfig = field(default_factory=ImperfectionConfig)

    def __post_init__(self):
        for name in ("g1", "g2"):
            mag = abs(complex(getattr(self, name)))
            if not 0.0 < mag <= 0.1:
                raise ParameterError(f"|{name}| = {mag} outside (0, 0.1]")
        if not abs(complex(self.t)) <= 1.0 + _COS_TOL:
            raise ParameterError(f"|t| = {abs(complex(self.t))} is not in [0, 1]")
        _check_gamma(self.gamma)
        if not all(map(math.isfinite, (self.phi_s1, self.phi_s2, self.phi_i))):
            raise ParameterError("path phases must be finite")


def t_phase(cfg: ZwmConfig) -> complex:
    """Phase factor of cfg.t (1 if T = 0): a grid point at |T| has T = |T| t_phase."""
    t = complex(cfg.t)
    return t / abs(t) if t != 0 else 1.0


def _check_grid(gammas, t_abs) -> tuple[np.ndarray, np.ndarray]:
    """Flat float axes; ParameterError unless each gamma and |T| is in ZwmConfig's range."""
    gammas = np.asarray(gammas, dtype=float).reshape(-1)
    t_abs = np.asarray(t_abs, dtype=float).reshape(-1)
    if not (np.all(np.isfinite(gammas)) and np.all(np.cos(gammas) >= -_COS_TOL)):
        raise ParameterError("every gamma must be finite with cos(gamma) >= 0")
    if not np.all((t_abs >= 0.0) & (t_abs <= 1.0 + _COS_TOL)):
        raise ParameterError("every |T| must lie in [0, 1]")
    return gammas, t_abs


def signal_amplitudes(cfg: ZwmConfig, t_abs) -> np.ndarray:
    """Biphoton amplitudes A[..., signal, idler] at transmissions |T| = t_abs.

    The state is |vac> + sum A[s, i] |s, i> with
      A[S1x, I1]   = g1
      A[S2x, I1]   = g2 conj(T_eff e^{i phi_i}),  T_eff = T eta_idler
      A[S2x, VAC0] = g2 R_eff e^{-i phi_i},   R_eff = sqrt(1 - |T_eff|^2).
    The second source's idler operator is the attenuator output, so the
    creation amplitudes are the conjugated attenuator coefficients.  T keeps
    the configured phase; only its magnitude is replaced by t_abs.
    """
    t_abs = np.asarray(t_abs, dtype=float)
    t_eff = (t_abs * t_phase(cfg)) * cfg.imperfections.eta_idler
    r_eff = np.sqrt(np.maximum(0.0, 1.0 - np.abs(t_eff) ** 2))
    idler_out = np.stack([t_eff, r_eff], axis=-1) * cmath.exp(1j * cfg.phi_i)
    a = np.zeros(t_abs.shape + (4, 2), dtype=complex)
    a[..., 0, 0] = cfg.g1
    a[..., 2, :] = cfg.g2 * np.conj(idler_out)
    return a


def field_map(cfg: ZwmConfig, gammas) -> np.ndarray:
    """Detector-port fields F[..., p, m]: E_p = sum_m F[p, m] a_m.

    The first arm is rotated by gamma, (x, y) -> (c x - s y, s x + c y), and
    enters through the splitter's transmission; the second arm enters
    through the reflection, whose i is absorbed into the arm phase
    (i e^{i (phi_s2 - pi/2)} = e^{i phi_s2}) so the cross-term phase equals
    beta(cfg).  Per polarization p the second-arm coupling is bs_tp/sqrt(2)
    and the first-arm coupling the unitary completion sqrt(1 - bs_tp^2/2).
    """
    gammas = np.asarray(gammas, dtype=float)
    c, s = np.cos(gammas), np.sin(gammas)
    imp = cfg.imperfections
    arm1 = cmath.exp(1j * cfg.phi_s1)
    arm2 = cmath.exp(1j * cfg.phi_s2)
    f = np.zeros(gammas.shape + (2, 4), dtype=complex)
    for p, (bs_t, rot) in enumerate(((imp.bs_tx, (c, -s)), (imp.bs_ty, (s, c)))):
        r = bs_t / math.sqrt(2.0)
        t = math.sqrt(1.0 - r * r)
        f[..., p, 0] = (t * arm1) * rot[0]
        f[..., p, 1] = (t * arm1) * rot[1]
        f[..., p, 2 + p] = r * arm2
    return f


def coherence_grid(cfg: ZwmConfig, gammas, t_abs) -> np.ndarray:
    """G[i, j] = <E_p^dagger E_q> at (gammas[i], t_abs[j]), shape (n_g, n_t, 2, 2).

    Every other setting (gains, phases, the phase of T, imperfections) is
    taken from cfg.  Per grid point G = conj(F) M F^T with M = conj(A) A^T
    and A the signal_amplitudes at |T| mu_overlap (see the module
    docstring), evaluated as the Gram matrix conj(B) B^T of B = F A.
    """
    gammas, t_abs = _check_grid(gammas, t_abs)
    f = field_map(cfg, gammas)
    a = signal_amplitudes(cfg, t_abs * cfg.imperfections.mu_overlap)
    # detector amplitudes B = F A: E_p |psi> = sum_k B[p, k] |k>
    b = np.einsum("gpm,tmk->gtpk", f, a)
    # an amplitude that cancels to the rounding of its parts (a few 1e-16 of
    # their magnitudes) is zero, so a dark fringe has exactly zero intensity
    parts = np.einsum("gpm,tmk->gtpk", np.abs(f), np.abs(a))
    b[np.abs(b) <= _CANCEL_TOL * parts] = 0.0
    return np.einsum("gtpk,gtqk->gtpq", np.conj(b), b)


@dataclass(frozen=True)
class CoherenceMatrix:
    """2x2 signal-beam coherence matrix G_pq = <E_p^dagger E_q>; building one is
    the only validity check: ParameterError unless G is finite, Hermitian with a
    real diagonal and positive semidefinite, up to 1e-9 of its largest entry."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ParameterError(f"coherence matrix must be 2x2, got {m.shape}")
        entries = m.ravel().tolist()
        if not all(map(cmath.isfinite, entries)):
            raise ParameterError("coherence matrix entries must be finite")
        # scaled by a power of two, exactly, so that no sum below overflows and
        # no subnormal entry loses the precision the tests need
        exp = math.frexp(max(max(abs(z.real), abs(z.imag)) for z in entries))[1]
        gxx, gxy, gyx, gyy = (complex(math.ldexp(z.real, -exp), math.ldexp(z.imag, -exp))
                              for z in entries)
        scale = max(abs(gxx), abs(gxy), abs(gyx), abs(gyy))
        if abs(gyx - gxy.conjugate()) > 1e-9 * scale:
            raise ParameterError("coherence matrix is not Hermitian")
        if max(abs(gxx.imag), abs(gyy.imag)) > 1e-9 * scale:
            raise ParameterError("coherence matrix diagonal must be real")
        # smaller eigenvalue of the Hermitian part
        trace = gxx.real + gyy.real
        lowest = trace / 2.0 - abs(complex((gxx.real - gyy.real) / 2.0,
                                           abs(gxy + gyx.conjugate()) / 2.0))
        if lowest < -1e-9 * max(trace, scale):
            raise ParameterError("coherence matrix is not positive semidefinite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def gxx(self) -> complex:
        return complex(self.matrix[0, 0])

    @property
    def gxy(self) -> complex:
        return complex(self.matrix[0, 1])

    @property
    def gyx(self) -> complex:
        return complex(self.matrix[1, 0])

    @property
    def gyy(self) -> complex:
        return complex(self.matrix[1, 1])

    @property
    def trace(self) -> float:
        return float(self.matrix[0, 0].real + self.matrix[1, 1].real)


def coherence_matrix(cfg: ZwmConfig) -> CoherenceMatrix:
    """G at the operating point of cfg (a 1x1 coherence_grid)."""
    return CoherenceMatrix(coherence_grid(cfg, cfg.gamma, abs(complex(cfg.t)))[0, 0])


def degree_of_polarization_grid(g: np.ndarray) -> np.ndarray:
    """P of every (..., 2, 2) coherence matrix in g.

    P = sqrt(1 - 4 det G / (tr G)^2), i.e. (l1 - l2)/(l1 + l2), evaluated in
    the cancellation-free eigenvalue-gap form
    sqrt((Gxx - Gyy)^2 + 4 |Gxy|^2) / tr G, which is the same quantity
    since tr^2 - 4 det = (Gxx - Gyy)^2 + 4 |Gxy|^2 exactly.  Raises
    ZeroTraceError if any matrix has tr G <= 0.
    """
    gxx, gyy = g[..., 0, 0].real, g[..., 1, 1].real
    tr = gxx + gyy
    if np.any(tr <= 0.0):
        raise ZeroTraceError("degree of polarization undefined at zero intensity")
    gap = np.hypot(gxx - gyy, 2.0 * np.abs(g[..., 0, 1]))
    return np.minimum(gap / tr, 1.0)


def degree_of_polarization(g: CoherenceMatrix) -> float:
    """P of one coherence matrix; see degree_of_polarization_grid."""
    return float(degree_of_polarization_grid(g.matrix))


def _stokes_grid(g: np.ndarray) -> tuple[np.ndarray, ...]:
    """(S0, S1, S2, S3) of every (..., 2, 2) coherence matrix in g."""
    gxx, gyy = g[..., 0, 0].real, g[..., 1, 1].real
    return gxx + gyy, gxx - gyy, 2.0 * g[..., 0, 1].real, 2.0 * g[..., 1, 0].imag


def stokes_parameters(g: CoherenceMatrix) -> tuple[float, float, float, float]:
    """(S0, S1, S2, S3) of the coherence matrix.

    S0 = tr G, S1 = Gxx - Gyy, S2 = 2 Re Gxy, S3 = 2 Im Gyx.  The S3 sign
    pairs with the tomography quarter-wave-plate convention: the R setting's
    Stokes row is (1, 0, 0, -1) / 2, so it measures (S0 - S3)/2.
    """
    return tuple(map(float, _stokes_grid(g.matrix)))


def beta(cfg: ZwmConfig, t: complex | None = None) -> float:
    """Interferometric phase phi_s2 - phi_s1 - phi_i - arg T + arg g2 - arg g1,
    reduced to (-pi, pi], with T = cfg.t unless t is given.  At T = 0 the
    transmission phase is taken as 0 (it no longer affects anything)."""
    t = complex(cfg.t if t is None else t)
    arg_t = cmath.phase(t) if t != 0 else 0.0
    raw = (cfg.phi_s2 - cfg.phi_s1 - cfg.phi_i - arg_t
           + cmath.phase(complex(cfg.g2)) - cmath.phase(complex(cfg.g1)))
    reduced = math.remainder(raw, 2.0 * math.pi)
    if reduced <= -math.pi:
        reduced += 2.0 * math.pi
    return reduced


def analytic_p_grid(cfg: ZwmConfig, gammas, t_abs) -> np.ndarray:
    """Closed-form degree of polarization at (gammas[i], t_abs[j]), shape (n_g, n_t).

    P = sqrt(c^2 + |T|^2 (s^2 + c^2 cb^2) + 2 |T| c cb) / (1 + |T| c cb)
    with c = cos gamma, s = sin gamma, cb = cos beta, |T| = |T eta_idler
    mu_overlap|, capped at 1, for equal gain magnitudes and an ideal splitter.
    A point has T = t_abs * t_phase(cfg), so |T| and beta are computed once
    per t_abs.  Raises ZeroTraceError if any point has no output intensity.
    """
    if not math.isclose(abs(complex(cfg.g1)), abs(complex(cfg.g2)),
                        rel_tol=1e-12, abs_tol=0.0):
        raise ParameterError("closed form requires |g1| = |g2|")
    imp = cfg.imperfections
    if imp.bs_tx != 1.0 or imp.bs_ty != 1.0:
        raise ParameterError("closed form only covers an ideal splitter")
    gammas, t_abs = _check_grid(gammas, t_abs)
    phase = t_phase(cfg)
    points = [complex(t * phase) for t in t_abs.tolist()]
    t_eff = np.array([abs(t * imp.eta_idler * imp.mu_overlap) for t in points])
    cb = np.array([math.cos(beta(cfg, t)) for t in points])
    c, s = np.cos(gammas)[:, None], np.sin(gammas)[:, None]
    denom = 1.0 + t_eff * c * cb
    if np.any(denom <= 0.0):
        # total destructive cancellation of the two arms: no light, so no
        # polarization (the numeric pipeline's zero coherence-matrix trace)
        raise ZeroTraceError("degree of polarization undefined at zero intensity")
    num = c * c + t_eff * t_eff * (s * s + c * c * cb * cb) + 2.0 * t_eff * c * cb
    return np.minimum(np.sqrt(np.maximum(num, 0.0)) / denom, 1.0)


def analytic_p_general(cfg: ZwmConfig) -> float:
    """Closed-form P at the operating point of cfg (a 1x1 analytic_p_grid)."""
    return float(analytic_p_grid(cfg, cfg.gamma, abs(complex(cfg.t)))[0, 0])


def analytic_p_special(t_abs: float, gamma: float) -> float:
    """Equal-phase special case P = (|T| + cos g)/(1 + |T| cos g)."""
    _check_unit_interval(t_abs, "t_abs")
    _check_gamma(gamma)
    c = math.cos(gamma)
    return (t_abs + c) / (1.0 + t_abs * c)


def numeric_degree_of_polarization(cfg: ZwmConfig) -> float:
    """Biphoton-matrix pipeline at one operating point: A, F -> G -> P."""
    return degree_of_polarization(coherence_matrix(cfg))

