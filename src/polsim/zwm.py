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
semidefinite by construction.  coherence_grid does not check it at run time
(test_pipeline_matrices_satisfy_strict_invariants in tests/test_zwm.py pins
it); coherence_matrix wraps its one point in CoherenceMatrix, which does.

The splitter's reflection phase is folded into the second arm's phase
reference, so the interferometric phase of every cross term is exactly
beta = phi_s2 - phi_s1 - phi_i - arg T + arg g2 - arg g1 (see
analytic_p_grid), and an all-zero-phase configuration sits at beta = 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ZeroTraceError

_COS_TOL = 1e-12
_CANCEL_TOL = 1e-13


def _erasable(gammas):
    """The erasure-angle rule cos(gamma) >= 0, to 1e-12, per angle (rad); False for NaN."""
    return np.cos(gammas) >= -_COS_TOL


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
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ParameterError(f"{name} = {getattr(self, name)} outside [0, 1]")


@dataclass(frozen=True)
class ZwmConfig:
    """One operating point of the interferometer.

    g1, g2: complex pair-source gains, 1e-100 <= |g| <= 0.1 (perturbative regime)
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
            # |m e^{i phi}| can round an ulp off m, and m = 1e-100 and 0.1 are in range
            if not 1e-100 * (1.0 - _COS_TOL) <= mag <= 0.1 * (1.0 + _COS_TOL):
                raise ParameterError(f"|{name}| = {mag} outside [1e-100, 0.1]")
        if not abs(complex(self.t)) <= 1.0 + _COS_TOL:
            raise ParameterError(f"|t| = {abs(complex(self.t))} is not in [0, 1]")
        if not (math.isfinite(self.gamma) and _erasable(self.gamma)):
            raise ParameterError(f"gamma = {self.gamma} rad must be finite with cos(gamma) >= 0")
        if not all(map(math.isfinite, (self.phi_s1, self.phi_s2, self.phi_i))):
            raise ParameterError("path phases must be finite")


def t_phase(cfg: ZwmConfig) -> complex:
    """Phase factor of cfg.t (1 if T = 0): a grid point at |T| has T = |T| t_phase."""
    t = complex(cfg.t)
    return t / abs(t) if t != 0 else 1.0


def _check_grid(gammas, t_abs) -> tuple[np.ndarray, np.ndarray]:
    """Flat float axes; ParameterError unless each gamma is in ZwmConfig's range and
    each |T| in [0, 1], exactly.  The checks run on Python floats and bools, which
    costs less than numpy reductions on the small grids of most calls."""
    gammas = np.asarray(gammas, dtype=float).reshape(-1)
    t_abs = np.asarray(t_abs, dtype=float).reshape(-1)
    if not (all(map(math.isfinite, gammas.tolist())) and all(_erasable(gammas).tolist())):
        raise ParameterError("every gamma must be finite with cos(gamma) >= 0")
    if not all(0.0 <= t <= 1.0 for t in t_abs.tolist()):
        raise ParameterError("every |T| must lie in [0, 1]")
    return gammas, t_abs


def signal_amplitudes(cfg: ZwmConfig, t_abs) -> np.ndarray:
    """Biphoton amplitudes A[..., signal, idler] at transmissions |T| = t_abs.

    The state is |vac> + sum A[s, i] |s, i> with
      A[S1x, I1]   = g1
      A[S2x, I1]   = g2 conj(T_eff e^{i phi_i}),  T_eff = T eta_idler
      A[S2x, VAC0] = g2 R_eff e^{-i phi_i},   R_eff = sqrt((1 - x)(1 + x)),  x = t_abs eta_idler,
    the product form keeping the digits that 1 - x^2 loses near x = 1.
    The second source's idler operator is the attenuator output, so the
    creation amplitudes are the conjugated attenuator coefficients.  T keeps
    the configured phase; its magnitude, and so R_eff, comes from t_abs alone.
    """
    t_abs = np.asarray(t_abs, dtype=float)
    t_eff = (t_abs * t_phase(cfg)) * cfg.imperfections.eta_idler
    x = t_abs * cfg.imperfections.eta_idler
    r_eff = np.sqrt(np.maximum(0.0, (1.0 - x) * (1.0 + x)))
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
    (i e^{i (phi_s2 - pi/2)} = e^{i phi_s2}) so the cross-term phase is
    analytic_p_grid's beta.  Per polarization p the second-arm coupling is
    bs_tp/sqrt(2) and the first-arm coupling the unitary completion sqrt(1 - bs_tp^2/2).
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


def _cancelled(b, parts):
    """b, in place, with every amplitude within _CANCEL_TOL of the summed moduli of
    its parts set to 0: the zero rule of both exact estimators.  An amplitude that
    cancels to their rounding is zero, so a dark fringe has exactly zero intensity."""
    b[np.abs(b) <= _CANCEL_TOL * parts] = 0.0
    return b


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
    b = _cancelled(np.einsum("gpm,tmk->gtpk", f, a),
                   np.einsum("gpm,tmk->gtpk", np.abs(f), np.abs(a)))
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
        parts = m.ravel().view(float).tolist()  # real and imaginary parts, entry by entry
        if not all(map(math.isfinite, parts)):
            raise ParameterError("coherence matrix entries must be finite")
        # scaled by a power of two, exactly, so that no sum below overflows and
        # no subnormal entry loses the precision the tests need
        exp = -math.frexp(max(map(abs, parts)))[1]
        parts = [math.ldexp(x, exp) for x in parts]
        gxx, gxy, gyx, gyy = map(complex, parts[::2], parts[1::2])
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


def coherence_matrix(cfg: ZwmConfig) -> CoherenceMatrix:
    """G at the operating point of cfg (a 1x1 coherence_grid)."""
    return CoherenceMatrix(coherence_grid(cfg, cfg.gamma, min(abs(complex(cfg.t)), 1.0))[0, 0])


def _polarization(gxx, gyy, gxy_abs):
    """P from Gxx, Gyy and |Gxy|: the eigenvalue gap sqrt((Gxx - Gyy)^2 + 4 |Gxy|^2)
    over tr G, capped at 1.  Raises ZeroTraceError if any tr G <= 0."""
    tr = gxx + gyy
    if np.any(tr <= 0.0):
        raise ZeroTraceError("degree of polarization undefined at zero intensity")
    return np.minimum(np.hypot(gxx - gyy, 2.0 * gxy_abs) / tr, 1.0)


def degree_of_polarization_grid(g: np.ndarray) -> np.ndarray:
    """P of every (..., 2, 2) coherence matrix in g.

    P = sqrt(1 - 4 det G / (tr G)^2), i.e. (l1 - l2)/(l1 + l2), evaluated in
    the cancellation-free eigenvalue-gap form
    sqrt((Gxx - Gyy)^2 + 4 |Gxy|^2) / tr G, which is the same quantity
    since tr^2 - 4 det = (Gxx - Gyy)^2 + 4 |Gxy|^2 exactly.  Raises
    ZeroTraceError if any matrix has tr G <= 0.
    """
    return _polarization(g[..., 0, 0].real, g[..., 1, 1].real, np.abs(g[..., 0, 1]))


def degree_of_polarization(g: CoherenceMatrix) -> float:
    """P of one coherence matrix, as degree_of_polarization_grid, on Python floats."""
    (gxx, gxy), (_, gyy) = g.matrix.tolist()
    if gxx.real + gyy.real <= 0.0:
        raise ZeroTraceError("degree of polarization undefined at zero intensity")
    return min(math.hypot(gxx.real - gyy.real, 2.0 * abs(gxy)) / (gxx.real + gyy.real), 1.0)


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


def analytic_p_grid(cfg: ZwmConfig, gammas, t_abs) -> np.ndarray:
    """Closed-form degree of polarization at (gammas[i], t_abs[j]), shape (n_g, n_t).

    With a_i = |g_i| over the larger one, m = t_abs eta_idler mu_overlap,
    c, s = cos, sin gamma, beta = phi_s2 - phi_s1 - phi_i - arg T + arg g2 - arg g1,
    r_p^2 = bs_tp^2 / 2 = 1 - t_p^2 and the x amplitude that both sources share,
    u = a1 t_x c + a2 r_x m e^{i beta}:
      Gxx = |u|^2 + a2^2 r_x^2 (1 - m)(1 + m),  Gyy = a1^2 t_y^2 s^2,  |Gxy| = |u| a1 t_y |s|.
    u is the only sum that can cancel, and it is zero where it cancels to the
    rounding of its parts (_cancelled, the pipeline's zero rule); P then comes from
    degree_of_polarization_grid's step.  det G = a1^2 a2^2 r_x^2 t_y^2 (1 - m^2) s^2:
    P < 1 only where both the inerasable (m < 1) and the erasable (s != 0)
    which-path marks exist.
    """
    gammas, t_abs = _check_grid(gammas, t_abs)
    imp = cfg.imperfections
    big = max(abs(cfg.g1), abs(cfg.g2))
    a1, a2 = abs(cfg.g1) / big, abs(cfg.g2) / big
    rx2 = imp.bs_tx ** 2 / 2.0
    rx, tx, ty = math.sqrt(rx2), math.sqrt(1.0 - rx2), math.sqrt(1.0 - imp.bs_ty ** 2 / 2.0)
    m = t_abs * imp.eta_idler * imp.mu_overlap
    # e^{i beta}, one unit phasor per phase: a sum of angles would round sin(beta)
    # near beta = pi to an ulp of the sum, a product keeps its relative precision
    rot = (cmath.exp(1j * cfg.phi_s2) * cmath.exp(-1j * cfg.phi_s1)
           * cmath.exp(-1j * cfg.phi_i) * t_phase(cfg).conjugate()
           * (cfg.g2 / abs(cfg.g2)) * (cfg.g1 / abs(cfg.g1)).conjugate())
    first, second = a1 * tx * np.cos(gammas)[:, None], a2 * rx * m
    u = _cancelled(np.hypot(first + second * rot.real, second * rot.imag),
                   np.abs(first) + second)
    y = a1 * ty * np.abs(np.sin(gammas))[:, None]
    return _polarization(u * u + (a2 * rx) ** 2 * ((1.0 - m) * (1.0 + m)), y * y, u * y)


def analytic_p_general(cfg: ZwmConfig) -> float:
    """Closed-form P at the operating point of cfg (a 1x1 analytic_p_grid)."""
    return float(analytic_p_grid(cfg, cfg.gamma, min(abs(complex(cfg.t)), 1.0))[0, 0])


def analytic_p_special(t_abs: float, gamma: float) -> float:
    """Equal-phase special case P = (|T| + cos g)/(1 + |T| cos g)."""
    _check_grid(gamma, t_abs)
    c = math.cos(gamma)
    return (t_abs + c) / (1.0 + t_abs * c)


def numeric_degree_of_polarization(cfg: ZwmConfig) -> float:
    """Biphoton-matrix pipeline at one operating point: A, F -> G -> P."""
    return degree_of_polarization(coherence_matrix(cfg))

