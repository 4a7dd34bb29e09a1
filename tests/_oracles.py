"""Reference implementations the package is checked against.

MODES, BASIS and ANNIHILATE are the interferometer's six modes, the 28
occupation states of at most two photons, and each mode's annihilation
operator as an explicit matrix.  reference_state builds the post-selected
two-photon state by applying creation matrices to the vacuum,
reference_fields composes the rotation and the splitter on mode-coefficient
vectors, and reference_coherence takes G as expectations of the fields'
source parts.  None of it calls or copies polsim.zwm's signal_amplitudes,
field_map or coherence_grid, which must reproduce A, F and G from it.

mc_detection_count_loop is the per-sample Monte-Carlo hit count whose law
the branch-count draw in polsim.gedanken must follow.

coherence_verdict_stacked is the coherence-matrix validity test written on
numpy arrays for stacks of matrices; CoherenceMatrix, which runs the same
tests on Python scalars, must give its verdict on every matrix in range.

quarter_wave_jones and polarizer_jones are the Jones matrices of the
tomography analyzer, and fresh_projector is the state a setting passes,
Pi = J_qwp^dagger Pi_pol J_qwp; jones_stokes_row is its Stokes row
((Pxx + Pyy)/2, (Pxx - Pyy)/2, Re Pxy, -Im Pxy).  polsim describes a setting
by a closed-form Stokes row alone and must agree with these.

mle_reconstruct_optimizer is tomography.mle_reconstruct as it was before the
exact four-setting path, the per-setting cache and the convex Newton fit:
every fit runs L-BFGS-B on the triangular-factor parameters G = L L^dagger
plus a grid polish, on the projectors of the Jones model above.  It
keeps its own copies of the parameter maps and of the floored Poisson
likelihood (_nll_poisson_grad, _nll_poisson_batch), and it is the only
code that needs scipy, which it imports when called: the tests that call it
carry the needs_scipy marker, and the rest run where scipy is not installed.
The Newton fit must be at least as likely on every table.  SIX_SETTINGS
(H V D A R L) is the overcomplete set the fit tests use.

tomography_point_matrix, setting_means and tomography_row_oracle are one
tomography sweep row computed on its own, as the sweep did before it evaluated the whole
grid at once: the config moved to the point, a normalized CoherenceMatrix,
one a_k . S(G) per setting, then the draw and the fit.  montecarlo_row_oracle is
one montecarlo sweep row the same way: the row's SeedSequence spawns one
child per extremum, each sampled through a GedankenConfig and
monte_carlo_detection, and the two estimates combine into P and its stderr.
"""

import cmath
import dataclasses
import itertools
import math

import numpy as np

from polsim.config import build_configs, parse_config_text
from polsim.errors import IllPosedError, ParameterError, ZeroTraceError
from polsim.gedanken import GedankenConfig, monte_carlo_detection
from polsim.tomography import DEFAULT_SETTINGS, MeasurementSetting, _stokes_row, reconstruct_run
from polsim.zwm import (CoherenceMatrix, ImperfectionConfig, ZwmConfig, coherence_matrix,
                        stokes_parameters, t_phase)


# ---------------------------------------------------------------------------
# The interferometer as explicit matrices on the two-photon Fock space
# ---------------------------------------------------------------------------

# the signal modes in the row order of polsim.zwm's A (and the column order
# of F), then the idler modes in the column order of A
MODES = ("S1x", "S1y", "S2x", "S2y", "I1", "VAC0")
# occupation vectors with at most two photons: 1 + 6 + 21 = 28 states
BASIS = [occ for occ in itertools.product(range(3), repeat=len(MODES)) if sum(occ) <= 2]


def _annihilation(mode: int) -> np.ndarray:
    index = {occ: k for k, occ in enumerate(BASIS)}
    a = np.zeros((len(BASIS), len(BASIS)))
    for k, occ in enumerate(BASIS):
        if occ[mode]:
            lowered = occ[:mode] + (occ[mode] - 1,) + occ[mode + 1:]
            a[index[lowered], k] = math.sqrt(occ[mode])
    return a


# ANNIHILATE[m] is a_m; its transpose a_m^dagger drops what would leave BASIS
ANNIHILATE = np.stack([_annihilation(m) for m in range(len(MODES))])
VACUUM = np.eye(len(BASIS))[BASIS.index((0,) * len(MODES))]


def unit(name: str) -> np.ndarray:
    """Coefficient vector over MODES of the single mode `name`."""
    c = np.zeros(len(MODES), dtype=complex)
    c[MODES.index(name)] = 1.0
    return c


def lowering(c: np.ndarray) -> np.ndarray:
    """The operator sum_m c[m] a_m as a matrix on BASIS."""
    return np.tensordot(c, ANNIHILATE, axes=1)


def raising(c: np.ndarray) -> np.ndarray:
    """(sum_m c[m] a_m)^dagger as a matrix on BASIS."""
    return lowering(c).conj().T


def attenuator(t: complex, phi: float) -> np.ndarray:
    """Lossy idler channel onto a vacuum port: I1 -> (t I1 + r VAC0) e^{i phi}
    with r = sqrt(1 - |t|^2), as a coefficient vector."""
    r = math.sqrt(max(0.0, 1.0 - abs(t) ** 2))
    return (t * unit("I1") + r * unit("VAC0")) * cmath.exp(1j * phi)


def rotation(gamma: float) -> np.ndarray:
    """Polarization rotation of one arm: (x, y) -> (c x - s y, s x + c y)."""
    c, s = math.cos(gamma), math.sin(gamma)
    return np.array([[c, -s], [s, c]])


def splitter(t: float, r: float) -> np.ndarray:
    """Symmetric splitter: output k = sum_j S[k, j] input j, S = [[t, i r], [i r, t]].
    t and r must be real with t^2 + r^2 = 1, so that S is unitary."""
    if complex(t).imag or complex(r).imag or abs(t * t + r * r - 1.0) > 1e-12:
        raise ParameterError("splitter needs real t, r with t^2 + r^2 = 1")
    return np.array([[t, 1j * r], [1j * r, t]])


def reference_state(cfg) -> np.ndarray:
    """|0> + g1 a+_S1x a+_I1 |0> + g2 a+_S2x (idler_out)+ |0> on BASIS, where
    idler_out is the attenuator output of I1 at T_eff = T eta_idler and phi_i."""
    idler_out = attenuator(complex(cfg.t) * cfg.imperfections.eta_idler, cfg.phi_i)
    return (VACUUM + cfg.g1 * raising(unit("S1x")) @ raising(unit("I1")) @ VACUUM
            + cfg.g2 * raising(unit("S2x")) @ raising(idler_out) @ VACUUM)


def reference_fields(cfg) -> np.ndarray:
    """Detector fields (Ex, Ey) as coefficient vectors over MODES, shape (2, 6).

    The first arm is rotated by gamma and enters the splitter's first port;
    the second arm carries e^{i (phi_s2 - pi/2)} and enters the second.  Per
    polarization the splitter has r = bs_t/sqrt(2) and t = sqrt(1 - r^2).
    """
    imp = cfg.imperfections
    arm1 = cmath.exp(1j * cfg.phi_s1) * rotation(cfg.gamma) @ np.stack([unit("S1x"), unit("S1y")])
    arm2 = cmath.exp(1j * (cfg.phi_s2 - math.pi / 2.0)) * np.stack([unit("S2x"), unit("S2y")])
    out = []
    for p, bs_t in enumerate((imp.bs_tx, imp.bs_ty)):
        r = bs_t / math.sqrt(2.0)
        out.append(splitter(math.sqrt(1.0 - r * r), r)[0] @ np.stack([arm1[p], arm2[p]]))
    return np.array(out)


def reference_coherence(cfg) -> np.ndarray:
    """G_pq = sum_ij w_ij <(E_p,i)^dagger E_q,j>, where i and j run over the
    S1 and S2 parts of each field, w = 1 for i = j and mu_overlap otherwise."""
    psi = reference_state(cfg)
    mu = cfg.imperfections.mu_overlap
    sources = [np.array([m.startswith(s) for m in MODES]) for s in ("S1", "S2")]
    # kets[p, i] = E_p,i |psi>
    kets = np.array([[lowering(np.where(src, f, 0.0)) @ psi for src in sources]
                     for f in reference_fields(cfg)])
    w = np.array([[1.0, mu], [mu, 1.0]])
    return np.einsum("ij,pik,qjk->pq", w, kets.conj(), kets)


def mc_detection_count_loop(u_source, u_report, u_detect,
                            one_minus_m2, p_flagged, p_coherent):
    """Hits of the gedanken sampler drawn one sample at a time: a source-1
    sample flagged by the marker detects below p_flagged, every other sample
    below p_coherent."""
    hits = 0
    for i in range(u_source.shape[0]):
        if u_source[i] < 0.5 and u_report[i] < one_minus_m2:
            if u_detect[i] < p_flagged:
                hits += 1
        elif u_detect[i] < p_coherent:
            hits += 1
    return hits


def coherence_verdict_stacked(m: np.ndarray) -> str:
    """The coherence-matrix validity test on numpy arrays, for a stack of
    (..., 2, 2) matrices as polsim.zwm once ran it: "ok", or the message of
    the first test some matrix fails.  It does not guard its sums against
    overflow, so it is a reference only for matrices well inside float range."""
    if not np.all(np.isfinite(m)):
        return "coherence matrix entries must be finite"
    gxx, gxy, gyx, gyy = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    scale = np.abs(m).max(axis=(-2, -1))
    tol = 1e-9 * scale
    if np.any(np.abs(gyx - np.conj(gxy)) > tol):
        return "coherence matrix is not Hermitian"
    if np.any(np.maximum(np.abs(gxx.imag), np.abs(gyy.imag)) > tol):
        return "coherence matrix diagonal must be real"
    # smaller eigenvalue of the Hermitian part
    trace = gxx.real + gyy.real
    lowest = trace / 2.0 - np.hypot((gxx.real - gyy.real) / 2.0,
                                    np.abs(gxy + np.conj(gyx)) / 2.0)
    if np.any(lowest < -1e-9 * np.maximum(trace, scale)):
        return "coherence matrix is not positive semidefinite"
    return "ok"


_MU_FLOOR_REL = 1e-12


def _params_to_matrix(t: np.ndarray) -> np.ndarray:
    gxx = t[0] * t[0]
    gyy = t[1] * t[1] + t[2] * t[2] + t[3] * t[3]
    gxy = t[0] * (t[2] - 1j * t[3])
    return np.array([[gxx, gxy], [gxy.conjugate(), gyy]])


def _matrix_to_params(g: np.ndarray) -> np.ndarray:
    t0 = math.sqrt(max(g[0, 0].real, 0.0))
    if t0 > 0.0:
        t2 = g[1, 0].real / t0
        t3 = g[1, 0].imag / t0
    else:
        t2 = t3 = 0.0
    rest = g[1, 1].real - t2 * t2 - t3 * t3
    return np.array([t0, math.sqrt(max(rest, 0.0)), t2, t3])


# params = (t0, t1, t2, t3) parameterize G = L L^dagger with
# L = [[t0, 0], [t2 + i*t3, t1]], i.e.
#   Gxx = t0^2, Gyy = t1^2 + t2^2 + t3^2, Gxy = t0*(t2 - i*t3).
# Projector p is packed as (pxx, pyy, Re pxy, Im pxy) per setting; the
# negative log-likelihood is sum(mu - n*log(mu)) with mu floored.

def _nll_poisson_grad(params, pxx, pyy, rexy, imxy, counts, floor):
    t0, t1, t2, t3 = params
    gxx = t0 * t0
    gyy = t1 * t1 + t2 * t2 + t3 * t3
    re, im = t0 * t2, -t0 * t3
    mu = pxx * gxx + pyy * gyy + 2.0 * (rexy * re + imxy * im)
    mu = np.maximum(mu, floor)
    nll = float(np.sum(mu - counts * np.log(mu)))
    w = 1.0 - counts / mu
    grad = np.empty(4)
    grad[0] = float(np.sum(w * (2.0 * t0 * pxx + 2.0 * (rexy * t2 - imxy * t3))))
    grad[1] = float(np.sum(w * (2.0 * t1 * pyy)))
    grad[2] = float(np.sum(w * (2.0 * t2 * pyy + 2.0 * rexy * t0)))
    grad[3] = float(np.sum(w * (2.0 * t3 * pyy - 2.0 * imxy * t0)))
    return nll, grad


def _nll_poisson_batch(params, pxx, pyy, rexy, imxy, counts, floor):
    """Negative log-likelihood of every row of an (n, 4) parameter array."""
    t0, t1, t2, t3 = params[:, 0], params[:, 1], params[:, 2], params[:, 3]
    gxx = t0 * t0
    gyy = t1 * t1 + t2 * t2 + t3 * t3
    re, im = t0 * t2, -t0 * t3
    mu = (gxx[:, None] * pxx[None, :] + gyy[:, None] * pyy[None, :]
          + 2.0 * (re[:, None] * rexy[None, :] + im[:, None] * imxy[None, :]))
    np.maximum(mu, floor, out=mu)
    return np.sum(mu - counts[None, :] * np.log(mu), axis=1)


SIX_SETTINGS = DEFAULT_SETTINGS[:3] + (
    MeasurementSetting("A", math.pi / 4, -math.pi / 4),
    DEFAULT_SETTINGS[3],
    MeasurementSetting("L", 0.0, -math.pi / 4),
)


def quarter_wave_jones(angle: float) -> np.ndarray:
    """Quarter-wave plate with its fast axis at `angle`: the fast axis carries
    no phase, the slow axis gets exp(i pi/2)."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, s], [-s, c]])
    return rot.T @ np.array([[1.0, 0.0], [0.0, cmath.exp(0.5j * math.pi)]]) @ rot


def polarizer_jones(theta: float) -> np.ndarray:
    """Projector onto linear polarization at angle theta."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)


def fresh_projector(setting) -> np.ndarray:
    """Pi = J_qwp^dagger Pi_pol J_qwp: the pure state the analyzer passes."""
    j = quarter_wave_jones(setting.qwp_angle)
    return j.conj().T @ polarizer_jones(setting.polarizer_angle) @ j


def jones_stokes_row(setting) -> np.ndarray:
    """The Stokes row a of fresh_projector: tr(Pi G) = a . (S0, S1, S2, S3)."""
    pi = fresh_projector(setting)
    pxx, pyy, pxy = pi[0, 0].real, pi[1, 1].real, pi[0, 1]
    return np.array([(pxx + pyy) / 2.0, (pxx - pyy) / 2.0, pxy.real, -pxy.imag])


def mle_reconstruct_optimizer(corrected_counts, settings) -> CoherenceMatrix:
    from scipy.optimize import minimize

    counts = np.asarray(corrected_counts, dtype=float)
    if np.any(counts < 0):
        raise ParameterError("corrected counts must be non-negative")
    if len(settings) < 4 or counts.shape != (len(settings),):
        raise IllPosedError("need >= 4 settings with matching counts")
    pis = [fresh_projector(s) for s in settings]
    pxx = np.array([pi[0, 0].real for pi in pis])
    pyy = np.array([pi[1, 1].real for pi in pis])
    rexy = np.array([pi[0, 1].real for pi in pis])
    imxy = np.array([pi[0, 1].imag for pi in pis])
    design = np.column_stack([pxx, pyy, math.sqrt(2.0) * rexy, math.sqrt(2.0) * imxy])
    if np.linalg.matrix_rank(design, tol=1e-10 * np.abs(design).max()) < 4:
        raise IllPosedError("projector set is degenerate; cannot identify G")
    if not np.any(counts > 0):
        return CoherenceMatrix(np.zeros((2, 2), dtype=complex))

    floor = _MU_FLOOR_REL * (counts.sum() + 1.0)
    args = (pxx, pyy, rexy, imxy, counts, floor)
    design = np.column_stack([pxx, pyy, 2.0 * rexy, 2.0 * imxy])
    sol, *_ = np.linalg.lstsq(design, counts, rcond=None)
    g = np.array([[sol[0], sol[2] + 1j * sol[3]],
                  [sol[2] - 1j * sol[3], sol[1]]])
    vals, vecs = np.linalg.eigh(g)
    vals = np.maximum(vals, 0.0)
    t_init = _matrix_to_params((vecs * vals) @ vecs.conj().T)
    scale = math.sqrt(counts.sum())
    if np.linalg.norm(t_init) < 1e-9 * scale:
        t_init = np.full(4, 0.1 * scale)

    best_t = t_init.copy()
    best_nll = _nll_poisson_grad(best_t, *args)[0]
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    for _ in range(8):
        res = minimize(_nll_poisson_grad, best_t, args=args, jac=True,
                       method="L-BFGS-B",
                       options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-10})
        if res.fun <= best_nll:
            best_t, best_nll = np.asarray(res.x), float(res.fun)
        steps = np.maximum(1e-4 * np.abs(best_t), 1e-6 * scale)
        axes = [best_t[k] + offsets * steps[k] for k in range(4)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
        grid_nll = _nll_poisson_batch(grid, *args)
        k_min = int(np.argmin(grid_nll))
        if grid_nll[k_min] >= best_nll - 1e-9:
            break
        best_t, best_nll = grid[k_min].copy(), float(grid_nll[k_min])
    return CoherenceMatrix(_params_to_matrix(best_t))


def random_config(rng) -> ZwmConfig:
    """Complex gains, random phases and all four imperfections."""
    return ZwmConfig(
        g1=rng.uniform(0.001, 0.1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
        g2=rng.uniform(0.001, 0.1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
        t=rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
        gamma=rng.uniform(0, math.pi / 2),
        phi_s1=rng.uniform(0, 2 * math.pi),
        phi_s2=rng.uniform(0, 2 * math.pi),
        phi_i=rng.uniform(0, 2 * math.pi),
        imperfections=ImperfectionConfig(
            eta_idler=rng.uniform(0.5, 1), bs_tx=rng.uniform(0.5, 1),
            bs_ty=rng.uniform(0.5, 1), mu_overlap=rng.uniform(0, 1)),
    )


def floor_gain_config(rng, **fields) -> ZwmConfig:
    """Both gains at the smallest magnitude a config may give, 1e-100, at
    random phases, read through the config parser; fields set the rest."""
    cfg, _ = build_configs(parse_config_text("".join(
        f"g{k}_mag = 1e-100\ng{k}_phase_rad = {rng.uniform(0, 2 * math.pi)!r}\n" for k in (1, 2))))
    return dataclasses.replace(cfg, **fields)


def tomography_point_matrix(cfg, gamma_deg, t_abs) -> CoherenceMatrix:
    """Trace-normalized G at one (gamma, |T|) sweep point."""
    point = dataclasses.replace(cfg, gamma=math.radians(gamma_deg), t=t_abs * t_phase(cfg))
    m = coherence_matrix(point).matrix
    trace = m[0, 0].real + m[1, 1].real
    if trace <= 0.0:
        raise ZeroTraceError("degree of polarization undefined at zero intensity")
    return CoherenceMatrix(m / trace)


def setting_signal(g: CoherenceMatrix, setting) -> float:
    """The signal a setting passes, its Stokes row against S(G), unclamped."""
    a, s = _stokes_row(setting.qwp_angle, setting.polarizer_angle), stokes_parameters(g)
    return a[0] * s[0] + a[1] * s[1] + a[2] * s[2] + a[3] * s[3]


def setting_means(g: CoherenceMatrix, settings, detector) -> list[float]:
    """Mean counts per setting, one setting_signal at a time."""
    return [detector.kappa * max(setting_signal(g, s), 0.0) * detector.integration_time
            + detector.dark_rate * detector.integration_time for s in settings]


def tomography_row_oracle(cfg, gamma_deg, t_abs, detector, seed_seq) -> float:
    """P of one tomography sweep row drawn from seed_seq (NaN if no counts survive)."""
    g = tomography_point_matrix(cfg, gamma_deg, t_abs)
    raw = np.random.default_rng(seed_seq).poisson(setting_means(g, DEFAULT_SETTINGS, detector))
    return reconstruct_run(DEFAULT_SETTINGS, raw, detector).p_estimate


def montecarlo_row_oracle(cfg, gamma_deg, t_abs, samples, seed_seq) -> tuple[float, float]:
    """(P, stderr) of one montecarlo sweep row drawn from seed_seq: the
    extrema at theta = gamma/2 and gamma/2 + pi/2 with marker quality |T|,
    P = max(p_max - p_min, 0) / (p_max + p_min) and its first-order stderr."""
    gamma = math.radians(gamma_deg)
    common = dict(gamma=gamma, m=t_abs, phi1=cfg.phi_s1, phi2=cfg.phi_s2)
    (p_max, se_max), (p_min, se_min) = (
        monte_carlo_detection(GedankenConfig(theta=theta, **common), samples, child)
        for theta, child in zip((gamma / 2.0, gamma / 2.0 + math.pi / 2.0),
                                seed_seq.spawn(2)))
    total = p_max + p_min
    if total == 0.0:
        raise ZeroTraceError("no detection at either extremum")
    return (max(p_max - p_min, 0.0) / total,
            2.0 * math.hypot(p_min * se_max, p_max * se_min) / total**2)
