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

tomography_point_matrix, setting_means and tomography_point_oracle are the
rows of one tomography sweep grid point computed on their own, as the sweep did
before it evaluated the whole grid at once: the config moved to the point, a
normalized CoherenceMatrix, one a_k . S(G) per setting, then for each replicate
in turn a draw from the point's generator and the fit.  Where the fit is pure
(path "boundary") the oracle's P is 1, the exact optimum, which the Newton fit
reaches to within a few ulp.  montecarlo_point_oracle
is the rows of one montecarlo grid point the same way: each replicate in turn
samples its two extrema, max then min, from the point's generator, each through
a GedankenConfig and monte_carlo_detection, and the two estimates combine into
P and its stderr.

decimal_p is P of the two-branch coherence matrix in stdlib decimal
arithmetic at 45 digits, on the exact double inputs: the reference both exact
estimators must meet near a dark fringe, where double arithmetic can cancel.
"""

import cmath
import dataclasses
import decimal
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


def tomography_point_oracle(cfg, gamma_deg, t_abs, detector, replicates, rng) -> list[float]:
    """P of each of a tomography grid point's rows, drawn one replicate at a
    time from the point's generator rng: 1 where the fit is pure, else the
    exact fit's P."""
    g = tomography_point_matrix(cfg, gamma_deg, t_abs)
    means = setting_means(g, DEFAULT_SETTINGS, detector)
    runs = [reconstruct_run(DEFAULT_SETTINGS, rng.poisson(means), detector)
            for _ in range(replicates)]
    return [1.0 if run.diagnostics.path == "boundary" else run.p_estimate for run in runs]


def montecarlo_point_oracle(cfg, gamma_deg, t_abs, samples, replicates,
                            rng) -> list[tuple[float, float]]:
    """(P, stderr) of each of a montecarlo grid point's rows: each replicate in
    turn samples, from the point's generator rng, the extremum at theta = gamma/2
    and then the one at gamma/2 + pi/2, with marker quality |T|;
    P = max(p_max - p_min, 0) / (p_max + p_min) with its first-order stderr."""
    gamma = math.radians(gamma_deg)
    common = dict(gamma=gamma, m=t_abs, phi1=cfg.phi_s1, phi2=cfg.phi_s2)
    rows = []
    for _ in range(replicates):
        (p_max, se_max), (p_min, se_min) = (
            monte_carlo_detection(GedankenConfig(theta=theta, **common), samples, rng)
            for theta in (gamma / 2.0, gamma / 2.0 + math.pi / 2.0))
        total = p_max + p_min
        if total == 0.0:
            raise ZeroTraceError("no detection at either extremum")
        rows.append((max(p_max - p_min, 0.0) / total,
                     2.0 * math.hypot(p_min * se_max, p_max * se_min) / total**2))
    return rows


def _cos_sin(x):
    """(cos x, sin x) of a Decimal, by the Taylor recipes of the decimal module's
    documentation, two digits above the context's precision."""
    with decimal.localcontext() as ctx:
        ctx.prec += 2
        sums = []
        for i, term in ((0, decimal.Decimal(1)), (1, x)):
            total, last = term, None
            while total != last:
                last, i = total, i + 2
                term *= -x * x / (i * (i - 1))
                total += term
            sums.append(total)
    return +sums[0], +sums[1]


def decimal_p(cfg, gamma, t_abs, digits=45):
    """(P, |u| / parts) of the two-branch G at one (gamma, |T|) grid point of cfg,
    in decimal arithmetic at `digits` significant digits on the exact double
    inputs, with |T| = t_abs exactly and T = t_abs cfg.t / |cfg.t|:

      G = w1 e1* e1^T + w2 e2* e2^T + x e1* e2^T + conj(x) e2* e1^T,
      e1 = e^{i phi_s1} (t_x cos gamma, t_y sin gamma),  e2 = e^{i phi_s2} (r_x, 0),
      x = conj(g1) g2 conj(T eta_idler mu_overlap e^{i phi_i}),  w_i = |g_i|^2,

    and P = sqrt((Gxx - Gyy)^2 + 4 |Gxy|^2) / tr G, None where tr G = 0.  u is the
    x amplitude both sources share, g1 e1_x + g2 e2_x conj(T eta mu e^{i phi_i}), and
    parts the sum of the moduli of its two terms: the zero rule's measure."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = digits

        def mul(a, b):
            return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

        def conj(a):
            return a[0], -a[1]

        imp = cfg.imperfections
        c, s = _cos_sin(D(gamma))
        rx = D(imp.bs_tx) / D(2).sqrt()
        tx, ty = (1 - rx * rx).sqrt(), (1 - D(imp.bs_ty) ** 2 / 2).sqrt()
        g1, g2, t = ((D(z.real), D(z.imag)) for z in (complex(cfg.g1), complex(cfg.g2),
                                                      complex(cfg.t)))
        mod_t = (t[0] ** 2 + t[1] ** 2).sqrt()
        m = D(t_abs) * D(imp.eta_idler) * D(imp.mu_overlap)
        phase = (t[0] / mod_t, t[1] / mod_t) if mod_t else (D(1), D(0))
        idler = mul((phase[0] * m, phase[1] * m), _cos_sin(D(cfg.phi_i)))
        arm1, arm2 = _cos_sin(D(cfg.phi_s1)), _cos_sin(D(cfg.phi_s2))
        e1 = ((arm1[0] * tx * c, arm1[1] * tx * c), (arm1[0] * ty * s, arm1[1] * ty * s))
        e2 = ((arm2[0] * rx, arm2[1] * rx), (D(0), D(0)))
        x = mul(mul(conj(g1), g2), conj(idler))
        w1, w2 = g1[0] ** 2 + g1[1] ** 2, g2[0] ** 2 + g2[1] ** 2

        def entry(p, q):
            terms = [mul(conj(e1[p]), e1[q]), mul(conj(e2[p]), e2[q]),
                     mul(x, mul(conj(e1[p]), e2[q])), mul(conj(x), mul(conj(e2[p]), e1[q]))]
            weights = (w1, w2, 1, 1)
            return (sum(w * z[0] for w, z in zip(weights, terms)),
                    sum(w * z[1] for w, z in zip(weights, terms)))

        gxx, gyy, gxy = entry(0, 0)[0], entry(1, 1)[0], entry(0, 1)
        u = tuple(a + b for a, b in zip(mul(g1, e1[0]), mul(mul(g2, e2[0]), conj(idler))))
        parts = w1.sqrt() * tx * abs(c) + w2.sqrt() * rx * m
        ratio = (u[0] ** 2 + u[1] ** 2).sqrt() / parts if parts else D(0)
        tr = gxx + gyy
        if tr == 0:
            return None, ratio
        gap = ((gxx - gyy) ** 2 + 4 * (gxy[0] ** 2 + gxy[1] ** 2)).sqrt()
        return +(gap / tr), ratio


def _decimal_root(f, lo, hi, digits):
    """The sign change in [lo, hi] of f, which returns its value and slope, with
    f(lo) >= 0 >= f(hi) in the limit: Newton's method kept inside the
    bracket, with bisection where it leaves."""
    x, tol = (lo + hi) / 2, (hi - lo).scaleb(-digits + 3)
    for _ in range(10 * digits):
        fx, slope = f(x)
        if fx == 0 or hi - lo <= tol:
            break
        lo, hi = (x, hi) if fx > 0 else (lo, x)
        after = x - fx / slope if slope else lo
        x = after if lo < after < hi else (lo + hi) / 2
    return x


def six_setting_mle(counts, digits=50):
    """(r, nll): the Poisson MLE of H V D A R L counts, in SIX_SETTINGS order,
    in stdlib decimal arithmetic at `digits` digits on the exact double counts.
    r = (S1, S2, -S3) / S0 is its Bloch vector, one entry for each antipodal
    pair (n+, n-) = (H, V), (D, A), (R, L), whose settings expect
    S0 (1 +- r_i) / 2 counts, so the total sum mu = 3 S0 is the count total N at
    the optimum; nll is six_setting_nll there.  Each pair's term is convex in
    r_i: inside the ball r_i = (n+ - n-) / (n+ + n-), 0 where the pair counts
    nothing.  Otherwise r lies on the sphere, with each r_i the root in [-1, 1]
    of the cubic 2 lam r^3 - (2 lam + N_i) r + (n+ - n-), whose sign is that of
    the pair's stationarity condition, and lam in [0, |(N_1, N_2, N_3)| / 2],
    since |r_i| <= N_i / (2 lam), the root of 1 - 1 / |r(lam)|."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        n = [D(c) for c in counts]
        pairs = [(n[k] + n[k + 1], n[k] - n[k + 1]) for k in (0, 2, 4)]
        r = [d / total if total else D(0) for total, d in pairs]

        def bloch(lam):
            return [_decimal_root(lambda x: (2 * lam * x**3 - (2 * lam + total) * x + d,
                                             6 * lam * x**2 - 2 * lam - total),
                                  D(-1), D(1), digits) if total else D(0)
                    for total, d in pairs]

        def secular(lam):  # 1 - 1 / |r| and its slope, each dr_i / d lam from its cubic
            r = bloch(lam)
            norm = sum(x * x for x in r).sqrt()
            slope = sum(4 * x * x * (1 - x * x) / (6 * lam * x * x - 2 * lam - total)
                        for x, (total, _) in zip(r, pairs) if 0 < x * x < 1)
            return 1 - 1 / norm, slope / (2 * norm**3)

        if sum(x * x for x in r) > 1:
            hi = sum(total * total for total, _ in pairs).sqrt() / 2
            r = bloch(_decimal_root(secular, D(0), hi, digits))
        s0 = sum(n) / 3
        return r, six_setting_nll(counts, [s0 * (1 + sign * x) / 2 for x in r
                                           for sign in (1, -1)])


def six_setting_nll(counts, mu) -> decimal.Decimal:
    """sum mu - n log mu over H V D A R L counts, in decimal, with n log mu = 0
    where n = 0.  mu is the settings' expected counts, or a fit's 2x2 coherence
    matrix, whose expected counts follow from its exact double entries:
    gxx, gyy, and (gxx + gyy) / 2 +- Re gxy, +- Im gxy."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        if isinstance(mu, np.ndarray):
            gxx, gyy, gxy = D(mu[0, 0].real), D(mu[1, 1].real), mu[0, 1]
            half, re, im = (gxx + gyy) / 2, D(gxy.real), D(gxy.imag)
            mu = [gxx, gyy, half + re, half - re, half + im, half - im]
        return sum(m - (D(c) * m.ln() if c else 0) for c, m in zip(counts, mu))
