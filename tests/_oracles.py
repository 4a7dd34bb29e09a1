"""Reference implementations the package is checked against.

DenseFock enumerates the full truncated occupation basis and represents
operators as explicit matrices, so every sparse-state operation in _fock.py
can be checked against plain linear algebra.  Creation silently drops
components that would leave the truncated space, matching the sparse
contract (the adjoint of the in-space annihilation matrix does exactly that).

build_state, output_fields and sparse_coherence_matrix assemble the
interferometer in the sparse Fock algebra, term by term from the optical
elements; the biphoton-matrix pipeline in polsim.zwm must reproduce them.

mc_detection_count_loop is the per-sample Monte-Carlo hit count whose law
the branch-count draw in polsim.gedanken must follow.

mle_reconstruct_optimizer is tomography.mle_reconstruct as it was before the
exact four-setting path, the projector cache and the convex Newton fit:
every fit runs L-BFGS-B on the triangular-factor parameters G = L L^dagger
plus a grid polish, and the projectors are rebuilt from Jones matrices.  It
keeps its own copies of the parameter maps and of the floored Poisson
likelihood (_nll_poisson_grad, _nll_poisson_batch, checked against their
*_loop forms), and it is the only code that needs scipy.  The Newton fit
must be at least as likely on every table.  SIX_SETTINGS (H V D A R L) is
the overcomplete set the fit tests use.

tomography_point_matrix, setting_means and tomography_row_oracle are one
tomography sweep row computed on its own, as the sweep did before it evaluated the whole
grid at once: the config moved to the point, a normalized CoherenceMatrix,
one trace per setting, then the draw and the fit.
"""

import cmath
import dataclasses
import itertools
import math

import numpy as np
from scipy.optimize import minimize

from _fock import (
    FockState,
    ModeExpr,
    ModeId,
    ModeRegistry,
    apply_creation,
    attenuator,
    beam_splitter,
    pair_expectation,
    polarization_rotation,
    unit_expr,
    vacuum,
)
from polsim.elements import polarizer_jones, waveplate_jones
from polsim.errors import IllPosedError, ParameterError, ZeroTraceError
from polsim.tomography import DEFAULT_SETTINGS, MeasurementSetting, reconstruct_run
from polsim.zwm import (CoherenceMatrix, ImperfectionConfig, ZwmConfig, coherence_matrix,
                        t_phase)


class DenseFock:
    def __init__(self, registry, truncation_order=2):
        self.registry = registry
        self.truncation_order = truncation_order
        n = len(registry)
        self.basis = [
            occ
            for occ in itertools.product(range(truncation_order + 1), repeat=n)
            if sum(occ) <= truncation_order
        ]
        self.index = {occ: k for k, occ in enumerate(self.basis)}
        self.dim = len(self.basis)

    def vector(self, state) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        for occ, amp in state.terms.items():
            v[self.index[occ]] += amp
        return v

    def annihilation(self, mode) -> np.ndarray:
        i = self.registry.index(mode)
        a = np.zeros((self.dim, self.dim), dtype=complex)
        for occ, k in self.index.items():
            n = occ[i]
            if n:
                lowered = occ[:i] + (n - 1,) + occ[i + 1 :]
                a[self.index[lowered], k] = np.sqrt(n)
        return a

    def creation(self, mode) -> np.ndarray:
        # adjoint within the truncated space: components that would exceed
        # the truncation have no target row and are dropped
        return self.annihilation(mode).conj().T

    def expr_matrix(self, expr) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for mode, coef in expr.terms.items():
            m += coef * self.annihilation(mode)
        return m

    def coherence(self, state, fields, mu_overlap=1.0) -> np.ndarray:
        """2x2 matrix of <E_p^dagger E_q> evaluated densely.

        Each field is split into its first-source (S1) and second-source
        (S2) parts; the cross-source correlations are scaled by mu_overlap.
        """
        v = self.vector(state)
        ops = [
            [self.expr_matrix(ModeExpr(
                {m: c for m, c in f.terms.items() if m.label == label}))
             for label in ("S1", "S2")]
            for f in fields
        ]
        g = np.empty((2, 2), dtype=complex)
        for p in range(2):
            for q in range(2):
                g[p, q] = sum(
                    (1.0 if i == j else mu_overlap)
                    * (v.conj() @ (ops[p][i].conj().T @ ops[q][j] @ v))
                    for i in range(2) for j in range(2)
                )
        return g


def random_state(registry, rng, truncation_order=2, n_terms=5):
    """Random sparse state over the full truncated basis (for linearity and
    oracle-equivalence checks)."""
    n = len(registry)
    basis = [
        occ
        for occ in itertools.product(range(truncation_order + 1), repeat=n)
        if sum(occ) <= truncation_order
    ]
    picks = rng.choice(len(basis), size=min(n_terms, len(basis)), replace=False)
    terms = {
        basis[int(k)]: complex(rng.normal(), rng.normal()) for k in picks
    }
    return FockState(registry, terms, truncation_order)


# ---------------------------------------------------------------------------
# The interferometer in the sparse Fock algebra
# ---------------------------------------------------------------------------

S1X = ModeId("S1", "x")
S1Y = ModeId("S1", "y")
S2X = ModeId("S2", "x")
S2Y = ModeId("S2", "y")
I1XP = ModeId("I1", "xp")
VAC0XP = ModeId("VAC0", "xp")

# signal modes in the row order of polsim.zwm's A (and column order of F),
# then the idler modes in the column order of A
SIGNAL_MODES = (S1X, S1Y, S2X, S2Y)
IDLER_MODES = (I1XP, VAC0XP)


def zwm_registry() -> ModeRegistry:
    """The six-mode registry of the interferometer."""
    return ModeRegistry(SIGNAL_MODES + IDLER_MODES)


def build_state(cfg) -> FockState:
    """Post-selected two-photon state to first order in the gains.

    |vac> + g1 |S1x, I1> + g2 e^{-i phi_i} conj(T_eff) |S2x, I1>
          + g2 e^{-i phi_i} R_eff |S2x, VAC0>,   R_eff = sqrt(1 - |T_eff|^2).

    The second source's idler operator is the attenuator output, so the
    creation amplitudes are the conjugated attenuator coefficients.
    """
    reg = zwm_registry()
    vac = vacuum(reg, truncation_order=2)
    state = vac + cfg.g1 * apply_creation(apply_creation(vac, I1XP), S1X)
    idler_out = attenuator(cfg.t_eff, unit_expr(I1XP), VAC0XP, cfg.phi_i)
    for mode, coef in idler_out.terms.items():
        pair = apply_creation(apply_creation(vac, mode), S2X)
        state = state + (cfg.g2 * coef.conjugate()) * pair
    return state


def output_fields(cfg):
    """Detector-port field operators (Ex, Ey) as ModeExpr values.

    The first arm is rotated by gamma and enters through the splitter's
    transmission; the second arm enters through the reflection, whose i is
    absorbed into the arm phase so the cross-term phase equals beta(cfg).
    Per polarization p the second-arm coupling is bs_tp/sqrt(2) and the
    first-arm coupling the unitary completion sqrt(1 - bs_tp^2/2).
    """
    imp = cfg.imperfections
    rot_x, rot_y = polarization_rotation(cfg.gamma, unit_expr(S1X), unit_expr(S1Y))
    arm1 = cmath.exp(1j * cfg.phi_s1)
    arm2 = cmath.exp(1j * (cfg.phi_s2 - math.pi / 2.0))
    fields = []
    for rot, s2_mode, bs_t in ((rot_x, S2X, imp.bs_tx), (rot_y, S2Y, imp.bs_ty)):
        r = bs_t / math.sqrt(2.0)
        t = math.sqrt(1.0 - r * r)
        out, _ = beam_splitter(t, r, arm1 * rot, arm2 * unit_expr(s2_mode))
        fields.append(out)
    return fields[0], fields[1]


def sparse_coherence_matrix(state, fields, mu_overlap=1.0) -> np.ndarray:
    """G_pq = <E_p^dagger E_q> from mode-pair expectations of the fields.

    Coherences between first-source and second-source modes are scaled by
    mu_overlap (partial beam overlap); mu_overlap = 1 reduces exactly to
    pair_expectation(state, E_p, E_q) by bilinearity.
    """
    ex, ey = fields
    modes = []
    for f in (ex, ey):
        for m in f.terms:
            if m not in modes:
                modes.append(m)
    moments = {}
    for m in modes:
        for n in modes:
            val = pair_expectation(state, unit_expr(m), unit_expr(n))
            if {m.label, n.label} == {"S1", "S2"}:
                val *= mu_overlap
            moments[m, n] = val
    g = np.zeros((2, 2), dtype=complex)
    for p, fp in enumerate((ex, ey)):
        for q, fq in enumerate((ex, ey)):
            g[p, q] = sum(
                cp.conjugate() * fq.terms[n] * moments[m, n]
                for m, cp in fp.terms.items()
                for n in fq.terms
            )
    return g


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


def nll_poisson_grad_loop(params, pxx, pyy, rexy, imxy, counts, floor):
    t0, t1, t2, t3 = params[0], params[1], params[2], params[3]
    gxx = t0 * t0
    gyy = t1 * t1 + t2 * t2 + t3 * t3
    re, im = t0 * t2, -t0 * t3
    nll = 0.0
    grad = np.zeros(4)
    for i in range(pxx.shape[0]):
        mu = pxx[i] * gxx + pyy[i] * gyy + 2.0 * (rexy[i] * re + imxy[i] * im)
        if mu < floor:
            mu = floor
        nll += mu - counts[i] * math.log(mu)
        w = 1.0 - counts[i] / mu
        grad[0] += w * (2.0 * t0 * pxx[i] + 2.0 * (rexy[i] * t2 - imxy[i] * t3))
        grad[1] += w * (2.0 * t1 * pyy[i])
        grad[2] += w * (2.0 * t2 * pyy[i] + 2.0 * rexy[i] * t0)
        grad[3] += w * (2.0 * t3 * pyy[i] - 2.0 * imxy[i] * t0)
    return nll, grad


def nll_poisson_batch_loop(params, pxx, pyy, rexy, imxy, counts, floor):
    out = np.empty(params.shape[0])
    for k in range(params.shape[0]):
        out[k] = nll_poisson_grad_loop(params[k], pxx, pyy, rexy, imxy,
                                       counts, floor)[0]
    return out


SIX_SETTINGS = DEFAULT_SETTINGS[:3] + (
    MeasurementSetting("A", math.pi / 4, -math.pi / 4),
    DEFAULT_SETTINGS[3],
    MeasurementSetting("L", 0.0, -math.pi / 4),
)


def fresh_projector(setting) -> np.ndarray:
    j = waveplate_jones("quarter", setting.qwp_angle)
    pol = polarizer_jones(setting.polarizer_angle)
    return j.conj().T @ pol @ j


def mle_reconstruct_optimizer(corrected_counts, settings) -> CoherenceMatrix:
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


def tomography_point_matrix(cfg, gamma_deg, t_abs) -> CoherenceMatrix:
    """Trace-normalized G at one (gamma, |T|) sweep point."""
    point = dataclasses.replace(cfg, gamma=math.radians(gamma_deg), t=t_abs * t_phase(cfg))
    g = coherence_matrix(point)
    if g.trace <= 0.0:
        raise ZeroTraceError("degree of polarization undefined at zero intensity")
    return CoherenceMatrix(g.matrix / g.trace)


def setting_means(g: CoherenceMatrix, settings, detector) -> list[float]:
    """Mean counts per setting, one tr(Pi G) at a time."""
    means = []
    for setting in settings:
        signal = float(np.trace(fresh_projector(setting) @ g.matrix).real)
        means.append(detector.kappa * max(signal, 0.0) * detector.integration_time
                     + detector.dark_rate * detector.integration_time)
    return means


def tomography_row_oracle(cfg, gamma_deg, t_abs, detector, seed_seq) -> float:
    """P of one tomography sweep row drawn from seed_seq (NaN if no counts survive)."""
    g = tomography_point_matrix(cfg, gamma_deg, t_abs)
    raw = np.random.default_rng(seed_seq).poisson(setting_means(g, DEFAULT_SETTINGS, detector))
    return reconstruct_run(DEFAULT_SETTINGS, raw, detector).p_estimate
