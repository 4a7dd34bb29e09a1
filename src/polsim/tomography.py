"""Single-qubit polarization tomography with Poisson counting noise.

A quarter-wave plate followed by a linear polarizer projects the signal
beam; counts collected over a fixed integration window are background
corrected and a maximum-likelihood fit over the positive-semidefinite cone
recovers the coherence matrix.  The intensity scale is absorbed into G, so
only its shape (and hence P) is meaningful.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .elements import polarizer_jones, waveplate_jones
from .errors import ConfigError, ConfigRangeError, IllPosedError, ParameterError
from .zwm import CoherenceMatrix, check_coherence, degree_of_polarization

# largest mean numpy's Poisson sampler accepts (its check in Generator.poisson)
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class MeasurementSetting:
    """One analyzer configuration: QWP fast-axis and polarizer angles (rad)."""

    label: str
    qwp_angle: float
    polarizer_angle: float


DEFAULT_SETTINGS = (
    MeasurementSetting("H", 0.0, 0.0),
    MeasurementSetting("V", 0.0, math.pi / 2),
    MeasurementSetting("D", math.pi / 4, math.pi / 4),
    MeasurementSetting("R", 0.0, math.pi / 4),
)


@dataclass(frozen=True)
class DetectorModel:
    """Counting model: mean = kappa * tr(Pi G) * time + dark_rate * time.

    kappa: counts per second per unit beam intensity
    dark_rate: background counts per second
    integration_time: seconds per setting
    """

    kappa: float = 3333.0
    dark_rate: float = 0.0
    integration_time: float = 15.0

    def __post_init__(self):
        if self.kappa < 0 or self.dark_rate < 0:
            raise ParameterError("count rates must be non-negative")
        if self.integration_time <= 0:
            raise ParameterError("integration_time must be positive")


def _angle_key(setting: MeasurementSetting) -> tuple[str, str]:
    # the angles' exact bits: 0.0 == -0.0, but their projectors differ in signed zeros
    return float(setting.qwp_angle).hex(), float(setting.polarizer_angle).hex()


@functools.lru_cache(maxsize=256)
def _projector(qwp_hex: str, pol_hex: str) -> np.ndarray:
    j = waveplate_jones("quarter", float.fromhex(qwp_hex))
    pol = polarizer_jones(float.fromhex(pol_hex))
    pi = j.conj().T @ pol @ j
    pi.setflags(write=False)
    return pi


def projector_from_setting(setting: MeasurementSetting) -> np.ndarray:
    """Pi = J_qwp^dagger Pi_pol J_qwp: the pure state the analyzer passes.

    Cached per angle pair; the returned array is shared and read-only.
    """
    return _projector(*_angle_key(setting))


def _projector_components(settings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-setting fit data, read-only and cached: the inversion design rows
    (pxx, pyy, 2 Re pxy, 2 Im pxy), the Stokes rows a_k with expected count
    mu_k = a_k . (S0, S1, S2, S3), and the analyzer's pass spinor phi_k,
    Pi_k = phi_k phi_k^dagger.

    Raises IllPosedError, on every call, when the projectors cannot
    identify G.
    """
    return _components(tuple(_angle_key(s) for s in settings))


@functools.lru_cache(maxsize=64)
def _components(keys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pis = np.array([_projector(*key) for key in keys])
    pxx, pyy, pxy = pis[:, 0, 0].real, pis[:, 1, 1].real, pis[:, 0, 1]
    design = np.column_stack([pxx, pyy, 2.0 * pxy.real, 2.0 * pxy.imag])
    stokes = np.column_stack([(pxx + pyy) / 2.0, (pxx - pyy) / 2.0, pxy.real, -pxy.imag])
    if np.linalg.matrix_rank(stokes, tol=1e-10 * np.abs(stokes).max()) < 4:
        raise IllPosedError("projector set is degenerate; cannot identify G")
    # Pi is rank one: its column with the larger diagonal entry is phi up to a phase
    col = (pyy > pxx).astype(int)
    phi = pis[np.arange(len(keys)), :, col] / np.sqrt(np.maximum(pxx, pyy))[:, None]
    for a in (design, stokes, phi):
        a.setflags(write=False)
    return design, stokes, phi


def expected_counts_grid(g: np.ndarray, settings, detector: DetectorModel) -> np.ndarray:
    """Mean detected counts, dark counts included, of every (..., 2, 2)
    coherence matrix in g under every setting: shape (..., n_settings).

    The signal is the trace of the stacked products Pi @ G, which gives the
    same floats as each setting's own tr(Pi G).
    """
    pis = np.stack([projector_from_setting(s) for s in settings])
    products = pis @ np.asarray(g)[..., None, :, :]
    signal = (products[..., 0, 0] + products[..., 1, 1]).real
    with np.errstate(over="ignore"):  # an infinite mean fails the Poisson limit check
        return detector.kappa * np.maximum(signal, 0.0) * detector.integration_time \
            + detector.dark_rate * detector.integration_time


def expected_counts(
    g: CoherenceMatrix, setting: MeasurementSetting, detector: DetectorModel
) -> float:
    """Mean detected counts for one setting, dark counts included."""
    return float(expected_counts_grid(g.matrix, (setting,), detector)[0])


def _poisson_draw(mu: np.ndarray, seed) -> np.ndarray:
    if not np.all(mu <= _POISSON_LAM_MAX):
        raise ConfigRangeError(f"expected counts {np.max(mu):g} exceed the Poisson "
                               f"sampler's limit {_POISSON_LAM_MAX:g}")
    return np.random.default_rng(seed).poisson(mu)


def simulate_counts(
    g: CoherenceMatrix, settings, detector: DetectorModel, seed
) -> np.ndarray:
    """Poisson draw of raw counts for every setting; deterministic per seed."""
    return _poisson_draw(expected_counts_grid(g.matrix, settings, detector), seed)


def _checked_counts(counts, what: str) -> np.ndarray:
    try:
        counts = np.asarray(counts, dtype=float)
    except OverflowError:
        raise ParameterError(f"{what} must be finite") from None
    if not np.all(np.isfinite(counts)):
        raise ParameterError(f"{what} must be finite")
    if np.any(counts < 0):
        raise ParameterError(f"{what} must be non-negative")
    return counts


def background_correct(raw_counts, detector: DetectorModel) -> np.ndarray:
    """Subtract the expected dark counts, clamping at zero."""
    raw = _checked_counts(raw_counts, "raw counts")
    return np.maximum(raw - detector.dark_rate * detector.integration_time, 0.0)


def _linear_inversion_psd(counts, design) -> tuple[np.ndarray, bool, np.ndarray]:
    """Least-squares inversion projected onto the PSD cone, whether the
    inversion was PSD before the projection, and its top eigenvector."""
    sol, *_ = np.linalg.lstsq(design, counts, rcond=None)
    g = np.array([[sol[0], sol[2] + 1j * sol[3]],
                  [sol[2] - 1j * sol[3], sol[1]]])
    vals, vecs = np.linalg.eigh(g)
    psd = bool(vals[0] >= 0.0)
    vals = np.maximum(vals, 0.0)
    return (vecs * vals) @ vecs.conj().T, psd, vecs[:, 1]


def _cholesky_round_trip(g: np.ndarray) -> np.ndarray:
    """g as L L^dagger from its triangular factor, bit for bit as the exact path returns it."""
    t0 = math.sqrt(max(g[0, 0].real, 0.0))
    t2, t3 = (g[1, 0].real / t0, g[1, 0].imag / t0) if t0 > 0.0 else (0.0, 0.0)
    t = np.array([t0, math.sqrt(max(g[1, 1].real - t2 * t2 - t3 * t3, 0.0)), t2, t3])
    gxy = t[0] * (t[2] - 1j * t[3])
    return np.array([[t[0] * t[0], gxy],
                     [gxy.conjugate(), t[1] * t[1] + t[2] * t[2] + t[3] * t[3]]])


# The Newton fits see counts n scaled to a total near 1.  Setting k expects
# mu_k = a_k . x from the Stokes vector x; G is PSD exactly when S0 >= |S|.
_NEWTON_STEPS = 100
_DECREMENT_TOL = 1e-28  # squared Newton decrement at which a fit stops
_INTERIOR_KKT = 1e-9    # largest certificate an interior fit is accepted with


def _newton(derivatives, decrease, move, x) -> tuple[np.ndarray, int]:
    """Damped Newton from x.  derivatives(x) is the objective's gradient and
    Hessian; the step uses the Hessian's nonzero eigenvalues, so it has
    minimum norm where the Hessian is singular, and their magnitudes, so it
    descends where the objective is not convex.  Steps are halved until
    decrease(x, step), the objective's change computed without cancellation
    (inf off its domain), is below a quarter of the squared Newton decrement."""
    for steps in range(1, _NEWTON_STEPS + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            grad, hess = derivatives(x)
        if not np.all(np.isfinite(hess)):  # a weight beyond float range
            break
        vals, vecs = np.linalg.eigh(hess)
        keep = np.abs(vals) > 1e-15 * np.abs(vals).max()
        step = -vecs[:, keep] @ ((vecs[:, keep].T @ grad) / np.abs(vals[keep]))
        decrement = -float(grad @ step)
        if not decrement > _DECREMENT_TOL:
            break
        t = 1.0
        while not decrease(x, t * step) <= -0.25 * t * decrement:
            t *= 0.5
            if t < 1e-12:
                return x, steps
        x = move(x, t * step)
    return x, steps


def _interior_newton(a, n) -> tuple[np.ndarray, int]:
    """Minimize sum(mu - n log mu) over x from the unpolarized state."""
    pos = n > 0.0

    def derivatives(x):
        mu = a @ x
        w = np.divide(n, mu, out=np.zeros_like(n), where=pos)
        return a.T @ (1.0 - w), (a.T * np.divide(w, mu, out=np.zeros_like(n), where=pos)) @ a

    def decrease(x, dx):
        dmu = a @ dx
        ratio = dmu[pos] / (a @ x)[pos]
        if not (np.all(ratio > -1.0) and np.all((a @ (x + dx))[pos] > 0.0)):
            return math.inf
        return float(dmu.sum() - n[pos] @ np.log1p(ratio))

    return _newton(derivatives, decrease, np.add, np.array([n.sum() / a[:, 0].sum(), 0, 0, 0]))


def _boundary_newton(phi, n, psi) -> tuple[np.ndarray, np.ndarray, int]:
    """Best pure G = s0 psi psi^dagger: with c_k = |phi_k^dagger psi|^2, s0 = N / sum c
    leaves h = N log sum c - sum n log c for Newton over the Bloch direction, a
    step z moving psi to unit(psi + z psi_perp).  Returns (G, mu, steps)."""
    total, pos = n.sum(), n > 0.0

    def move(psi, z):
        psi = psi + complex(z[0], z[1]) * _perp(psi)
        return psi / np.linalg.norm(psi)

    def derivatives(psi):
        p, q = phi.conj() @ psi, phi.conj() @ _perp(psi)
        c = np.abs(p) ** 2  # c_k(z) = c_k + dc_k . (Re z, Im z) + curv_k |z|^2 + ...
        dc = 2.0 * np.column_stack([(p.conj() * q).real, -(p.conj() * q).imag])
        curv, w = np.abs(q) ** 2 - c, np.divide(n, c, out=np.zeros_like(n), where=pos)
        s, ds = c.sum(), dc.sum(axis=0)
        return total / s * ds - w @ dc, (
            2.0 * (total / s * curv.sum() - w @ curv) * np.eye(2)
            - total / s**2 * np.outer(ds, ds)
            + (dc.T * np.divide(w, c, out=np.zeros_like(n), where=pos)) @ dc)

    def decrease(psi, z):
        p, zq = phi.conj() @ psi, complex(z[0], z[1]) * (phi.conj() @ _perp(psi))
        c, zz = np.abs(p) ** 2, z[0] * z[0] + z[1] * z[1]
        dc = (2.0 * (p.conj() * zq).real + np.abs(zq) ** 2 - c * zz) / (1.0 + zz)
        ratio = dc[pos] / c[pos]
        if not (np.all(ratio > -1.0) and np.all(np.abs(phi.conj() @ move(psi, z))[pos] > 0.0)):
            return math.inf
        return float(total * np.log1p(dc.sum() / c.sum()) - n[pos] @ np.log1p(ratio))

    # a start orthogonal to a setting that counted would put its c_k at zero
    psi = psi + 1e-3 * phi[pos & (phi.conj() @ psi == 0.0)].sum(axis=0)
    psi, steps = _newton(derivatives, decrease, move, psi / np.linalg.norm(psi))
    c = np.abs(phi.conj() @ psi) ** 2
    g = total / c.sum() * np.outer(psi, psi.conj())
    return (g + g.conj().T) / 2.0, total / c.sum() * c, steps


def _perp(psi: np.ndarray) -> np.ndarray:
    return np.array([-psi[1].conjugate(), psi[0].conjugate()])


def _kkt_residual(a, n, mu, trace) -> float:
    """Conic KKT residual per count of a fit with expected counts mu = a x.
    x is optimal when the gradient y = A^T (1 - n / mu) lies in the
    self-dual cone and x . y = sum mu - N = 0; the negative log-likelihood's
    excess over its minimum is at most trace max(|y_vec| - y0, 0) + |x . y|."""
    pos = n > 0.0
    if not np.all(mu[pos] > 0.0):
        return math.inf
    y = a.T @ (1.0 - np.divide(n, mu, out=np.zeros_like(n), where=pos))
    gap = trace * max(math.hypot(y[1], y[2], y[3]) - y[0], 0.0) + abs(mu.sum() - n.sum())
    return float(gap / n.sum())


@dataclass(frozen=True)
class FitDiagnostics:
    """How a tomography fit reached its answer.

    path: "zero" (all counts zero), "exact" (four settings and a PSD linear
      inversion, which is the MLE), "interior" (a mixed optimum, more than
      four settings) or "boundary" (a pure optimum).
    newton_steps: Newton iterations, interior and boundary together.
    kkt_residual: the conic KKT certificate, a bound on the excess of the
      negative log-likelihood over its minimum, per count.
    """

    path: str
    newton_steps: int = 0
    kkt_residual: float = 0.0


def mle_reconstruct(corrected_counts, settings) -> CoherenceMatrix:
    """Maximum-likelihood coherence matrix from background-corrected counts.

    The expected counts are linear in the Stokes vector of G, so the Poisson
    negative log-likelihood is convex over the PSD cone; its minimum is found
    exactly.  All-zero counts give the zero matrix.  With four settings a PSD
    linear inversion reproduces every count and is returned as is.  With
    more, damped Newton in Stokes coordinates finds a mixed optimum.  Else
    the optimum is pure, s0 is closed form for each Bloch direction, and
    Newton over the direction finds it, from the top eigenvector of the
    PSD-projected inversion.  Counts are scaled by a power of two for the
    fit; a subnormal total that rounds G off the cone raises ParameterError.
    """
    return CoherenceMatrix(_fit(corrected_counts, settings)[0])


def _fit(corrected_counts, settings) -> tuple[np.ndarray, FitDiagnostics]:
    counts = _checked_counts(corrected_counts, "corrected counts")
    if len(settings) < 4 or counts.shape != (len(settings),):
        raise IllPosedError(
            f"need >= 4 settings with matching counts, got {len(settings)} "
            f"settings and counts of shape {counts.shape}"
        )
    design, a, phi = _projector_components(settings)
    if not np.any(counts > 0):
        return np.zeros((2, 2), dtype=complex), FitDiagnostics("zero")

    total = float(counts.sum())
    scale = math.ldexp(1.0, math.frexp(total)[1])  # a power of two: exact
    n = counts / scale
    g, psd, top = _linear_inversion_psd(n, design)
    if psd and len(settings) == 4:
        path, steps = "exact", 0
        matrix = _cholesky_round_trip(g * scale)
        mu = design @ np.array([g[0, 0].real, g[1, 1].real, g[0, 1].real, g[0, 1].imag])
    else:
        path, steps = "boundary", 0
        if len(settings) > 4:
            x, steps = _interior_newton(a, n)
            mu = a @ x
            inside = x[0] >= math.hypot(x[1], x[2], x[3])
            if inside and _kkt_residual(a, n, mu, x[0]) <= _INTERIOR_KKT:
                path = "interior"
                g = np.array([[x[0] + x[1], x[2] - 1j * x[3]],
                              [x[2] + 1j * x[3], x[0] - x[1]]]) / 2.0
        if path == "boundary":
            g, mu, boundary_steps = _boundary_newton(phi, n, top)
            steps += boundary_steps
        matrix = g * scale
    if total < sys.float_info.min:  # scaling back may round G off the cone
        try:
            check_coherence(matrix)
            if not matrix[0, 0].real + matrix[1, 1].real > 0.0:
                raise ParameterError("zero trace")
        except ParameterError:
            raise ParameterError("corrected counts are below float resolution: "
                                 f"their total {total:g} is subnormal") from None
    return matrix, FitDiagnostics(path, steps, _kkt_residual(a, n, mu, np.trace(g).real))


@dataclass(frozen=True)
class TomographyRun:
    """Bundle of everything one reconstruction consumed and produced."""

    settings: tuple[MeasurementSetting, ...]
    raw_counts: tuple[float, ...]
    corrected_counts: tuple[float, ...]
    reconstruction: CoherenceMatrix
    p_estimate: float
    diagnostics: FitDiagnostics


def reconstruct_run(settings, raw_counts, detector: DetectorModel) -> TomographyRun:
    """Correct, fit and summarize one set of raw counts.

    p_estimate is NaN when the corrected counts are all zero (zero-trace
    reconstruction, polarization undefined).
    """
    corrected = background_correct(raw_counts, detector)
    matrix, diagnostics = _fit(corrected, settings)
    recon = CoherenceMatrix(matrix)
    p = degree_of_polarization(recon) if recon.trace > 0.0 else math.nan
    return TomographyRun(
        settings=tuple(settings),
        raw_counts=tuple(float(c) for c in np.asarray(raw_counts, dtype=float)),
        corrected_counts=tuple(float(c) for c in corrected),
        reconstruction=recon,
        p_estimate=p,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Counts table I/O
# ---------------------------------------------------------------------------

_COUNTS_HEADER = ("label", "qwp_angle_deg", "polarizer_angle_deg", "raw_count")


def write_counts_table(path, settings, raw_counts) -> None:
    """Whitespace-delimited table, one row per setting, angles in degrees."""
    lines = ["  ".join(_COUNTS_HEADER)]
    for s, n in zip(settings, raw_counts, strict=True):
        lines.append(
            f"{s.label}  {math.degrees(s.qwp_angle):.6f}  "
            f"{math.degrees(s.polarizer_angle):.6f}  {int(n)}"
        )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_counts_table(path) -> tuple[tuple[MeasurementSetting, ...], np.ndarray]:
    """Parse a counts table; returns (settings, raw counts).

    The header row must name the four columns exactly; each data row is
    label, QWP angle (deg), polarizer angle (deg), non-negative integer count.
    """
    try:
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read counts file {path}: {exc}") from None
    rows = [(i + 1, ln.split()) for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise ConfigError("counts file is empty")
    header_line, header = rows[0]
    if tuple(header) != _COUNTS_HEADER:
        raise ConfigError(
            f"expected header {' '.join(_COUNTS_HEADER)!r}", line=header_line
        )
    settings = []
    counts = []
    for line_no, parts in rows[1:]:
        if len(parts) != 4:
            raise ConfigError(f"expected 4 columns, got {len(parts)}", line=line_no)
        label, qwp_s, pol_s, count_s = parts
        try:
            qwp, pol = float(qwp_s), float(pol_s)
            count = int(count_s)
        except ValueError:
            raise ConfigError(f"malformed row {parts}", line=line_no) from None
        if not (math.isfinite(qwp) and math.isfinite(pol)):
            raise ConfigRangeError(f"non-finite angle in row {parts}", line=line_no)
        if count < 0:
            raise ConfigError(f"negative count {count}", line=line_no)
        try:
            float(count)
        except OverflowError:
            raise ConfigRangeError(f"{len(count_s)}-digit count is beyond float "
                                   f"range", line=line_no) from None
        settings.append(
            MeasurementSetting(label, math.radians(qwp), math.radians(pol))
        )
        counts.append(count)
    if not settings:
        raise ConfigError("counts file has a header but no data rows")
    return tuple(settings), np.array(counts)
