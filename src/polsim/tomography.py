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
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .elements import polarizer_jones, waveplate_jones
from .errors import ConfigError, ConfigRangeError, IllPosedError, ParameterError
from .zwm import CoherenceMatrix, degree_of_polarization

_MU_FLOOR_REL = 1e-12
_POLISH_ROUNDS = 8
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


def _projector_components(settings) -> tuple[np.ndarray, ...]:
    """(pxx, pyy, Re pxy, Im pxy) per setting, read-only and cached.

    Raises IllPosedError, on every call, when the projectors cannot
    identify G.
    """
    return _components(tuple(_angle_key(s) for s in settings))


@functools.lru_cache(maxsize=64)
def _components(keys) -> tuple[np.ndarray, ...]:
    pis = [_projector(*key) for key in keys]
    pxx = np.array([pi[0, 0].real for pi in pis])
    pyy = np.array([pi[1, 1].real for pi in pis])
    rexy = np.array([pi[0, 1].real for pi in pis])
    imxy = np.array([pi[0, 1].imag for pi in pis])
    design = np.column_stack([pxx, pyy, math.sqrt(2.0) * rexy, math.sqrt(2.0) * imxy])
    if np.linalg.matrix_rank(design, tol=1e-10 * np.abs(design).max()) < 4:
        raise IllPosedError("projector set is degenerate; cannot identify G")
    for a in (pxx, pyy, rexy, imxy):
        a.setflags(write=False)
    return pxx, pyy, rexy, imxy


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


def _linear_inversion_psd(counts, pxx, pyy, rexy, imxy) -> tuple[np.ndarray, bool]:
    """Least-squares inversion projected onto the PSD cone, and whether the
    inversion was PSD before the projection."""
    design = np.column_stack([pxx, pyy, 2.0 * rexy, 2.0 * imxy])
    sol, *_ = np.linalg.lstsq(design, counts, rcond=None)
    g = np.array([[sol[0], sol[2] + 1j * sol[3]],
                  [sol[2] - 1j * sol[3], sol[1]]])
    vals, vecs = np.linalg.eigh(g)
    psd = bool(vals[0] >= 0.0)
    vals = np.maximum(vals, 0.0)
    return (vecs * vals) @ vecs.conj().T, psd


@dataclass(frozen=True)
class FitDiagnostics:
    """How a tomography fit reached its answer.

    path: "exact" (four settings whose linear inversion is PSD: that is the
      MLE, returned without optimizing), "optimizer" (L-BFGS-B plus grid
      polish) or "zero" (all counts zero).
    lbfgs_iterations: L-BFGS-B iterations summed over the polish rounds.
    polish_rounds: optimizer-plus-grid rounds run, at most 8.
    polish_capped: the last allowed round's grid still improved the fit.
    lbfgs_success: no L-BFGS-B run reported failure (True when none ran).
    """

    path: str
    lbfgs_iterations: int = 0
    polish_rounds: int = 0
    polish_capped: bool = False
    lbfgs_success: bool = True


def mle_reconstruct(corrected_counts, settings) -> CoherenceMatrix:
    """Maximum-likelihood coherence matrix from background-corrected counts.

    G = L L^dagger is parameterized by the four real entries of a lower
    triangular L, which keeps every iterate positive semidefinite.  The fit
    starts from a linear inversion projected onto the PSD cone.  With
    exactly four settings the Poisson model is saturated, so when the
    inversion is already PSD it reproduces every count and is the MLE: it
    is returned as is.  Otherwise the Poisson log-likelihood
    sum(n log mu - mu) is maximized with L-BFGS-B, then polished against a
    +-{1,2}-step refinement grid per parameter until the grid finds no
    further improvement; the result never has lower likelihood than its
    initializer.  All-zero counts return the zero matrix.
    """
    return CoherenceMatrix(_fit(corrected_counts, settings)[0])


def _fit(corrected_counts, settings) -> tuple[np.ndarray, FitDiagnostics]:
    counts = _checked_counts(corrected_counts, "corrected counts")
    if len(settings) < 4 or counts.shape != (len(settings),):
        raise IllPosedError(
            f"need >= 4 settings with matching counts, got {len(settings)} "
            f"settings and counts of shape {counts.shape}"
        )
    pxx, pyy, rexy, imxy = _projector_components(settings)
    if not np.any(counts > 0):
        return np.zeros((2, 2), dtype=complex), FitDiagnostics("zero")

    g_init, psd = _linear_inversion_psd(counts, pxx, pyy, rexy, imxy)
    t_init = _matrix_to_params(g_init)
    if psd and len(settings) == 4:
        return _params_to_matrix(t_init), FitDiagnostics("exact")
    floor = _MU_FLOOR_REL * (counts.sum() + 1.0)
    args = (pxx, pyy, rexy, imxy, counts, floor)
    scale = math.sqrt(counts.sum())
    if np.linalg.norm(t_init) < 1e-9 * scale:
        t_init = np.full(4, 0.1 * scale)

    best_t = t_init.copy()
    best_nll = _nll_poisson_grad(best_t, *args)[0]
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    iterations, success = 0, True
    for rounds in range(1, _POLISH_ROUNDS + 1):
        res = minimize(_nll_poisson_grad, best_t, args=args, jac=True,
                       method="L-BFGS-B",
                       options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-10})
        iterations += int(res.nit)
        success = success and bool(res.success)
        if res.fun <= best_nll:
            best_t, best_nll = np.asarray(res.x), float(res.fun)
        steps = np.maximum(1e-4 * np.abs(best_t), 1e-6 * scale)
        axes = [best_t[k] + offsets * steps[k] for k in range(4)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
        grid_nll = _nll_poisson_batch(grid, *args)
        k_min = int(np.argmin(grid_nll))
        if grid_nll[k_min] >= best_nll - 1e-9:
            capped = False
            break
        best_t, best_nll = grid[k_min].copy(), float(grid_nll[k_min])
    else:
        capped = True
    return _params_to_matrix(best_t), FitDiagnostics(
        "optimizer", iterations, rounds, capped, success)


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
