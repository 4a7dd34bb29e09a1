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
from operator import mul

import numpy as np

from .elements import polarizer_jones, waveplate_jones
from .errors import ConfigError, ConfigRangeError, IllPosedError, ParameterError
from .newton import (INTERIOR_KKT, SettingRows, boundary_newton, dot, interior_newton,
                     kkt_residual)
from .zwm import (CoherenceMatrix, check_coherence, degree_of_polarization,
                  degree_of_polarization_grid)

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


def _projector_components(settings) -> tuple[np.ndarray, np.ndarray]:
    """Per-setting fit data, read-only and cached: the inversion design rows
    (pxx, pyy, 2 Re pxy, 2 Im pxy) and the Stokes rows a_k with expected
    count mu_k = a_k . (S0, S1, S2, S3).

    Raises IllPosedError, on every call, when the projectors cannot
    identify G.
    """
    return _components(tuple(_angle_key(s) for s in settings))


@functools.lru_cache(maxsize=64)
def _components(keys) -> tuple[np.ndarray, np.ndarray]:
    pis = np.array([_projector(*key) for key in keys])
    pxx, pyy, pxy = pis[:, 0, 0].real, pis[:, 1, 1].real, pis[:, 0, 1]
    design = np.column_stack([pxx, pyy, 2.0 * pxy.real, 2.0 * pxy.imag])
    stokes = np.column_stack([(pxx + pyy) / 2.0, (pxx - pyy) / 2.0, pxy.real, -pxy.imag])
    if np.linalg.matrix_rank(stokes, tol=1e-10 * np.abs(stokes).max()) < 4:
        raise IllPosedError("projector set is degenerate; cannot identify G")
    for a in (design, stokes):
        a.setflags(write=False)
    return design, stokes


@functools.lru_cache(maxsize=64)
def _scalars(keys) -> SettingRows:
    stokes = _components(keys)[1]
    rows = tuple(map(tuple, stokes.tolist()))
    columns = tuple(zip(*rows))
    outer = tuple(tuple(a[i] * a[j] for a in rows) for i in range(4) for j in range(i, 4))
    return SettingRows(rows, columns, outer, tuple(map(sum, columns)),
                       tuple(map(tuple, np.linalg.pinv(stokes).tolist())),
                       tuple((a[0], (a[1] / a[0], a[2] / a[0], a[3] / a[0])) for a in rows))


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
    values = counts.ravel().tolist()
    if not all(map(math.isfinite, values)):
        raise ParameterError(f"{what} must be finite")
    if values and min(values) < 0.0:
        raise ParameterError(f"{what} must be non-negative")
    return counts


def background_correct(raw_counts, detector: DetectorModel) -> np.ndarray:
    """Subtract the expected dark counts, clamping at zero."""
    raw = _checked_counts(raw_counts, "raw counts")
    return np.maximum(raw - detector.dark_rate * detector.integration_time, 0.0)


def _exact_fits(n, exps, design) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact path of every row of n, four counts each scaled by 2^-exps:
    whether its least-squares inversion is PSD, the inversion projected onto
    the PSD cone, and that projection scaled back by 2^exps and returned as
    L L^dagger from its triangular factor.  Each row has its own lstsq, the
    eigen-decompositions and products loop over the stacked matrices and
    the factor is taken row by row, so a row's bits do not depend on the
    rows beside it."""
    sols = (np.linalg.lstsq(design, row, rcond=None)[0].tolist() for row in n)
    g = np.array([[[a, complex(c, d)], [complex(c, 0.0 - d), b]] for a, b, c, d in sols])
    vals, vecs = np.linalg.eigh(g)
    g = (vecs * np.maximum(vals, 0.0)[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    with np.errstate(over="ignore"):  # _fit reports a fit beyond float range
        parts = np.ldexp(g.view(float).reshape(len(n), 8), exps[:, None]).tolist()
    matrices = []
    for gxx, _, _, _, re, im, gyy, _ in parts:
        t0 = math.sqrt(max(gxx, 0.0))
        t2, t3 = (re / t0, im / t0) if t0 > 0.0 else (0.0, 0.0)
        t1 = math.sqrt(max(gyy - t2 * t2 - t3 * t3, 0.0))
        gxy = complex(t0 * t2, -(t0 * t3))
        matrices.append([[t0 * t0, gxy], [gxy.conjugate(), t1 * t1 + t2 * t2 + t3 * t3]])
    return vals[:, 0] >= 0.0, g, np.array(matrices, dtype=complex)


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
    second-order steps on the Bloch sphere find it, from the direction of
    the interior fit or of the least-squares inversion.  Counts are scaled
    by a power of two for the fit; a subnormal total that rounds G off the
    cone raises ParameterError, and a total beyond float range
    ConfigRangeError.
    """
    return CoherenceMatrix(_fit(corrected_counts, settings)[0])


def _counts_total(values) -> float:
    try:
        return math.fsum(values)
    except OverflowError:
        raise ConfigRangeError("the counts total is beyond float range") from None


def _fit(corrected_counts, settings) -> tuple[np.ndarray, FitDiagnostics]:
    """The fit behind mle_reconstruct."""
    counts = _checked_counts(corrected_counts, "corrected counts")
    if len(settings) < 4 or counts.shape != (len(settings),):
        raise IllPosedError(
            f"need >= 4 settings with matching counts, got {len(settings)} "
            f"settings and counts of shape {counts.shape}"
        )
    keys = tuple(_angle_key(s) for s in settings)
    design = _components(keys)[0]
    data = _scalars(keys)
    values = counts.tolist()
    if not max(values) > 0.0:
        return np.zeros((2, 2), dtype=complex), FitDiagnostics("zero")

    total = _counts_total(values)
    exp = math.frexp(total)[1]
    n = [math.ldexp(c, -exp) for c in values]  # exact: a power of two
    exact = False
    if len(settings) == 4:
        (exact,), (g,), (matrix,) = _exact_fits(np.array([n]), np.array([exp]), design)
    if exact:
        path, steps = "exact", 0
        (gxx, gxy), (gyx, gyy) = g.tolist()
        trace = gxx.real + gyy.real
        x = (trace, gxx.real - gyy.real, 2.0 * gxy.real, 2.0 * gyx.imag)
        mu = [dot(a, x) for a in data.rows]
    else:
        path, steps = "boundary", 0
        if len(settings) > 4:
            x, steps = interior_newton(data, n)
            mu = [dot(a, x) for a in data.rows]
            if x[0] >= math.hypot(x[1], x[2], x[3]) and \
                    kkt_residual(data, n, mu, x[0]) <= INTERIOR_KKT:
                path = "interior"
                entries = ((x[0] + x[1]) / 2.0, (x[0] - x[1]) / 2.0, x[2] / 2.0, -x[3] / 2.0)
        if path == "boundary":
            # start from the direction of a Stokes vector outside the cone,
            # where every c_k >= mu_k / |S| > 0: the interior fit's, else the
            # inversion's, which four settings reach here only outside it
            if len(settings) == 4 or x[0] >= math.hypot(x[1], x[2], x[3]):
                x = [sum(map(mul, row, n)) for row in data.inverse]
            entries, mu, boundary_steps = boundary_newton(data, n, x[1:])
            steps += boundary_steps
        trace = entries[0] + entries[1]
        gxx, gyy, re, im = (math.ldexp(v, exp) for v in entries)
        matrix = np.array([[gxx, complex(re, im)], [complex(re, -im), gyy]])
    if not math.isfinite(matrix[0, 0].real + matrix[1, 1].real + 2.0 * abs(matrix[0, 1])):
        raise ConfigRangeError(f"the fit to the counts total {total:g} is beyond float range")
    if total < sys.float_info.min:  # scaling back may round G off the cone
        try:
            check_coherence(matrix)
            if not matrix[0, 0].real + matrix[1, 1].real > 0.0:
                raise ParameterError("zero trace")
        except ParameterError:
            raise ParameterError("corrected counts are below float resolution: "
                                 f"their total {total:g} is subnormal") from None
    return matrix, FitDiagnostics(path, steps, kkt_residual(data, n, mu, trace))


def _p_estimates(corrected, settings) -> np.ndarray:
    """P of the fit of every row of corrected counts (rows x settings): the
    floats each row's reconstruct_run gives, NaN for an all-zero row.

    With four settings the exact paths of all rows are solved together, in
    one call of _exact_fits; the other rows go to _fit.
    """
    corrected = _checked_counts(corrected, "corrected counts")
    p = np.full(len(corrected), math.nan)
    fit = np.ones(len(corrected), dtype=bool)
    if len(settings) == 4 and len(corrected):
        totals = [_counts_total(row) for row in corrected.tolist()]
        exps = np.frexp(totals)[1]
        psd, _, g = _exact_fits(np.ldexp(corrected, -exps[:, None]), exps,
                                _projector_components(settings)[0])
        exact = psd & (np.array(totals) > 0.0) & (g[:, 0, 0].real + g[:, 1, 1].real > 0.0)
        check_coherence(g[exact])  # as each row's CoherenceMatrix would
        p[exact] = degree_of_polarization_grid(g[exact])
        fit = ~exact
    for k in np.flatnonzero(fit):
        recon = CoherenceMatrix(_fit(corrected[k], settings)[0])
        if recon.trace > 0.0:
            p[k] = degree_of_polarization(recon)
    return p


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
