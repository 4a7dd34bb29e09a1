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

from .errors import ConfigError, ConfigRangeError, IllPosedError, ParameterError, ZeroTraceError
from .newton import SettingRows, ball_newton, dot, kkt_residual
from .zwm import CoherenceMatrix, _stokes_grid, degree_of_polarization

# largest mean numpy's Poisson sampler accepts (its check in Generator.poisson)
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class MeasurementSetting:
    """One analyzer configuration: QWP fast-axis and polarizer angles (rad)."""

    label: str
    qwp_angle: float
    polarizer_angle: float

    def __post_init__(self):
        if not all(math.isfinite(2.0 * float(x)) for x in (self.qwp_angle, self.polarizer_angle)):
            raise ParameterError("analyzer angles must be finite, and so must their doubles")


DEFAULT_SETTINGS = (
    MeasurementSetting("H", 0.0, 0.0),
    MeasurementSetting("V", 0.0, math.pi / 2),
    MeasurementSetting("D", math.pi / 4, math.pi / 4),
    MeasurementSetting("R", 0.0, math.pi / 4),
)


@dataclass(frozen=True)
class DetectorModel:
    """Counting model: a setting's mean count is kappa T max(a . S(G), 0) +
    dark_rate T, with a the setting's Stokes row and T the integration time.

    kappa: counts per second per unit beam intensity
    dark_rate: background counts per second
    integration_time: seconds per setting
    """

    kappa: float = 3333.0
    dark_rate: float = 0.0
    integration_time: float = 15.0

    def __post_init__(self):
        if not (0.0 <= self.kappa < math.inf and 0.0 <= self.dark_rate < math.inf):
            raise ParameterError("count rates must be finite and non-negative")
        if not 0.0 < self.integration_time < math.inf:
            raise ParameterError("integration_time must be finite and positive")


def _angle_key(setting: MeasurementSetting) -> tuple[str, str]:
    # the angles' exact bits: 0.0 == -0.0, but their rows differ in signed zeros
    return float(setting.qwp_angle).hex(), float(setting.polarizer_angle).hex()


def _stokes_row(qwp: float, pol: float) -> tuple[float, float, float, float]:
    """The Stokes row a of a quarter-wave plate at q followed by a polarizer
    at p: a beam of Stokes vector S passes a . S, with

      a = (1, cos d cos 2q, cos d sin 2q, -sin d) / 2,   d = 2p - 2q.
    """
    c2q, s2q = math.cos(2.0 * qwp), math.sin(2.0 * qwp)
    c2p, s2p = math.cos(2.0 * pol), math.sin(2.0 * pol)
    cd, sd = c2p * c2q + s2p * s2q, s2p * c2q - c2p * s2q
    return 0.5, 0.5 * cd * c2q, 0.5 * cd * s2q, -0.5 * sd


@functools.lru_cache(maxsize=64)
def _scalars(keys) -> SettingRows:
    """The fit data for the settings with these angle keys, cached: the
    settings' Stokes rows a_k, with expected count mu_k = a_k . (S0, S1, S2, S3),
    their products and their pseudo-inverse.

    Raises IllPosedError, on every call, when the rows cannot identify G.
    """
    stokes = np.array([_stokes_row(float.fromhex(q), float.fromhex(p)) for q, p in keys])
    if np.linalg.matrix_rank(stokes, tol=1e-10 * np.abs(stokes).max()) < 4:
        raise IllPosedError("projector set is degenerate; cannot identify G")
    rows = tuple(map(tuple, stokes.tolist()))
    columns = tuple(zip(*rows))
    outer = tuple(tuple(a[i] * a[j] for a in rows) for i in range(1, 4) for j in range(i, 4))
    return SettingRows(rows, columns, outer, tuple(map(sum, columns)),
                       tuple(map(tuple, np.linalg.pinv(stokes).tolist())),
                       tuple((a[0], (a[1] / a[0], a[2] / a[0], a[3] / a[0])) for a in rows))


def expected_counts_grid(g: np.ndarray, settings, detector: DetectorModel) -> np.ndarray:
    """Mean detected counts, dark counts included, of every (..., 2, 2)
    coherence matrix in g under every setting: shape (..., n_settings).

    The signal is a_k . S(G), the setting's Stokes row against the beam's
    Stokes vector, summed in the same order for every matrix and setting.
    """
    a = np.array([_stokes_row(x.qwp_angle, x.polarizer_angle) for x in settings]).T
    # an infinite or NaN mean fails the Poisson limit check
    with np.errstate(over="ignore", invalid="ignore"):
        s0, s1, s2, s3 = (x[..., None] for x in _stokes_grid(np.asarray(g)))
        signal = s0 * a[0] + s1 * a[1] + s2 * a[2] + s3 * a[3]
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


@dataclass(frozen=True)
class FitDiagnostics:
    """How a tomography fit reached its answer.

    path: "zero" (all counts zero), "exact" (four settings and a PSD linear
      inversion, which is the MLE), "interior" (a mixed optimum, more than
      four settings) or "boundary" (a pure optimum).
    newton_steps: iterations of the Newton fit over the Bloch ball.
    kkt_residual: a bound on the excess of the negative log-likelihood over
      its minimum, per count: the smaller of the conic KKT certificate and
      the gap to the saturated model mu = n.
    """

    path: str
    newton_steps: int = 0
    kkt_residual: float = 0.0


def mle_reconstruct(corrected_counts, settings) -> CoherenceMatrix:
    """Maximum-likelihood coherence matrix from background-corrected counts.

    The expected counts are linear in the Stokes vector of G, so the Poisson
    negative log-likelihood is convex over the PSD cone; its minimum is found
    exactly.  All-zero counts give the zero matrix.  With four settings the
    least-squares Stokes vector, from the cached pseudo-inverse and refined
    once by its residual, reproduces every count, and inside the cone it is
    the answer.  Else s0 is closed form for each Bloch vector v, |v| <= 1,
    and second-order steps over the Bloch ball find the optimum, mixed or
    pure: from the unpolarized state, or with four settings on the sphere
    from the least-squares direction.  Counts are scaled by a power of two
    for the fit; a subnormal total raises ParameterError, and a total or a
    fit beyond float range ConfigRangeError.
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
    data = _scalars(tuple(_angle_key(s) for s in settings))
    values = counts.tolist()
    if not max(values) > 0.0:
        return np.zeros((2, 2), dtype=complex), FitDiagnostics("zero")

    total = _counts_total(values)
    if total < sys.float_info.min:  # scaling the fit back could round G off the cone
        raise ParameterError("corrected counts are below float resolution: "
                             f"their total {total:g} is subnormal")
    exp = math.frexp(total)[1]
    n = [math.ldexp(c, -exp) for c in values]  # exact: a power of two
    x = None
    if len(settings) == 4:
        # the least-squares Stokes vector, refined once by its residual
        x = [sum(map(mul, row, n)) for row in data.inverse]
        residual = [c - dot(a, x) for a, c in zip(data.rows, n)]
        x = [xi + sum(map(mul, row, residual)) for xi, row in zip(x, data.inverse)]
    if x is not None and x[0] >= math.hypot(x[1], x[2], x[3]):
        path, steps, mu = "exact", 0, [dot(a, x) for a in data.rows]
        entries = ((x[0] + x[1]) / 2.0, (x[0] - x[1]) / 2.0, x[2] / 2.0, -x[3] / 2.0)
    else:
        # four settings start on the sphere from the inversion's direction,
        # where every c_k >= mu_k / |S| > 0; more from the unpolarized state
        entries, mu, steps, pure = ball_newton(data, n, None if x is None else x[1:])
        path = "boundary" if pure else "interior"
    try:
        gxx, gyy, re, im = (math.ldexp(v, exp) for v in entries)
        if not math.isfinite(gxx + gyy + 2.0 * math.hypot(re, im)):
            raise OverflowError
    except OverflowError:
        raise ConfigRangeError(f"the fit to the counts total {total:g} is beyond "
                               "float range") from None
    matrix = np.array([[gxx, complex(re, im)], [complex(re, -im), gyy]])
    return matrix, FitDiagnostics(path, steps, kkt_residual(data, n, mu, entries[0] + entries[1]))


@dataclass(frozen=True)
class TomographyRun:
    """One reconstruction: the fitted coherence matrix, its P and how the fit
    reached it."""

    reconstruction: CoherenceMatrix
    p_estimate: float
    diagnostics: FitDiagnostics


def reconstruct_run(settings, raw_counts, detector: DetectorModel) -> TomographyRun:
    """Correct, fit and summarize one set of raw counts.

    Raises ZeroTraceError when the corrected counts are all zero: the fit is
    the zero matrix, whose polarization is undefined.
    """
    matrix, diagnostics = _fit(background_correct(raw_counts, detector), settings)
    if diagnostics.path == "zero":
        raise ZeroTraceError("degree of polarization undefined at zero intensity: all "
                             "background-corrected counts are zero")
    recon = CoherenceMatrix(matrix)
    return TomographyRun(recon, degree_of_polarization(recon), diagnostics)


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
    except (OSError, UnicodeDecodeError) as exc:
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
