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
from operator import attrgetter, mul

import numpy as np

from .errors import ConfigError, IllPosedError, ParameterError, ZeroTraceError
from .newton import SettingRows, ball_newton, dot, kkt_residual
from .zwm import CoherenceMatrix, _stokes_grid, degree_of_polarization

# largest mean numpy's Poisson sampler accepts (its check in Generator.poisson)
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max)
_ZERO_COUNTS = ("degree of polarization undefined at zero intensity: all "
                "background-corrected counts are zero")


@dataclass(frozen=True)
class MeasurementSetting:
    """One analyzer configuration: QWP fast-axis and polarizer angles (rad)."""

    label: str
    qwp_angle: float
    polarizer_angle: float

    def __post_init__(self):
        angles = float(self.qwp_angle), float(self.polarizer_angle)
        if not all(math.isfinite(2.0 * x) for x in angles):
            raise ParameterError("analyzer angles must be finite, and so must their doubles")
        # the fit data's key, the angles' exact bits: 0.0 == -0.0, but their rows differ
        object.__setattr__(self, "_key", tuple(x.hex() for x in angles))


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


_angle_key = attrgetter("_key")


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
    passes = tuple((a[0], (a[1] / a[0], a[2] / a[0], a[3] / a[0])) for a in rows)
    # three antipodal pairs: pass directions +-e_i to rounding, as D's, whose S1
    # entry is 6e-17 (every a_0 is 1/2)
    where = {tuple(map(round, s)): k for k, (_, s) in enumerate(passes)
             if max(abs(x - round(x)) for x in s) <= 1e-15}
    pairs = tuple((where.get(e), where.get(tuple(-x for x in e)))
                  for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    return SettingRows(rows, columns, outer, tuple(map(sum, columns)),
                       tuple(map(tuple, np.linalg.pinv(stokes).tolist())), passes,
                       pairs if len(rows) == 6 and None not in sum(pairs, ()) else ())


def expected_counts_grid(g: np.ndarray, settings, detector: DetectorModel) -> np.ndarray:
    """Mean detected counts, dark counts included, of every (..., 2, 2)
    coherence matrix in g under every setting: shape (..., n_settings).

    The signal is a_k . S(G), the setting's Stokes row against the beam's
    Stokes vector, summed in the same order for every matrix and setting.
    Every caller draws counts from these means, so a mean beyond the Poisson
    sampler's limit, NaN and infinity included, raises ParameterError.
    """
    a = np.array([_stokes_row(x.qwp_angle, x.polarizer_angle) for x in settings]).T
    with np.errstate(over="ignore", invalid="ignore"):
        s0, s1, s2, s3 = (x[..., None] for x in _stokes_grid(np.asarray(g)))
        signal = s0 * a[0] + s1 * a[1] + s2 * a[2] + s3 * a[3]
        mu = detector.kappa * np.maximum(signal, 0.0) * detector.integration_time \
            + detector.dark_rate * detector.integration_time
    if not np.all(mu <= _POISSON_LAM_MAX):
        raise ParameterError(f"expected counts {np.max(mu):g} exceed the Poisson "
                             f"sampler's limit {_POISSON_LAM_MAX:g}")
    return mu


def simulate_counts(
    g: CoherenceMatrix, settings, detector: DetectorModel, seed
) -> np.ndarray:
    """Poisson draw of raw counts for every setting; deterministic per seed."""
    return np.random.default_rng(seed).poisson(expected_counts_grid(g.matrix, settings, detector))


def _checked_counts(counts, what: str) -> tuple[tuple, list[float]]:
    try:
        counts = np.asarray(counts, dtype=float)
    except OverflowError:
        raise ParameterError(f"{what} must be finite") from None
    values = counts.ravel().tolist()
    if not all(map(math.isfinite, values)):
        raise ParameterError(f"{what} must be finite")
    if values and min(values) < 0.0:
        raise ParameterError(f"{what} must be non-negative")
    return counts.shape, values


def _corrected(raw_counts, detector: DetectorModel) -> tuple[tuple, list[float]]:
    """The raw counts' shape and their values less the expected dark counts, clamped at zero."""
    shape, values = _checked_counts(raw_counts, "raw counts")
    dark = detector.dark_rate * detector.integration_time
    return shape, [max(0.0, c - dark) for c in values]


@dataclass(frozen=True)
class FitDiagnostics:
    """How a tomography fit reached its answer.

    path: "zero" (all counts zero), "exact" (four settings and a PSD linear
      inversion, which is the MLE), "interior" (a mixed optimum, more than
      four settings) or "boundary" (a pure optimum).
    newton_steps: steps of the Newton fit over the Bloch ball that built a
      model of the likelihood; 0 for an exact path or three antipodal pairs.
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
    least-squares Stokes vector, refined once by its residual, is the answer
    inside the cone.  Three antipodal pairs, such as H V D A R L, have a closed
    form (_pair_fit).  Else Newton steps over the Bloch ball find the optimum
    (newton.ball_newton).  Counts are scaled by a power of two for the fit; a
    subnormal total, or a total or a fit beyond float range, raises
    ParameterError.
    """
    return CoherenceMatrix(_fit(corrected_counts, settings)[0])


def _counts_total(values) -> float:
    try:
        return math.fsum(values)
    except OverflowError:
        raise ParameterError("the counts total is beyond float range") from None


def _fit(corrected_counts, settings) -> tuple[np.ndarray, FitDiagnostics]:
    """The fit behind mle_reconstruct."""
    return _fit_values(*_checked_counts(corrected_counts, "corrected counts"), settings)


def _pair_fit(data: SettingRows, n) -> tuple[tuple, list, int, bool]:
    """The optimum on three antipodal pairs, data.pairs, in closed form.  The pair
    (k, m) of Stokes axis i expects a0 s0 (1 +- r_i), so s0 = N / (6 a0) at every
    Bloch vector r and the likelihood splits into a convex term in each r_i.
    Inside the ball r_i = (n_k - n_m) / (n_k + n_m), or 0 where both are 0.  Else
    r_i is the root in [-1, 1] of 2 lam r^3 - (2 lam + N_i) r + D_i at the lam > 0
    where |r| = 1.  Each r_i is carried as its gap t = 1 - |r_i|, the root of the
    convex t b / (2 - t) - s - 2 lam t (1 - t), b >= s the pair's counts, which
    Newton reaches from t = 1, so a count expected opposite r keeps its
    precision.  Returns what ball_newton returns, with 0 steps."""
    sides = [(max(n[k], n[m]), min(n[k], n[m])) for k, m in data.pairs]

    def gap(lam, big, small):  # t, and -d (1 - t)^2 / d lam there
        t = 1.0 if lam else 2.0 * small / (big + small) if big else 1.0
        for _ in range(200):  # from above, Newton on a convex function stays above the root
            h = t * big / (2.0 - t) - small - 2.0 * lam * t * (1.0 - t)
            slope = 2.0 * big / (2.0 - t) ** 2 - 2.0 * lam * (1.0 - 2.0 * t)
            if not (lam and slope > 0.0 and h > 2.0**-52 * t * slope):
                break
            t = max(t - h / slope, 0.5 * t)  # halved where a rounded step passes 0
        return t, 4.0 * t * (1.0 - t) ** 2 / slope if t and slope > 0.0 else 0.0

    lam, lo, hi, last = 0.0, 0.0, 0.5 * math.hypot(*map(sum, sides)), math.inf
    for _ in range(100):
        ts, rates = zip(*(gap(lam, *side) for side in sides))
        i = ts.index(min(ts))  # |r|^2 - 1 = minor - q without cancellation
        minor, q = sum([(1.0 - t) ** 2 for t in ts[:i] + ts[i + 1:]]), ts[i] * (2.0 - ts[i])
        if abs(minor - q) <= 2.0**-50 or not lam and minor < q:
            break
        # lam below 2^-1000, which only counts below about 1e-300 of the total
        # set, is not resolved: the bracket starts there
        lo, hi = (max(lam, 2.0**-1000), hi) if minor > q else (lo, lam)
        # Newton on 1 / sqrt(minor) - 1 / sqrt(q), near linear in lam
        ratio = math.sqrt(minor / q) if minor and q else 0.0
        slope = sum(rates) - rates[i] + rates[i] * ratio * ratio * ratio
        step = 2.0 * minor * (ratio - 1.0) / slope if ratio and slope else math.inf
        # bisection of log lam, at most 20 binades at a time, where the step
        # leaves the bracket or does not halve the last one
        kept = lo < lam + step < hi and abs(step) <= 0.5 * last
        middle = max(2.0**-20 * hi, math.sqrt(lo) * math.sqrt(hi))
        lam, last = (lam + step, abs(step)) if kept else (middle, last)
        if not lo < lam < hi:  # the bracket holds no float but its ends
            break
    a0, s0, mu = data.passes[0][0], sum(n) / data.sigma[0], [0.0] * len(n)
    for (k, m), t in zip(data.pairs, ts):
        mu[k], mu[m] = (a0 * s0 * (2.0 - t), a0 * s0 * t)[::1 if n[k] >= n[m] else -1]
    (k1, m1), (k2, m2), (k3, m3) = data.pairs  # the settings along +S_i and -S_i
    return ((mu[k1] / (2.0 * a0), mu[m1] / (2.0 * a0), (mu[k2] - mu[m2]) / (4.0 * a0),
             (mu[m3] - mu[k3]) / (4.0 * a0)), mu, 0,
            minor >= q or lam > 0.0 and abs(minor - q) <= 2.0**-50)


def _fit_values(shape, values, settings) -> tuple[np.ndarray, FitDiagnostics]:
    """mle_reconstruct's fit to corrected counts, given as the values of an array
    of that shape, and its diagnostics."""
    if len(settings) < 4 or shape != (len(settings),):
        raise IllPosedError(
            f"need >= 4 settings with matching counts, got {len(settings)} "
            f"settings and counts of shape {shape}"
        )
    data = _scalars(tuple(map(_angle_key, settings)))
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
    elif data.pairs:
        entries, mu, steps, pure = _pair_fit(data, n)
        path = "boundary" if pure else "interior"
    else:
        # four settings start on the sphere from the inversion's direction,
        # where every c_k >= mu_k / |S| > 0; more from the unpolarized state
        entries, mu, steps, pure = ball_newton(data, n, None if x is None else x[1:])
        path = "boundary" if pure else "interior"
    try:
        gxx, gyy, re, im = [math.ldexp(v, exp) for v in entries]
        if not math.isfinite(gxx + gyy + 2.0 * math.hypot(re, im)):
            raise OverflowError
    except OverflowError:
        raise ParameterError(f"the fit to the counts total {total:g} is beyond "
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
    """Correct, fit and summarize one set of raw counts: checked and
    dark-corrected once by _corrected, as Python floats, and P from the fit's
    own entries by degree_of_polarization's scalar arithmetic.

    Raises ZeroTraceError when the corrected counts are all zero: the fit is
    the zero matrix, whose polarization is undefined.
    """
    matrix, diagnostics = _fit_values(*_corrected(raw_counts, detector), settings)
    if diagnostics.path == "zero":
        raise ZeroTraceError(_ZERO_COUNTS)
    recon = CoherenceMatrix(matrix)
    return TomographyRun(recon, degree_of_polarization(recon), diagnostics)


def four_setting_p(raw, detector: DetectorModel) -> np.ndarray:
    """reconstruct_run's P of each row of an (R, 4) array of raw DEFAULT_SETTINGS
    counts, bit for bit, by array arithmetic in _fit_values' order.  Where the
    inversion is not PSD the MLE is pure and P = 1: each Stokes row lies in the
    cone, so an interior optimum would fit mu = n, the inversion itself.  Row
    totals must be finite and normal."""
    data = _scalars(tuple(map(_angle_key, DEFAULT_SETTINGS)))
    inverse, rows = np.array(data.inverse), np.array(data.rows)
    c = np.reshape(_corrected(raw, detector)[1], (-1, 4))
    totals = [math.fsum(row) for row in c.tolist()]
    if not min(totals) > 0.0:
        raise ZeroTraceError(_ZERO_COUNTS)
    exp = np.frexp(totals)[1]
    n = np.ldexp(c, -exp[:, None])  # exact: a power of two
    x = sum(inverse[:, k] * n[:, k, None] for k in range(4))
    residual = n - sum(rows[:, k] * x[:, k, None] for k in range(4))
    x = x + sum(inverse[:, k] * residual[:, k, None] for k in range(4))
    g = np.ldexp(np.stack([x[:, 0] + x[:, 1], x[:, 0] - x[:, 1], x[:, 2], -x[:, 3]], -1) / 2.0,
                 exp[:, None])
    return np.array([min(math.hypot(xx - yy, 2.0 * abs(complex(re, im))) / (xx + yy), 1.0)
                     if x0 >= math.hypot(x1, x2, x3) else 1.0
                     for (x0, x1, x2, x3), (xx, yy, re, im) in zip(x.tolist(), g.tolist())])


# ---------------------------------------------------------------------------
# Counts table I/O
# ---------------------------------------------------------------------------

_COUNTS_HEADER = ("label", "qwp_angle_deg", "polarizer_angle_deg", "raw_count")


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
            raise ParameterError(f"non-finite angle in row {parts}", line=line_no)
        if count < 0:
            raise ConfigError(f"negative count {count}", line=line_no)
        try:
            float(count)
        except OverflowError:
            raise ParameterError(f"{len(count_s)}-digit count is beyond float "
                                 f"range", line=line_no) from None
        settings.append(
            MeasurementSetting(label, math.radians(qwp), math.radians(pol))
        )
        counts.append(count)
    if not settings:
        raise ConfigError("counts file has a header but no data rows")
    return tuple(settings), np.array(counts)
