"""Counting model, measurement settings and maximum-likelihood reconstruction."""

import math
import sys

import numpy as np
import pytest

from _oracles import SIX_SETTINGS, fresh_projector, jones_stokes_row, mle_reconstruct_optimizer
from polsim.errors import (
    ConfigError,
    ConfigRangeError,
    IllPosedError,
    ParameterError,
    ZeroTraceError,
)
from polsim.newton import dot, kkt_residual
from polsim.tomography import (
    DEFAULT_SETTINGS,
    DetectorModel,
    FitDiagnostics,
    MeasurementSetting,
    _angle_key,
    _fit,
    _scalars,
    _stokes_row,
    background_correct,
    expected_counts,
    mle_reconstruct,
    read_counts_table,
    reconstruct_run,
    simulate_counts,
    write_counts_table,
)
from polsim.zwm import (
    CoherenceMatrix,
    ZwmConfig,
    coherence_matrix,
    degree_of_polarization,
    stokes_parameters,
)

NO_DARK = DetectorModel(kappa=3333.0, dark_rate=0.0, integration_time=15.0)
UNIT = DetectorModel(kappa=1.0, dark_rate=0.0, integration_time=1.0)


def noiseless_counts(matrix, detector=NO_DARK, settings=DEFAULT_SETTINGS):
    g = CoherenceMatrix(matrix)
    return np.array([expected_counts(g, s, detector) for s in settings])


def bloch_matrix(p, n=(1.0, 0.0, 0.0)):
    """Trace-2 coherence matrix with polarization degree p along axis n."""
    nx, ny, nz = np.asarray(n) / np.linalg.norm(n)
    return np.array(
        [[1 + p * nx, p * ny - 1j * p * nz], [p * ny + 1j * p * nz, 1 - p * nx]]
    )


# ---------------------------------------------------------------------------
# settings and their Stokes rows
# ---------------------------------------------------------------------------

def row_projector(setting):
    """The projector a setting's Stokes row a stands for: Pi = a0 + a . sigma,
    so that tr(Pi G) = a . (S0, S1, S2, S3)."""
    a0, a1, a2, a3 = _stokes_row(setting.qwp_angle, setting.polarizer_angle)
    return np.array([[a0 + a1, a2 - 1j * a3], [a2 + 1j * a3, a0 - a1]])


def test_detector_model_guards():
    with pytest.raises(ParameterError):
        DetectorModel(kappa=-1.0)
    with pytest.raises(ParameterError):
        DetectorModel(dark_rate=-0.5)
    with pytest.raises(ParameterError):
        DetectorModel(integration_time=0.0)


def test_default_settings_projectors():
    by_label = {s.label: row_projector(s) for s in DEFAULT_SETTINGS}
    np.testing.assert_allclose(by_label["H"], [[1, 0], [0, 0]], atol=1e-15)
    np.testing.assert_allclose(by_label["V"], [[0, 0], [0, 1]], atol=1e-15)
    np.testing.assert_allclose(by_label["D"], [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
    np.testing.assert_allclose(
        by_label["R"], [[0.5, 0.5j], [-0.5j, 0.5]], atol=1e-12
    )


def test_projectors_are_rank_one_idempotent():
    for s in DEFAULT_SETTINGS:
        pi = row_projector(s)
        np.testing.assert_allclose(pi @ pi, pi, atol=1e-12)
        np.testing.assert_allclose(pi, pi.conj().T, atol=1e-12)
        assert np.trace(pi).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.matrix_rank(pi, tol=1e-10) == 1


def test_default_settings_are_informationally_complete():
    # Gram determinant of the four projectors, asserted once
    pis = [row_projector(s) for s in DEFAULT_SETTINGS]
    gram = np.array([[np.trace(a @ b).real for b in pis] for a in pis])
    assert abs(np.linalg.det(gram)) > 0.05


def test_cached_projectors_are_read_only():
    # the fit's cache holds each setting's projector as its Stokes row
    keys = tuple(map(_angle_key, DEFAULT_SETTINGS))
    data = _scalars(keys)
    assert data is _scalars(keys)

    def frozen(value):  # tuples of floats all the way down
        return isinstance(value, float) or (isinstance(value, tuple)
                                            and all(map(frozen, value)))

    assert frozen(data)
    with pytest.raises(AttributeError):
        data.inverse = ()


def test_degenerate_settings_raise_on_every_call():
    degenerate = (DEFAULT_SETTINGS[0],) * 3 + (DEFAULT_SETTINGS[1],)
    for _ in range(3):
        with pytest.raises(IllPosedError):
            _scalars(tuple(map(_angle_key, degenerate)))
        with pytest.raises(IllPosedError):
            mle_reconstruct(np.ones(4), degenerate)


def test_stokes_rows_match_the_jones_oracle():
    """The closed-form rows against the Stokes form of the Jones projector
    J_qwp^dagger Pi_pol J_qwp, on 3000 random angle pairs at each scale up to
    1e300 rad and at the largest angles a setting takes, +-max / 2, whose
    doubles are finite: every row is finite, agrees to 1e-15 and is a pure
    state, |a_vec| = a0.  The next larger angle is refused.  The four +-0
    pairs give the fit's cached rows bit for bit as computed afresh, each
    pair in its own cache entry: 0.0 == -0.0, so a cache keyed on equal
    angles would hand one setting the other's signed zeros."""
    rng = np.random.default_rng(41)
    half = sys.float_info.max / 2.0  # 2 * half is finite
    angles = (half, math.nextafter(half, 0.0), -half, 0.0, 1.0)
    extremes = [(q, p) for q in angles for p in angles]
    for q, p in ((math.nextafter(half, math.inf), 0.0), (0.0, -math.nextafter(half, math.inf))):
        with pytest.raises(ParameterError):
            MeasurementSetting("x", q, p)
    for scale in (1.0, 1e3, 1e8, 1e300):
        pairs = [*map(tuple, rng.uniform(-scale, scale, (3000, 2)).tolist()), *extremes]
        rows = np.array([_stokes_row(q, p) for q, p in pairs])
        assert np.all(np.isfinite(rows))
        oracle = np.array([jones_stokes_row(MeasurementSetting("x", q, p)) for q, p in pairs])
        assert np.abs(rows - oracle).max() <= 1e-15, scale
        assert np.abs(np.linalg.norm(rows[:, 1:], axis=1) - rows[:, 0]).max() <= 1e-15, scale
    pairs = [(0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0)]
    entries = [_scalars(tuple(map(_angle_key, (MeasurementSetting("H", q, p),
                                                *DEFAULT_SETTINGS[1:]))))
               for q, p in pairs]
    assert len({id(data) for data in entries}) == 4
    for (q, p), data in zip(pairs, entries):
        assert np.array(data.rows[0]).tobytes() == np.array(_stokes_row(q, p)).tobytes()
    assert entries[0].rows[0] == entries[1].rows[0]  # equal as floats,
    assert (np.array(entries[0].rows[0]).tobytes()  # but not in their bits
            != np.array(entries[1].rows[0]).tobytes())


def test_counts_table_negative_zero_angle_reaches_the_projector(tmp_path):
    """A -0 angle in a counts table keeps its sign up to the setting's
    Stokes row, whose signed zeros differ from the +0 angle's."""
    path = tmp_path / "counts.txt"
    path.write_text("label  qwp_angle_deg  polarizer_angle_deg  raw_count\n"
                    "H  0.000000  -0.000000  5\n")
    (setting,), _ = read_counts_table(path)
    assert math.copysign(1.0, setting.polarizer_angle) == -1.0
    assert _angle_key(setting) == ((0.0).hex(), (-0.0).hex())
    row = np.array(_stokes_row(setting.qwp_angle, setting.polarizer_angle)).tobytes()
    assert row != np.array(_stokes_row(0.0, 0.0)).tobytes()


# ---------------------------------------------------------------------------
# counting model
# ---------------------------------------------------------------------------

def test_expected_counts_pinned_values():
    dark = DetectorModel(kappa=3333.0, dark_rate=2.0, integration_time=15.0)
    zero = CoherenceMatrix(np.zeros((2, 2)))
    assert expected_counts(zero, DEFAULT_SETTINGS[0], dark) == pytest.approx(30.0)
    horizontal = CoherenceMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert expected_counts(horizontal, DEFAULT_SETTINGS[1], NO_DARK) == pytest.approx(
        0.0, abs=1e-10
    )
    flat = DetectorModel(kappa=1000.0, dark_rate=0.0, integration_time=15.0)
    for s in DEFAULT_SETTINGS:
        got = expected_counts(CoherenceMatrix(np.eye(2)), s, flat)
        assert got == pytest.approx(15000.0, rel=1e-12)


def test_simulate_counts_zero_mean_and_determinism():
    zero = CoherenceMatrix(np.zeros((2, 2)))
    counts = simulate_counts(zero, DEFAULT_SETTINGS, NO_DARK, 5)
    assert np.array_equal(counts, np.zeros(4))
    g = CoherenceMatrix(bloch_matrix(0.5))
    first = simulate_counts(g, DEFAULT_SETTINGS, NO_DARK, 123)
    second = simulate_counts(g, DEFAULT_SETTINGS, NO_DARK, 123)
    assert np.array_equal(first, second)
    assert not np.array_equal(first, simulate_counts(g, DEFAULT_SETTINGS, NO_DARK, 124))


def test_simulated_counts_stay_within_poisson_tails():
    """mu = 1e4 per setting; every one of 1000 draws within mu +- 5 sqrt(mu)."""
    det = DetectorModel(kappa=2000.0, dark_rate=0.0, integration_time=10.0)
    g = CoherenceMatrix(np.eye(2) / 2.0)  # tr(Pi G) = 1/2 for every setting
    mu = 1e4
    draws = np.concatenate(
        [simulate_counts(g, DEFAULT_SETTINGS, det, (60, k)) for k in range(250)]
    )
    assert draws.shape == (1000,)
    assert np.all(np.abs(draws - mu) <= 5 * math.sqrt(mu))


def test_background_correct_pinned_values():
    det = DetectorModel(kappa=1.0, dark_rate=2.0, integration_time=15.0)
    np.testing.assert_allclose(background_correct([100.0], det), [70.0])
    np.testing.assert_allclose(background_correct([10.0], det), [0.0])
    np.testing.assert_allclose(background_correct([30.0], det), [0.0])
    with pytest.raises(ParameterError):
        background_correct([-1.0], det)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 10**400])
def test_non_finite_counts_are_rejected_before_any_fit(bad):
    det = DetectorModel(kappa=1.0, dark_rate=2.0, integration_time=15.0)
    with pytest.raises(ParameterError):
        background_correct([100.0, bad, 5.0, 7.0], det)
    with pytest.raises(ParameterError):
        mle_reconstruct([100.0, bad, 5.0, 7.0], DEFAULT_SETTINGS)


# ---------------------------------------------------------------------------
# maximum-likelihood reconstruction
# ---------------------------------------------------------------------------

def test_mle_noiseless_fully_polarized():
    counts = noiseless_counts(np.array([[1.0, 0.0], [0.0, 0.0]]))
    rec = mle_reconstruct(counts, DEFAULT_SETTINGS)
    assert degree_of_polarization(rec) == pytest.approx(1.0, abs=1e-6)


def test_mle_noiseless_unpolarized():
    counts = noiseless_counts(np.eye(2) / 2.0)
    rec = mle_reconstruct(counts, DEFAULT_SETTINGS)
    assert degree_of_polarization(rec) == pytest.approx(0.0, abs=1e-6)


def test_mle_noiseless_interferometer_point():
    """End to end: the |T| = 0.5, gamma = 60 deg operating point has P = 0.8."""
    cfg = ZwmConfig(t=0.5, gamma=math.pi / 3)
    g = coherence_matrix(cfg)
    scaled = CoherenceMatrix(g.matrix * (5e4 / np.trace(g.matrix).real))
    counts = noiseless_counts(scaled.matrix)
    rec = mle_reconstruct(counts, DEFAULT_SETTINGS)
    assert degree_of_polarization(rec) == pytest.approx(0.8, abs=1e-4)


def test_mle_recovers_full_matrix_scale_included():
    # the fit lives in count units: mu_i = tr(Pi_i G), no detector factors
    rng = np.random.default_rng(21)
    for _ in range(5):
        p = rng.uniform(0, 1)
        axis = rng.normal(size=3)
        g_true = 2.5e4 * bloch_matrix(p, axis)
        counts = np.array(
            [np.trace(fresh_projector(s) @ g_true).real
             for s in DEFAULT_SETTINGS]
        )
        rec = mle_reconstruct(counts, DEFAULT_SETTINGS)
        np.testing.assert_allclose(rec.matrix, g_true, rtol=1e-5, atol=1e-4 * 5e4)


def test_mle_all_zero_counts_returns_zero_matrix():
    rec = mle_reconstruct(np.zeros(4), DEFAULT_SETTINGS)
    assert np.array_equal(rec.matrix, np.zeros((2, 2)))


def test_mle_ill_posed_inputs():
    with pytest.raises(IllPosedError):
        mle_reconstruct(np.ones(3), DEFAULT_SETTINGS[:3])
    with pytest.raises(IllPosedError):
        mle_reconstruct(np.ones(3), DEFAULT_SETTINGS)  # length mismatch
    degenerate = (DEFAULT_SETTINGS[0],) * 4
    with pytest.raises(IllPosedError):
        mle_reconstruct(np.ones(4), degenerate)
    with pytest.raises(IllPosedError):
        mle_reconstruct(5.0, DEFAULT_SETTINGS)  # a scalar, not one count per setting
    with pytest.raises(ParameterError):
        mle_reconstruct(np.array([1.0, -2.0, 3.0, 4.0]), DEFAULT_SETTINGS)
    # a subnormal total is refused before any fit, and the smallest normal one
    # is fitted; a detector's corrected counts are 0 or at least 2^-53
    for counts in ([5e-324, 0, 0, 0], [5e-324, 5e-324, 0, 0], [0, 0, 2.2e-313, 2.2e-313],
                   [math.nextafter(sys.float_info.min, 0.0), 0, 0, 0]):
        with pytest.raises(ParameterError, match="below float resolution"):
            mle_reconstruct(counts, DEFAULT_SETTINGS)
    smallest = mle_reconstruct([sys.float_info.min, 0, 0, 0], DEFAULT_SETTINGS)
    assert np.trace(smallest.matrix).real > 0.0


def test_mle_reconstructions_are_psd_under_noise():
    rng = np.random.default_rng(22)
    for trial in range(20):
        p = rng.uniform(0, 1)
        g_true = CoherenceMatrix(2.5e4 * bloch_matrix(p, rng.normal(size=3)))
        raw = simulate_counts(g_true, DEFAULT_SETTINGS, NO_DARK, (77, trial))
        rec = mle_reconstruct(np.asarray(raw, dtype=float), DEFAULT_SETTINGS)
        assert min(np.linalg.eigvalsh(rec.matrix)) >= -1e-9 * np.trace(rec.matrix).real


def _independent_nll(matrix, counts, settings):
    mus = []
    for s in settings:
        pi = fresh_projector(s)
        mus.append(max(float(np.trace(pi @ matrix).real), 1e-300))
    mus = np.array(mus)
    return float(np.sum(mus - counts * np.log(mus)))


def test_mle_beats_projected_linear_inversion():
    """The optimizer must never land below its own initializer."""
    rng = np.random.default_rng(23)
    pis = [fresh_projector(s) for s in DEFAULT_SETTINGS]
    design = np.array(
        [[pi[0, 0].real, pi[1, 1].real, 2 * pi[0, 1].real, 2 * pi[0, 1].imag]
         for pi in pis]
    )
    for trial in range(10):
        g_true = CoherenceMatrix(2.5e4 * bloch_matrix(rng.uniform(0, 1), rng.normal(size=3)))
        raw = np.asarray(
            simulate_counts(g_true, DEFAULT_SETTINGS, NO_DARK, (88, trial)), dtype=float
        )
        sol, *_ = np.linalg.lstsq(design, raw, rcond=None)
        lin = np.array([[sol[0], sol[2] + 1j * sol[3]], [sol[2] - 1j * sol[3], sol[1]]])
        vals, vecs = np.linalg.eigh(lin)
        lin_psd = (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
        rec = mle_reconstruct(raw, DEFAULT_SETTINGS)
        fit_nll = _independent_nll(rec.matrix, raw, DEFAULT_SETTINGS)
        init_nll = _independent_nll(lin_psd, raw, DEFAULT_SETTINGS)
        assert fit_nll <= init_nll + 1e-9 * abs(init_nll)


def test_mle_refinement_grid_postcondition():
    """No point on a +-{1,2}-step grid around the fit improves the
    log-likelihood by more than 1e-6."""
    rng = np.random.default_rng(24)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    for trial in range(5):
        g_true = CoherenceMatrix(2.5e4 * bloch_matrix(rng.uniform(0, 1), rng.normal(size=3)))
        raw = np.asarray(
            simulate_counts(g_true, DEFAULT_SETTINGS, NO_DARK, (99, trial)), dtype=float
        )
        rec = mle_reconstruct(raw, DEFAULT_SETTINGS)
        # rebuild the triangular-factor parameters from the public matrix
        t0 = math.sqrt(max(rec.matrix[0, 0].real, 0.0))
        t2 = rec.matrix[1, 0].real / t0 if t0 else 0.0
        t3 = rec.matrix[1, 0].imag / t0 if t0 else 0.0
        t1 = math.sqrt(max(rec.matrix[1, 1].real - t2 * t2 - t3 * t3, 0.0))
        t = np.array([t0, t1, t2, t3])
        fit_nll = _independent_nll(rec.matrix, raw, DEFAULT_SETTINGS)
        steps = np.maximum(1e-4 * np.abs(t), 1e-6 * math.sqrt(raw.sum()))
        axes = [t[k] + offsets * steps[k] for k in range(4)]
        best = math.inf
        for cand in np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4):
            m = np.array(
                [[cand[0] ** 2, cand[0] * (cand[2] - 1j * cand[3])],
                 [cand[0] * (cand[2] + 1j * cand[3]),
                  cand[1] ** 2 + cand[2] ** 2 + cand[3] ** 2]]
            )
            best = min(best, _independent_nll(m, raw, DEFAULT_SETTINGS))
        assert fit_nll <= best + 1e-6


def poisson_table(rng, settings, p, scale, seed):
    """Counts with mean tr(Pi G) for a trace-2 G of polarization p, times scale."""
    g = CoherenceMatrix(scale * bloch_matrix(p, rng.normal(size=3)))
    return simulate_counts(g, settings, UNIT, seed).astype(float)


def inversion_is_psd(counts, settings):
    pis = [fresh_projector(s) for s in settings]
    design = [[pi[0, 0].real, pi[1, 1].real, 2 * pi[0, 1].real, 2 * pi[0, 1].imag]
              for pi in pis]
    sol, *_ = np.linalg.lstsq(np.array(design), counts, rcond=None)
    g = np.array([[sol[0], sol[2] + 1j * sol[3]], [sol[2] - 1j * sol[3], sol[1]]])
    return bool(np.linalg.eigh(g)[0][0] >= 0.0)


# KKT certificate bound for fits of count tables a detector could produce
CERTIFICATE_BOUND = 1e-10


def excess_nll(matrix, counts, settings):
    """Poisson negative log-likelihood above the saturated optimum mu = n,
    summed as n (r - 1 - log r) over counts > 0 to stay accurate at 1e6
    counts, plus mu where the count is zero."""
    mu = np.array([np.trace(fresh_projector(s) @ matrix).real for s in settings])
    pos = counts > 0
    r = mu[pos] / counts[pos]
    return float(np.sum(counts[pos] * (r - 1.0 - np.log(r))) + np.sum(mu[~pos]))


def assert_at_least_as_likely(matrix, oracle, counts, settings):
    """The fit's excess NLL is at most the optimizer oracle's, up to 1e-12 of
    the NLL itself."""
    mu = np.array([np.trace(fresh_projector(s) @ oracle).real for s in settings])
    pos = counts > 0
    nll = float(mu.sum() - counts[pos] @ np.log(mu[pos]))
    assert excess_nll(matrix, counts, settings) <= (
        excess_nll(oracle, counts, settings) + 1e-12 * abs(nll))


@pytest.mark.needs_scipy
def test_exact_path_matches_the_optimizer_oracle():
    """400 four-setting tables at the sweep's count scale (up to 1e5 per
    setting): mixed and pure targets, and all-zero tables.  An exact fit
    reproduces every count to 1e-13 of the total, is at least as likely as
    the optimizer-only fit and differs from it by at most 1e-12 of the
    total; a boundary fit is at least as likely as the optimizer's and
    certifies its optimality."""
    rng = np.random.default_rng(31)
    paths = {"exact": 0, "boundary": 0, "zero": 0}
    for trial in range(400):
        if trial % 50 == 0:
            counts = np.zeros(4)
        else:
            p = 1.0 if trial % 4 == 0 else rng.uniform(0.0, 1.0)
            counts = poisson_table(rng, DEFAULT_SETTINGS, p,
                                   10 ** rng.uniform(0.5, 5.0), (31, trial))
        matrix, diag = _fit(counts, DEFAULT_SETTINGS)
        paths[diag.path] += 1
        oracle = mle_reconstruct_optimizer(counts, DEFAULT_SETTINGS).matrix
        if np.any(counts > 0):
            assert diag.path == ("exact" if inversion_is_psd(counts, DEFAULT_SETTINGS)
                                 else "boundary")
        if diag.path == "boundary":
            assert_at_least_as_likely(matrix, oracle, counts, DEFAULT_SETTINGS)
            assert diag.kkt_residual <= CERTIFICATE_BOUND
        elif diag.path == "exact":
            mu = np.array([np.trace(fresh_projector(s) @ matrix).real
                           for s in DEFAULT_SETTINGS])
            assert np.abs(mu - counts).max() <= 1e-13 * counts.sum()
            assert_at_least_as_likely(matrix, oracle, counts, DEFAULT_SETTINGS)
            assert np.abs(matrix - oracle).max() <= 1e-12 * counts.sum()
        else:
            assert np.array_equal(matrix, oracle)
    assert paths["zero"] == 8
    assert paths["exact"] >= 200 and paths["boundary"] >= 50


@pytest.mark.needs_scipy
@pytest.mark.parametrize("counts", [
    [1.0, 1.0, 0.0, 1.0],          # pure, orthogonal to D: on the PSD boundary
    [4.0, 4.0, 0.0, 4.0],
    [386791.0, 1395320.0, 269973.0, 498743.0],  # P = 0.99997 at 1e6 counts
])
def test_exact_path_reproduces_every_count(counts):
    """Tables where the exact path and the optimizer-only fit differ: the
    exact path fits every count, and the two agree to 1e-7 of the total.
    Where every count is positive, the optimizer stopped short of the
    saturated likelihood the exact path reaches."""
    counts = np.array(counts)
    matrix, diag = _fit(counts, DEFAULT_SETTINGS)
    assert diag.path == "exact" and diag.newton_steps == 0
    assert diag.kkt_residual <= CERTIFICATE_BOUND
    mu = [np.trace(fresh_projector(s) @ matrix).real for s in DEFAULT_SETTINGS]
    np.testing.assert_allclose(mu, counts, rtol=1e-13, atol=1e-13 * counts.sum())
    oracle = mle_reconstruct_optimizer(counts, DEFAULT_SETTINGS).matrix
    assert not np.array_equal(matrix, oracle)
    np.testing.assert_allclose(matrix, oracle, rtol=0, atol=1e-7 * counts.sum())
    if np.all(counts > 0):
        assert excess_nll(matrix, counts, DEFAULT_SETTINGS) < 1e-20
        assert excess_nll(oracle, counts, DEFAULT_SETTINGS) > 1e-12


@pytest.mark.needs_scipy
def test_pure_non_psd_and_six_setting_fits_take_a_newton_path():
    rng = np.random.default_rng(32)
    pure_non_psd = 0
    for trial in range(60):
        counts = poisson_table(rng, DEFAULT_SETTINGS, 1.0, 2.5e4, (32, trial))
        if inversion_is_psd(counts, DEFAULT_SETTINGS):
            continue
        pure_non_psd += 1
        matrix, diag = _fit(counts, DEFAULT_SETTINGS)
        assert diag.path == "boundary" and diag.newton_steps >= 1
        assert diag.kkt_residual <= CERTIFICATE_BOUND
        oracle = mle_reconstruct_optimizer(counts, DEFAULT_SETTINGS).matrix
        assert_at_least_as_likely(matrix, oracle, counts, DEFAULT_SETTINGS)
    assert pure_non_psd >= 20
    for trial in range(30):
        p = (1.0, 0.0, rng.uniform(0.0, 1.0))[trial % 3]
        counts = poisson_table(rng, SIX_SETTINGS, p, 2.5e4, (33, trial))
        if trial < 3:  # noiseless: a PSD inversion that fits every count
            counts = np.array([np.trace(fresh_projector(s) @ (2.5e4 * bloch_matrix(p))).real
                               for s in SIX_SETTINGS])
            assert inversion_is_psd(counts, SIX_SETTINGS)
        matrix, diag = _fit(counts, SIX_SETTINGS)
        assert diag.path in ("interior", "boundary") and diag.newton_steps >= 1
        assert diag.kkt_residual <= CERTIFICATE_BOUND
        oracle = mle_reconstruct_optimizer(counts, SIX_SETTINGS).matrix
        assert_at_least_as_likely(matrix, oracle, counts, SIX_SETTINGS)
    assert _fit(np.zeros(6), SIX_SETTINGS)[1] == FitDiagnostics("zero")


@pytest.mark.parametrize("tilt", [1e-17, 2e-17, 3e-17, 4e-17])
def test_certificate_holds_at_pure_points_the_likelihood_cannot_tell_apart(tilt):
    """The noiseless H V D A R L table of the pure H state tilted 6e-17 toward
    -S3 counts 1.84e-28 at V, of 1.5e5: the tilt times the rounding-level S3
    entry (-6.1e-17) of the V row.  Pure points tilted 1e-17 to 4e-17 expect
    a count of that size there, so every likelihood agrees to 1e-32 per
    count, but the conic bound weighs that count by n / mu and reads 0.1 to
    2.  The saturated gap keeps the certificate at its size."""
    data = _scalars(tuple(map(_angle_key, SIX_SETTINGS)))
    table = stokes_parameters(CoherenceMatrix(2.5e4 * bloch_matrix(1.0, (1.0, 0.0, -6e-17))))
    counts = [dot(a, table) for a in data.rows]
    exp = math.frexp(math.fsum(counts))[1]
    n = [math.ldexp(c, -exp) for c in counts]
    v = (1.0, 0.0, -tilt)
    s0 = sum(n) / sum(a[0] + a[1] * v[0] + a[2] * v[1] + a[3] * v[2] for a in data.rows)
    mu = [dot(a, (s0, *(s0 * vi for vi in v))) for a in data.rows]
    y = np.array(data.rows).T @ (1.0 - np.array(n) / np.array(mu))
    conic = s0 * max(np.linalg.norm(y[1:]) - y[0], 0.0) + abs(sum(mu) - sum(n))
    assert 0.1 < conic / sum(n) < 2.0
    assert 0.0 <= kkt_residual(data, n, mu, s0) <= 2e-33


@pytest.mark.needs_scipy
def test_newton_fits_are_at_least_as_likely_as_the_optimizer():
    """2016 seeded tables, four and six settings: pure, near-pure (1 - P down
    to 1e-6) and mixed targets, 1 to 1e8 counts per unit trace, and a count
    zeroed in every seventh table.  Every fit is at least as likely as the
    optimizer oracle's and carries a certificate below the bound."""
    rng = np.random.default_rng(34)
    paths = {"exact": 0, "interior": 0, "boundary": 0}
    for trial in range(2016):
        setting_set = (DEFAULT_SETTINGS, SIX_SETTINGS)[trial % 2]
        p = (1.0, 1.0 - 10 ** rng.uniform(-6, -1), rng.uniform(0.0, 1.0))[trial // 2 % 3]
        counts = poisson_table(rng, setting_set, p, 10 ** rng.uniform(0, 8), (34, trial))
        if trial % 7 == 0:
            counts[rng.integers(len(setting_set))] = 0.0
        if not np.any(counts > 0):
            continue
        matrix, diag = _fit(counts, setting_set)
        paths[diag.path] += 1
        assert diag.kkt_residual <= CERTIFICATE_BOUND
        oracle = mle_reconstruct_optimizer(counts, setting_set).matrix
        assert_at_least_as_likely(matrix, oracle, counts, setting_set)
    assert sum(paths.values()) >= 2000 and min(paths.values()) >= 300


def random_four_settings(rng, crowded):
    """Four settings at random angles; crowded ones lie within 1e-5 to 0.1 rad
    of one setting, so their pass directions nearly coincide."""
    angles = rng.uniform(0.0, math.pi, (4, 2))
    if crowded:
        angles = angles[0] + 10 ** rng.uniform(-5, -1) * rng.uniform(-1, 1, (4, 2))
    return tuple(MeasurementSetting(str(k), q, p) for k, (q, p) in enumerate(angles))


def near_cone_tables(rng, settings):
    """Pure-state means at 1e2 to 1e12 counts, on the cone up to rounding,
    and the same means with one count moved 1 to 4 ulps up or down."""
    tables = []
    for scale in 10.0 ** np.arange(2, 13):
        g = scale * bloch_matrix(1.0, rng.normal(size=3)) / 2.0
        means = np.maximum([np.trace(fresh_projector(s) @ g).real for s in settings], 0.0)
        nudged = means.copy()
        k = rng.integers(4)
        nudged[k] += rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) * np.spacing(means[k])
        tables += [means, nudged]
    return tables


def test_four_setting_path_is_exact_exactly_when_the_inversion_is_psd():
    """Four-setting fits on pure-state means at 1e2 to 1e12 counts, those
    means a few ulps inside or outside the cone, and Poisson tables, under
    H V D R and random four-setting sets, crowded ones included (condition
    numbers from 3.2 to above 1e8).  On a Poisson table the path is exact
    exactly when the least-squares inversion is PSD, and a Newton fit stops
    before the step cap.  On the cone, where both paths reach the MLE,
    either may be taken, and the fit's excess negative log-likelihood is at
    most 1e-20 per count.  Every exact fit, and every fit on settings with
    condition number below 1e6, certifies its optimality, and
    reconstruct_run's P of each table equals the table's own fit bit for
    bit."""
    rng = np.random.default_rng(38)
    paths = {"exact": 0, "boundary": 0}
    near = {True: 0, False: 0}
    conds = []
    for trial in range(40):
        settings = random_four_settings(rng, trial % 2 == 1) if trial else DEFAULT_SETTINGS
        try:
            cond = np.linalg.cond(_scalars(tuple(map(_angle_key, settings))).rows)
        except IllPosedError:
            continue
        conds.append(cond)
        cone = near_cone_tables(rng, settings)
        tables = cone + [poisson_table(rng, settings, p, 10 ** rng.uniform(1, 8), (38, trial, k))
                         for k, p in enumerate([1.0, 1.0, 1.0, 0.9, 0.5, 0.0])]
        for k, counts in enumerate(tables):
            matrix, diag = _fit(counts, settings)
            assert (reconstruct_run(settings, counts, UNIT).p_estimate
                    == degree_of_polarization(CoherenceMatrix(matrix))), (trial, k)
            psd = inversion_is_psd(counts, settings)
            paths[diag.path] += 1
            if k < len(cone):
                near[psd] += 1
                assert excess_nll(matrix, counts, settings) <= 1e-20 * counts.sum(), (trial, k)
            else:
                assert diag.path == ("exact" if psd else "boundary"), (trial, k)
                assert diag.newton_steps < 100, (trial, k)
            if cond < 1e6 or diag.path == "exact":
                assert diag.kkt_residual <= CERTIFICATE_BOUND, (trial, k)
    assert len(conds) >= 35 and max(conds) > 1e8
    assert min(paths.values()) >= 300 and min(near.values()) >= 300


@pytest.mark.parametrize("counts, unseen", [
    ([2.0, 2.0, 0.0, 0.0, 1.0, 8.0], 2),
    # the Hessian's S1 eigenvalue is zero only up to rounding
    ([0.0, 0.0, 14291.0, 22434.0, 154805.0, 560932.0], 1),
], ids=["no-S2", "no-S1"])
def test_a_direction_no_count_sees_stays_unpolarized(counts, unseen):
    """H V D A R L counts where one pair counts nothing, so no count sees
    its Stokes component and every value of it inside the cone is equally
    likely.  The fit keeps it 0, the least polarized of these optima, and
    each pair that counted gives its component's fraction of S0, as
    (n+ - n-) / (n+ + n-): at 2 2 0 0 1 8, P = 7/9 = |S3| / S0."""
    matrix, diag = _fit(np.array(counts), SIX_SETTINGS)
    s = stokes_parameters(CoherenceMatrix(matrix))
    assert diag.path == "interior" and diag.kkt_residual <= CERTIFICATE_BOUND
    assert abs(s[unseen]) <= 1e-12 * s[0]
    fractions = [(a - b) / (a + b) if a + b else 0.0 for a, b in zip(counts[::2], counts[1::2])]
    assert degree_of_polarization(CoherenceMatrix(matrix)) == pytest.approx(
        math.hypot(*fractions), abs=1e-12)


@pytest.mark.parametrize("counts", [
    [39872.0, 10131.0, 34990.0, 15006.0, 25114.0, 24903.0],  # the pinned tomo table
    [9e-6, 1e-6, 6e-6, 4e-6, 2e-6, 8e-6],
    [0.0, 0.0, 1.0, 1.0, 1.0, 4.0],
    [5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
])
def test_six_setting_fits_are_scale_stationary(counts):
    """H V D A R L measure every Stokes component twice with opposite signs,
    so sum mu = 3 tr G, and the maximum of the likelihood over the scale of G
    puts sum mu at the total count: tr G = N / 3."""
    counts = np.array(counts)
    matrix, _ = _fit(counts, SIX_SETTINGS)
    assert np.trace(matrix).real == pytest.approx(counts.sum() / 3.0, rel=1e-12, abs=0.0)


def test_fit_is_equivariant_under_powers_of_two():
    """Scaling every count by 2^k scales the fit by 2^k exactly, on every path."""
    rng = np.random.default_rng(35)
    tables = []
    for trial in range(24):
        setting_set = (DEFAULT_SETTINGS, SIX_SETTINGS)[trial % 2]
        p = (1.0, rng.uniform(0.0, 1.0))[trial // 2 % 2]
        tables.append((setting_set, poisson_table(rng, setting_set, p, 10 ** rng.uniform(0, 6),
                                                  (35, trial))))
    # pure and orthogonal to D: on the cone edge, where the exact path ends
    tables.append((DEFAULT_SETTINGS, np.array([4.0, 4.0, 0.0, 4.0])))
    for setting_set, counts in tables:
        matrix, diag = _fit(counts, setting_set)
        for k in range(-40, 41):
            scaled, scaled_diag = _fit(2.0**k * counts, setting_set)
            assert np.array_equal(scaled, 2.0**k * matrix) and scaled_diag == diag


def test_fits_beyond_float_range_are_range_errors():
    """Crowded settings turn counts with a total below the float limit into a
    fit beyond it: on the exact, interior and boundary paths alike that is a
    ConfigRangeError, not an OverflowError.  The same counts scaled down show
    which path each table takes."""
    rng = np.random.default_rng(39)
    paths = set()
    for k, p in [(4, 1.0 - 1e-4), (6, 1.0 - 1e-4), (4, None), (6, None)]:
        angles = rng.uniform(0.0, math.pi, 2) + 1e-3 * rng.uniform(-1, 1, (k, 2))
        settings = tuple(MeasurementSetting(str(i), q, r) for i, (q, r) in enumerate(angles))
        if p is None:
            counts = rng.uniform(0.0, 1.0, k)
        else:  # nearly pure, opposite the first setting's pass direction
            pi = fresh_projector(settings[0])
            g = bloch_matrix(p, [pi[1, 1].real - pi[0, 0].real, -2 * pi[0, 1].real,
                                 2 * pi[0, 1].imag])
            counts = np.array([np.trace(fresh_projector(s) @ g).real for s in settings])
        paths.add(_fit(counts, settings)[1].path)
        with pytest.raises(ConfigRangeError, match="beyond float range"):
            _fit(np.ldexp(counts, 1020 - math.frexp(counts.sum())[1]), settings)
    assert paths == {"exact", "interior", "boundary"}


# ---------------------------------------------------------------------------
# run bundling
# ---------------------------------------------------------------------------

def test_reconstruct_run_corrects_background():
    det = DetectorModel(kappa=3333.0, dark_rate=20.0, integration_time=15.0)
    g_true = CoherenceMatrix(bloch_matrix(0.6))
    mu = [expected_counts(g_true, s, det) for s in DEFAULT_SETTINGS]
    run = reconstruct_run(DEFAULT_SETTINGS, mu, det)
    np.testing.assert_allclose(
        background_correct(mu, det), np.asarray(mu) - 300.0, rtol=1e-12
    )
    assert run.p_estimate == pytest.approx(0.6, abs=1e-5)
    assert run.diagnostics.path == "exact"


def test_reconstruct_run_flags_zero_trace():
    det = DetectorModel(kappa=3333.0, dark_rate=20.0, integration_time=15.0)
    with pytest.raises(ZeroTraceError, match="all background-corrected counts are zero"):
        reconstruct_run(DEFAULT_SETTINGS, [300.0] * 4, det)
    assert _fit(background_correct([300.0] * 4, det), DEFAULT_SETTINGS)[1] == FitDiagnostics("zero")


# ---------------------------------------------------------------------------
# counts-table file format
# ---------------------------------------------------------------------------

def test_counts_table_round_trip(tmp_path):
    path = tmp_path / "counts.txt"
    raw = [49821, 17, 25006, 24980]
    write_counts_table(path, DEFAULT_SETTINGS, raw)
    settings, counts = read_counts_table(path)
    assert np.array_equal(counts, raw)
    assert [s.label for s in settings] == ["H", "V", "D", "R"]
    for got, want in zip(settings, DEFAULT_SETTINGS):
        assert got.qwp_angle == pytest.approx(want.qwp_angle, abs=1e-8)
        assert got.polarizer_angle == pytest.approx(want.polarizer_angle, abs=1e-8)


@pytest.mark.parametrize(
    "text,line",
    [
        ("", None),
        ("wrong header row here\nH 0 0 5\n", 1),
        ("label  qwp_angle_deg  polarizer_angle_deg  raw_count\nH 0 0\n", 2),
        ("label  qwp_angle_deg  polarizer_angle_deg  raw_count\nH 0 zero 5\n", 2),
        ("label  qwp_angle_deg  polarizer_angle_deg  raw_count\nH 0 0 -5\n", 2),
        ("label  qwp_angle_deg  polarizer_angle_deg  raw_count\n", None),
    ],
)
def test_counts_table_rejects_malformed_input(tmp_path, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        read_counts_table(path)
    if line is not None:
        assert f"line {line}" in str(err.value)


@pytest.mark.parametrize("row", ["V nan 90 5", "V 0 inf 5", "V -inf 90 5"])
def test_counts_table_rejects_non_finite_angles(tmp_path, row):
    path = tmp_path / "bad.txt"
    path.write_text(f"label  qwp_angle_deg  polarizer_angle_deg  raw_count\n"
                    f"H 0 0 5\n{row}\n")
    with pytest.raises(ConfigRangeError) as err:
        read_counts_table(path)
    assert "line 3" in str(err.value)


def test_counts_table_rejects_counts_beyond_float_range(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("label  qwp_angle_deg  polarizer_angle_deg  raw_count\n"
                    f"H 0 0 5\nV 0 90 {10**400}\n")
    with pytest.raises(ConfigRangeError) as err:
        read_counts_table(path)
    assert "line 3" in str(err.value)


def test_counts_table_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError) as err:
        read_counts_table(tmp_path / "nope.txt")
    assert "cannot read" in str(err.value)
