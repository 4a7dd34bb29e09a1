"""Two-crystal interferometer: biphoton amplitudes, fields, coherence
matrix, closed forms.

The matrix pipeline (A, F -> G) is checked against the dense-matrix Fock
reference in tests/_oracles.py: A against its state vector and signal
moments, F against its field coefficients and G against its expectations.
"""

import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest

from polsim.config import build_configs, parse_config_text
from polsim.errors import ParameterError, ZeroTraceError
from polsim.gedanken import GedankenConfig
from polsim.tomography import DetectorModel, MeasurementSetting
from polsim.zwm import (
    CoherenceMatrix,
    ImperfectionConfig,
    ZwmConfig,
    analytic_p_general,
    analytic_p_special,
    coherence_grid,
    coherence_matrix,
    degree_of_polarization,
    degree_of_polarization_grid,
    field_map,
    numeric_degree_of_polarization,
    signal_amplitudes,
    stokes_parameters,
)

from _oracles import (
    ANNIHILATE,
    BASIS,
    MODES,
    VACUUM,
    coherence_verdict_stacked,
    floor_gain_config,
    random_config,
    reference_coherence,
    reference_fields,
    reference_state,
)

# row/column indices of A (signal x idler) and columns of F
S1x, S1y, S2x, S2y = range(4)
I1, VAC0 = range(2)


def amplitudes(cfg):
    """A at the operating point of cfg, shape (4, 2)."""
    return signal_amplitudes(cfg, abs(complex(cfg.t)))


def fields(cfg):
    """F at the operating point of cfg, shape (2, 4)."""
    return field_map(cfg, cfg.gamma)


# ---------------------------------------------------------------------------
# configuration objects
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ParameterError):
        ZwmConfig(g1=0.0)
    with pytest.raises(ParameterError):
        ZwmConfig(g1=1e-101)
    with pytest.raises(ParameterError):
        ZwmConfig(g1=0.2)
    with pytest.raises(ParameterError):
        ZwmConfig(g2=0.2)
    with pytest.raises(ParameterError):
        ZwmConfig(t=1.5)
    with pytest.raises(ParameterError):
        ZwmConfig(gamma=math.pi)
    with pytest.raises(ParameterError):
        ImperfectionConfig(eta_idler=1.2)
    with pytest.raises(ParameterError):
        ImperfectionConfig(mu_overlap=-0.1)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("build", [
    lambda: ZwmConfig(gamma=INF),
    lambda: ZwmConfig(gamma=NAN),
    lambda: ZwmConfig(t=NAN),
    lambda: ZwmConfig(t=complex(0.5, NAN)),
    lambda: ZwmConfig(g1=complex(NAN, 0.01)),
    lambda: ZwmConfig(phi_s1=NAN),
    lambda: ZwmConfig(phi_i=INF),
    lambda: ImperfectionConfig(bs_tx=NAN),
    lambda: DetectorModel(kappa=NAN),
    lambda: DetectorModel(kappa=INF),
    lambda: DetectorModel(dark_rate=NAN),
    lambda: DetectorModel(integration_time=NAN),
    lambda: DetectorModel(integration_time=INF),
    lambda: MeasurementSetting("H", NAN, 0.0),
    lambda: MeasurementSetting("H", 0.0, INF),
    lambda: GedankenConfig(0.1, 0.5, phi1=NAN),
    lambda: GedankenConfig(NAN, 0.5),
    lambda: analytic_p_special(0.5, INF),
    lambda: analytic_p_special(0.5, NAN),
    lambda: analytic_p_special(NAN, 0.5),
])
def test_library_constructors_reject_non_finite_values(build):
    with pytest.raises(ParameterError):
        build()


def test_coherence_grid_rejects_points_outside_the_config_ranges():
    cfg = ZwmConfig()
    for gammas, ts in (([0.0, math.pi], [0.5]), ([math.nan], [0.5]),
                       ([0.0], [0.5, 1.5]), ([0.0], [-0.1]), ([0.0], [math.nan])):
        with pytest.raises(ParameterError):
            coherence_grid(cfg, gammas, ts)


def test_single_point_calls_accept_every_valid_config():
    """ZwmConfig allows |t| up to 1 + 1e-12 for rounding; the 1x1 grid calls
    behind the single-point functions must accept the same range.  So must
    ZwmConfig itself accept every gain a config file may give: of the 700
    phases k / 100, 67 round |0.1 e^{i phi}| above the cap 0.1, and 67 round
    |1e-100 e^{i phi}| below the floor 1e-100."""
    cfg = ZwmConfig(t=1.0 + 1e-13, gamma=0.4)
    assert analytic_p_general(cfg) == 1.0
    assert numeric_degree_of_polarization(cfg) == pytest.approx(1.0, abs=1e-12)
    for gain, mag in itertools.product(("g1", "g2"), (0.1, 1e-100)):
        for k in range(700):
            cfg, _ = build_configs(parse_config_text(
                f"{gain}_mag = {mag!r}\n{gain}_phase_rad = {k / 100!r}\n"))
            assert 0.0 <= numeric_degree_of_polarization(cfg) <= 1.0


def test_t_eff_folds_idler_loss():
    # A[S2x, I1] = g2 conj(T_eff) at phi_i = 0, with T_eff = 0.5j * 0.8
    cfg = ZwmConfig(t=0.5j, imperfections=ImperfectionConfig(eta_idler=0.8))
    assert signal_amplitudes(cfg, 0.5)[2, 0] == pytest.approx(0.01 * -0.4j, rel=1e-15)


def test_registry_layout():
    """The reference lists the signal modes in the row order of A and the
    column order of F, then the idler modes in the column order of A."""
    assert MODES == ("S1x", "S1y", "S2x", "S2y", "I1", "VAC0")
    assert amplitudes(ZwmConfig()).shape == (4, 2)
    assert fields(ZwmConfig()).shape == (2, 4)
    assert len(BASIS) == 28 and ANNIHILATE.shape == (6, 28, 28)


def test_reference_operator_algebra():
    """[a, a^dagger] = 1 on every basis state with room for one more photon,
    and sum_m a_m^dagger a_m counts the photons.  The reference's coefficient
    maps are checked in test_elements.py."""
    below = [k for k, occ in enumerate(BASIS) if sum(occ) < 2]
    for a in ANNIHILATE:
        commutator = a @ a.T - a.T @ a
        np.testing.assert_allclose(commutator[:, below], np.eye(len(BASIS))[:, below],
                                   rtol=0, atol=1e-15)
    number = sum(a.T @ a for a in ANNIHILATE)
    np.testing.assert_allclose(number, np.diag([sum(occ) for occ in BASIS]), atol=1e-15)


# ---------------------------------------------------------------------------
# biphoton amplitudes A
# ---------------------------------------------------------------------------

def test_state_with_full_transmission_has_no_vacuum_port_term():
    a = amplitudes(ZwmConfig(t=1.0))
    assert a[S2x, VAC0] == 0.0
    assert a[S2x, I1] == pytest.approx(0.01, rel=1e-15)


def test_state_with_blocked_idler_couples_s2_to_vacuum_port_only():
    a = amplitudes(ZwmConfig(t=0.0))
    assert a[S2x, I1] == 0.0
    assert abs(a[S2x, VAC0]) == pytest.approx(0.01, rel=1e-15)


def test_state_partial_transmission_amplitude():
    a = amplitudes(ZwmConfig(g1=0.01, g2=0.01, t=0.6, phi_i=0.0))
    assert a[S2x, VAC0] == pytest.approx(0.008, rel=1e-12)
    assert a[S2x, I1] == pytest.approx(0.006, rel=1e-12)
    assert a[S1x, I1] == pytest.approx(0.01, rel=1e-15)
    # only S1x and S2x are ever created
    assert not a[[S1y, S2y]].any()


def test_state_norm_is_transmission_independent():
    """<psi|psi> = 1 + 2 g^2 regardless of |T| (the lost amplitude moves to
    the vacuum port, it does not disappear)."""
    for t in (0.0, 0.3, 0.7, 1.0):
        cfg = ZwmConfig(t=t)
        assert 1.0 + np.sum(np.abs(amplitudes(cfg)) ** 2) == pytest.approx(
            1.0 + 2e-4, rel=1e-12)
        psi = reference_state(cfg)
        norm = np.vdot(psi, psi)
        assert norm.imag == pytest.approx(0.0, abs=1e-18)
        assert norm.real == pytest.approx(1.0 + 2e-4, rel=1e-12)


def test_state_phase_conventions():
    cfg = ZwmConfig(g1=0.01j, g2=0.01, t=0.5, phi_i=0.4)
    a = amplitudes(cfg)
    assert a[S1x, I1] == pytest.approx(0.01j, rel=1e-15)
    want = 0.01 * (0.5 * cmath.exp(0.4j)).conjugate()
    assert a[S2x, I1] == pytest.approx(want, rel=1e-13)


def test_amplitudes_match_the_dense_reference_state():
    """|vac> + sum A[s, i] a_s^dagger a_i^dagger |vac>, built from A, is the
    reference state; its signal moments <a_m^dagger a_n> are conj(A) A^T."""
    rng = np.random.default_rng(41)
    for _ in range(20):
        cfg = random_config(rng)
        a = amplitudes(cfg)
        want = reference_state(cfg)
        got = VACUUM + sum(a[s, i] * (ANNIHILATE[s].T @ ANNIHILATE[4 + i].T @ VACUUM)
                           for s in range(4) for i in range(2))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(a).max())
        signal_kets = ANNIHILATE[:4] @ want
        moments = signal_kets.conj() @ signal_kets.T
        np.testing.assert_allclose(np.conj(a) @ a.T, moments, rtol=0,
                                   atol=1e-12 * np.abs(moments).max())


# ---------------------------------------------------------------------------
# output fields F
# ---------------------------------------------------------------------------

def test_fields_without_rotation_keep_polarizations_separate():
    f = fields(ZwmConfig(gamma=0.0))
    assert f[0, S1y] == 0.0
    assert f[0, S2y] == 0.0
    assert f[1, S1x] == 0.0
    assert f[1, S2x] == 0.0


def test_fields_at_quarter_turn():
    phi1, phi2 = 0.3, 1.1
    f = fields(ZwmConfig(gamma=math.pi / 2, phi_s1=phi1, phi_s2=phi2))
    s = 1 / math.sqrt(2)
    assert f[0, S1y] == pytest.approx(-cmath.exp(1j * phi1) * s, rel=1e-12)
    assert f[0, S2x] == pytest.approx(cmath.exp(1j * phi2) * s, rel=1e-12)
    assert abs(f[0, S1x]) < 1e-15
    assert f[1, S1x] == pytest.approx(cmath.exp(1j * phi1) * s, rel=1e-12)
    assert f[1, S2y] == pytest.approx(cmath.exp(1j * phi2) * s, rel=1e-12)


def test_fields_with_polarizing_splitter():
    imp = ImperfectionConfig(bs_tx=0.9, bs_ty=1.0)
    f = fields(ZwmConfig(gamma=0.0, imperfections=imp))
    ideal = 1 / math.sqrt(2)
    assert abs(f[0, S2x]) == pytest.approx(0.9 * ideal, rel=1e-12)
    assert abs(f[1, S2y]) == pytest.approx(ideal, rel=1e-12)
    # unitary completion keeps each polarization channel lossless
    np.testing.assert_allclose(np.sum(np.abs(f) ** 2, axis=-1), 1.0, atol=1e-12)


def test_fields_are_normalized_for_any_rotation():
    rng = np.random.default_rng(8)
    for _ in range(10):
        imp = ImperfectionConfig(bs_tx=rng.uniform(0, 1), bs_ty=rng.uniform(0, 1))
        cfg = ZwmConfig(imperfections=imp)
        f = field_map(cfg, rng.uniform(0, math.pi / 2, size=7))
        assert f.shape == (7, 2, 4)
        np.testing.assert_allclose(np.sum(np.abs(f) ** 2, axis=-1), 1.0, atol=1e-12)


def test_field_map_matches_the_dense_reference_fields():
    """F entry by entry; G alone cannot see the sign of the rotation's S1y
    terms, since S1y is never populated."""
    rng = np.random.default_rng(43)
    for _ in range(20):
        cfg = random_config(rng)
        want = reference_fields(cfg)
        assert not want[:, 4:].any()
        np.testing.assert_allclose(fields(cfg), want[:, :4], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# coherence matrix
# ---------------------------------------------------------------------------

def test_coherence_matrix_guards():
    for shape in ((3, 3), (4, 3, 3), (1, 2, 2), (4,)):
        with pytest.raises(ParameterError, match="must be 2x2"):
            CoherenceMatrix(np.zeros(shape))
    with pytest.raises(ParameterError, match="must be finite"):
        CoherenceMatrix(np.full((2, 2), np.nan))
    with pytest.raises(ParameterError, match="must be finite"):
        CoherenceMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ParameterError, match="not Hermitian"):
        CoherenceMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(ParameterError, match="not positive semidefinite"):
        CoherenceMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ParameterError, match="diagonal must be real"):
        CoherenceMatrix(np.array([[1.0 + 0.1j, 0.0], [0.0, 1.0]]))
    for good, trace in ((np.eye(2), 2.0), ([[0.5, 0.25j], [-0.25j, 0.5]], 1.0),
                        ([[1.0, 1.0], [1.0, 1.0]], 2.0)):  # the last is pure
        assert np.trace(CoherenceMatrix(np.array(good)).matrix).real == trace
    g = CoherenceMatrix(np.zeros((2, 2)))  # exactly zero is allowed
    assert np.trace(g.matrix).real == 0.0
    with pytest.raises(ValueError):
        CoherenceMatrix(np.eye(2)).matrix[0, 0] = 5.0  # read-only view


def test_check_coherence_on_stacked_matrices():
    """CoherenceMatrix takes one 2x2 matrix and refuses a stack, so a stack is
    checked matrix by matrix; the stacked reference in tests/_oracles.py gives
    the verdict of the first matrix that fails."""
    good = np.stack([np.eye(2), np.zeros((2, 2)),
                     [[0.5, 0.25j], [-0.25j, 0.5]]]).astype(complex)
    for m in good:
        CoherenceMatrix(m)
    assert coherence_verdict_stacked(good.reshape(3, 1, 2, 2)) == "ok"
    with pytest.raises(ParameterError, match="must be 2x2"):
        CoherenceMatrix(good)
    for bad, message in (([[1.0, 0.5], [0.2, 1.0]], "not Hermitian"),
                         ([[1.0, 2.0], [2.0, 1.0]], "not positive semidefinite"),
                         ([[1.0 + 0.1j, 0.0], [0.0, 1.0]], "diagonal must be real")):
        stack = np.concatenate([good, [bad]]).astype(complex)
        assert coherence_verdict_stacked(stack).endswith(message)
        for m in stack[:-1]:
            CoherenceMatrix(m)
        with pytest.raises(ParameterError, match=message):
            CoherenceMatrix(stack[-1])
    with pytest.raises(ParameterError, match="must be 2x2"):
        CoherenceMatrix(np.zeros((4, 3, 3)))
    with pytest.raises(ParameterError, match="must be finite"):
        CoherenceMatrix(np.full((2, 2), np.nan))


def test_coherence_matrix_check_holds_at_the_ends_of_float_range():
    """The check scales the entries by a power of two first.  Unscaled, sums
    near the float limit overflow to an inf - inf NaN, which passes every
    comparison, and subnormal entries lose the precision the test needs."""
    offdiag = 1e308 + 1e308j
    with pytest.raises(ParameterError, match="not positive semidefinite"):
        # eigenvalues (1 +- sqrt 2) 1e308
        CoherenceMatrix(np.array([[1e308, offdiag], [offdiag.conjugate(), 1e308]]))
    # eigenvalues (1.7 +- sqrt 2) 1e308
    g = CoherenceMatrix(np.array([[1.7e308, offdiag], [offdiag.conjugate(), 1.7e308]]))
    assert g.matrix[0, 0] == 1.7e308
    with pytest.raises(ParameterError, match="not Hermitian"):
        CoherenceMatrix(np.array([[1.7e308, offdiag], [-offdiag, 1.7e308]]))
    # subnormal: smallest eigenvalue -3.1e-6 of the largest entry
    offdiag = 1.9943e-319 + 2.418e-320j
    with pytest.raises(ParameterError, match="not positive semidefinite"):
        CoherenceMatrix(np.array([[8.577e-320, offdiag], [offdiag.conjugate(), 4.70514e-319]]))
    # exactly singular: 5e-324 [[1, 2 + 4i], [2 - 4i, 20]]; and the smallest float
    offdiag = 1e-323 + 2e-323j
    singular = CoherenceMatrix(np.array([[5e-324, offdiag], [offdiag.conjugate(), 1e-322]]))
    assert np.trace(singular.matrix).real > 0
    assert np.trace(CoherenceMatrix(np.array([[5e-324, 0.0], [0.0, 0.0]])).matrix).real == 5e-324


def test_one_matrix_gets_the_stacked_verdict():
    """CoherenceMatrix runs its tests on Python scalars, and the stacked
    numpy test in tests/_oracles.py is its reference: 3000 random matrices,
    many within rounding of a threshold and scaled from 1e-300 to 1e300, get
    the same verdict both ways."""
    def verdict(m):
        try:
            CoherenceMatrix(m)
        except ParameterError as err:
            return str(err)
        return "ok"

    rng = np.random.default_rng(47)
    verdicts = set()
    for k in range(3000):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) * (k % 3 != 0)
        g = a @ a.conj().T
        nudge = rng.normal() * 1e-9 * np.abs(g).max()
        if k % 4 == 1:
            g = np.outer(a[:, 0], a[:, 0].conj()) + nudge * np.eye(2)
        elif k % 4 == 2:
            g[0, 1] += nudge
        elif k % 4 == 3:
            g[0, 0] += 1j * nudge
        g = g * 10.0 ** rng.integers(-300, 301)
        assert verdict(g) == coherence_verdict_stacked(g[None])
        verdicts.add(verdict(g))
    assert len(verdicts) == 4  # ok, and each of the three tests fails somewhere


def test_coherence_matrix_accessors():
    g = CoherenceMatrix(np.array([[0.5, 0.25j], [-0.25j, 0.5]]))
    assert g.matrix[0, 0] == 0.5 and g.matrix[1, 1] == 0.5
    assert g.matrix[0, 1] == 0.25j and g.matrix[1, 0] == -0.25j
    assert np.trace(g.matrix).real == 1.0


def test_no_rotation_leaves_y_channel_empty():
    g = coherence_matrix(ZwmConfig(gamma=0.0, t=0.7))
    assert g.matrix[1, 1] == 0.0
    assert g.matrix[0, 1] == 0.0


def test_blocked_idler_at_quarter_turn_is_unpolarized():
    g = coherence_matrix(ZwmConfig(gamma=math.pi / 2, t=0.0))
    gsq = 1e-4
    np.testing.assert_allclose(g.matrix, (gsq / 2) * np.eye(2), atol=1e-18)
    assert degree_of_polarization(g) == pytest.approx(0.0, abs=1e-12)


def test_partial_transmission_eigenvalue_ratio():
    cfg = ZwmConfig(gamma=math.pi / 2, t=0.5)
    lo, hi = np.linalg.eigvalsh(coherence_matrix(cfg).matrix)
    assert hi / lo == pytest.approx(3.0, rel=1e-10)


def test_pipeline_matrices_satisfy_strict_invariants():
    """G is a Gram matrix: exactly Hermitian with a real diagonal, PSD.
    coherence_grid does not check this at run time, so this test is its
    guard: on random configs, on configs with every imperfection below 1, on
    the |T| = 0 and gamma = 90 deg axes, and at a dark fringe, where G is
    exactly 0."""
    rng = np.random.default_rng(17)
    lossy = [dataclasses.replace(random_config(rng), imperfections=ImperfectionConfig(
        *rng.uniform(0.0, 1.0, size=4))) for _ in range(4)]
    lossy.append(ZwmConfig(imperfections=ImperfectionConfig(0.9, 0.8, 0.7, 0.6)))
    dark = ZwmConfig(phi_s2=math.pi)
    for cfg in [random_config(rng) for _ in range(12)] + lossy + [dark]:
        g = coherence_grid(cfg, np.append(rng.uniform(0, math.pi / 2, size=5), [0.0, math.pi / 2]),
                           np.append(rng.uniform(0, 1, size=4), [0.0, 1.0]))
        trace = g[..., 0, 0].real + g[..., 1, 1].real
        assert np.array_equal(g[..., 1, 0], np.conj(g[..., 0, 1]))
        assert not g[..., 0, 0].imag.any() and not g[..., 1, 1].imag.any()
        assert np.all(np.linalg.eigvalsh(g)[..., 0] >= -1e-12 * trace)
        assert np.all(trace >= 0.0)
    assert not g[5, 5].any()  # dark's gamma = 0, |T| = 1 point: the two arms cancel


def test_dense_oracle_reproduces_coherence_matrix():
    """Matrix pipeline vs the dense-matrix reference on random operating
    points with every imperfection switched on."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        cfg = random_config(rng)
        got = coherence_matrix(cfg).matrix
        want = reference_coherence(cfg)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_grid_entries_equal_single_point_calls():
    rng = np.random.default_rng(37)
    cfg = random_config(rng)
    gammas = rng.uniform(0, math.pi / 2, size=6)
    ts = np.append(rng.uniform(0, 1, size=4), [0.0, 1.0])
    grid = coherence_grid(cfg, gammas, ts)
    p_grid = degree_of_polarization_grid(grid)
    assert grid.shape == (6, 6, 2, 2) and p_grid.shape == (6, 6)
    phase = cfg.t / abs(cfg.t)
    for i, gamma in enumerate(gammas):
        for j, t_abs in enumerate(ts):
            assert np.array_equal(grid[i, j], coherence_grid(cfg, [gamma], [t_abs])[0, 0])
            point = dataclasses.replace(cfg, gamma=gamma, t=t_abs * phase)
            assert p_grid[i, j] == pytest.approx(
                numeric_degree_of_polarization(point), rel=1e-14, abs=1e-15)


def test_overlap_factor_scales_cross_source_terms_only():
    cfg = ZwmConfig(gamma=math.pi / 2, t=0.7)
    full = coherence_matrix(cfg)
    half = coherence_matrix(dataclasses.replace(
        cfg, imperfections=ImperfectionConfig(mu_overlap=0.3)))
    assert half.matrix[0, 1] == pytest.approx(0.3 * full.matrix[0, 1], rel=1e-12)
    assert half.matrix[0, 0] == pytest.approx(full.matrix[0, 0], rel=1e-12)
    assert half.matrix[1, 1] == pytest.approx(full.matrix[1, 1], rel=1e-12)


def test_zero_overlap_erases_polarization_at_quarter_turn():
    for t in (0.0, 0.5, 1.0):
        imp = ImperfectionConfig(mu_overlap=0.0)
        cfg = ZwmConfig(gamma=math.pi / 2, t=t, imperfections=imp)
        assert numeric_degree_of_polarization(cfg) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# scalar outputs: P, Stokes, beta
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "matrix,expected",
    [
        (np.eye(2), 0.0),
        (np.array([[1.0, 0.0], [0.0, 0.0]]), 1.0),
        (np.array([[0.5, 0.25], [0.25, 0.5]]), 0.5),
    ],
)
def test_degree_of_polarization_pinned(matrix, expected):
    assert degree_of_polarization(CoherenceMatrix(matrix)) == pytest.approx(
        expected, abs=1e-15
    )


def test_degree_of_polarization_scale_invariance():
    g = CoherenceMatrix(np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]]))
    p = degree_of_polarization(g)
    for c in (1e-6, 1.0, 1e6):
        scaled = CoherenceMatrix(c * g.matrix)
        assert abs(degree_of_polarization(scaled) - p) <= 1e-15


def test_numeric_p_is_unchanged_by_a_power_of_two_on_both_gains():
    """P depends on the gains only through their ratio: scaling both by 2^k
    changes no bit of P, or of G / tr G, for every k that keeps both gains
    in [1e-100, 0.1].  The gains of the random configs are log-uniform
    over that range."""
    rng = np.random.default_rng(2024)
    for _ in range(12):
        cfg = random_config(rng)
        g1, g2 = (g / abs(g) * 10.0 ** rng.uniform(-100, -1) for g in (cfg.g1, cfg.g2))
        cfg = dataclasses.replace(cfg, g1=g1, g2=g2)
        p, g = numeric_degree_of_polarization(cfg), coherence_matrix(cfg)
        low, high = sorted((abs(g1), abs(g2)))
        scaled = [dataclasses.replace(cfg, g1=g1 * 2.0**k, g2=g2 * 2.0**k)
                  for k in range(-340, 10) if 1e-100 <= low * 2.0**k and high * 2.0**k <= 0.1]
        assert len(scaled) >= 3
        for other in scaled:
            assert numeric_degree_of_polarization(other) == p
            h = coherence_matrix(other)
            assert np.array_equal(h.matrix / np.trace(h.matrix).real,
                                  g.matrix / np.trace(g.matrix).real)


def test_degree_of_polarization_zero_trace_raises():
    with pytest.raises(ZeroTraceError):
        degree_of_polarization(CoherenceMatrix(np.zeros((2, 2))))


@pytest.mark.parametrize(
    "matrix,expected",
    [
        (np.eye(2), (2.0, 0.0, 0.0, 0.0)),
        (np.array([[1.0, 0.0], [0.0, 0.0]]), (1.0, 1.0, 0.0, 0.0)),
        (np.array([[0.5, 0.25j], [-0.25j, 0.5]]), (1.0, 0.0, 0.0, -0.5)),
    ],
)
def test_stokes_parameters_pinned(matrix, expected):
    got = stokes_parameters(CoherenceMatrix(matrix))
    np.testing.assert_allclose(got, expected, atol=1e-15)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_analytic_special_pinned_values():
    assert analytic_p_special(0.5, math.pi / 2) == pytest.approx(0.5, abs=1e-15)
    assert analytic_p_special(1.0, 0.77) == 1.0
    assert analytic_p_special(0.5, math.pi / 3) == pytest.approx(0.8, abs=1e-15)
    with pytest.raises(ParameterError):
        analytic_p_special(1.2, 0.0)
    with pytest.raises(ParameterError):
        analytic_p_special(0.5, math.pi)


def test_analytic_general_pinned_values():
    assert analytic_p_general(ZwmConfig(t=0.0, gamma=0.0)) == pytest.approx(1.0, abs=1e-15)
    cfg = ZwmConfig(t=1.0, gamma=math.pi / 2, phi_s2=math.pi / 2)
    assert analytic_p_general(cfg) == pytest.approx(1.0, abs=1e-12)
    assert numeric_degree_of_polarization(cfg) == pytest.approx(1.0, abs=1e-10)


def test_analytic_general_reduces_to_special_at_zero_beta():
    for t in np.linspace(0, 1, 6):
        for gamma in np.linspace(0, math.pi / 2, 6):
            cfg = ZwmConfig(t=t, gamma=gamma)
            assert analytic_p_general(cfg) == pytest.approx(
                analytic_p_special(t, gamma), abs=1e-15
            )


def test_analytic_general_folds_idler_loss_into_transmission():
    imp = ImperfectionConfig(eta_idler=0.8)
    cfg = ZwmConfig(t=1.0, gamma=0.6, imperfections=imp)
    assert analytic_p_general(cfg) == pytest.approx(
        analytic_p_special(0.8, 0.6), rel=1e-15
    )


def test_analytic_general_guards():
    # unequal gain magnitudes and a skewed splitter are in the closed form
    cfgs = [ZwmConfig(g1=0.01, g2=0.02),
            ZwmConfig(imperfections=ImperfectionConfig(bs_tx=0.9))]
    # partial overlap is a factor on |T|, so the closed form covers it
    cfgs += [ZwmConfig(t=0.5 * cmath.exp(-0.54j), gamma=math.radians(60), phi_i=0.3,
                      imperfections=ImperfectionConfig(eta_idler=0.8, mu_overlap=0.5))]
    cfgs += [ZwmConfig(t=t * cmath.exp(-0.54j), gamma=math.radians(gamma_deg), phi_i=0.3,
                       imperfections=ImperfectionConfig(eta_idler=0.8, mu_overlap=0.7))
             for gamma_deg in (0, 30, 60, 90) for t in (0, 0.5, 1)]
    # and P does not depend on a common factor of the gains, down to the
    # smallest gains, 1e-100, at random phases
    rng = np.random.default_rng(594)
    cfgs += [floor_gain_config(rng, t=0.5, gamma=math.radians(gamma_deg))
             for _ in range(2) for gamma_deg in (30, 60)]
    for cfg in cfgs:
        assert analytic_p_general(cfg) == pytest.approx(
            numeric_degree_of_polarization(cfg), abs=1e-12)


def test_dark_fringe_is_singular_on_both_paths():
    """Full destructive cancellation: no intensity, so P is undefined and the
    closed form and the matrix pipeline must both say so."""
    cfg = ZwmConfig(t=1.0, gamma=0.0, phi_s2=math.pi)
    with pytest.raises(ZeroTraceError):
        analytic_p_general(cfg)
    with pytest.raises(ZeroTraceError):
        numeric_degree_of_polarization(cfg)
    # on a grid the dark point has exactly zero G and fails the whole call
    grid = coherence_grid(cfg, [0.0, math.pi / 4], [0.5, 1.0])
    assert not grid[0, 1].any()
    with pytest.raises(ZeroTraceError):
        degree_of_polarization_grid(grid)


def test_pipeline_matches_closed_form_off_grid():
    rng = np.random.default_rng(77)
    for _ in range(10):
        cfg = ZwmConfig(
            g1=0.01 * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
            g2=0.01 * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
            t=rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
            gamma=rng.uniform(0, math.pi / 2),
            phi_s1=rng.uniform(0, 2 * math.pi),
            phi_s2=rng.uniform(0, 2 * math.pi),
            phi_i=rng.uniform(0, 2 * math.pi),
        )
        assert numeric_degree_of_polarization(cfg) == pytest.approx(
            analytic_p_general(cfg), abs=1e-10
        )


def test_imperfect_splitter_polarizes_the_blocked_unrotated_case():
    imp = ImperfectionConfig(bs_tx=1.0, bs_ty=0.9)
    cfg = ZwmConfig(t=0.0, gamma=math.pi / 2, imperfections=imp)
    assert numeric_degree_of_polarization(cfg) > 0.0


def test_idler_loss_caps_polarization_below_one():
    imp = ImperfectionConfig(eta_idler=0.9)
    cfg = ZwmConfig(t=1.0, gamma=0.5, imperfections=imp)
    assert numeric_degree_of_polarization(cfg) < 1.0
