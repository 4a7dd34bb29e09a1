"""Property tests of the maximum-likelihood fit over arbitrary non-negative
counts, for the four default settings and a six-setting set."""

import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import SIX_SETTINGS, fresh_projector
from polsim.errors import IllPosedError, ParameterError
from polsim.tomography import (
    DEFAULT_SETTINGS,
    MeasurementSetting,
    _angle_key,
    _fit,
    _scalars,
    mle_reconstruct,
)
from polsim.zwm import CoherenceMatrix, degree_of_polarization

count = st.one_of(st.integers(0, 10**6).map(float), st.floats(0.0, 1e9))
tables = st.one_of(
    st.tuples(st.just(DEFAULT_SETTINGS), st.lists(count, min_size=4, max_size=4)),
    st.tuples(st.just(SIX_SETTINGS), st.lists(count, min_size=6, max_size=6)),
)

# A Newton fit's KKT certificate stays below CERTIFICATE_BOUND wherever the
# positive counts span at most a factor SPAN.  Beyond that, a pure optimum can
# sit in a narrow curved valley that a few small counts steer, and the
# certificate, which weighs each count by n / mu, is at the mercy of rounding.
# Tables from a detector stay well within that span (see the 2016-table test
# in test_tomography.py).
CERTIFICATE_BOUND = 1e-9
SPAN = 1e8


def turned(k, angle):
    """SIX_SETTINGS with setting k's polarizer turned by angle (rad): three
    pairs that are no longer antipodal, which the Newton fit solves."""
    setting = SIX_SETTINGS[k]
    return (*SIX_SETTINGS[:k], replace(setting, polarizer_angle=setting.polarizer_angle + angle),
            *SIX_SETTINGS[k + 1:])


@settings(max_examples=200, deadline=None)
@given(tables)
@example((DEFAULT_SETTINGS, [5e-324, 0.0, 0.0, 0.0]))
@example((DEFAULT_SETTINGS, [5e-324, 5e-324, 0.0, 0.0]))
@example((DEFAULT_SETTINGS, [0.0, 0.0, 2.2250738585e-313, 2.2250738585e-313]))  # a ulp off the cone
@example((SIX_SETTINGS, [1e-13, 3.0, 3.0, 3.0, 37.0, 37.0]))  # pure start orthogonal to H
@example((SIX_SETTINGS, [1.0, 2.0, 2.0, 0.0, 14058082.0, 84763918.0]))  # a curved valley
# mixed optima 5e-8 and 1e-7 inside the sphere, where a pure fit falls short
@example((SIX_SETTINGS, [13.0, 13.0, 13.0, 13.0, 513839924.71908844, 13.0]))
@example((SIX_SETTINGS, [51.0, 51.0, 51.0, 51.0, 51.0, 958536949.7275444]))
# a pure optimum at V, with an H count 2e-299 of the others
@example((SIX_SETTINGS, [5.086671366274852e-292, 1.0, 0.0, 0.0, 25165825.0, 25165825.0]))
# a hard-case sphere step whose 1 - |w|^2 rounds an ulp below 0
@example((SIX_SETTINGS, [378581126.0, 378581133.0, 0.0, 0.0, 0.0, 543498538.0]))
# an optimum on the sphere whose multiplier lam, 1e-313, only a count 2e-312 of
# the total sets: the closed form stops at lam = 2^-1000, inside the ball
@example((SIX_SETTINGS, [0.0, 0.0, 0.0, 2.225073858507e-311, 10.0, 33.0]))
# the Newton fit on six settings that are not antipodal pairs: a hard-case
# sphere step, a trial step that leaves a counted setting no counts, a step
# below float resolution, and a mixed optimum that v's rounding leaves just
# outside the sphere
@example((turned(5, 1e-3), [378581126.0, 378581133.0, 0.0, 0.0, 0.0, 543498538.0]))
@example((turned(1, 1e-8), [5.086671366274852e-292, 1.0, 0.0, 0.0, 25165825.0, 25165825.0]))
@example((turned(1, 1e-6), [0.0, 14019469025300819e18, 0.0, 147759927936737e63,
                            4643794223666853e118, 5496642835068205e94]))
@example((turned(0, -1e-6), [0.0, 0.0, 0.0, 0.0, 53624.0, 0.0008166347420547318]))
def test_fit_is_psd_deterministic_and_p_is_a_fraction(table):
    setting_set, counts = table
    counts = np.array(counts)
    try:
        rec = mle_reconstruct(counts, setting_set)
    except ParameterError as err:
        # a subnormal total is refused before the fit
        assert 0.0 < counts.sum() < sys.float_info.min
        assert "below float resolution" in str(err)
        return
    matrix, diag = _fit(counts, setting_set)
    again, diag_again = _fit(counts, setting_set)
    assert np.array_equal(rec.matrix, matrix) and np.array_equal(matrix, again)
    assert diag == diag_again
    if not np.any(counts > 0):
        assert diag.path == "zero" and np.array_equal(rec.matrix, np.zeros((2, 2)))
        return
    assert np.trace(rec.matrix).real > 0.0
    assert np.linalg.eigvalsh(rec.matrix).min() >= -1e-12 * np.trace(rec.matrix).real
    assert 0.0 <= degree_of_polarization(rec) <= 1.0
    if diag.path == "exact":
        # four settings and a PSD inversion: the fit reproduces every count
        assert len(setting_set) == 4
        mu = [np.trace(fresh_projector(s) @ rec.matrix).real for s in setting_set]
        np.testing.assert_allclose(mu, counts, rtol=1e-12, atol=1e-12 * counts.sum())
    else:
        # H V D A R L fits are closed form and take no Newton step
        assert diag.path in ("interior", "boundary")
        assert diag.newton_steps >= (len(setting_set) == 4)
        assert diag.path == "boundary" or len(setting_set) > 4
        positive = counts[counts > 0]
        if positive.min() * SPAN >= positive.max():
            assert diag.kkt_residual <= CERTIFICATE_BOUND


@pytest.mark.parametrize("counts", [
    [0.0, 0.0, 827671.0, 0.01171875, 0.0, 0.01171875],
    [0.0, 2.0, 2.0, 126489935.0, 126363040.0, 126426455.0],
    [0.0, 0.0, 0.007045222337816123, 550122.0, 0.007311406992633522, 0.0],
    [3549.0, 3550.0, 3861.0, 6.103515625e-05, 6.103515625e-05, 0.0],
    [0.0, 9.0, 9.0, 569209749.0, 822950712.0, 823362003.0],
    [0.0, 0.0, 0.0, 4.0, 4.0, 316649113.0],
    # positive counts that span 1e133, far beyond SPAN
    [0.0, 14019469025300819e18, 0.0, 147759927936737e63, 4643794223666853e118,
     5496642835068205e94],
])
def test_six_setting_tables_with_a_pure_optimum_end_on_the_sphere(counts):
    """H V D A R L tables whose optimum lies on the sphere, with P = 1 to
    2.2e-16 by a decimal oracle.  Newton fits over the ball ended the first six
    inside it, with certificates of 4e-9 to 1.4e-8, and the last on the sphere
    with one of 1.1.  The closed form ends each on the sphere and certifies it."""
    matrix, diag = _fit(np.array(counts), SIX_SETTINGS)
    assert diag.path == "boundary" and diag.kkt_residual <= CERTIFICATE_BOUND
    assert degree_of_polarization(CoherenceMatrix(matrix)) >= 1.0 - 1e-9


@pytest.mark.parametrize("angles, counts", [
    # pass directions crowded together: every c_k is small at the optimum
    ([(2.5187, 1.8458), (1.0712, 0.1721), (0.8172, 2.9750), (0.4516, 2.6618)],
     [2.0, 45184.0, 0.0, 10306.0]),
    # the first start ends in a local minimum on the sphere that is not the optimum
    ([(2.1055906669700177, 0.414618673626504), (2.0047469585858146, 2.890601774489228),
      (0.000376913551733391, 2.947161789802476), (0.9761653767302622, 1.2469868575742815),
      (2.9516690331511044, 2.50253589494966), (1.2091912390736546, 3.077468420004499),
      (0.10239826449912644, 2.074988916643214)],
     [0.0, 0.0, 0.018699236539599928, 0.32160080956138215, 0.0, 0.07328539398223255, 0.0]),
    # the descent on the sphere stops at a local minimum with certificate 0.24,
    # and the fit reaches the optimum through the ball
    ([(1.1175062584550697, 2.4278367500121476), (2.562278859663463, 0.38916590099520165),
      (2.353661265825826, 0.4248385246949252), (1.8612456877201018, 0.19206516850867575)],
     [0.5645357523275017, 0.9102315383642169, 0.3243045204467787, 0.1115886963385474]),
])
def test_boundary_fit_certifies_the_pure_optimum(angles, counts):
    settings = tuple(MeasurementSetting(str(k), qwp, pol) for k, (qwp, pol) in enumerate(angles))
    _, diag = _fit(np.array(counts), settings)
    assert diag.path == "boundary" and diag.newton_steps < 100
    assert diag.kkt_residual <= CERTIFICATE_BOUND


@pytest.mark.parametrize("counts", [
    # a step whose gain is below the likelihood's rounding: it stops there
    # rather than run to the step cap
    [0.0, 0.0, 941490.0, 0.02082236297015839, 0.0, 0.0],
    # a mixed optimum that v's rounding leaves just outside: the fit ends a
    # rounding step further in
    [0.0, 0.0, 0.0, 0.0, 53624.0, 0.0008166347420547318],
    # a pure optimum that the fit reaches only once its trust radius has grown
    [0.0, 0.0, 24599.0, 12316.0, 193230563.0, 4.0],
], ids=["stop-below-rounding", "rounding-step-inside", "radius-growth"])
def test_six_setting_fit_stops_at_a_certified_optimum(counts):
    _, diag = _fit(np.array(counts), SIX_SETTINGS)
    assert diag.newton_steps < 100 and diag.kkt_residual <= CERTIFICATE_BOUND


def test_random_analyzer_sets_reach_a_certified_optimum():
    """600 tables on 4 to 8 analyzer settings at random angles, with small
    integer counts, counts spanning up to 1e8, fractional counts with zeros,
    and counts with one zero: every fit is PSD, every Newton fit stops
    before the step cap, and every one whose positive counts span at most
    SPAN certifies its optimality."""
    rng = np.random.default_rng(37)
    newton = 0
    for trial in range(600):
        k = int(rng.integers(4, 9))
        settings = tuple(MeasurementSetting(str(i), *rng.uniform(0.0, math.pi, 2))
                         for i in range(k))
        counts = (rng.integers(0, 50, k).astype(float),
                  np.floor(10 ** rng.uniform(0, 8, k)),
                  rng.uniform(0.0, 1.0, k) * (rng.uniform(size=k) < 0.7),
                  np.floor(10 ** rng.uniform(0, 6, k)) * (np.arange(k) != trial % k))[trial % 4]
        try:
            matrix, diag = _fit(counts, settings)
        except IllPosedError:  # a degenerate draw of angles
            continue
        if diag.path == "zero":
            continue
        assert np.linalg.eigvalsh(matrix).min() >= -1e-12 * np.trace(matrix).real
        assert diag.path == "exact" or diag.newton_steps < 100, (counts, settings, diag)
        positive = counts[counts > 0]
        if diag.path != "exact" and positive.min() * SPAN >= positive.max():
            newton += 1
            assert diag.kkt_residual <= CERTIFICATE_BOUND, (counts, settings, diag)
    assert newton >= 500


def exact_inversion(counts) -> list[Fraction]:
    """The Stokes vector x with a_k . x = n_k for the H V D R counts, solved by
    Gauss-Jordan elimination in exact rational arithmetic on the Stokes rows
    a_k that the fit uses."""
    rows = _scalars(tuple(map(_angle_key, DEFAULT_SETTINGS))).rows
    m = [[*map(Fraction, row), Fraction(c)] for row, c in zip(rows, counts)]
    for i in range(4):
        pivot = max(range(i, 4), key=lambda r: abs(m[r][i]))
        m[i], m[pivot] = m[pivot], m[i]
        m = [row if r == i else [a - row[i] / m[i][i] * b for a, b in zip(row, m[i])]
             for r, row in enumerate(m)]
    return [m[i][4] / m[i][i] for i in range(4)]


# H V D R counts with zeros, whose positive counts span at most SPAN
four_counts = st.lists(st.one_of(st.just(0.0), st.integers(1, int(SPAN)).map(float),
                                 st.floats(1.0, SPAN)), min_size=4, max_size=4).filter(any)


@settings(max_examples=300, deadline=None)
@given(four_counts)
@example([1.0, 0.0, 0.5, 0.5])  # a pure inversion, on the cone up to the rows' rounding
@example([0.0, 0.0, 1.0, 0.0])  # D alone, far outside: a pure fit an ulp below 1
@example([58.0, 0.0, 4907223.0, 766861.0])  # a pure fit 4 ulp below 1
def test_a_four_setting_fit_is_pure_wherever_the_inversion_is_not_psd(counts):
    """The theorem the tomography sweep's four_setting_p relies on: every H V D R
    Stokes row lies in the cone, so the fit's optimum is the inversion where
    that is PSD, and else on the sphere, P = 1, and never a mixed interior
    point.  PSD is decided on the exact inversion; within 1e-12 of the cone,
    where rounding may tip the fit's own test, either path may be taken."""
    matrix, diag = _fit(np.array(counts), DEFAULT_SETTINGS)
    x0, *v = exact_inversion(counts)
    cone = x0 * x0 - sum(c * c for c in v)  # >= 0 with x0 >= 0 on the PSD cone
    if abs(cone) > 1e-12 * (x0 * x0 + sum(c * c for c in v)):
        assert diag.path == ("exact" if x0 >= 0 and cone > 0 else "boundary")
    assert diag.path in ("exact", "boundary")
    if diag.path == "boundary":
        assert degree_of_polarization(CoherenceMatrix(matrix)) >= 1.0 - 1e-15
