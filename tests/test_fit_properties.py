"""Property tests of the maximum-likelihood fit over arbitrary non-negative
counts, for the four default settings and a six-setting set."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import SIX_SETTINGS, fresh_projector
from polsim.errors import IllPosedError, ParameterError
from polsim.tomography import (
    DEFAULT_SETTINGS,
    MeasurementSetting,
    _fit,
    mle_reconstruct,
)
from polsim.zwm import degree_of_polarization

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
        assert diag.path in ("interior", "boundary") and diag.newton_steps >= 1
        assert diag.path == "boundary" or len(setting_set) > 4
        positive = counts[counts > 0]
        if positive.min() * SPAN >= positive.max():
            assert diag.kkt_residual <= CERTIFICATE_BOUND


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
