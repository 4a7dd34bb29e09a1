"""Property tests of the maximum-likelihood fit over arbitrary non-negative
counts, for the four default settings and a six-setting set."""

import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import SIX_SETTINGS
from polsim.errors import ParameterError
from polsim.tomography import (
    DEFAULT_SETTINGS,
    _fit,
    mle_reconstruct,
    projector_from_setting,
)
from polsim.zwm import degree_of_polarization

count = st.one_of(st.integers(0, 10**6).map(float), st.floats(0.0, 1e9))
tables = st.one_of(
    st.tuples(st.just(DEFAULT_SETTINGS), st.lists(count, min_size=4, max_size=4)),
    st.tuples(st.just(SIX_SETTINGS), st.lists(count, min_size=6, max_size=6)),
)

# A Newton fit's KKT certificate stays below CERTIFICATE_BOUND wherever the
# positive counts span at most a factor SPAN.  Beyond that, a pure optimum can
# sit in a narrow curved valley that a few small counts steer: the Newton
# iteration ends near but not at the optimum, and the certificate, which
# weighs each count by n / mu, says so.  Tables from a detector stay well
# within that span (see the 2016-table test in test_tomography.py).
CERTIFICATE_BOUND = 1e-9
SPAN = 1e6


@settings(max_examples=200, deadline=None)
@given(tables)
@example((DEFAULT_SETTINGS, [5e-324, 0.0, 0.0, 0.0]))
@example((DEFAULT_SETTINGS, [5e-324, 5e-324, 0.0, 0.0]))
@example((SIX_SETTINGS, [1e-13, 3.0, 3.0, 3.0, 37.0, 37.0]))  # pure start orthogonal to H
def test_fit_is_psd_deterministic_and_p_is_a_fraction(table):
    setting_set, counts = table
    counts = np.array(counts)
    try:
        rec = mle_reconstruct(counts, setting_set)
    except ParameterError as err:
        # scaling the fit back to a subnormal total can round G off the cone
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
    assert rec.trace > 0.0
    assert np.linalg.eigvalsh(rec.matrix).min() >= -1e-12 * rec.trace
    assert 0.0 <= degree_of_polarization(rec) <= 1.0
    if diag.path == "exact":
        # four settings and a PSD inversion: the fit reproduces every count
        assert len(setting_set) == 4
        mu = [np.trace(projector_from_setting(s) @ rec.matrix).real for s in setting_set]
        np.testing.assert_allclose(mu, counts, rtol=1e-12, atol=1e-12 * counts.sum())
    else:
        assert diag.path in ("interior", "boundary") and diag.newton_steps >= 1
        assert diag.path == "boundary" or len(setting_set) > 4
        positive = counts[counts > 0]
        if positive.min() * SPAN >= positive.max():
            assert diag.kkt_residual <= CERTIFICATE_BOUND
