"""Property tests of the maximum-likelihood fit over arbitrary non-negative
counts, for the four default settings and a six-setting set."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import SIX_SETTINGS
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


@settings(max_examples=200, deadline=None)
@given(tables)
def test_fit_is_psd_deterministic_and_p_is_a_fraction(table):
    setting_set, counts = table
    counts = np.array(counts)
    rec = mle_reconstruct(counts, setting_set)
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
        assert diag.path == "optimizer" and 1 <= diag.polish_rounds <= 8
