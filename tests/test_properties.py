"""Hypothesis property tests: round trips, norm order, bound monotonicity,
mask-norm homogeneity and the sampler's root over generated inputs up to
8x8 (12 columns for the root)."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maskcov import (GaussianModel, SeedSpec, TrialResult, custom_mask,
                     draw_samples, emit_results, read_results)
from maskcov.bounds import (bound_bai_yin, bound_minor, bound_refined,
                            bound_theorem_main)
from maskcov.linalg import norm_one_two, spectral_norm
from maskcov.serialize import matrix_from_csv, matrix_to_csv

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

finite = st.floats(allow_nan=False, allow_infinity=False)
shapes = st.tuples(st.integers(1, 8), st.integers(1, 8))
matrices = shapes.flatmap(lambda shape: arrays(np.float64, shape,
                                               elements=finite))
#: Entries from subnormal to near overflow: their squares may overflow or
#: underflow, a sum of 8 of them may not.
wide = st.one_of(st.just(0.0), st.floats(5e-324, 1e300),
                 st.floats(-1e300, -5e-324))
nonneg = st.floats(0.0, 1e6)
#: Entries whose products with any scale in [1e-3, 1e3] neither
#: overflow nor underflow, so scaling keeps every nonzero entry nonzero.
moderate = st.one_of(st.just(0.0), st.floats(1e-6, 1e6),
                     st.floats(-1e6, -1e-6))


@st.composite
def symmetric_matrices(draw):
    p = draw(st.integers(1, 8))
    upper = draw(arrays(np.float64, (p, p), elements=moderate))
    return np.triu(upper) + np.triu(upper, 1).T


int64 = st.integers(-2 ** 63, 2 ** 63 - 1)
trial_results = st.builds(
    TrialResult, n=int64, p=int64, m=int64, replicate=int64, error=finite,
    bounds=st.dictionaries(
        st.sampled_from(["refined", "theorem_main", "bai_yin", "minor",
                         "decoupled"]), finite))


@PROPERTY
@given(matrices)
def test_matrix_csv_round_trip(mat):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        matrix_to_csv(mat, path)
        assert np.array_equal(matrix_from_csv(path), mat)


@PROPERTY
@given(st.lists(trial_results, min_size=1, max_size=8),
       st.sampled_from(["csv", "json"]))
def test_results_round_trip(results, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"r.{fmt}"
        emit_results(results, fmt, path)
        assert read_results(path) == results


@PROPERTY
@given(st.one_of(symmetric_matrices(), shapes.flatmap(
    lambda shape: arrays(np.float64, shape, elements=wide))))
def test_norm_one_two_at_most_spectral_norm(mat):
    assert norm_one_two(mat) <= spectral_norm(mat) * (1.0 + 1e-12)


@PROPERTY
@given(nonneg, nonneg, nonneg, st.integers(1, 10 ** 6),
       st.integers(1, 10 ** 6), st.integers(1, 4096), st.integers(1, 4096))
def test_bounds_nonincreasing_in_n(norm_12, norm_op, sigma_norm, n1, n2, p, m):
    lo, hi = sorted((n1, n2))
    for bound in (
            lambda n: bound_refined(norm_12, norm_op, n, p, sigma_norm),
            lambda n: bound_theorem_main(norm_12, norm_op, n, p, sigma_norm),
            lambda n: bound_bai_yin(p, n, sigma_norm),
            lambda n: bound_minor(m, n, sigma_norm)):
        assert bound(lo) >= bound(hi)


@PROPERTY
@given(symmetric_matrices(),
       st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)))
def test_custom_mask_norms_scale_with_c(mat, c):
    base, scaled = custom_mask(mat), custom_mask(c * mat)
    assert scaled.max_col_nnz == base.max_col_nnz
    assert np.isclose(scaled.norm_12, abs(c) * base.norm_12, rtol=1e-12)
    assert np.isclose(scaled.norm_op, abs(c) * base.norm_op, rtol=1e-10,
                      atol=0.0)


@PROPERTY
@given(st.integers(1, 40), st.integers(1, 12), st.integers(0, 2 ** 32 - 1),
       st.floats(-0.9, 0.9))
def test_root_shape_zero_pattern_and_psd_gram(n, dim, seed, rho):
    spec = SeedSpec(seed, 0)
    w = draw_samples(GaussianModel.identity(dim), n, spec).root
    k = min(n - 1, dim)
    assert w.shape == (k + 1, dim)
    rows, cols = np.indices(w.shape)
    assert not w[(rows >= 1) & (cols < rows - 1)].any()
    assert (w[np.arange(1, k + 1), np.arange(k)] > 0.0).all()
    model = GaussianModel.ar1(dim, rho)
    y = draw_samples(model, n, spec).root
    assert np.array_equal(y, w @ model.factor)
    eigs = np.linalg.eigvalsh(y.T @ y)
    assert eigs.min() >= -1e-10 * max(np.abs(eigs).max(), 1e-300)
