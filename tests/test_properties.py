"""Hypothesis property tests: round trips, norm order, the largest
singular value against an SVD, bound monotonicity, mask-norm
homogeneity, exact symmetrize up to overflow, the exact homogeneity of
the masking product, masks stored on their support, the norms read off
trusted symmetric input and the sampler's root over generated inputs up
to 8x8 (12 columns for masks on a support, covariances and the root;
the AR(1) factor on a support up to 64, its norm up to 256)."""

import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maskcov import (GaussianModel, SampleBatch, SeedSpec, TrialResult,
                     banded_mask, custom_mask, draw_samples, emit_results,
                     max_bilinear_regular, minor_mask, read_results,
                     sample_covariance, sample_covariance_centered,
                     taper_mask, threshold_mask)
from maskcov.bounds import bound_minor, bound_refined, bound_theorem_main
from maskcov.linalg import (largest_singular_value, matrix_from_csv,
                            norm_one_two, spectral_norm, symmetric_norm,
                            symmetrize)
from oracles import row_layout_max_bilinear_regular, svd_norm

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
#: Entries up to the largest finite magnitudes: A_ij + A_ji may overflow.
huge = st.floats(-1.79e308, 1.79e308)


@st.composite
def symmetric_matrices(draw, elements=moderate):
    p = draw(st.integers(1, 8))
    upper = draw(arrays(np.float64, (p, p), elements=elements))
    return np.triu(upper) + np.triu(upper, 1).T


@st.composite
def nearly_symmetric_matrices(draw, elements=moderate):
    """A symmetric matrix plus an asymmetric part far inside SYMMETRY_RTOL."""
    sym = draw(symmetric_matrices(elements))
    noise = draw(arrays(np.float64, sym.shape, elements=st.floats(-1.0, 1.0)))
    return sym + noise * 2.0 ** -50 * max(1.0, float(np.abs(sym).max()))


@st.composite
def matrix_pairs(draw):
    """Two same-shaped matrices with ``moderate`` entries."""
    shape = draw(shapes)
    return tuple(draw(arrays(np.float64, shape, elements=moderate))
                 for _ in range(2))


@st.composite
def supported_blocks(draw):
    """(p, support, block): a symmetric block with no zero row on a sorted
    support of p <= 12 rows."""
    p = draw(st.integers(1, 12))
    support = np.array(sorted(draw(st.sets(st.integers(0, p - 1),
                                           min_size=1))))
    upper = draw(arrays(np.float64, (support.size,) * 2, elements=moderate))
    block = np.triu(upper) + np.triu(upper, 1).T
    zero = ~block.any(axis=0)
    block[zero, zero] = 1.0
    return p, support, block


@st.composite
def psd_matrices(draw):
    """A^T A for a random A with up to 12 columns: PSD up to roundoff."""
    p = draw(st.integers(1, 12))
    a = draw(arrays(np.float64, (draw(st.integers(1, 12)), p),
                    elements=moderate))
    return a.T @ a


def padded(p, support, block):
    mat = np.zeros((p, p))
    mat[np.ix_(support, support)] = block
    return mat


def assert_same_mask(a, b):
    assert a.dim == b.dim
    assert np.array_equal(a.support, b.support)
    assert np.array_equal(a.block, b.block)
    assert (a.max_col_nnz, a.norm_12) == (b.max_col_nnz, b.norm_12)
    assert np.isclose(a.norm_op, b.norm_op, rtol=1e-12, atol=0.0)


minors = st.integers(1, 12).flatmap(lambda p: st.tuples(
    st.just(p), st.lists(st.integers(0, p - 1), min_size=1, max_size=12)))
#: Banded, taper and threshold masks: a nonzero diagonal, so all p rows
#: are their support.
masks_of_full_support = st.one_of(
    st.integers(1, 12).flatmap(
        lambda p: st.integers(0, p - 1).map(lambda k: banded_mask(p, k))),
    st.integers(2, 12).flatmap(
        lambda p: st.integers(1, p - 1).map(lambda k: taper_mask(p, 2 * k))),
    st.tuples(symmetric_matrices(), st.floats(1e-6, 1e6)).map(
        lambda case: threshold_mask(*case)))
masks_of_every_kind = st.one_of(
    minors.map(lambda case: minor_mask(*case)), masks_of_full_support,
    symmetric_matrices().map(custom_mask))


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
        np.savetxt(path, mat, delimiter=",", fmt="%.17g")
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
@given(shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=wide)))
@example(np.full((3, 7), 1e300))
@example(np.full((7, 3), -1e300))
@example(np.array([[5e-324, 0.0, -5e-324]]))
def test_largest_singular_value_is_the_svd_norm(mat):
    # any shape, entries from subnormal to near overflow: unscaled, the
    # Gram would overflow to inf or underflow to 0
    norm = largest_singular_value(mat)
    assert np.isfinite(norm)
    assert norm == pytest.approx(svd_norm(mat), rel=1e-12)


def test_largest_singular_value_of_zero_is_zero():
    assert largest_singular_value(np.zeros((3, 5))) == 0.0


@PROPERTY
@given(symmetric_matrices())
def test_symmetric_norm_is_spectral_norm_on_symmetric_input(mat):
    assert symmetric_norm(mat) == spectral_norm(mat)


@PROPERTY
@given(nearly_symmetric_matrices())
def test_symmetrize_is_exactly_symmetric_and_idempotent(mat):
    out = symmetrize(mat)
    assert np.array_equal(out, out.T)
    assert np.array_equal(symmetrize(out), out)


@PROPERTY
@given(matrix_pairs())
def test_hadamard_commutes_exactly(pair):
    # M . A == A . M bit for bit: the side of numpy's * that the harness
    # puts the mask on cannot move a result
    a, b = pair
    assert np.array_equal(a * b, b * a)


@PROPERTY
@given(matrix_pairs(), st.integers(-9, 9), st.sampled_from([1.0, -1.0]))
def test_hadamard_is_exactly_homogeneous_under_powers_of_two(pair, k, sign):
    # the harness's M . A is numpy's *: scaling either side by a power of
    # two scales the product bit for bit
    a, b = pair
    c = sign * 2.0 ** k
    assert np.array_equal((c * a) * b, c * (a * b))
    assert np.array_equal(a * (c * b), c * (a * b))


@PROPERTY
@given(nearly_symmetric_matrices(huge))
@example(np.array([[1e308, 5e307], [5e307, 1e308]]))
@example(np.array([[-1.79e308, 5e-324], [5e-324, 1.79e308]]))
def test_symmetrize_is_the_correctly_rounded_mean_up_to_overflow(mat):
    # (A + A^T)/2 is finite for finite A, even where A_ij + A_ji is not;
    # where the plain formula is finite it rounds once, so it is this too
    out = symmetrize(mat)
    exact = [[float((Fraction(a) + Fraction(b)) / 2) for a, b in zip(*rows)]
             for rows in zip(mat, mat.T)]
    assert np.array_equal(out, exact)
    assert np.array_equal(out, out.T)


@PROPERTY
@given(psd_matrices())
def test_model_norm_is_spectral_norm(sigma):
    model = GaussianModel.from_covariance(sigma)
    assert np.isclose(model.sigma_norm, spectral_norm(sigma), rtol=1e-12,
                      atol=0.0)


@PROPERTY
@given(st.integers(1, 256), st.floats(-0.9999, 0.9999))
@example(1, 0.5)
@example(7, 0.0)
@example(200, -0.9999)
def test_ar1_norm_is_the_largest_eigenvalue(p, rho):
    model = GaussianModel.ar1(p, rho)
    assert np.isclose(model.sigma_norm,
                      np.abs(np.linalg.eigvalsh(model.sigma)).max(),
                      rtol=1e-12, atol=0.0)


@st.composite
def ar1_supports(draw):
    """(p, support): a sorted support of p <= 64 coordinates."""
    p = draw(st.integers(1, 64))
    return p, np.array(sorted(draw(st.sets(st.integers(0, p - 1),
                                           min_size=1))))


@PROPERTY
@given(ar1_supports(), st.floats(-0.9999, 0.9999))
@example((64, np.arange(0, 64, 7)), 0.9999)
@example((64, np.array([0, 1, 63])), -0.9999)
def test_ar1_factor_is_the_cholesky_factor_on_any_support(case, rho):
    # the chain at the support's coordinates: upper triangular with a
    # positive diagonal and F^T F = Sigma_S, so Sigma_S's Cholesky factor
    p, support = case
    model = GaussianModel.ar1(p, rho, support)
    factor = model.factor
    assert np.array_equal(factor, np.triu(factor))
    assert (np.diag(factor) > 0.0).all()
    assert np.abs(factor.T @ factor - model.sigma).max() <= 1e-14


@PROPERTY
@given(nonneg, nonneg, nonneg, st.integers(1, 10 ** 6),
       st.integers(1, 10 ** 6), st.integers(1, 4096), st.integers(1, 4096))
def test_bounds_nonincreasing_in_n(norm_12, norm_op, sigma_norm, n1, n2, p, m):
    lo, hi = sorted((n1, n2))
    for bound in (
            lambda n: bound_refined(norm_12, norm_op, n, p, sigma_norm),
            lambda n: bound_theorem_main(norm_12, norm_op, n, p, sigma_norm),
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
@given(supported_blocks())
def test_mask_round_trips_through_its_dense_matrix(case):
    p, support, block = case
    mask = custom_mask(padded(p, support, block))
    assert mask.dim == p
    assert np.array_equal(mask.support, support)
    assert np.array_equal(mask.block, block)
    assert_same_mask(custom_mask(mask.matrix), mask)


@PROPERTY
@given(supported_blocks())
def test_zero_rows_and_columns_change_no_statistic(case):
    p, support, block = case
    bare, wide = custom_mask(block), custom_mask(padded(p, support, block))
    assert ((wide.max_col_nnz, wide.norm_12, wide.norm_op)
            == (bare.max_col_nnz, bare.norm_12, bare.norm_op))


@PROPERTY
@given(masks_of_every_kind)
def test_every_mask_matrix_is_exactly_symmetric(mask):
    mat = mask.matrix
    assert mat.shape == (mask.dim, mask.dim)
    assert np.array_equal(mat, mat.T)


@PROPERTY
@given(masks_of_full_support)
def test_full_support_mask_matches_the_scan_of_its_matrix(mask):
    # built on all p rows without scanning them, yet bit for bit the mask
    # that scanning its dense matrix finds
    scanned = custom_mask(mask.matrix)
    assert np.array_equal(mask.support, np.arange(mask.dim))
    assert np.array_equal(scanned.support, mask.support)
    assert np.array_equal(scanned.block, mask.block)
    assert ((scanned.max_col_nnz, scanned.norm_12, scanned.norm_op)
            == (mask.max_col_nnz, mask.norm_12, mask.norm_op))


@PROPERTY
@given(minors)
def test_minor_mask_matches_custom_mask_of_its_matrix(case):
    mask = minor_mask(*case)
    assert_same_mask(custom_mask(mask.matrix), mask)


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


@PROPERTY
@given(st.integers(1, 40).flatmap(lambda rows: st.integers(1, 40).flatmap(
    lambda cols: arrays(np.float64, (rows, cols), elements=moderate))),
    st.integers(2, 10 ** 6))
def test_sample_covariances_are_exactly_symmetric(root, n):
    # numpy forms Y^T Y by a symmetric rank-k update; no symmetrization
    batch = SampleBatch(root, n, SeedSpec(0, 0))
    for cov in (sample_covariance(batch), sample_covariance_centered(batch)):
        assert np.array_equal(cov, cov.T)


@PROPERTY
@given(st.integers(1, 8).flatmap(
    lambda p: arrays(np.float64, (p, p), elements=moderate)))
def test_max_bilinear_regular_matches_the_row_layout_bit_for_bit(a):
    assert max_bilinear_regular(a) == row_layout_max_bilinear_regular(a)
