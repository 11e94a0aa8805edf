import numpy as np
import pytest

from maskcov import (GaussianModel, InputError, NotPSDError, custom_mask,
                     mask_from_spec, minor_mask, norm_one_two, spectral_norm,
                     symmetrize)
from maskcov.linalg import SYMMETRY_RTOL, is_symmetric, matrix_from_csv
from oracles import jacobi_eigenvalues


def root_of(s):
    """The symmetric PSD root of an outside matrix."""
    return GaussianModel.from_covariance(s).factor


class TestMaskProduct:
    """M . A as the harness forms it: numpy's * on the mask's array."""

    def test_entrywise_product(self):
        mask = custom_mask([[0.0, 1.0], [1.0, 0.0]])
        out = mask.block * np.array([[1.0, 2.0], [2.0, 1.0]])
        assert np.array_equal(out, [[0, 2], [2, 0]])

    def test_all_ones_is_identity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5))
        assert np.array_equal(minor_mask(5, range(5)).block * a, a)

    def test_zero_mask(self):
        a = np.arange(9.0).reshape(3, 3)
        mask = custom_mask(np.zeros((3, 3)))
        assert np.array_equal(mask.matrix * a, np.zeros((3, 3)))

    def test_dimension_mismatch(self, tmp_path):
        # the product checks no shapes: a mask of another dimension is
        # refused when the config's mask is built, before any product
        path = tmp_path / "mask.csv"
        np.savetxt(path, np.ones((2, 2)), delimiter=",", fmt="%.17g")
        with pytest.raises(InputError, match="custom mask is 2x2"):
            mask_from_spec({"kind": "custom", "path": str(path)}, 3)

    def test_commutative(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        mask = custom_mask(b + b.T)
        assert np.array_equal(mask.block * a, a * mask.block)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(7)) == pytest.approx(1.0)

    def test_antidiagonal(self):
        assert spectral_norm([[0, 2], [2, 0]]) == pytest.approx(2.0)

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            a = rng.standard_normal((8, 8))
            a = (a + a.T) / 2
            oracle = float(np.abs(jacobi_eigenvalues(a)).max())
            assert spectral_norm(a) == pytest.approx(oracle, abs=1e-9)

    def test_transpose_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = rng.standard_normal((rng.integers(2, 7), rng.integers(2, 7)))
            assert spectral_norm(a) == pytest.approx(spectral_norm(a.T),
                                                     abs=1e-9)

    def test_norm_sandwich(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rows, cols = rng.integers(2, 8, size=2)
            a = rng.standard_normal((rows, cols))
            p = max(rows, cols)
            assert spectral_norm(a) >= norm_one_two(a) / np.sqrt(p) - 1e-12
            assert spectral_norm(a) <= (np.sqrt(rows * cols)
                                        * np.abs(a).max() + 1e-12)

    def test_rejects_nan(self):
        with pytest.raises(InputError):
            spectral_norm([[np.nan, 0], [0, 1]])


class TestNormOneTwo:
    def test_identity(self):
        assert norm_one_two(np.eye(6)) == pytest.approx(1.0)

    def test_all_ones(self):
        assert norm_one_two(np.ones((4, 4))) == pytest.approx(2.0)

    def test_tridiagonal(self):
        p = 5
        idx = np.arange(p)
        tri = (np.abs(idx[:, None] - idx[None, :]) <= 1).astype(float)
        assert norm_one_two(tri) == pytest.approx(np.sqrt(3.0))

    @pytest.mark.parametrize("entry", [1e160, 2e-162, -3e-320])
    def test_extreme_magnitudes(self, entry):
        # squaring 1e160 overflows and squaring 2e-162 underflows
        assert norm_one_two([[entry]]) == abs(entry)
        assert norm_one_two([[entry]]) <= spectral_norm([[entry]])
        assert norm_one_two([[entry, 0.0], [entry, 0.0]]) == pytest.approx(
            np.sqrt(2.0) * abs(entry), rel=1e-15)


class TestCovarianceRoot:
    """The symmetric PSD square root that a model of a covariance takes."""

    def test_identity(self):
        assert np.allclose(root_of(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(root_of(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_multiply_back(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        psd = a.T @ a
        root = root_of(psd)
        assert np.allclose(root, root.T)
        assert np.abs(root @ root - psd).max() <= 1e-8 * max(
            1.0, spectral_norm(psd))

    def test_clamps_tiny_negatives(self):
        eps = 1e-12
        root = root_of(np.diag([1.0, -eps]))
        assert root[1, 1] == 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            root_of(np.diag([1.0, -1.0]))


class TestIsSymmetric:
    @pytest.mark.parametrize("a", [
        [[1.0, 2.0], [2.0, 1.0]],
        [[1.0, 2.0 + 1e-13], [2.0, 1.0]],
        [[1.0, 2.0 + 1e-10], [2.0, 1.0]],
        # the scale is the largest |entry|, here a negative one
        [[-1e6, 1e-7], [1.1e-7, 0.0]],
        [[1.0, np.nan], [np.nan, 1.0]],
        [[np.nan, 0.0], [0.0, 1.0]],
        [[1.0, np.inf], [np.inf, 1.0]],
        [[1.0, np.inf], [0.0, 1.0]],
        [[1e308, -1e308], [1e308, 1e308]],  # the difference overflows
    ], ids=["exact", "within-rtol", "beyond-rtol", "negative-scale",
            "nan-off-diagonal", "nan-diagonal", "inf", "inf-asymmetric",
            "overflow"])
    def test_verdict_is_the_tolerance_rule(self, a):
        a = np.array(a)
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf
            rule = float(np.abs(a - a.T).max()) <= SYMMETRY_RTOL * max(
                1.0, float(np.abs(a).max()))
            assert is_symmetric(a) == rule

    def test_non_square_is_not_symmetric(self):
        assert not is_symmetric(np.ones((2, 3)))


class TestSymmetrize:
    def test_averages_roundoff(self):
        a = np.array([[1.0, 2.0 + 1e-15], [2.0, 1.0]])
        out = symmetrize(a)
        assert np.array_equal(out, out.T)

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            symmetrize([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(InputError):
            symmetrize(np.ones((2, 3)))


class TestMatrixCsv:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(20)
        mat = rng.standard_normal((5, 3))
        path = tmp_path / "m.csv"
        np.savetxt(path, mat, delimiter=",", fmt="%.17g")
        assert np.array_equal(matrix_from_csv(path), mat)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            matrix_from_csv(tmp_path / "nope.csv")
