import math
import tracemalloc

import numpy as np
import pytest

from maskcov import (InputError, banded_mask, custom_mask, mask_from_spec,
                     minor_mask, norm_one_two, spectral_norm, taper_mask,
                     threshold_mask)


class TestMinorMask:
    def test_single_index(self):
        mask = minor_mask(3, [0])
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.array_equal(mask.matrix, expected)
        assert mask.max_col_nnz == 1

    def test_full_set_is_all_ones(self):
        mask = minor_mask(4, range(4))
        assert np.array_equal(mask.matrix, np.ones((4, 4)))
        assert mask.norm_op == pytest.approx(4.0)
        assert mask.norm_12 == pytest.approx(2.0)

    def test_block_norm_equals_cardinality(self):
        mask = minor_mask(5, [1, 3])
        assert mask.norm_op == pytest.approx(2.0)
        assert mask.norm_12 == pytest.approx(np.sqrt(2.0))

    def test_built_on_its_block_alone(self):
        # a dense 2048 x 2048 float array alone would take 32 MiB
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mask = minor_mask(2048, range(0, 2048, 256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 2 ** 20
        assert mask.max_col_nnz == 8
        assert mask.norm_12 == math.sqrt(8)
        assert mask.norm_op == 8.0

    def test_statistics_are_exact(self):
        # eigvalsh of the all-ones block misses m in the last bit for 190
        # of these m (3.999999999999999 at m = 4)
        for m in range(1, 300):
            mask = minor_mask(300, range(m))
            assert (mask.max_col_nnz, mask.norm_12, mask.norm_op) == (
                m, math.sqrt(m), m)

    def test_rejects_bad_indices(self):
        with pytest.raises(InputError):
            minor_mask(3, [3])
        with pytest.raises(InputError):
            minor_mask(3, [])


class TestBandedMask:
    def test_zero_bandwidth_is_identity(self):
        assert np.array_equal(banded_mask(4, 0).matrix, np.eye(4))

    def test_tridiagonal(self):
        mask = banded_mask(4, 1)
        assert mask.max_col_nnz == 3
        assert mask.matrix[0, 1] == 1.0 and mask.matrix[0, 2] == 0.0

    def test_full_bandwidth_is_all_ones(self):
        assert np.array_equal(banded_mask(4, 3).matrix, np.ones((4, 4)))

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            banded_mask(4, 4)


class TestTaperMask:
    def test_weights_at_distances(self):
        mask = taper_mask(8, 4)
        weights = [mask.matrix[0, d] for d in range(5)]
        assert weights == pytest.approx([1.0, 1.0, 1.0, 0.5, 0.0])

    def test_entries_in_unit_interval_with_unit_diagonal(self):
        mask = taper_mask(9, 6)
        assert (mask.matrix >= 0.0).all() and (mask.matrix <= 1.0).all()
        assert np.array_equal(np.diag(mask.matrix), np.ones(9))

    def test_width_two_equals_banded_one(self):
        assert np.array_equal(taper_mask(6, 2).matrix, banded_mask(6, 1).matrix)

    def test_nonincreasing_in_distance(self):
        mask = taper_mask(10, 8)
        row = mask.matrix[0]
        assert (np.diff(row) <= 1e-12).all()

    def test_rejects_odd_width(self):
        with pytest.raises(InputError):
            taper_mask(8, 3)


class TestThresholdMask:
    def test_keeps_large_entries(self):
        sig = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert np.array_equal(threshold_mask(sig, 0.5).matrix, np.eye(2))
        assert np.array_equal(threshold_mask(sig, 0.2).matrix, np.ones((2, 2)))

    def test_diagonal_always_kept(self):
        sig = np.array([[0.1, 0.0], [0.0, 0.1]])
        assert np.array_equal(threshold_mask(sig, 10.0).matrix, np.eye(2))

    def test_peak_below_two_and_a_half_arrays(self):
        # the 0/1 mask and its statistics' copies, about 2.1 p x p arrays
        # above the input; each float temporary kept alive adds one
        p = 512
        a = np.random.default_rng(2).standard_normal((p, p))
        sig = (a + a.T) / 2.0
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            threshold_mask(sig, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - before) / (8 * p * p) < 2.5

    def test_rejects_nonpositive_threshold(self):
        for h in (0.0, -1.0, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InputError):
                threshold_mask(np.eye(2), h)

    @pytest.mark.parametrize("sig", [[[1.0, 0.5], [0.0, 1.0]],
                                     [[1.0, np.nan], [np.nan, 1.0]],
                                     np.ones((2, 3))],
                             ids=["asymmetric", "non-finite", "non-square"])
    def test_rejects_bad_sample_covariance(self, sig):
        with pytest.raises(InputError):
            threshold_mask(sig, 0.3)


class TestCustomMask:
    def test_identity_statistics(self):
        mask = custom_mask(np.eye(5))
        assert (mask.max_col_nnz, mask.norm_12, mask.norm_op) == (1, 1.0, 1.0)

    def test_zero_statistics(self):
        mask = custom_mask(np.zeros((4, 4)))
        assert (mask.max_col_nnz, mask.norm_12, mask.norm_op) == (0, 0.0, 0.0)

    def test_statistics_match_recomputation(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((7, 7))
        mask = custom_mask((a + a.T) / 2)
        assert mask.norm_12 == pytest.approx(norm_one_two(mask.matrix),
                                             abs=1e-9)
        assert mask.norm_op == pytest.approx(spectral_norm(mask.matrix),
                                             abs=1e-9)
        assert mask.max_col_nnz == int((mask.matrix != 0).sum(axis=0).max())

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            custom_mask([[0.0, 1.0], [0.0, 0.0]])

    def test_entries_near_overflow(self):
        # finite and symmetric, though M + M^T overflows
        mat = np.array([[1e308, 5e307], [5e307, 1e308]])
        mask = custom_mask(mat)
        assert np.array_equal(mask.matrix, mat)
        assert mask.norm_op == pytest.approx(1.5e308, rel=1e-12)


class TestInvariants:
    @pytest.mark.parametrize("mask", [
        minor_mask(6, [0, 2, 5]),
        banded_mask(7, 2),
        threshold_mask(np.eye(4), 0.5),
    ])
    def test_binary_mask_norm_relations(self, mask):
        m = mask.max_col_nnz
        assert mask.norm_12 == pytest.approx(np.sqrt(m), abs=1e-12)
        assert mask.norm_op <= m + 1e-9

    def test_banded_equals_thresholded_inverse_distance(self):
        p, k = 8, 2
        idx = np.arange(p)
        decay = 1.0 / (1.0 + np.abs(idx[:, None] - idx[None, :]))
        thresholded = threshold_mask(decay, 1.0 / (1.0 + k))
        assert np.array_equal(thresholded.matrix, banded_mask(p, k).matrix)


class TestEquality:
    def test_masks_compare_by_identity(self):
        a, b = minor_mask(3, [0, 1]), minor_mask(3, [0, 1])
        assert a == a and a != b
        assert len({a, b}) == 2


class TestMaskFromSpec:
    def test_banded_spec(self):
        mask = mask_from_spec({"kind": "banded", "k": 3}, 8)
        assert np.array_equal(mask.matrix, banded_mask(8, 3).matrix)
        assert mask.max_col_nnz == 7

    def test_minor_spec(self):
        mask = mask_from_spec({"kind": "minor", "S": [0, 1]}, 4)
        assert np.array_equal(mask.matrix, minor_mask(4, [0, 1]).matrix)

    def test_taper_spec(self):
        mask = mask_from_spec({"kind": "taper", "k": 4}, 6)
        assert np.array_equal(mask.matrix, taper_mask(6, 4).matrix)

    def test_threshold_spec_needs_data(self):
        with pytest.raises(InputError):
            mask_from_spec({"kind": "threshold", "h": 0.2}, 4)
        mask = mask_from_spec({"kind": "threshold", "h": 0.2}, 2,
                              sigma_hat=np.eye(2))
        assert np.array_equal(mask.matrix, threshold_mask(np.eye(2), 0.2).matrix)

    def test_custom_spec_roundtrip(self, tmp_path):
        path = tmp_path / "mask.csv"
        np.savetxt(path, np.eye(3), delimiter=",", fmt="%.17g")
        mask = mask_from_spec({"kind": "custom", "path": str(path)}, 3)
        assert np.array_equal(mask.matrix, np.eye(3))
        assert mask.max_col_nnz == 1

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            mask_from_spec({"kind": "mystery"}, 3)
