import math
import tracemalloc

import numpy as np
import pytest

from maskcov import (InputError, SeedSpec, banded_mask, circle_net,
                     compare_means, concentration_check, custom_mask,
                     decoupling_check, enum_regular, max_bilinear_regular,
                     minor_mask, net_norm_bound_check, reg_norm_bound_check,
                     sigma_x_lipschitz_check, sigma_x_mean_check)
from maskcov.sampler import GaussianModel
from maskcov.verify import MAX_ENUM_DIM, _sigma_x
from oracles import (brute_force_max_bilinear, einsum_decoupling_sups,
                     row_layout_max_bilinear_regular)


class TestEnumRegular:
    def test_p2_s1(self):
        vecs = enum_regular(2, 1)
        expected = [[1, 0], [-1, 0], [0, 1], [0, -1]]
        assert np.array_equal(vecs, expected)

    def test_p2_s2(self):
        vecs = enum_regular(2, 2)
        assert vecs.shape == (4, 2)
        assert np.allclose(np.abs(vecs), 1 / np.sqrt(2))

    def test_p3_s2_cardinality(self):
        assert enum_regular(3, 2).shape == (12, 3)

    def test_cardinality_formula(self):
        for p in range(1, 11):
            for s in range(1, p + 1):
                count = enum_regular(p, s).shape[0]
                assert count == math.comb(p, s) * 2 ** s

    def test_unit_norm_and_support(self):
        vecs = enum_regular(6, 3)
        assert np.allclose(np.linalg.norm(vecs, axis=1), 1.0)
        assert ((vecs != 0).sum(axis=1) == 3).all()

    def test_size_guard(self):
        with pytest.raises(InputError):
            enum_regular(15, 2)
        with pytest.raises(InputError):
            enum_regular(4, 0)


class TestRegNormBound:
    def test_identity(self):
        report = reg_norm_bound_check(np.eye(2))
        assert report.lhs == pytest.approx(1.0)
        assert report.rhs == pytest.approx(48.0)
        assert report.passed and report.stderr == 0.0

    def test_zero_matrix(self):
        report = reg_norm_bound_check(np.zeros((3, 3)))
        assert report.lhs == 0.0 and report.rhs == 0.0 and report.passed

    def test_seeded_matrices_pass(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            assert reg_norm_bound_check(rng.standard_normal((8, 8))).passed

    def test_closed_form_matches_brute_force(self):
        # the per-x reduction over y must equal exhaustive pair enumeration
        rng = np.random.default_rng(14)
        for p in (1, 2, 3, 4, 5):
            union = np.vstack([enum_regular(p, s)
                               for s in range(1, p + 1)])
            for _ in range(10):
                a = rng.standard_normal((p, p))
                assert max_bilinear_regular(a) == pytest.approx(
                    brute_force_max_bilinear(a, union), abs=1e-12)

    def test_memory_is_bounded_and_released(self):
        # all 3^12 - 1 regular vectors would take 49 MiB
        a = np.random.default_rng(22).standard_normal((12, 12))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            max_bilinear_regular(a)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 16 * 2 ** 20
        assert after - before < 2 ** 16

    def test_codes_fit_in_int32(self):
        # max_bilinear_regular builds its balanced-ternary codes as int32
        assert 3 ** MAX_ENUM_DIM < 2 ** 31

    def test_two_chunks_match_the_row_layout_bit_for_bit(self):
        # (3^10 - 1) / 2 = 29524 vectors scan in two chunks of 20000
        a = np.random.default_rng(23).standard_normal((10, 10))
        assert max_bilinear_regular(a) == row_layout_max_bilinear_regular(a)


class TestNetNormBound:
    def test_identity_on_circle_net(self):
        net, delta = circle_net(360)
        report = net_norm_bound_check(np.eye(2), net, delta)
        assert report.lhs == pytest.approx(1.0)
        assert report.passed

    def test_inequality_direction(self):
        # a dense net: rhs -> (1 - delta)^-2 ||A|| >= ||A||
        net, delta = circle_net(3600)
        a = np.array([[1.0, 2.0], [0.0, -1.0]])
        report = net_norm_bound_check(a, net, delta)
        assert report.rhs >= report.lhs

    def test_seeded_matrices_pass(self):
        net, delta = circle_net(360)
        rng = np.random.default_rng(15)
        for _ in range(100):
            assert net_norm_bound_check(rng.standard_normal((2, 2)), net,
                                        delta).passed

    def test_rejects_bad_delta(self):
        with pytest.raises(InputError):
            net_norm_bound_check(np.eye(2), np.eye(2), 1.0)


class TestDecouplingCheck:
    def test_zero_family(self):
        report = decoupling_check([np.zeros((2, 2))], np.eye(2), 10 ** 4,
                                  SeedSpec(0, 0))
        assert report.lhs == 0.0 and report.rhs == 0.0 and report.passed

    def test_one_dimensional_analytic(self):
        report = decoupling_check([np.eye(1)], np.eye(1), 10 ** 6,
                                  SeedSpec(0, 1))
        # rhs estimates 2 E|Z Z'| = 4/pi
        assert report.rhs == pytest.approx(4.0 / math.pi, rel=0.01)
        assert report.passed

    def test_random_family(self):
        rng = np.random.default_rng(17)
        family = [(m + m.T) / 2 for m in rng.standard_normal((5, 4, 4))]
        root = rng.standard_normal((4, 4))
        report = decoupling_check(family, root @ root.T, 10 ** 4,
                                  SeedSpec(0, 2))
        assert report.passed

    def test_rejects_empty_family(self):
        with pytest.raises(InputError):
            decoupling_check([], np.eye(2), 10 ** 4, SeedSpec(0, 0))

    def test_rejects_few_trials(self):
        with pytest.raises(InputError):
            decoupling_check([np.eye(2)], np.eye(2), 100, SeedSpec(0, 0))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_sups_match_the_three_operand_einsum(self, monkeypatch, d):
        seen = {}

        def capture(lemma, lhs, rhs):
            seen.update(lhs=lhs, rhs=rhs)
            return compare_means(lemma, lhs, rhs)

        monkeypatch.setattr("maskcov.verify.compare_means", capture)
        rng = np.random.default_rng(d)
        for k in range(1, 6):
            family = [(m + m.T) / 2 for m in rng.standard_normal((k, d, d))]
            root = rng.standard_normal((d, d))
            seed = SeedSpec(d, k)
            decoupling_check(family, root @ root.T, 10 ** 4, seed)
            model = GaussianModel.from_covariance(root @ root.T)
            same, cross, size = einsum_decoupling_sups(
                family, model.sigma, model.factor, 10 ** 4, seed.generator())
            # relative to the terms' size: the forms may cancel to near 0
            assert (np.abs(seen["lhs"] - same) <= 1e-12 * size).all()
            assert (np.abs(seen["rhs"] - 2.0 * cross) <= 2e-12 * size).all()

    def test_pinned_report(self):
        # recorded before the check was routed through compare_means:
        # doubling the cross term is exact, so every bit is unchanged
        family = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]
        report = decoupling_check(family, np.array([[2.0, 0.5], [0.5, 1.0]]),
                                  10 ** 4, SeedSpec(3, 1))
        assert (report.lhs, report.rhs, report.stderr) == (
            2.9059264547599724, 3.8361128101637325, 0.04321266244832332)
        assert report.passed and report.trials == 10 ** 4


class TestCompareMeans:
    # lhs mean 4, variance 1; rhs mean 2, variance 2: the lhs exceeds
    # the rhs by 2 / sqrt(1/3 + 1) = 1.73 standard errors
    LHS, RHS = [3.0, 4.0, 5.0], [1.0, 3.0]

    def test_hand_computed(self):
        report = compare_means("toy", self.LHS, self.RHS)
        assert (report.lemma, report.lhs, report.rhs) == ("toy", 4.0, 2.0)
        assert report.stderr == math.sqrt(1.0 / 3.0 + 1.0)
        assert report.trials == 3 and report.passed

    @pytest.mark.parametrize("margin,passed", [(1.8, True), (1.7, False)])
    def test_margin_decides(self, monkeypatch, margin, passed):
        monkeypatch.setattr("maskcov.verify.STDERR_MARGIN", margin)
        assert compare_means("toy", self.LHS, self.RHS).passed is passed

    def test_rejects_single_draw(self):
        with pytest.raises(InputError):
            compare_means("toy", [1.0], [1.0, 2.0])


class TestConcentrationCheck:
    def test_linear_true_tail(self):
        reports = concentration_check("linear", 1.0, np.eye(3), 10 ** 5,
                                      (1.0,), SeedSpec(1, 0))
        [report] = reports
        assert report.lhs == pytest.approx(0.1587, abs=0.01)
        assert report.rhs == pytest.approx(0.5 * math.exp(-0.5))
        assert report.passed

    def test_t_zero_symmetry(self):
        [report] = concentration_check("linear", 1.0, np.eye(2), 10 ** 5,
                                       (0.0,), SeedSpec(1, 1))
        assert report.rhs == 0.5
        assert report.passed

    def test_sup_norm(self):
        reports = concentration_check("sup-norm", 1.0, np.eye(50), 10 ** 5,
                                      (0.5, 1.0, 1.5), SeedSpec(1, 2))
        assert all(r.passed for r in reports)

    def test_euclidean_norm(self):
        reports = concentration_check("euclidean-norm", 1.0, np.eye(10),
                                      10 ** 5, (0.5, 1.0), SeedSpec(1, 3))
        assert all(r.passed for r in reports)

    def test_rejects_unknown_tag(self):
        with pytest.raises(InputError):
            concentration_check("median", 1.0, np.eye(2), 100, (1.0,),
                                SeedSpec(0, 0))


class TestSigmaX:
    def test_identity_mask_basis_vector(self):
        value = _sigma_x(np.array([[3.0, 4.0]]), np.array([1.0, 0.0]),
                         custom_mask(np.eye(2)).matrix)
        assert value == pytest.approx(3.0)

    def test_zero_mask(self):
        value = _sigma_x(np.array([[3.0, 4.0]]), np.array([1.0, 0.0]),
                         custom_mask(np.zeros((2, 2))).matrix)
        assert value == 0.0

    def test_homogeneous_in_batch(self):
        rng = np.random.default_rng(18)
        matrix = banded_mask(5, 1).matrix
        x = rng.standard_normal(5)
        x /= np.linalg.norm(x)
        obs = rng.standard_normal((7, 5))
        base = _sigma_x(obs, x, matrix)
        scaled = _sigma_x(2.5 * obs, x, matrix)
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)

    def test_stacked_batches_match_one_at_a_time(self):
        rng = np.random.default_rng(20)
        matrix = banded_mask(5, 1).matrix
        x = np.full(5, 1.0 / math.sqrt(5))
        obs = rng.standard_normal((3, 7, 5))
        assert _sigma_x(obs, x, matrix) == pytest.approx(
            [_sigma_x(b, x, matrix) for b in obs], rel=1e-14)

    def test_square_is_the_eigenvalue_weighted_sum(self):
        # n^2 sigma_x^2 = sum_k X_k^T A X_k, A = (M D_x)^T (M D_x) = Q L Q^T:
        # the lambda-weighted sum of the squared coordinates of X_k Q
        rng = np.random.default_rng(24)
        matrix = banded_mask(12, 2).matrix
        x = rng.standard_normal(12)
        x /= np.linalg.norm(x)
        obs = rng.standard_normal((50, 12))
        scaled = matrix * x
        lam, q = np.linalg.eigh(scaled.T @ scaled)
        assert (50 * _sigma_x(obs, x, matrix)) ** 2 == pytest.approx(
            float(np.square(obs @ q).sum(axis=0) @ lam), rel=1e-12)

    def test_chi_square_law_matches_direct_draws(self):
        # the check draws sum_j lambda_j chi^2_n; _sigma_x on n x p
        # normals must have the same mean and variance (20,000 batches
        # a side, 4 standard errors)
        mask, n, batches = banded_mask(12, 2), 20, 20_000
        rng = np.random.default_rng(25)
        x = rng.standard_normal(12)
        x /= np.linalg.norm(x)
        report = sigma_x_mean_check(mask, x, n, batches, SeedSpec(4, 0))
        direct = np.concatenate([
            _sigma_x(rng.standard_normal((2_000, n, 12)), x, mask.matrix)
            for _ in range(batches // 2_000)])
        var = report.stderr ** 2 * batches  # the check's ddof=1 variance
        mean_se = math.sqrt(var / batches + direct.var(ddof=1) / batches)
        assert abs(report.lhs - direct.mean()) < 4.0 * mean_se
        # a sample variance's standard error is sqrt((m4 - var^2) / N),
        # here from the direct side's fourth moment for both sides
        dev = direct - direct.mean()
        var_se = math.sqrt(2.0 * (np.mean(dev ** 4) - direct.var() ** 2)
                           / batches)
        assert abs(var - direct.var(ddof=1)) < 4.0 * var_se

    def test_rejects_non_unit_x(self):
        with pytest.raises(InputError):
            sigma_x_mean_check(banded_mask(3, 1), np.array([1.0, 1.0, 0.0]),
                               n=5, batches=2, seed=SeedSpec(0, 0))

    def test_mean_bound(self):
        mask = banded_mask(12, 2)
        rng = np.random.default_rng(19)
        x = rng.standard_normal(12)
        report = sigma_x_mean_check(mask, x / np.linalg.norm(x), n=50,
                                    batches=2000, seed=SeedSpec(2, 0))
        assert report.passed


class TestSigmaXLipschitz:
    def test_identity_mask(self):
        report = sigma_x_lipschitz_check(custom_mask(np.eye(6)), 1, 10 ** 3,
                                         SeedSpec(3, 0))
        assert report.passed

    def test_banded_mask_sparse_direction(self):
        report = sigma_x_lipschitz_check(banded_mask(8, 2), 2, 10 ** 3,
                                         SeedSpec(3, 1))
        assert report.passed

    def test_minor_mask(self):
        report = sigma_x_lipschitz_check(minor_mask(6, [0, 1, 4]), 1, 10 ** 3,
                                         SeedSpec(3, 2))
        assert report.passed

    def test_size_guard(self):
        with pytest.raises(InputError):
            sigma_x_lipschitz_check(banded_mask(6, 1), 7, 100, SeedSpec(0, 0))
