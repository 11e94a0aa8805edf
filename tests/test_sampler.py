import numpy as np
import pytest

from maskcov import (ExperimentConfig, GaussianModel, InputError, SampleBatch,
                     SeedSpec, banded_mask, decoupled_covariance, draw_samples,
                     hadamard, run_error_experiment, sample_covariance,
                     sample_covariance_centered, spectral_norm)


def batch_of(rows, seed=SeedSpec(0, 0)):
    obs = np.asarray(rows, dtype=float)
    return SampleBatch(obs, seed)


class TestSampleBatch:
    def test_shape_comes_from_observations(self):
        batch = SampleBatch(np.ones((2, 3)), SeedSpec(0, 0))
        assert (batch.n, batch.dim) == (2, 3)
        assert np.array_equal(sample_covariance(batch), np.ones((3, 3)))

    def test_shape_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            SampleBatch(n=5, dim=2, observations=np.ones((2, 2)),
                        seed=SeedSpec(0, 0))


class TestGaussianModel:
    def test_dim_comes_from_sigma(self):
        assert GaussianModel(np.eye(3), None, 1.0).dim == 3
        for model in (GaussianModel.identity(3), GaussianModel.ar1(4, 0.5)):
            assert model.dim == model.sigma.shape[0]

    def test_dim_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            GaussianModel(dim=2, sigma=np.eye(3), factor=None, sigma_norm=1.0)


class TestDrawSamples:
    def test_zero_covariance_gives_zero_samples(self):
        model = GaussianModel.from_covariance(np.zeros((3, 3)))
        batch = draw_samples(model, 5, SeedSpec(1, 0))
        assert np.array_equal(batch.observations, np.zeros((5, 3)))

    def test_deterministic(self):
        model = GaussianModel.ar1(4, 0.5)
        a = draw_samples(model, 20, SeedSpec(123, 7))
        b = draw_samples(model, 20, SeedSpec(123, 7))
        assert np.array_equal(a.observations, b.observations)

    def test_distinct_streams_differ(self):
        model = GaussianModel.identity(4)
        a = draw_samples(model, 20, SeedSpec(123, 7))
        b = draw_samples(model, 20, SeedSpec(123, 8))
        assert not np.array_equal(a.observations, b.observations)

    def test_law_of_large_numbers(self):
        model = GaussianModel.identity(2)
        batch = draw_samples(model, 10 ** 6, SeedSpec(5, 0))
        mean = batch.observations.mean(axis=0)
        var = batch.observations.var(axis=0)
        assert np.abs(mean).max() < 4e-3
        assert np.abs(var - 1.0).max() < 0.01

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            draw_samples(GaussianModel.identity(2), 0, SeedSpec(0, 0))

    @pytest.mark.parametrize("n,p,seed", [(1, 1, 0), (3, 7, 1), (64, 32, 2),
                                          (257, 129, 3), (4096, 256, 4)])
    def test_identity_draw_is_the_normals(self, n, p, seed):
        # the identity model skips the product g @ I, which returns g bit
        # for bit, so it must agree with a model that still multiplies
        spec = SeedSpec(seed, 5)
        fast = draw_samples(GaussianModel.identity(p), n, spec).observations
        product = draw_samples(GaussianModel.from_covariance(np.eye(p)), n,
                               spec).observations
        assert GaussianModel.identity(p).factor is None
        assert np.array_equal(fast, product)
        assert np.array_equal(fast, spec.generator().standard_normal((n, p)))

    # first errors recorded with the sampler that multiplied by the
    # identity factor; a sampler change that moves results fails here
    @pytest.mark.parametrize("config,errors", [
        (dict(sigma={"kind": "identity"},
              mask={"kind": "minor", "S": [0, 3, 5]},
              n_grid=(4, 64), p=12, replicates=2, master_seed=21),
         [0.9597839205422655, 0.545963723995729, 0.4483093181399237,
          0.28161973536238394]),
        # the README config, first replicate only: later replicates do not
        # change the streams of earlier ones
        (dict(sigma={"kind": "ar1", "rho": 0.5},
              mask={"kind": "banded", "k": 2},
              n_grid=(256, 512, 1024, 2048), p=128, replicates=1,
              master_seed=7),
         [0.44613769001418413, 0.36329050991971423, 0.2573621891392883,
          0.1836149873817597]),
    ], ids=["identity-minor", "readme"])
    def test_pinned_errors(self, config, errors):
        results = run_error_experiment(ExperimentConfig(**config))
        assert [t.error for t in results] == pytest.approx(errors, rel=1e-12)


class TestSampleCovariance:
    def test_single_observation(self):
        cov = sample_covariance(batch_of([[1.0, 0.0]]))
        assert np.array_equal(cov, [[1.0, 0.0], [0.0, 0.0]])

    def test_two_observations(self):
        cov = sample_covariance(batch_of([[1.0, 1.0], [1.0, -1.0]]))
        assert np.array_equal(cov, np.eye(2))

    def test_unbiased(self):
        model = GaussianModel.identity(5)
        acc = np.zeros((5, 5))
        reps = 10 ** 4
        for r in range(reps):
            acc += sample_covariance(draw_samples(model, 20, SeedSpec(2, r)))
        assert np.abs(acc / reps - np.eye(5)).max() < 5e-3

    def test_psd(self):
        model = GaussianModel.ar1(6, 0.4)
        for r in range(100):
            cov = sample_covariance(draw_samples(model, 4, SeedSpec(3, r)))
            eigs = np.linalg.eigvalsh(cov)
            assert eigs.min() >= -1e-10 * max(abs(eigs).max(), 1e-300)


class TestCenteredCovariance:
    def test_constant_data(self):
        cov = sample_covariance_centered(batch_of([[1.0, 0.0], [1.0, 0.0]]))
        assert np.array_equal(cov, np.zeros((2, 2)))

    def test_zero_mean_data_matches_uncentered(self):
        batch = batch_of([[1.0, 1.0], [-1.0, -1.0]])
        assert np.array_equal(sample_covariance_centered(batch),
                              np.ones((2, 2)))

    def test_algebraic_identity(self):
        batch = batch_of(np.random.default_rng(4).standard_normal((7, 3)))
        xbar = batch.observations.mean(axis=0)
        expected = sample_covariance(batch) - np.outer(xbar, xbar)
        assert np.array_equal(sample_covariance_centered(batch), expected)

    def test_rejects_single_observation(self):
        with pytest.raises(InputError):
            sample_covariance_centered(batch_of([[1.0, 2.0]]))


class TestDecoupledCovariance:
    def test_outer_product(self):
        b = batch_of([[0.0, 1.0]], SeedSpec(0, 0))
        bp = batch_of([[1.0, 0.0]], SeedSpec(0, 1))
        assert np.array_equal(decoupled_covariance(b, bp),
                              [[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_identical_seeds(self):
        b = batch_of([[1.0, 0.0]], SeedSpec(0, 0))
        bp = batch_of([[0.0, 1.0]], SeedSpec(0, 0))
        with pytest.raises(InputError):
            decoupled_covariance(b, bp)

    def test_rejects_shape_mismatch(self):
        b = batch_of([[1.0, 0.0]], SeedSpec(0, 0))
        bp = batch_of([[0.0, 1.0], [1.0, 0.0]], SeedSpec(0, 1))
        with pytest.raises(InputError):
            decoupled_covariance(b, bp)

    def test_zero_mean(self):
        rng = np.random.default_rng(8)
        reps, n, p = 10 ** 4, 50, 4
        acc = np.zeros((p, p))
        for r in range(reps):
            b = batch_of(rng.standard_normal((n, p)), SeedSpec(9, 2 * r))
            bp = batch_of(rng.standard_normal((n, p)), SeedSpec(9, 2 * r + 1))
            acc += decoupled_covariance(b, bp)
        assert np.abs(acc / reps).max() < 1e-2


def test_masked_decoupled_matches_transpose_in_distribution():
    # M . Sigma'_n and its transpose share a distribution; compare the
    # Monte Carlo means of their spectral norms.
    rng = np.random.default_rng(10)
    mask = banded_mask(3, 1)
    reps, n = 10 ** 4, 5
    fwd = np.empty(reps)
    bwd = np.empty(reps)
    for r in range(reps):
        b = batch_of(rng.standard_normal((n, 3)), SeedSpec(1, 2 * r))
        bp = batch_of(rng.standard_normal((n, 3)), SeedSpec(1, 2 * r + 1))
        prod = hadamard(mask.matrix, decoupled_covariance(b, bp))
        # the spectral norm itself is transpose-invariant, so compare a
        # transpose-sensitive statistic of the two matrices as well
        assert spectral_norm(prod) == pytest.approx(spectral_norm(prod.T),
                                                    abs=1e-9)
        fwd[r] = np.linalg.norm(prod[0])
        bwd[r] = np.linalg.norm(prod.T[0])
    stderr = np.sqrt(fwd.var(ddof=1) / reps + bwd.var(ddof=1) / reps)
    assert abs(fwd.mean() - bwd.mean()) <= 3 * stderr + 1e-12


def test_ar1_model():
    model = GaussianModel.ar1(4, 0.5)
    assert model.sigma[0, 3] == pytest.approx(0.125)
    assert np.abs(model.factor @ model.factor - model.sigma).max() < 1e-8
    assert model.sigma_norm == pytest.approx(spectral_norm(model.sigma))
    with pytest.raises(InputError):
        GaussianModel.ar1(4, 1.0)
