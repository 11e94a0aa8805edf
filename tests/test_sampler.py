import numpy as np
import pytest

from maskcov import (ExperimentConfig, GaussianModel, InputError, NotPSDError,
                     SampleBatch, SeedSpec, banded_mask, decoupled_covariance,
                     draw_samples, mask_from_spec, run_error_experiment,
                     sample_covariance, sample_covariance_centered,
                     spectral_norm)
from maskcov.harness import build_model
from oracles import ar1_recursion_factor, observation_trials, trial_rows

#: A support with gaps of 3, 1, 5 and 2 coordinates in p = 12.
GAPPED = [0, 3, 4, 9, 11]


def batch_of(rows, seed=SeedSpec(0, 0)):
    """The batch of the observations ``rows``.

    Its root stacks sqrt(n) times their mean over the centered rows: the
    Gram of that is X^T X, and its row 0 is sqrt(n) xbar.
    """
    obs = np.asarray(rows, dtype=float)
    n = obs.shape[0]
    mean = obs.mean(axis=0)
    return SampleBatch(np.vstack([np.sqrt(n) * mean, obs - mean]), n, seed)


class TestSampleBatch:
    def test_shape_comes_from_observations(self):
        # dim is the root's column count; n is the sample size it summarises
        batch = SampleBatch(np.ones((2, 3)), 4, SeedSpec(0, 0))
        assert (batch.n, batch.dim) == (4, 3)
        assert np.array_equal(sample_covariance(batch), np.full((3, 3), 0.5))

    def test_shape_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            SampleBatch(n=5, dim=2, root=np.ones((2, 2)), seed=SeedSpec(0, 0))

    def test_batches_compare_by_identity(self):
        model = GaussianModel.identity(3)
        a, b = (draw_samples(model, 5, SeedSpec(1, 0)) for _ in range(2))
        assert a == a and a != b
        assert len({a, b}) == 2


class TestGaussianModel:
    def test_dim_comes_from_sigma(self):
        assert GaussianModel(np.eye(3), None, 1.0).dim == 3
        for model in (GaussianModel.identity(3), GaussianModel.ar1(4, 0.5)):
            assert model.dim == model.sigma.shape[0]

    def test_dim_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            GaussianModel(dim=2, sigma=np.eye(3), factor=None, sigma_norm=1.0)

    def test_models_compare_by_identity(self):
        a, b = GaussianModel.identity(3), GaussianModel.identity(3)
        assert a == a and a != b
        assert len({a, b}) == 2

    @pytest.mark.parametrize("rho", [0.5, 0.3, -0.7, 0.99, 1e-3])
    def test_ar1_sigma_is_the_entrywise_power(self, rho):
        idx = np.arange(384)
        expected = rho ** np.abs(idx[:, None] - idx[None, :])
        assert np.array_equal(GaussianModel.ar1(384, rho).sigma, expected)

    @pytest.fixture
    def eig_calls(self, monkeypatch):
        """The argument tuples of every eigvalsh and eigh call made."""
        calls = []

        def counting(fn):
            def wrapped(*args, **kwargs):
                calls.append(args)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name,
                                counting(getattr(np.linalg, name)))
        return calls

    def test_ar1_model_runs_no_eigvalsh(self, eig_calls):
        # ||Sigma|| comes from the secular equation and the factor from the
        # AR recursion, on all coordinates and on a gapped support: no
        # eigendecomposition of either kind
        full, gapped = (GaussianModel.ar1(12, 0.5, s) for s in (None, GAPPED))
        assert not eig_calls
        assert gapped.sigma_norm == full.sigma_norm == pytest.approx(
            np.abs(np.linalg.eigvalsh(full.sigma)).max(), rel=1e-12)

    @pytest.mark.parametrize("support", [None, [1, 4, 6]])
    def test_zero_model_runs_no_eigh(self, eig_calls, support):
        # the only root of 0 is 0, and its norm is 0
        cfg = ExperimentConfig(sigma={"kind": "zero"},
                               mask={"kind": "banded", "k": 1},
                               n_grid=(4,), p=8, replicates=1, master_seed=0)
        model = build_model(cfg, support)
        assert not eig_calls
        dim = 8 if support is None else 3
        assert np.array_equal(model.sigma, np.zeros((dim, dim)))
        assert np.array_equal(model.factor, np.zeros((dim, dim)))
        assert model.sigma_norm == 0.0

    @pytest.mark.parametrize("p", [0, -1, 2.0, True])
    def test_ar1_rejects_bad_dimension(self, p):
        with pytest.raises(InputError):
            GaussianModel.ar1(p, 0.5)

    @pytest.mark.parametrize("rho", [0.5, -0.8])
    def test_ar1_on_a_support_is_the_block_with_the_full_norm(self, rho):
        support = np.array(GAPPED)
        full, sub = GaussianModel.ar1(12, rho), GaussianModel.ar1(12, rho,
                                                                   support)
        assert np.array_equal(sub.sigma, full.sigma[np.ix_(support, support)])
        # the chain at the support's coordinates: upper triangular with a
        # positive diagonal, so the Cholesky factor of the block
        assert np.array_equal(sub.factor, np.triu(sub.factor))
        assert (np.diag(sub.factor) > 0.0).all()
        assert np.abs(sub.factor.T @ sub.factor - sub.sigma).max() < 1e-15
        assert np.allclose(sub.factor, np.linalg.cholesky(sub.sigma).T,
                           rtol=0.0, atol=1e-15)
        assert sub.sigma_norm == full.sigma_norm

    @pytest.mark.parametrize("rho", [0.5, -0.8, 0.99, 0.0, -0.3])
    @pytest.mark.parametrize("p", [1, 2, 7, 384])
    def test_ar1_factor_on_consecutive_coordinates_is_the_recursion(self, p,
                                                                    rho):
        # lags of 1 give the order-p recursion bit for bit, on all p
        # coordinates or on any p consecutive ones of a longer process
        expected = ar1_recursion_factor(p, rho)
        for model in (GaussianModel.ar1(p, rho),
                      GaussianModel.ar1(p, rho, np.arange(p)),
                      GaussianModel.ar1(p + 5, rho, np.arange(3, p + 3))):
            assert np.array_equal(model.factor, expected)

    @pytest.mark.parametrize("support", [
        [3, 1], [0, 12], [4, 4], [-1, 3], [], [0.0, 3.0], [[0, 3]],
        [True, False]], ids=["unsorted", "out-of-range", "repeated",
                             "negative", "empty", "floats", "2-d", "bools"])
    @pytest.mark.parametrize("make", [
        lambda s: GaussianModel.ar1(10, 0.5, s),
        lambda s: GaussianModel.from_covariance(np.eye(10) + 0.1, s),
    ], ids=["ar1", "covariance"])
    def test_rejects_a_malformed_support(self, make, support):
        with pytest.raises(InputError):
            make(support)

    def test_covariance_on_a_support_is_the_block_with_the_full_norm(self):
        a = np.random.default_rng(2).standard_normal((6, 6))
        sigma = a @ a.T
        support = np.array([1, 2, 5])
        full = GaussianModel.from_covariance(sigma)
        sub = GaussianModel.from_covariance(sigma, support)
        assert np.array_equal(sub.sigma, full.sigma[np.ix_(support, support)])
        assert np.abs(sub.factor @ sub.factor - sub.sigma).max() < 1e-12
        assert sub.sigma_norm == full.sigma_norm
        assert GaussianModel.from_covariance(sigma, np.arange(6)).sigma_norm \
            == full.sigma_norm

    def test_covariance_is_checked_whole_on_a_support(self):
        # the block on [0, 1] is PSD, but Sigma is not
        with pytest.raises(NotPSDError, match="min eigenvalue -1.000e"):
            GaussianModel.from_covariance(np.diag([1.0, 1.0, -1.0]), [0, 1])

    def test_covariance_with_entries_near_overflow(self):
        # PSD and finite, though Sigma + Sigma^T overflows
        sigma = np.array([[1e308, 5e307], [5e307, 1e308]])
        model = GaussianModel.from_covariance(sigma)
        assert np.array_equal(model.sigma, sigma)
        assert model.sigma_norm == pytest.approx(1.5e308, rel=1e-12)
        assert np.all(np.isfinite(model.factor))


class TestDrawSamples:
    def test_zero_covariance_gives_zero_samples(self):
        model = GaussianModel.from_covariance(np.zeros((3, 3)))
        batch = draw_samples(model, 5, SeedSpec(1, 0))
        assert np.array_equal(batch.root, np.zeros((4, 3)))

    def test_deterministic(self):
        model = GaussianModel.ar1(4, 0.5)
        a = draw_samples(model, 20, SeedSpec(123, 7))
        b = draw_samples(model, 20, SeedSpec(123, 7))
        assert np.array_equal(a.root, b.root)

    def test_distinct_streams_differ(self):
        model = GaussianModel.identity(4)
        a = draw_samples(model, 20, SeedSpec(123, 7))
        b = draw_samples(model, 20, SeedSpec(123, 8))
        assert not np.array_equal(a.root, b.root)

    def test_law_of_large_numbers(self):
        model = GaussianModel.identity(2)
        batch = draw_samples(model, 10 ** 6, SeedSpec(5, 0))
        # row 0 of the root is sqrt(n) times the sample mean
        mean = batch.root[0] / np.sqrt(batch.n)
        var = np.diag(sample_covariance_centered(batch))
        assert np.abs(mean).max() < 4e-3
        assert np.abs(var - 1.0).max() < 0.01

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            draw_samples(GaussianModel.identity(2), 0, SeedSpec(0, 0))

    @pytest.mark.parametrize("n,p,seed", [(1, 1, 0), (3, 7, 1), (64, 32, 2),
                                          (257, 129, 3), (4096, 256, 4)])
    def test_identity_draw_is_the_normals(self, n, p, seed):
        # the identity model skips the product W @ I, which returns W bit
        # for bit, so it must agree with a model that still multiplies
        spec = SeedSpec(seed, 5)
        fast = draw_samples(GaussianModel.identity(p), n, spec).root
        product = draw_samples(GaussianModel.from_covariance(np.eye(p)), n,
                               spec).root
        assert GaussianModel.identity(p).factor is None
        assert np.array_equal(fast, product)
        # row 0 and the entries right of the chi diagonal are the stream's
        # first normals; the entries left of it are zero
        normals = spec.generator().standard_normal(fast.shape)
        rows, cols = np.indices(fast.shape)
        assert np.array_equal(fast[cols >= rows], normals[cols >= rows])
        assert not fast[(rows >= 1) & (cols < rows - 1)].any()

    # first errors recorded with stream version 2 (streams keyed by the
    # value of n, Bartlett roots on the mask's support), the readme ones
    # with version 3 (the AR(1) recursion as factor), the AR(1) minor ones
    # with version 4 (the recursion on a gapped support) and the custom
    # ones with version 3, which version 4 keeps; a sampler change that
    # moves results fails here
    @pytest.mark.parametrize("config,errors", [
        (dict(sigma={"kind": "identity"},
              mask={"kind": "minor", "S": [0, 3, 5]},
              n_grid=(4, 64), p=12, replicates=2, master_seed=21),
         [0.508801752951963, 0.9897956834224942, 0.40733025807995205,
          0.37865118022693955]),
        # the README config, first replicate only: later replicates do not
        # change the streams of earlier ones
        (dict(sigma={"kind": "ar1", "rho": 0.5},
              mask={"kind": "banded", "k": 2},
              n_grid=(256, 512, 1024, 2048), p=128, replicates=1,
              master_seed=7),
         [0.46492256433244356, 0.2674459506269749, 0.3051926465073248,
          0.184605876046037]),
        (dict(sigma={"kind": "ar1", "rho": 0.5},
              mask={"kind": "minor", "S": GAPPED},
              n_grid=(4, 64), p=12, replicates=2, master_seed=21),
         [1.1797624050638524, 1.503777216807043, 0.48291710987921815,
          0.6176171990988176]),
        # Sigma[i, j] = 1 / (1 + |i - j|), written to CSV by the test
        (dict(sigma={"kind": "custom"},
              mask={"kind": "minor", "S": GAPPED},
              n_grid=(4, 64), p=12, replicates=2, master_seed=21),
         [1.4022686013327672, 1.469031883773144, 0.4530863124930693,
          0.501386467528867]),
    ], ids=["identity-minor", "readme", "ar1-gapped-minor", "custom-minor"])
    def test_pinned_errors(self, config, errors, tmp_path):
        if config["sigma"]["kind"] == "custom":
            idx, path = np.arange(config["p"]), tmp_path / "sigma.csv"
            sigma = 1.0 / (1.0 + np.abs(idx[:, None] - idx[None, :]))
            np.savetxt(path, sigma, delimiter=",", fmt="%.17g")
            config = dict(config, sigma={"kind": "custom", "path": str(path)})
        results = trial_rows(run_error_experiment(ExperimentConfig(**config)))
        assert [t.error for t in results] == pytest.approx(errors, rel=1e-12)


class TestSampleCovariance:
    def test_single_observation(self):
        cov = sample_covariance(batch_of([[1.0, 0.0]]))
        assert np.array_equal(cov, [[1.0, 0.0], [0.0, 0.0]])

    def test_two_observations(self):
        # observations are a root of their own uncentered Gram
        cov = sample_covariance(
            SampleBatch(np.array([[1.0, 1.0], [1.0, -1.0]]), 2, SeedSpec(0, 0)))
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
        obs = np.random.default_rng(4).standard_normal((7, 3))
        batch = batch_of(obs)
        # row 0 of the root is sqrt(n) xbar, so the rest is a root of the
        # centered Gram
        rest = batch.root[1:]
        expected = rest.T @ rest / batch.n
        assert np.array_equal(sample_covariance_centered(batch), expected)
        assert np.allclose(expected, np.cov(obs.T, bias=True), rtol=1e-12,
                           atol=1e-14)

    def test_rejects_single_observation(self):
        with pytest.raises(InputError):
            sample_covariance_centered(batch_of([[1.0, 2.0]]))

    @pytest.mark.parametrize("n", [3, 40])
    def test_drawn_batch_is_the_gram_of_rows_after_the_first(self, n):
        batch = draw_samples(GaussianModel.ar1(6, 0.6), n, SeedSpec(8, n))
        rest = batch.root[1:]
        centered = sample_covariance_centered(batch)
        assert np.array_equal(centered, rest.T @ rest / n)
        assert np.array_equal(centered, centered.T)
        # the same matrix as subtracting n xbar xbar^T, to rounding
        mean = batch.root[0]
        assert centered == pytest.approx(
            sample_covariance(batch) - np.outer(mean, mean) / n,
            rel=1e-12, abs=1e-14)


class TestDecoupledCovariance:
    def test_outer_product(self):
        # one observation X: X'^T X is the outer product of an independent
        # X' (factor @ Z, Z from the other seed) with X
        b = batch_of([[0.0, 1.0]], SeedSpec(0, 0))
        z = SeedSpec(0, 1).generator().standard_normal((2, 2))
        assert np.array_equal(
            decoupled_covariance(GaussianModel.identity(2), b, SeedSpec(0, 1)),
            z @ b.root)
        assert np.array_equal(z @ b.root, np.outer(z[:, 0], [0.0, 1.0]))

    def test_rejects_identical_seeds(self):
        b = batch_of([[1.0, 0.0]], SeedSpec(0, 0))
        with pytest.raises(InputError):
            decoupled_covariance(GaussianModel.identity(2), b, SeedSpec(0, 0))

    def test_rejects_shape_mismatch(self):
        b = batch_of([[1.0, 0.0]], SeedSpec(0, 0))
        with pytest.raises(InputError):
            decoupled_covariance(GaussianModel.identity(3), b, SeedSpec(0, 1))

    def test_zero_mean(self):
        model = GaussianModel.identity(4)
        reps, n, p = 10 ** 4, 50, 4
        acc = np.zeros((p, p))
        for r in range(reps):
            b = draw_samples(model, n, SeedSpec(9, 2 * r))
            acc += decoupled_covariance(model, b, SeedSpec(9, 2 * r + 1))
        assert np.abs(acc / reps).max() < 1e-2


def test_masked_decoupled_matches_transpose_in_distribution():
    # M . Sigma'_n and its transpose share a distribution; compare the
    # Monte Carlo means of their spectral norms.
    model = GaussianModel.identity(3)
    mask = banded_mask(3, 1)
    reps, n = 10 ** 4, 5
    fwd = np.empty(reps)
    bwd = np.empty(reps)
    for r in range(reps):
        b = draw_samples(model, n, SeedSpec(1, 2 * r))
        prod = mask.matrix * decoupled_covariance(
            model, b, SeedSpec(1, 2 * r + 1))
        # the spectral norm itself is transpose-invariant, so compare a
        # transpose-sensitive statistic of the two matrices as well
        assert spectral_norm(prod) == pytest.approx(spectral_norm(prod.T),
                                                    abs=1e-9)
        fwd[r] = np.linalg.norm(prod[0])
        bwd[r] = np.linalg.norm(prod.T[0])
    stderr = np.sqrt(fwd.var(ddof=1) / reps + bwd.var(ddof=1) / reps)
    assert abs(fwd.mean() - bwd.mean()) <= 3 * stderr + 1e-12


def test_ar1_model():
    # the factor is the AR recursion: upper triangular, F^T F = Sigma
    model = GaussianModel.ar1(4, 0.5)
    assert model.sigma[0, 3] == pytest.approx(0.125)
    assert np.array_equal(model.factor, np.triu(model.factor))
    assert np.abs(model.factor.T @ model.factor - model.sigma).max() < 1e-14
    assert model.sigma_norm == pytest.approx(spectral_norm(model.sigma))
    with pytest.raises(InputError):
        GaussianModel.ar1(4, 1.0)


#: Moment tests pass within this many standard errors.
MARGIN_SE = 4.0


def _draws(model, n, reps, master):
    return [draw_samples(model, n, SeedSpec(master, r)) for r in range(reps)]


def _moments_match(draws, mean, var) -> bool:
    """Each entry's sample mean and variance over ``draws`` (stacked on
    axis 0) lie within MARGIN_SE standard errors of ``mean`` and ``var``."""
    reps = draws.shape[0]
    dev = draws - draws.mean(axis=0)
    sample_var = (dev ** 2).mean(axis=0)
    var_se = np.sqrt(((dev ** 4).mean(axis=0) - sample_var ** 2) / reps)
    return bool((np.abs(draws.mean(axis=0) - mean)
                 <= MARGIN_SE * np.sqrt(var / reps)).all()
                and (np.abs(sample_var - var) <= MARGIN_SE * var_se).all())


def _ar1_models():
    """AR(1) models with triangular factors: on all 5 coordinates, and on
    5 of 12 with gaps between them."""
    return GaussianModel.ar1(5, 0.6), GaussianModel.ar1(12, 0.6, GAPPED)


# n - 1 < dim (the root has n rows) and n - 1 > dim (dim + 1 rows)
@pytest.mark.parametrize("n", [3, 20])
def test_root_gram_has_wishart_moments(n):
    # Y^T Y ~ Wishart(n, Sigma): E = n Sigma and
    # Var(entry ij) = n (Sigma_ij^2 + Sigma_ii Sigma_jj); centered, n - 1
    for model in _ar1_models():
        sig, diag = model.sigma, np.diag(model.sigma)
        batches = _draws(model, n, 10 ** 4, 31)
        for cov, dof in ((sample_covariance, n),
                         (sample_covariance_centered, n - 1)):
            grams = np.stack([b.n * cov(b) for b in batches])
            assert _moments_match(grams, dof * sig,
                                  dof * (sig ** 2 + np.outer(diag, diag)))


@pytest.mark.parametrize("n", [3, 20])
def test_decoupled_statistic_has_mean_zero(n):
    # X'^T X = F^T Z Y: E = 0 and Var(entry ij) = n Sigma_ii Sigma_jj; with
    # F Z Y in its place a triangular F's F F^T != Sigma shows here
    for model in _ar1_models():
        diag = np.diag(model.sigma)
        cross = np.stack([
            b.n * decoupled_covariance(model, b, SeedSpec(32, r))
            for r, b in enumerate(_draws(model, n, 10 ** 4, 31))])
        assert _moments_match(cross, 0.0, n * np.outer(diag, diag))


def _two_sample_ok(a, b) -> bool:
    """Means within MARGIN_SE standard errors, and the two-sample KS
    statistic below its critical value at the matching two-sided level."""
    stderr = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    grid = np.sort(np.concatenate([a, b]))
    ks = np.abs(np.searchsorted(np.sort(a), grid, side="right") / a.size
                - np.searchsorted(np.sort(b), grid, side="right") / b.size).max()
    alpha = 6.3e-5  # two-sided tail of 4 standard errors
    critical = np.sqrt(-np.log(alpha / 2) / 2 * (a.size + b.size)
                       / (a.size * b.size))
    return abs(a.mean() - b.mean()) <= MARGIN_SE * stderr and ks <= critical


@pytest.mark.parametrize("config", [
    # banded AR(1), n - 1 > |S| = p
    dict(sigma={"kind": "ar1", "rho": 0.5}, mask={"kind": "banded", "k": 2},
         n_grid=(64,), p=32),
    # identity minor, |S| = 8 of p = 64
    dict(sigma={"kind": "identity"},
         mask={"kind": "minor", "S": [1, 5, 9, 20, 33, 40, 51, 63]},
         n_grid=(256,), p=64),
    # centered banded AR(1), n - 1 < |S| = p
    dict(sigma={"kind": "ar1", "rho": 0.5}, mask={"kind": "banded", "k": 2},
         n_grid=(16,), p=32, centered=True),
    # centered AR(1) minor at n = 3
    dict(sigma={"kind": "ar1", "rho": 0.5},
         mask={"kind": "minor", "S": [1, 4, 5, 9, 12]}, n_grid=(3,), p=16,
         centered=True),
], ids=["ar1-banded", "identity-minor", "ar1-banded-centered-small-n",
        "ar1-minor-centered-n3"])
def test_trial_errors_match_the_observation_path(config):
    reps = 400
    cfg = ExperimentConfig(replicates=reps, master_seed=41, **config)
    trials = trial_rows(run_error_experiment(cfg, decoupled=True))
    errors, decoupled = observation_trials(
        build_model(cfg).sigma, mask_from_spec(cfg.mask, cfg.p).matrix,
        cfg.n_grid[0], reps, seed=42, centered=cfg.centered)
    assert _two_sample_ok(np.array([t.error for t in trials]), errors)
    assert _two_sample_ok(
        np.array([t.bounds["decoupled"] for t in trials]), decoupled)
