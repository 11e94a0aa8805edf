import dataclasses

import numpy as np
import pytest

import maskcov.harness
import maskcov.linalg
from maskcov import (CheckFailedError, ExperimentConfig, InputError,
                     TrialResult, emit_results, fit_scaling, read_results,
                     run_error_experiment)
from maskcov.bounds import bound_minor, bound_refined, bound_theorem_main

#: The minor envelope carries o(1) terms, so a mean error is checked
#: against it with a multiplicative band rather than as a hard bound.
MINOR_ENVELOPE_FACTOR = 1.3


def ones_on(support, p=8):
    """The p x p 0/1 mask that is all ones on support x support."""
    mat = np.zeros((p, p))
    mat[np.ix_(support, support)] = 1.0
    return mat


def config(**overrides):
    base = dict(sigma={"kind": "identity"},
                mask={"kind": "banded", "k": 1},
                n_grid=(16,), p=8, replicates=5, master_seed=99)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_rejects_unsorted_grid(self):
        with pytest.raises(InputError):
            config(n_grid=(32, 16))

    def test_rejects_empty_grid(self):
        with pytest.raises(InputError):
            config(n_grid=())

    def test_rejects_bad_metric(self):
        with pytest.raises(InputError):
            config(error_metric="squared")

    def test_rejects_centered_single_observation(self):
        with pytest.raises(InputError):
            config(centered=True, n_grid=(1, 16))

    def test_rejects_bad_rho(self):
        with pytest.raises(InputError):
            run_error_experiment(config(sigma={"kind": "ar1", "rho": 1.5}))

    def test_from_dict_roundtrip(self):
        cfg = config()
        assert ExperimentConfig.from_dict(dataclasses.asdict(cfg)) == cfg


class TestRunErrorExperiment:
    def test_zero_sigma_zero_error(self):
        results = run_error_experiment(config(sigma={"kind": "zero"}))
        assert all(t.error == 0.0 for t in results)

    def test_zero_mask_zero_error(self, tmp_path):
        path = tmp_path / "zero.csv"
        np.savetxt(path, np.zeros((8, 8)), delimiter=",", fmt="%.17g")
        results = run_error_experiment(
            config(mask={"kind": "custom", "path": str(path)}))
        assert all(t.error == 0.0 for t in results)

    def test_deterministic(self):
        a = run_error_experiment(config())
        b = run_error_experiment(config())
        assert a == b

    def test_streams_keyed_by_sample_size_value(self):
        # adding a sample size to the grid leaves the other rows unchanged
        short = run_error_experiment(
            config(mask={"kind": "banded", "k": 2}, p=16, n_grid=(64, 128)),
            decoupled=True)
        longer = run_error_experiment(
            config(mask={"kind": "banded", "k": 2}, p=16,
                   n_grid=(32, 64, 128)),
            decoupled=True)
        assert short == [t for t in longer if t.n != 32]

    def test_grid_and_replicates_covered(self):
        results = run_error_experiment(config(n_grid=(8, 16), replicates=3))
        assert len(results) == 6
        assert {(t.n, t.replicate) for t in results} == {
            (n, r) for n in (8, 16) for r in range(3)}

    def test_relative_is_absolute_over_sigma_norm(self):
        cfg_abs = config(sigma={"kind": "ar1", "rho": 0.5})
        cfg_rel = config(sigma={"kind": "ar1", "rho": 0.5},
                         error_metric="relative")
        from maskcov.harness import build_model

        sigma_norm = build_model(cfg_abs).sigma_norm
        for ta, tr in zip(run_error_experiment(cfg_abs),
                          run_error_experiment(cfg_rel)):
            assert tr.error == ta.error / sigma_norm

    def test_error_below_refined_bound(self):
        for t in run_error_experiment(config(replicates=20)):
            assert t.error <= t.bounds["refined"]

    def test_threshold_mask_runs(self):
        results = run_error_experiment(
            config(mask={"kind": "threshold", "h": 0.3}))
        assert all(t.m >= 1 for t in results)

    def test_threshold_spec_checked_before_first_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew samples before the mask spec was checked")

        monkeypatch.setattr(maskcov.harness, "draw_samples", no_draw)
        with pytest.raises(InputError):
            run_error_experiment(config(mask={"kind": "threshold"}))

    def test_centered_mode(self):
        results = run_error_experiment(config(centered=True))
        assert all(np.isfinite(t.error) for t in results)

    def test_minor_envelope_within_policy(self):
        cfg = config(mask={"kind": "minor", "S": list(range(8))},
                     n_grid=(64,), p=32, replicates=200, master_seed=5)
        results = run_error_experiment(cfg)
        mean = np.mean([t.error for t in results])
        envelope = results[0].bounds["minor"]
        assert mean <= MINOR_ENVELOPE_FACTOR * envelope

    def test_minor_bounds_take_the_exact_norms(self):
        # ||M||_{1,2} = sqrt(m) and ||M|| = m; eigvalsh gave 3.999999999999999
        results = run_error_experiment(config(
            mask={"kind": "minor", "S": [0, 2, 3, 7]}, n_grid=(16, 64)))
        for t in results:
            assert t.bounds["refined"] == bound_refined(2.0, 4.0, t.n, 8, 1.0)
            assert t.bounds["theorem_main"] == bound_theorem_main(
                2.0, 4.0, t.n, 8, 1.0)

    @pytest.mark.parametrize("mask_spec,is_minor", [
        ({"kind": "banded", "k": 1}, False),
        ({"kind": "threshold", "h": 0.3}, False),
        ({"kind": "minor", "S": [1, 4, 6]}, True),
        (ones_on([1, 4, 6]), True),
        (ones_on(range(8)), True),
        (np.eye(8), False),
    ], ids=["banded", "threshold", "minor", "custom-minor", "custom-all-ones",
            "custom-identity"])
    def test_minor_column_only_for_minors(self, tmp_path, mask_spec,
                                          is_minor):
        # the minor envelope is written only where the mask is a minor
        if isinstance(mask_spec, np.ndarray):
            np.savetxt(tmp_path / "mask.csv", mask_spec, delimiter=",",
                       fmt="%.17g")
            mask_spec = {"kind": "custom", "path": str(tmp_path / "mask.csv")}
        results = run_error_experiment(config(mask=mask_spec))
        for t in results:
            assert ("minor" in t.bounds) == is_minor
            if is_minor:
                assert t.bounds["minor"] == bound_minor(t.m, t.n, 1.0)

    # 3 sample sizes x 4 replicates: a fixed mask's bounds are evaluated
    # once per n, a threshold mask's once per replicate
    @pytest.mark.parametrize("mask_spec,evaluations", [
        ({"kind": "banded", "k": 1}, 3),
        ({"kind": "threshold", "h": 0.3}, 3 * 4),
    ], ids=["fixed", "threshold"])
    def test_bounds_evaluated_once_per_mask(self, monkeypatch, mask_spec,
                                            evaluations):
        original = maskcov.harness.bound_refined
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(maskcov.harness, "bound_refined", counting)
        run_error_experiment(config(mask=mask_spec, n_grid=(8, 16, 32),
                                    replicates=4))
        assert len(calls) == evaluations

    def test_refined_bound_asserted_for_fixed_masks_only(self, monkeypatch):
        monkeypatch.setattr(maskcov.harness, "bound_refined",
                            lambda *args: 1e-9)
        results = run_error_experiment(
            config(mask={"kind": "threshold", "h": 0.3}))
        assert all(t.bounds["refined"] == 1e-9 for t in results)
        with pytest.raises(CheckFailedError):
            run_error_experiment(config())

    def test_each_outside_matrix_checked_once(self, monkeypatch):
        # the model's input, the 1 x 1 stand-in and one sigma_hat per
        # trial come from outside; every other matrix is built symmetric
        original = maskcov.linalg.is_symmetric
        calls = []

        def counting(a):
            calls.append(a.shape)
            return original(a)

        monkeypatch.setattr(maskcov.linalg, "is_symmetric", counting)
        cfg = config(sigma={"kind": "ar1", "rho": 0.5},
                     mask={"kind": "threshold", "h": 0.3}, n_grid=(8, 16),
                     p=12, replicates=3)
        run_error_experiment(cfg)
        assert len(calls) <= 2 + 2 * 3


class TestRunDecoupledExperiment:
    @pytest.mark.parametrize("overrides", [
        dict(sigma={"kind": "ar1", "rho": 0.5},
             mask={"kind": "banded", "k": 2}, p=16, n_grid=(32, 64),
             replicates=3),
        dict(sigma={"kind": "ar1", "rho": 0.5},
             mask={"kind": "threshold", "h": 0.3}, p=12, n_grid=(8, 16),
             replicates=3),
        dict(mask={"kind": "minor", "S": [0, 2, 5]}, centered=True,
             n_grid=(8, 16)),
    ], ids=["ar1-banded", "threshold", "centered-minor"])
    def test_decoupled_only_adds_a_column(self, overrides):
        cfg = config(**overrides)
        plain = run_error_experiment(cfg)
        both = run_error_experiment(cfg, decoupled=True)
        assert [dataclasses.replace(t, bounds={
                    k: v for k, v in t.bounds.items() if k != "decoupled"})
                for t in both] == plain
        # each trial keeps its own bounds dict, not one shared per n
        for n in cfg.n_grid:
            assert len({t.bounds["decoupled"] for t in both if t.n == n}) > 1

    def test_decoupling_asserted_for_fixed_masks_only(self, monkeypatch):
        monkeypatch.setattr("maskcov.verify.STDERR_MARGIN", -1e9)
        results = run_error_experiment(
            config(mask={"kind": "threshold", "h": 0.3}), decoupled=True)
        assert len(results) == 5
        assert all(np.isfinite(t.bounds["decoupled"]) for t in results)
        with pytest.raises(CheckFailedError):
            run_error_experiment(config(), decoupled=True)
        with pytest.raises(CheckFailedError, match="at n=8: "):
            run_error_experiment(config(n_grid=(8, 16, 32)), decoupled=True)

    def test_zero_mask_both_sides_zero(self, tmp_path):
        path = tmp_path / "zero.csv"
        np.savetxt(path, np.zeros((8, 8)), delimiter=",", fmt="%.17g")
        results = run_error_experiment(
            config(mask={"kind": "custom", "path": str(path)}),
            decoupled=True)
        assert all(t.error == 0.0 and t.bounds["decoupled"] == 0.0
                   for t in results)

    def test_inequality_holds(self):
        cfg = config(mask={"kind": "banded", "k": 2}, p=16, n_grid=(32,),
                     replicates=100)
        results = run_error_experiment(cfg, decoupled=True)
        errs = np.array([t.error for t in results])
        decs = np.array([t.bounds["decoupled"] for t in results])
        assert errs.mean() <= decs.mean()

    def test_verdict_needs_min_replicates(self, monkeypatch):
        # at 2 replicates a correct run failed about once in 10^4
        monkeypatch.setattr("maskcov.verify.STDERR_MARGIN", -1e9)
        cfg = config(n_grid=(8, 16), replicates=2)
        assert len(run_error_experiment(cfg, decoupled=True)) == 4
        with pytest.raises(CheckFailedError, match="at n=8: "):
            run_error_experiment(dataclasses.replace(cfg, replicates=3),
                                 decoupled=True)
        # read when the run ends each n, not when harness is imported
        monkeypatch.setattr("maskcov.verify.MIN_REPLICATES", 2)
        with pytest.raises(CheckFailedError, match="at n=8: "):
            run_error_experiment(cfg, decoupled=True)

    def test_margin_is_read_from_verify(self, monkeypatch):
        monkeypatch.setattr("maskcov.verify.STDERR_MARGIN", -1e9)
        with pytest.raises(CheckFailedError):
            run_error_experiment(config(), decoupled=True)

    def test_pinned_readme_columns(self):
        # the README config at 2 replicates, recorded when the cross term
        # went through an SVD: the error column must not move at all, and
        # the decoupled column only by the rounding of its norm
        cfg = config(sigma={"kind": "ar1", "rho": 0.5},
                     mask={"kind": "banded", "k": 2}, p=128,
                     n_grid=(256, 512, 1024, 2048), replicates=2,
                     master_seed=7)
        results = run_error_experiment(cfg, decoupled=True)
        assert [t.error for t in results] == [
            0.46492256433244356, 0.4932945994043275, 0.2674459506269749,
            0.3041413422540411, 0.3051926465073248, 0.3385235390799247,
            0.184605876046037, 0.17501621725554367]
        assert [t.bounds["decoupled"] for t in results] == pytest.approx([
            0.6544369443182028, 0.9160742575707542, 0.5224736960578783,
            0.5973857010780961, 0.3941061293126286, 0.40895287968624106,
            0.29503877711666476, 0.2810584517574057], rel=1e-12)

    def test_pinned_custom_sigma_on_a_support(self, tmp_path):
        # a custom Sigma[i, j] = 1 / (1 + |i - j|) drawn on a gapped minor,
        # recorded when its root and norm came from eigh of all of Sigma:
        # the draws, hence the error column, must not move at all, and
        # the bounds only by the rounding of ||Sigma||
        idx, path = np.arange(12), tmp_path / "sigma.csv"
        np.savetxt(path, 1.0 / (1.0 + np.abs(idx[:, None] - idx[None, :])),
                   delimiter=",", fmt="%.17g")
        cfg = config(sigma={"kind": "custom", "path": str(path)},
                     mask={"kind": "minor", "S": [0, 3, 4, 9, 11]}, p=12,
                     n_grid=(16, 64), replicates=3, master_seed=23)
        results = run_error_experiment(cfg, decoupled=True)
        assert [t.error for t in results] == [
            0.8538168965482051, 1.204956200509319, 0.6225083402953716,
            0.4020438579536535, 0.30293667309104183, 0.2486621843822281]
        assert [t.bounds["decoupled"] for t in results] == pytest.approx([
            1.9327911356121639, 1.7750590366063768, 2.0849403021672557,
            1.0249826150226495, 1.0621177736766998, 1.210061049081742],
            rel=1e-12)
        per_n = {16: (97131.16083559798, 105.32975820944347,
                      9.345491505932344, 5.386289112229894),
                 64: (29224.654236876617, 43.22285168216466,
                      3.966765177540869, 2.398985983021071)}
        for t in results:
            assert [t.bounds[k] for k in ("refined", "theorem_main",
                                          "bai_yin", "minor")] == \
                pytest.approx(per_n[t.n], rel=1e-12)


class TestFitScaling:
    def test_exact_inverse_sqrt(self):
        results = [TrialResult(n=n, p=4, m=2, replicate=0,
                               error=3.0 * n ** -0.5)
                   for n in (16, 64, 256, 1024)]
        report = fit_scaling(results, "n")
        assert report.slope == pytest.approx(-0.5, abs=1e-12)
        assert report.slope_stderr == pytest.approx(0.0, abs=1e-12)
        assert report.points == 4

    def test_constant_errors(self):
        results = [TrialResult(n=n, p=4, m=2, replicate=0, error=1.0)
                   for n in (16, 64, 256)]
        assert fit_scaling(results, "n").slope == pytest.approx(0.0)

    def test_m_axis(self):
        results = [TrialResult(n=100, p=4, m=m, replicate=0, error=m ** 0.5)
                   for m in (2, 4, 8)]
        assert fit_scaling(results, "m").slope == pytest.approx(0.5)

    def test_rejects_few_points(self):
        results = [TrialResult(n=n, p=4, m=2, replicate=0, error=1.0)
                   for n in (16, 64)]
        with pytest.raises(InputError):
            fit_scaling(results, "n")

    def test_rejects_zero_errors(self):
        results = [TrialResult(n=n, p=4, m=2, replicate=0, error=0.0)
                   for n in (16, 64, 256)]
        with pytest.raises(InputError):
            fit_scaling(results, "n")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_errors(self, bad):
        results = [TrialResult(n=n, p=4, m=2, replicate=0, error=e)
                   for n, e in ((16, 1.0), (64, bad), (256, 0.5))]
        with pytest.raises(InputError):
            fit_scaling(results, "n")

    @pytest.mark.parametrize("bad", [0, -4])
    def test_rejects_non_positive_axis_values(self, bad):
        results = [TrialResult(n=n, p=4, m=2, replicate=0, error=1.0)
                   for n in (bad, 64, 256)]
        with pytest.raises(InputError, match="positive"):
            fit_scaling(results, "n")

    def test_rejects_bad_axis(self):
        with pytest.raises(InputError):
            fit_scaling([], "p")


class TestEmitResults:
    def test_empty_is_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_results([], "csv", path)
        assert path.read_text() == "n,p,m,replicate,error\n"

    def test_single_row(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_results([TrialResult(n=8, p=4, m=2, replicate=0, error=0.5,
                                  bounds={"refined": 7.0})], "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,p,m,replicate,error,bound_refined"
        assert lines[1] == "8,4,2,0,0.5,7.0"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_roundtrip_thousand_results(self, tmp_path, fmt):
        rng = np.random.default_rng(22)
        results = [TrialResult(n=int(n), p=16, m=3, replicate=r,
                               error=float(rng.random()),
                               bounds={"refined": float(rng.random()),
                                       "theorem_main": float(rng.random())})
                   for r, n in enumerate(rng.integers(1, 10 ** 6, size=1000))]
        path = tmp_path / f"out.{fmt}"
        emit_results(results, fmt, path)
        assert read_results(path) == results

    def test_deterministic_bytes(self, tmp_path):
        cfg = config()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(run_error_experiment(cfg), "csv", p1)
        emit_results(run_error_experiment(cfg), "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("text", [
        '{"a": 1}\n', "n,p,m,replicate,error\n", "plain text\n",
    ], ids=["json-object", "header-only", "plain-text"])
    def test_read_rejects_no_trial_rows(self, tmp_path, text):
        path = tmp_path / "r.csv"
        path.write_text(text)
        with pytest.raises(InputError):
            read_results(path)

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(InputError):
            emit_results([], "csv", tmp_path / "missing" / "out.csv")
