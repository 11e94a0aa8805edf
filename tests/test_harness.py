import dataclasses

import numpy as np
import pytest

import maskcov.harness
import maskcov.linalg
from maskcov import (CheckFailedError, ExperimentConfig, InputError,
                     TrialResult, emit_results, fit_scaling, read_results,
                     run_decoupled_experiment, run_error_experiment)
from maskcov.bounds import bound_minor
from maskcov.serialize import matrix_to_csv

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
        from maskcov.serialize import matrix_to_csv

        path = tmp_path / "zero.csv"
        matrix_to_csv(np.zeros((8, 8)), path)
        results = run_error_experiment(
            config(mask={"kind": "custom", "path": str(path)}))
        assert all(t.error == 0.0 for t in results)

    def test_deterministic(self):
        a = run_error_experiment(config())
        b = run_error_experiment(config())
        assert a == b

    def test_streams_keyed_by_sample_size_value(self):
        # adding a sample size to the grid leaves the other rows unchanged
        short = run_decoupled_experiment(
            config(mask={"kind": "banded", "k": 2}, p=16, n_grid=(64, 128)))
        longer = run_decoupled_experiment(
            config(mask={"kind": "banded", "k": 2}, p=16,
                   n_grid=(32, 64, 128)))
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
            matrix_to_csv(mask_spec, tmp_path / "mask.csv")
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
    def test_decoupling_asserted_for_fixed_masks_only(self, monkeypatch):
        monkeypatch.setattr("maskcov.verify.STDERR_MARGIN", -1e9)
        results = run_decoupled_experiment(
            config(mask={"kind": "threshold", "h": 0.3}))
        assert len(results) == 5
        assert all(np.isfinite(t.bounds["decoupled"]) for t in results)
        with pytest.raises(CheckFailedError):
            run_decoupled_experiment(config())
        with pytest.raises(CheckFailedError, match="at n=8: "):
            run_decoupled_experiment(config(n_grid=(8, 16, 32)))

    def test_zero_mask_both_sides_zero(self, tmp_path):
        from maskcov.serialize import matrix_to_csv

        path = tmp_path / "zero.csv"
        matrix_to_csv(np.zeros((8, 8)), path)
        results = run_decoupled_experiment(
            config(mask={"kind": "custom", "path": str(path)}))
        assert all(t.error == 0.0 and t.bounds["decoupled"] == 0.0
                   for t in results)

    def test_inequality_holds(self):
        cfg = config(mask={"kind": "banded", "k": 2}, p=16, n_grid=(32,),
                     replicates=100)
        results = run_decoupled_experiment(cfg)
        errs = np.array([t.error for t in results])
        decs = np.array([t.bounds["decoupled"] for t in results])
        assert errs.mean() <= decs.mean()

    def test_margin_is_read_from_verify(self, monkeypatch):
        monkeypatch.setattr("maskcov.verify.STDERR_MARGIN", -1e9)
        with pytest.raises(CheckFailedError):
            run_decoupled_experiment(config())


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
