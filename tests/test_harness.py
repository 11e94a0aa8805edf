import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import maskcov.harness
import maskcov.linalg
from maskcov import (CheckFailedError, ExperimentConfig, InputError, Trials,
                     emit_results, fit_scaling, read_results,
                     run_error_experiment)
from maskcov.bounds import bound_minor, bound_refined, bound_theorem_main
from oracles import trial_rows

GOLDEN = Path(__file__).parent / "data" / "golden"

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


def run(cfg, decoupled=False):
    """The trials of ``run_error_experiment`` as rows."""
    return trial_rows(run_error_experiment(cfg, decoupled))


def single(n, error, m=2):
    """Trials of one trial at p = 4, with no bounds."""
    return Trials(n=n, p=4, m=m, replicate=np.array([0]),
                  error=np.array([error]))


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
        results = run(config(sigma={"kind": "zero"}))
        assert all(t.error == 0.0 for t in results)

    def test_zero_mask_zero_error(self, tmp_path):
        path = tmp_path / "zero.csv"
        np.savetxt(path, np.zeros((8, 8)), delimiter=",", fmt="%.17g")
        results = run(config(mask={"kind": "custom", "path": str(path)}))
        assert all(t.error == 0.0 for t in results)

    def test_deterministic(self):
        a = run(config())
        b = run(config())
        assert a == b

    def test_streams_keyed_by_sample_size_value(self):
        # adding a sample size to the grid leaves the other rows unchanged
        short = run(
            config(mask={"kind": "banded", "k": 2}, p=16, n_grid=(64, 128)),
            decoupled=True)
        longer = run(
            config(mask={"kind": "banded", "k": 2}, p=16,
                   n_grid=(32, 64, 128)),
            decoupled=True)
        assert short == [t for t in longer if t.n != 32]

    def test_grid_and_replicates_covered(self):
        results = run(config(n_grid=(8, 16), replicates=3))
        assert len(results) == 6
        assert {(t.n, t.replicate) for t in results} == {
            (n, r) for n in (8, 16) for r in range(3)}

    def test_relative_is_absolute_over_sigma_norm(self):
        cfg_abs = config(sigma={"kind": "ar1", "rho": 0.5})
        cfg_rel = config(sigma={"kind": "ar1", "rho": 0.5},
                         error_metric="relative")
        from maskcov.harness import build_model

        sigma_norm = build_model(cfg_abs).sigma_norm
        for ta, tr in zip(run(cfg_abs), run(cfg_rel)):
            assert tr.error == ta.error / sigma_norm

    def test_error_below_refined_bound(self):
        for t in run(config(replicates=20)):
            assert t.error <= t.bounds["refined"]

    def test_threshold_mask_runs(self):
        results = run(
            config(mask={"kind": "threshold", "h": 0.3}))
        assert all(t.m >= 1 for t in results)

    def test_threshold_spec_checked_before_first_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew samples before the mask spec was checked")

        monkeypatch.setattr(maskcov.harness, "draw_samples", no_draw)
        with pytest.raises(InputError):
            run_error_experiment(config(mask={"kind": "threshold"}))

    def test_centered_mode(self):
        results = run(config(centered=True))
        assert all(np.isfinite(t.error) for t in results)

    def test_minor_envelope_within_policy(self):
        cfg = config(mask={"kind": "minor", "S": list(range(8))},
                     n_grid=(64,), p=32, replicates=200, master_seed=5)
        results = run(cfg)
        mean = np.mean([t.error for t in results])
        envelope = results[0].bounds["minor"]
        assert mean <= MINOR_ENVELOPE_FACTOR * envelope

    def test_minor_bounds_take_the_exact_norms(self):
        # ||M||_{1,2} = sqrt(m) and ||M|| = m; eigvalsh gave 3.999999999999999
        results = run(config(
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
        results = run(config(mask=mask_spec))
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
        results = run(
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


class TestDecoupledRuns:
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
        plain = run(cfg)
        both = run(cfg, decoupled=True)
        assert [t._replace(bounds={
                    k: v for k, v in t.bounds.items() if k != "decoupled"})
                for t in both] == plain
        # each trial has its own decoupled value, not one shared per n
        for n in cfg.n_grid:
            assert len({t.bounds["decoupled"] for t in both if t.n == n}) > 1

    def test_decoupling_asserted_for_fixed_masks_only(self, monkeypatch):
        monkeypatch.setattr("maskcov.verify.STDERR_MARGIN", -1e9)
        results = run(
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
        results = run(
            config(mask={"kind": "custom", "path": str(path)}),
            decoupled=True)
        assert all(t.error == 0.0 and t.bounds["decoupled"] == 0.0
                   for t in results)

    def test_inequality_holds(self):
        cfg = config(mask={"kind": "banded", "k": 2}, p=16, n_grid=(32,),
                     replicates=100)
        results = run(cfg, decoupled=True)
        errs = np.array([t.error for t in results])
        decs = np.array([t.bounds["decoupled"] for t in results])
        assert errs.mean() <= decs.mean()

    def test_verdict_needs_min_replicates(self, monkeypatch):
        # at 2 replicates a correct run failed about once in 10^4
        monkeypatch.setattr("maskcov.verify.STDERR_MARGIN", -1e9)
        cfg = config(n_grid=(8, 16), replicates=2)
        assert len(run(cfg, decoupled=True)) == 4
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
        results = run(cfg, decoupled=True)
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
        results = run(cfg, decoupled=True)
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
        results = [single(n, 3.0 * n ** -0.5) for n in (16, 64, 256, 1024)]
        report = fit_scaling(results, "n")
        assert report.slope == pytest.approx(-0.5, abs=1e-12)
        assert report.slope_stderr == pytest.approx(0.0, abs=1e-12)
        assert report.points == 4

    def test_constant_errors(self):
        results = [single(n, 1.0) for n in (16, 64, 256)]
        assert fit_scaling(results, "n").slope == pytest.approx(0.0)

    def test_m_axis(self):
        results = [single(100, m ** 0.5, m=m) for m in (2, 4, 8)]
        assert fit_scaling(results, "m").slope == pytest.approx(0.5)

    def test_rejects_few_points(self):
        results = [single(n, 1.0) for n in (16, 64)]
        with pytest.raises(InputError):
            fit_scaling(results, "n")

    def test_rejects_zero_errors(self):
        results = [single(n, 0.0) for n in (16, 64, 256)]
        with pytest.raises(InputError):
            fit_scaling(results, "n")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_errors(self, bad):
        results = [single(n, e) for n, e in ((16, 1.0), (64, bad), (256, 0.5))]
        with pytest.raises(InputError):
            fit_scaling(results, "n")

    @pytest.mark.parametrize("bad", [0, -4])
    def test_rejects_non_positive_axis_values(self, bad):
        results = [single(n, 1.0) for n in (bad, 64, 256)]
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
        emit_results([Trials(n=8, p=4, m=2, replicate=np.array([0]),
                             error=np.array([0.5]), bounds={"refined": 7.0})],
                     "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,p,m,replicate,error,bound_refined"
        assert lines[1] == "8,4,2,0,0.5,7.0"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_roundtrip_thousand_results(self, tmp_path, fmt):
        rng = np.random.default_rng(22)
        results = [Trials(n=int(n), p=16, m=3, replicate=np.array([r]),
                          error=rng.random(1),
                          bounds={"refined": float(rng.random()),
                                  "theorem_main": rng.random(1)})
                   for r, n in enumerate(rng.integers(1, 10 ** 6, size=1000))]
        path = tmp_path / f"out.{fmt}"
        emit_results(results, fmt, path)
        assert trial_rows(read_results(path)) == trial_rows(results)

    def test_deterministic_bytes(self, tmp_path):
        cfg = config()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(run_error_experiment(cfg), "csv", p1)
        emit_results(run_error_experiment(cfg), "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("text", [
        '{"a": 1}\n', "n,p,m,replicate,error\n", "plain text\n", "",
    ], ids=["json-object", "header-only", "plain-text", "empty"])
    def test_read_rejects_no_trial_rows(self, tmp_path, text):
        path = tmp_path / "r.csv"
        path.write_text(text)
        with pytest.raises(InputError):
            read_results(path)

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(InputError):
            emit_results([], "csv", tmp_path / "missing" / "out.csv")


class TestColumns:
    def test_fixed_mask_shares_m_and_bounds_per_n(self):
        results = run_error_experiment(
            config(n_grid=(8, 16), replicates=4), decoupled=True)
        assert [t.n for t in results] == [8, 16]
        for t in results:
            assert t.m == 3 and type(t.m) is int
            assert np.array_equal(t.replicate, np.arange(4))
            assert t.error.shape == t.bounds["decoupled"].shape == (4,)
            assert all(type(t.bounds[k]) is float
                       for k in ("refined", "theorem_main", "bai_yin"))

    def test_threshold_mask_keeps_m_and_bounds_per_trial(self):
        # the golden threshold case: m and the minor cell vary by replicate
        cfg = ExperimentConfig.from_dict(json.loads(
            (GOLDEN / "threshold_decoupled.cfg.json").read_text()))
        results = run_error_experiment(cfg, decoupled=True)
        assert [t.n for t in results] == [8, 16, 32]
        for t in results:
            assert np.array_equal(t.replicate, np.arange(4))
            assert isinstance(t.m, np.ndarray) and len(t.m) == 4
            assert all(len(col) == 4 for col in t.bounds.values())
        # an absent minor cell is "" in an object column
        assert [t.bounds["minor"].dtype for t in results] == [object] * 3
        assert "" in results[0].bounds["minor"].tolist()
        assert results[0].bounds["refined"].dtype == float

    def test_read_results_is_one_trials_of_columns(self, tmp_path):
        cfg = ExperimentConfig.from_dict(json.loads(
            (GOLDEN / "threshold_decoupled.cfg.json").read_text()))
        results = run_error_experiment(cfg, decoupled=True)
        emit_results(results, "csv", tmp_path / "r.csv")
        (read,) = read_results(tmp_path / "r.csv")
        assert read.n.tolist() == [8] * 4 + [16] * 4 + [32] * 4
        assert trial_rows([read]) == trial_rows(results)


class TestEmission:
    """Chunked emission writes what a whole-list formatting writes."""

    @staticmethod
    def whole(rows, fmt):
        names = sorted({k for t in rows for k in t.bounds},
                       key=["refined", "theorem_main", "bai_yin", "minor",
                            "decoupled"].index)
        header = ["n", "p", "m", "replicate", "error"] + [
            f"bound_{k}" for k in names]
        cells = [[t.n, t.p, t.m, t.replicate, t.error]
                 + [t.bounds.get(k, "") for k in names] for t in rows]
        if fmt == "json":
            return json.dumps([dict(zip(header, c)) for c in cells],
                              indent=1) + "\n"
        return "".join(",".join(repr(v) if isinstance(v, float) else str(v)
                                for v in row) + "\n"
                       for row in [header] + cells)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_many_chunks_match_whole_formatting(self, tmp_path, fmt):
        size = 2 * maskcov.harness._CHUNK + 5
        error = np.random.default_rng(3).random(size)
        error[:3] = [float("nan"), 1e-300, 0.0]
        minor = np.array([0.25, "", 0.5, ""], dtype=object)  # "": absent
        results = [
            Trials(n=8, p=4, m=2, replicate=np.arange(size), error=error,
                   bounds={"refined": 7.0, "decoupled": error[::-1].copy()}),
            Trials(n=16, p=4, m=np.array([1, 2, 3, 4]),
                   replicate=np.arange(4), error=error[:4].copy(),
                   bounds={"minor": minor, "refined": np.full(4, 1e-300)})]
        path = tmp_path / f"r.{fmt}"
        emit_results(results, fmt, path)
        text = path.read_text()
        assert text == self.whole(trial_rows(results), fmt)
        assert "np." not in text

    def test_empty_json_is_an_empty_list(self, tmp_path):
        emit_results([], "json", tmp_path / "r.json")
        assert (tmp_path / "r.json").read_text() == "[]\n"

    def test_write_output_takes_chunks(self, tmp_path):
        maskcov.harness.write_output(tmp_path / "x", iter(["a", "b\n", ""]))
        assert (tmp_path / "x").read_text() == "ab\n"


class TestMemory:
    def test_peak_grows_by_less_than_64_bytes_a_trial(self, tmp_path):
        # a 2-variable minor at p=4: a trial's own work is a few small
        # arrays, so what grows with the trial count is what the run
        # keeps per trial and what emitting it holds
        def cfg(replicates):
            return config(mask={"kind": "minor", "S": [0, 1]}, p=4,
                          n_grid=(64,), replicates=replicates)

        def peak(replicates):
            tracemalloc.start()
            try:
                emit_results(run_error_experiment(cfg(replicates)), "csv",
                             tmp_path / "r.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the interpreter's first run at a size allocates what it then
        # reuses (about 60 B a trial up to ~1,300 trials): warm it untraced
        emit_results(run_error_experiment(cfg(1300)), "csv",
                     tmp_path / "r.csv")
        small, large = peak(300), peak(1300)
        assert (large - small) / 1000 < 64

    def test_read_peak_grows_by_less_than_1200_bytes_a_row(self, tmp_path):
        # a results CSV with the p=4 minor's columns, three n and four
        # bounds: what grows with the row count is the text, its split
        # rows and the columns built from them
        rng = np.random.default_rng(5)

        def write(rows):
            path = tmp_path / f"r{rows}.csv"
            emit_results([Trials(
                n=n, p=4, m=2, replicate=reps, error=rng.random(len(reps)),
                bounds={"refined": bound_refined(2 ** 0.5, 2.0, n, 4, 1.0),
                        "theorem_main": bound_theorem_main(2 ** 0.5, 2.0, n,
                                                           4, 1.0),
                        "bai_yin": bound_minor(4, n, 1.0),
                        "minor": bound_minor(2, n, 1.0)})
                for n, reps in zip((16, 64, 256),
                                   np.array_split(np.arange(rows), 3))],
                "csv", path)
            return path

        def peak(path):
            tracemalloc.start()
            try:
                read_results(path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = write(600), write(3600)
        read_results(small)  # warm-up, untraced
        assert (peak(large) - peak(small)) / 3000 < 1200

    @pytest.mark.parametrize("decoupled,units", [(False, 2.0), (True, 4.0)])
    def test_trial_peak_in_p_by_p_arrays(self, monkeypatch, decoupled, units):
        # AR(1) banded at p=512, n=256: a trial holds the (n x p) root
        # (half a p x p array) and Sigma_hat, masked in place (1.5 in
        # all); a decoupled trial adds the cross term and its norm's
        # work (3.5).  An unmasked temporary adds a whole unit.
        p = 512
        draw = maskcov.harness.draw_samples
        start = []

        def traced_draw(*args):
            tracemalloc.reset_peak()  # the trial starts with its draw
            start.append(tracemalloc.get_traced_memory()[0])
            return draw(*args)

        monkeypatch.setattr("maskcov.harness.draw_samples", traced_draw)
        cfg = config(sigma={"kind": "ar1", "rho": 0.5},
                     mask={"kind": "banded", "k": 2}, p=p, n_grid=(256,),
                     replicates=1)
        tracemalloc.start()
        try:
            run_error_experiment(cfg, decoupled=decoupled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start[-1]) / (8 * p * p) < units
