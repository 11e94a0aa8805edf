"""Guards that the command-line tests leave unreached, called in-process:
each rejects its input with InputError before doing any work."""

import numpy as np
import pytest

from maskcov import ExperimentConfig, InputError, SeedSpec, cli, verify
from maskcov.harness import emit_results, read_results
from maskcov.linalg import as_matrix
from maskcov.masks import banded_mask, minor_mask, taper_mask
from maskcov.sampler import GaussianModel, draw_samples

#: a valid experiment config, as ExperimentConfig keywords
CONFIG = {"sigma": {"kind": "identity"}, "mask": {"kind": "banded", "k": 1},
          "n_grid": [16], "p": 8, "replicates": 3, "master_seed": 0}


@pytest.mark.parametrize("call,match", [
    (lambda tmp: emit_results([], "tsv", tmp / "r.tsv"), "unknown output"),
    (lambda tmp: read_results(tmp), "cannot read results"),
    (lambda tmp: as_matrix(np.ones(3)), "non-empty 2-d"),
    (lambda tmp: verify.max_bilinear_regular(np.ones((2, 3))), "square"),
    (lambda tmp: verify.max_bilinear_regular(
        np.eye(verify.MAX_ENUM_DIM + 1)), r"p must lie in \[1, 15\)"),
    (lambda tmp: verify.circle_net(3), r"points must lie in \[4, "),
    (lambda tmp: verify.net_norm_bound_check(
        np.eye(3), verify.circle_net(8)[0], 0.1), "do not match"),
    (lambda tmp: verify.concentration_check(
        "linear", 1.0, np.eye(2), 0, (1.0,), SeedSpec(0, 0)),
     r"trials must lie in \[1, "),
    (lambda tmp: verify.sigma_x_mean_check(
        banded_mask(4, 1), np.ones(3) / np.sqrt(3), 8, 10, SeedSpec(0, 0)),
     r"shape \(4,\)"),
    (lambda tmp: verify.sigma_x_mean_check(
        banded_mask(4, 1), np.eye(4)[0], 8, 1, SeedSpec(0, 0)),
     r"batches must lie in \[2, "),
    (lambda tmp: verify.sigma_x_mean_check(
        banded_mask(4, 1), np.eye(4)[0], 0, 10, SeedSpec(0, 0)),
     r"n must lie in \[1, "),
    (lambda tmp: verify.sigma_x_mean_check(
        banded_mask(4, 1), [np.nan, 0, 0, 0], 5, 10, SeedSpec(0, 0)),
     "finite unit vector"),
    (lambda tmp: verify.sigma_x_lipschitz_check(
        minor_mask(6, range(4)), 1, -5, SeedSpec(0, 0)),
     r"trials must lie in \[1, "),
    (lambda tmp: verify.sigma_x_lipschitz_check(
        minor_mask(6, range(4)), 1, 0, SeedSpec(0, 0)),
     r"trials must lie in \[1, "),
    (lambda tmp: verify.concentration_check(
        "linear", 0.0, np.eye(2), 10, (1.0,), SeedSpec(0, 0)),
     "positive and finite"),
    (lambda tmp: verify.concentration_check(
        "linear", np.nan, np.eye(2), 10, (1.0,), SeedSpec(0, 0)),
     "positive and finite"),
    (lambda tmp: verify.concentration_check(
        "linear", 1.0, np.eye(2), 10, (1.0, np.nan), SeedSpec(0, 0)),
     "finite"),
    (lambda tmp: verify.concentration_check(
        "linear", 1.0, np.zeros((2, 2)), 10, (1.0,), SeedSpec(0, 0)),
     "nonzero"),
    (lambda tmp: verify.concentration_check(
        "linear", 1.0, np.eye(2), 2.5, (1.0,), SeedSpec(0, 0)),
     "must be an integer"),
    (lambda tmp: verify.decoupling_check(
        [np.eye(3)], np.eye(2), 10_000, SeedSpec(0, 0)), "shape"),
    (lambda tmp: verify.decoupling_check(
        [np.eye(2)], np.eye(2), 2.5, SeedSpec(0, 0)), "must be an integer"),
    (lambda tmp: verify.sigma_x_lipschitz_check(
        minor_mask(6, range(4)), 2.5, 10, SeedSpec(0, 0)),
     "must be an integer"),
    (lambda tmp: verify.circle_net(4.5), "must be an integer"),
    # mix64 reads int(seed), so these would alias SeedSpec(2, 0) and (1, 0)
    (lambda tmp: SeedSpec(2.5, 0), "must be an integer"),
    (lambda tmp: SeedSpec(2, 0.5), "must be an integer"),
    (lambda tmp: SeedSpec(True, 0), "must be an integer"),
    (lambda tmp: draw_samples(GaussianModel.identity(2), 2.5, SeedSpec(0, 0)),
     "must be an integer"),
    (lambda tmp: draw_samples(GaussianModel.identity(2), True, SeedSpec(0, 0)),
     "must be an integer"),
    (lambda tmp: banded_mask(5.5, 1), "must be an integer"),
    (lambda tmp: taper_mask(5.5, 2), "must be an integer"),
    (lambda tmp: minor_mask(5.5, [0]), "must be an integer"),
    (lambda tmp: banded_mask(True, 0), "must be an integer"),
    # 2^53 float64 trials would be 64 PiB: rejected before np.empty
    (lambda tmp: verify.concentration_check(
        "linear", 1.0, np.eye(2), 2 ** 53, (1.0,), SeedSpec(0, 0)),
     r"trials must lie in \[1, 9007199254740992\)"),
    # mix64 reduces every part mod 2^64, so SeedSpec(0, -1) would run
    # the stream of SeedSpec(0, 2^64 - 1)
    (lambda tmp: SeedSpec(0, -1),
     r"stream index must lie in \[0, 18446744073709551616\), got -1"),
    (lambda tmp: SeedSpec(0, 2 ** 64), r"stream index must lie in \[0, "),
    (lambda tmp: ExperimentConfig(**dict(CONFIG, master_seed=-1)),
     r"master seed must lie in \[0, 18446744073709551616\), got -1"),
    (lambda tmp: ExperimentConfig(**dict(CONFIG, master_seed=2 ** 64)),
     r"master seed must lie in \[0, "),
    (lambda tmp: minor_mask(4, [0, 4]),
     r"minor index must lie in \[0, 4\), got 4"),
    (lambda tmp: banded_mask(4, 4),
     r"half-bandwidth must lie in \[0, 4\), got 4"),
    (lambda tmp: taper_mask(4, 3), r"taper width must be even, got 3"),
    (lambda tmp: taper_mask(4, 8), r"taper width must lie in \[2, 7\), got 8"),
    (lambda tmp: verify.enum_regular(3, 4), r"s must lie in \[1, 4\), got 4"),
    (lambda tmp: verify.net_norm_bound_check(
        np.eye(2), verify.circle_net(8)[0], "0.1"), "delta must be a number"),
    (lambda tmp: verify.net_norm_bound_check(
        np.eye(2), verify.circle_net(8)[0], None), "delta must be a number"),
], ids=["emit-unknown-format", "read-directory", "matrix-not-2d",
        "enum-non-square", "enum-too-large", "net-too-few-points",
        "net-mismatched", "concentration-no-trials", "sigma-x-wrong-shape",
        "sigma-x-one-batch", "sigma-x-no-observations", "sigma-x-nan-direction",
        "lipschitz-negative-trials", "lipschitz-no-trials",
        "concentration-zero-lipschitz", "concentration-nan-lipschitz",
        "concentration-nan-t", "concentration-zero-sigma",
        "concentration-fractional-trials", "decoupling-mismatched-family",
        "decoupling-fractional-trials", "lipschitz-fractional-support",
        "net-fractional-points", "seed-fractional-master",
        "seed-fractional-stream", "seed-bool-master", "draw-fractional-n",
        "draw-bool-n", "banded-fractional-p", "taper-fractional-p",
        "minor-fractional-p", "banded-bool-p", "concentration-trials-2^53",
        "seed-negative-stream", "seed-stream-2^64", "config-negative-seed",
        "config-seed-2^64", "minor-index-p", "banded-k-p", "taper-k-odd",
        "taper-k-2p", "enum-s-beyond-p", "net-delta-string", "net-delta-none"])
def test_guard_rejects(tmp_path, call, match):
    with pytest.raises(InputError, match=match):
        call(tmp_path)


def test_largest_stream_index_is_accepted():
    assert SeedSpec(0, 2 ** 64 - 1).stream_index == 2 ** 64 - 1


@pytest.mark.parametrize("trials", [0, -5])
def test_bad_trials_run_no_check(tmp_path, monkeypatch, capsys, trials):
    # the battery reads its count before its first check, so neither it
    # nor verify-lemmas runs a decoupling check on a count it rejects
    calls = []
    monkeypatch.setattr(verify, "decoupling_check",
                        lambda *args: calls.append(args))
    with pytest.raises(InputError, match=r"trials must lie in \[1, "):
        next(verify.lemma_battery(0, trials))
    out = tmp_path / "l.jsonl"
    assert cli.main(["verify-lemmas", "--trials", str(trials),
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: trials must lie in [1, ")
    assert calls == [] and not out.exists()
