"""Guards that the command-line tests leave unreached, called in-process:
each rejects its input with InputError before doing any work."""

import numpy as np
import pytest

from maskcov import InputError, SeedSpec, verify
from maskcov.harness import emit_results, read_results
from maskcov.linalg import as_matrix
from maskcov.masks import banded_mask


@pytest.mark.parametrize("call,match", [
    (lambda tmp: emit_results([], "tsv", tmp / "r.tsv"), "unknown output"),
    (lambda tmp: read_results(tmp), "cannot read results"),
    (lambda tmp: as_matrix(np.ones(3)), "non-empty 2-d"),
    (lambda tmp: verify.max_bilinear_regular(np.ones((2, 3))), "square"),
    (lambda tmp: verify.max_bilinear_regular(
        np.eye(verify.MAX_ENUM_DIM + 1)), "enumeration capped"),
    (lambda tmp: verify.circle_net(3), "at least 4 net points"),
    (lambda tmp: verify.net_norm_bound_check(
        np.eye(3), verify.circle_net(8)[0], 0.1), "do not match"),
    (lambda tmp: verify.concentration_check(
        "linear", 1.0, np.eye(2), 0, (1.0,), SeedSpec(0, 0)), "one trial"),
    (lambda tmp: verify.sigma_x_mean_check(
        banded_mask(4, 1), np.ones(3) / np.sqrt(3), 8, 10, SeedSpec(0, 0)),
     r"shape \(4,\)"),
    (lambda tmp: verify.sigma_x_mean_check(
        banded_mask(4, 1), np.eye(4)[0], 8, 1, SeedSpec(0, 0)), "2 batches"),
    (lambda tmp: verify.sigma_x_mean_check(
        banded_mask(4, 1), np.eye(4)[0], 0, 10, SeedSpec(0, 0)),
     "1 observation"),
], ids=["emit-unknown-format", "read-directory", "matrix-not-2d",
        "enum-non-square", "enum-too-large", "net-too-few-points",
        "net-mismatched", "concentration-no-trials", "sigma-x-wrong-shape",
        "sigma-x-one-batch", "sigma-x-no-observations"])
def test_guard_rejects(tmp_path, call, match):
    with pytest.raises(InputError, match=match):
        call(tmp_path)
