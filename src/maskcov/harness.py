"""Seeded Monte Carlo experiment runner.

Sweeps sample sizes and replicates, estimates the masked estimation
error ||M . Sigma_hat_n - M . Sigma|| in spectral norm, attaches the
closed-form bounds to every trial, and fits log-log scaling exponents.
Identical configs reproduce identical output bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bounds import bound_minor, bound_refined, bound_theorem_main
from .errors import CheckFailedError, InputError, integer, number, spec_field
from .linalg import largest_singular_value, matrix_from_csv, symmetric_norm
from .masks import Mask, mask_from_spec
from .sampler import (GaussianModel, SeedSpec, decoupled_covariance,
                      draw_samples, mix64, sample_covariance,
                      sample_covariance_centered)
from .verify import compare_means

_BOUND_ORDER = ("refined", "theorem_main", "bai_yin", "minor", "decoupled")

#: How a run turns (master_seed, n, replicate) into draws.  Version 2 keys
#: the streams by the value of n, not its grid position, and draws the
#: sufficient statistic on the mask's support; results at a given seed
#: differ from version 1.  Versions 3 and 4 draw an AR(1) model through
#: its triangular AR-recursion factor instead of its symmetric root, on
#: all p coordinates (3) and on any support (4): the same law, new bytes.
STREAM_VERSION = 4

#: numpy refuses a p x p float64 array once 8 p^2 >= 2^63 bytes, before
#: allocating anything; below this p too large an array is a MemoryError
MAX_P = 2 ** 30
#: sample sizes and trial counts are used as floats, which hold every
#: integer below 2^53 exactly
MAX_COUNT = 2 ** 53


@dataclass(frozen=True)
class ExperimentConfig:
    """The config JSON object: one field per key, under the key's name."""

    sigma: dict
    mask: dict
    n_grid: tuple
    p: int
    replicates: int
    master_seed: int
    centered: bool = False
    error_metric: str = "absolute"

    def __post_init__(self):
        if not (isinstance(self.sigma, dict) and isinstance(self.mask, dict)):
            raise InputError("sigma and mask must be JSON objects")
        if not isinstance(self.centered, bool):
            raise InputError(f"centered must be true|false, got {self.centered!r}")
        if not 1 <= integer(self.p, "p") < MAX_P:
            raise InputError(f"p must lie in [1, {MAX_P}), got {self.p}")
        if integer(self.replicates, "replicates") < 1:
            raise InputError(f"replicates must be >= 1, got {self.replicates}")
        integer(self.master_seed, "master_seed")
        grid = tuple(integer(n, "n_grid entry") for n in self.n_grid)
        if not grid or list(grid) != sorted(grid) or len(set(grid)) != len(grid):
            raise InputError(f"n_grid must be nonempty ascending, got {grid}")
        if grid[0] < (2 if self.centered else 1):
            raise InputError("sample sizes must be >= 1, and >= 2 if centered")
        if grid[-1] >= MAX_COUNT:
            raise InputError(
                f"sample sizes must be < {MAX_COUNT}, got {grid[-1]}")
        object.__setattr__(self, "n_grid", grid)
        if self.error_metric not in ("absolute", "relative"):
            raise InputError(
                f"error_metric must be absolute|relative, got {self.error_metric!r}")

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        try:
            return cls(**obj)
        except TypeError as exc:  # a missing or unknown key, a non-list n_grid
            raise InputError(f"malformed experiment config: {exc}") from exc


@dataclass(frozen=True)
class TrialResult:
    n: int
    p: int
    m: int
    replicate: int
    error: float
    bounds: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScalingReport:
    axis: str
    slope: float
    slope_stderr: float
    intercept: float
    points: int


def build_model(config: ExperimentConfig, support=None) -> GaussianModel:
    """The model of the coordinates ``support`` (sorted, distinct; all p
    if None).  Its ``sigma_norm`` is the full p x p ||Sigma||, which the
    bounds scale by whichever block a trial draws."""
    spec = config.sigma
    kind = spec.get("kind")
    dim = config.p if support is None else len(support)
    if kind == "identity":
        return GaussianModel.identity(dim)
    if kind == "zero":  # its only root is 0, and its norm is 0
        zero = np.zeros((dim, dim))
        return GaussianModel(sigma=zero, factor=zero, sigma_norm=0.0)
    if kind == "ar1":
        return GaussianModel.ar1(config.p, spec.get("rho"), support)
    if kind == "custom":
        sigma = matrix_from_csv(spec_field(spec, "path", str))
        if sigma.shape != (config.p, config.p):
            raise InputError(
                f"custom covariance is {sigma.shape[0]}x{sigma.shape[1]}, "
                f"config p={config.p}")
        return GaussianModel.from_covariance(sigma, support)
    raise InputError(f"unknown sigma kind {kind!r}")


def _trial_bounds(mask: Mask, n: int, p: int, sigma_norm: float) -> dict:
    out = {
        "refined": bound_refined(mask.norm_12, mask.norm_op, n, p, sigma_norm),
        "theorem_main": bound_theorem_main(mask.norm_12, mask.norm_op, n, p,
                                           sigma_norm),
        "bai_yin": bound_minor(p, n, sigma_norm),
    }
    # the envelope of an m-variable minor: a mask all ones on S x S is one
    if (mask.block == 1.0).all():
        out["minor"] = bound_minor(mask.max_col_nnz, n, sigma_norm)
    return out


def run_error_experiment(config: ExperimentConfig,
                         decoupled: bool = False) -> list:
    """Estimation-error sweep over (n_grid x replicates).

    For a fixed mask (any kind but threshold), each trial's error is
    asserted below its refined bound.  With ``decoupled``, each trial
    also records 2 ||M . Sigma'_n||, and for a fixed mask the mean error
    at each n must not exceed the mean decoupled value, as judged by
    :func:`verify.compare_means`.
    """
    # the 1x1 stand-in lets a threshold spec be checked before the first draw
    mask = mask_from_spec(config.mask, config.p, sigma_hat=np.zeros((1, 1)))
    # a threshold mask is chosen from the sample it is applied to, so no
    # bound covers it: its error and decoupled term are recorded, not asserted
    fixed = config.mask["kind"] != "threshold"
    # M . Sigma_hat reads Sigma_hat only on the support of a fixed mask
    # (all of p for a threshold mask), so each trial draws and measures
    # that block alone: its spectral norm is the p x p one
    model = build_model(config, mask.support if fixed else None)
    # relative metric divides errors and bounds alike by ||Sigma||
    divisor = 1.0
    if config.error_metric == "relative" and model.sigma_norm > 0.0:
        divisor = model.sigma_norm
    sigma_norm = model.sigma_norm / divisor
    results = []
    for n in config.n_grid:
        if fixed:  # its bounds depend on n only, not on the replicate
            bounds = _trial_bounds(mask, n, config.p, sigma_norm)
        for rep in range(config.replicates):
            batch = draw_samples(
                model, n, SeedSpec(config.master_seed, mix64(n, rep, 0)))
            sigma_hat = (sample_covariance_centered(batch) if config.centered
                         else sample_covariance(batch))
            if not fixed:
                mask = mask_from_spec(config.mask, config.p, sigma_hat=sigma_hat)
                bounds = _trial_bounds(mask, n, config.p, sigma_norm)
            # exactly symmetric: the mask, sigma_hat and sigma all are
            err = symmetric_norm(mask.block * (sigma_hat - model.sigma)) / divisor
            del sigma_hat  # no p x p temporary outlives its use
            if fixed and err > bounds["refined"] * (1.0 + 1e-12) + 1e-12:
                raise CheckFailedError(
                    f"explicit-constant bound violated at n={n} replicate={rep}: "
                    f"error {err} > refined bound {bounds['refined']}")
            bnds = dict(bounds)
            if decoupled:
                cross = decoupled_covariance(
                    model, batch,
                    SeedSpec(config.master_seed, mix64(n, rep, 1)))
                # never symmetric, so no is_symmetric scan: its norm is
                # the largest eigenvalue of its scaled Gram
                bnds["decoupled"] = 2.0 * largest_singular_value(
                    mask.block * cross) / divisor
            results.append(TrialResult(n=n, p=config.p, m=mask.max_col_nnz,
                                       replicate=rep, error=err, bounds=bnds))
        # no stderr from a single replicate
        if fixed and decoupled and config.replicates >= 2:
            trials = results[-config.replicates:]
            report = compare_means("decoupled_error", [t.error for t in trials],
                                   [t.bounds["decoupled"] for t in trials])
            if not report.passed:
                raise CheckFailedError(
                    f"decoupling inequality violated at n={n}: {report}")
    return results


def fit_scaling(results, axis: str) -> ScalingReport:
    """OLS fit of ln(mean error) against ln(axis value), axis in {n, m}."""
    if axis not in ("n", "m"):
        raise InputError(f"axis must be 'n' or 'm', got {axis!r}")
    groups: dict[int, list] = {}
    for t in results:
        groups.setdefault(getattr(t, axis), []).append(t.error)
    if len(groups) < 3:
        raise InputError(
            f"need >= 3 distinct {axis} values for a fit, got {len(groups)}")
    vals = sorted(groups)
    if vals[0] <= 0:
        raise InputError(
            f"all {axis} values must be positive for a log-log fit, got {vals[0]}")
    means = np.array([np.mean(groups[v]) for v in vals])
    if not (np.isfinite(means) & (means > 0.0)).all():
        raise InputError(
            "all mean errors must be positive and finite for a log-log fit")
    x = np.log(np.array(vals, dtype=float))
    y = np.log(means)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise InputError("axis values are degenerate")
    slope = float(xc @ y) / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = len(vals) - 2
    sigma2 = float(resid @ resid) / dof if dof > 0 else 0.0
    return ScalingReport(axis=axis, slope=slope,
                         slope_stderr=math.sqrt(max(sigma2, 0.0) / sxx),
                         intercept=intercept, points=len(vals))


def _bound_columns(results) -> list:
    seen = set()
    for t in results:
        seen.update(t.bounds)
    extras = sorted(seen.difference(_BOUND_ORDER))
    return [k for k in _BOUND_ORDER if k in seen] + extras


def _rows(results):
    cols = _bound_columns(results)
    header = ["n", "p", "m", "replicate", "error"] + [f"bound_{c}" for c in cols]
    rows = [[t.n, t.p, t.m, t.replicate, t.error]
            + [t.bounds.get(c, "") for c in cols] for t in results]
    return header, rows


def emit_results(results, fmt: str, path) -> None:
    """Write TrialResults as CSV or JSON with round-trip float precision."""
    header, rows = _rows(results)
    try:
        if fmt == "csv":
            lines = [",".join(header)]
            lines += [",".join(repr(v) if isinstance(v, float) else str(v)
                               for v in row) for row in rows]
            Path(path).write_text("\n".join(lines) + "\n")
        elif fmt == "json":
            Path(path).write_text(json.dumps(
                [dict(zip(header, row)) for row in rows], indent=1) + "\n")
        else:
            raise InputError(f"unknown output format {fmt!r}")
    except OSError as exc:
        raise InputError(f"cannot write results to {path}: {exc}") from exc


def read_results(path) -> list:
    """Read :func:`emit_results` output: JSON if it opens with ``[``, else CSV.

    A CSV cell is the JSON value written there ("" if empty: no bound).
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read results from {path}: {exc}") from exc
    try:
        if text.lstrip().startswith("["):
            records = json.loads(text)
        else:
            rows = [ln.split(",") for ln in text.splitlines() if ln.strip()]
            if not rows:
                raise InputError("no header row")
            if any(len(row) != len(rows[0]) for row in rows):
                raise InputError(
                    f"every row must have the header's {len(rows[0])} cells")
            records = [{k: json.loads(v) if v else "" for k, v in
                        zip(rows[0], row)} for row in rows[1:]]
        results = []
        for rec in records:
            ints = [integer(rec[k], k) for k in ("n", "p", "m", "replicate")]
            bounds = {k[len("bound_"):]: number(v, k) for k, v in rec.items()
                      if k.startswith("bound_") and v != ""}
            results.append(TrialResult(*ints, number(rec["error"], "error"),
                                       bounds))
    except (AttributeError, KeyError, TypeError, ValueError, InputError) as exc:
        # json.JSONDecodeError is a ValueError
        raise InputError(f"malformed results in {path}: {exc!r}") from exc
    if not results:
        raise InputError(f"no trial rows in results file {path}")
    return results
