"""Seeded Monte Carlo experiment runner.

Sweeps sample sizes and replicates, estimates the masked estimation
error ||M . Sigma_hat_n - M . Sigma|| in spectral norm, attaches the
closed-form bounds to every trial, and fits log-log scaling exponents.
Identical configs reproduce identical output bytes.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import stat
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import verify
from .bounds import bound_minor, bound_refined, bound_theorem_main
from .errors import (CheckFailedError, InputError, count, csv_rows, integer,
                     number, read_text, spec_field)
from .linalg import largest_singular_value, matrix_from_csv, symmetric_norm
from .masks import Mask, mask_from_spec
from .sampler import (GaussianModel, SeedSpec, decoupled_covariance,
                      draw_samples, mix64, sample_covariance,
                      sample_covariance_centered)

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
        integer(self.p, "p", 1, MAX_P)
        count(self.replicates, "replicates")
        SeedSpec(self.master_seed, 0)  # a seed has SeedSpec's one rule
        least = 2 if self.centered else 1
        grid = tuple(count(n, "n_grid entry", least) for n in self.n_grid)
        if not grid or list(grid) != sorted(grid) or len(set(grid)) != len(grid):
            raise InputError(f"n_grid must be nonempty ascending, got {grid}")
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


@dataclass(frozen=True, eq=False)
class Trials:
    """Trials as columns: a run's at one ``n``, or a results file's.

    Each field is one value that every trial shares or an array of one
    value a trial; ``error`` is always such an array.  A bound missing
    from ``bounds`` is absent from every trial, and ``""`` in a bound's
    array from that trial.
    """

    n: object
    p: object
    m: object
    replicate: object
    error: np.ndarray
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
    """Estimation-error sweep over (n_grid x replicates), as :class:`Trials`.

    For a fixed mask (any kind but threshold), each trial's error is
    asserted below its refined bound.  With ``decoupled``, each trial
    also records 2 ||M . Sigma'_n||, and for a fixed mask at
    ``verify.MIN_REPLICATES`` or more replicates the mean error at each
    n must not exceed the mean decoupled value, as judged by
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
    reps = config.replicates
    results = []
    for n in config.n_grid:
        if fixed:  # its bounds depend on n only, not on the replicate
            bounds = _trial_bounds(mask, n, config.p, sigma_norm)
        errors, crosses, ms, per_rep = np.empty(reps), np.empty(reps), [], []
        for rep in range(reps):
            batch = draw_samples(
                model, n, SeedSpec(config.master_seed, mix64(n, rep, 0)))
            sigma_hat = (sample_covariance_centered(batch) if config.centered
                         else sample_covariance(batch))
            if not fixed:
                mask = mask_from_spec(config.mask, config.p, sigma_hat=sigma_hat)
                ms.append(mask.max_col_nnz)
                per_rep.append(_trial_bounds(mask, n, config.p, sigma_norm))
            # masked in place, so a trial holds no p x p temporary; exactly
            # symmetric: the mask, sigma_hat and sigma all are
            sigma_hat -= model.sigma
            sigma_hat *= mask.block
            err = symmetric_norm(sigma_hat) / divisor
            del sigma_hat  # no p x p array outlives its use
            if fixed and err > bounds["refined"] * (1.0 + 1e-12) + 1e-12:
                raise CheckFailedError(
                    f"explicit-constant bound violated at n={n} replicate={rep}: "
                    f"error {err} > refined bound {bounds['refined']}")
            errors[rep] = err
            if decoupled:
                cross = decoupled_covariance(
                    model, batch,
                    SeedSpec(config.master_seed, mix64(n, rep, 1)))
                # never symmetric, so no is_symmetric scan: its norm is
                # the largest eigenvalue of its scaled Gram
                cross *= mask.block
                crosses[rep] = 2.0 * largest_singular_value(cross) / divisor
        if not fixed:  # one m and one set of bounds a replicate
            bounds = {k: _column([b.get(k, "") for b in per_rep])
                      for k in set().union(*per_rep)}
        if decoupled:
            if fixed and reps >= verify.MIN_REPLICATES:
                report = verify.compare_means("decoupled_error", errors,
                                              crosses)
                if not report.passed:
                    raise CheckFailedError(
                        f"decoupling inequality violated at n={n}: {report}")
            bounds["decoupled"] = crosses
        m = mask.max_col_nnz if fixed else np.array(ms)
        results.append(Trials(n, config.p, m, np.arange(reps), errors, bounds))
    return results


def _column(values) -> np.ndarray:
    """One bound's values, one a trial: floats, or objects with "" where
    it is absent."""
    return np.array(values, dtype=object if "" in values else float)


def fit_scaling(results, axis: str) -> ScalingReport:
    """OLS fit of ln(mean error) against ln(axis value), axis in {n, m}."""
    if axis not in ("n", "m"):
        raise InputError(f"axis must be 'n' or 'm', got {axis!r}")
    keys, errors = (np.concatenate(cols or [[]]) for cols in (
        [np.broadcast_to(getattr(t, axis), t.error.shape) for t in results],
        [t.error for t in results]))
    vals = sorted(set(keys.tolist()))
    if len(vals) < 3:
        raise InputError(
            f"need >= 3 distinct {axis} values for a fit, got {len(vals)}")
    if vals[0] <= 0:
        raise InputError(
            f"all {axis} values must be positive for a log-log fit, got {vals[0]}")
    means = np.array([np.mean(errors[keys == v]) for v in vals])
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


def write_output(path, chunks) -> None:
    """Write ``chunks``, a string or an iterable of strings written in
    turn, to ``path``: the one way the package writes a file.

    An existing regular file is unlinked and the text written to a new
    one, never truncated: on ext4, truncating (or renaming over) a file
    written moments ago waits for its writeback, about 60 ms a file.  A
    hard link to the old file keeps the old bytes.  A symlink, a device
    or a missing path is opened and written as it is.
    """
    try:
        with contextlib.suppress(FileNotFoundError):
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.unlink(path)
        with Path(path).open("w") as fh:
            fh.writelines([chunks] if isinstance(chunks, str) else chunks)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


#: Trials formatted at a time, which bounds the results text held at once
_CHUNK = 256


def emit_results(results, fmt: str, path) -> None:
    """Write :class:`Trials` as CSV or JSON, one row a trial, with
    round-trip float precision."""
    if fmt not in ("csv", "json"):
        raise InputError(f"unknown output format {fmt!r}")
    seen = set().union(*(t.bounds for t in results))
    cols = [k for k in _BOUND_ORDER if k in seen] + sorted(
        seen.difference(_BOUND_ORDER))
    header = ["n", "p", "m", "replicate", "error"] + [f"bound_{c}" for c in cols]

    def chunks():  # each an iterator of rows, "" for an absent bound
        for t in results:
            for lo in range(0, len(t.error), _CHUNK):
                yield zip(*(
                    v[lo:lo + _CHUNK].tolist() if isinstance(v, np.ndarray)
                    else itertools.repeat(v) for v in (
                        t.n, t.p, t.m, t.replicate, t.error,
                        *(t.bounds.get(c, "") for c in cols))))

    def csv_text():  # str of a float is its round-trip repr
        yield ",".join(header) + "\n"
        for rows in chunks():
            yield "".join(",".join(map(str, row)) + "\n" for row in rows)

    def json_text():  # json.dumps(all records, indent=1): the dump of each
        # chunk's records without its "[\n" and "\n]", joined by ",\n"
        sep = "[\n"
        for rows in chunks():
            yield sep + json.dumps([dict(zip(header, row)) for row in rows],
                                   indent=1)[2:-2]
            sep = ",\n"
        yield "[]\n" if sep == "[\n" else "\n]\n"

    write_output(path, csv_text() if fmt == "csv" else json_text())


def read_results(path) -> list:
    """Read :func:`emit_results` output as :class:`Trials`: JSON if it
    opens with ``[``, else CSV, each cell the JSON value written there
    ("" if empty: no bound)."""
    text = read_text(path, "results")
    try:
        if text.lstrip().startswith("["):
            records = json.loads(text)
            cols = {k: [rec.get(k, "") for rec in records] for k in
                    dict.fromkeys(k for rec in records for k in rec)}
        else:  # each column parsed in turn, as it is read
            header, *records = csv_rows(text) or [[]]
            cols = {k: (json.loads(v) if v else "" for v in col)
                    for k, col in zip(header, zip(*records))}
        if not records:
            raise InputError("no trial rows")
        ints = {k: np.array([integer(v, k) for v in cols[k]],
                            dtype=object)  # any Python int, exactly
                for k in ("n", "p", "m", "replicate")}
        errors = np.array([number(v, "error") for v in cols["error"]])
        bounds = {k[len("bound_"):]: _column(
            [v if v == "" else number(v, k) for v in col])
            for k, col in cols.items() if k.startswith("bound_")}
    except (AttributeError, KeyError, TypeError, ValueError, InputError) as exc:
        # json.JSONDecodeError is a ValueError
        raise InputError(f"malformed results in {path}: {exc!r}") from exc
    return [Trials(**ints, error=errors, bounds=bounds)]
