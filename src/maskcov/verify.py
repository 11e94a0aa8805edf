"""Executable oracles for the probabilistic machinery behind the bounds.

Covers chaos decoupling, Gaussian concentration, operator-norm
discretization over nets and regular vectors, and the per-direction
deviation functional sigma_x with its mean and Lipschitz bounds.  Exact
combinatorial checks report stderr 0; Monte Carlo checks pass at a fixed
3-standard-error margin.  The mean check of sigma_x draws each batch's
statistic from its exact law, a weighted sum of p chi-square variables,
rather than from the batch's n x p observations.  :func:`lemma_battery`
is the fixed battery of these checks: which run, on which matrices,
seeds and trial floors.  The ``verify-lemmas`` command only parses its
arguments, calls it and writes the reports.  Every check reads its
trial, batch and point counts with :func:`errors.count` and rejects
arguments outside its contract with InputError.

The decoupling and regular-vector kernels run on BLAS products.  The
decoupling check forms Z A once per family member and chunk of trials,
and reads both quadratic forms off it as row-wise dot products.  The
regular-vector maximum holds its regular vectors as the columns of X,
so A X is one product; it sorts |A X| down the columns and builds the
top-s sums largest term first, one vector add per s.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, count, integer, number
from .linalg import as_matrix, spectral_norm, symmetrize
from .masks import Mask, banded_mask, minor_mask
from .sampler import GaussianModel, SeedSpec

#: Exhaustive enumeration over regular vectors is capped at this dimension.
MAX_ENUM_DIM = 14

#: Acceptance margin, in standard errors, for Monte Carlo lemma checks.
STDERR_MARGIN = 3.0

#: Fewest replicates per n at which a run's decoupled verdict is asserted.
#: At 2, each side's variance has one degree of freedom, and a correct
#: run failed about once in 10^4.
MIN_REPLICATES = 3

#: Fewest trials decoupling_check accepts; lemma_battery raises smaller
#: trial counts to it.
_DECOUPLING_MIN_TRIALS = 10_000

_CHUNK = 200_000


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    lhs: float
    rhs: float
    stderr: float
    passed: bool
    trials: int


def _report(lemma: str, lhs: float, rhs: float, stderr: float,
            trials: int) -> LemmaReport:
    return LemmaReport(lemma=lemma, lhs=float(lhs), rhs=float(rhs),
                       stderr=float(stderr),
                       passed=bool(lhs <= rhs + STDERR_MARGIN * stderr),
                       trials=int(trials))


def compare_means(lemma: str, lhs, rhs) -> LemmaReport:
    """Judge mean(lhs) <= mean(rhs) from two arrays of Monte Carlo draws.

    stderr is sqrt(var_l / N_l + var_r / N_r) with ddof=1; trials is N_l.
    """
    left = np.asarray(lhs, dtype=float)
    right = np.asarray(rhs, dtype=float)
    if min(left.size, right.size) < 2:
        raise InputError("need at least 2 draws per side for a standard error")
    stderr = math.sqrt(left.var(ddof=1) / left.size
                       + right.var(ddof=1) / right.size)
    return _report(lemma, left.mean(), right.mean(), stderr, left.size)


def _chunks(total: int, row_size: int):
    """Split range(total) into consecutive (lo, hi) spans of rows.

    Each span holds about _CHUNK entries of ``row_size`` each, and at
    least one row.
    """
    step = max(1, _CHUNK // max(row_size, 1))
    for lo in range(0, total, step):
        yield lo, min(lo + step, total)


def enum_regular(p: int, s: int) -> np.ndarray:
    """Every regular vector of support size s in R^p, one per row.

    A regular vector of support size s is a unit vector with exactly s
    nonzero coordinates, each equal to +-1/sqrt(s); the result has
    shape (C(p, s) * 2^s, p).  Supports come in lexicographic order;
    within a support, sign patterns follow binary counting with bit t
    flipping coordinate t of the support (0 -> +, 1 -> -).
    """
    p = integer(p, "p", 1, MAX_ENUM_DIM + 1)
    integer(s, "s", 1, p + 1)
    scale = 1.0 / math.sqrt(s)
    signs = np.empty((2 ** s, s))
    for b in range(2 ** s):
        signs[b] = [-scale if (b >> t) & 1 else scale for t in range(s)]
    supports = list(itertools.combinations(range(p), s))
    vectors = np.zeros((len(supports) * 2 ** s, p))
    for i, support in enumerate(supports):
        vectors[i * 2 ** s:(i + 1) * 2 ** s, support] = signs
    return vectors


def max_bilinear_regular(a) -> float:
    """max <Ax, y> over all pairs of regular vectors x, y.

    The best regular y of support size s picks the s largest |(Ax)_i|
    with matching signs, giving (sum of the top s |(Ax)_i|) / sqrt(s),
    so the max over y is taken in closed form.  It depends on |Ax|
    only, so x and -x tie and only the (3^p - 1) / 2 vectors whose last
    nonzero coordinate is +1 are scanned.  They are generated chunk by
    chunk, one per column, from balanced-ternary codes: code c in
    [(3^p + 1) / 2, 3^p) has digits (c // 3^t) % 3 - 1.  Each chunk's
    |A X| is sorted down its columns, and the top-s sums are built
    largest term first by one vector add per s.
    """
    arr = as_matrix(a)
    p = arr.shape[0]
    if arr.shape[0] != arr.shape[1]:
        raise InputError("square matrix required")
    integer(p, "p", 1, MAX_ENUM_DIM + 1)
    first = (3 ** p + 1) // 2
    # codes stay below 3^MAX_ENUM_DIM < 2^31, so int32 holds them
    powers = 3 ** np.arange(p, dtype=np.int32)[:, None]
    roots = np.sqrt(np.arange(1, p + 1))
    # scales[s] = 1/sqrt(s), the entry size of a support-s regular vector
    scales = np.concatenate([[0.0], 1.0 / roots])
    best = 0.0
    for lo, hi in _chunks(3 ** p - first, p):
        codes = np.arange(first + lo, first + hi, dtype=np.int32)
        digits = (codes // powers) % 3 - 1.0
        digits *= scales[np.count_nonzero(digits, axis=0)]
        w = arr @ digits  # column j = A @ x_j
        np.abs(w, out=w)
        w.sort(axis=0)
        run = np.zeros(hi - lo)
        for s in range(1, p + 1):
            run += w[-s]  # column j: the sum of the s largest |(A x_j)_i|
            best = max(best, float(run.max()) / roots[s - 1])
    return best


def reg_norm_bound_check(a) -> LemmaReport:
    """||A|| <= 12 ceil(ln 2p)^2 max over regular x, y of <Ax, y>."""
    arr = as_matrix(a)
    p = arr.shape[0]
    factor = 12.0 * math.ceil(math.log(2 * p)) ** 2
    rhs = factor * max_bilinear_regular(arr)
    return _report("reg_norm_bound", spectral_norm(arr), rhs, 0.0,
                   (3 ** p - 1) ** 2)


def circle_net(points: int) -> tuple[np.ndarray, float]:
    """Evenly spaced net on the unit circle with its covering radius delta.

    Any circle point is within arc theta/2 of the net for spacing
    theta = 2 pi / points, i.e. within chord 2 sin(theta/4).
    """
    count(points, "points", 4)
    angles = 2.0 * math.pi * np.arange(points) / points
    net = np.column_stack([np.cos(angles), np.sin(angles)])
    return net, 2.0 * math.sin(math.pi / (2.0 * points))


def net_norm_bound_check(a, net, delta: float) -> LemmaReport:
    """||A|| <= (1 - delta)^-2 max over net pairs of <Ax, y>."""
    if not 0.0 <= number(delta, "delta") < 1.0:
        raise InputError(f"delta must lie in [0, 1), got {delta}")
    arr = as_matrix(a)
    pts = np.atleast_2d(np.asarray(net, dtype=float))
    if pts.shape[1] != arr.shape[0]:
        raise InputError("net vectors do not match matrix dimension")
    rhs = float((pts @ arr.T @ pts.T).max()) / (1.0 - delta) ** 2
    return _report("net_norm_bound", spectral_norm(arr), rhs, 0.0,
                   pts.shape[0] ** 2)


def _gaussian_blocks(factor: np.ndarray, trials: int,
                     rng: np.random.Generator, copies: int = 1):
    """Yield (lo, hi, blocks): ``copies`` N(0, Sigma) draws for trials lo:hi."""
    d = factor.shape[0]
    for lo, hi in _chunks(trials, d):
        yield lo, hi, tuple(rng.standard_normal((hi - lo, d)) @ factor
                            for _ in range(copies))


def decoupling_check(family, sigma, trials: int,
                     seed: SeedSpec) -> LemmaReport:
    """Monte Carlo check of chaos decoupling over a family of matrices.

    lhs estimates E sup_A |<AZ, Z> - E<AZ, Z>| with the inner
    expectation computed analytically as trace(A Sigma); rhs estimates
    2 E sup_A |<AZ, Z'>| for an independent copy Z'.  Per chunk of
    trials, each member's Z A is one matrix product, and both forms are
    its row-wise dot products with Z and with Z'.
    """
    mats = [symmetrize(m) for m in family]
    if not mats:
        raise InputError("decoupling family must be nonempty")
    count(trials, "trials", _DECOUPLING_MIN_TRIALS)
    model = GaussianModel.from_covariance(sigma)
    if {m.shape for m in mats} != {model.sigma.shape}:
        raise InputError(
            f"family members must have Sigma's shape {model.sigma.shape}")
    traces = np.array([float(np.trace(m @ model.sigma)) for m in mats])
    rng = seed.generator()
    sup_same = np.empty(trials)
    sup_cross = np.empty(trials)
    for lo, hi, (z, zp) in _gaussian_blocks(model.factor, trials, rng, copies=2):
        same = np.empty((len(mats), hi - lo))
        cross = np.empty_like(same)
        for i, (m, tr) in enumerate(zip(mats, traces)):
            az = z @ m  # row t = (A z_t)^T, A symmetric
            np.einsum("ti,ti->t", az, z, out=same[i])
            same[i] -= tr
            np.einsum("ti,ti->t", az, zp, out=cross[i])
        sup_same[lo:hi] = np.abs(same, out=same).max(axis=0)
        sup_cross[lo:hi] = np.abs(cross, out=cross).max(axis=0)
    # doubling is exact, so this equals 2 * mean and 4 * var bit for bit
    return compare_means("decoupling_chaos", sup_same, 2.0 * sup_cross)


_LIPSCHITZ_FNS = {
    "linear": lambda z: z[:, 0],
    "sup-norm": lambda z: np.abs(z).max(axis=1),
    "euclidean-norm": lambda z: np.linalg.norm(z, axis=1),
}


def concentration_check(fn: str, lipschitz: float, sigma, trials: int,
                        t_grid, seed: SeedSpec) -> list[LemmaReport]:
    """Empirical tails of f(Z) - mean against (1/2) exp(-t^2 / 2 L^2 ||Sigma||).

    The empirical mean substitutes E f(Z); one report per t with a
    binomial standard error.
    """
    if fn not in _LIPSCHITZ_FNS:
        raise InputError(
            f"unknown function tag {fn!r}; expected one of {sorted(_LIPSCHITZ_FNS)}")
    count(trials, "trials")
    if not 0.0 < number(lipschitz, "lipschitz") < math.inf:
        raise InputError(
            f"lipschitz must be positive and finite, got {lipschitz}")
    ts = [number(t, "t") for t in t_grid]
    if not all(map(math.isfinite, ts)):
        raise InputError(f"every t must be finite, got {ts}")
    model = GaussianModel.from_covariance(sigma)
    scale = 2.0 * lipschitz ** 2 * model.sigma_norm
    if scale == 0.0:  # a zero Sigma, or L^2 ||Sigma|| below the float range
        raise InputError("need a nonzero lipschitz^2 * ||Sigma||")
    func = _LIPSCHITZ_FNS[fn]
    rng = seed.generator()
    values = np.empty(trials)
    for lo, hi, (z,) in _gaussian_blocks(model.factor, trials, rng):
        values[lo:hi] = func(z)
    centered = values - values.mean()
    reports = []
    for t in ts:
        tail = float((centered >= t).mean())
        rhs = 0.5 * math.exp(-t * t / scale)
        stderr = math.sqrt(tail * (1.0 - tail) / trials)
        reports.append(_report(f"concentration_{fn}_t{t:g}", tail, rhs,
                               stderr, trials))
    return reports


def _unit_direction(x, p: int) -> np.ndarray:
    """``x`` as a float vector, checked to be a finite unit vector in R^p."""
    vec = np.asarray(x, dtype=float)
    if vec.shape != (p,):
        raise InputError(f"x must have shape ({p},), got {vec.shape}")
    # NaN fails the comparison, so ask for the norm inside the tolerance
    if not abs(float(np.linalg.norm(vec)) - 1.0) <= 1e-9:
        raise InputError("x must be a finite unit vector")
    return vec


def _sigma_x(obs: np.ndarray, x: np.ndarray, matrix: np.ndarray):
    """(1/n) sqrt(sum_k ||M (x o X_k)||_2^2) over the last two axes of obs.

    ``obs`` stacks (n, p) batches; ``x`` broadcasts against them.
    """
    n = obs.shape[-2]
    return np.sqrt(np.square((obs * x) @ matrix).sum(axis=(-2, -1))) / n


def sigma_x_mean_check(mask: Mask, x, n: int, batches: int,
                       seed: SeedSpec) -> LemmaReport:
    """Monte Carlo mean of sigma_x against ||M||_{1,2} / sqrt(n).

    Batches are n observations from N(0, I), the unit-covariance case
    the mean bound is stated for.  For such a batch, n^2 sigma_x^2 =
    sum_k X_k^T A X_k with A = (M D_x)^T (M D_x), so rotating each X_k
    onto A's eigenvectors gives it exactly the law of sum_j lambda_j
    chi^2_n over A's eigenvalues lambda_j, with independent
    chi-squares.  A batch therefore draws p chi-squares, not n p
    normals.
    """
    vec = _unit_direction(x, mask.dim)
    count(batches, "batches", 2)  # one batch has no standard error
    count(n, "n")
    rng = seed.generator()
    p = mask.dim
    scaled = mask.matrix * vec  # M D_x: column j of M times x_j
    lam = np.clip(np.linalg.eigvalsh(scaled.T @ scaled), 0.0, None)
    vals = np.empty(batches)
    for lo, hi in _chunks(batches, p):
        vals[lo:hi] = np.sqrt(rng.chisquare(n, (hi - lo, p)) @ lam) / n
    stderr = math.sqrt(vals.var(ddof=1) / batches)
    return _report("sigma_x_mean", vals.mean(),
                   mask.norm_12 / math.sqrt(n), stderr, batches)


def sigma_x_lipschitz_check(mask: Mask, r: int, trials: int,
                            seed: SeedSpec) -> LemmaReport:
    """Check |sigma_x(B) - sigma_x(B')| <= ||M|| / (sqrt(r) n) * ||B - B'||_F.

    Directions x are drawn uniformly from the regular vectors of
    support size r; lhs is the worst observed ratio against the bound
    (with 1e-9 additive slack), rhs is 1.  Batches hold n = 20 observations.
    """
    count(trials, "trials")
    p, matrix = mask.dim, mask.matrix
    n = 20
    xs = enum_regular(p, r)
    rng = seed.generator()
    lip = mask.norm_op / (math.sqrt(r) * n)
    worst = 0.0
    for lo, hi in _chunks(trials, n * p):
        size = hi - lo
        x = xs[rng.integers(0, xs.shape[0], size=size)][:, None, :]
        b = rng.standard_normal((size, n, p))
        bp = rng.standard_normal((size, n, p))
        dist = np.linalg.norm((b - bp).reshape(size, -1), axis=1)
        ratio = np.abs(_sigma_x(b, x, matrix)
                       - _sigma_x(bp, x, matrix)) / (lip * dist + 1e-9)
        worst = max(worst, float(ratio.max()))
    return _report("sigma_x_lipschitz", worst, 1.0, 0.0, trials)


def lemma_battery(master_seed: int, trials: int):
    """Yield the LemmaReport of every built-in oracle check, in a fixed order.

    Each Monte Carlo check takes the next of SeedSpec(master_seed, 0),
    SeedSpec(master_seed, 1), ...; the matrices and directions come from
    SeedSpec(master_seed, 9_999_999).  Decoupling runs at least
    _DECOUPLING_MIN_TRIALS trials, and the sigma_x checks trials // 100
    batches and trials // 10 trials, at least 100 each.  Each check runs
    only when its report is read, and a bad ``trials`` is rejected
    before the first.
    """
    count(trials, "trials")
    seeds = (SeedSpec(master_seed, i) for i in range(10_000))
    rng = SeedSpec(master_seed, 9_999_999).generator()

    chaos_trials = max(trials, _DECOUPLING_MIN_TRIALS)
    yield decoupling_check([np.eye(1)], np.eye(1), chaos_trials, next(seeds))
    family = [(lambda a: (a + a.T) / 2)(rng.standard_normal((4, 4)))
              for _ in range(5)]
    root = rng.standard_normal((4, 4))
    yield decoupling_check(family, root @ root.T, chaos_trials, next(seeds))

    t_grid = (0.5, 1.0, 1.5)
    yield from concentration_check("linear", 1.0, np.eye(4), trials, t_grid,
                                   next(seeds))
    yield from concentration_check("sup-norm", 1.0, np.eye(50), trials,
                                   t_grid, next(seeds))
    yield from concentration_check("euclidean-norm", 1.0, np.eye(20), trials,
                                   t_grid, next(seeds))

    for p in (2, 4, 6, 8):
        for _ in range(5):
            yield reg_norm_bound_check(rng.standard_normal((p, p)))
    net, delta = circle_net(360)
    for _ in range(5):
        yield net_norm_bound_check(rng.standard_normal((2, 2)), net, delta)

    mask = banded_mask(12, 2)
    for _ in range(3):
        x = rng.standard_normal(12)
        yield sigma_x_mean_check(mask, x / np.linalg.norm(x), 50,
                                 max(trials // 100, 100), next(seeds))
    yield sigma_x_lipschitz_check(minor_mask(6, range(4)), 1,
                                  max(trials // 10, 100), next(seeds))
