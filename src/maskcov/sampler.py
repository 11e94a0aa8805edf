"""Seeded Gaussian sampling and the covariance constructions built on it.

A draw is the sufficient statistic of n observations, not the
observations: a root matrix of at most dim + 1 rows (see
:func:`draw_samples`), so its cost does not grow with n.

A model on a set of coordinates draws from its covariance's block
there and carries the norm of the full covariance.  An AR(1) factor is
the block's triangular AR recursion and its norm comes from a secular
equation; any other covariance takes one ``eigvalsh`` of the full
matrix for its norm and PSD check, and one ``eigh`` of the block for
its symmetric root.

Replicates draw from counter-based Philox streams keyed by an avalanche
mix of (master_seed, stream_index), so parallel replicates need no
coordination and a given seed always reproduces the same batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InputError, NotPSDError, NumericalError, count, integer,
                     number)
from .linalg import symmetrize

#: Eigenvalues above -PSD_CLAMP_RTOL * ||Sigma|| are clamped to zero in a
#: covariance's root; sample covariances of degenerate models legitimately
#: dip slightly below 0.
PSD_CLAMP_RTOL = 1e-10

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _avalanche(z: int) -> int:
    # splitmix64 finalizer
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix64(*parts: int) -> int:
    """Avalanche-mix any number of integers into one 64-bit value."""
    acc = 0x6A09E667F3BCC909
    for part in parts:
        acc = _avalanche((acc + (int(part) & _MASK64) + _GOLDEN) & _MASK64)
    return acc


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one reproducible random stream."""

    master_seed: int
    stream_index: int

    def __post_init__(self):  # mix64 would alias a part outside [0, 2^64)
        integer(self.master_seed, "master seed", 0, 2 ** 64)
        integer(self.stream_index, "stream index", 0, 2 ** 64)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(
            key=mix64(self.master_seed, self.stream_index)))


def _ar1_norm(p: int, r: float) -> float:
    """||Sigma|| of the p x p AR(1) covariance r^|i-j|, 0 <= r < 1.

    Its eigenvalues are (1 - r^2) / (1 - 2r cos t + r^2) at the roots t
    of sin((p+1)t) - 2r sin(pt) + r^2 sin((p-1)t) (Kac, Murdock & Szego
    1953), the largest at the root in (0, pi / (p+1)).  Expanded in
    sin(pt) and cos(pt), the equation's terms are O(t^2) and O((1-r) t),
    so bisection finds that root to a few ulps even as r -> 1.
    """
    a = 1.0 - r
    b = a * (1.0 + r)
    c = 2.0 * (1.0 + r * r)

    def secular(t: float) -> float:  # > 0 left of the root, <= 0 right
        s = math.sin(0.5 * t)
        return (math.sin(p * t) * (a * a - c * s * s)
                + b * math.sin(t) * math.cos(p * t))

    lo, hi = 0.0, math.pi / (p + 1)
    mid = 0.5 * hi
    while lo < mid < hi:
        if secular(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    s = math.sin(0.5 * hi)
    # 1 - 2r cos t + r^2 as a sum of two nonnegative terms
    return b / (a * a + 4.0 * r * s * s)


@dataclass(frozen=True, eq=False)
class GaussianModel:
    """A covariance, a root of it (None for the identity) and a norm.

    The root is any ``factor`` F with F^T F = sigma; a draw is W @ F for
    standard normal rows W.  ``sigma_norm`` is ||Sigma|| of the covariance
    the model was taken from: sigma's own norm, or, for the model of a
    set of coordinates, the norm of the full covariance whose block
    sigma is.  Models compare by identity: their fields are arrays.
    """

    sigma: np.ndarray
    factor: np.ndarray | None
    sigma_norm: float

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    @classmethod
    def from_covariance(cls, sigma, support=None) -> "GaussianModel":
        """N(0, sigma) on the coordinates ``support`` (strictly increasing;
        all if None), with ||sigma|| from ``eigvalsh`` of all of sigma.

        The factor is the symmetric PSD root of sigma's block on the
        support, from its ``eigh``, with eigenvalues clamped at 0.  An
        eigenvalue of sigma below -PSD_CLAMP_RTOL * ||sigma|| raises
        :class:`NotPSDError`; the block's lie above sigma's smallest.
        """
        sig = symmetrize(sigma)
        idx = _coordinates(support, len(sig))
        block = sig[np.ix_(idx, idx)]
        try:
            w = np.linalg.eigvalsh(sig)
            vals, vecs = np.linalg.eigh(block)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise NumericalError(f"eigendecomposition failed: {exc}") from exc
        norm = float(np.abs(w).max())
        if w[0] < -PSD_CLAMP_RTOL * norm:
            raise NotPSDError(
                f"matrix is not PSD: min eigenvalue {w[0]:.3e} "
                f"below -{PSD_CLAMP_RTOL:g} * ||S|| = {-PSD_CLAMP_RTOL * norm:.3e}")
        root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
        return cls(sigma=block, factor=(root + root.T) / 2.0, sigma_norm=norm)

    @classmethod
    def identity(cls, p: int) -> "GaussianModel":
        return cls(sigma=np.eye(p), factor=None, sigma_norm=1.0)

    @classmethod
    def ar1(cls, p: int, rho: float, support=None) -> "GaussianModel":
        """AR(1) covariance sigma[i, j] = rho^|i-j| of order p, on the
        coordinates ``support`` (strictly increasing; all if None).

        At i_0 < i_1 < ... the process is a Markov chain, x_{i_k} =
        rho^d x_{i_{k-1}} + sqrt(1 - rho^{2d}) e_k with d = i_k - i_{k-1}:
        that recursion is the factor, upper triangular (the block's
        Cholesky factor).  ||Sigma|| comes from the secular equation.
        """
        count(p, "ar1 dimension")
        rho = number(rho, "ar1 rho")
        if not -1.0 < rho < 1.0:
            raise InputError(f"ar1 rho must lie in (-1, 1), got {rho}")
        # Sigma(-rho) = D Sigma(rho) D with D = diag((-1)^i): same norm
        norm = _ar1_norm(p, abs(rho))
        idx = _coordinates(support, p)
        # built exactly symmetric, one power per lag
        sigma = (rho ** np.arange(idx[-1] - idx[0] + 1))[
            np.abs(idx[:, None] - idx[None, :])]
        step = np.diagonal(sigma, 1)  # rho^d between neighbours
        factor = np.triu(sigma)
        factor[1:] *= np.sqrt((1.0 - step) * (1.0 + step))[:, None]
        return cls(sigma=sigma, factor=factor, sigma_norm=norm)


def _coordinates(support, dim: int) -> np.ndarray:
    """The index array of ``support`` (all of range(dim) if None), which
    must be nonempty integers strictly increasing in [0, dim)."""
    idx = np.arange(dim) if support is None else np.asarray(support)
    if (idx.ndim != 1 or not idx.size or idx.dtype.kind not in "iu"
            or idx[0] < 0 or idx[-1] >= dim or (np.diff(idx) <= 0).any()):
        raise InputError("a support must be nonempty integers strictly "
                         f"increasing in [0, {dim}), got {support!r}")
    return idx


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """The Gaussian sufficient statistic of ``n`` observations, as a root.

    ``root`` is any matrix Y whose Gram Y^T Y is the sum of the
    observations' outer products and whose row 0 is sqrt(n) times their
    mean; ``seed`` is the stream that produced it.  Batches compare by
    identity.
    """

    root: np.ndarray
    n: int
    seed: SeedSpec

    @property
    def dim(self) -> int:
        return self.root.shape[1]


def draw_samples(model: GaussianModel, n: int, seed: SeedSpec) -> SampleBatch:
    """Draw the statistic of ``n`` i.i.d. N(0, sigma) observations.

    The root is W @ factor (W alone for the identity).  W has
    k + 1 = min(n - 1, dim) + 1 rows: row 0 is standard normal (sqrt(n)
    times the mean normal); row i >= 1 holds sqrt(chi^2_{n-i}) at column
    i - 1, standard normals right of it and zeros left.  By the Bartlett
    decomposition, rotating n normal rows so that the first is sqrt(n)
    times their mean and taking the QR factor of the rest gives exactly
    W, so the Gram of the root has the law of X^T X.
    """
    n = count(n, "n")
    k = min(n - 1, model.dim)
    rng = seed.generator()
    w = rng.standard_normal((k + 1, model.dim))
    w[1:] = np.triu(w[1:])
    diag = np.arange(k)
    w[diag + 1, diag] = np.sqrt(rng.chisquare(n - 1 - diag))
    if model.factor is not None:
        w = w @ model.factor
    return SampleBatch(root=w, n=n, seed=seed)


def sample_covariance(batch: SampleBatch) -> np.ndarray:
    """(1/n) sum_k X_k X_k^T = Y^T Y / n; PSD by construction."""
    return _gram(batch.root, batch.n)


def sample_covariance_centered(batch: SampleBatch) -> np.ndarray:
    """Sample covariance after centering by the sample mean; needs n >= 2.

    Row 0 of the root Y is sqrt(n) xbar, so Y^T Y - n xbar xbar^T is the
    Gram of rows 1: of the root.
    """
    if batch.n < 2:
        raise InputError("centered covariance needs at least 2 observations")
    return _gram(batch.root[1:], batch.n)


def _gram(rows: np.ndarray, n: int) -> np.ndarray:
    """rows^T rows / n.  numpy forms the Gram with a symmetric rank-k
    update, which is exactly symmetric."""
    cov = rows.T @ rows
    cov /= n
    return cov


def decoupled_covariance(model: GaussianModel, batch: SampleBatch,
                         seed: SeedSpec) -> np.ndarray:
    """(1/n) sum_k X'_k X_k^T for n observations X' independent of ``batch``.

    Drawn as F^T @ Z @ Y / n, with F the model's factor and Z a standard
    normal dim x rows(Y) matrix from ``seed``: X'^T X = F^T G'^T Q W F,
    where Q has orthonormal columns and G' is independent of (Q, W), so
    G'^T Q is standard normal and independent of W.  Generally
    non-symmetric.
    """
    if model.dim != batch.dim:
        raise InputError(
            f"model dimension {model.dim} != batch dimension {batch.dim}")
    if seed == batch.seed:
        raise InputError("decoupled draws must come from independent seeds")
    z = seed.generator().standard_normal((batch.dim, batch.root.shape[0]))
    if model.factor is not None:
        # a C-ordered F^T: for a symmetric F the product is F @ z bit for bit
        z = np.ascontiguousarray(model.factor.T) @ z
    return z @ batch.root / batch.n
