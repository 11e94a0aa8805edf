"""Seeded Gaussian sampling and the covariance constructions built on it.

Replicates draw from counter-based Philox streams keyed by an avalanche
mix of (master_seed, stream_index), so parallel replicates need no
coordination and a given seed always reproduces the same batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, number
from .linalg import spectral_norm, sym_sqrt, symmetrize

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

    def key(self) -> int:
        return mix64(self.master_seed, self.stream_index)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.key()))


@dataclass(frozen=True)
class GaussianModel:
    """A covariance, its square root (None for the identity) and its norm."""

    sigma: np.ndarray
    factor: np.ndarray | None
    sigma_norm: float

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    @classmethod
    def from_covariance(cls, sigma) -> "GaussianModel":
        sig = symmetrize(sigma)
        return cls(sigma=sig, factor=sym_sqrt(sig),
                   sigma_norm=spectral_norm(sig))

    @classmethod
    def identity(cls, p: int) -> "GaussianModel":
        return cls(sigma=np.eye(p), factor=None, sigma_norm=1.0)

    @classmethod
    def ar1(cls, p: int, rho: float) -> "GaussianModel":
        """AR(1) covariance sigma[i, j] = rho^|i-j|."""
        rho = number(rho, "ar1 rho")
        if not -1.0 < rho < 1.0:
            raise InputError(f"ar1 rho must lie in (-1, 1), got {rho}")
        idx = np.arange(p)
        return cls.from_covariance(rho ** np.abs(idx[:, None] - idx[None, :]))


@dataclass(frozen=True)
class SampleBatch:
    """n observations in R^p, one per row, and the seed that produced them."""

    observations: np.ndarray
    seed: SeedSpec

    @property
    def n(self) -> int:
        return self.observations.shape[0]

    @property
    def dim(self) -> int:
        return self.observations.shape[1]


def draw_samples(model: GaussianModel, n: int, seed: SeedSpec) -> SampleBatch:
    """Draw ``n`` i.i.d. observations, each factor @ g with g standard normal.

    An identity model has no factor: its observations are the normals g.
    """
    if n < 1:
        raise InputError(f"need n >= 1 observations, got {n}")
    g = seed.generator().standard_normal((n, model.dim))
    if model.factor is not None:
        # row k of g @ factor equals factor @ g_k since factor is symmetric
        g = g @ model.factor
    return SampleBatch(observations=g, seed=seed)


def sample_covariance(batch: SampleBatch) -> np.ndarray:
    """(1/n) sum_k X_k X_k^T; PSD by construction."""
    x = batch.observations
    cov = x.T @ x / batch.n
    return (cov + cov.T) / 2.0


def sample_covariance_centered(batch: SampleBatch) -> np.ndarray:
    """Sample covariance after centering by the sample mean; needs n >= 2."""
    if batch.n < 2:
        raise InputError("centered covariance needs at least 2 observations")
    xbar = batch.observations.mean(axis=0)
    return sample_covariance(batch) - np.outer(xbar, xbar)


def decoupled_covariance(batch: SampleBatch,
                         batch_prime: SampleBatch) -> np.ndarray:
    """(1/n) sum_k X'_k X_k^T built from two independent batches.

    Entry (i, j) is (1/n) sum_k X'_{ki} X_{kj}; generally non-symmetric.
    """
    if (batch.n, batch.dim) != (batch_prime.n, batch_prime.dim):
        raise InputError(
            f"batch shapes differ: ({batch.n}, {batch.dim}) vs "
            f"({batch_prime.n}, {batch_prime.dim})")
    if batch.seed == batch_prime.seed:
        raise InputError("decoupled batches must come from independent seeds")
    return batch_prime.observations.T @ batch.observations / batch.n
