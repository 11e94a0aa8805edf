"""Mask constructors: minors, banding, tapering, hard thresholding.

A mask is stored on its support: ``dim`` is p, ``support`` the sorted
rows where it is nonzero (``[0]`` for the zero mask, whose 1 x 1 block
is 0) and ``block`` its ``|S| x |S|`` submatrix on ``support x
support``.  The three statistics that drive the error bounds, max
column nonzeros m, the max column norm ||M||_{1,2} and the spectral
norm ||M||, are computed once, on the block: zero rows and columns
change none of them.  The dense ``p x p`` array is built on request
by :attr:`Mask.matrix`.  Only a matrix from outside is checked and
symmetrized: a custom mask, and the ``sigma_hat`` a threshold mask is
chosen from.  The banded, taper and 0/1 threshold matrices are built
exactly symmetric, with a nonzero diagonal: they skip that check, and
their support is all p rows.  Only a custom mask's support is scanned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InputError, integer, number, spec_field
from .linalg import matrix_from_csv, norm_one_two, symmetric_norm, symmetrize


@dataclass(frozen=True, eq=False)
class Mask:
    """A mask on its support; masks compare by identity."""

    dim: int
    support: np.ndarray
    block: np.ndarray
    max_col_nnz: int
    norm_12: float
    norm_op: float

    @property
    def matrix(self) -> np.ndarray:
        """The dense ``dim x dim`` mask, zero off ``support x support``."""
        mat = np.zeros((self.dim, self.dim))
        mat[np.ix_(self.support, self.support)] = self.block
        return mat


def _from_block(dim: int, support: np.ndarray, block: np.ndarray) -> Mask:
    return Mask(dim=dim, support=support, block=block,
                max_col_nnz=int((block != 0.0).sum(axis=0).max()),
                norm_12=norm_one_two(block),
                norm_op=symmetric_norm(block))


def minor_mask(p: int, indices: Iterable[int]) -> Mask:
    """All-ones on S x S for an index set S, zero elsewhere."""
    s = sorted(set(integer(i, "minor index") for i in indices))
    if not s:
        raise InputError("minor index set must be nonempty")
    if s[0] < 0 or s[-1] >= p:
        raise InputError(f"minor indices must lie in [0, {p}), got {s}")
    return _from_block(p, np.array(s), np.ones((len(s), len(s))))


def banded_mask(p: int, k: int) -> Mask:
    """Ones on the 2k+1 central diagonals: entry (i, j) is 1 iff |i-j| <= k."""
    if not 0 <= integer(k, "half-bandwidth") <= p - 1:
        raise InputError(f"half-bandwidth must lie in [0, {p - 1}], got {k}")
    idx = np.arange(p)
    mat = (np.abs(idx[:, None] - idx[None, :]) <= k).astype(float)
    return _from_block(p, idx, mat)


def taper_mask(p: int, k: int) -> Mask:
    """Trapezoid taper: weight 1 up to distance k/2, linear decay to 0 at k.

    ``k`` must be even with 2 <= k <= 2(p-1).
    """
    if integer(k, "taper width") % 2 != 0 or not 2 <= k <= 2 * (p - 1):
        raise InputError(
            f"taper width must be even with 2 <= k <= {2 * (p - 1)}, got {k}")
    idx = np.arange(p)
    dist = np.abs(idx[:, None] - idx[None, :])
    mat = np.clip(2.0 - 2.0 * dist / k, 0.0, 1.0)
    return _from_block(p, idx, mat)


def threshold_mask(sigma_hat, h: float) -> Mask:
    """Keep entries of |sigma_hat| >= h plus the full diagonal; 0 < h < inf."""
    if not 0.0 < number(h, "threshold") < math.inf:
        raise InputError(f"threshold must be positive and finite, got {h}")
    sig = symmetrize(sigma_hat)
    mat = ((np.abs(sig) >= h) | np.eye(len(sig), dtype=bool)).astype(float)
    return _from_block(len(sig), np.arange(len(sig)), mat)


def custom_mask(matrix) -> Mask:
    """Cache statistics for an arbitrary symmetric mask."""
    mat = symmetrize(matrix)
    dim = mat.shape[0]
    support = np.flatnonzero(mat.any(axis=0))
    if not support.size:  # the zero mask
        support = np.arange(1)
    if support.size < dim:  # a full-support mask keeps its array uncopied
        mat = mat[np.ix_(support, support)]
    return _from_block(dim, support, mat)


def mask_from_spec(spec: dict, p: int, sigma_hat=None) -> Mask:
    """Build a mask from its JSON config object.

    Threshold masks are estimated from data, so ``sigma_hat`` must be
    supplied for them.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputError(f"mask spec must be an object with a 'kind': {spec!r}")
    kind = spec["kind"]
    if kind == "minor":
        return minor_mask(p, spec_field(spec, "S", list))
    if kind == "banded":
        return banded_mask(p, spec.get("k"))
    if kind == "taper":
        return taper_mask(p, spec.get("k"))
    if kind == "threshold":
        if sigma_hat is None:
            raise InputError("threshold mask needs a sample covariance")
        return threshold_mask(sigma_hat, spec.get("h"))
    if kind == "custom":
        mask = custom_mask(matrix_from_csv(spec_field(spec, "path", str)))
        if mask.dim != p:
            raise InputError(
                f"custom mask is {mask.dim}x{mask.dim}, config p={p}")
        return mask
    raise InputError(f"unknown mask kind {kind!r}; expected one of "
                     "('minor', 'banded', 'taper', 'threshold', 'custom')")
