"""Dense matrix helpers underpinning the error bounds.

Provides the Hadamard (entrywise) product, the spectral norm, the
column-wise l1->l2 operator norm, and a symmetric PSD square root for
sampling a custom covariance.  Matrices are plain float ndarrays.  Input is
validated once, where it enters the program: :func:`symmetrize` checks
a matrix from outside and makes it exactly symmetric, and
:func:`spectral_norm` checks which kind of matrix it was given.
Matrices built exactly symmetric from such input skip both and go
straight to :func:`symmetric_norm` (``eigvalsh``); any other matrix
takes :func:`largest_singular_value`, the largest eigenvalue of the
scaled Gram.  :func:`psd_root` reads the norm off the eigendecomposition
that gives the root.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, NotPSDError, NumericalError

#: Relative tolerance for accepting a matrix as symmetric.
SYMMETRY_RTOL = 1e-12

#: Eigenvalues above -PSD_CLAMP_RTOL * ||S|| are clamped to zero in psd_root;
#: sample covariances of degenerate models legitimately dip slightly below 0.
PSD_CLAMP_RTOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a 2-d float array with finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InputError(f"expected a non-empty 2-d matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError("matrix entries must be finite")
    return arr


def is_symmetric(a: np.ndarray) -> bool:
    """Square with max|A - A^T| <= SYMMETRY_RTOL * max(1, max|entry|)."""
    if a.shape[0] != a.shape[1]:
        return False
    scale = max(1.0, float(np.abs(a).max()))
    return float(np.abs(a - a.T).max()) <= SYMMETRY_RTOL * scale


def symmetrize(a) -> np.ndarray:
    """Return (A + A^T)/2, rejecting input that :func:`is_symmetric` rejects.

    Exact symmetrization on construction prevents floating-point
    asymmetry from accumulating.
    """
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise InputError(f"square matrix required, got shape {arr.shape}")
    if not is_symmetric(arr):
        raise InputError("matrix is asymmetric beyond tolerance")
    return (arr + arr.T) / 2.0


def hadamard(a, b) -> np.ndarray:
    """Entrywise product of two same-shaped matrices."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise InputError(f"shape mismatch in hadamard: {a.shape} vs {b.shape}")
    return a * b


def spectral_norm(a) -> float:
    """Largest singular value of ``a``, whatever matrix it is.

    Symmetric input goes to :func:`symmetric_norm`, anything else to
    :func:`largest_singular_value`, the largest eigenvalue of the scaled
    Gram.  Both are accurate well past the 1e-10 relative contract.
    """
    arr = as_matrix(a)
    if is_symmetric(arr):
        return symmetric_norm(arr)
    return largest_singular_value(arr)


def largest_singular_value(a: np.ndarray) -> float:
    """Largest singular value of a finite float matrix of any shape.

    ``a`` is divided, exactly, by the power of two 2^e with max|entry|
    in [2^e, 2^(e+1)), so the Gram G of the result U (the smaller of
    U^T U and U U^T, a ``syrk``) neither overflows nor underflows.
    lambda_max(G) has absolute error of order q eps ||U||^2, q the longer
    side, so 2^e sqrt(lambda_max(G)) has relative error of order
    q eps / 2 (1.4e-14 at q = 128), inside the 1e-10 contract.  The small
    singular values lose accuracy in G, but they are never read.  ``a``
    is not checked: pass validated input.
    """
    scale = math.ldexp(1.0, math.frexp(float(np.abs(a).max()))[1] - 1)
    u = a / scale
    gram = u.T @ u if u.shape[0] >= u.shape[1] else u @ u.T
    return scale * math.sqrt(symmetric_norm(gram))


def symmetric_norm(a: np.ndarray) -> float:
    """Spectral norm max |eigenvalue| of an exactly symmetric float matrix.

    ``eigvalsh`` reads one triangle, so ``a`` is not checked: pass only a
    matrix built symmetric from validated input.
    """
    try:
        return float(np.abs(np.linalg.eigvalsh(a)).max())
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(
            f"spectral norm failed to converge: {exc}") from exc


def norm_one_two(a) -> float:
    """Maximum Euclidean column norm, the l1 -> l2 operator norm.

    Entries are divided by the largest |entry| before squaring, so the
    squares neither overflow nor underflow; a 0/1 mask is unchanged by it.
    """
    arr = as_matrix(a)
    scale = float(np.abs(arr).max()) or 1.0
    unit = arr / scale
    return scale * float(np.sqrt((unit * unit).sum(axis=0).max()))


def psd_root(s: np.ndarray) -> tuple:
    """(T, ||s||) from one eigendecomposition of ``s``.

    T is the symmetric PSD square root, T @ T == s up to 1e-8.
    Eigenvalues in [-PSD_CLAMP_RTOL * ||s||, 0) are clamped to zero;
    anything more negative raises :class:`NotPSDError`.  ``s`` must be
    exactly symmetric, as :func:`symmetrize` returns it; the root of a
    matrix from outside is ``GaussianModel.from_covariance(s).factor``.
    """
    try:
        w, v = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    norm = float(np.abs(w).max())
    if w.min() < -PSD_CLAMP_RTOL * norm:
        raise NotPSDError(
            f"matrix is not PSD: min eigenvalue {w.min():.3e} "
            f"below -{PSD_CLAMP_RTOL:g} * ||S|| = {-PSD_CLAMP_RTOL * norm:.3e}")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return (root + root.T) / 2.0, norm
