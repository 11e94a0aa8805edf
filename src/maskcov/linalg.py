"""Dense matrix helpers underpinning the error bounds.

Provides the spectral norm, the column-wise l1->l2 operator norm and
the reading of a matrix from CSV, whose file :func:`errors.read_text`
reads and :func:`errors.csv_rows` splits.  Matrices are plain float
ndarrays.  Input is validated once, where it enters the program:
:func:`as_matrix` checks a matrix from outside (a CSV's, through
:func:`matrix_from_csv`), :func:`symmetrize` makes it exactly
symmetric, and :func:`spectral_norm` checks which kind of matrix it was
given.  Matrices built exactly symmetric from such input skip both and
go straight to :func:`symmetric_norm` (``eigvalsh``); any other matrix
takes :func:`largest_singular_value`, the largest eigenvalue of the
scaled Gram.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, NumericalError, csv_rows, read_text

#: Relative tolerance for accepting a matrix as symmetric.
SYMMETRY_RTOL = 1e-12


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a 2-d float array with finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InputError(f"expected a non-empty 2-d matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError("matrix entries must be finite")
    return arr


def matrix_from_csv(path) -> np.ndarray:
    """Read a headerless CSV matrix, one row per line with '.' decimals.

    The result is checked by :func:`as_matrix`.  Written with
    ``np.savetxt(path, a, delimiter=",", fmt="%.17g")``, a matrix reads
    back exactly.
    """
    text = read_text(path, "matrix")
    try:
        return as_matrix([[float(v) for v in row] for row in csv_rows(text)])
    except (InputError, ValueError) as exc:  # ragged, non-numeric, empty
        raise InputError(f"malformed matrix in {path}: {exc}") from exc


def _max_abs(a: np.ndarray) -> float:
    """max |entry| of ``a``, read without an ``abs`` copy of it; NaN if any is."""
    return max(float(a.max()), float(-a.min()))


def is_symmetric(a: np.ndarray) -> bool:
    """Square with max|A - A^T| <= SYMMETRY_RTOL * max(1, max|entry|)."""
    if a.shape[0] != a.shape[1]:
        return False
    scale = max(1.0, _max_abs(a))
    with np.errstate(over="ignore"):  # an inf difference fails the test
        diff = a - a.T
    return float(np.abs(diff, out=diff).max()) <= SYMMETRY_RTOL * scale


def symmetrize(a) -> np.ndarray:
    """Return (A + A^T)/2, rejecting input that :func:`is_symmetric` rejects.

    Exact symmetrization on construction prevents floating-point
    asymmetry from accumulating.  Where a sum A_ij + A_ji overflows, its
    entries are halved before they are added: halving an entry that
    large is exact, so the result is (A + A^T)/2 correctly rounded,
    finite and exactly symmetric there too.
    """
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise InputError(f"square matrix required, got shape {arr.shape}")
    if not is_symmetric(arr):
        raise InputError("matrix is asymmetric beyond tolerance")
    with np.errstate(over="ignore"):
        out = arr + arr.T
    out /= 2.0
    over = np.isinf(out)
    if over.any():
        out[over] = arr[over] / 2.0 + arr.T[over] / 2.0
    return out


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
    scale = math.ldexp(1.0, math.frexp(_max_abs(a))[1] - 1)
    u = a / scale
    gram = u.T @ u if u.shape[0] >= u.shape[1] else u @ u.T
    # G is PSD, so its last (largest) eigenvalue is its norm
    return scale * math.sqrt(float(_eigenvalues(gram)[-1]))


def symmetric_norm(a: np.ndarray) -> float:
    """Spectral norm max |eigenvalue| of an exactly symmetric float matrix.

    ``eigvalsh`` reads one triangle, so ``a`` is not checked: pass only a
    matrix built symmetric from validated input.
    """
    return float(np.abs(_eigenvalues(a)).max())


def _eigenvalues(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, from one triangle."""
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"spectral norm failed to converge: {exc}") from exc


def norm_one_two(a) -> float:
    """Maximum Euclidean column norm, the l1 -> l2 operator norm.

    Entries are divided by the largest |entry| before squaring, so the
    squares neither overflow nor underflow; a 0/1 mask is unchanged by it.
    """
    arr = as_matrix(a)
    scale = _max_abs(arr) or 1.0
    unit = arr / scale
    unit *= unit
    return scale * float(np.sqrt(unit.sum(axis=0).max()))
