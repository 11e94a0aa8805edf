"""Independent numerical oracles used only by the tests."""

import math

import numpy as np


def jacobi_eigenvalues(a, sweeps: int = 100, tol: float = 1e-14) -> np.ndarray:
    """Eigenvalues of a symmetric matrix via cyclic Jacobi rotations.

    Deliberately independent of LAPACK so it can oracle the library's
    spectral norm.
    """
    m = np.array(a, dtype=float)
    assert np.allclose(m, m.T)
    p = m.shape[0]
    scale = max(1.0, float(np.abs(m).max()))
    for _ in range(sweeps):
        off = np.sqrt((m ** 2).sum() - (np.diag(m) ** 2).sum())
        if off <= tol * scale:
            break
        for i in range(p - 1):
            for j in range(i + 1, p):
                if abs(m[i, j]) <= 1e-300:
                    continue
                tau = (m[j, j] - m[i, i]) / (2.0 * m[i, j])
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) \
                    if tau != 0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rot = np.eye(p)
                rot[i, i] = rot[j, j] = c
                rot[i, j] = s
                rot[j, i] = -s
                m = rot.T @ m @ rot
    return np.sort(np.diag(m))


def ar1_recursion_factor(p: int, rho: float) -> np.ndarray:
    """The AR recursion x_j = rho x_{j-1} + sqrt(1 - rho^2) e_j of order p
    as an upper triangular factor F with F^T F = rho^|i-j|.

    A frozen copy of the full-support factor of stream version 3: the
    Markov factor on any support must give these bytes on all p
    coordinates.
    """
    idx = np.arange(p)
    sigma = (rho ** np.arange(p))[np.abs(idx[:, None] - idx[None, :])]
    factor = np.triu(sigma)
    factor[1:] *= math.sqrt((1.0 - rho) * (1.0 + rho))
    return factor


def brute_force_max_bilinear(a, vectors) -> float:
    """Max of <Ax, y> over all pairs from ``vectors`` by full enumeration."""
    gram = vectors @ np.asarray(a, dtype=float).T @ vectors.T
    return float(gram.max())


def observation_trials(sigma, mask, n: int, replicates: int, seed: int,
                       centered: bool = False):
    """Errors ||M . (Sigma_hat - Sigma)|| and decoupled terms 2 ||M . Sigma'_n||
    from ``n`` drawn observations per replicate.

    Independent of the library's sampler: the n x p observations
    themselves come from numpy's default generator through a Cholesky
    factor, as do the independent copies X' of the decoupled term.
    """
    sigma = np.asarray(sigma, dtype=float)
    mask = np.asarray(mask, dtype=float)
    chol = np.linalg.cholesky(sigma)
    rng = np.random.default_rng(seed)
    errors = np.empty(replicates)
    decoupled = np.empty(replicates)
    for r in range(replicates):
        x = rng.standard_normal((n, sigma.shape[0])) @ chol.T
        x_prime = rng.standard_normal(x.shape) @ chol.T
        xc = x - x.mean(axis=0) if centered else x
        errors[r] = np.linalg.norm(mask * (xc.T @ xc / n - sigma), 2)
        decoupled[r] = 2.0 * np.linalg.norm(mask * (x_prime.T @ x / n), 2)
    return errors, decoupled


def row_layout_max_bilinear_regular(a) -> float:
    """max <Ax, y> over regular x, y, one regular vector x per row.

    A frozen copy of the row-layout scan that ``max_bilinear_regular``
    replaced: it sorts each row of |X A^T| and takes the max of its
    cumulative sums over sqrt(s).  The column-layout kernel adds the
    same terms in the same order, so the two agree bit for bit.
    """
    arr = np.asarray(a, dtype=float)
    p = arr.shape[0]
    first = (3 ** p + 1) // 2
    powers = 3 ** np.arange(p)
    scales = np.concatenate([[0.0], 1.0 / np.sqrt(np.arange(1, p + 1))])
    step = max(1, 200_000 // p)
    best = 0.0
    for lo in range(0, 3 ** p - first, step):
        codes = np.arange(first + lo, min(first + lo + step, 3 ** p))
        digits = (codes[:, None] // powers) % 3 - 1.0
        xs = digits * scales[np.count_nonzero(digits, axis=1)][:, None]
        ordered = np.sort(np.abs(xs @ arr.T), axis=-1)[..., ::-1]
        cums = np.cumsum(ordered, axis=-1)
        best = max(best, float((cums / np.sqrt(np.arange(1, p + 1))).max()))
    return best


def einsum_decoupling_sups(family, sigma, factor, trials: int, rng):
    """(sup_A |<AZ, Z> - trace(A Sigma)|, sup_A |<AZ, Z'>|, size) per
    trial, each form a three-operand einsum over the family.

    ``size`` bounds the sum of the absolute terms of either form: the
    rounding error of both sups is a multiple of it, however much the
    terms cancel.  Z and Z' are drawn from ``rng`` as
    ``decoupling_check`` draws them when all trials fit in one chunk:
    standard normal rows times ``factor`` (a root of ``sigma``), Z first.
    """
    mats = [np.asarray(m, dtype=float) for m in family]
    z = rng.standard_normal((trials, factor.shape[0])) @ factor
    zp = rng.standard_normal((trials, factor.shape[0])) @ factor
    traces = [np.trace(m @ sigma) for m in mats]
    same = np.stack([np.einsum("ti,ij,tj->t", z, m, z) - tr
                     for m, tr in zip(mats, traces)])
    cross = np.stack([np.einsum("ti,ij,tj->t", z, m, zp) for m in mats])
    size = np.stack([np.einsum("ti,ij,tj->t", abs(z), abs(m), abs(z) + abs(zp))
                     + abs(tr) for m, tr in zip(mats, traces)]).max(axis=0)
    return np.abs(same).max(axis=0), np.abs(cross).max(axis=0), size
