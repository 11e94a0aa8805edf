"""Independent numerical oracles used only by the tests."""

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
