"""Test-only matrix oracles: exhaustive P-matrix enumeration and eigenvalue facts."""

from itertools import combinations

import numpy as np

from netgames import NetgamesError

# Exhaustive principal-minor enumeration is 2^n - 1 determinants.
P_MATRIX_MAX_N = 20


class TooLarge(NetgamesError):
    """Raised when an exhaustive check is requested beyond its size guard."""


class NotSymmetric(NetgamesError):
    """Raised when a matrix required to be symmetric is not."""


def p_matrix_check(m) -> bool:
    """True iff every principal minor of m has strictly positive determinant.

    Exhaustive enumeration; guarded at n <= 20.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if n > P_MATRIX_MAX_N:
        raise TooLarge(f"principal-minor enumeration guarded at n <= {P_MATRIX_MAX_N}, got {n}")
    if np.any(np.diagonal(m) <= 0):
        return False
    for size in range(2, n + 1):
        for idx in combinations(range(n), size):
            sub = m[np.ix_(idx, idx)]
            if np.linalg.det(sub) <= 0:
                return False
    return True


def spectral_facts_selftest(a, tol: float = 1e-10) -> bool:
    """Check three eigenvalue facts used by the uniqueness argument on a.

    (i) a - lambda_min*I is positive semidefinite up to tol,
    (ii) |lambda_min| <= sigma_max + tol,
    (iii) shifting by alpha*I shifts lambda_min by alpha, for alpha in
    {-1, 0.5, 2}.  Raises NotSymmetric unless a is symmetric within 1e-12.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    if float(np.max(np.abs(a - a.T))) > 1e-12:
        raise NotSymmetric("matrix is not symmetric within 1e-12")
    n = a.shape[0]
    lam_min = float(np.min(np.linalg.eigvalsh(a)))
    sigma_max = float(np.linalg.svd(a, compute_uv=False)[0])
    shifted = a - lam_min * np.eye(n)
    if float(np.min(np.linalg.eigvalsh(shifted))) < -tol:
        return False
    if abs(lam_min) > sigma_max + tol:
        return False
    for alpha in (-1.0, 0.5, 2.0):
        lam = float(np.min(np.linalg.eigvalsh(alpha * np.eye(n) + a)))
        if abs(lam - (alpha + lam_min)) > tol:
            return False
    return True
