"""Sufficient conditions for uniqueness and continuity of the coincident solution.

Each certificate reports a margin; a positive margin means the condition
holds.  None of these conditions is necessary, so a failing certificate is
never a non-uniqueness verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import AdjacencyMatrix


@dataclass(frozen=True)
class Certificate:
    """A named sufficient condition with its computed margin."""

    name: str
    margin: float
    holds: bool
    details: dict

    def __post_init__(self):
        if self.holds != (self.margin > 0):
            raise ValueError("certificate must hold exactly when margin > 0")


def _cert(name, margin, **details) -> Certificate:
    details = {key: float(value) for key, value in details.items()}
    return Certificate(name=name, margin=float(margin), holds=bool(margin > 0), details=details)


def _g(adjacency) -> np.ndarray:
    if isinstance(adjacency, AdjacencyMatrix):
        return adjacency.g
    return np.asarray(adjacency, dtype=float)


# ||M||_2 and ||M||_inf, per member of a stack (..., n, n).  sigma_max^2 is the top eigenvalue
# of U^T U, U = M/max|M| (>= 1 unless M = 0): squaring costs no relative accuracy for the largest
# singular value, only for the least (_singularity keeps the SVD), and U cannot overflow.
def _spectral_norm(m):
    s = np.maximum(np.abs(m).max(axis=(-2, -1), keepdims=True), np.finfo(float).tiny)
    u = m / s
    return s[..., 0, 0] * np.sqrt(np.linalg.eigvalsh(np.swapaxes(u, -1, -2) @ u)[..., -1])


def _rowsum_norm(m):
    return np.max(np.sum(np.abs(m), axis=-1), axis=-1)


def cert_strong_monotone(adjacency) -> Certificate:
    """Strong monotonicity of the combined equilibrium/optimum map: 2 - 3*||G||_2 > 0.

    Details carry the sharper intermediate bound 2 + lambda_min(1.5*(G+G^T)),
    which is reported but does not gate the verdict.
    """
    g = _g(adjacency)
    sigma = _spectral_norm(g)
    lam = float(np.min(np.linalg.eigvalsh(1.5 * (g + g.T))))
    return _cert(
        "prop1-strong-monotone",
        2.0 - 3.0 * sigma,
        sigma_max=sigma,
        lambda_min_threehalves_sym=lam,
        alpha_sharper=2.0 + lam,
    )


def cert_block_p(adjacency) -> Certificate:
    """Uniform block-P condition via norms: 2 - (2*||G||_inf + ||G||_1) > 0."""
    g = _g(adjacency)
    row = _rowsum_norm(g)
    col = _rowsum_norm(g.T)
    return _cert("prop2-block-p", 2.0 - (2.0 * row + col), rowsum_norm=row, colsum_norm=col)


def build_gamma_matrix(adjacency) -> np.ndarray:
    """Comparison matrix with diagonal 2 and off-diagonal -|2*g_ij + g_ji|.

    Always a Z-matrix; the coincident solution is unique when it is a P-matrix.
    """
    g = _g(adjacency)
    gamma = -np.abs(2.0 * g + g.T)
    np.fill_diagonal(gamma, 2.0)
    return gamma


def cert_gamma_p_matrix(adjacency) -> Certificate:
    """M-matrix test of the comparison matrix, with the Perron gap as margin.

    Gamma = 2I - B with B >= 0 is a Z-matrix, so it is a P-matrix exactly when
    it is a nonsingular M-matrix, i.e. when rho(B) < 2 (Berman & Plemmons,
    Thm 6.2.3).  The margin is the Perron gap 2 - rho(B), not a principal
    minor, and the test costs one eigenvalue solve at any n.
    """
    gamma = build_gamma_matrix(adjacency)
    rho = float(np.max(np.abs(np.linalg.eigvals(2.0 * np.eye(gamma.shape[0]) - gamma))))
    return _cert("gamma-p-matrix", 2.0 - rho, spectral_radius=rho)


def cert_gershgorin(adjacency) -> Certificate:
    """Eigenvalue localization bound: 2 - ||2G + G^T||_inf > 0."""
    g = _g(adjacency)
    norm = _rowsum_norm(2.0 * g + g.T)
    return _cert("gershgorin", 2.0 - norm, two_g_plus_gt_rowsum=norm)


def cert_continuity(adjacency) -> tuple[Certificate, Certificate]:
    """Continuity of the equilibrium in G: margins 1 - ||G||_2 and 1 - ||G||_inf."""
    g = _g(adjacency)
    sigma = _spectral_norm(g)
    row = _rowsum_norm(g)
    return (
        _cert("continuity-spectral", 1.0 - sigma, sigma_max=sigma),
        _cert("continuity-rowsum", 1.0 - row, rowsum_norm=row),
    )


def all_certificates(adjacency) -> tuple[Certificate, ...]:
    """The six certificates in a fixed order."""
    spectral, rowsum = cert_continuity(adjacency)
    return (
        cert_strong_monotone(adjacency),
        cert_block_p(adjacency),
        cert_gamma_p_matrix(adjacency),
        cert_gershgorin(adjacency),
        spectral,
        rowsum,
    )

