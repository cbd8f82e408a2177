"""Equilibrium and social-optimum solvers.

Interior solutions come from dense linear solves of ``(I+G)x = a`` and
``(I+G+G^T)y = a`` in ``solve_linear``, where one inverse gives the exact
1-norm reciprocal condition, the solution and every refinement step.  On the
nonnegative orthant the solution concept is the variational inequality
VI(R_{>=0}^n, F); ``solve_vi`` reaches it by projected fixed-point iteration.
Public-goods games get the analogous fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    MaxItersExceeded,
    NoConvergence,
    SingularSystem,
    StepSelectionFailed,
)
from .games import (
    TOL_NONNEG,
    ActionProfile,
    NetworkGame,
    PublicGoodsGame,
    profile_vector,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 100_000
# Exact 1-norm reciprocal condition 1/(||M||_1 ||M^-1||_1) below this means the
# system is treated as singular.  Since kappa_2/n <= kappa_1 <= n*kappa_2, the cut
# sits within a factor n of the same threshold on the 2-norm condition number.
RCOND_MIN = 1e-12

INTERIOR_KINDS = ("interior-ne", "interior-social")
CONSTRAINED_KINDS = ("constrained-ne", "constrained-social")
PG_KINDS = ("pg-ne", "pg-social")
NE_KINDS = ("interior-ne", "constrained-ne", "pg-ne")


@dataclass(frozen=True)
class EquilibriumResult:
    """Solver output: actions, residuals, and an interiority flag.

    ``stationarity_residual`` is the sup-norm of the first-order map for
    interior kinds and of the natural (projected) map for constrained kinds.
    ``complementarity_residual`` is ``max_i |x_i * F_i(x)|`` for constrained
    kinds and 0 otherwise.
    """

    x: ActionProfile
    kind: str
    stationarity_residual: float
    complementarity_residual: float
    interior: bool


def _norm_inf(v) -> float:
    v = np.asarray(v)
    return float(np.max(np.abs(v))) if v.size else 0.0


def _natural_residual(x: np.ndarray, f: np.ndarray, ub) -> float:
    """Natural residual ``||x - clip(x - f, 0, ub)||_inf`` of the box VI (ub None: no cap)."""
    return _norm_inf(x - np.clip(x - f, 0.0, ub))


def _inverse(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse of ``m`` and its exact 1-norm reciprocal condition.

    Raises SingularSystem when ``m`` is exactly singular or the reciprocal
    condition ``1/(||M||_1 ||M^-1||_1)`` is below RCOND_MIN or not finite.
    """
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"system is exactly singular: {exc}") from exc
    rcond = 1.0 / (np.linalg.norm(m, 1) * np.linalg.norm(inv, 1))
    if not rcond >= RCOND_MIN:  # a non-finite inverse gives rcond 0 or nan
        raise SingularSystem(f"system is numerically singular (rcond = {rcond:.2e})")
    return inv, rcond


def solve_linear(m: np.ndarray, b: np.ndarray, residual_target: float) -> np.ndarray:
    """Dense solve ``x = M^-1 b`` refined by up to 5 steps ``x += M^-1 r``.

    One inverse serves the condition check, the solve and every refinement.
    Raises SingularSystem when ``_inverse`` does or the refined residual
    cannot meet ``residual_target``.
    """
    inv, _ = _inverse(m)
    x = inv @ b
    for _ in range(6):  # the solve, then up to 5 refinement steps
        r = b - m @ x
        if _norm_inf(r) <= residual_target:
            return x
        x = x + inv @ r
    raise SingularSystem("iterative refinement could not meet the residual target")


def _interior_result(m, b, mapping_residual, kind) -> EquilibriumResult:
    target = 1e-10 * (1.0 + _norm_inf(b))
    x = solve_linear(m, b, target)
    res = mapping_residual(x)
    return EquilibriumResult(
        x=ActionProfile(x),
        kind=kind,
        stationarity_residual=res,
        complementarity_residual=0.0,
        interior=bool(np.all(x > TOL_NONNEG)),
    )


def solve_ne_interior(game: NetworkGame) -> EquilibriumResult:
    """Interior Nash equilibrium from (I+G)x = a.

    Negative components are returned un-clamped with ``interior=False``;
    ``solve_vi`` is the authority on the nonnegative orthant.
    """
    g = game.adjacency.g
    m = np.eye(game.n) + g
    return _interior_result(m, game.a, lambda x: _norm_inf(m @ x - game.a), "interior-ne")


def solve_social_interior(game: NetworkGame) -> EquilibriumResult:
    """Interior social optimum from (I+G+G^T)y = a."""
    g = game.adjacency.g
    m = np.eye(game.n) + g + g.T
    return _interior_result(m, game.a, lambda x: _norm_inf(m @ x - game.a), "interior-social")


def solve_vi(
    game: NetworkGame,
    which: str = "ne",
    x0=None,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> EquilibriumResult:
    """Solve VI(X, F) on the action box by projected fixed-point iteration.

    X is [0, inf)^n, or [0, ub] when the game carries an upper bound.  The
    mapping is F(x) = (I+G)x - a for ``which="ne"`` and W(x) = (I+G+G^T)x - a
    for ``which="social"``.  Iterates ``x <- P_X(x - eta * mapping(x))`` with
    the step halved whenever the natural residual fails to decrease.  On
    success the result satisfies x in X, complementarity residual <= tol,
    and (for the unbounded box) mapping(x) >= -tol componentwise.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if which not in ("ne", "social"):
        raise ValueError(f"which must be 'ne' or 'social', got {which!r}")
    g = game.adjacency.g
    ub = game.upper_bound
    row_norm = _norm_inf(np.sum(np.abs(g), axis=1)) if game.n else 0.0
    if which == "ne":
        m = np.eye(game.n) + g
        eta = 1.0 / (1.0 + row_norm)
        kind = "constrained-ne"
    else:
        m = np.eye(game.n) + g + g.T
        eta = 1.0 / (1.0 + 2.0 * row_norm)
        kind = "constrained-social"
    a = game.a

    def project(v):
        return np.clip(v, 0.0, ub)  # clip with None upper bound is max(0, .)

    def complementarity(xv, fv):
        if ub is None:
            return _norm_inf(xv * fv)
        # at a box solution each player sits on a face where the matching term vanishes
        return _norm_inf(xv * np.maximum(fv, 0.0) + (ub - xv) * np.minimum(fv, 0.0))

    x = project(np.zeros(game.n) if x0 is None else profile_vector(x0, game.n))
    eta_floor = eta * 1e-14
    fx = m @ x - a
    res = _natural_residual(x, fx, ub)
    best = (res, x, fx)
    for it in range(max_iters):
        comp = complementarity(x, fx)
        kkt_ok = True if ub is not None else float(np.min(fx)) >= -tol
        if res <= tol and comp <= tol and kkt_ok:
            return EquilibriumResult(
                x=ActionProfile(x),
                kind=kind,
                stationarity_residual=res,
                complementarity_residual=comp,
                interior=bool(np.all(x > TOL_NONNEG)),
            )
        x_new = project(x - eta * fx)
        f_new = m @ x_new - a
        res_new = _natural_residual(x_new, f_new, ub)
        if res_new >= res:
            eta *= 0.5
            if eta < eta_floor:
                raise StepSelectionFailed(
                    f"step halving bottomed out at iteration {it} (residual {res:.3e})"
                )
            continue
        x, fx, res = x_new, f_new, res_new
        if res < best[0]:
            best = (res, x, fx)
    raise MaxItersExceeded(
        f"no convergence in {max_iters} iterations (best residual {best[0]:.3e})",
        best_x=ActionProfile(best[1]),
        stationarity_residual=best[0],
        complementarity_residual=complementarity(best[1], best[2]),
        iterations=max_iters,
    )


def _pg_ne_residual(game: PublicGoodsGame, x: np.ndarray) -> float:
    g = game.adjacency.g
    z = g @ x
    return _norm_inf(x + z - game.gamma.value(game.theta + z))


def _pg_social_residual(game: PublicGoodsGame, y: np.ndarray) -> float:
    """Sup-norm of the affine social first-order map y + V G^T y + Gy - gamma(theta + Gy)."""
    if not game.gamma.is_affine:
        raise ValueError("the public-goods social optimum requires an affine gamma family")
    g = game.adjacency.g
    z = g @ y
    return _norm_inf(y + (1.0 - game.gamma.d) * (g.T @ y) + z - game.gamma.value(game.theta + z))


def solve_ne_pg(
    game: PublicGoodsGame,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> EquilibriumResult:
    """Public-goods Nash equilibrium (I+G)x = gamma(theta + Gx).

    Affine families are solved exactly as the linear system
    ``(I + (I - diag(d)) G) x = c + d*theta``; custom families iterate
    ``x <- (I+G)^{-1} gamma(theta + Gx)`` to the requested residual.
    """
    g = game.adjacency.g
    n = game.n
    if game.gamma.is_affine:
        d = game.gamma.d
        m = np.eye(n) + (1.0 - d)[:, None] * g
        b = game.gamma.c + d * game.theta
        x = solve_linear(m, b, tol * (1.0 + _norm_inf(b)))
    else:
        inv, _ = _inverse(np.eye(n) + g)
        x = np.zeros(n)
        for _ in range(max_iters):
            if _pg_ne_residual(game, x) <= tol:
                break
            x = inv @ game.gamma.value(game.theta + g @ x)
        else:
            raise NoConvergence(
                f"fixed-point iteration did not reach tol={tol:g} "
                f"in {max_iters} iterations (residual {_pg_ne_residual(game, x):.3e})"
            )
    return EquilibriumResult(
        x=ActionProfile(x),
        kind="pg-ne",
        stationarity_residual=_pg_ne_residual(game, x),
        complementarity_residual=0.0,
        interior=bool(np.all(x > TOL_NONNEG)),
    )


def solve_social_pg(game: PublicGoodsGame, tol: float = DEFAULT_TOL) -> EquilibriumResult:
    """Public-goods social optimum for affine gamma.

    Solves ``(I + V (G + G^T)) y = c + d*theta`` with V = diag(1 - d), built
    as a row scale.  Custom families are not supported: the transpose-term
    weights depend on the derivative at the unknown solution.
    """
    if not game.gamma.is_affine:
        raise ValueError("solve_social_pg requires an affine gamma family")
    g = game.adjacency.g
    n = game.n
    d = game.gamma.d
    v = 1.0 - d
    m = np.eye(n) + v[:, None] * (g + g.T)
    b = game.gamma.c + d * game.theta
    y = solve_linear(m, b, tol * (1.0 + _norm_inf(b)))
    return EquilibriumResult(
        x=ActionProfile(y),
        kind="pg-social",
        stationarity_residual=_pg_social_residual(game, y),
        complementarity_residual=0.0,
        interior=bool(np.all(y > TOL_NONNEG)),
    )
