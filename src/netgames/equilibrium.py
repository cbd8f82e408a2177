"""Equilibrium and social-optimum solvers.

Every solver reads its first-order map ``F(x) = Mx - b`` from
``games._system``: ``(I+G, a)`` for the Nash equilibrium, ``(I+G+G^T, a)``
for the social optimum, and ``(I + diag(1-d) S, c + d*theta)`` with S = G or
G+G^T for their public-goods analogues.  Interior solutions solve
``Mx = b`` in ``solve_linear`` behind an exact 1-norm rcond gate.  Strong
monotonicity, the VI's uniqueness condition, proves that gate: if the symmetric part of
U = M/max|M| less (sigma + 2n^2 eps) I has a floating-point Cholesky factor (Rump, BIT
46, 2006), then sigma_min(U) >= sigma = sqrt(n) ||U||_1 RCOND_MIN, so rcond_1(M) >=
RCOND_MIN and one LU solve gives x; otherwise, and below PROOF_MIN_N players, one
inverse gives the gate, the solution and every refinement step.  On the
nonnegative orthant (or a box) the solution concept is the variational
inequality VI(X, F), a linear complementarity problem; ``solve_vi`` solves it
by least-index principal pivoting up to a solved basis with no violator.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import MaxItersExceeded, SingularSystem, StepSelectionFailed
from .games import (
    TOL_NONNEG,
    ActionProfile,
    NetworkGame,
    PublicGoodsGame,
    _system,
    profile_vector,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 100_000
# Exact 1-norm reciprocal condition 1/(||M||_1 ||M^-1||_1) below this means the
# system is treated as singular.  Since kappa_2/n <= kappa_1 <= n*kappa_2, the cut
# sits within a factor n of the same threshold on the 2-norm condition number.
RCOND_MIN = 1e-12
PROOF_MIN_N = 64  # solve_linear proves the rcond gate from this size on; below, an inverse is cheaper

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


def _vi_residual(x: np.ndarray, f: np.ndarray, ub) -> tuple[float, float]:
    """Natural residual ``||x - clip(x - f, 0, ub)||_inf`` and complementarity of VI([0, ub], F).

    f = F(x); ub None means no cap.  At a box solution each player sits on a
    face where the matching complementarity term vanishes.
    """
    comp = x * f if ub is None else x * np.maximum(f, 0) + (ub - x) * np.minimum(f, 0)
    return _norm_inf(x - np.clip(x - f, 0.0, ub)), _norm_inf(comp)


def _inverse(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of ``m`` and its exact 1-norm reciprocal condition.

    Raises SingularSystem when ``m`` is exactly singular or the reciprocal
    condition ``1/(||M||_1 ||M^-1||_1)`` is below RCOND_MIN or not finite.  A
    stack (..., n, n) never raises: each member gets both, nan if exactly singular.
    """
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        if m.ndim == 2:
            raise SingularSystem(f"system is exactly singular: {exc}") from exc
        # LU fails for the whole stack when one member is singular: invert one by one
        inv = np.full_like(m, np.nan)
        for k in np.ndindex(m.shape[:-2]):
            with contextlib.suppress(np.linalg.LinAlgError):
                inv[k] = np.linalg.inv(m[k])
    # ||M||_1 = s ||M/s||_1 with s = max|M| per member (floored at the least normal double),
    # so no column sum overflows; no product ||M|| ||M^-1||, which overflows where rcond is
    # only tiny: ||M^-1|| >= 1/||M||
    am = np.abs(m)
    s = am.max(axis=(-2, -1), initial=np.finfo(float).tiny)
    norm = (am / s[..., None, None]).sum(axis=-2).max(axis=-1)
    rcond = 1.0 / np.abs(inv).sum(axis=-2).max(axis=-1) / s / norm
    if m.ndim == 2 and not rcond >= RCOND_MIN:  # a non-finite inverse gives rcond 0 or nan
        raise SingularSystem(f"system is numerically singular (rcond = {rcond:.2e})")
    return inv, rcond


def _gate_proven(m: np.ndarray) -> bool:
    """Whether a Cholesky factor of the shifted symmetric part proves rcond_1(M) >= RCOND_MIN."""
    n, scale = m.shape[-1], max(m.max(), -m.min())  # max|M|
    if not 0.0 < scale < np.inf:
        return False
    u = m / scale  # U, scaled before any sum so that none can overflow
    sigma = np.sqrt(n) * np.abs(u).sum(axis=0).max() * RCOND_MIN
    u += u.T  # twice the symmetric part, so the shift is doubled too
    u.flat[:: n + 1] -= 2.0 * (sigma + 2.0 * n * n * np.finfo(float).eps)
    with contextlib.suppress(np.linalg.LinAlgError):
        return np.linalg.cholesky(u) is not None  # the factor exists; it is not kept
    return False


def solve_linear(m: np.ndarray, b: np.ndarray, residual_target: float):
    """Dense solve of ``Mx = b`` behind the rcond gate of ``_inverse``.

    From PROOF_MIN_N players on, the gate is first proven: with U = M/max|M| and
    sigma = sqrt(n) ||U||_1 RCOND_MIN, a floating-point Cholesky factor of (U+U^T)/2 -
    (sigma + 2n^2 eps) I proves x^T U x >= sigma ||x||_2^2 for all x (2n^2 eps covers
    the rounding of U, of the symmetric part and of the factorization: Rump, BIT 46,
    2006), so sigma_min(U) >= sigma, ||U^-1||_1 <= sqrt(n)/sigma and rcond_1(M) >=
    RCOND_MIN.  One LU solve then gives x if it meets ``residual_target``.  Otherwise
    one inverse serves the gate, the solve and up to 5 refinement steps, and
    SingularSystem is raised where the gate or the target fails.  A stack (..., n, n)
    returns ``(x, ok)``, each member flagged (x nan, ok False) where alone it raises.
    """
    if m.ndim > 2 and m.shape[-1] >= PROOF_MIN_N:  # a stacked inverse saves only call overhead
        b = np.broadcast_to(b, m.shape[:-1])
        x = np.full(b.shape, np.nan)
        for k in np.ndindex(m.shape[:-2]):
            with contextlib.suppress(SingularSystem):
                x[k] = solve_linear(m[k], b[k], residual_target)
        return x, ~np.isnan(x[..., 0])  # a solved member meets the target, so holds no nan
    if m.shape[-1] >= PROOF_MIN_N and _gate_proven(m):
        x = np.linalg.solve(m, b)
        if _norm_inf(b - m @ x) <= residual_target:
            return x
    inv, rcond = _inverse(m)
    ok = rcond >= RCOND_MIN
    if m.ndim > 2:
        inv[~ok] = 0.0  # a failed member's inverse may be inf
    b = b[..., None]
    x = inv @ b
    for _ in range(6):  # the solve, then up to 5 refinement steps
        r = b - m @ x
        live = ok & ~(np.abs(r).max(axis=(-2, -1)) <= residual_target)
        if not live.any():
            break
        x = np.where(live[..., None, None], x + inv @ r, x)
    ok = ok & ~live
    if m.ndim == 2 and not ok:
        raise SingularSystem("iterative refinement could not meet the residual target")
    return (np.where(ok[..., None], x[..., 0], np.nan), ok) if m.ndim > 2 else x[..., 0]


def _result(x, kind, stationarity, complementarity=0.0) -> EquilibriumResult:
    return EquilibriumResult(
        x=ActionProfile(x),
        kind=kind,
        stationarity_residual=stationarity,
        complementarity_residual=complementarity,
        interior=bool(np.all(x > TOL_NONNEG)),
    )


def _solve_system(game, which: str, kind: str, tol: float = DEFAULT_TOL) -> EquilibriumResult:
    """Solve ``Mx = b`` for the ``(M, b)`` of ``_system(game, which)``."""
    if kind.startswith("pg-") != isinstance(game, PublicGoodsGame):
        raise ValueError(f"a {kind} solve cannot take a {type(game).__name__}")
    m, b = _system(game, which)
    x = solve_linear(m, b, tol * (1.0 + _norm_inf(b)))
    return _result(x, kind, _norm_inf(m @ x - b))


def solve_ne_interior(game: NetworkGame) -> EquilibriumResult:
    """Interior Nash equilibrium from (I+G)x = a.

    Negative components are returned un-clamped with ``interior=False``;
    ``solve_vi`` is the authority on the nonnegative orthant.
    """
    return _solve_system(game, "ne", "interior-ne")


def solve_social_interior(game: NetworkGame) -> EquilibriumResult:
    """Interior social optimum from (I+G+G^T)y = a."""
    return _solve_system(game, "social", "interior-social")


_AT_ZERO, _FREE, _AT_UB = 0, 1, 2


def solve_vi(
    game: NetworkGame,
    which: str = "ne",
    x0=None,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> EquilibriumResult:
    """Solve VI(X, F) on the action box by least-index principal pivoting.

    X is [0, inf)^n, or [0, ub] when the game carries an upper bound;
    F(x) = Mx - a with M = I+G (``which="ne"``) or I+G+G^T (``"social"``), so
    the VI is the (box) LCP(M, -a).  Each player is at 0, free, or at ub,
    starting from the basis implied by ``x0`` (default: the origin).  Until a
    basis point (bounds held, ``x_F = M_FF^-1 (a_F - M_FB x_B)`` by one
    solve_linear) has no violator, the lowest-indexed one flips: a free player
    beyond tol*(1+||a||) outside [0, ub] goes to the bound it crossed, one at 0
    with F_i < 0 or at ub with F_i > 0 becomes free.  A P-matrix M gives a
    unique solution for every a (Cottle, Pang & Stone 1992, Thm 3.3.7), reached
    on the orthant without revisiting a basis (Murty 1974).

    On success x is that point clipped into X: F_i >= 0 at 0, F_i <= 0 at ub,
    |F_i| <= tol*(1+||a_F - M_FB x_B||) when free, and (s*a, s*ub, s*x0) gives
    s*x for s > 0.  StepSelectionFailed: a basis recurs or a free block is singular
    (never on the orthant for a P-matrix); MaxItersExceeded: ``max_iters`` solves.
    """
    if not isinstance(game, NetworkGame):
        raise ValueError(f"solve_vi expects a NetworkGame, got {type(game).__name__}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    m, a = _system(game, which)
    ub = game.upper_bound
    hi = np.inf if ub is None else ub
    x = np.clip(np.zeros(game.n) if x0 is None else profile_vector(x0, game.n), 0.0, ub)
    state = np.where(x <= 0.0, _AT_ZERO, np.where(x >= hi, _AT_UB, _FREE)).astype(np.int8)
    solved = not np.any(state == _FREE)  # a start with free players must solve them first
    slack = tol * (1.0 + _norm_inf(a))  # a free player beyond this outside X leaves
    visited = set()
    for _ in range(max_iters):
        f = m @ x - a
        violators = np.flatnonzero(
            (state == _FREE) & ((x < -slack) | (x > hi + slack))
            | (state == _AT_ZERO) & (f < 0.0)
            | (state == _AT_UB) & (f > 0.0)
        )
        if (solved or visited) and not violators.size:
            x = np.clip(x, 0.0, ub)  # a free player may sit a rounding error outside X
            return _result(x, f"constrained-{which}", *_vi_residual(x, m @ x - a, ub))
        if violators.size:
            i = violators[0]
            state[i] = _FREE if state[i] != _FREE else _AT_ZERO if x[i] < 0.0 else _AT_UB
        if state.tobytes() in visited:
            res = _vi_residual(x, f, ub)[0]
            raise StepSelectionFailed(f"pivoting revisited a basis (residual {res:.3e})")
        visited.add(state.tobytes())
        x = np.where(state == _AT_UB, hi, 0.0)
        fr = np.flatnonzero(state == _FREE)
        if fr.size:
            rhs = a[fr] - m[fr] @ x
            try:
                x[fr] = solve_linear(m[np.ix_(fr, fr)], rhs, tol * (1.0 + _norm_inf(rhs)))
            except SingularSystem as exc:
                raise StepSelectionFailed(f"pivoting hit a singular free block: {exc}") from exc
    res, comp = _vi_residual(x, m @ x - a, ub)
    raise MaxItersExceeded(
        f"no convergence in {max_iters} pivoting steps (residual {res:.3e})",
        best_x=ActionProfile(x),
        stationarity_residual=res,
        complementarity_residual=comp,
        iterations=max_iters,
    )


def solve_ne_pg(game: PublicGoodsGame, tol: float = DEFAULT_TOL) -> EquilibriumResult:
    """Public-goods Nash equilibrium (I+G)x = gamma(theta + Gx).

    Solves the linear system ``(I + V G) x = c + d*theta`` with V = diag(1 - d),
    built as a row scale.
    """
    return _solve_system(game, "ne", "pg-ne", tol)


def solve_social_pg(game: PublicGoodsGame, tol: float = DEFAULT_TOL) -> EquilibriumResult:
    """Public-goods social optimum.

    Solves ``(I + V (G + G^T)) y = c + d*theta`` with V = diag(1 - d), built
    as a row scale.
    """
    return _solve_system(game, "social", "pg-social", tol)
