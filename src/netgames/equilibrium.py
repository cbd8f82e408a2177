"""Equilibrium and social-optimum solvers.

Every solver reads its first-order map ``F(x) = Mx - b`` from
``games._system``: ``(I+G, a)`` for the Nash equilibrium, ``(I+G+G^T, a)``
for the social optimum, and ``(I + diag(1-d) S, c + d*theta)`` with S = G or
G+G^T for their public-goods analogues.  Interior solutions solve ``Mx = b`` in
``solve_linear`` behind an exact 1-norm rcond gate, which strong monotonicity, the VI's
uniqueness condition, proves from one Cholesky factor (Rump, BIT 46, 2006); that factor
also solves an exactly symmetric M, and one proof settles the gates of both LQ systems
(``design.check_coincidence``).  On the nonnegative orthant (or a box) the solution
concept is the variational inequality VI(X, F), a linear complementarity problem;
``solve_vi`` solves it by least-index principal pivoting up to a solved basis with no
violator.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import MaxItersExceeded, SingularSystem, StepSelectionFailed
from .games import ActionProfile, NetworkGame, PublicGoodsGame, _slack, _system, profile_vector

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 100_000
# Exact 1-norm reciprocal condition 1/(||M||_1 ||M^-1||_1) below this means the
# system is treated as singular.  Since kappa_2/n <= kappa_1 <= n*kappa_2, the cut
# sits within a factor n of the same threshold on the 2-norm condition number.
RCOND_MIN = 1e-12
PROOF_MIN_N = 64  # solve_linear proves the rcond gate from this size on; below, an inverse is cheaper
# From this size on an exactly symmetric M is solved from the proof's own Cholesky factor,
# not by a second (LU) factorization.  Median ms per proven solve of I+G+G^T (3 seeds), 1
# BLAS thread on a shared 2-vCPU x86-64 machine (OpenBLAS); the two break even near n = 200:
#   n                       128    160    192    224    256    400    800
#   proof + LU solve        0.40   0.65   1.14   1.58   2.23   5.87   34.8
#   proof + factor solve    0.48   0.71   1.16   1.48   1.93   4.54   21.3
FACTOR_SOLVE_MIN_N = 200
_SUBST_BLOCK = 32  # diagonal block of the blocked triangular substitution
_WIDE_B = np.finfo(float).max * RCOND_MIN / 4  # the n ||b||_inf past which ``_wide`` scales

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
    interior: bool  # every x_i > tol*||b||_inf (``games._slack``), tol the solver's


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


def _gate_factor(m: np.ndarray, symmetric: bool = False):
    """``(L, max|M|)`` with L L^T = fl(2U - 2(sigma + 2n^2 eps) I), or None where no L exists.

    Its existence proves rcond_1(M) >= RCOND_MIN (see ``solve_linear``).  ``symmetric``
    says M = M^T exactly, so U + U^T is 2U, bit for bit.
    """
    n, scale = m.shape[-1], max(m.max(), -m.min())  # max|M|
    if not 0.0 < scale < np.inf:
        return None
    u = m / scale  # U, scaled before any sum so that none can overflow
    sigma = np.sqrt(n) * np.abs(u).sum(axis=0).max() * RCOND_MIN
    if symmetric:
        u *= 2.0
    else:
        u += u.T  # twice the symmetric part, so the shift is doubled too
    u.flat[:: n + 1] -= 2.0 * (sigma + 2.0 * n * n * np.finfo(float).eps)
    with contextlib.suppress(np.linalg.LinAlgError):
        return np.linalg.cholesky(u), scale
    return None


def _factor_solve(m, factor, b, residual_target):
    """x from the proof's factor of a symmetric M, or None where refinement misses the target.

    With L L^T = fl(2M/s - 2 tau I), s = max|M|, P = (s/2) L L^T is M - s tau I up to
    rounding, so x <- x + P^-1 (b - Mx) contracts the error by about tau / (lambda_min(U) -
    tau) per step.  P^-1 is blocked forward and back substitution, each diagonal block of
    L inverted once.  After the solve and up to 5 refinement steps, the first x to meet
    ``residual_target`` takes one more step, kept if it meets the target too.
    """
    (l, scale), nb = factor, _SUBST_BLOCK
    starts = range(0, len(b), nb)
    diag = [np.linalg.inv(l[k : k + nb, k : k + nb]) for k in starts]

    def step(r):
        y = r / scale
        for k, d in zip(starts, diag):  # L y = r/s
            y[k : k + nb] = d @ (y[k : k + nb] - l[k : k + nb, :k] @ y[:k])
        for k, d in zip(reversed(starts), reversed(diag)):  # L^T z = y
            y[k : k + nb] = d.T @ (y[k : k + nb] - l[k + nb :, k : k + nb].T @ y[k + nb :])
        return 2.0 * y

    x = step(b)
    for _ in range(6):  # the solve, then up to 5 refinement steps
        r = b - m @ x
        if _norm_inf(r) <= residual_target:
            y = x + step(r)
            return y if _norm_inf(b - m @ y) <= residual_target else x
        x = x + step(r)
    return None


def _wide(m: np.ndarray, b_norm) -> tuple[int, int] | None:
    """``(e, s)`` where n ``b_norm`` = n ||b||_inf passes _WIDE_B, else None.  Up to it, past the
    rcond gate, no partial sum of Mx passes max|M| ||x||_1 <= n ||b||_inf / RCOND_MIN (the 4 spares
    rounding).  Past it M/2^e and b/2^s, 2^e and 2^s the least powers of two above max|M| and
    ||b||_inf, solve for 2^(e-s) x and give 2^-s F(x) finitely, exact but where one underflows."""
    if b_norm <= _WIDE_B / m.shape[-1]:
        return None
    return math.frexp(max(m.max(), -m.min()))[1], math.frexp(b_norm)[1]


def _first_order(m: np.ndarray, x: np.ndarray, b: np.ndarray, wide=False) -> np.ndarray:
    """F(x) = Mx - b, formed as ``_wide`` says (decided from b unless given) and scaled back."""
    if (wide := _wide(m, _norm_inf(b)) if wide is False else wide) is None:
        return m @ x - b
    e, s = wide
    return np.ldexp(np.ldexp(m, -e) @ np.ldexp(x, e - s) - np.ldexp(b, -s), s)


def _solve(m: np.ndarray, b: np.ndarray, tol: float, proven: bool = False):
    """``solve_linear`` on one matrix: x and whether the gate is proven, here or by the caller."""
    n, b_norm = m.shape[-1], np.abs(b).max()
    target, wide = tol * (1.0 + b_norm), _wide(m, b_norm)
    if wide is not None:  # solve for 2^(e-s) x, scaled back on return
        m, b, target = np.ldexp(m, -wide[0]), np.ldexp(b, -wide[1]), math.ldexp(target, -wide[1])
    x = None
    if n >= PROOF_MIN_N:
        # the first row against the first column rejects most non-symmetric M in O(n)
        if n >= FACTOR_SOLVE_MIN_N and np.array_equal(m[0], m[:, 0]) and np.array_equal(m, m.T):
            factor = _gate_factor(m, symmetric=True)
            proven = proven or factor is not None
            x = None if factor is None else _factor_solve(m, factor, b, target)
        elif not proven:
            proven = _gate_factor(m) is not None
        if x is None and proven:
            x = np.linalg.solve(m, b)
            x = x if _norm_inf(b - m @ x) <= target else None
    x = _inverse_solve(m, b, target) if x is None else x  # a factor or LU x has a proven gate
    return (x if wide is None else np.ldexp(x, wide[1] - wide[0])), proven


def solve_linear(m: np.ndarray, b: np.ndarray, tol: float):
    """Dense solve of ``Mx = b`` to the residual target tol*(1+||b||_inf), gated as ``_inverse``.

    From PROOF_MIN_N players on, the gate is first proven: with U = M/max|M| and sigma =
    sqrt(n) ||U||_1 RCOND_MIN, a floating-point Cholesky factor L of U+U^T - 2(sigma + 2n^2
    eps) I proves x^T U x >= sigma ||x||_2^2 for all x (2n^2 eps covers the rounding of U, of
    the symmetric part and of the factorization: Rump, BIT 46, 2006), so sigma_min(U) >=
    sigma, ||U^-1||_1 <= sqrt(n) ||U^-1||_2 <= sqrt(n)/sigma and rcond_1(M) = 1/(||U||_1
    ||U^-1||_1) >= RCOND_MIN.  From FACTOR_SOLVE_MIN_N on, an exactly symmetric M is then
    solved from L (``_factor_solve``); any other M, or a symmetric one whose refinement misses
    the target, by one LU solve kept if it meets the target.  Otherwise one inverse serves the
    gate, the solve and up to 5 refinement steps, and SingularSystem is raised where the gate
    or the target fails.  A proof only skips that inverse, so it never changes a verdict.  A
    wide system (``_wide``) is solved scaled by powers of two, so x and the verdict are the
    unscaled system's, with no overflow.  A stack (..., n, n) returns ``(x, ok)``, each member
    with its own ||b||_inf and flagged (x nan, ok False) where alone it raises.
    """
    if m.ndim == 2:
        return _solve(m, b, tol)[0]
    b_norm = np.abs(b).max(axis=-1, initial=0.0)
    if m.shape[-1] < PROOF_MIN_N and _wide(m, b_norm.max()) is None:
        return _inverse_solve(m, b, tol * (1.0 + b_norm))
    b = np.broadcast_to(b, m.shape[:-1])  # a stacked inverse would save only call overhead
    x = np.full(b.shape, np.nan)
    for k in np.ndindex(m.shape[:-2]):
        with contextlib.suppress(SingularSystem):
            x[k] = _solve(m[k], b[k], tol)[0]
    return x, ~np.isnan(x[..., 0])  # a solved member meets the target, so holds no nan


def _inverse_solve(m: np.ndarray, b: np.ndarray, residual_target: float):
    """``solve_linear`` from one inverse and up to 5 refinement steps, for a matrix or a stack."""
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


def _result(x, kind, slack, stationarity, complementarity=0.0) -> EquilibriumResult:
    return EquilibriumResult(
        x=ActionProfile(x),
        kind=kind,
        stationarity_residual=stationarity,
        complementarity_residual=complementarity,
        interior=bool(np.all(x > slack)),
    )


def _solve_system(game, which: str, kind: str, tol: float = DEFAULT_TOL) -> EquilibriumResult:
    """Solve ``Mx = b`` for the ``(M, b)`` of ``_system(game, which)``."""
    if kind.startswith("pg-") != isinstance(game, PublicGoodsGame):
        raise ValueError(f"a {kind} solve cannot take a {type(game).__name__}")
    m, b = _system(game, which)
    slack = _slack(tol, b)
    x = solve_linear(m, b, tol)
    return _result(x, kind, slack, _norm_inf(_first_order(m, x, b)))


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
    beyond tol*||a||_inf outside [0, ub] goes to the bound it crossed, one at 0
    with F_i < 0 or at ub with F_i > 0 becomes free.  A P-matrix M gives a
    unique solution for every a (Cottle, Pang & Stone 1992, Thm 3.3.7), reached
    on the orthant without revisiting a basis (Murty 1974).

    On success x is that point clipped into X: F_i >= 0 at 0, F_i <= 0 at ub, |F_i| <=
    tol*(1+||a_F - M_FB x_B||) when free, and (s*a, s*ub, s*x0) gives s*x for s > 0.
    StepSelectionFailed: a basis recurs or a free block is singular (never on the orthant
    for a P-matrix); MaxItersExceeded: ``max_iters`` solves; ValueError: tol not in (0, inf).
    """
    if not isinstance(game, NetworkGame):
        raise ValueError(f"solve_vi expects a NetworkGame, got {type(game).__name__}")
    m, a = _system(game, which)
    # a free player beyond slack outside X leaves; one wide decision scales every F below
    slack, wide = _slack(tol, a), _wide(m, _norm_inf(a))
    ub = game.upper_bound
    hi = np.inf if ub is None else ub
    x = np.clip(np.zeros(game.n) if x0 is None else profile_vector(x0, game.n), 0.0, ub)
    state = np.where(x <= 0.0, _AT_ZERO, np.where(x >= hi, _AT_UB, _FREE)).astype(np.int8)
    solved = not np.any(state == _FREE)  # a start with free players must solve them first
    visited = set()
    for _ in range(max_iters):
        f = _first_order(m, x, a, wide)
        violators = np.flatnonzero(
            (state == _FREE) & ((x < -slack) | (x > hi + slack))
            | (state == _AT_ZERO) & (f < 0.0)
            | (state == _AT_UB) & (f > 0.0)
        )
        if (solved or visited) and not violators.size:
            x = np.clip(x, 0.0, ub)  # a free player may sit a rounding error outside X
            f = _first_order(m, x, a, wide)
            return _result(x, f"constrained-{which}", slack, *_vi_residual(x, f, ub))
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
            try:  # a_F - M_FB x_B is -F_F(x), the free entries of x at 0
                x[fr] = solve_linear(m[np.ix_(fr, fr)], -_first_order(m[fr], x, a[fr], wide), tol)
            except SingularSystem as exc:
                raise StepSelectionFailed(f"pivoting hit a singular free block: {exc}") from exc
    res, comp = _vi_residual(x, _first_order(m, x, a, wide), ub)
    raise MaxItersExceeded(
        f"no convergence in {max_iters} pivoting steps (residual {res:.3e})",
        best_x=ActionProfile(x),
        stationarity_residual=res,
        complementarity_residual=comp,
        iterations=max_iters,
    )


def solve_ne_pg(game: PublicGoodsGame, tol: float = DEFAULT_TOL) -> EquilibriumResult:
    """Public-goods Nash equilibrium (I+G)x = gamma(theta + Gx): the linear system
    ``(I + diag(1-d) G) x = c + d*theta`` of ``_system``."""
    return _solve_system(game, "ne", "pg-ne", tol)


def solve_social_pg(game: PublicGoodsGame, tol: float = DEFAULT_TOL) -> EquilibriumResult:
    """Public-goods social optimum: the linear system ``(I + diag(1-d)(G + G^T)) y = c +
    d*theta`` of ``_system``.  It minimizes ``social_cost`` only for constant d, where it
    is that cost's stationarity condition (``grad_W``)."""
    return _solve_system(game, "social", "pg-social", tol)
