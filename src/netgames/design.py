"""Coincidence checks and network design.

The design target is the pair of conditions ``(I+G)x = a`` and ``G^T x = 0``:
a network whose Nash equilibrium is simultaneously the social optimum.
``design_solve`` recovers free adjacency entries by multi-start damped
Gauss-Newton on the stacked bilinear residual, advancing all starts of a sweep
in lockstep as one batch: steps come from a batched solve on square systems (a
pseudo-inverse otherwise) and step lengths from the residual's exact quadratic
expansion.  ``symmetric_design`` uses the closed-form construction x* = a, Ga = 0.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleDesign, NoSolutionFound, SingularSystem
from .games import ActionProfile, AdjacencyMatrix, NetworkGame, PublicGoodsGame
from .games import _as_vector, _row_scale, _slack, _system
from .equilibrium import DEFAULT_TOL, RCOND_MIN, _first_order, _norm_inf, _solve

DESIGN_TOL = 1e-8
RANK_TOL = 1e-10
# Solutions closer than this (relative sup distance) are the same branch.
DISTINCT_TOL = 1e-4


def _singularity(g: np.ndarray, rank_tol: float = RANK_TOL) -> tuple[np.ndarray, bool]:
    """Singular values of g and the verdict ``sv[-1] <= rank_tol * sv[0]``."""
    sv = np.linalg.svd(g, compute_uv=False)
    return sv, bool(sv[-1] <= rank_tol * sv[0])


@dataclass(frozen=True)
class DesignProblem:
    """Free/fixed split of off-diagonal adjacency entries.

    ``fixed`` holds (i, j, value) triples and ``free`` the (i, j) positions to
    be determined; indices are 1-based and off-diagonal, and the two sets must
    not overlap.
    """

    n: int
    a: np.ndarray
    fixed: tuple
    free: tuple

    def __post_init__(self):
        a = _as_vector(self.a, self.n, "a")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        fixed = tuple((*self._position("fixed", (i, j, v)), float(v)) for i, j, v in self.fixed)
        free = tuple(self._position("free", (i, j)) for i, j in self.free)
        seen = set()
        for i, j, v in fixed:
            if not np.isfinite(v):
                raise ValueError(f"fixed entry ({i},{j}) must be finite")
            seen.add((i, j))
        for i, j in free:
            if (i, j) in seen:
                raise ValueError(f"position ({i},{j}) is both fixed and free")
            if free.count((i, j)) > 1:
                raise ValueError(f"duplicate free position ({i},{j})")
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "free", free)

    def _position(self, kind: str, entry: tuple) -> tuple[int, int]:
        """(i, j) of a fixed or free ``entry``: integers (not booleans) in 1..n, i != j."""
        i, j = entry[:2]
        ok = all(float(k).is_integer() and not isinstance(k, (bool, np.bool_)) for k in (i, j))
        if not (ok and 1 <= i <= self.n and 1 <= j <= self.n and i != j):
            raise ValueError(f"{kind} entry {list(entry)}: want integers i != j in 1..{self.n}")
        return int(i), int(j)

    def base_matrix(self) -> np.ndarray:
        g = np.zeros((self.n, self.n))
        for i, j, v in self.fixed:
            g[i - 1, j - 1] = v
        return g


@dataclass(frozen=True)
class DesignSolution:
    """A recovered (G, x*) pair satisfying the coincidence system."""

    adjacency: AdjacencyMatrix
    x_star: ActionProfile
    residual_ne: float
    residual_orth: float
    branch_id: int


@dataclass(frozen=True)
class DesignRun:
    """All accepted branches of a multi-start run plus search diagnostics."""

    solutions: tuple
    rejected_negative: int
    converged_starts: int
    best_residual: float
    iterations: int  # batch Newton iterations, summed over the sweeps run


@dataclass(frozen=True)
class CoincidenceCheck:
    """Outcome of testing Nash/social-optimum coincidence on a given game."""

    holds: bool
    x: ActionProfile
    residual_orth: float  # ||(M_soc - M_ne) x||_inf, see ``_coincides``
    social_gap: float  # sup distance to the interior social optimum (nan if singular)


@dataclass(frozen=True)
class DeterminantReport:
    """Determinant, numerical rank and singularity verdict of G (``necessary_condition_det``)."""

    det: float
    singular: bool
    rank: int


def _coincides(game, x: np.ndarray, slack: float) -> tuple[bool, float]:
    """Whether ``||(M_soc - M_ne) x||_inf`` and -min x are at most ``slack`` at the interior
    Nash equilibrium x, and that norm: ``||v*(G^T x)||_inf``, v the row scale of ``_system``."""
    v = _row_scale(game)[0]
    gtx = game.adjacency.g.T @ x
    residual_orth = _norm_inf(gtx if v is None else v * gtx)
    return residual_orth <= slack and bool(np.min(x) >= -slack), residual_orth


def _nash_gate_from_social(m: np.ndarray, social_max: float) -> bool:
    """Whether S = I+G+G^T, proven positive definite, with max|S| = ``social_max``, proves
    the rcond gate of M = I+G without a factor of M.

    G has a zero diagonal, so sym(M) = (I + S)/2 + E, E the rounding of G+G^T, with |E_ij|
    <= eps max|S|/4 and ||E||_2 <= n eps max|S|/4.  Hence sigma_min(U) >= lambda_min(sym U)
    >= (1 - n eps max|S|)/(2 max|M|) for U = M/max|M|, and that bound reaching sqrt(n)
    ||U||_1 RCOND_MIN + 4n^2 eps proves rcond_1(M) >= RCOND_MIN as M's own factor would.
    The margin 4n^2 eps, twice the factor's rounding allowance, covers the rounding of these
    scalars and keeps M's factorization clear of breakdown (Demmel's condition, Higham 2002,
    sec. 10.1), so both routes reach the same solve.
    """
    n, eps, scale = m.shape[-1], np.finfo(float).eps, max(m.max(), -m.min())
    u = np.abs(m / scale)  # U = M/max|M|, scaled before the column sums so none overflows
    sigma = np.sqrt(n) * u.sum(axis=0).max() * RCOND_MIN
    return (1.0 - n * eps * social_max) / (2.0 * scale) >= sigma + 4.0 * n * n * eps


def check_coincidence(
    game: NetworkGame | PublicGoodsGame, tol: float = DESIGN_TOL
) -> CoincidenceCheck:
    """Test whether the interior Nash equilibrium x is also the social optimum.

    Both systems come from ``_system`` with one b, so they coincide at x exactly when
    (M_soc - M_ne) x = 0: G^T x = 0 in an LQ game, diag(1-d) G^T x = 0 in a public-goods
    game (``_coincides``).  Holds when its sup norm is at most ``tol*||b||_inf`` and no x_i
    is below its negative; ValueError unless ``0 < tol < inf``.  ``social_gap`` is the sup
    distance to the interior social optimum wherever M_soc is nonsingular.  x and that
    optimum are those of ``solve_ne_interior`` and ``solve_social_interior`` (or
    ``solve_ne_pg`` and ``solve_social_pg``), bit for bit.

    The social system S is solved first.  In an LQ game whose S has a proven gate
    (``solve_linear``), one scalar inequality proves the Nash gate of M = I+G
    (``_nash_gate_from_social``).  Otherwise, for symmetric G from FACTOR_SOLVE_MIN_N on,
    where M is solved from its own factor, and in a public-goods game, whose row scale
    diag(1-d) breaks sym(M) = (I + S)/2, M proves its own gate.
    """
    if not isinstance(game, (NetworkGame, PublicGoodsGame)):
        raise ValueError(f"expected a NetworkGame or PublicGoodsGame, got {type(game).__name__}")
    m, b = _system(game, "social")
    slack = _slack(tol, b)
    y, proven = None, False
    with contextlib.suppress(SingularSystem):
        y, proven = _solve(m, b, DEFAULT_TOL)  # the tol of the interior and pg solvers
    social_max = max(m.max(), -m.min())
    m = _system(game, "ne")[0]  # S is no longer needed: one n x n system at a time
    proven = proven and isinstance(game, NetworkGame) and _nash_gate_from_social(m, social_max)
    x = _solve(m, b, DEFAULT_TOL, proven)[0]
    holds, residual_orth = _coincides(game, x, slack)
    return CoincidenceCheck(
        holds=holds,
        x=ActionProfile(x),
        residual_orth=residual_orth,
        social_gap=float("nan") if y is None else _norm_inf(x - y),
    )


def necessary_condition_det(
    adjacency: AdjacencyMatrix, rank_tol: float = RANK_TOL
) -> DeterminantReport:
    """Determinant, numerical rank, and singularity verdict for G.

    A singular G is necessary for a nonzero coincident equilibrium.
    """
    g = adjacency.g
    sv, singular = _singularity(g, rank_tol)
    rank = int(np.sum(sv > rank_tol * max(float(sv[0]), np.finfo(float).tiny)))
    return DeterminantReport(det=float(np.linalg.det(g)), singular=singular, rank=rank)


def potential_check(adjacency: AdjacencyMatrix, tol: float = 1e-12) -> bool:
    """True iff G is symmetric within tol, i.e. the game admits a potential."""
    g = adjacency.g
    return _norm_inf(np.sum(np.abs(g - g.T), axis=1)) <= tol


def symmetric_design(a, seed: int = 0, max_abs: float = 0.3) -> DesignSolution:
    """Random symmetric G with zero diagonal and Ga = 0, so x* = a exactly.

    A Gaussian symmetric zero-diagonal W (upper triangle row-major from ``seed``) is projected
    onto the kernel of ``C: W -> Wa`` in closed form, through the n x n matrix C C^T, and
    rescaled to ``max_abs`` sup norm.  Singular values of C up to 1e-12 s_max count as zero, a
    cut relative to the scale of a, so InfeasibleDesign (a trivial kernel) comes for n=2 with
    a != 0 or n=3 with every a_i != 0, unless a is that close to a vector with a zero.
    ValueError: a non-finite a, or ``max_abs`` not in (0, inf).
    """
    a = np.array(a, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise InfeasibleDesign("need at least two players")
    if not np.all(np.isfinite(a)) or not 0.0 < max_abs < np.inf:
        raise ValueError(f"need finite a and 0 < max_abs < inf, got max_abs={max_abs}")
    if np.min(a) < 0:
        raise InfeasibleDesign("x* = a must be nonnegative")
    n = a.size
    iu = np.triu_indices(n, 1)
    g = np.zeros((n, n))
    g[iu] = np.random.default_rng(seed).standard_normal(iu[0].size)
    g += g.T
    scale = _norm_inf(a) or 1.0
    b = a / scale  # the kernel is scale-free
    # C C^T = diag(|b|^2 - 2b^2) + b b^T: every eigenvalue but the least is >= max(b)^2 = 1
    # (Courant-Fischer), so only the least loses digits; recompute it as |C^T q|^2, q its vector
    lam, q = np.linalg.eigh(np.diag(b @ b - 2.0 * b**2) + np.outer(b, b))
    lam[0] = np.sum(np.triu(np.outer(q[:, 0], b) + np.outer(b, q[:, 0]), 1) ** 2)
    sv = np.sqrt(lam)  # the singular values of C for b; s_max >= 1 unless a = 0
    inv = np.divide(1.0, lam, out=np.zeros(n), where=sv > 1e-12 * sv[-1])
    if np.count_nonzero(inv) == iu[0].size:
        raise InfeasibleDesign(
            f"no nonzero symmetric design exists for n={n} with this a"
        )
    for _ in range(4):  # the projection, then three refinement passes
        y = q @ (inv * (q.T @ (g @ b)))
        g -= np.outer(y, b) + np.outer(b, y)
        np.fill_diagonal(g, 0.0)
    top = _norm_inf(g)
    if top == 0.0:
        raise InfeasibleDesign("degenerate null-space sample")
    g *= max_abs / top
    residual = _norm_inf(g @ a)
    return DesignSolution(
        adjacency=AdjacencyMatrix(g),
        x_star=ActionProfile(a),
        residual_ne=residual,
        residual_orth=residual,
        branch_id=0,
    )


def four_player_symmetric_example(t: float = 0.1, u: float = 0.2) -> NetworkGame:
    """Deterministic 4-player symmetric design with a = 1 and Ga = 0.

    Pairs (1,2) and (3,4) carry weight t, (1,3) and (2,4) weight u, and
    (1,4) and (2,3) weight -(t+u), so every row sums to zero.
    """
    s = -(t + u)
    g = np.array(
        [
            [0.0, t, u, s],
            [t, 0.0, s, u],
            [u, s, 0.0, t],
            [s, u, t, 0.0],
        ]
    )
    return NetworkGame(adjacency=AdjacencyMatrix(g), a=np.ones(4))


def _bilinear_system(problem: DesignProblem):
    """``build_g``, ``residual``, ``jacobian``, ``free_terms`` and ``step`` on batches
    u = [x, g_free] of shape (K, n+m).  R = [(I+G)x - a; G^T x] is bilinear, so
    ``R(u + t du) = R(u) + t J(u) du + t^2 free_terms(du)`` holds exactly."""
    n, a, g0, m = problem.n, problem.a, problem.base_matrix(), len(problem.free)
    rows = np.array([i - 1 for i, _ in problem.free], dtype=int)
    cols = np.array([j - 1 for _, j in problem.free], dtype=int)
    # R(u) = jac0 u - [a; 0] + free_terms(u), which sums each product u_left * u_right
    # into its target row: g_pq*x_q into row p of Gx and g_pq*x_p into row q of G^T x
    slots = n + np.arange(m)
    left, right, target = np.r_[slots, slots], np.r_[cols, rows], np.r_[rows, n + cols]
    scatter, a0 = np.eye(2 * n)[target], np.r_[a, np.zeros(n)]
    jac0 = np.zeros((2 * n, n + m))
    jac0[:n, :n], jac0[n:, :n] = np.eye(n) + g0, g0.T
    # J is jac0 plus each product's partials (jac0 is zero there): u_right at
    # (target, left) and u_left at (target, right)
    where = np.ravel_multi_index((np.r_[target, target], np.r_[left, right]), jac0.shape)
    partials = np.r_[right, left]
    rcond = max(2 * n, n + m) * np.finfo(float).eps  # lstsq's cutoff, relative to s_max

    def build_g(gf):
        """Adjacency matrix for free-entry values gf."""
        g = g0.copy()
        g[rows, cols] = gf
        return g

    def free_terms(u):
        return (u[:, left] * u[:, right]) @ scatter

    def residual(u):
        return u @ jac0.T - a0 + free_terms(u)

    def jacobian(u):
        jac = np.repeat(jac0[None], len(u), axis=0)
        jac.reshape(len(u), -1)[:, where] = u[:, partials]
        return jac

    def step(jac, r):
        """Steps -J^+ r: LU when m = n, else (and where LU fails) min-norm least squares."""
        try:  # raises on a non-square J or an exactly singular member
            du = -np.linalg.solve(jac, r[..., None])[..., 0]
        except np.linalg.LinAlgError:
            du = np.full((len(jac), n + m), np.nan)
        bad = ~np.all(np.isfinite(du), axis=1)
        if bad.any():
            du[bad] = -(np.linalg.pinv(jac[bad], rcond=rcond) @ r[bad, :, None])[..., 0]
        return du

    return build_g, residual, jacobian, free_terms, step


def design_solve(
    problem: DesignProblem,
    starts: int = 64,
    tol: float = DESIGN_TOL,
    seed: int = 0,
) -> DesignRun:
    """Multi-start damped Gauss-Newton on R(x, g_free) = [(I+G)x - a; G^T x].

    Starts sample x in [0, max(a)] and free entries in [-5, 5]; on total
    failure the whole sweep is retried with entries in [-50, 50].  All starts
    of a sweep advance in lockstep as one (starts, n+m) batch: each iteration
    steps every live start by one batched LU solve when the Jacobian is square
    (else by a stacked pseudo-inverse) and takes the first of 40 halvings that
    lowers the residual 2-norm, found from R's exact quadratic expansion and
    confirmed on the true residual.  A start stops at residual 1e-13*||a||_inf, after 80
    iterations, or when no halving helps (it keeps its iterate); a start whose step is not
    finite is dropped.  Converged iterates (residual at most tol*||a||_inf, ``games._slack``)
    with any x_i below -tol*||a||_inf are excluded and counted in diagnostics.  Distinct
    accepted branches (relative sup distance > 1e-4) are returned in canonical order; raises
    NoSolutionFound when none survive, and ValueError unless ``starts >= 1`` and ``0 < tol < inf``.
    """
    if starts < 1:
        raise ValueError(f"need starts >= 1, got {starts}")
    n, a, m = problem.n, problem.a, len(problem.free)
    slack, hard_tol = _slack(tol, a), _slack(1e-13, a)
    build_g, residual, jacobian, free_terms, step = _bilinear_system(problem)
    halvings = 0.5 ** np.arange(40)
    x_hi = float(np.max(a)) if float(np.max(a)) > 0 else 1.0

    def polish(u):
        """Damped Gauss-Newton on every row of u; returns kept iterates, residuals, iterations."""
        r = residual(u)
        norm = np.linalg.norm(r, axis=1)
        kept = np.ones(len(u), dtype=bool)
        live = kept.copy()
        for it in range(81):  # at most 80 iterations
            live &= np.max(np.abs(r), axis=1) > hard_tol
            idx = np.flatnonzero(live)
            if not idx.size or it == 80:
                return u[kept], r[kept], it
            jac = jacobian(u[idx])
            du = step(jac, r[idx])
            finite = np.all(np.isfinite(du), axis=1)
            kept[idx[~finite]] = live[idx[~finite]] = False
            idx, du, jac = idx[finite], du[finite], jac[finite]
            lin, quad = jac @ du[..., None], free_terms(du)[..., None]
            v = r[idx, :, None] + halvings * (lin + halvings * quad)  # R(u + t du), (K, 2n, 40)
            lower = np.einsum("kit,kit->kt", v, v) < norm[idx, None] ** 2
            cand = u[idx] + halvings[np.argmax(lower, axis=1), None] * du
            r_new = residual(cand)
            n_new = np.linalg.norm(r_new, axis=1)
            # no halving lowers, or rounding undid the drop: judge the halvings on true residuals
            for i in np.flatnonzero(~(n_new < norm[idx])):
                c = u[idx[i]] + halvings[:, None] * du[i]
                r_c = residual(c)
                n_c = np.linalg.norm(r_c, axis=1)
                k = np.argmax(n_c < norm[idx[i]])
                cand[i], r_new[i], n_new[i] = c[k], r_c[k], n_c[k]
            moved = n_new < norm[idx]
            live[idx[~moved]] = False  # stalled: keeps its iterate
            idx = idx[moved]
            u[idx], r[idx], norm[idx] = cand[moved], r_new[moved], n_new[moved]

    rejected = converged = iterations = 0
    best = np.inf
    for box in (5.0, 50.0):  # the wide box runs only after a total failure
        rng = np.random.default_rng(seed)
        lo = np.concatenate([np.zeros(n), np.full(m, -box)])
        hi = np.concatenate([np.full(n, x_hi), np.full(m, box)])
        # row-major draws: per start, n actions then m free entries, as one stream
        u, r, its = polish(rng.uniform(lo, hi, (starts, n + m)))
        res = np.max(np.abs(r), axis=1)
        best = min(best, float(np.min(res, initial=np.inf)))
        ok = res <= slack
        negative = ok & (np.min(u[:, :n], axis=1) < -slack)
        accepted = list(u[ok & ~negative])
        rejected += int(np.sum(negative))
        converged += int(np.sum(ok))
        iterations += its
        if accepted:
            break
    if not accepted:
        raise NoSolutionFound(
            f"no admissible design found in {2 * starts} starts "
            f"(best residual {best:.3e}, {rejected} rejected for negativity)",
            best_residual=best,
            rejected_negative=rejected,
        )

    accepted.sort(key=lambda u: tuple(np.round(u, 12)))
    distinct = []
    for u in accepted:
        for v in distinct:
            gap = _norm_inf(u - v) / (1.0 + max(_norm_inf(u), _norm_inf(v)))
            if gap <= DISTINCT_TOL:
                break
        else:
            distinct.append(u)

    solutions = []
    for branch_id, u in enumerate(distinct):
        game = NetworkGame(AdjacencyMatrix(build_g(u[n:])), a)
        m_ne, b_ne = _system(game, "ne")
        x = u[:n]
        solutions.append(
            DesignSolution(
                adjacency=game.adjacency,
                x_star=ActionProfile(x),
                residual_ne=_norm_inf(_first_order(m_ne, x, b_ne)),
                residual_orth=_norm_inf(game.adjacency.g.T @ x),
                branch_id=branch_id,
            )
        )
    return DesignRun(
        solutions=tuple(solutions),
        rejected_negative=rejected,
        converged_starts=converged,
        best_residual=best,
        iterations=iterations,
    )
