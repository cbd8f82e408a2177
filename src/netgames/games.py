"""Game instances, costs, aggregates, and gradients.

Linear-quadratic network games: player i pays ``0.5*x_i**2 + (z_i - a_i)*x_i``
with neighbor aggregate ``z = G @ x``.  The public-goods variant replaces the
standalone benefit ``a_i`` by the affine demand ``gamma_i(theta_i + z_i)``, with
``gamma_i(w) = c_i + d_i*w``.  Player indices in the public API are 1-based.

Each solution concept is a variational inequality on ``F(x) = Mx - b``, and
``_system`` alone builds ``(M, b)``: ``(I+G, a)`` for the LQ equilibrium,
``(I+G+G^T, a)`` for the LQ optimum, and ``(I + diag(1-d) S, c + d*theta)``
with S = G or G+G^T for the public-goods equilibrium and optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


def _as_square_matrix(values) -> np.ndarray:
    m = np.array(values, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _as_vector(values, n: int, name: str) -> np.ndarray:
    v = np.array(values, dtype=float)
    if v.shape != (n,):
        raise DimensionMismatch(f"{name} must have length {n}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} entries must be finite")
    return v


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Weighted directed influence network with zero self-influence.

    Entry ``g[i, j]`` is the influence of player j+1's action on player i+1's
    cost; positive entries are strategic substitutes, negative complements.
    The diagonal must be exactly zero.
    """

    g: np.ndarray

    def __post_init__(self):
        g = _as_square_matrix(self.g)
        if np.any(np.diagonal(g) != 0.0):
            raise ValueError("adjacency diagonal must be exactly zero")
        g.setflags(write=False)
        object.__setattr__(self, "g", g)

    @property
    def n(self) -> int:
        return self.g.shape[0]


@dataclass(frozen=True)
class NetworkGame:
    """Linear-quadratic game: adjacency plus standalone marginal benefits.

    Actions live on [0, inf) per player by default; ``upper_bound`` caps them
    at [0, ub_i] instead, which also bounds the action-set radius used by the
    robustness reports.
    """

    adjacency: AdjacencyMatrix
    a: np.ndarray
    upper_bound: np.ndarray | None = None

    def __post_init__(self):
        a = _as_vector(self.a, self.adjacency.n, "a")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        if self.upper_bound is not None:
            ub = _as_vector(self.upper_bound, self.adjacency.n, "upper_bound")
            if np.any(ub <= 0):
                raise ValueError("upper_bound entries must be positive")
            ub.setflags(write=False)
            object.__setattr__(self, "upper_bound", ub)

    @property
    def n(self) -> int:
        return self.adjacency.n


@dataclass(frozen=True)
class ActionProfile:
    """A profile of scalar player actions."""

    x: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        if x.ndim != 1:
            raise DimensionMismatch(f"actions must be a vector, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("actions must be finite")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)

    def __len__(self) -> int:
        return self.x.shape[0]


def profile_vector(x, n: int) -> np.ndarray:
    """Accept an ActionProfile or array-like and return a length-n vector."""
    if isinstance(x, ActionProfile):
        x = x.x
    return _as_vector(x, n, "x")


@dataclass(frozen=True)
class GammaFamily:
    """Affine per-player demand ``gamma_i(w) = c_i + d_i * w`` of the public-goods variant.

    Demand linear in the aggregate gives linear best replies, as in the public-goods
    model of Bramoulle, Kranton & D'Amours (AER 2014).
    """

    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        c = np.array(self.c, dtype=float)
        d = np.array(self.d, dtype=float)
        if c.shape != d.shape or c.ndim != 1:
            raise DimensionMismatch("gamma c and d must be vectors of equal length")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(d))):
            raise ValueError("gamma coefficients must be finite")
        c.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @staticmethod
    def affine(c, d) -> "GammaFamily":
        return GammaFamily(c, d)

    def value(self, w) -> np.ndarray:
        """Componentwise gamma_i(w_i)."""
        w = np.asarray(w, dtype=float)
        if w.shape != self.c.shape:
            raise DimensionMismatch("gamma argument length mismatch")
        return self.c + self.d * w


@dataclass(frozen=True)
class PublicGoodsGame:
    """Public-goods game: adjacency, incomes theta, and a demand family."""

    adjacency: AdjacencyMatrix
    theta: np.ndarray
    gamma: GammaFamily

    def __post_init__(self):
        theta = _as_vector(self.theta, self.adjacency.n, "theta")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        if self.gamma.c.shape != (self.adjacency.n,):
            raise DimensionMismatch("gamma coefficient length must equal player count")

    @property
    def n(self) -> int:
        return self.adjacency.n


def _row_scale(game) -> tuple[np.ndarray | None, np.ndarray]:
    """``(v, b)`` of ``_system``, M = I + diag(v) S: v = 1-d, or None (all ones) for LQ."""
    if isinstance(game, PublicGoodsGame):
        d = game.gamma.d
        return 1.0 - d, game.gamma.c + d * game.theta
    return None, game.a


def _slack(tol: float, b: np.ndarray, power: int = 1) -> float:
    """Margin ``tol*||b||_inf**power`` of every verdict, b of ``_system`` (power 2 for costs),
    so none depends on units and b = 0 is exact; ValueError unless 0 < tol < inf.  Residual
    targets of ``solve_linear`` keep the floor tol*(1+||b||_inf): they stop refinement only."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    return tol * float(np.abs(b).max()) ** power


def _system(game, which: str) -> tuple[np.ndarray, np.ndarray]:
    """``(M, b)`` of ``F(x) = Mx - b`` (module docstring), S = G ("ne") or G+G^T ("social")."""
    if which not in ("ne", "social"):
        raise ValueError(f"which must be 'ne' or 'social', got {which!r}")
    g = game.adjacency.g
    s = g + g.T if which == "social" else g
    v, b = _row_scale(game)
    return np.eye(game.n) + (s if v is None else v[:, None] * s), b


def _benefit(game, z: np.ndarray) -> np.ndarray:
    """b of every cost ``0.5*x_i**2 + (z_i - b_i)*x_i`` at aggregate z: a, or gamma(theta + z)."""
    return game.gamma.value(game.theta + z) if isinstance(game, PublicGoodsGame) else game.a


def _costs(game, x: np.ndarray) -> np.ndarray:
    """Every player's cost ``0.5*x_i**2 + (z_i - b_i)*x_i``, z = G@x, b from ``_benefit``."""
    z = game.adjacency.g @ x
    return 0.5 * x * x + (z - _benefit(game, z)) * x


def aggregate(game: NetworkGame | PublicGoodsGame, x) -> np.ndarray:
    """Neighbor aggregate z = G @ x."""
    xv = profile_vector(x, game.n)
    return game.adjacency.g @ xv


def cost_lq(game: NetworkGame | PublicGoodsGame, i: int, x) -> float:
    """Cost of player i (1-based): 0.5*x_i**2 + (z_i - b_i)*x_i with z = G@x and
    b_i = a_i, or gamma_i(theta_i + z_i) in a public-goods game."""
    if not 1 <= i <= game.n:
        raise IndexError(f"player index {i} out of range 1..{game.n}")
    return float(_costs(game, profile_vector(x, game.n))[i - 1])


def social_cost(game: NetworkGame | PublicGoodsGame, x) -> float:
    """Sum of all players' costs: 0.5*x.x + (G@x - b).x, b as in ``cost_lq``."""
    xv, g = profile_vector(x, game.n), game.adjacency.g
    return float(_social_cost(g, _benefit(game, g @ xv), xv))


def _social_cost(g: np.ndarray, a: np.ndarray, x: np.ndarray):
    """``0.5*x.x + (G@x - a).x``, per member of a stack of G (..., n, n) and x (..., n)."""
    z = (g @ x[..., None])[..., 0]
    return (0.5 * x[..., None, :] @ x[..., None] + (z - a)[..., None, :] @ x[..., None])[..., 0, 0]


def grad_F(game: NetworkGame | PublicGoodsGame, x) -> np.ndarray:
    """Pseudo-gradient of individual costs: (I+G)x - a, or (I + diag(1-d) G)x - (c + d*theta)
    in a public-goods game (``_system``)."""
    m, b = _system(game, "ne")
    return m @ profile_vector(x, game.n) - b


def grad_W(game: NetworkGame | PublicGoodsGame, x) -> np.ndarray:
    """Social first-order map of ``_system``: (I+G+G^T)x - a, the gradient of ``social_cost``;
    in a public-goods game (I + diag(1-d)(G+G^T))x - (c + d*theta), which ``solve_social_pg``
    zeroes.  That is the gradient of ``social_cost`` only for constant d: in general it is
    (I + diag(1-d) G + G^T diag(1-d))x - (c + d*theta)."""
    m, b = _system(game, "social")
    return m @ profile_vector(x, game.n) - b
