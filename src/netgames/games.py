"""Game instances, costs, aggregates, and gradients.

Linear-quadratic network games: player i pays ``0.5*x_i**2 + (z_i - a_i)*x_i``
with neighbor aggregate ``z = G @ x``.  The public-goods variant replaces the
standalone benefit ``a_i`` by a demand function ``gamma_i(theta_i + z_i)``.
Player indices in the public API are 1-based.

Each solution concept is a variational inequality on ``F(x) = Mx - b``, and
``_system`` alone builds ``(M, b)``: ``(I+G, a)`` for the LQ equilibrium,
``(I+G+G^T, a)`` for the LQ optimum, and ``(I + diag(1-d) S, c + d*theta)``
with S = G or G+G^T for the affine public-goods equilibrium and optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, GammaEvaluationError

# Slack allowed on nonnegativity of solver-produced actions (solver-noise scale).
TOL_NONNEG = 1e-9


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
    """Per-player demand functions for the public-goods variant.

    The affine family is ``gamma_i(w) = c_i + d_i * w``.  Custom members
    supply ``value_fn(i, w)`` and ``deriv_fn(i, w)`` with 1-based player i.
    """

    kind: str
    c: np.ndarray | None = None
    d: np.ndarray | None = None
    value_fn: Callable[[int, float], float] | None = None
    deriv_fn: Callable[[int, float], float] | None = None

    def __post_init__(self):
        if self.kind == "affine":
            if self.c is None or self.d is None:
                raise ValueError("affine gamma requires c and d vectors")
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
        elif self.kind == "custom":
            if self.value_fn is None or self.deriv_fn is None:
                raise ValueError("custom gamma requires value_fn and deriv_fn")
        else:
            raise ValueError(f"unknown gamma kind {self.kind!r}")

    @staticmethod
    def affine(c, d) -> "GammaFamily":
        return GammaFamily(kind="affine", c=c, d=d)

    @staticmethod
    def custom(value_fn, deriv_fn) -> "GammaFamily":
        return GammaFamily(kind="custom", value_fn=value_fn, deriv_fn=deriv_fn)

    @property
    def is_affine(self) -> bool:
        return self.kind == "affine"

    def value(self, w) -> np.ndarray:
        """Componentwise gamma_i(w_i)."""
        w = np.asarray(w, dtype=float)
        if self.is_affine:
            if w.shape != self.c.shape:
                raise DimensionMismatch("gamma argument length mismatch")
            return self.c + self.d * w
        return self._call_custom(self.value_fn, w, "value")

    def derivative(self, w) -> np.ndarray:
        """Componentwise gamma_i'(w_i); exactly d for the affine family."""
        w = np.asarray(w, dtype=float)
        if self.is_affine:
            if w.shape != self.c.shape:
                raise DimensionMismatch("gamma argument length mismatch")
            return np.array(self.d, dtype=float)
        return self._call_custom(self.deriv_fn, w, "derivative")

    def _call_custom(self, fn, w, what) -> np.ndarray:
        out = np.empty_like(w)
        for k, wk in enumerate(w):
            try:
                out[k] = float(fn(k + 1, float(wk)))
            except Exception as exc:
                raise GammaEvaluationError(
                    f"gamma {what} failed for player {k + 1} at w={wk!r}: {exc}"
                ) from exc
        if not np.all(np.isfinite(out)):
            raise GammaEvaluationError(f"gamma {what} returned non-finite values")
        return out


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
        if self.gamma.is_affine and self.gamma.c.shape != (self.adjacency.n,):
            raise DimensionMismatch("gamma coefficient length must equal player count")

    @property
    def n(self) -> int:
        return self.adjacency.n


def _system(game, which: str) -> tuple[np.ndarray, np.ndarray]:
    """``(M, b)`` of ``F(x) = Mx - b`` for ``which`` = "ne" (S = G) or "social" (S = G+G^T).

    M = I + S, b = a for an LQ game; M = I + diag(1-d) S, b = c + d*theta for
    an affine public-goods game.  Raises ValueError for a custom gamma.
    """
    if which not in ("ne", "social"):
        raise ValueError(f"which must be 'ne' or 'social', got {which!r}")
    g = game.adjacency.g
    s = g + g.T if which == "social" else g
    if not isinstance(game, PublicGoodsGame):
        return np.eye(game.n) + s, game.a
    if not game.gamma.is_affine:
        raise ValueError("an affine first-order map requires an affine gamma family")
    d = game.gamma.d
    return np.eye(game.n) + (1.0 - d)[:, None] * s, game.gamma.c + d * game.theta


def _costs(game, x: np.ndarray) -> np.ndarray:
    """Every player's cost ``0.5*x_i**2 + (z_i - b_i)*x_i``, b = a or gamma(theta + z)."""
    z = game.adjacency.g @ x
    b = game.gamma.value(game.theta + z) if isinstance(game, PublicGoodsGame) else game.a
    return 0.5 * x * x + (z - b) * x


def aggregate(game, x) -> np.ndarray:
    """Neighbor aggregate z = G @ x."""
    xv = profile_vector(x, game.n)
    return game.adjacency.g @ xv


def cost_lq(game: NetworkGame, i: int, x) -> float:
    """Cost of player i (1-based): 0.5*x_i**2 + (z_i - a_i)*x_i."""
    if not 1 <= i <= game.n:
        raise IndexError(f"player index {i} out of range 1..{game.n}")
    return float(_costs(game, profile_vector(x, game.n))[i - 1])


def social_cost(game: NetworkGame, x) -> float:
    """Sum of all players' costs: 0.5*x.x - a.x + x.(G@x)."""
    return float(_social_cost(game.adjacency.g, game.a, profile_vector(x, game.n)))


def _social_cost(g: np.ndarray, a: np.ndarray, x: np.ndarray):
    """``0.5*x.x + (G@x - a).x``, per member of a stack of G (..., n, n) and x (..., n)."""
    z = (g @ x[..., None])[..., 0]
    return (0.5 * x[..., None, :] @ x[..., None] + (z - a)[..., None, :] @ x[..., None])[..., 0, 0]


def cost_pg(game: PublicGoodsGame, i: int, x) -> float:
    """Public-goods cost of player i: 0.5*x_i**2 + (z_i - gamma_i(theta_i+z_i))*x_i."""
    if not 1 <= i <= game.n:
        raise IndexError(f"player index {i} out of range 1..{game.n}")
    return float(_costs(game, profile_vector(x, game.n))[i - 1])


def social_cost_pg(game: PublicGoodsGame, x) -> float:
    """Sum of public-goods costs."""
    xv = profile_vector(x, game.n)
    z = game.adjacency.g @ xv
    gam = game.gamma.value(game.theta + z)
    return float(0.5 * xv @ xv + (z - gam) @ xv)


def grad_F(game: NetworkGame, x) -> np.ndarray:
    """Pseudo-gradient of individual costs: (I+G)x - a."""
    m, b = _system(game, "ne")
    return m @ profile_vector(x, game.n) - b


def grad_W(game: NetworkGame, x) -> np.ndarray:
    """Gradient of the social cost: (I+G+G^T)x - a."""
    m, b = _system(game, "social")
    return m @ profile_vector(x, game.n) - b
