"""Individual-rationality reports.

Opting out costs zero, so participation is rational for a player when their
equilibrium cost is at most zero.  At an interior Nash equilibrium the cost
collapses to -0.5*x_i**2: cost_i + x_i**2/2 = x_i*F_i(x) holds exactly, so the
residual check that validates the equilibrium covers the identity too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotAnEquilibrium
from .games import NetworkGame, PublicGoodsGame, _costs, _slack, _system
from .equilibrium import CONSTRAINED_KINDS, INTERIOR_KINDS, NE_KINDS, PG_KINDS, EquilibriumResult
from .equilibrium import _first_order, _norm_inf, _vi_residual


@dataclass(frozen=True)
class PlayerRationality:
    """One player's equilibrium cost against the zero cost of opting out."""

    player: int  # 1-based
    cost_at_eq: float
    cost_opt_out: float
    rational: bool


@dataclass(frozen=True)
class IrReport:
    """Every player's participation verdict (``ir_check``)."""

    players: tuple

    @property
    def all_rational(self) -> bool:
        return all(p.rational for p in self.players)


def _residual_for(game, eq: EquilibriumResult) -> tuple[float, np.ndarray]:
    """The residual the solver of ``eq.kind`` reports, recomputed from ``game``, and b."""
    x = eq.x.x
    if eq.kind not in INTERIOR_KINDS + CONSTRAINED_KINDS + PG_KINDS:
        raise ValueError(f"unknown equilibrium kind {eq.kind!r}")
    m, b = _system(game, "ne" if eq.kind in NE_KINDS else "social")
    if eq.kind in CONSTRAINED_KINDS:
        return _vi_residual(x, _first_order(m, x, b), game.upper_bound)[0], b
    return _norm_inf(_first_order(m, x, b)), b


def ir_check(game, eq: EquilibriumResult, tol: float = 1e-8) -> IrReport:
    """Per-player participation check at a verified equilibrium.

    Re-validates the equilibrium residual of F(x) = Mx - b (box-aware when the game carries
    an upper bound) and raises NotAnEquilibrium beyond ``tol*||b||_inf``; a player is
    rational at a cost of at most ``tol*||b||_inf**2`` (``games._slack``).  All costs come
    from one aggregate ``G @ x`` and equal ``cost_lq`` player by player, for either game
    family.  DimensionMismatch: ``eq`` is for another number of players; ValueError unless
    0 < tol < inf.
    """
    if len(eq.x) != game.n:
        raise DimensionMismatch(f"equilibrium has {len(eq.x)} players, the game {game.n}")
    if isinstance(game, PublicGoodsGame) and eq.kind not in PG_KINDS:
        raise ValueError(f"public-goods game cannot validate kind {eq.kind!r}")
    if isinstance(game, NetworkGame) and eq.kind.startswith("pg-"):
        raise ValueError(f"linear-quadratic game cannot validate kind {eq.kind!r}")
    residual, b = _residual_for(game, eq)
    bound, cap = _slack(tol, b), _slack(tol, b, 2)
    if residual > bound:
        raise NotAnEquilibrium(f"stationarity residual {residual:.3e} exceeds tolerance {bound:g}")
    costs = _costs(game, eq.x.x)
    return IrReport(
        players=tuple(
            PlayerRationality(i + 1, float(c), 0.0, bool(c <= cap)) for i, c in enumerate(costs)
        )
    )
