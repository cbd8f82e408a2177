"""Individual-rationality reports.

Opting out costs zero, so participation is rational for a player when their
equilibrium cost is at most zero.  At an interior Nash equilibrium the cost
collapses to -0.5*x_i**2, which is verified as a sanity identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAnEquilibrium
from .games import NetworkGame, PublicGoodsGame, _costs, _system
from .equilibrium import CONSTRAINED_KINDS, INTERIOR_KINDS, NE_KINDS, PG_KINDS, EquilibriumResult
from .equilibrium import _norm_inf, _pg_ne_residual, _vi_residual

IR_TOL = 1e-9


@dataclass(frozen=True)
class PlayerRationality:
    player: int  # 1-based
    cost_at_eq: float
    cost_opt_out: float
    rational: bool


@dataclass(frozen=True)
class IrReport:
    players: tuple

    @property
    def all_rational(self) -> bool:
        return all(p.rational for p in self.players)


def _residual_for(game, eq: EquilibriumResult) -> float:
    """The residual the solver of ``eq.kind`` reports, recomputed from ``game``."""
    x = eq.x.x
    if eq.kind not in INTERIOR_KINDS + CONSTRAINED_KINDS + PG_KINDS:
        raise ValueError(f"unknown equilibrium kind {eq.kind!r}")
    if eq.kind == "pg-ne" and not game.gamma.is_affine:
        return _pg_ne_residual(game, x)
    m, b = _system(game, "ne" if eq.kind in NE_KINDS else "social")
    if eq.kind in CONSTRAINED_KINDS:
        return _vi_residual(x, m @ x - b, game.upper_bound)[0]
    return _norm_inf(m @ x - b)


def ir_check(game, eq: EquilibriumResult, tol: float = 1e-8) -> IrReport:
    """Per-player participation check at a verified equilibrium.

    Re-validates the equilibrium residual (NotAnEquilibrium beyond ``tol``;
    box-aware when the game carries an upper bound) and, for interior Nash
    kinds with no upper bound binding, the closed-form identity
    ``cost_i = -0.5*x_i**2`` to within 1e-9.  All costs come from one
    aggregate ``G @ x`` and equal ``cost_lq``/``cost_pg`` player by player.
    """
    if isinstance(game, PublicGoodsGame) and eq.kind not in PG_KINDS:
        raise ValueError(f"public-goods game cannot validate kind {eq.kind!r}")
    if isinstance(game, NetworkGame) and eq.kind.startswith("pg-"):
        raise ValueError(f"linear-quadratic game cannot validate kind {eq.kind!r}")
    residual = _residual_for(game, eq)
    if residual > tol:
        raise NotAnEquilibrium(
            f"stationarity residual {residual:.3e} exceeds tolerance {tol:g}"
        )
    x = eq.x.x
    costs = _costs(game, x)
    ub = None if isinstance(game, PublicGoodsGame) else game.upper_bound
    if eq.kind in NE_KINDS and eq.interior and (ub is None or np.all(x < ub - tol)):
        violated = np.flatnonzero(np.abs(costs + 0.5 * x**2) > IR_TOL)
        if violated.size:
            i = int(violated[0])
            raise NotAnEquilibrium(
                f"interior identity violated for player {i + 1}: "
                f"cost {costs[i]:.12g} vs -0.5*x^2 {-0.5 * x[i] ** 2:.12g}"
            )
    return IrReport(
        players=tuple(
            PlayerRationality(i + 1, float(c), 0.0, bool(c <= IR_TOL)) for i, c in enumerate(costs)
        )
    )
