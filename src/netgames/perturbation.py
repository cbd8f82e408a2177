"""Robustness sweeps: social cost under adjacency perturbations.

A sweep solves the game along ``G(delta) = G + delta * pattern`` and records
cost, feasibility, and continuity margins per grid point, plus empirical
Lipschitz ratios between adjacent points.  A grid point where the solver
fails (a singular system, or no convergence) is marked by its row's status,
never fatal.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .certificates import cert_continuity
from .errors import InsufficientData, NoConvergence, SingularSystem
from .games import TOL_NONNEG, AdjacencyMatrix, NetworkGame, social_cost
from .equilibrium import solve_ne_interior, solve_vi

CSV_HEADER = ("delta", "social_cost", "feasible", "min_x", "spectral_margin", "status")


def default_grid() -> np.ndarray:
    """121 points on [-0.6, 0.6]."""
    return np.linspace(-0.6, 0.6, 121)


@dataclass(frozen=True)
class SweepConfig:
    """Perturbation direction and grid for a base game."""

    base_game: NetworkGame
    delta_pattern: np.ndarray
    delta_grid: np.ndarray = field(default_factory=default_grid)
    solver: str = "interior"

    def __post_init__(self):
        n = self.base_game.n
        pattern = np.array(self.delta_pattern, dtype=float)
        if pattern.shape != (n, n):
            raise ValueError(f"delta_pattern must be {n}x{n}, got {pattern.shape}")
        if not np.all(np.isfinite(pattern)):
            raise ValueError("delta_pattern entries must be finite")
        if np.any(np.diagonal(pattern) != 0.0):
            raise ValueError("delta_pattern diagonal must be zero")
        grid = np.array(self.delta_grid, dtype=float)
        if grid.ndim != 1 or grid.size < 1:
            raise ValueError("delta_grid must be a nonempty vector")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("delta_grid must be strictly increasing")
        if self.solver not in ("interior", "constrained"):
            raise ValueError(f"solver must be 'interior' or 'constrained', got {self.solver!r}")
        pattern.setflags(write=False)
        grid.setflags(write=False)
        object.__setattr__(self, "delta_pattern", pattern)
        object.__setattr__(self, "delta_grid", grid)


@dataclass(frozen=True)
class SweepRow:
    delta: float
    x_star: np.ndarray | None  # None unless status is "ok"
    social_cost: float
    feasible: bool
    min_x: float
    spectral_margin: float
    rowsum_margin: float
    status: str  # "ok", "singular" or "no-convergence"

    @property
    def singular(self) -> bool:
        return self.status == "singular"


@dataclass(frozen=True)
class SweepReport:
    """Per-delta rows plus empirical Lipschitz ratios over adjacent pairs.

    Ratios are taken against ||delta_G||_2 = |d_delta| * sigma_max(pattern);
    ``pattern_norm`` records that scale for downstream checks.
    """

    rows: tuple
    lipschitz_x: float
    lipschitz_cost: float
    delta_cap: float
    pattern_norm: float


def _ratio(num: float, den: float) -> float:
    if num == 0.0:
        return 0.0
    return num / den if den > 0.0 else math.inf


def sweep(config: SweepConfig) -> SweepReport:
    """Solve the perturbed game at every grid point and assemble the report.

    Interior rows are infeasible when the un-clamped solution has a negative
    component; constrained rows are feasible when they solve.  A grid point
    whose solve raises SingularSystem gets status "singular", one whose solve
    raises NoConvergence gets "no-convergence"; that row has no solution, is
    infeasible, and the sweep continues.
    """
    base = config.base_game
    g0 = base.adjacency.g
    pattern_norm = float(np.linalg.svd(config.delta_pattern, compute_uv=False)[0])
    rows = []
    for delta in config.delta_grid:
        g = g0 + delta * config.delta_pattern
        spectral, rowsum = (cert.margin for cert in cert_continuity(g))
        game = NetworkGame(AdjacencyMatrix(g), base.a, base.upper_bound)
        status = "ok"
        try:
            if config.solver == "interior":
                x = solve_ne_interior(game).x.x
                feasible = bool(np.min(x) >= -TOL_NONNEG)
            else:
                x = solve_vi(game, which="ne").x.x
                feasible = True
        except SingularSystem:
            x, feasible, status = None, False, "singular"
        except NoConvergence:
            x, feasible, status = None, False, "no-convergence"
        rows.append(
            SweepRow(
                delta=float(delta),
                x_star=x,
                social_cost=math.nan if x is None else social_cost(game, x),
                feasible=feasible,
                min_x=math.nan if x is None else float(np.min(x)),
                spectral_margin=spectral,
                rowsum_margin=rowsum,
                status=status,
            )
        )

    lip_x = 0.0
    lip_cost = 0.0
    for prev, cur in zip(rows, rows[1:]):
        if prev.x_star is None or cur.x_star is None:
            continue
        dg = (cur.delta - prev.delta) * pattern_norm
        lip_x = max(lip_x, _ratio(float(np.linalg.norm(cur.x_star - prev.x_star)), dg))
        lip_cost = max(lip_cost, _ratio(abs(cur.social_cost - prev.social_cost), dg))
    # action-set radius: exact for a bounded box, else the largest computed solution
    if base.upper_bound is not None:
        delta_cap = float(np.linalg.norm(base.upper_bound))
    else:
        delta_cap = 0.0
        for row in rows:
            if row.x_star is not None:
                delta_cap = max(delta_cap, float(np.linalg.norm(row.x_star)))
    return SweepReport(
        rows=tuple(rows),
        lipschitz_x=lip_x,
        lipschitz_cost=lip_cost,
        delta_cap=delta_cap,
        pattern_norm=pattern_norm,
    )


@dataclass(frozen=True)
class LipschitzCheck:
    bounded: bool
    max_ratio: float


def lipschitz_check(report: SweepReport, k_cap: float) -> LipschitzCheck:
    """Empirical cost-Lipschitz test over adjacent feasible rows.

    ``bounded`` compares the worst adjacent cost ratio against
    ``k_cap * delta_cap``; the constant in the underlying bound is
    existential, so k_cap is caller-configured.  Raises InsufficientData
    with fewer than two feasible rows.
    """
    feasible = [r for r in report.rows if r.feasible]
    if len(feasible) < 2:
        raise InsufficientData("need at least two feasible rows")
    max_ratio = 0.0
    pairs = 0
    for prev, cur in zip(report.rows, report.rows[1:]):
        if not (prev.feasible and cur.feasible):
            continue
        pairs += 1
        num = abs(cur.social_cost - prev.social_cost)
        den = (cur.delta - prev.delta) * report.pattern_norm
        max_ratio = max(max_ratio, _ratio(num, den))
    if pairs == 0:
        raise InsufficientData("no adjacent feasible pair in the report")
    return LipschitzCheck(bounded=max_ratio <= k_cap * report.delta_cap, max_ratio=max_ratio)


def write_csv(report: SweepReport, stream) -> None:
    """Emit `delta,social_cost,feasible,min_x,spectral_margin,status` rows."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in report.rows:
        writer.writerow(
            [
                f"{row.delta:.12g}",
                f"{row.social_cost:.12g}",
                "true" if row.feasible else "false",
                f"{row.min_x:.12g}",
                f"{row.spectral_margin:.12g}",
                row.status,
            ]
        )
