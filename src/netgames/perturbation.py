"""Robustness sweeps: social cost under adjacency perturbations.

A sweep solves the game along ``G(delta) = G + delta * pattern`` and records
cost, feasibility, and continuity margins per grid point, plus empirical
Lipschitz ratios between adjacent points.  A block of grid points takes one
batched symmetric eigensolve for its margins (``certificates._spectral_norm``)
and, if interior, one stacked ``solve_linear``.
A grid point where the solver fails (a singular system, or no convergence)
is marked by its row's status, never fatal.
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .certificates import _rowsum_norm, _spectral_norm
from .errors import InsufficientData, NoConvergence
from .games import AdjacencyMatrix, NetworkGame, _slack, _social_cost
from .equilibrium import DEFAULT_TOL, _norm_inf, solve_linear, solve_vi

CSV_HEADER = ("delta", "social_cost", "feasible", "min_x", "spectral_margin", "status")
_BLOCK_ENTRIES = 2**20  # of a block's (K, n, n) stack: ceil(2^20 / n^2) points, O(n^2) at large n


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
        if not isinstance(self.base_game, NetworkGame):
            raise ValueError(f"base_game must be a NetworkGame, got {type(self.base_game).__name__}")
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
    """One grid point of a ``sweep``: solution, social cost, feasibility and margins."""

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


def _max_ratio(num: np.ndarray, den: np.ndarray, pairs: np.ndarray) -> float:
    """Largest ``_ratio`` over the adjacent pairs selected by ``pairs``; 0.0 if none is."""
    return max(map(_ratio, num[pairs].tolist(), den[pairs].tolist()), default=0.0)


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``v``, from one dot product as ``np.linalg.norm``."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def sweep(config: SweepConfig) -> SweepReport:
    """Solve the perturbed game at every grid point and assemble the report.

    Interior rows meet the residual target and rcond gate of ``solve_ne_interior`` and
    are infeasible when the un-clamped solution has a component below -DEFAULT_TOL*||a||_inf
    (``games._slack``).  Constrained rows are feasible when they solve; each pivots from the
    basis of the previous "ok" row, else from the origin, so where the LCP has several
    solutions (I+G not a P-matrix) the row reports the one continued from the previous row.
    A failed row ("singular" or "no-convergence") has no solution, is infeasible, and the
    sweep goes on.
    """
    base, pattern, grid = config.base_game, config.delta_pattern, config.delta_grid
    g0, a, n = base.adjacency.g, base.a, base.n
    block = -(-_BLOCK_ENTRIES // n**2)
    starts, parts = [None], []
    for lo in range(0, grid.size, block):
        gs = g0 + grid[lo : lo + block, None, None] * pattern
        if config.solver == "interior":  # M = I + G(delta) as games._system builds it
            xs, ok = solve_linear(np.eye(n) + gs, a, DEFAULT_TOL * (1.0 + _norm_inf(a)))
        else:
            xs, ok = np.full((len(gs), n), np.nan), np.zeros(len(gs), dtype=bool)
            for k, g in enumerate(gs):
                game = NetworkGame(AdjacencyMatrix(g), a, base.upper_bound)
                for x0 in starts:
                    with contextlib.suppress(NoConvergence):
                        xs[k] = solve_vi(game, x0=x0).x.x
                        ok[k], starts = True, [xs[k], None]
                        break
        cost = np.where(ok, _social_cost(gs, a, xs), np.nan)
        parts.append((xs, ok, cost, 1.0 - _spectral_norm(gs), 1.0 - _rowsum_norm(gs)))
    xs, ok, cost, spectral, rowsum = (np.concatenate(part) for part in zip(*parts))
    xs.setflags(write=False)
    min_x = np.min(xs, axis=1)  # nan on a failed row, >= 0 on a solved constrained one
    status = np.where(ok, "ok", "singular" if config.solver == "interior" else "no-convergence")
    columns = (cost, min_x >= -_slack(DEFAULT_TOL, a), min_x, spectral, rowsum, status)
    rows = tuple(
        SweepRow(delta, x if solved else None, *values)
        for delta, x, solved, *values in zip(grid.tolist(), xs, ok, *(c.tolist() for c in columns))
    )

    pattern_norm = float(_spectral_norm(pattern))
    pairs = ok[1:] & ok[:-1]
    dg = np.diff(grid) * pattern_norm
    lip_x = _max_ratio(_norms(np.diff(xs, axis=0)), dg, pairs)
    lip_cost = _max_ratio(np.abs(np.diff(cost)), dg, pairs)
    # action-set radius: exact for a bounded box, else the largest computed solution
    ub = base.upper_bound
    delta_cap = np.linalg.norm(ub) if ub is not None else np.max(_norms(xs[ok]), initial=0.0)
    return SweepReport(rows, lip_x, lip_cost, float(delta_cap), pattern_norm)


@dataclass(frozen=True)
class LipschitzCheck:
    """Worst adjacent cost ratio of a sweep and whether it is within the bound."""

    bounded: bool
    max_ratio: float


def lipschitz_check(report: SweepReport, k_cap: float) -> LipschitzCheck:
    """Empirical cost-Lipschitz test over adjacent feasible rows.

    ``bounded`` compares the worst adjacent cost ratio against
    ``k_cap * delta_cap``; the constant in the underlying bound is
    existential, so k_cap is caller-configured.  Raises ValueError unless
    ``0 < k_cap < inf``, and InsufficientData with fewer than two feasible rows.
    """
    if not 0.0 < k_cap < math.inf:
        raise ValueError(f"k_cap must be positive and finite, got {k_cap}")
    feasible = np.array([r.feasible for r in report.rows])
    if np.sum(feasible) < 2:
        raise InsufficientData("need at least two feasible rows")
    pairs = feasible[1:] & feasible[:-1]
    if not pairs.any():
        raise InsufficientData("no adjacent feasible pair in the report")
    delta, cost = np.array([(r.delta, r.social_cost) for r in report.rows]).T
    max_ratio = _max_ratio(np.abs(np.diff(cost)), np.diff(delta) * report.pattern_norm, pairs)
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
