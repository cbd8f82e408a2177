"""Every verdict is scale-free: scaling the data by s scales x by s and changes no boolean.

Scaling a (or c and theta) by s scales every equilibrium, optimum and residual by s and
every cost by s^2, so each verdict is judged against ``tol*||b||_inf`` (costs against
``tol*||b||_inf**2``) and must read the same for s = 10^-12 ... 10^12.
"""

import numpy as np
import pytest

from netgames import (
    AdjacencyMatrix,
    DesignProblem,
    ErConfig,
    GammaFamily,
    InfeasibleDesign,
    NetgamesError,
    NetworkGame,
    PublicGoodsGame,
    SweepConfig,
    check_coincidence,
    coincidence_feasibility_scan,
    design_solve,
    ir_check,
    solve_ne_interior,
    solve_ne_pg,
    solve_social_interior,
    solve_social_pg,
    solve_vi,
    sweep,
    symmetric_design,
)

SCALES = [10.0**k for k in range(-12, 13, 3)]
README_PROBLEM = DesignProblem(
    n=3, a=[1.0, 2.0, 3.0], fixed=((1, 2, -2.0), (3, 1, -3.0), (2, 3, 2.0)),
    free=((2, 1), (1, 3), (3, 2)),
)


def population():
    """Seeded (G, a, theta, d) draws, n = 2..6: a third coincident by ``symmetric_design``
    (with a_1 = 0 exactly at n = 3), the rest random with some negative a; each public-goods
    twin takes the constant d = 0.3 on even draws and d ~ U(0, 0.5) on odd ones."""
    rng = np.random.default_rng(2027)
    games = []
    for k in range(36):
        n = 3 if k % 6 == 0 else int(rng.integers(2, 7))
        theta = rng.uniform(0.0, 1.0, n)
        d = np.full(n, 0.3) if k % 2 == 0 else rng.uniform(0.0, 0.5, n)
        if k % 3 == 0 and n >= 3:
            a = rng.uniform(0.2, 2.0, n)
            a[0] = 0.0 if n == 3 else a[0]
            try:
                games.append((symmetric_design(a, seed=k).adjacency.g, a, theta, d))
                continue
            except InfeasibleDesign:
                pass
        g = rng.uniform(-1.0, 1.0, (n, n)) * (0.6 / n)
        np.fill_diagonal(g, 0.0)
        games.append((g, rng.uniform(-0.3, 2.0, n), theta, d))
    return games


def run_all(g, a, theta, d, s):
    """Every verdict and every solution on the data scaled by s; a typed error is a verdict too."""
    n = len(a)
    game = NetworkGame(AdjacencyMatrix(g), s * a)
    # c = a - d*theta: the twin's right-hand side c + d*theta is a, as in the LQ game
    twin = PublicGoodsGame(AdjacencyMatrix(g), s * theta, GammaFamily(s * (a - d * theta), d))
    pattern = np.ones((n, n)) - np.eye(n)
    calls = {
        "ne": lambda: solve_ne_interior(game),
        "social": lambda: solve_social_interior(game),
        "vi-ne": lambda: solve_vi(game),
        "vi-social": lambda: solve_vi(game, which="social"),
        "pg-ne": lambda: solve_ne_pg(twin),
        "pg-social": lambda: solve_social_pg(twin),
        "coincidence": lambda: check_coincidence(game),
        "pg-coincidence": lambda: check_coincidence(twin),
        "ir-ne": lambda: ir_check(game, solve_vi(game)),
        "ir-social": lambda: ir_check(game, solve_social_interior(game)),
        "ir-pg-social": lambda: ir_check(twin, solve_social_pg(twin)),
        "sweep": lambda: sweep(SweepConfig(game, pattern, np.linspace(-0.6, 0.6, 13))),
    }
    out = {}
    for name, call in calls.items():
        try:
            out[name] = call()
        except NetgamesError as exc:
            out[name] = type(exc).__name__
    return out


def verdict(result):
    """The booleans of a result (a typed error's name stands for itself)."""
    if isinstance(result, str):
        return result
    if hasattr(result, "interior"):
        return result.interior
    if hasattr(result, "holds"):
        return result.holds
    if hasattr(result, "players"):
        return tuple(p.rational for p in result.players)
    return tuple((row.status, row.feasible) for row in result.rows)


def actions(result):
    if isinstance(result, str) or not hasattr(result, "x"):
        return None
    return result.x.x


@pytest.fixture(scope="module")
def at_unit_scale():
    games = population()
    return games, [run_all(*game, 1.0) for game in games]


@pytest.mark.parametrize("s", SCALES)
def test_every_verdict_and_solution_scales_with_the_data(at_unit_scale, s):
    games, base = at_unit_scale
    flags = []
    for game, want in zip(games, base):
        got = run_all(*game, s)
        for name in want:
            assert verdict(got[name]) == verdict(want[name]), (name, game)
            x, x1 = actions(got[name]), actions(want[name])
            if x1 is not None:
                assert np.max(np.abs(x - s * x1)) <= 1e-8 * s * np.max(np.abs(x1))
        flags.append(verdict(want["coincidence"]))
    # the population holds both verdicts
    assert True in flags and False in flags


@pytest.mark.parametrize("s", SCALES)
def test_design_solve_counts_do_not_depend_on_the_scale(s):
    def counts(scale):
        problem = DesignProblem(
            README_PROBLEM.n, scale * README_PROBLEM.a, README_PROBLEM.fixed, README_PROBLEM.free
        )
        run = design_solve(problem, starts=16, seed=0)
        return len(run.solutions), run.converged_starts, run.rejected_negative, run.iterations

    assert counts(s) == counts(1.0)


@pytest.mark.parametrize("s", [1e-12, 1e12])
def test_random_scan_counts_do_not_depend_on_the_scale(s):
    # 11 of the 30 samples coincide at s = 1
    config = ErConfig(n=4, p=0.2, samples=30, seed=3)
    a = np.array([1.0, 0.5, 2.0, 0.0])
    got, want = coincidence_feasibility_scan(config, s * a), coincidence_feasibility_scan(config, a)
    assert (got.singular, got.coincident) == (want.singular, want.coincident)
    assert 0 < want.coincident < config.samples
