"""One first-order map per solution concept: ``games._system`` and its readers.

``population`` is a seeded set of LQ games (some boxed) and public-goods
games with n <= 12, small enough in norm that every solver succeeds on it.
"""

import numpy as np
import pytest

from netgames import (
    AdjacencyMatrix,
    GammaFamily,
    MaxItersExceeded,
    NetworkGame,
    PublicGoodsGame,
    solve_ne_interior,
    solve_ne_pg,
    solve_social_interior,
    solve_social_pg,
    solve_vi,
)
from netgames.equilibrium import _vi_residual
from netgames.games import _system
from netgames.rationality import _residual_for


def population(count=60, seed=7):
    """(LQ game, public-goods game) pairs.

    sigma_max(G) <= 0.3 makes I+G and I+G+G^T positive definite, so every
    constrained problem is a P-matrix LCP; zeroed entries include -0.0.
    """
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = int(rng.integers(1, 13))
        g = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.6)
        np.fill_diagonal(g, 0.0)
        sigma = np.linalg.svd(g, compute_uv=False)[0] if n > 1 else 0.0
        if sigma > 0:
            g *= rng.uniform(0.05, 0.3) / sigma
        ub = rng.uniform(0.2, 2.0, n) if k % 3 == 0 else None
        lq = NetworkGame(AdjacencyMatrix(g), rng.uniform(-1.0, 2.0, n), ub)
        theta = rng.uniform(0.0, 1.0, n)
        gamma = GammaFamily.affine(rng.uniform(-0.5, 1.5, n), rng.uniform(-0.5, 0.9, n))
        out.append((lq, PublicGoodsGame(AdjacencyMatrix(g), theta, gamma)))
    return out


POPULATION = population()


def test_system_equals_each_solvers_former_construction():
    for lq, pg in POPULATION:
        g, eye = lq.adjacency.g, np.eye(lq.n)
        m, b = _system(lq, "ne")
        assert np.array_equal(m, eye + g) and np.array_equal(m, eye + g + 0.0)
        assert np.array_equal(b, lq.a)
        m, b = _system(lq, "social")
        assert np.array_equal(m, eye + g + g.T) and np.array_equal(b, lq.a)
        v = 1.0 - pg.gamma.d
        pg_b = pg.gamma.c + pg.gamma.d * pg.theta
        m, b = _system(pg, "ne")
        assert np.array_equal(m, eye + v[:, None] * g) and np.array_equal(b, pg_b)
        m, b = _system(pg, "social")
        assert np.array_equal(m, eye + v[:, None] * (g + g.T)) and np.array_equal(b, pg_b)


def test_system_rejects_unknown_concept():
    lq, _ = POPULATION[0]
    with pytest.raises(ValueError, match="which"):
        _system(lq, "both")


def solutions(lq, pg):
    yield lq, solve_ne_interior(lq)
    yield lq, solve_social_interior(lq)
    yield lq, solve_vi(lq, "ne")
    yield lq, solve_vi(lq, "social")
    if lq.upper_bound is not None:  # the same game on the orthant
        orthant = NetworkGame(lq.adjacency, lq.a)
        yield orthant, solve_vi(orthant, "ne")
        yield orthant, solve_vi(orthant, "social")
    yield pg, solve_ne_pg(pg)
    yield pg, solve_social_pg(pg)


def test_revalidation_reproduces_every_solvers_residual_exactly():
    kinds = set()
    for pair in POPULATION:
        for game, eq in solutions(*pair):
            assert _residual_for(game, eq)[0] == eq.stationarity_residual, eq.kind
            kinds.add((eq.kind, getattr(game, "upper_bound", None) is not None))
    assert kinds == {
        ("interior-ne", False), ("interior-ne", True),
        ("interior-social", False), ("interior-social", True),
        ("constrained-ne", False), ("constrained-ne", True),
        ("constrained-social", False), ("constrained-social", True),
        ("pg-ne", False), ("pg-social", False),
    }


def test_vi_residual_by_hand():
    # box: player 2 is inside [0, 2] with F_2 < 0, so both residuals read |F_2| = 1
    ub = np.array([2.0, 2.0, 2.0])
    assert _vi_residual(np.array([0.0, 1.0, 2.0]), np.array([1.0, -1.0, -3.0]), ub) == (1.0, 1.0)
    # orthant: x_2 * F_2 = -0.5 and x_2 - max(x_2 - F_2, 0) = -0.5
    assert _vi_residual(np.array([0.0, 1.0]), np.array([2.0, -0.5]), None) == (0.5, 0.5)
    # the diagnostics of a capped run are the same kernel at the point it stopped
    game = NetworkGame(AdjacencyMatrix(np.zeros((2, 2))), np.ones(2), np.array([0.5, 3.0]))
    with pytest.raises(MaxItersExceeded) as info:
        solve_vi(game, max_iters=1, x0=np.array([0.2, 2.0]))
    x = info.value.best_x.x
    m, b = _system(game, "ne")
    res, comp = _vi_residual(x, m @ x - b, game.upper_bound)
    assert (info.value.stationarity_residual, info.value.complementarity_residual) == (res, comp)
    assert res > 0.0
