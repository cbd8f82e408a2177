"""Individual-rationality reports."""

import numpy as np
import pytest

from netgames import (
    AdjacencyMatrix,
    DimensionMismatch,
    EquilibriumResult,
    ActionProfile,
    GammaFamily,
    NetworkGame,
    NotAnEquilibrium,
    PublicGoodsGame,
    cost_lq,
    four_player_symmetric_example,
    ir_check,
    solve_ne_interior,
    solve_ne_pg,
    solve_social_interior,
    solve_social_pg,
    solve_vi,
)
from netgames.games import _slack

EX3_G = np.array(
    [
        [0.0, -2.0, -0.273107],
        [1.18042, 0.0, 2.0],
        [-3.0, 37.229, 0.0],
    ]
)
EX3_A = np.array([1.0, 2.0, 3.0])


def lq(g, a):
    return NetworkGame(AdjacencyMatrix(g), np.asarray(a, dtype=float))


def test_decoupled_two_players():
    game = lq(np.zeros((2, 2)), np.array([1.0, 1.0]))
    report = ir_check(game, solve_ne_interior(game))
    assert [p.cost_at_eq for p in report.players] == pytest.approx([-0.5, -0.5], abs=1e-12)
    assert report.all_rational
    assert all(p.cost_opt_out == 0.0 for p in report.players)


def test_three_player_example_costs():
    # oracle: -0.5 * x_i^2 on the solved equilibrium of the printed matrix
    game = lq(EX3_G, EX3_A)
    eq = solve_ne_interior(game)
    report = ir_check(game, eq)
    expected = -0.5 * eq.x.x**2
    np.testing.assert_allclose(
        [p.cost_at_eq for p in report.players], expected, rtol=0, atol=1e-9
    )
    np.testing.assert_allclose(
        expected, [-0.9864, -0.01838, -0.002846], rtol=0, atol=1e-3
    )
    assert report.all_rational


def test_boundary_equilibrium_zero_cost_is_rational():
    game = lq(np.zeros((2, 2)), np.array([-1.0, 2.0]))
    eq = solve_vi(game)
    report = ir_check(game, eq)
    assert report.players[0].cost_at_eq == 0.0
    assert report.all_rational


def test_not_an_equilibrium_rejected():
    game = lq(np.zeros((2, 2)), np.array([1.0, 1.0]))
    fake = EquilibriumResult(
        x=ActionProfile(np.array([0.7, 0.2])),
        kind="interior-ne",
        stationarity_residual=0.0,
        complementarity_residual=0.0,
        interior=True,
    )
    with pytest.raises(NotAnEquilibrium):
        ir_check(game, fake)


def test_social_kind_validated_with_social_map():
    game = lq(np.array([[0.0, 0.3], [0.2, 0.0]]), np.array([1.0, 1.0]))
    eq = solve_social_interior(game)
    report = ir_check(game, eq)
    assert len(report.players) == 2  # no interior-NE identity demanded here


def test_social_optimum_can_be_irrational():
    # strong asymmetric complementarities make player 1 subsidize the others
    game = lq(np.array([[0.0, 0.0], [-1.8, 0.0]]), np.array([0.05, 2.0]))
    eq = solve_social_interior(game)
    report = ir_check(game, eq)
    assert not report.all_rational


def test_pg_equilibrium_rational():
    pg = PublicGoodsGame(
        AdjacencyMatrix(np.array([[0.0, 0.2], [0.1, 0.0]])),
        np.array([1.0, 2.0]),
        GammaFamily.affine(np.array([1.0, 1.0]), np.array([0.5, 0.5])),
    )
    report = ir_check(pg, solve_ne_pg(pg))
    assert report.all_rational
    for p in report.players:
        assert p.cost_at_eq <= 0.0


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_tol_must_be_positive_and_finite(tol):
    # x = 5 has residual 4 on the four-player design: nan and inf used to accept it
    game = four_player_symmetric_example()
    eq = EquilibriumResult(ActionProfile(np.full(4, 5.0)), "interior-ne", 4.0, 0.0, True)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        ir_check(game, eq, tol=tol)


def test_kind_game_mismatch_rejected():
    game = lq(np.zeros((2, 2)), np.ones(2))
    eq = solve_ne_interior(game)
    pg = PublicGoodsGame(
        AdjacencyMatrix(np.zeros((2, 2))),
        np.zeros(2),
        GammaFamily.affine(np.ones(2), np.zeros(2)),
    )
    with pytest.raises(ValueError):
        ir_check(pg, eq)


def test_profile_of_another_size_is_a_typed_error():
    # before this check, the residual's matmul raised numpy's own ValueError
    eq = solve_ne_interior(lq(np.zeros((2, 2)), np.ones(2)))
    with pytest.raises(DimensionMismatch, match="2 players, the game 3"):
        ir_check(lq(EX3_G, EX3_A), eq)


def test_costs_equal_per_player_cost_functions():
    # reference: the per-player public cost functions, one call each
    rng = np.random.default_rng(29)
    g = rng.normal(size=(12, 12)) * 0.1
    np.fill_diagonal(g, 0.0)
    game = lq(g, rng.uniform(0.5, 2.0, 12))
    eq = solve_ne_interior(game)
    report = ir_check(game, eq)
    assert [p.cost_at_eq for p in report.players] == [
        cost_lq(game, i, eq.x) for i in range(1, 13)
    ]
    pg = PublicGoodsGame(
        AdjacencyMatrix(np.array([[0.0, 0.2], [0.1, 0.0]])),
        np.array([1.0, 2.0]),
        GammaFamily.affine([1.0, 0.5], [0.3, 0.4]),
    )
    eq = solve_ne_pg(pg, tol=1e-12)
    report = ir_check(pg, eq)
    assert [p.cost_at_eq for p in report.players] == [cost_lq(pg, i, eq.x) for i in (1, 2)]


def test_box_equilibrium_with_binding_bounds():
    # both bounds bind: F(x) = x + Gx - a = (-1.45, -1.45) < 0 at x = ub
    game = NetworkGame(
        AdjacencyMatrix(np.array([[0.0, 0.1], [0.1, 0.0]])),
        np.array([2.0, 2.0]),
        upper_bound=np.array([0.5, 0.5]),
    )
    eq = solve_vi(game)
    np.testing.assert_allclose(eq.x.x, [0.5, 0.5], rtol=0, atol=1e-12)
    report = ir_check(game, eq)
    # cost = 0.5*0.25 + (0.05 - 2)*0.5 = -0.85, not the interior -0.125
    assert [p.cost_at_eq for p in report.players] == pytest.approx([-0.85, -0.85], abs=1e-12)
    assert report.all_rational


def test_pg_social_result_revalidated_from_the_game():
    pg = PublicGoodsGame(
        AdjacencyMatrix(np.array([[0.0, 0.2], [0.1, 0.0]])),
        np.array([1.0, 2.0]),
        GammaFamily.affine(np.array([1.0, 1.0]), np.array([0.5, 0.5])),
    )
    made_up = EquilibriumResult(
        x=ActionProfile(np.array([5.0, -3.0])),
        kind="pg-social",
        stationarity_residual=0.0,
        complementarity_residual=0.0,
        interior=False,
    )
    with pytest.raises(NotAnEquilibrium):
        ir_check(pg, made_up)
    eq = solve_social_pg(pg)
    report = ir_check(pg, eq)
    assert len(report.players) == 2


def test_cost_margin_past_the_largest_double_admits_every_cost():
    # ||a||_inf^2 ~ 4e320: the margin tol*||a||_inf^2 is inf, so every representable cost
    # passes it; it is formed as (tol*||a||)*||a||, finite wherever the margin itself is
    game = lq(np.array([[0.0, 1e10], [-1e10, 0.0]]), [1e160, 2e160])
    eq = solve_ne_interior(game)
    np.testing.assert_allclose(eq.x.x, np.linalg.solve(np.eye(2) + game.adjacency.g, game.a),
                               rtol=1e-12)
    report = ir_check(game, eq)
    costs = [p.cost_at_eq for p in report.players]
    assert costs == [cost_lq(game, i, eq.x) for i in (1, 2)]
    np.testing.assert_allclose(costs, [-2.0e300, -5.0e299], rtol=1e-5)
    assert report.all_rational
    assert _slack(1e-8, game.a, 2) == np.inf
    assert _slack(1e-8, np.array([1e155]), 2) == pytest.approx(1e302, rel=1e-15)
