"""Costs, aggregates, gradients, and the demand family."""

import numpy as np
import pytest

from netgames import (
    ActionProfile,
    AdjacencyMatrix,
    DimensionMismatch,
    GammaFamily,
    NetworkGame,
    PublicGoodsGame,
    aggregate,
    cost_lq,
    cost_pg,
    grad_F,
    grad_W,
    social_cost,
    social_cost_pg,
)

# Values printed in the three-player worked example: fixed entries
# g12=-2, g31=-3, g23=2 and recovered g21, g13, g32 with a=(1,2,3).
EX3_G = np.array(
    [
        [0.0, -2.0, -0.273107],
        [1.18042, 0.0, 2.0],
        [-3.0, 37.229, 0.0],
    ]
)
EX3_A = np.array([1.0, 2.0, 3.0])
EX3_X = np.array([1.4046, 0.19173, 0.07544])


def lq(g, a) -> NetworkGame:
    return NetworkGame(AdjacencyMatrix(g), np.asarray(a, dtype=float))


class TestAdjacency:
    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            AdjacencyMatrix(np.array([[0.1, 0.0], [0.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            AdjacencyMatrix(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        g = np.zeros((2, 2))
        g[0, 1] = np.inf
        with pytest.raises(ValueError):
            AdjacencyMatrix(g)

    def test_immutable(self):
        adj = AdjacencyMatrix(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            adj.g[0, 1] = 1.0


class TestAggregate:
    def test_zero_matrix(self):
        game = lq(np.zeros((4, 4)), np.ones(4))
        x = np.array([3.0, -1.0, 0.5, 2.0])
        np.testing.assert_array_equal(aggregate(game, x), np.zeros(4))

    def test_three_player_example(self):
        # oracle: the three dot products written out as scalar sums
        x1, x2, x3 = EX3_X
        z_oracle = np.array(
            [
                -2.0 * x2 + (-0.273107) * x3,
                1.18042 * x1 + 2.0 * x3,
                -3.0 * x1 + 37.229 * x2,
            ]
        )
        game = lq(EX3_G, EX3_A)
        np.testing.assert_allclose(aggregate(game, EX3_X), z_oracle, rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            z_oracle, [-0.4041, 1.8089, 2.9241], rtol=0, atol=5e-4
        )

    def test_two_player_swap(self):
        game = lq(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))
        np.testing.assert_array_equal(aggregate(game, np.array([3.0, 5.0])), [5.0, 3.0])

    def test_dimension_mismatch(self):
        game = lq(np.zeros((3, 3)), np.zeros(3))
        with pytest.raises(DimensionMismatch):
            aggregate(game, np.ones(4))

    def test_accepts_action_profile(self):
        game = lq(np.zeros((2, 2)), np.zeros(2))
        np.testing.assert_array_equal(
            aggregate(game, ActionProfile(np.array([1.0, 2.0]))), np.zeros(2)
        )


class TestCostLq:
    def test_zero_action_costs_nothing(self):
        game = lq(EX3_G, EX3_A)
        x = np.array([0.0, 5.0, -2.0])
        assert cost_lq(game, 1, x) == 0.0

    def test_single_player_hand_value(self):
        game = lq(np.zeros((1, 1)), np.array([2.0]))
        assert cost_lq(game, 1, np.array([1.0])) == pytest.approx(-1.5, abs=1e-15)

    def test_interior_ne_identity(self):
        # at an interior NE the cost collapses to -0.5*x_i^2
        from netgames import solve_ne_interior

        rng = np.random.default_rng(11)
        g = rng.normal(size=(4, 4)) * 0.1
        np.fill_diagonal(g, 0.0)
        game = lq(g, rng.uniform(0.5, 2.0, 4))
        eq = solve_ne_interior(game)
        assert eq.interior
        for i in range(1, 5):
            assert cost_lq(game, i, eq.x) == pytest.approx(
                -0.5 * eq.x.x[i - 1] ** 2, abs=1e-12
            )

    def test_index_out_of_range(self):
        game = lq(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(IndexError):
            cost_lq(game, 0, np.zeros(2))
        with pytest.raises(IndexError):
            cost_lq(game, 3, np.zeros(2))


class TestSocialCost:
    def test_zero_profile(self):
        game = lq(EX3_G, EX3_A)
        assert social_cost(game, np.zeros(3)) == 0.0

    def test_decoupled_quadratics(self):
        a = np.array([1.0, -0.5, 2.0])
        game = lq(np.zeros((3, 3)), a)
        assert social_cost(game, a) == pytest.approx(-0.5 * float(a @ a), abs=1e-14)

    def test_three_player_example_value(self):
        # oracle: direct per-player evaluation, then the -0.5*||x||^2 identity
        game = lq(EX3_G, EX3_A)
        direct = sum(cost_lq(game, i, EX3_X) for i in (1, 2, 3))
        assert social_cost(game, EX3_X) == pytest.approx(direct, abs=1e-13)
        # printed values are rounded, so the identity holds only loosely
        assert social_cost(game, EX3_X) == pytest.approx(-1.0077, abs=2e-3)

    def test_matches_per_player_sum_randomly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = rng.integers(1, 7)
            g = rng.normal(size=(n, n))
            np.fill_diagonal(g, 0.0)
            game = lq(g, rng.normal(size=n))
            x = rng.normal(size=n)
            per_player = sum(cost_lq(game, i, x) for i in range(1, n + 1))
            scale = max(1.0, abs(per_player))
            assert abs(social_cost(game, x) - per_player) <= 64 * np.finfo(float).eps * scale


class TestGamma:
    def test_affine_derivative_is_d(self):
        rng = np.random.default_rng(17)
        c = rng.normal(size=6)
        d = rng.normal(size=6)
        fam = GammaFamily.affine(c, d)
        for _ in range(100):
            w = rng.normal(size=6) * 10
            h = 1e-5
            fd = (fam.value(w + h) - fam.value(w - h)) / (2 * h)
            np.testing.assert_allclose(fd, d, rtol=0, atol=1e-6)

    def test_rejects_coefficients_that_are_not_equal_length_vectors(self):
        for c, d in (([1.0, 2.0], [0.5]), ([[1.0, 2.0]], [[0.5, 0.5]]), (1.0, 0.5)):
            with pytest.raises(DimensionMismatch):
                GammaFamily.affine(c, d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_coefficients(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GammaFamily.affine([1.0, bad], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            GammaFamily.affine([1.0, 1.0], [0.5, bad])

    def test_value_and_game_check_the_player_count(self):
        fam = GammaFamily.affine([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(DimensionMismatch):
            fam.value(np.zeros(3))
        with pytest.raises(DimensionMismatch):
            PublicGoodsGame(AdjacencyMatrix(np.zeros((3, 3))), np.zeros(3), fam)

    def test_coefficients_are_read_only_copies(self):
        c, d = np.array([1.0, 2.0]), np.array([0.5, 0.5])
        fam = GammaFamily.affine(c, d)
        c[0] = d[0] = 9.0
        assert fam.c.tolist() == [1.0, 2.0] and fam.d.tolist() == [0.5, 0.5]
        for v in (fam.c, fam.d):
            with pytest.raises(ValueError):
                v[0] = 0.0


class TestCostPg:
    def pg_game(self, g, theta, c, d):
        return PublicGoodsGame(
            AdjacencyMatrix(g), np.asarray(theta, dtype=float), GammaFamily.affine(c, d)
        )

    def test_zero_profile(self):
        game = self.pg_game(np.zeros((2, 2)), [1.0, 1.0], [0.5, 0.5], [0.2, 0.2])
        assert social_cost_pg(game, np.zeros(2)) == 0.0

    def test_constant_gamma_reduces_to_lq(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = rng.integers(1, 6)
            g = rng.normal(size=(n, n))
            np.fill_diagonal(g, 0.0)
            c = rng.normal(size=n)
            pg = self.pg_game(g, rng.normal(size=n), c, np.zeros(n))
            game = lq(g, c)
            x = rng.normal(size=n)
            for i in range(1, n + 1):
                assert cost_pg(pg, i, x) == cost_lq(game, i, x)

    def test_single_player_hand_value(self):
        # z=0, gamma = 0.5 + 0.25*(1+0) = 0.75, cost = 0.5 - 0.75
        game = self.pg_game(np.zeros((1, 1)), [1.0], [0.5], [0.25])
        assert cost_pg(game, 1, np.array([1.0])) == pytest.approx(-0.25, abs=1e-15)
        assert social_cost_pg(game, np.array([1.0])) == pytest.approx(-0.25, abs=1e-15)


class TestGradients:
    def test_zero_matrix(self):
        game = lq(np.zeros((3, 3)), np.array([1.0, 2.0, 3.0]))
        x = np.array([0.5, 0.5, 0.5])
        np.testing.assert_array_equal(grad_F(game, x), x - game.a)
        np.testing.assert_array_equal(grad_W(game, x), x - game.a)

    def test_difference_is_gtx(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = rng.integers(1, 8)
            g = rng.normal(size=(n, n))
            np.fill_diagonal(g, 0.0)
            game = lq(g, rng.normal(size=n))
            x = rng.normal(size=n)
            np.testing.assert_allclose(
                grad_W(game, x) - grad_F(game, x), g.T @ x, rtol=0, atol=1e-12
            )

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        h = 1e-6
        for _ in range(20):
            n = rng.integers(1, 6)
            g = rng.normal(size=(n, n))
            np.fill_diagonal(g, 0.0)
            game = lq(g, rng.normal(size=n))
            x = rng.normal(size=n)
            fd_f = np.empty(n)
            fd_w = np.empty(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd_f[i] = (cost_lq(game, i + 1, x + e) - cost_lq(game, i + 1, x - e)) / (2 * h)
                fd_w[i] = (social_cost(game, x + e) - social_cost(game, x - e)) / (2 * h)
            np.testing.assert_allclose(grad_F(game, x), fd_f, rtol=0, atol=1e-6)
            np.testing.assert_allclose(grad_W(game, x), fd_w, rtol=0, atol=1e-6)

    def test_gradient_zero_at_interior_ne(self):
        from netgames import solve_ne_interior

        game = lq(np.array([[0.0, 0.5], [0.0, 0.0]]), np.array([1.0, 1.0]))
        eq = solve_ne_interior(game)
        np.testing.assert_allclose(grad_F(game, eq.x), np.zeros(2), rtol=0, atol=1e-10)
