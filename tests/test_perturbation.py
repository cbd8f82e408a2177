"""Robustness sweeps and empirical Lipschitz checks."""

import io

import numpy as np
import pytest
from lcp_oracle import box_lcp_solutions

from netgames import (
    AdjacencyMatrix,
    InsufficientData,
    NetworkGame,
    SweepConfig,
    four_player_symmetric_example,
    lipschitz_check,
    solve_ne_interior,
    sweep,
)
from netgames.perturbation import write_csv

# Perturbation direction used in the 4-player robustness example:
# delta at positions (1,3), (1,4), (3,1), (4,1).
PATTERN4 = np.zeros((4, 4))
PATTERN4[0, 2] = PATTERN4[0, 3] = PATTERN4[2, 0] = PATTERN4[3, 0] = 1.0


def lq(g, a):
    return NetworkGame(AdjacencyMatrix(g), np.asarray(a, dtype=float))


def four_node_config(lo=-0.6, hi=0.6, steps=121, solver="interior"):
    return SweepConfig(
        base_game=four_player_symmetric_example(),
        delta_pattern=PATTERN4,
        delta_grid=np.linspace(lo, hi, steps),
        solver=solver,
    )


class TestSweep:
    def test_zero_pattern_constant_cost(self):
        game = lq(np.array([[0.0, 0.2], [0.1, 0.0]]), np.array([1.0, 1.0]))
        config = SweepConfig(
            base_game=game,
            delta_pattern=np.zeros((2, 2)),
            delta_grid=np.linspace(-1, 1, 11),
        )
        report = sweep(config)
        costs = {r.social_cost for r in report.rows}
        assert len(costs) == 1
        assert report.lipschitz_cost == 0.0
        assert report.lipschitz_x == 0.0

    def test_single_point_grid_equals_plain_solve(self):
        game = four_player_symmetric_example()
        config = SweepConfig(
            base_game=game, delta_pattern=PATTERN4, delta_grid=np.array([0.0])
        )
        report = sweep(config)
        eq = solve_ne_interior(game)
        assert len(report.rows) == 1
        np.testing.assert_array_equal(report.rows[0].x_star, eq.x.x)

    def test_zero_delta_row_bit_for_bit(self):
        report = sweep(four_node_config(-0.6, 0.6, 121))
        eq = solve_ne_interior(four_player_symmetric_example())
        (zero_row,) = [r for r in report.rows if r.delta == 0.0]
        np.testing.assert_array_equal(zero_row.x_star, eq.x.x)

    def test_four_node_qualitative_shape(self):
        # continuity on the feasible plateau, infeasible regimes at both ends
        report = sweep(four_node_config())
        feasible = np.array([r.feasible for r in report.rows])
        assert not feasible[0] and not feasible[-1]
        assert feasible.sum() > 60
        interior = np.flatnonzero(feasible)
        assert np.all(np.diff(interior) == 1)  # one contiguous feasible window

    def test_feasible_flips_only_at_sign_crossings(self):
        report = sweep(four_node_config())
        for prev, cur in zip(report.rows, report.rows[1:]):
            if prev.singular or cur.singular:
                continue
            if prev.feasible != cur.feasible:
                assert min(prev.min_x, cur.min_x) < 0 <= max(prev.min_x, cur.min_x) + 1e-9

    def test_refinement_shrinks_jumps_under_positive_margin(self):
        # restrict to a window where the spectral continuity margin stays positive
        def max_jump(steps):
            report = sweep(four_node_config(-0.45, 0.35, steps))
            assert all(r.spectral_margin > 0 for r in report.rows)
            jump = 0.0
            for prev, cur in zip(report.rows, report.rows[1:]):
                if prev.feasible and cur.feasible:
                    jump = max(jump, abs(cur.social_cost - prev.social_cost))
            return jump

        coarse, fine = max_jump(81), max_jump(801)
        assert coarse >= 5 * fine

    def test_singular_grid_point_marked_not_fatal(self):
        # delta = -1 makes row/column 1 cancel the identity: craft a singular point
        g = np.zeros((2, 2))
        game = lq(g, np.array([1.0, 1.0]))
        pattern = np.array([[0.0, 1.0], [1.0, 0.0]])
        config = SweepConfig(
            base_game=game, delta_pattern=pattern, delta_grid=np.array([-1.0, 0.0, 0.5])
        )
        report = sweep(config)
        assert report.rows[0].singular and not report.rows[0].feasible
        assert not report.rows[1].singular
        assert np.isnan(report.rows[0].social_cost)

    def test_failed_points_get_a_status_not_an_abort(self):
        # below delta = 0.5 the off-diagonal entries are <= -1.1: I+G is not a
        # P-matrix and the LCP has no solution, so pivoting cannot proceed there
        config = SweepConfig(
            base_game=lq(np.array([[0.0, -1.5], [-1.5, 0.0]]), [1.0, 1.0]),
            delta_pattern=np.array([[0.0, 1.0], [1.0, 0.0]]),
            delta_grid=np.linspace(-0.6, 0.6, 7),
            solver="constrained",
        )
        rows = sweep(config).rows
        assert [r.status for r in rows] == ["no-convergence"] * 6 + ["ok"]
        for r in rows[:6]:
            assert r.x_star is None and not r.feasible and not r.singular
            assert np.isnan(r.social_cost)
        np.testing.assert_allclose(rows[6].x_star, [10.0, 10.0], rtol=1e-12)
        singular = sweep(SweepConfig(lq(np.zeros((2, 2)), [1.0, 1.0]), config.delta_pattern, [-1.0]))
        assert singular.rows[0].status == "singular" and singular.rows[0].singular

    def test_bounded_game_reports_box_radius(self):
        game = NetworkGame(
            AdjacencyMatrix(np.zeros((2, 2))),
            np.array([1.0, 1.0]),
            upper_bound=np.array([3.0, 4.0]),
        )
        config = SweepConfig(
            base_game=game,
            delta_pattern=np.array([[0.0, 1.0], [0.0, 0.0]]),
            delta_grid=np.linspace(-0.2, 0.2, 5),
            solver="constrained",
        )
        report = sweep(config)
        assert report.delta_cap == pytest.approx(5.0, abs=1e-12)

    def test_default_grid_is_121_points(self):
        config = SweepConfig(
            base_game=four_player_symmetric_example(), delta_pattern=PATTERN4
        )
        assert config.delta_grid.shape == (121,)
        assert config.delta_grid[0] == -0.6 and config.delta_grid[-1] == 0.6

    def test_constrained_rows_always_feasible(self):
        report = sweep(four_node_config(-0.3, 0.55, 18, solver="constrained"))
        assert all(r.feasible for r in report.rows)
        assert all(np.min(r.x_star) >= 0 for r in report.rows)
        assert np.isfinite(report.lipschitz_cost)

    def test_constrained_readme_sweep_matches_enumeration(self):
        # the whole README grid, down to delta = -0.6 where I+G is barely monotone
        # (its symmetric part has smallest eigenvalue 0.03)
        report = sweep(four_node_config(solver="constrained"))
        base = four_player_symmetric_example()
        a = base.a
        assert len(report.rows) == 121
        for row in report.rows:
            assert row.feasible and not row.singular
            m = np.eye(4) + base.adjacency.g + row.delta * PATTERN4
            x = row.x_star
            assert np.max(np.abs(x - np.maximum(x - (m @ x - a), 0.0))) <= 1e-10
            expected = box_lcp_solutions(m, a)
            assert len(expected) >= 1
            assert np.max(np.abs(expected - x)) <= 1e-8

    def test_config_validation(self):
        game = four_player_symmetric_example()
        with pytest.raises(ValueError):
            SweepConfig(base_game=game, delta_pattern=np.eye(4), delta_grid=np.array([0.0]))
        with pytest.raises(ValueError):
            SweepConfig(
                base_game=game, delta_pattern=PATTERN4, delta_grid=np.array([0.0, 0.0])
            )
        with pytest.raises(ValueError):
            SweepConfig(
                base_game=game,
                delta_pattern=PATTERN4,
                delta_grid=np.array([0.0, 1.0]),
                solver="simplex",
            )


class TestLipschitzCheck:
    def test_constant_report_bounded(self):
        game = lq(np.zeros((2, 2)), np.array([1.0, 1.0]))
        config = SweepConfig(
            base_game=game,
            delta_pattern=np.zeros((2, 2)),
            delta_grid=np.linspace(-1, 1, 5),
        )
        check = lipschitz_check(sweep(config), k_cap=1.0)
        assert check.max_ratio == 0.0
        assert check.bounded

    def test_feasible_prefix_self_referential_bound(self):
        report = sweep(four_node_config())
        check = lipschitz_check(report, k_cap=1.0)
        # re-run with a cap 10x above the observed ratio: must be bounded
        k_cap = 10.0 * check.max_ratio / report.delta_cap
        assert lipschitz_check(report, k_cap=k_cap).bounded

    def test_constrained_straddles_boundary_finite(self):
        report = sweep(four_node_config(-0.2, 0.55, 16, solver="constrained"))
        check = lipschitz_check(report, k_cap=1e6)
        assert np.isfinite(check.max_ratio)

    def test_failed_rows_are_infeasible(self):
        # the non-P repro: 6 of its 7 constrained points have no solution
        config = SweepConfig(
            base_game=lq(np.array([[0.0, -1.5], [-1.5, 0.0]]), [1.0, 1.0]),
            delta_pattern=np.array([[0.0, 1.0], [1.0, 0.0]]),
            delta_grid=np.linspace(-0.6, 0.6, 7),
            solver="constrained",
        )
        report = sweep(config)
        assert [r.status for r in report.rows].count("no-convergence") == 6
        assert all(not r.feasible for r in report.rows if r.status != "ok")
        with pytest.raises(InsufficientData):
            lipschitz_check(report, k_cap=1.0)

    def test_insufficient_data(self):
        report = sweep(four_node_config(0.0, 0.01, 2))
        # push both rows out of feasibility by sweeping far past breakdown
        far = sweep(four_node_config(0.55, 0.6, 2))
        assert not any(r.feasible for r in far.rows)
        with pytest.raises(InsufficientData):
            lipschitz_check(far, k_cap=1.0)
        assert lipschitz_check(report, k_cap=1e9).bounded


class TestCsv:
    def test_schema_and_rows(self):
        report = sweep(four_node_config(-0.1, 0.1, 3))
        buf = io.StringIO()
        write_csv(report, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "delta,social_cost,feasible,min_x,spectral_margin,status"
        assert len(lines) == 4
        fields = lines[1].split(",")
        assert fields[2] in ("true", "false")
        assert fields[5] == "ok"
        float(fields[0]), float(fields[1]), float(fields[3]), float(fields[4])
