"""Robustness sweeps and empirical Lipschitz checks."""

import io
import math

import numpy as np
import pytest
from lcp_oracle import box_lcp_solutions
from matrix_oracles import p_matrix_check

from netgames import (
    AdjacencyMatrix,
    InsufficientData,
    NetworkGame,
    NoConvergence,
    SingularSystem,
    SweepConfig,
    cert_continuity,
    four_player_symmetric_example,
    lipschitz_check,
    social_cost,
    solve_ne_interior,
    solve_vi,
    sweep,
)
from netgames import perturbation
from netgames.equilibrium import RCOND_MIN
from netgames.games import TOL_NONNEG
from netgames.perturbation import _BLOCK_ENTRIES, SweepRow, write_csv

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


def reference_sweep_rows(config):
    """Rows of ``sweep(config)`` solved one grid point at a time.

    One game, one ``cert_continuity`` and one solve per point, every
    constrained point pivoted from the origin: the loop ``sweep`` ran before
    it solved blocks of points at once.
    """
    base = config.base_game
    rows = []
    for delta in config.delta_grid:
        g = base.adjacency.g + delta * config.delta_pattern
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
    return rows


def assert_same_rows(config):
    """``sweep(config)`` equals the per-point reference field by field, x bit for bit."""
    got = sweep(config).rows
    assert_rows_equal(got, reference_sweep_rows(config))
    return got


def assert_rows_equal(got, want):
    assert len(got) == len(want)
    numbers = ("delta", "social_cost", "min_x", "spectral_margin", "rowsum_margin")
    for row, ref in zip(got, want):
        assert (row.status, row.feasible) == (ref.status, ref.feasible)
        if ref.x_star is None:
            assert row.x_star is None
        else:
            assert row.x_star.tobytes() == ref.x_star.tobytes()
        # nan equals nan here, every other value must match exactly
        np.testing.assert_array_equal(
            [getattr(row, f) for f in numbers], [getattr(ref, f) for f in numbers]
        )


def non_p_configs(rng, count):
    """Seeded constrained sweeps where I+G is often not a P-matrix; every third is boxed."""
    for trial in range(count):
        n = int(rng.integers(2, 6))
        g = rng.uniform(-1.5, 1.0, (n, n))
        pattern = rng.normal(size=(n, n))
        np.fill_diagonal(g, 0.0)
        np.fill_diagonal(pattern, 0.0)
        ub = rng.uniform(0.5, 3.0, n) if trial % 3 == 0 else None
        game = NetworkGame(AdjacencyMatrix(g), rng.uniform(-0.5, 2.0, n), ub)
        yield SweepConfig(game, pattern, np.linspace(-0.5, 0.5, 21), "constrained")


def reference_lipschitz_check(report, k_cap):
    """``lipschitz_check`` as a loop over adjacent row pairs, as it ran before it
    shared ``sweep``'s ratio helper; returns (bounded, max_ratio)."""
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
        max_ratio = max(max_ratio, perturbation._ratio(num, den))
    if pairs == 0:
        raise InsufficientData("no adjacent feasible pair in the report")
    return max_ratio <= k_cap * report.delta_cap, max_ratio


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


class TestBlockedSweepMatchesReference:
    @pytest.mark.parametrize("steps", [121, 1201])
    def test_readme_grids(self, steps):
        rows = assert_same_rows(four_node_config(steps=steps))
        assert {r.status for r in rows} == {"ok"} and not all(r.feasible for r in rows)

    def test_readme_constrained_grid(self):
        # I+G is a P-matrix on the whole grid, so continuation changes no bit
        assert_same_rows(four_node_config(solver="constrained"))
        assert_same_rows(four_node_config(-0.3, 0.55, 18, solver="constrained"))

    def test_exactly_singular_grid_point(self):
        config = SweepConfig(
            lq(np.zeros((2, 2)), [1.0, 1.0]),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            np.array([-1.0, 0.0, 0.5]),
        )
        rows = assert_same_rows(config)
        assert [r.status for r in rows] == ["singular", "ok", "ok"]

    def test_rcond_below_the_gate(self):
        # det(I+G) = 4e-14 at the middle point: LU succeeds, the rcond gate fails
        config = SweepConfig(
            lq(np.array([[0.0, -1.0], [-1.0, 0.0]]), [1.0, 1.0]),
            np.array([[0.0, 0.0], [1.0, 0.0]]),
            np.array([-0.5, 4e-14, 0.5]),
        )
        m = np.eye(2) + config.base_game.adjacency.g + 4e-14 * config.delta_pattern
        assert 0.0 < 1.0 / np.linalg.cond(m, 1) < RCOND_MIN
        rows = assert_same_rows(config)
        assert [r.status for r in rows] == ["ok", "singular", "ok"]

    def test_box_game(self):
        game = NetworkGame(
            AdjacencyMatrix(np.array([[0.0, 0.3, -0.2], [0.1, 0.0, 0.4], [-0.3, 0.2, 0.0]])),
            np.array([1.0, -0.5, 2.0]),
            upper_bound=np.array([3.0, 4.0, 1.0]),
        )
        config = SweepConfig(game, np.ones((3, 3)) - np.eye(3), np.linspace(-0.5, 0.5, 31))
        assert_same_rows(config)
        assert sweep(config).delta_cap == pytest.approx(np.sqrt(26.0), abs=1e-12)

    def test_seeded_games(self):
        rng = np.random.default_rng(2024)
        infeasible = 0
        for _ in range(50):
            n = int(rng.integers(1, 11))
            g = rng.normal(size=(n, n)) * rng.uniform(0.1, 1.2) / np.sqrt(n)
            pattern = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.5)
            np.fill_diagonal(g, 0.0)
            np.fill_diagonal(pattern, 0.0)
            config = SweepConfig(lq(g, rng.uniform(-0.5, 2.0, n)), pattern, np.linspace(-1, 1, 41))
            infeasible += sum(not r.feasible for r in assert_same_rows(config))
        assert infeasible > 0

    def test_grid_spanning_several_blocks(self):
        rng = np.random.default_rng(120)
        n = 120
        g = rng.normal(size=(n, n)) * (0.3 / np.sqrt(n))
        pattern = rng.normal(size=(n, n)) / np.sqrt(n)
        np.fill_diagonal(g, 0.0)
        np.fill_diagonal(pattern, 0.0)
        grid = np.linspace(-0.5, 0.5, 150)
        assert grid.size > 2 * -(-_BLOCK_ENTRIES // n**2)  # three blocks
        assert_same_rows(SweepConfig(lq(g, rng.uniform(0.2, 2.0, n)), pattern, grid))

    def test_constrained_non_p_rows_solve_the_lcp(self):
        # I+G is not a P-matrix on many rows: an LCP there may have no solution or
        # several, and a row continued from its neighbour may find one the origin misses
        non_p = gained = 0
        for config in non_p_configs(np.random.default_rng(77), 40):
            game, pattern, ub = config.base_game, config.delta_pattern, config.base_game.upper_bound
            want = reference_sweep_rows(config)
            for row, ref in zip(sweep(config).rows, want):
                m = np.eye(game.n) + game.adjacency.g + row.delta * pattern
                non_p += not p_matrix_check(m)
                assert ref.status != "ok" or row.status == "ok"
                if row.status != "ok":
                    assert row.x_star is None and not row.feasible
                    continue
                gained += ref.status != "ok"
                assert row.feasible and row.min_x >= 0.0
                solutions = box_lcp_solutions(m, game.a, ub)
                assert np.min(np.max(np.abs(solutions - row.x_star), axis=1)) <= 1e-8
        assert non_p > 200 and gained > 0

    def test_rows_do_not_depend_on_the_block_length(self, monkeypatch):
        # continuation runs across block boundaries: three points per block change nothing
        configs = list(non_p_configs(np.random.default_rng(78), 10))
        configs.append(four_node_config(steps=31))
        whole = [sweep(config).rows for config in configs]
        for config, rows in zip(configs, whole):
            monkeypatch.setattr(perturbation, "_BLOCK_ENTRIES", 3 * config.base_game.n**2)
            assert_rows_equal(sweep(config).rows, rows)


class TestLipschitzCheck:
    def test_matches_reference_loop(self):
        # interior sweeps with "ok" but infeasible rows, and constrained non-P sweeps
        rng = np.random.default_rng(2025)
        configs = list(non_p_configs(np.random.default_rng(79), 30))
        for _ in range(30):
            n = int(rng.integers(2, 9))
            g = rng.normal(size=(n, n)) * rng.uniform(0.1, 1.2) / np.sqrt(n)
            pattern = rng.normal(size=(n, n))
            np.fill_diagonal(g, 0.0)
            np.fill_diagonal(pattern, 0.0)
            game = lq(g, rng.uniform(-0.5, 2.0, n))
            configs.append(SweepConfig(game, pattern, np.linspace(-1, 1, 41)))
        ok_infeasible = raised = 0
        for config in configs:
            report = sweep(config)
            ok_infeasible += any(r.status == "ok" and not r.feasible for r in report.rows)
            for k_cap in (0.1, 1.0, 10.0):
                try:
                    want = reference_lipschitz_check(report, k_cap)
                except InsufficientData as exc:
                    with pytest.raises(InsufficientData, match=str(exc)):
                        lipschitz_check(report, k_cap)
                    raised += 1
                    continue
                got = lipschitz_check(report, k_cap)
                assert (got.bounded, got.max_ratio.hex()) == (want[0], want[1].hex())
        assert ok_infeasible >= 20 and 0 < raised < 3 * len(configs)

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
