"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.  Criterion 8 audits every Nash-kind equilibrium registered by the
earlier criteria, so the module is meant to run as a whole (it still passes
standalone thanks to its own fresh population).
"""

import json
import time

import numpy as np
from matrix_oracles import p_matrix_check, spectral_facts_selftest

from netgames import (
    AdjacencyMatrix,
    DesignProblem,
    NetworkGame,
    SingularSystem,
    ErConfig,
    cert_block_p,
    cert_gershgorin,
    cert_strong_monotone,
    build_gamma_matrix,
    check_coincidence,
    coincidence_feasibility_scan,
    design_solve,
    four_player_symmetric_example,
    ir_check,
    parse_game,
    singularity_stats,
    social_cost,
    solve_ne_interior,
    solve_social_interior,
    solve_vi,
    sweep,
    symmetric_design,
    SweepConfig,
)
from netgames.equilibrium import NE_KINDS

PAPER_X = np.array([1.4046, 0.19173, 0.07544])
PAPER_FREE = {"g21": 1.18042, "g13": -0.273107, "g32": 37.229}
PATTERN4 = np.zeros((4, 4))
PATTERN4[0, 2] = PATTERN4[0, 3] = PATTERN4[2, 0] = PATTERN4[3, 0] = 1.0

# (game, eq) pairs registered by the criteria below; audited by criterion 8.
EQUILIBRIA = []


def register(game, eq):
    if eq.kind in NE_KINDS:
        EQUILIBRIA.append((game, eq))


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def example2_game() -> NetworkGame:
    doc = {
        "n": 3,
        "g": [
            [0.0, -2.0, PAPER_FREE["g13"]],
            [PAPER_FREE["g21"], 0.0, 2.0],
            [-3.0, PAPER_FREE["g32"], 0.0],
        ],
        "a": [1.0, 2.0, 3.0],
    }
    return parse_game(json.dumps(doc))


def example2_problem() -> DesignProblem:
    return DesignProblem(
        n=3,
        a=np.array([1.0, 2.0, 3.0]),
        fixed=((1, 2, -2.0), (3, 1, -3.0), (2, 3, 2.0)),
        free=((2, 1), (1, 3), (3, 2)),
    )


def test_criterion_1_example2_regression():
    game = example2_game()
    t0 = time.perf_counter()
    eq = solve_ne_interior(game)
    check = check_coincidence(game, tol=5e-3)
    elapsed = time.perf_counter() - t0
    register(game, eq)
    x_err = float(np.max(np.abs(eq.x.x - PAPER_X)))
    ok = x_err <= 1e-3 and check.residual_orth <= 5e-3 and elapsed < 0.1
    report(
        1,
        ok,
        f"x within {x_err:.2e} of printed values, orthogonality residual "
        f"{check.residual_orth:.2e} <= 5e-3, runtime {elapsed * 1e3:.1f} ms",
    )


def test_criterion_2_design_recovery():
    def rel(found, want):
        return abs(found - want) / (1.0 + abs(want))

    t0 = time.perf_counter()
    found_paper = False
    any_converged = False
    for seed in range(6):
        run = design_solve(example2_problem(), starts=64, seed=seed)
        any_converged |= any(
            max(s.residual_ne, s.residual_orth) <= 1e-8 for s in run.solutions
        )
        for sol in run.solutions:
            g = sol.adjacency.g
            if (
                rel(g[1, 0], PAPER_FREE["g21"]) <= 1e-3
                and rel(g[0, 2], PAPER_FREE["g13"]) <= 1e-3
                and rel(g[2, 1], PAPER_FREE["g32"]) <= 1e-3
                and np.max(np.abs(sol.x_star.x - PAPER_X)) <= 1e-3
            ):
                found_paper = True
                register(NetworkGame(sol.adjacency, np.array([1.0, 2.0, 3.0])),
                         solve_ne_interior(NetworkGame(sol.adjacency, np.array([1.0, 2.0, 3.0]))))
        if found_paper:
            break
    elapsed = time.perf_counter() - t0
    ok = any_converged and found_paper and elapsed < 10.0
    report(
        2,
        ok,
        f"paper branch recovered (seed sweep ended at {seed}), residuals <= 1e-8, "
        f"runtime {elapsed:.2f} s < 10 s",
    )


def test_criterion_3_two_player_impossibility():
    rng = np.random.default_rng(2024)
    coincidences = 0
    for _ in range(1000):
        g12, g21 = rng.uniform(0.05, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
        a = rng.uniform(0.1, 2.0, 2)
        game = NetworkGame(AdjacencyMatrix(np.array([[0.0, g12], [g21, 0.0]])), a)
        try:
            if check_coincidence(game).holds:
                coincidences += 1
        except SingularSystem:
            pass

    worst_product = 0.0
    for k in range(1000):
        a = rng.uniform(0.1, 2.0, 2)
        problem = DesignProblem(n=2, a=a, fixed=(), free=((1, 2), (2, 1)))
        run = design_solve(problem, starts=8, seed=k)
        for sol in run.solutions:
            g = sol.adjacency.g
            worst_product = max(worst_product, abs(g[0, 1]) * abs(g[1, 0]))
    ok = coincidences == 0 and worst_product <= 1e-6
    report(
        3,
        ok,
        f"0/1000 random two-player games coincide; worst |g12*g21| over 1000 "
        f"design runs = {worst_product:.2e} <= 1e-6",
    )


def test_criterion_4_symmetric_design():
    worst_residual = 0.0
    worst_cost_gap = 0.0
    count = 0
    for seed in range(100):
        n = 4 + seed % 5  # n in {4,...,8}
        a = np.ones(n)
        sol = symmetric_design(a, seed=seed)
        game = NetworkGame(sol.adjacency, a)
        assert np.array_equal(sol.x_star.x, a)  # exact, not approximate
        worst_residual = max(worst_residual, float(np.max(np.abs(sol.adjacency.g @ a))))
        ne_cost = social_cost(game, sol.x_star.x)
        opt = solve_social_interior(game)
        opt_cost = social_cost(game, opt.x.x)
        worst_cost_gap = max(
            worst_cost_gap, abs(ne_cost - opt_cost) / max(1.0, abs(opt_cost))
        )
        register(game, solve_ne_interior(game))
        count += 1
    ok = count == 100 and worst_residual <= 1e-12 and worst_cost_gap <= 1e-12
    report(
        4,
        ok,
        f"100 designs: max ||Ga||_inf = {worst_residual:.2e} <= 1e-12, "
        f"max relative NE/optimum cost gap = {worst_cost_gap:.2e} <= 1e-12",
    )


def _random_certified_games(rng, certificate, count, n_max=6):
    games = []
    while len(games) < count:
        n = int(rng.integers(2, n_max + 1))
        g = rng.normal(size=(n, n))
        np.fill_diagonal(g, 0.0)
        scale = rng.uniform(0.05, 0.65)
        if certificate is cert_strong_monotone:
            g *= scale / (1.5 * np.linalg.svd(g, compute_uv=False)[0])
        else:
            row = np.max(np.sum(np.abs(g), axis=1))
            col = np.max(np.sum(np.abs(g), axis=0))
            g *= 2.0 * scale / (2.0 * row + col)
        adjacency = AdjacencyMatrix(g)
        if not certificate(adjacency).holds:
            continue
        games.append(NetworkGame(adjacency, rng.uniform(0.2, 2.0, n)))
    return games


def test_criterion_5_certificates_predict_uniqueness():
    rng = np.random.default_rng(55)
    worst_spread = 0.0
    for certificate in (cert_strong_monotone, cert_block_p):
        for game in _random_certified_games(rng, certificate, 50):
            ref = solve_vi(game, x0=np.zeros(game.n))
            register(game, ref)
            for _ in range(10):
                eq = solve_vi(game, x0=rng.uniform(0.0, 2.0, game.n))
                worst_spread = max(worst_spread, float(np.max(np.abs(eq.x.x - ref.x.x))))

    chain_violations = 0
    checked_gersh = 0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        g = rng.normal(size=(n, n)) * rng.uniform(0.01, 1.0) / n
        np.fill_diagonal(g, 0.0)
        adjacency = AdjacencyMatrix(g)
        block = cert_block_p(adjacency)
        gersh = cert_gershgorin(adjacency)
        if block.holds and not gersh.holds:
            chain_violations += 1
        if gersh.holds:
            checked_gersh += 1
            if not p_matrix_check(build_gamma_matrix(adjacency)):
                chain_violations += 1
    ok = worst_spread <= 1e-6 and chain_violations == 0 and checked_gersh > 50
    report(
        5,
        ok,
        f"100 certified games x 10 starts agree within {worst_spread:.2e} <= 1e-6; "
        f"implication chain clean on 500 matrices ({checked_gersh} exercised gershgorin)",
    )


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(66)
    worst_gap = 0.0
    worst_comp = 0.0
    boundary_cases = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        g = rng.normal(size=(n, n))
        np.fill_diagonal(g, 0.0)
        row = np.max(np.sum(np.abs(g), axis=1))
        g *= rng.uniform(0.1, 0.4) / row  # ||G||_inf <= 0.4
        game = NetworkGame(AdjacencyMatrix(g), rng.uniform(0.5, 2.0, n))
        interior = solve_ne_interior(game)
        vi = solve_vi(game, x0=rng.uniform(0.0, 1.0, n))
        register(game, vi)
        if np.min(interior.x.x) >= 0:
            worst_gap = max(worst_gap, float(np.max(np.abs(vi.x.x - interior.x.x))))
        else:
            boundary_cases += 1
            worst_comp = max(worst_comp, vi.complementarity_residual)
    ok = worst_gap <= 1e-8 and worst_comp <= 1e-10
    report(
        6,
        ok,
        f"interior agreement within {worst_gap:.2e} <= 1e-8 on 100 games "
        f"({boundary_cases} boundary cases, complementarity <= {worst_comp:.2e})",
    )


def test_criterion_7_continuity_experiment():
    base = four_player_symmetric_example()

    def run(steps):
        config = SweepConfig(
            base_game=base,
            delta_pattern=PATTERN4,
            delta_grid=np.linspace(-0.6, 0.6, steps),
        )
        return sweep(config)

    coarse = run(121)
    fine = run(1201)

    def max_feasible_jump(rep):
        jump = 0.0
        for prev, cur in zip(rep.rows, rep.rows[1:]):
            if prev.feasible and cur.feasible:
                jump = max(jump, abs(cur.social_cost - prev.social_cost))
        return jump

    j_coarse = max_feasible_jump(coarse)
    j_fine = max_feasible_jump(fine)
    infeasible_flagged = any(not r.feasible for r in coarse.rows)
    ok = infeasible_flagged and j_coarse >= 5.0 * j_fine
    report(
        7,
        ok,
        f"max adjacent jump {j_coarse:.3f} -> {j_fine:.3f} under x10 refinement "
        f"(factor {j_coarse / j_fine:.1f} >= 5); infeasible regime flagged in sweep range",
    )


def test_criterion_8_individual_rationality():
    # audit everything registered so far plus a fresh population
    rng = np.random.default_rng(88)
    population = list(EQUILIBRIA)
    game = example2_game()
    population.append((game, solve_ne_interior(game)))
    for _ in range(30):
        n = int(rng.integers(2, 7))
        g = rng.normal(size=(n, n))
        np.fill_diagonal(g, 0.0)
        g *= rng.uniform(0.05, 0.4) / np.max(np.sum(np.abs(g), axis=1))
        game = NetworkGame(AdjacencyMatrix(g), rng.uniform(-0.5, 2.0, n))
        population.append((game, solve_vi(game, x0=np.zeros(n))))

    worst_cost = -np.inf
    for game, eq in population:
        rep = ir_check(game, eq)
        costs = np.array([p.cost_at_eq for p in rep.players])
        worst_cost = max(worst_cost, costs.max())
        assert rep.all_rational
        x, ub = eq.x.x, getattr(game, "upper_bound", None)
        if eq.interior and (ub is None or np.all(x < ub - 1e-8)):  # no bound binds
            np.testing.assert_allclose(costs, -0.5 * x**2, rtol=0, atol=1e-9)
    ok = len(population) >= 30 and worst_cost <= 1e-9
    report(
        8,
        ok,
        f"{len(population)} equilibria audited; max player cost {worst_cost:.2e} <= 0 "
        f"(+1e-9 slack), interior identity verified at 1e-9",
    )


def test_criterion_9_random_networks():
    t0 = time.perf_counter()
    dense = ErConfig(n=100, p=0.3, samples=200, seed=900)
    stats_dense = singularity_stats(dense)
    scan_dense = coincidence_feasibility_scan(dense, np.ones(100))
    sparse = ErConfig(n=100, p=0.001, samples=200, seed=901)
    stats_sparse = singularity_stats(sparse)
    elapsed = time.perf_counter() - t0
    ok = (
        stats_dense.fraction_singular <= 0.01
        and scan_dense.coincident == 0
        and stats_sparse.fraction_singular >= 0.99
        and elapsed < 60.0
    )
    report(
        9,
        ok,
        f"p=0.3: fraction_singular={stats_dense.fraction_singular:.3f} <= 0.01, "
        f"coincident={scan_dense.coincident}; p=0.001: "
        f"fraction_singular={stats_sparse.fraction_singular:.3f} >= 0.99; "
        f"runtime {elapsed:.1f} s < 60 s",
    )


def test_criterion_10_spectral_facts():
    rng = np.random.default_rng(1010)
    passed = 0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        b = rng.normal(size=(n, n)) * rng.uniform(0.1, 5.0)
        if spectral_facts_selftest((b + b.T) / 2, tol=1e-10):
            passed += 1
    ok = passed == 100
    report(10, ok, f"{passed}/100 random symmetric matrices pass all three facts at 1e-10")
