"""Coincidence checks and network construction."""

from fractions import Fraction

import numpy as np
import pytest

from netgames import (
    AdjacencyMatrix,
    DesignProblem,
    InfeasibleDesign,
    NetworkGame,
    NoSolutionFound,
    GammaFamily,
    PublicGoodsGame,
    check_coincidence,
    design_solve,
    four_player_symmetric_example,
    necessary_condition_det,
    potential_check,
    SingularSystem,
    social_cost,
    solve_ne_interior,
    solve_ne_pg,
    solve_social_interior,
    solve_social_pg,
    symmetric_design,
)
from netgames.design import DISTINCT_TOL, _bilinear_system, _nash_gate_from_social
from netgames.equilibrium import FACTOR_SOLVE_MIN_N, PROOF_MIN_N, _gate_factor
from netgames.games import _system

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


def pg(g, theta, c, d):
    n = len(c)
    return PublicGoodsGame(
        AdjacencyMatrix(np.asarray(g, dtype=float)),
        np.broadcast_to(np.asarray(theta, dtype=float), (n,)),
        GammaFamily(c, np.broadcast_to(np.asarray(d, dtype=float), (n,))),
    )


def sup(v) -> float:
    return float(np.max(np.abs(v))) if np.size(v) else 0.0


def reference_newton_polish(residual_fn, jacobian_fn, u0, hard_tol, max_newton=80):
    """Per-start damped Gauss-Newton; returns the final iterate or None on a non-finite step."""
    u = np.array(u0, dtype=float)
    r = residual_fn(u)
    norm = float(np.linalg.norm(r))
    for _ in range(max_newton):
        if sup(r) <= hard_tol:
            break
        jac = jacobian_fn(u)
        du, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        if not np.all(np.isfinite(du)):
            return None
        step = 1.0
        for _ in range(40):
            cand = u + step * du
            r_cand = residual_fn(cand)
            n_cand = float(np.linalg.norm(r_cand))
            if n_cand < norm:
                u, r, norm = cand, r_cand, n_cand
                break
            step *= 0.5
        else:
            return u  # stalled; caller decides on acceptance
    return u


def reference_design_branches(problem, starts, tol=1e-8, seed=0):
    """Distinct accepted [x, g_free] iterates of a start-by-start multi-start design.

    Same draws, steps, acceptance and de-duplication as ``design_solve``, one
    start and one ``lstsq`` at a time.  Raises NoSolutionFound like it.
    """
    n, a = problem.n, problem.a
    g0 = problem.base_matrix()
    free = [(i - 1, j - 1) for i, j in problem.free]
    m = len(free)

    rows = np.array([p for p, _ in free], dtype=int)
    cols = np.array([q for _, q in free], dtype=int)

    def build_g(gf):
        g = g0.copy()
        if m:
            g[rows, cols] = gf
        return g

    def residual(u):
        x, g = u[:n], build_g(u[n:])
        return np.concatenate([x + g @ x - a, g.T @ x])

    def jacobian(u):
        x, g = u[:n], build_g(u[n:])
        jac = np.zeros((2 * n, n + m))
        jac[:n, :n] = np.eye(n) + g
        jac[n:, :n] = g.T
        for k, (p, q) in enumerate(free):
            jac[p, n + k] = x[q]
            jac[n + q, n + k] = x[p]
        return jac

    hard_tol, slack = 1e-13 * sup(a), tol * sup(a)
    x_hi = float(np.max(a)) if float(np.max(a)) > 0 else 1.0

    def run_sweep(box):
        rng = np.random.default_rng(seed)
        accepted = []
        for _ in range(starts):
            u0 = np.concatenate([rng.uniform(0.0, x_hi, n), rng.uniform(-box, box, m)])
            u = reference_newton_polish(residual, jacobian, u0, hard_tol)
            if u is not None and sup(residual(u)) <= slack and float(np.min(u[:n])) >= -slack:
                accepted.append(u)
        return accepted

    accepted = run_sweep(5.0) or run_sweep(50.0)
    if not accepted:
        raise NoSolutionFound("reference found no admissible design")
    accepted.sort(key=lambda u: tuple(np.round(u, 12)))
    distinct = []
    for u in accepted:
        if all(sup(u - v) / (1.0 + max(sup(u), sup(v))) > DISTINCT_TOL for v in distinct):
            distinct.append(u)
    return distinct


def reference_kernel_basis(a):
    """Orthonormal basis (m columns) of the symmetric zero-diagonal W with Wa = 0.

    Upper-triangle entries in row-major order; the full SVD of the n x m
    constraint matrix with the relative rank cut 1e-12 * s_max of
    ``symmetric_design``, as it sampled before it took the closed-form projection.
    """
    n = a.size
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cons = np.zeros((n, len(pairs)))
    for k, (i, j) in enumerate(pairs):
        cons[i, k] += a[j]
        cons[j, k] += a[i]
    _, sv, vt = np.linalg.svd(cons)
    return vt[int(np.sum(sv > 1e-12 * sv[0])) :].T


def exact_kernel_projection(a, z):
    """The projection of z onto the kernel of C (upper triangle, row-major) in exact arithmetic.

    Solves ``(C C^T) y = C z`` over the rationals, so it needs C of full row rank n.
    """
    n = a.size
    pairs = list(zip(*np.triu_indices(n, 1)))
    av = [Fraction(float(v)) for v in a]
    zv = [Fraction(float(v)) for v in z]
    rows = [[Fraction(0)] * n + [Fraction(0)] for _ in range(n)]
    for k, (i, j) in enumerate(pairs):
        rows[i][n] += av[j] * zv[k]
        rows[j][n] += av[i] * zv[k]
    total = sum(v * v for v in av)
    for i in range(n):
        for k in range(n):
            rows[i][k] = av[i] * av[k] + (total - 2 * av[i] * av[i] if i == k else 0)
    for c in range(n):  # Gauss-Jordan; C C^T is positive definite, so no pivot is zero
        for r in range(n):
            if r != c:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    y = [rows[i][n] / rows[i][i] for i in range(n)]
    return np.array([float(zv[k] - y[i] * av[j] - y[j] * av[i]) for k, (i, j) in enumerate(pairs)])


class TestCheckCoincidence:
    def test_empty_network_always_coincides(self):
        check = check_coincidence(lq(np.zeros((3, 3)), np.array([1.0, 0.5, 2.0])))
        assert check.holds
        np.testing.assert_array_equal(check.x.x, [1.0, 0.5, 2.0])
        assert check.residual_orth == 0.0

    def test_three_player_example_holds(self):
        # printed values are rounded to ~5 digits, hence the loose tolerance
        check = check_coincidence(lq(EX3_G, EX3_A), tol=5e-3)
        assert check.holds
        assert check.residual_orth <= 5e-3
        assert check.social_gap <= 5e-3

    def test_two_player_generic_fails(self):
        # oracle by hand: (I+G)x = 1 gives x = (2/3, 2/3), G^T x = (1/3, 1/3)
        check = check_coincidence(lq(np.array([[0.0, 0.5], [0.5, 0.0]]), np.ones(2)))
        assert not check.holds
        np.testing.assert_allclose(check.x.x, [2 / 3, 2 / 3], rtol=0, atol=1e-14)
        assert check.residual_orth == pytest.approx(1 / 3, abs=1e-14)

    def test_unit_swap_matrix_is_singular(self):
        # det(I+G) = 0 for the unit swap network: the interior solve must refuse
        from netgames import SingularSystem

        with pytest.raises(SingularSystem):
            check_coincidence(lq(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2)))

    def test_two_player_impossibility_sample(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            g12, g21 = rng.uniform(0.05, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
            a = rng.uniform(0.1, 2.0, 2)
            game = lq(np.array([[0.0, g12], [g21, 0.0]]), a)
            try:
                assert not check_coincidence(game).holds
            except Exception as exc:
                assert type(exc).__name__ == "SingularSystem"


class TestCheckCoincidenceSharedProof:
    """check_coincidence proves the Nash gate from the social system's proof where it can."""

    @staticmethod
    def assert_matches_the_solvers(game):
        """x and social_gap are those of the game's two interior solvers, bit for bit."""
        public_goods = isinstance(game, PublicGoodsGame)
        solve_ne = solve_ne_pg if public_goods else solve_ne_interior
        solve_social = solve_social_pg if public_goods else solve_social_interior
        try:
            x = solve_ne(game).x.x
        except SingularSystem:
            with pytest.raises(SingularSystem):
                check_coincidence(game)
            return None
        check = check_coincidence(game)
        assert check.x.x.tobytes() == x.tobytes()
        try:
            gap = float(np.max(np.abs(x - solve_social(game).x.x)))
        except SingularSystem:
            assert np.isnan(check.social_gap)
        else:
            assert check.social_gap == gap
        return check

    @staticmethod
    def count_cholesky(monkeypatch, game):
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda u: calls.append(1) or cholesky(u))
        check_coincidence(game)
        monkeypatch.undo()
        return len(calls)

    @staticmethod
    def generic(rng, n, symmetric=False):
        g = rng.normal(size=(n, n)) * (0.2 / np.sqrt(n))  # I+G+G^T definite either way
        g = np.triu(g, 1) + np.triu(g, 1).T if symmetric else g - np.diag(np.diag(g))
        return lq(g, rng.uniform(0.5, 1.5, n))

    @pytest.mark.parametrize("n", [PROOF_MIN_N, FACTOR_SOLVE_MIN_N + 3])
    def test_one_cholesky_settles_both_gates(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        game = self.generic(rng, n)
        m, s = (_system(game, w)[0] for w in ("ne", "social"))
        assert _nash_gate_from_social(m, np.max(np.abs(s)))
        assert self.count_cholesky(monkeypatch, game) == 1
        self.assert_matches_the_solvers(game)
        # symmetric G from FACTOR_SOLVE_MIN_N on: the Nash system is solved from its own factor
        sym = self.generic(rng, n, symmetric=True)
        assert self.count_cholesky(monkeypatch, sym) == (2 if n >= FACTOR_SOLVE_MIN_N else 1)
        self.assert_matches_the_solvers(sym)

    @pytest.mark.parametrize("n", [PROOF_MIN_N, FACTOR_SOLVE_MIN_N + 3])
    def test_social_proof_fails_nash_proof_holds(self, monkeypatch, n):
        # G = 0.75(J - I): I+G+G^T = 1.5J - 0.5I is indefinite, I+G = 0.75J + 0.25I definite
        game = lq(0.75 * (np.ones((n, n)) - np.eye(n)), np.ones(n))
        m, s = (_system(game, w)[0] for w in ("ne", "social"))
        assert _gate_factor(s) is None and _gate_factor(m) is not None
        assert self.count_cholesky(monkeypatch, game) == 2
        check = self.assert_matches_the_solvers(game)
        assert np.isfinite(check.social_gap)

    def test_every_case_matches_the_solvers(self):
        rng = np.random.default_rng(25)
        games = [self.generic(rng, n, symmetric=k % 2 == 1)
                 for k, n in enumerate((3, 20, PROOF_MIN_N - 1, PROOF_MIN_N, 130, FACTOR_SOLVE_MIN_N))]
        games.append(lq(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2)))  # singular Nash system
        # 0.75(J - I) plus a skew part: I+G+G^T is indefinite, I+G not symmetric
        skew = np.triu(rng.normal(size=(70, 70)), 1)
        games.append(lq(0.75 * (np.ones((70, 70)) - np.eye(70)) + 0.1 * (skew - skew.T), np.ones(70)))
        for game in games:
            self.assert_matches_the_solvers(game)

    def test_skew_networks_across_the_edge_of_the_scalar_proof(self):
        # G = tK with K skew-symmetric: I+G+G^T = I exactly, so the social proof always holds
        # and the scalar inequality fails only once max|I+G| ~ 1/(2 sigma); where it holds,
        # the Nash system's own proof holds too, and the answers never depend on which ran
        rng = np.random.default_rng(7)
        n = PROOF_MIN_N
        k = np.triu(rng.normal(size=(n, n)), 1)
        k -= k.T
        scalar = []
        for t in 10.0 ** np.arange(0, 16):
            game = lq(t * k, rng.uniform(0.5, 1.5, n))
            m, s = (_system(game, w)[0] for w in ("ne", "social"))
            scalar.append(_nash_gate_from_social(m, np.max(np.abs(s))))
            assert not scalar[-1] or _gate_factor(m) is not None
            self.assert_matches_the_solvers(game)
        assert scalar[0] and not scalar[-1]

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_tol_must_be_positive_and_finite(self, tol):
        # before this check, tol=-1 returned holds=False on a coincident game
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            check_coincidence(lq(np.zeros((3, 3)), np.ones(3)), tol=tol)

    def test_other_types_are_a_typed_error(self):
        with pytest.raises(ValueError, match="NetworkGame or PublicGoodsGame"):
            check_coincidence(AdjacencyMatrix(np.zeros((2, 2))))

    @pytest.mark.parametrize("n", [PROOF_MIN_N, FACTOR_SOLVE_MIN_N + 3])
    def test_public_goods_nash_solve_proves_its_own_gate(self, monkeypatch, n):
        # the row scale diag(1-d) breaks sym(M_ne) = (I + M_soc)/2: two proofs, even at d = 0
        rng = np.random.default_rng(n)
        game = self.generic(rng, n)
        assert self.count_cholesky(monkeypatch, game) == 1
        for d in (np.zeros(n), rng.uniform(0.1, 0.5, n)):
            twin = pg(game.adjacency.g, rng.uniform(0.0, 1.0, n), game.a, d)
            assert self.count_cholesky(monkeypatch, twin) == 2
            self.assert_matches_the_solvers(twin)


class TestNecessaryConditionDet:
    def test_zero_matrix(self):
        report = necessary_condition_det(AdjacencyMatrix(np.zeros((3, 3))))
        assert report.det == 0.0
        assert report.singular
        assert report.rank == 0

    def test_three_player_example_singular(self):
        # the printed matrix is rounded to ~6 digits, so judge rank at that scale
        report = necessary_condition_det(AdjacencyMatrix(EX3_G), rank_tol=1e-5)
        assert report.singular
        assert report.rank == 2
        # x* is a nonzero null vector of G^T up to print rounding
        x = check_coincidence(lq(EX3_G, EX3_A), tol=5e-3).x.x
        assert np.max(np.abs(EX3_G.T @ x)) <= 5e-3

    def test_swap_matrix_nonsingular(self):
        report = necessary_condition_det(AdjacencyMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert report.det == pytest.approx(-1.0, abs=1e-14)
        assert not report.singular
        assert report.rank == 2


class TestSymmetricDesign:
    def test_four_player_reference(self):
        # the fixed example: rows of (t, u, -(t+u)) sum to zero
        game = four_player_symmetric_example(0.1, 0.2)
        np.testing.assert_allclose(game.adjacency.g @ game.a, np.zeros(4), atol=1e-16)
        np.testing.assert_array_equal(game.adjacency.g, game.adjacency.g.T)
        check = check_coincidence(game)
        assert check.holds
        np.testing.assert_allclose(check.x.x, game.a, rtol=0, atol=1e-12)

    def test_three_player_unit_benefits_infeasible(self):
        with pytest.raises(InfeasibleDesign):
            symmetric_design(np.ones(3), seed=0)

    @pytest.mark.parametrize("scale", [1e-13, 1e-200, 1e200])
    def test_infeasible_at_any_scale(self, scale):
        # the kernel cut is relative, so a scaled a has the trivial kernel of (1, 1, 1)
        with pytest.raises(InfeasibleDesign) as unit:
            symmetric_design(np.ones(3), seed=0)
        with pytest.raises(InfeasibleDesign) as scaled:
            symmetric_design(scale * np.ones(3), seed=0)
        assert str(scaled.value) == str(unit.value)

    def test_two_player_infeasible(self):
        with pytest.raises(InfeasibleDesign):
            symmetric_design(np.array([1.0, 2.0]), seed=0)

    @pytest.mark.parametrize(
        "a, max_abs",
        [([1.0, np.nan, 1.0, 1.0], 0.3), ([1.0, np.inf, 1.0, 1.0], 0.3), (np.ones(4), -1.0),
         (np.ones(4), 0.0), (np.ones(4), np.nan), (np.ones(4), np.inf)],
    )
    def test_invalid_inputs_raise_value_error(self, a, max_abs):
        # nan used to end in LinAlgError, inf in a RuntimeWarning, and max_abs=-1 flipped G's sign
        with pytest.raises(ValueError, match="need finite a"):
            symmetric_design(a, seed=0, max_abs=max_abs)

    def test_costs_coincide_by_construction(self):
        rng = np.random.default_rng(71)
        for seed in range(10):
            n = int(rng.integers(4, 9))
            a = np.ones(n)
            sol = symmetric_design(a, seed=seed)
            game = NetworkGame(sol.adjacency, a)
            assert sol.residual_ne <= 1e-12
            np.testing.assert_array_equal(sol.x_star.x, a)
            ne_cost = social_cost(game, sol.x_star.x)
            opt = solve_social_interior(game)
            opt_cost = social_cost(game, opt.x.x)
            assert abs(ne_cost - opt_cost) <= 1e-12 * max(1.0, abs(opt_cost))

    def test_nonuniform_benefits(self):
        a = np.array([1.0, 2.0, 0.5, 1.5, 0.25])
        sol = symmetric_design(a, seed=5)
        np.testing.assert_allclose(sol.adjacency.g @ a, np.zeros(5), atol=1e-13)
        assert potential_check(sol.adjacency)

    def test_projection_matches_kernel_basis(self):
        # the seed's Gaussian upper triangle z, projected: K K^T z up to the final rescale
        rng = np.random.default_rng(90)
        cases = [np.ones(n) for n in (4, 7, 10)] + [np.array([1.5, 0.0, 0.7])]
        cases += [rng.uniform(0.0, 2.0, int(rng.integers(4, 11))) for _ in range(40)]
        for seed, a in enumerate(cases):
            n = a.size
            iu = np.triu_indices(n, 1)
            z = np.random.default_rng(seed).standard_normal(iu[0].size)
            k = reference_kernel_basis(a)
            p = k @ (k.T @ z)
            g = symmetric_design(a, seed=seed, max_abs=1.0).adjacency.g
            assert np.max(np.abs(g[iu] * sup(p) - p)) <= 1e-13

    def test_infeasible_exactly_where_kernel_is_trivial(self):
        rng = np.random.default_rng(91)
        outcomes = set()
        for trial in range(300):
            n = 2 + trial % 2
            a = rng.uniform(0.0, 3.0, n) * (rng.random(n) < 0.7)
            trivial = reference_kernel_basis(a).shape[1] == 0
            try:
                symmetric_design(a, seed=trial)
                raised = False
            except InfeasibleDesign:
                raised = True
            assert raised == trivial
            outcomes.add((n, raised))
        assert outcomes == {(2, False), (2, True), (3, False), (3, True)}

    def test_infeasible_exactly_where_kernel_is_trivial_multiscale(self):
        # entries spread over 15 decades, so singular values of C fall on both sides of the
        # 1e-12 s_max cut that decides the kernel
        rng = np.random.default_rng(93)
        outcomes = set()
        for trial in range(300):
            n = 2 + trial % 2
            a = 10.0 ** rng.uniform(-15.0, 0.0, n) * (rng.random(n) < 0.8)
            a = a * 10.0 ** rng.uniform(-3.0, 3.0)
            trivial = reference_kernel_basis(a).shape[1] == 0
            try:
                symmetric_design(a, seed=trial)
                raised = False
            except InfeasibleDesign:
                raised = True
            assert raised == trivial
            outcomes.add((n, raised))
        assert outcomes == {(2, False), (2, True), (3, False), (3, True)}

    def test_three_players_with_a_tiny_entry_infeasible(self):
        # C's least singular value is ~1e-9 of its largest: small, but far above the cut
        with pytest.raises(InfeasibleDesign):
            symmetric_design(np.array([1e-9, 1.0, 1.0]), seed=0)

    @pytest.mark.parametrize(
        "a",
        [
            [1e-9, 1e-9, 1.0, 1.0],
            [1e-9, 3e-9, 1.0, 1.0 + 2.0**-30],
            [1.0, 1e-5, 2e-5, 3e-5],
            [1e-6, 1.0, 1.0, 5e-7, 1e-7],
            [1e-11, 1.0, 1.0, 2e-11, 0.5],
            [1e-12, 2e-12, 1.0, 1.0],  # s_min = 1.58 x the cut: needs all four passes
            [1e200, 2e200, 1e199, 3e200, 5e199],
        ],
    )
    def test_ill_conditioned_projection_is_exact(self, a):
        # C has one singular value 1e-5..1.6e-12 of its largest; the projection must still
        # match exact rational arithmetic, and Ga vanish to rounding
        a = np.array(a)
        iu = np.triu_indices(a.size, 1)
        z = np.random.default_rng(4).standard_normal(iu[0].size)
        p = exact_kernel_projection(a, z)
        sol = symmetric_design(a, seed=4, max_abs=1.0)
        g = sol.adjacency.g
        assert np.max(np.abs(g[iu] * sup(p) - p)) <= 1e-13 * sup(p)
        assert sol.residual_ne <= 1e-15 * sup(a)
        if sup(a) == 1.0:
            # the old full-SVD basis is accurate only to about eps s_max / s_min of C,
            # at most 1.4e-4 here (4.8e-8 for the first a, 1.3e-5 at 1.58 x the cut)
            k = reference_kernel_basis(a)
            assert np.max(np.abs(k @ (k.T @ z) - p)) <= 1.4e-4

    def test_two_hundred_players(self):
        a = np.random.default_rng(92).uniform(0.0, 2.0, 200)
        for scale in (1.0, 1e200):  # a @ a alone would overflow at the larger scale
            g = symmetric_design(a * scale, seed=3).adjacency.g
            assert sup(g @ (a * scale)) <= 1e-12 * (1.0 + sup(a * scale))
            assert np.array_equal(g, g.T) and not np.any(np.diagonal(g))
            assert sup(g) == pytest.approx(0.3, rel=1e-15)


class TestDesignSolve:
    def problem3(self):
        return DesignProblem(
            n=3,
            a=EX3_A,
            fixed=((1, 2, -2.0), (3, 1, -3.0), (2, 3, 2.0)),
            free=((2, 1), (1, 3), (3, 2)),
        )

    def test_three_player_recovery(self):
        run = design_solve(self.problem3(), starts=64, seed=0)
        assert run.solutions
        assert all(s.residual_ne <= 1e-8 and s.residual_orth <= 1e-8 for s in run.solutions)

        def rel(found, want):
            return abs(found - want) / (1.0 + abs(want))

        matches = []
        for sol in run.solutions:
            g = sol.adjacency.g
            matches.append(
                rel(g[1, 0], 1.18042) <= 1e-3
                and rel(g[0, 2], -0.273107) <= 1e-3
                and rel(g[2, 1], 37.229) <= 1e-3
                and np.max(np.abs(sol.x_star.x - [1.4046, 0.19173, 0.07544])) <= 1e-3
            )
        assert any(matches)

    def test_solutions_pass_check_coincidence(self):
        run = design_solve(self.problem3(), starts=32, seed=1)
        for sol in run.solutions:
            game = NetworkGame(sol.adjacency, EX3_A)
            assert check_coincidence(game, tol=1e-8).holds
            assert necessary_condition_det(sol.adjacency).singular

    def test_two_player_product_vanishes(self):
        problem = DesignProblem(
            n=2, a=np.array([1.0, 1.0]), fixed=(), free=((1, 2), (2, 1))
        )
        run = design_solve(problem, starts=32, seed=2)
        for sol in run.solutions:
            g = sol.adjacency.g
            assert abs(g[0, 1]) * abs(g[1, 0]) <= 1e-6

    def test_fixed_entry_with_no_exact_solution(self):
        # g12 fixed at 0.7 with a=(1,1): the orthogonality rows force x1=0,
        # which contradicts the equilibrium rows, so no branch exists
        problem = DesignProblem(n=2, a=np.array([1.0, 1.0]), fixed=((1, 2, 0.7),), free=((2, 1),))
        with pytest.raises(NoSolutionFound) as info:
            design_solve(problem, starts=32, seed=3)
        assert info.value.best_residual > 1e-8

    def test_empty_free_set_degenerates_to_check(self):
        problem = DesignProblem(
            n=3,
            a=EX3_A,
            fixed=(
                (1, 2, -2.0), (3, 1, -3.0), (2, 3, 2.0),
                (2, 1, 1.18042265), (1, 3, -0.27310734), (3, 2, 37.22291154),
            ),
            free=(),
        )
        run = design_solve(problem, starts=8, seed=0, tol=1e-6)
        assert len(run.solutions) == 1
        np.testing.assert_allclose(
            run.solutions[0].x_star.x, [1.4046, 0.19173, 0.07544], rtol=0, atol=1e-3
        )

    def test_wide_box_after_total_narrow_failure(self):
        # every converged start of the [-5, 5] sweep (5 of 8) has a negative action; the
        # [-50, 50] sweep converges 3 starts, 2 of them negative, and keeps one branch
        problem = DesignProblem(
            n=3,
            a=np.array([1.8948612854955176, 0.859263433208392, 0.9059578256675852]),
            fixed=((3, 1, -8.890840251117716), (2, 3, -4.132028627724161),
                   (1, 2, -12.089563649853098)),
            free=((1, 3), (2, 1), (3, 2)),
        )
        run = design_solve(problem, starts=8, seed=126)
        assert (run.converged_starts, run.rejected_negative, run.iterations) == (8, 7, 160)
        assert len(run.solutions) == 1
        sol = run.solutions[0]
        want_g = [
            [0.0, -12.089563649853098, 8.905570441908644],
            [13.784591390474645, 0.0, -4.132028627724161],
            [-8.890840251117716, 3.617937953550848, 0.0],
        ]
        np.testing.assert_allclose(sol.adjacency.g, want_g, rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            sol.x_star.x, [0.4029530539054108, 0.868466104581017, 1.3464925755044967],
            rtol=1e-12, atol=0,
        )

    def test_no_solution_raises(self):
        # two players, both entries fixed nonzero: the system is infeasible
        problem = DesignProblem(
            n=2, a=np.array([1.0, 1.0]), fixed=((1, 2, 0.7), (2, 1, 0.4)), free=()
        )
        with pytest.raises(NoSolutionFound) as info:
            design_solve(problem, starts=8, seed=0)
        assert info.value.best_residual > 0

    def test_deterministic_given_seed(self):
        runs = [design_solve(self.problem3(), starts=16, seed=9) for _ in range(2)]
        assert len(runs[0].solutions) == len(runs[1].solutions)
        for s0, s1 in zip(runs[0].solutions, runs[1].solutions):
            np.testing.assert_array_equal(s0.adjacency.g, s1.adjacency.g)
            np.testing.assert_array_equal(s0.x_star.x, s1.x_star.x)

    def assert_same_branches_as_reference(self, problem, starts, seed):
        try:
            want = reference_design_branches(problem, starts, seed=seed)
        except NoSolutionFound:
            with pytest.raises(NoSolutionFound):
                design_solve(problem, starts=starts, seed=seed)
            return False
        got = design_solve(problem, starts=starts, seed=seed).solutions
        free = [(i - 1, j - 1) for i, j in problem.free]
        got = [np.concatenate([s.x_star.x, [s.adjacency.g[p, q] for p, q in free]]) for s in got]
        assert len(got) == len(want)
        for u in want:
            assert min(sup(u - v) for v in got) <= 1e-6
        return True

    def test_branches_match_per_start_reference_readme(self):
        for seed in range(16):
            assert self.assert_same_branches_as_reference(self.problem3(), 64, seed)

    def test_branches_match_per_start_reference_two_player(self):
        rng = np.random.default_rng(83)
        solved = 0
        for _ in range(100):
            a = rng.uniform(0.1, 2.0, 2)
            problem = DesignProblem(n=2, a=a, fixed=(), free=((1, 2), (2, 1)))
            solved += self.assert_same_branches_as_reference(
                problem, 8, int(rng.integers(0, 2**31))
            )
        assert solved == 100
        # infeasible two-player problems: both searches must give up
        ones = np.ones(2)
        for fixed, free in ((((1, 2, 0.7),), ((2, 1),)), (((1, 2, 0.7), (2, 1, 0.4)), ())):
            problem = DesignProblem(n=2, a=ones, fixed=fixed, free=free)
            assert not self.assert_same_branches_as_reference(problem, 8, 3)

    def test_reports_batch_iterations(self):
        # README seed 0 ends at the 80-iteration cap: some starts still crawl there
        assert design_solve(self.problem3(), starts=64, seed=0).iterations == 80
        problem = DesignProblem(n=2, a=np.ones(2), fixed=(), free=((1, 2), (2, 1)))
        assert 1 <= design_solve(problem, starts=8, seed=2).iterations <= 160

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            DesignProblem(n=2, a=np.ones(2), fixed=((1, 1, 0.5),), free=())
        with pytest.raises(ValueError):
            DesignProblem(n=2, a=np.ones(2), fixed=((1, 2, 0.5),), free=((1, 2),))
        with pytest.raises(ValueError):
            DesignProblem(n=2, a=np.ones(2), fixed=(), free=((3, 1),))

    @pytest.mark.parametrize(
        "fixed, free",
        [(((1, 2.9, -2.0),), ()), (((True, 3, 1.0),), ()), ((), ((2.5, 1),)),
         ((), ((np.True_, 2),)), ((), ((1, float("nan")),)), ((), ((1, np.inf),))],
    )
    def test_positions_must_be_integers(self, fixed, free):
        with pytest.raises(ValueError, match="integers"):
            DesignProblem(n=3, a=np.ones(3), fixed=fixed, free=free)

    def test_integral_positions_of_any_number_type_are_kept(self):
        problem = DesignProblem(n=3, a=np.ones(3), fixed=((1.0, np.int64(2), 0.5),),
                                free=((np.float32(3), 1),))
        assert problem.fixed == ((1, 2, 0.5),) and problem.free == ((3, 1),)
        assert all(type(k) is int for k in problem.fixed[0][:2] + problem.free[0])

    @pytest.mark.parametrize(
        "kwargs",
        [{"starts": 0}, {"starts": -3}, {"tol": -1.0}, {"tol": 0.0}, {"tol": np.inf},
         {"tol": np.nan}],
    )
    def test_invalid_arguments_raise_value_error(self, kwargs):
        # out-of-range arguments are caller errors, not a failed search
        with pytest.raises(ValueError):
            design_solve(self.problem3(), **kwargs)


README_PROBLEM = DesignProblem(
    n=3, a=EX3_A, fixed=((1, 2, -2.0), (3, 1, -3.0), (2, 3, 2.0)), free=((2, 1), (1, 3), (3, 2))
)
# two free entries for three players: a 6 x 5 Jacobian
NON_SQUARE_PROBLEM = DesignProblem(
    n=3, a=EX3_A, fixed=((1, 2, -2.0), (3, 1, -3.0), (2, 3, 2.0), (2, 1, 1.2)), free=((1, 3), (3, 2))
)


class TestNewtonKernel:
    """The batched maps and step behind ``design_solve``."""

    @pytest.mark.parametrize("problem", [README_PROBLEM, NON_SQUARE_PROBLEM])
    def test_quadratic_expansion_is_exact(self, problem):
        _, residual, jacobian, free_terms, _ = _bilinear_system(problem)
        n, k = problem.n, problem.n + len(problem.free)
        rng = np.random.default_rng(7)
        u = rng.uniform(-5.0, 5.0, (200, k))
        du = rng.standard_normal((200, k)) * 10.0 ** rng.uniform(-4, 2, (200, 1))
        t = rng.uniform(0.0, 1.0, (200, 1))
        r = residual(u)
        g = np.array([_with_free(problem, v[n:]) for v in u])
        x = u[:, :n]
        want = np.concatenate([x + np.einsum("kij,kj->ki", g, x) - problem.a,
                               np.einsum("kji,kj->ki", g, x)], axis=1)
        assert np.max(np.abs(r - want) / (1.0 + np.abs(want))) <= 1e-12
        lin = np.einsum("kij,kj->ki", jacobian(u), du)
        terms = (r, t * lin, t**2 * free_terms(du))
        scale = np.max(np.abs(np.concatenate(terms, axis=1)), axis=1)
        err = np.max(np.abs(residual(u + t * du) - sum(terms)), axis=1)
        assert np.max(err / scale) <= 1e-12

    def test_square_solve_step_equals_pinv_step(self, monkeypatch):
        *_, step = _bilinear_system(README_PROBLEM)
        rng = np.random.default_rng(11)
        jac = rng.standard_normal((64, 6, 6)) + 5.0 * np.eye(6)
        assert np.max(np.linalg.cond(jac)) < 100.0
        r = rng.standard_normal((64, 6))
        want = -(np.linalg.pinv(jac) @ r[..., None])[..., 0]

        def no_pinv(*args, **kwargs):
            raise AssertionError("a well-conditioned square batch must not need pinv")

        monkeypatch.setattr(np.linalg, "pinv", no_pinv)
        got = step(jac, r)
        assert np.max(np.abs(got - want) / np.max(np.abs(want), axis=1, keepdims=True)) <= 1e-10

    def test_exactly_singular_member_gets_pinv_step(self):
        *_, step = _bilinear_system(README_PROBLEM)
        rng = np.random.default_rng(13)
        jac = rng.standard_normal((8, 6, 6)) + 5.0 * np.eye(6)
        jac[3, 4] = 0.0  # a zero row: LU meets an exact zero pivot
        r = rng.standard_normal((8, 6))
        got = step(jac, r)
        rcond = 6 * np.finfo(float).eps  # lstsq's cutoff max(2n, n+m)*eps
        for i in (3, 0):
            want = -np.linalg.pinv(jac[i], rcond=rcond) @ r[i]
            np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-12 * sup(want))
        # the pseudo-inverse step is lstsq's minimum-norm least-squares step
        lstsq, *_ = np.linalg.lstsq(jac[3], -r[3], rcond=None)
        np.testing.assert_allclose(got[3], lstsq, rtol=1e-10, atol=1e-10 * sup(lstsq))


def _with_free(problem, gf):
    g = problem.base_matrix()
    for (i, j), v in zip(problem.free, gf):
        g[i - 1, j - 1] = v
    return g


class TestPgCoincidence:
    """``check_coincidence`` on public-goods games: diag(1-d) G^T x = 0 at the equilibrium."""

    def test_empty_network(self):
        assert check_coincidence(pg(np.zeros((2, 2)), 0.0, np.ones(2), 0.5)).holds

    def test_unit_slope_degenerate(self):
        # d = 1 makes V = 0: the condition holds for every network
        game = pg([[0.0, 0.8], [-0.6, 0.0]], [1.0, 2.0], np.ones(2), 1.0)
        assert check_coincidence(game).holds

    def test_constant_gamma_reduces_to_lq_coincidence(self):
        assert check_coincidence(pg(EX3_G, 0.0, EX3_A, 0.0), tol=5e-3).holds

    def test_generic_fails(self):
        assert not check_coincidence(pg([[0.0, 0.4], [0.3, 0.0]], 0.0, np.ones(2), 0.5)).holds

    def test_negative_equilibrium_is_not_coincident(self):
        # x = (-1, 1): the sign test applies to both families, as it does to the LQ twin
        game = pg(np.zeros((2, 2)), 0.0, [-1.0, 1.0], 0.5)
        check = check_coincidence(game)
        np.testing.assert_array_equal(check.x.x, [-1.0, 1.0])
        assert not check.holds
        assert not check_coincidence(lq(np.zeros((2, 2)), [-1.0, 1.0])).holds

    def test_verdict_scales_with_the_right_hand_side(self):
        # the four-player design with c = 1e9: G^T x is ~1e-7 of rounding, within
        # tol*(1+||b||_inf) = 10; a bare tol of 1e-8 called it non-coincident
        g = four_player_symmetric_example().adjacency.g
        check = check_coincidence(pg(g, 0.0, np.full(4, 1e9), 0.3))
        assert check.holds
        assert 0.0 < check.residual_orth <= 1e-8 * (1.0 + 1e9)

    @staticmethod
    def population():
        """LQ games at n = 2..203: generic, symmetric, coincident, and singular systems."""
        rng = np.random.default_rng(26)
        games = [
            lq([[0.0, 1.0], [0.0, 0.0]], np.ones(2)),  # I+G+G^T singular
            lq([[0.0, 1.0], [1.0, 0.0]], np.ones(2)),  # I+G singular
            four_player_symmetric_example(),
        ]
        for n in (2, 3, 7, 40, PROOF_MIN_N, 130, FACTOR_SOLVE_MIN_N, FACTOR_SOLVE_MIN_N + 3):
            g = rng.normal(size=(n, n)) * (0.2 / np.sqrt(n))
            np.fill_diagonal(g, 0.0)
            games += [lq(g, rng.uniform(0.5, 1.5, n)), lq(np.triu(g) + np.triu(g).T, np.ones(n))]
            if n >= 4:
                a = rng.uniform(0.5, 1.5, n)
                games.append(lq(symmetric_design(a, seed=n).adjacency.g, a))
        return games

    def test_constant_demand_twin_matches_the_lq_game(self):
        # d = 0 gives the LQ systems bit for bit, so every field must match
        rng = np.random.default_rng(27)
        holds = []
        for game in self.population():
            twin = pg(game.adjacency.g, rng.normal(size=game.n), game.a, 0.0)
            try:
                want = check_coincidence(game)
            except SingularSystem:
                with pytest.raises(SingularSystem):
                    check_coincidence(twin)
                continue
            got = check_coincidence(twin)
            assert got.holds == want.holds
            assert got.x.x.tobytes() == want.x.x.tobytes()
            assert got.residual_orth == want.residual_orth
            assert np.float64(got.social_gap).tobytes() == np.float64(want.social_gap).tobytes()
            holds.append(got.holds)
        assert 0 < sum(holds) < len(holds)


class TestPotentialCheck:
    def test_zero_matrix(self):
        assert potential_check(AdjacencyMatrix(np.zeros((3, 3))))

    def test_symmetric_design_output(self):
        sol = symmetric_design(np.ones(5), seed=4)
        assert potential_check(sol.adjacency)

    def test_three_player_example_not_potential(self):
        assert not potential_check(AdjacencyMatrix(EX3_G))
