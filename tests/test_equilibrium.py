"""Interior, constrained, and public-goods solvers."""

import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from lcp_oracle import box_lcp_solutions
from matrix_oracles import p_matrix_check

from netgames import (
    AdjacencyMatrix,
    ErConfig,
    GammaFamily,
    MaxItersExceeded,
    NetworkGame,
    NoConvergence,
    PublicGoodsGame,
    SingularSystem,
    StepSelectionFailed,
    WeightLaw,
    cert_strong_monotone,
    coincidence_feasibility_scan,
    social_cost,
    solve_ne_interior,
    solve_ne_pg,
    solve_social_interior,
    solve_social_pg,
    solve_vi,
)
from netgames.equilibrium import (
    PROOF_MIN_N,
    RCOND_MIN,
    _gate_proven,
    _inverse,
    solve_linear,
)

EX3_G = np.array(
    [
        [0.0, -2.0, -0.273107],
        [1.18042, 0.0, 2.0],
        [-3.0, 37.229, 0.0],
    ]
)
EX3_A = np.array([1.0, 2.0, 3.0])


def lq(g, a) -> NetworkGame:
    return NetworkGame(AdjacencyMatrix(g), np.asarray(a, dtype=float))


def random_certified_game(rng, n, sigma_cap=0.6):
    """Random game scaled so the strong-monotonicity certificate holds."""
    g = rng.normal(size=(n, n))
    np.fill_diagonal(g, 0.0)
    sigma = np.linalg.svd(g, compute_uv=False)[0]
    g *= rng.uniform(0.1, sigma_cap) / (sigma * 1.5)  # sigma_max < 2/3
    game = lq(g, rng.uniform(0.2, 2.0, n))
    assert cert_strong_monotone(game.adjacency).holds
    return game


class TestInteriorNe:
    def test_zero_matrix(self):
        game = lq(np.zeros((3, 3)), np.array([1.0, 2.0, 3.0]))
        eq = solve_ne_interior(game)
        np.testing.assert_array_equal(eq.x.x, game.a)
        assert eq.kind == "interior-ne"
        assert eq.interior
        assert eq.complementarity_residual == 0.0

    def test_three_player_example(self):
        eq = solve_ne_interior(lq(EX3_G, EX3_A))
        np.testing.assert_allclose(eq.x.x, [1.4046, 0.19173, 0.07544], rtol=0, atol=1e-3)
        assert eq.stationarity_residual <= 1e-10 * (1 + np.max(np.abs(EX3_A)))

    def test_triangular_back_substitution(self):
        # oracle: x2 = 1, x1 = 1 - 0.5*x2
        game = lq(np.array([[0.0, 0.5], [0.0, 0.0]]), np.array([1.0, 1.0]))
        eq = solve_ne_interior(game)
        np.testing.assert_allclose(eq.x.x, [0.5, 1.0], rtol=0, atol=1e-14)

    def test_singular_system(self):
        game = lq(np.array([[0.0, -1.0], [-1.0, 0.0]]), np.ones(2))
        with pytest.raises(SingularSystem):
            solve_ne_interior(game)

    def test_negative_solution_not_clamped(self):
        game = lq(np.array([[0.0, 2.0], [0.0, 0.0]]), np.array([1.0, 1.0]))
        eq = solve_ne_interior(game)
        assert eq.x.x[0] == pytest.approx(-1.0, abs=1e-12)
        assert not eq.interior


class TestInteriorSocial:
    def test_zero_matrix(self):
        game = lq(np.zeros((2, 2)), np.array([1.0, 2.0]))
        eq = solve_social_interior(game)
        np.testing.assert_array_equal(eq.x.x, game.a)
        assert eq.kind == "interior-social"

    def test_symmetric_null_identity(self):
        # symmetric G with Ga=0 leaves y = a
        from netgames import four_player_symmetric_example

        game = four_player_symmetric_example()
        eq = solve_social_interior(game)
        np.testing.assert_allclose(eq.x.x, game.a, rtol=0, atol=1e-12)

    def test_two_player_hand_solve(self):
        # (I+G+G^T) = [[1,2],[2,1]]; oracle by Cramer: x = (1/3, 1/3)
        game = lq(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 1.0]))
        eq = solve_social_interior(game)
        np.testing.assert_allclose(eq.x.x, [1 / 3, 1 / 3], rtol=0, atol=1e-14)

    def test_minimizes_social_cost(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            game = random_certified_game(rng, 4)
            y = solve_social_interior(game).x.x
            base = social_cost(game, y)
            for _ in range(100):
                v = rng.normal(size=4)
                v /= np.linalg.norm(v)
                x = y + 1e-3 * v
                assert social_cost(game, x) >= base - 1e-12

    def test_matches_generic_minimizer(self):
        # independent oracle: derivative-free minimization of the cost itself
        from scipy.optimize import minimize

        rng = np.random.default_rng(101)
        for _ in range(5):
            game = random_certified_game(rng, 3)
            y = solve_social_interior(game).x.x
            res = minimize(
                lambda x: social_cost(game, x),
                x0=rng.uniform(0, 2, 3),
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000},
            )
            np.testing.assert_allclose(y, res.x, rtol=0, atol=1e-5)


class TestSolveLinear:
    """The one-inverse kernel behind every interior and public-goods solve."""

    @staticmethod
    def seeded_games(n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(3):
            g = rng.normal(size=(n, n)) * (0.5 / np.sqrt(n))
            np.fill_diagonal(g, 0.0)
            yield g, rng.uniform(-1.0, 2.0, n), rng.uniform(-0.5, 0.9, n)

    @pytest.mark.parametrize("n", [5, 50, PROOF_MIN_N, 200])
    def test_agrees_with_scipy(self, n):
        # independent oracle: scipy's LU solve on matrices assembled with explicit diagonals
        from scipy.linalg import solve

        def rel_err(x, ref):
            return np.max(np.abs(x - ref)) / np.max(np.abs(ref))

        eye = np.eye(n)
        for g, a, d in self.seeded_games(n):
            game = lq(g, a)
            assert rel_err(solve_ne_interior(game).x.x, solve(eye + g, a)) <= 1e-12
            assert rel_err(solve_social_interior(game).x.x, solve(eye + g + g.T, a)) <= 1e-12
            pg = PublicGoodsGame(AdjacencyMatrix(g), np.abs(a), GammaFamily.affine(a, d))
            b = a + d * np.abs(a)
            v = np.diag(1.0 - d)
            assert rel_err(solve_ne_pg(pg).x.x, solve(eye + v @ g, b)) <= 1e-12
            assert rel_err(solve_social_pg(pg).x.x, solve(eye + v @ g.T + v @ g, b)) <= 1e-12

    def test_exactly_singular_raises_singular_system(self):
        m = np.eye(2) + np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(SingularSystem):
            solve_linear(m, np.ones(2), 1e-10)

    def test_near_singular_raises(self):
        # det(I+G) = eps and kappa_1 = 4/eps, so rcond ~ 1e-14 < RCOND_MIN
        eps = 4e-14
        game = lq(np.array([[0.0, -1.0], [eps - 1.0, 0.0]]), np.ones(2))
        m = np.eye(2) + game.adjacency.g
        assert 1.0 / np.linalg.cond(m, 1) < RCOND_MIN
        with pytest.raises(SingularSystem):
            solve_ne_interior(game)

    def test_ill_conditioned_meets_residual_target(self):
        # kappa_2 = 1e8 by construction; refinement must reach the target
        rng = np.random.default_rng(7)
        n = 40
        u, _ = np.linalg.qr(rng.normal(size=(n, n)))
        v, _ = np.linalg.qr(rng.normal(size=(n, n)))
        m = (u * np.logspace(0, -8, n)) @ v.T
        x_true = rng.uniform(-1.0, 1.0, n)
        b = m @ x_true
        target = 1e-10 * (1.0 + np.max(np.abs(b)))
        x = solve_linear(m, b, target)
        assert np.max(np.abs(b - m @ x)) <= target
        assert np.max(np.abs(x - x_true)) <= 1e-5

    def test_rcond_is_exact_one_norm(self):
        # independent oracle: numpy's own 1-norm condition number
        rng = np.random.default_rng(11)
        for n in (2, 9, 60):
            m = np.eye(n) + rng.normal(size=(n, n)) * (0.8 / np.sqrt(n))
            inv, rcond = _inverse(m)
            assert rcond == pytest.approx(1.0 / np.linalg.cond(m, 1), rel=1e-12)
            np.testing.assert_allclose(inv @ m, np.eye(n), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 4, 30, PROOF_MIN_N + 8])
    def test_stack_equals_per_matrix_calls_bit_for_bit(self, n):
        rng = np.random.default_rng(50 + n)
        ms = np.eye(n) + rng.normal(size=(7, n, n)) * (0.6 / np.sqrt(n))
        # an ill-conditioned member (kappa_2 = 1e8) needs refinement steps the others do not
        u, _ = np.linalg.qr(rng.normal(size=(n, n)))
        ms[3] = (u * np.logspace(0, -8, n)) @ u.T
        b = rng.uniform(-1.0, 2.0, (7, n))
        b[3] = ms[3] @ rng.uniform(-1.0, 1.0, n)
        # two members whose symmetric part is negative definite: from PROOF_MIN_N on the
        # monotone members take the proven solve and these two, one ill-conditioned, the inverse
        ms = np.concatenate([ms, -ms[[0, 3]]])
        b = np.concatenate([b, rng.uniform(-1.0, 2.0, (1, n)), [ms[8] @ rng.uniform(-1.0, 1.0, n)]])
        target = 1e-10 * (1.0 + np.max(np.abs(b)))
        inv, rcond = _inverse(ms)
        for stack, rhs in ((ms, b), (ms, b[3]), (ms[:3], b[0])):  # per member, then broadcast
            x, ok = solve_linear(stack, rhs, target)
            assert ok.shape == (len(stack),) and ok.all()
            for k, m in enumerate(stack):
                want = solve_linear(m, rhs if rhs.ndim == 1 else rhs[k], target)
                assert x[k].tobytes() == want.tobytes()
        for k in range(len(ms)):
            inv_k, rcond_k = _inverse(ms[k])
            assert inv[k].tobytes() == inv_k.tobytes() and rcond[k] == rcond_k

    def test_stack_flags_only_the_failing_members(self):
        rng = np.random.default_rng(3)
        exactly_singular = np.eye(2) + np.array([[0.0, -1.0], [-1.0, 0.0]])
        near_singular = np.eye(2) + np.array([[0.0, -1.0], [4e-14 - 1.0, 0.0]])
        ms = np.eye(2) + rng.normal(size=(6, 2, 2)) * 0.3
        ms[1], ms[4] = exactly_singular, near_singular
        b = np.ones(2)
        with pytest.raises(SingularSystem, match="exactly singular"):
            solve_linear(ms[1], b, 1e-10)
        with pytest.raises(SingularSystem, match="numerically singular"):
            solve_linear(ms[4], b, 1e-10)
        x, ok = solve_linear(ms, b, 1e-10)
        assert ok.tolist() == [True, False, True, True, False, True]
        assert np.isnan(x[~ok]).all()
        for k in np.flatnonzero(ok):
            assert x[k].tobytes() == solve_linear(ms[k], b, 1e-10).tobytes()
        _, rcond = _inverse(ms)
        assert np.isnan(rcond[1]) and 0.0 < rcond[4] < RCOND_MIN
        # a target no member can meet flags every member
        with pytest.raises(SingularSystem, match="iterative refinement"):
            solve_linear(ms[0], b, -1.0)
        x, ok = solve_linear(ms, b, -1.0)
        assert not ok.any() and np.isnan(x).all()

    def test_overflowing_norm_product_is_singular_not_a_warning(self):
        # ||M||_1 = ||M^-1||_1 = 1 + 1e300: their product overflows, rcond underflows to 0
        m = np.array([[1.0, 1e300], [0.0, 1.0]])
        with pytest.raises(SingularSystem, match="numerically singular"):
            solve_linear(m, np.ones(2), 1e-10)
        _, rcond = _inverse(np.stack([m, np.eye(2)]))
        assert rcond.tolist() == [0.0, 1.0]
        # a directed chain of 1e300 weights: its inverse holds entries near 1e300
        config = ErConfig(n=27, p=0.0073364157625408506, samples=3, seed=361430,
                          weight_law=WeightLaw("gaussian", mu=0.16524466870206347, sigma=1e300),
                          directed=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = coincidence_feasibility_scan(config, np.ones(27))
        assert counts.tested == 3

    @staticmethod
    def oracle_population():
        """Seeded systems at n in [PROOF_MIN_N, 2 PROOF_MIN_N], scaled over ten decades."""
        rng = np.random.default_rng(16)

        def orthogonal(n):
            return np.linalg.qr(rng.normal(size=(n, n)))[0]

        for k in range(60):
            n = int(rng.integers(PROOF_MIN_N, 2 * PROOF_MIN_N + 1))
            kind = ("definite", "indefinite", "near-singular", "near-singular definite",
                    "near the cut", "near the cut definite")[k % 6]
            if kind == "definite":
                m = np.eye(n) + rng.normal(size=(n, n)) * (rng.uniform(0.1, 0.6) / np.sqrt(n))
            elif kind == "indefinite":
                m = np.diag(rng.choice([-1.0, 1.0], n)) + rng.normal(size=(n, n)) * (0.3 / np.sqrt(n))
            else:  # sigma_min = 1e-14 sigma_max, or kappa_2 in [1e9, 1e13] around the cut
                q = orthogonal(n)
                spectrum = np.logspace(0, -14 if "singular" in kind else -rng.uniform(9, 13), n)
                m = (q * spectrum) @ (q if "definite" in kind else orthogonal(n)).T
            m *= 10.0 ** rng.uniform(-5.0, 5.0)
            yield kind, m, m @ rng.uniform(-1.0, 1.0, n)

    def test_proof_keeps_every_verdict_of_the_exact_gate(self):
        # independent oracles: numpy's 1-norm condition number for the verdict, scipy's LU
        # solve for the solution
        from scipy.linalg import solve

        verdicts = set()
        for kind, m, b in self.oracle_population():
            target = 1e-10 * (1.0 + np.max(np.abs(b)))
            gate = 1.0 / np.linalg.cond(m, 1) >= RCOND_MIN
            verdicts.add((kind, bool(gate), _gate_proven(m)))
            try:
                x = solve_linear(m, b, target)
            except SingularSystem:
                assert not gate, kind
                continue
            assert gate, kind
            assert np.max(np.abs(b - m @ x)) <= target
            if not kind.startswith("near"):
                ref = solve(m, b)
                assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref)), kind
        # (kind, exact gate, proof): near the cut the proof holds on some of the definite
        # members that pass the gate, and on no member anywhere that fails it
        assert verdicts == {
            ("definite", True, True),
            ("indefinite", True, False),
            ("near-singular", False, False),
            ("near-singular definite", False, False),
            ("near the cut", True, False),
            ("near the cut", False, False),
            ("near the cut definite", True, True),
            ("near the cut definite", True, False),
            ("near the cut definite", False, False),
        }

    def test_proof_replaces_the_inverse(self, monkeypatch):
        calls = {"inv": 0, "solve": 0}
        for name in calls:
            def counting(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)

        def count(m, target=1e-10):
            calls.update(inv=0, solve=0)
            with contextlib.suppress(SingularSystem):
                solve_linear(m, np.ones(m.shape[-1]), target)
            return calls["inv"], calls["solve"]

        rng = np.random.default_rng(5)
        n = PROOF_MIN_N
        monotone = np.eye(n) + rng.normal(size=(n, n)) * (0.3 / np.sqrt(n))
        assert count(monotone) == (0, 1)
        assert count(-monotone) == (1, 0)  # no proof: the inverse decides
        assert count(monotone, target=-1.0) == (1, 1)  # proof, but the target is missed
        assert count(monotone[:-1, :-1]) == (1, 0)  # below PROOF_MIN_N
        assert count(1e300 * monotone) == count(1e-300 * monotone) == (0, 1)  # scale-free
        assert count(np.stack([monotone, -monotone])) == (1, 1)  # each member as alone

    def test_proof_shift_is_sigma_plus_the_rounding_allowance(self):
        # U = diag(1, ..., 1, t): ||U||_1 = 1, and Cholesky of a diagonal is exact, so the
        # proof holds exactly when t exceeds sigma + 2n^2 eps
        n = PROOF_MIN_N
        shift = np.sqrt(n) * RCOND_MIN + 2.0 * n * n * np.finfo(float).eps
        for t, proven in ((np.sqrt(n) * RCOND_MIN, False), (0.99 * shift, False),
                          (1.01 * shift, True)):
            m = np.eye(n)
            m[-1, -1] = t
            assert _gate_proven(m) is proven
            assert _gate_proven(-m) is False

    def test_stack_member_with_an_overflowing_inverse_warns_nothing(self):
        # the second row is subnormal: LU succeeds, the inverse holds inf
        ms = np.stack([np.eye(2), np.array([[1.0, 2.0], [3e-310, 4e-310]])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, ok = solve_linear(ms, np.ones(2), 1e-10)
        assert ok.tolist() == [True, False]
        np.testing.assert_array_equal(x[0], [1.0, 1.0])

    def test_entries_near_the_largest_double_warn_nothing(self):
        # rcond_1 = 0.25 for both, though the column sums of |M| overflow; the second takes
        # the proven path
        small = 1e308 * np.array([[1.0, 0.0], [1.0, 1.0]])
        large = 1e308 * np.eye(PROOF_MIN_N + 6)
        large[0, 1] = 1e308
        stack = np.stack([np.eye(2), small])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _gate_proven(large)
            for m in (small, large):
                b = np.ones(m.shape[-1])
                assert np.max(np.abs(b - m @ solve_linear(m, b, 1e-10))) <= 1e-10
                assert _inverse(m)[1] == 0.25
            x, ok = solve_linear(stack, np.ones(2), 1e-10)
            _, rcond = _inverse(stack)
        assert ok.all() and x[1].tobytes() == solve_linear(small, np.ones(2), 1e-10).tobytes()
        assert rcond.tolist() == [1.0, 0.25]


class TestSolveVi:
    def test_public_goods_game_is_a_typed_error(self):
        pg = PublicGoodsGame(AdjacencyMatrix(np.zeros((2, 2))), np.zeros(2),
                             GammaFamily.affine(np.ones(2), np.zeros(2)))
        with pytest.raises(ValueError, match="NetworkGame"):
            solve_vi(pg)

    def test_projection_inactive(self):
        game = lq(np.zeros((3, 3)), np.array([1.0, 0.5, 2.0]))
        eq = solve_vi(game, x0=np.array([5.0, 5.0, 5.0]))
        np.testing.assert_allclose(eq.x.x, game.a, rtol=0, atol=1e-10)
        assert eq.kind == "constrained-ne"

    def test_boundary_solution(self):
        # one-dimensional KKT by hand: x=(0,2), F_1(x)=1>0
        game = lq(np.zeros((2, 2)), np.array([-1.0, 2.0]))
        eq = solve_vi(game, x0=np.zeros(2))
        np.testing.assert_allclose(eq.x.x, [0.0, 2.0], rtol=0, atol=1e-10)
        assert not eq.interior
        assert eq.complementarity_residual <= 1e-10

    def test_agrees_with_interior_solve(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            game = random_certified_game(rng, 5)
            interior = solve_ne_interior(game)
            if not interior.interior:
                continue
            for _ in range(10):
                eq = solve_vi(game, x0=rng.uniform(0, 2, 5))
                np.testing.assert_allclose(eq.x.x, interior.x.x, rtol=0, atol=1e-6)

    def test_social_mapping(self):
        game = lq(np.array([[0.0, 0.2], [0.1, 0.0]]), np.array([1.0, 1.0]))
        eq = solve_vi(game, which="social")
        y = solve_social_interior(game)
        np.testing.assert_allclose(eq.x.x, y.x.x, rtol=0, atol=1e-8)
        assert eq.kind == "constrained-social"

    def test_complementarity_contract(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = rng.integers(2, 6)
            g = rng.normal(size=(n, n)) * 0.1
            np.fill_diagonal(g, 0.0)
            game = lq(g, rng.uniform(-1, 1, n))
            eq = solve_vi(game)
            f = game.adjacency.g @ eq.x.x + eq.x.x - game.a
            assert np.min(eq.x.x) >= 0.0
            assert np.min(f) >= -1e-10
            assert np.max(np.abs(eq.x.x * f)) <= 1e-10

    def test_upper_bound_box(self):
        # unconstrained solution is a=(1,3); the box caps player 2 at 2
        game = NetworkGame(
            AdjacencyMatrix(np.zeros((2, 2))),
            np.array([1.0, 3.0]),
            upper_bound=np.array([10.0, 2.0]),
        )
        eq = solve_vi(game)
        np.testing.assert_allclose(eq.x.x, [1.0, 2.0], rtol=0, atol=1e-10)
        assert eq.complementarity_residual <= 1e-10

    def test_max_iters_exceeded_reports_best(self):
        game = lq(np.zeros((2, 2)), np.array([1.0, 1.0]))
        with pytest.raises(MaxItersExceeded) as info:
            solve_vi(game, max_iters=1, tol=1e-14, x0=np.array([5.0, 5.0]))
        assert info.value.best_x is not None

    def test_failures_are_one_no_convergence_family(self):
        assert issubclass(StepSelectionFailed, NoConvergence)
        assert issubclass(MaxItersExceeded, NoConvergence)
        # LCP(I+G, -a) without a solution: pivoting revisits a basis
        with pytest.raises(NoConvergence) as info:
            solve_vi(lq(np.array([[0.0, -2.0], [-2.0, 0.0]]), np.ones(2)))
        assert type(info.value) is StepSelectionFailed
        with pytest.raises(NoConvergence) as info:
            solve_vi(lq(np.zeros((2, 2)), np.ones(2)), max_iters=1, x0=np.array([5.0, 5.0]))
        assert type(info.value) is MaxItersExceeded

    def test_rejects_bad_args(self):
        game = lq(np.zeros((2, 2)), np.ones(2))
        with pytest.raises(ValueError):
            solve_vi(game, tol=0.0)
        with pytest.raises(ValueError):
            solve_vi(game, which="other")

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_p_matrix_games_match_enumeration(self, data):
        # a P-matrix M gives one solution for every a; Murty's finiteness covers
        # the orthant only, so the box draws are what check the box variant
        n = data.draw(st.integers(1, 8), label="n")
        unit = arrays(float, (n, n), elements=st.floats(-1.0, 1.0), fill=st.nothing())
        g = data.draw(unit, label="g")
        g = g * data.draw(st.floats(0.0, 1.5), label="scale") / np.sqrt(n)
        np.fill_diagonal(g, 0.0)
        a = data.draw(arrays(float, n, elements=st.floats(-1.0, 2.0)), label="a")
        ub = data.draw(st.none() | arrays(float, n, elements=st.floats(0.1, 2.0)), label="ub")
        which = data.draw(st.sampled_from(("ne", "social")), label="which")
        x0 = data.draw(arrays(float, n, elements=st.floats(0.0, 2.0)), label="x0")
        m = np.eye(n) + g + (g.T if which == "social" else 0.0)
        assume(p_matrix_check(m))
        expected = box_lcp_solutions(m, a, ub)
        assert len(expected) >= 1
        game = NetworkGame(AdjacencyMatrix(g), a, ub)
        for start in (None, x0):
            eq = solve_vi(game, which=which, x0=start)
            # every oracle point is this one (a degenerate solution shows up once per state)
            assert np.max(np.abs(expected - eq.x.x)) <= 1e-8


@pytest.fixture(scope="module")
def scalable_p_games():
    """Seeded P-matrix games, orthant and box, ne and social, each with its oracle solution."""
    rng = np.random.default_rng(19)
    games = []
    while len(games) < 24:
        n = int(rng.integers(2, 6))
        g = rng.normal(size=(n, n)) * rng.uniform(0.3, 2.0) / np.sqrt(n)
        np.fill_diagonal(g, 0.0)
        a = rng.uniform(-1.0, 2.0, n)
        ub = rng.uniform(0.5, 2.0, n) if len(games) % 2 else None
        which = ("ne", "social")[len(games) // 2 % 2]
        m = np.eye(n) + g + (g.T if which == "social" else 0.0)
        if p_matrix_check(m):
            (x,) = box_lcp_solutions(m, a, ub)
            games.append((g, a, ub, which, rng.uniform(0.0, 2.0, n), x))
    return games


@pytest.mark.parametrize("k", range(-6, 9))
def test_p_matrix_solution_scales_with_the_data(scalable_p_games, k):
    # LCP(M, -a) is positively homogeneous: (s*a, s*ub, s*x0) is solved by s*x
    s = 10.0**k
    for g, a, ub, which, x0, x in scalable_p_games:
        game = NetworkGame(AdjacencyMatrix(g), s * a, None if ub is None else s * ub)
        for start in (None, s * x0):
            eq = solve_vi(game, which=which, x0=start)
            assert np.max(np.abs(eq.x.x - s * x)) <= 1e-8 * (1.0 + s * np.max(np.abs(a)))


class TestSolveNePg:
    def test_constant_gamma_reduction(self):
        rng = np.random.default_rng(59)
        g = rng.normal(size=(4, 4)) * 0.1
        np.fill_diagonal(g, 0.0)
        c = rng.uniform(0.5, 1.5, 4)
        pg = PublicGoodsGame(AdjacencyMatrix(g), np.zeros(4), GammaFamily.affine(c, np.zeros(4)))
        eq = solve_ne_pg(pg)
        ref = solve_ne_interior(lq(g, c))
        np.testing.assert_allclose(eq.x.x, ref.x.x, rtol=0, atol=1e-12)
        assert eq.kind == "pg-ne"

    def test_single_player_fixed_point(self):
        # oracle: x = 0.5 + 0.25*(1 + 0) => x = 0.75
        pg = PublicGoodsGame(
            AdjacencyMatrix(np.zeros((1, 1))),
            np.array([1.0]),
            GammaFamily.affine(np.array([0.5]), np.array([0.25])),
        )
        eq = solve_ne_pg(pg)
        assert eq.x.x[0] == pytest.approx(0.75, abs=1e-12)

    def test_two_player_linear_oracle(self):
        # oracle: Cramer solve of (I + 0.5*G) x = (1, 1)
        g = np.array([[0.0, 0.2], [0.1, 0.0]])
        m = np.eye(2) + 0.5 * g
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        x_oracle = np.array(
            [(m[1, 1] - m[0, 1]) / det, (m[0, 0] - m[1, 0]) / det]
        )
        pg = PublicGoodsGame(
            AdjacencyMatrix(g),
            np.zeros(2),
            GammaFamily.affine(np.array([1.0, 1.0]), np.array([0.5, 0.5])),
        )
        eq = solve_ne_pg(pg)
        np.testing.assert_allclose(eq.x.x, x_oracle, rtol=0, atol=1e-12)
        np.testing.assert_allclose(eq.x.x, [0.904522613065, 0.954773869347], rtol=0, atol=1e-10)


class TestSolveSocialPg:
    def test_constant_gamma_reduction(self):
        rng = np.random.default_rng(61)
        g = rng.normal(size=(3, 3)) * 0.1
        np.fill_diagonal(g, 0.0)
        c = rng.uniform(0.5, 1.5, 3)
        pg = PublicGoodsGame(AdjacencyMatrix(g), np.zeros(3), GammaFamily.affine(c, np.zeros(3)))
        eq = solve_social_pg(pg)
        ref = solve_social_interior(lq(g, c))
        np.testing.assert_allclose(eq.x.x, ref.x.x, rtol=0, atol=1e-12)
        assert eq.kind == "pg-social"

    def test_empty_network_scalar(self):
        pg = PublicGoodsGame(
            AdjacencyMatrix(np.zeros((1, 1))),
            np.array([1.0]),
            GammaFamily.affine(np.array([0.5]), np.array([0.25])),
        )
        assert solve_social_pg(pg).x.x[0] == pytest.approx(0.75, abs=1e-12)

    def test_unit_slope_matches_ne_system(self):
        # d = 1 kills the transpose term: same system as the NE solve
        g = np.array([[0.0, 0.3, -0.2], [0.1, 0.0, 0.2], [-0.1, 0.4, 0.0]])
        theta = np.array([1.0, 2.0, 0.5])
        fam = GammaFamily.affine(np.array([0.2, 0.4, 0.1]), np.ones(3))
        pg = PublicGoodsGame(AdjacencyMatrix(g), theta, fam)
        np.testing.assert_allclose(
            solve_social_pg(pg).x.x, solve_ne_pg(pg).x.x, rtol=0, atol=1e-12
        )

    def test_game_of_the_other_kind_is_a_typed_error(self):
        game = lq(np.zeros((2, 2)), np.ones(2))
        pg = PublicGoodsGame(AdjacencyMatrix(np.zeros((2, 2))), np.zeros(2),
                             GammaFamily.affine(np.ones(2), np.zeros(2)))
        for solve, other in ((solve_ne_pg, game), (solve_social_pg, game),
                             (solve_ne_interior, pg), (solve_social_interior, pg)):
            with pytest.raises(ValueError, match="cannot take"):
                solve(other)
