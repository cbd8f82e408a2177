"""Seeded inputs, operations and independent output checks for the four workloads.

An operation ("op") is one public library call or one ``cli.main(argv)`` call.
A workload is a pool of rounds; each round is a fixed list of ops whose mix
sets where the median and the 90th percentile of op latency fall (see
``BASELINE.md``).  Rounds are run whole, so the mix is the same in every run.

Every op is judged here with numpy, outside the library's own residual code.
A judgement is ``"ok"``, ``"known:<defect>"`` or ``"fail:<reason>"``.  Only
the catalogued inputs below may be ``known:``, only with their catalogued error,
and only when an independent oracle shows the input to be solvable; any other
failure is ``fail:`` and makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import os

import numpy as np

import netgames as ng
from netgames import cli

TOL = 1e-8
PAPER_X = np.array([1.4046, 0.19173, 0.07544])
PAPER_FREE = (1.18042, -0.273107, 37.229)  # (g21, g13, g32)
README_GAME = {"n": 3, "g": [[0.0, -2.0, -0.273107], [1.18042, 0.0, 2.0],
                             [-3.0, 37.229, 0.0]], "a": [1.0, 2.0, 3.0]}
README_PG = {"n": 2, "g": [[0.0, 0.2], [0.1, 0.0]], "a": [1.0, 1.0], "theta": [0.0, 0.0],
             "gamma": {"c": [1.0, 1.0], "d": [0.5, 0.5]}}
README_PROBLEM = {"n": 3, "a": [1.0, 2.0, 3.0], "fixed": [[1, 2, -2.0], [3, 1, -3.0], [2, 3, 2.0]],
                  "free": [[2, 1], [1, 3], [3, 2]]}
README_PATTERN = {"n": 4, "g": [[0, 0, 1, 1], [0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]}
README_GRID = np.linspace(-0.6, 0.6, 121)

# Catalogued library defects; both reproduce on the baseline commit.
#
# STEP_FAIL: solve_vi raises StepSelectionFailed on a solvable LCP.  Catalogued
# inputs: the README grid points with delta <= -0.51 (the first STEP_FAIL_POINTS),
# the README constrained sweep, and through the CLI `solve --constrained` on the
# README game.json and the README `perturb --constrained`.
STEP_FAIL = "known:solve_vi-step-selection"
STEP_FAIL_POINTS = 10
STEP_FAIL_CLI = "error: step halving bottomed out"  # how the CLI prints StepSelectionFailed
# IR_BOX: ir_check re-validates a box-constrained equilibrium against the unbounded
# VI and raises NotAnEquilibrium.  Catalogued input: G=[[0,.1],[.1,0]], a=[2,2],
# ub=[.5,.5]; the random box games, whose bounds all bind, hit the same defect.
IR_BOX = "known:ir_check-box"


def _fail(reason):
    return "fail:" + reason


def _ok_if(cond, reason):
    return "ok" if cond else _fail(reason)


class Op:
    """One timed call and the judgement of its outcome.

    ``call(ctx)`` runs the op.  On return, ``check(result, ctx)`` judges the
    result; on an exception, ``on_error(exc, ctx)`` judges it, and without an
    ``on_error`` any exception is a failure.  With ``key`` set the result is
    kept in the round context so a later op of the round can use it.
    """

    __slots__ = ("kind", "call", "check", "key", "samples", "on_error")

    def __init__(self, kind, call, check, key=None, samples=0, on_error=None):
        self.kind, self.call, self.check, self.key = kind, call, check, key
        self.samples = samples  # random-network samples the op asks for
        self.on_error = on_error

    def judge(self, res, exc, ctx) -> str:
        if exc is None:
            return self.check(res, ctx)
        if self.on_error is not None:
            return self.on_error(exc, ctx)
        return _fail(type(exc).__name__)


class Workload:
    def __init__(self, name, rounds, trace_rounds, digest, reference, final_check=None,
                 cleanup=None):
        self.name = name
        self.rounds = rounds
        self.trace_rounds = trace_rounds  # rounds in the traced fixed batch
        self.digest = digest
        self.reference = reference  # machine-speed kernel kind, see worker.REF_NOMINAL_S
        self.final_check = final_check or (lambda: "ok")
        self.cleanup = cleanup or (lambda: None)


class _Digest:
    """SHA-256 over every generated input, to show that a seed fixes the inputs."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items):
        for item in items:
            if isinstance(item, np.ndarray):
                self._h.update(np.ascontiguousarray(item, dtype=float).tobytes())
            else:
                self._h.update(repr(item).encode())
        return items[0] if len(items) == 1 else items

    def hexdigest(self):
        return self._h.hexdigest()[:16]


def _inf(v) -> float:
    v = np.asarray(v, dtype=float)
    return float(np.max(np.abs(v))) if v.size else 0.0


def _close(found, want, tol=1e-9):
    return abs(found - want) <= tol * (1.0 + abs(want))


# ---------------------------------------------------------------- references

class _Refs:
    """Reference quantities per input, computed once with numpy outside op timing."""

    def __init__(self):
        self._cache = {}

    def _get(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def margins(self, g):
        """Expected margin of each norm certificate, and the gamma-P verdict."""
        def make():
            sigma = float(np.linalg.svd(g, compute_uv=False)[0])
            row = float(np.max(np.sum(np.abs(g), axis=1)))
            col = float(np.max(np.sum(np.abs(g), axis=0)))
            b = np.abs(2.0 * g + g.T)
            np.fill_diagonal(b, 0.0)
            return {
                "prop1-strong-monotone": 2.0 - 3.0 * sigma,
                "prop2-block-p": 2.0 - 2.0 * row - col,
                "gershgorin": 2.0 - float(np.max(np.sum(b, axis=1))),
                "continuity-spectral": 1.0 - sigma,
                "continuity-rowsum": 1.0 - row,
                # Gamma = 2I - B with B >= 0 is a P-matrix iff rho(B) < 2 (M-matrix test)
                "gamma-p-matrix": bool(np.max(np.abs(np.linalg.eigvals(b))) < 2.0),
            }
        return self._get(("margins", id(g)), make)

    def lcp_solution(self, m, a):
        """A solution of x >= 0, Mx - a >= 0, x.(Mx - a) = 0 by support enumeration, or None."""
        def make():
            n = len(a)
            for size in range(n + 1):
                for support in itertools.combinations(range(n), size):
                    s = list(support)
                    x = np.zeros(n)
                    if s:
                        sub = m[np.ix_(s, s)]
                        if abs(np.linalg.det(sub)) < 1e-12:
                            continue
                        x[s] = np.linalg.solve(sub, a[s])
                    if np.all(x >= -1e-10) and np.all(m @ x - a >= -1e-10):
                        return x
            return None
        return self._get(("lcp", m.tobytes(), a.tobytes()), make)


def _vi_matrix(g, which):
    return np.eye(g.shape[0]) + g + (g.T if which == "social" else 0.0)


def _vi_residuals(m, a, x, ub):
    """Box-aware natural residual and complementarity of VI([0, ub], Mx - a)."""
    f = m @ x - a
    hi = np.inf if ub is None else ub
    natural = _inf(x - np.clip(x - f, 0.0, hi))
    comp = _inf(np.minimum(x, np.maximum(f, 0.0)))
    if ub is not None:
        comp = max(comp, _inf(np.minimum(ub - x, np.maximum(-f, 0.0))))
    return natural, comp


def _lq_costs(g, a, x):
    return 0.5 * x * x + (g @ x - a) * x


def _pg_residual(game, y, social):
    g, c, d, theta = game.adjacency.g, game.gamma.c, game.gamma.d, game.theta
    z = g @ y
    r = y + z - (c + d * (theta + z))
    return _inf(r + (1.0 - d) * (g.T @ y) if social else r)


def _check_certificates(found, margins):
    """``found`` is a list of (name, margin, holds) in the library's fixed order."""
    for name, margin, holds in found:
        if name not in margins:
            return _fail(f"unknown certificate {name!r}")
        if holds != (margin > 0):
            return _fail(f"{name} verdict and margin disagree")
        want = margins[name]
        if name == "gamma-p-matrix":
            if holds != want:
                return _fail("gamma-P verdict disagrees with rho(2I - Gamma) < 2")
        elif not _close(margin, want):
            return _fail(f"{name} margin {margin} vs {want}")
    return "ok"


def _readme_grid_games():
    base = ng.four_player_symmetric_example()
    pattern = np.array(README_PATTERN["g"], dtype=float)
    return base, pattern, [base.adjacency.g + d * pattern for d in README_GRID]


def _grid_solvable(refs, grid_gs, a):
    return all(refs.lcp_solution(_vi_matrix(g, "ne"), a) is not None for g in grid_gs)


# ---------------------------------------------------------------- dense-interior

DENSE_SIZES = (100, 200, 400, 800)
DENSE_POOL = 4  # games per size and family; index 3 is the coincident LQ game


def _generic_lq(rng, n):
    g = rng.standard_normal((n, n)) * (0.15 / np.sqrt(n))  # ||G||_2 ~ 0.3
    np.fill_diagonal(g, 0.0)
    x = rng.uniform(0.5, 1.5, n)
    return ng.NetworkGame(ng.AdjacencyMatrix(g), x + g @ x)


def _coincident_lq(rng, n):
    """Block-diagonal copies of the symmetric 4-player design under a random relabelling.

    Each block has Ga = 0 for a constant a, so x* = a and G^T x* = 0.
    """
    g = np.zeros((n, n))
    a = np.empty(n)
    for k in range(0, n, 4):
        t, u = rng.uniform(0.03, 0.1, 2)
        g[k:k + 4, k:k + 4] = ng.four_player_symmetric_example(t, u).adjacency.g
        a[k:k + 4] = rng.uniform(0.5, 2.0)
    perm = rng.permutation(n)
    return ng.NetworkGame(ng.AdjacencyMatrix(g[np.ix_(perm, perm)]), a[perm])


def _generic_pg(rng, n):
    g = rng.standard_normal((n, n)) * (0.15 / np.sqrt(n))
    np.fill_diagonal(g, 0.0)
    d = rng.uniform(0.1, 0.4, n)
    theta = rng.uniform(0.0, 1.0, n)
    x = rng.uniform(0.5, 1.5, n)
    c = x + (1.0 - d) * (g @ x) - d * theta  # so the Nash equilibrium is x
    return ng.PublicGoodsGame(ng.AdjacencyMatrix(g), theta, ng.GammaFamily.affine(c, d))


def _lq_ops(game, n, coincident, refs):
    g, a, adj = game.adjacency.g, game.a, game.adjacency
    scale = 1.0 + _inf(a)

    def check_solve(kind, which):
        def check(res, ctx):
            r = _inf(_vi_matrix(g, which) @ res.x.x - a)
            if res.kind != kind or r > TOL * scale:
                return _fail(f"{kind} residual {r:.2e}")
            return _ok_if(which == "social" or res.interior, "interior NE not flagged interior")
        return check

    def check_cc(res, ctx):
        x = res.x.x
        orth = _inf(g.T @ x)
        if _inf(x + g @ x - a) > TOL * scale or not _close(res.residual_orth, orth, 1e-10):
            return _fail("coincidence residuals")
        if coincident:
            return _ok_if(res.holds and _inf(x - a) <= TOL * scale and res.social_gap <= TOL,
                          "coincident game not recognised")
        return _ok_if(not res.holds and orth > 1e-4, "generic game reported coincident")

    def check_ir(res, ctx):
        x = ctx["ne"].x.x
        costs = _lq_costs(g, a, x)
        found = np.array([p.cost_at_eq for p in res.players])
        return _ok_if(len(found) == game.n and _inf(found - costs) <= 1e-9 * scale**2
                      and np.allclose(costs, -0.5 * x * x, atol=1e-9 * scale**2)
                      and res.all_rational, "ir report")

    def check_certs(res, ctx):
        certs = res if isinstance(res, tuple) else (res,)
        return _check_certificates([(c.name, c.margin, c.holds) for c in certs], refs.margins(g))

    return [
        Op(f"solve_ne_interior@{n}", lambda ctx: ng.solve_ne_interior(game),
           check_solve("interior-ne", "ne"), key="ne"),
        Op(f"solve_social_interior@{n}", lambda ctx: ng.solve_social_interior(game),
           check_solve("interior-social", "social")),
        Op(f"check_coincidence@{n}", lambda ctx: ng.check_coincidence(game), check_cc),
        Op(f"ir_check@{n}", lambda ctx: ng.ir_check(game, ctx["ne"]), check_ir),
        Op(f"cert_strong_monotone@{n}", lambda ctx: ng.cert_strong_monotone(adj), check_certs),
        Op(f"cert_block_p@{n}", lambda ctx: ng.cert_block_p(adj), check_certs),
        Op(f"cert_gershgorin@{n}", lambda ctx: ng.cert_gershgorin(adj), check_certs),
        Op(f"cert_continuity@{n}", lambda ctx: ng.cert_continuity(adj), check_certs),
    ]


def _pg_ops(game, n):
    scale = 1.0 + _inf(game.gamma.c + game.gamma.d * game.theta)

    def check(kind):
        def run(res, ctx):
            r = _pg_residual(game, res.x.x, kind == "pg-social")
            return _ok_if(res.kind == kind and r <= TOL * scale, f"{kind} residual {r:.2e}")
        return run

    return [
        Op(f"solve_ne_pg@{n}", lambda ctx: ng.solve_ne_pg(game), check("pg-ne")),
        Op(f"solve_social_pg@{n}", lambda ctx: ng.solve_social_pg(game), check("pg-social")),
    ]


def dense_interior(seed, workdir):
    rng = np.random.default_rng([seed, 1])
    digest = _Digest()
    refs = _Refs()
    ops = {}
    for n in DENSE_SIZES:
        lq = [_generic_lq(rng, n) for _ in range(DENSE_POOL - 1)] + [_coincident_lq(rng, n)]
        pg = [_generic_pg(rng, n) for _ in range(DENSE_POOL)]
        for k in range(DENSE_POOL):
            digest.add(lq[k].adjacency.g, lq[k].a, pg[k].adjacency.g, pg[k].theta,
                       pg[k].gamma.c, pg[k].gamma.d)
        ops[n] = [_lq_ops(lq[k], n, k == DENSE_POOL - 1, refs) + _pg_ops(pg[k], n)
                  for k in range(DENSE_POOL)]
    rounds = []
    for r in range(DENSE_POOL):
        # two games per round at the small sizes, one at the large: 60 ops whose
        # median and 90th percentile fall inside the n=200 and n=800 clusters
        picks = [(100, 2 * r), (100, 2 * r + 1), (200, 2 * r), (200, 2 * r + 1),
                 (400, r), (800, r)]
        rounds.append([op for n, k in picks for op in ops[n][k % DENSE_POOL]])
    return Workload("dense-interior", rounds, DENSE_POOL, digest.hexdigest(), "lapack")


# ---------------------------------------------------------------- design-multistart

DESIGN_POOL = 10  # rounds of distinct inputs before the pool repeats


def _paper_branch(g, x) -> bool:
    found = (g[1, 0], g[0, 2], g[2, 1])
    return (all(abs(f - w) / (1.0 + abs(w)) <= 1e-3 for f, w in zip(found, PAPER_FREE))
            and _inf(x - PAPER_X) <= 1e-3)


def _check_branches(problem, branches, tol=TOL):
    """Each (G, x) honours the fixed entries and solves (I+G)x = a, G^T x = 0, x >= 0."""
    a = problem.a
    scale = 1.0 + _inf(a)
    for g, x in branches:
        if any(g[i - 1, j - 1] != v for i, j, v in problem.fixed):
            return _fail("fixed entry changed")
        if _inf(x + g @ x - a) > tol * scale or _inf(g.T @ x) > tol * scale:
            return _fail("design branch residual")
        if np.min(x) < -tol:
            return _fail("negative design action")
    return _ok_if(branches, "no branch returned")


def _branches(run):
    return [(s.adjacency.g, s.x_star.x) for s in run.solutions]


def design_multistart(seed, workdir):
    rng = np.random.default_rng([seed, 2])
    digest = _Digest()
    readme = ng.parse_problem(json.dumps(README_PROBLEM))
    paper_hits = []

    def readme_op(design_seed):
        def check(res, ctx):
            paper_hits.append(any(_paper_branch(g, x) for g, x in _branches(res)))
            return _check_branches(readme, _branches(res))
        return Op("design_solve-readme",
                  lambda ctx: ng.design_solve(readme, starts=64, seed=design_seed), check)

    def two_player_op(a, design_seed):
        problem = ng.DesignProblem(n=2, a=a, fixed=(), free=((1, 2), (2, 1)))

        def check(res, ctx):
            out = _check_branches(problem, _branches(res))
            worst = max(abs(g[0, 1] * g[1, 0]) for g, _ in _branches(res))
            return out if out != "ok" else _ok_if(worst <= 1e-6, "two-player coincidence")

        def on_error(exc, ctx):
            return _ok_if(isinstance(exc, ng.NoSolutionFound), type(exc).__name__)
        return Op("design_solve-two-player",
                  lambda ctx: ng.design_solve(problem, starts=8, seed=design_seed), check,
                  on_error=on_error)

    def symmetric_ops(a, design_seed):
        def check_sym(res, ctx):
            g = res.adjacency.g
            return _ok_if(np.array_equal(res.x_star.x, a) and np.array_equal(g, g.T)
                          and not np.any(np.diagonal(g)) and _inf(g @ a) <= 1e-12 * (1 + _inf(a))
                          and _close(_inf(g), 0.3), "symmetric design")

        def check_cc(res, ctx):
            return _ok_if(res.holds and _inf(res.x.x - a) <= TOL, "designed game not coincident")

        def check_det(res, ctx):
            sv = np.linalg.svd(ctx["sym"].adjacency.g, compute_uv=False)
            rank = int(np.sum(sv > 1e-10 * sv[0]))
            return _ok_if(res.singular and res.rank == rank and rank < a.size
                          and abs(res.det) <= 1e-9, "determinant report")

        return [
            Op("symmetric_design", lambda ctx: ng.symmetric_design(a, seed=design_seed),
               check_sym, key="sym"),
            Op("check_coincidence",
               lambda ctx: ng.check_coincidence(ng.NetworkGame(ctx["sym"].adjacency, a)), check_cc),
            Op("necessary_condition_det",
               lambda ctx: ng.necessary_condition_det(ctx["sym"].adjacency), check_det),
        ]

    # per round: 4 README designs (~0.35 s each), 10 two-player designs (~5 ms) and one
    # symmetric design with its checks (< 1 ms): the median falls inside the two-player
    # cluster and the 90th percentile inside the README cluster
    rounds = []
    for r in range(DESIGN_POOL):
        ops = [readme_op(int(s)) for s in digest.add(rng.integers(0, 2**31, 4))]
        for _ in range(10):
            a = digest.add(rng.uniform(0.1, 2.0, 2))
            ops.append(two_player_op(a, digest.add(int(rng.integers(0, 2**31)))))
        a = digest.add(rng.uniform(0.5, 2.0, 4 + r % 5))
        ops += symmetric_ops(a, digest.add(int(rng.integers(0, 2**31))))
        rounds.append(ops)

    def final_check():
        return _ok_if(any(paper_hits), "paper branch not recovered by any design seed")

    return Workload("design-multistart", rounds, 2, digest.hexdigest(), "mixed", final_check)


# ---------------------------------------------------------------- constrained-robustness

def _vi_ops(game, refs, x0s, whiches, ir_whiches=(), step_fail=False):
    """solve_vi for each (which, x0), then ir_check on the x0s[0] result of each ir_whiches.

    ``step_fail`` marks a catalogued STEP_FAIL input.
    """
    g, a, ub = game.adjacency.g, game.a, game.upper_bound
    scale = 1.0 + _inf(a)
    ops = []
    for which in whiches:
        m = _vi_matrix(g, which)

        def check(res, ctx, m=m):
            natural, comp = _vi_residuals(m, a, res.x.x, ub)
            inside = np.min(res.x.x) >= 0 and (ub is None or np.all(res.x.x <= ub))
            return _ok_if(inside and max(natural, comp) <= TOL * scale,
                          f"VI residual {natural:.2e}/{comp:.2e}")

        def on_error(exc, ctx, m=m):
            if step_fail and isinstance(exc, ng.StepSelectionFailed) \
                    and refs.lcp_solution(m, a) is not None:
                return STEP_FAIL
            return _fail(type(exc).__name__)

        for j, x0 in enumerate(x0s):
            key = f"vi-{which}" if j == 0 and which in ir_whiches else None
            ops.append(Op(f"solve_vi-{which}",
                          lambda ctx, w=which, x0=x0: ng.solve_vi(game, which=w, x0=x0),
                          check, key=key, on_error=on_error))
    for which in ir_whiches:
        key = f"vi-{which}"
        m = _vi_matrix(g, which)

        def check_ir(res, ctx, key=key, m=m):
            x = ctx[key].x.x
            costs = _lq_costs(g, a, x)
            found = np.array([p.cost_at_eq for p in res.players])
            return _ok_if(_inf(found - costs) <= 1e-9 * scale**2
                          and res.all_rational == bool(np.all(costs <= 1e-9)), "ir report")

        def on_error_ir(exc, ctx, key=key, m=m):
            eq = ctx.get(key)
            if eq is None:
                return _fail("upstream solve_vi failed")
            # the defect: x solves the box VI but not the unbounded one ir_check tests
            boxed = max(_vi_residuals(m, a, eq.x.x, ub)) <= TOL * scale
            if isinstance(exc, ng.NotAnEquilibrium) and ub is not None and boxed \
                    and _vi_residuals(m, a, eq.x.x, None)[0] > TOL * scale:
                return IR_BOX
            return _fail(type(exc).__name__)

        ops.append(Op("ir_check-constrained", lambda ctx, key=key: ng.ir_check(game, ctx[key]),
                      check_ir, on_error=on_error_ir))
    return ops


def _scaled(rng, n, target, norm):
    g = rng.standard_normal((n, n))
    np.fill_diagonal(g, 0.0)
    return g * (target / norm(g))


def _rowsum(g):
    return np.max(np.sum(np.abs(g), axis=1))


def _monotone_norm(g):
    return 1.5 * np.linalg.svd(g, compute_uv=False)[0]  # below 1: 2 - 3 sigma_max > 0


def constrained_robustness(seed, workdir):
    rng = np.random.default_rng([seed, 3])
    digest = _Digest()
    refs = _Refs()
    ops = []
    # generic games (||G||_inf <= 0.4, some benefits negative) and strong-monotone
    # certified games: both NE and social VI, from the origin and from a random start
    for target, norm, lo in ((0.4, _rowsum, -0.5),) * 3 + ((0.6, _monotone_norm, 0.2),) * 2:
        n = int(rng.integers(2, 15))
        g = digest.add(_scaled(rng, n, rng.uniform(0.1, 1.0) * target, norm))
        game = ng.NetworkGame(ng.AdjacencyMatrix(g), digest.add(rng.uniform(lo, 2.0, n)))
        x0s = [None, digest.add(rng.uniform(0.0, 2.0, n))]
        ops += _vi_ops(game, refs, x0s, ("ne", "social"), ("ne", "social"))
    # box-constrained games whose upper bounds all bind, plus the catalogued 2-player case
    boxes = [ng.NetworkGame(ng.AdjacencyMatrix(np.array([[0.0, 0.1], [0.1, 0.0]])),
                            np.array([2.0, 2.0]), np.array([0.5, 0.5]))]
    for _ in range(2):
        n = int(rng.integers(2, 15))
        g = digest.add(_scaled(rng, n, 0.3, _rowsum))
        ub = digest.add(rng.uniform(0.2, 1.0, n))
        a = digest.add(ub + np.abs(g) @ ub + rng.uniform(0.5, 1.5, n))
        boxes.append(ng.NetworkGame(ng.AdjacencyMatrix(g), a, ub))
    for game in boxes:
        ops += _vi_ops(game, refs, [None], ("ne", "social"), ("ne",))
    # every point of the README perturbation grid, one solve_vi op each
    base, pattern, grid_gs = _readme_grid_games()
    for k, g in enumerate(grid_gs):
        ops += _vi_ops(ng.NetworkGame(ng.AdjacencyMatrix(g), base.a), refs, [None], ("ne",),
                       step_fail=k < STEP_FAIL_POINTS)
    ops += _sweep_ops(base, pattern, grid_gs, refs)
    ops += _certificate_ops(rng, digest, refs)
    return Workload("constrained-robustness", [ops], 2, digest.hexdigest(), "mixed")


def _sweep_ops(base, pattern, grid_gs, refs):
    a = base.a
    ops = []
    for steps, solver in ((121, "interior"), (1201, "interior"), (121, "constrained")):
        grid = np.linspace(-0.6, 0.6, steps)
        config = ng.SweepConfig(base_game=base, delta_pattern=pattern, delta_grid=grid,
                                solver=solver)
        key = f"sweep-{steps}-{solver}"

        def check(res, ctx, grid=grid, solver=solver):
            if len(res.rows) != grid.size:
                return _fail("sweep row count")
            for row, d in zip(res.rows, grid):
                m = _vi_matrix(base.adjacency.g + d * pattern, "ne")
                if row.singular:
                    if np.linalg.cond(m) < 1e10:
                        return _fail(f"row {d:.3f} marked singular")
                    continue
                x = row.x_star
                natural = (_inf(m @ x - a) if solver == "interior"
                           else _vi_residuals(m, a, x, None)[0])
                cost = float(0.5 * x @ x + (m @ x - x - a) @ x)
                if (row.delta != d or natural > 2 * TOL or not _close(row.social_cost, cost)
                        or row.feasible != (solver == "constrained" or np.min(x) >= -1e-9)):
                    return _fail(f"sweep row {d:.3f}")
            return "ok"

        def on_error(exc, ctx, solver=solver):
            # the README constrained sweep is the catalogued input
            if solver == "constrained" and isinstance(exc, ng.StepSelectionFailed) \
                    and _grid_solvable(refs, grid_gs, a):
                return STEP_FAIL
            return _fail(type(exc).__name__)

        ops.append(Op(f"sweep-{solver}-{steps}", lambda ctx, c=config: ng.sweep(c), check,
                      key=key, on_error=on_error))
        if solver == "interior":
            ops.append(_lipschitz_op(key))
    return ops


def _lipschitz_op(key, k_cap=1.0):
    def check(res, ctx):
        rep = ctx[key]
        worst = 0.0
        for prev, cur in zip(rep.rows, rep.rows[1:]):
            if prev.feasible and cur.feasible and not (prev.singular or cur.singular):
                den = (cur.delta - prev.delta) * rep.pattern_norm
                worst = max(worst, abs(cur.social_cost - prev.social_cost) / den)
        return _ok_if(_close(res.max_ratio, worst)
                      and res.bounded == (worst <= k_cap * rep.delta_cap), "lipschitz ratio")
    return Op("lipschitz_check", lambda ctx: ng.lipschitz_check(ctx[key], k_cap), check)


def _certificate_ops(rng, digest, refs):
    """all_certificates at n=8..14: seven certified (full 2^n - 1 minor scan), three not."""
    ops = []
    sizes = list(range(8, 15)) + [int(k) for k in rng.integers(8, 15, 3)]
    for k, n in enumerate(sizes):
        g = rng.standard_normal((n, n))
        np.fill_diagonal(g, 0.0)
        gersh = np.max(np.sum(np.abs(2.0 * g + g.T), axis=1))
        g = digest.add(g * (rng.uniform(0.3, 0.9) if k < 7 else rng.uniform(3.0, 6.0)) * 2.0 / gersh)
        adj = ng.AdjacencyMatrix(g)

        def check(res, ctx, g=g):
            if len(res) != 6:
                return _fail("certificate count")
            return _check_certificates([(c.name, c.margin, c.holds) for c in res],
                                       refs.margins(g))
        ops.append(Op("all_certificates", lambda ctx, adj=adj: ng.all_certificates(adj), check))
    return ops


# ---------------------------------------------------------------- cli-readme

CLI_POOL = 5  # rounds of distinct seeds before the pool repeats


def cli_readme(seed, workdir):
    """README subcommands through ``cli.main`` on the README's own files, written here."""
    rng = np.random.default_rng([seed, 4])
    digest = _Digest()
    refs = _Refs()
    base, pattern, grid_gs = _readme_grid_games()
    docs = {"game": README_GAME, "pg": README_PG, "problem": README_PROBLEM,
            "pattern": README_PATTERN,
            "game4": {"n": 4, "g": base.adjacency.g.tolist(), "a": base.a.tolist()}}
    os.makedirs(workdir, exist_ok=True)
    files = {name: os.path.join(workdir, f"{name}.json") for name in docs}
    for name, doc in docs.items():
        with open(files[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        digest.add(name, doc)
    out_path = os.path.join(workdir, "out.txt")
    game = ng.parse_game(json.dumps(README_GAME))
    pg = ng.parse_game(json.dumps(README_PG))
    problem = ng.parse_problem(json.dumps(README_PROBLEM))
    paper_hits = []

    def read_out():
        with open(out_path, encoding="utf-8") as fh:
            return fh.read()

    def op(kind, argv, judge):
        def call(ctx):
            err = io.StringIO()  # error lines of failing ops
            with contextlib.redirect_stderr(err):
                return cli.main(argv + ["--out", out_path]), err.getvalue()
        samples = int(argv[argv.index("--samples") + 1]) if "--samples" in argv else 0
        return Op("cli-" + kind, call, lambda res, ctx: judge(*res), samples=samples)

    def step_failed(rc, err):
        return rc == 1 and err.startswith(STEP_FAIL_CLI)

    def solve_judge(gm, which, constrained=False, step_fail=False):
        def judge(rc, err):
            if step_fail and step_failed(rc, err) \
                    and refs.lcp_solution(_vi_matrix(gm.adjacency.g, which), gm.a) is not None:
                return STEP_FAIL
            if rc != 0:
                return _fail(f"exit {rc}")
            x = np.array(json.loads(read_out())["x"])
            if isinstance(gm, ng.PublicGoodsGame):
                return _ok_if(_pg_residual(gm, x, which == "social") <= 1e-9, "pg residual")
            m = _vi_matrix(gm.adjacency.g, which)
            if constrained:
                return _ok_if(max(_vi_residuals(m, gm.a, x, None)) <= 1e-9, "VI residual")
            if gm is game and which == "ne" and _inf(x - PAPER_X) > 1e-3:
                return _fail("README golden x")
            return _ok_if(_inf(m @ x - gm.a) <= 1e-9 * (1.0 + _inf(gm.a)), "solve residual")
        return judge

    def certify_judge(gm):
        def judge(rc, err):
            if rc != 0:
                return _fail(f"exit {rc}")
            certs = json.loads(read_out())["certificates"]
            return _check_certificates([(c["name"], c["margin"], c["holds"]) for c in certs],
                                       refs.margins(gm.adjacency.g))
        return judge

    def perturb_judge(constrained):
        def judge(rc, err):
            if constrained and step_failed(rc, err) and _grid_solvable(refs, grid_gs, base.a):
                return STEP_FAIL
            if rc != 0:
                return _fail(f"exit {rc}")
            rows = list(csv.DictReader(io.StringIO(read_out())))
            if len(rows) != README_GRID.size:
                return _fail("perturb row count")
            for row, g, d in zip(rows, grid_gs, README_GRID):
                m = _vi_matrix(g, "ne")
                if row["social_cost"] == "nan":
                    if np.linalg.cond(m) < 1e10:
                        return _fail(f"perturb row {d:.3f} marked singular")
                    continue
                x = refs.lcp_solution(m, base.a) if constrained else np.linalg.solve(m, base.a)
                cost = float(0.5 * x @ x + (g @ x - base.a) @ x)
                feasible = constrained or bool(np.min(x) >= -1e-9)
                if not _close(float(row["social_cost"]), cost) \
                        or (row["feasible"] == "true") != feasible:
                    return _fail(f"perturb row {d:.3f}")
            return "ok"
        return judge

    def design_judge(rc, err):
        if rc != 0:
            return _fail(f"exit {rc}")
        branches = [(np.array(s["g"]), np.array(s["x_star"]))
                    for s in json.loads(read_out())["solutions"]]
        paper_hits.append(any(_paper_branch(g, x) for g, x in branches))
        return _check_branches(problem, branches, tol=1e-9)  # output has 12 digits

    def random_judge(dense):
        def judge(rc, err):
            if rc != 0:
                return _fail(f"exit {rc}")
            row = next(csv.DictReader(io.StringIO(read_out())))
            frac = float(row["fraction_singular"])
            if dense:  # the dense bounds of acceptance criterion 9
                return _ok_if(frac <= 0.01 and int(row["coincident"]) == 0, "dense ER bounds")
            return _ok_if(frac >= 0.99, "sparse ER bound")
        return judge

    def ir_judge(gm):
        def judge(rc, err):
            if rc != 0:
                return _fail(f"exit {rc}")
            doc = json.loads(read_out())
            if isinstance(gm, ng.NetworkGame):
                x = np.linalg.solve(_vi_matrix(gm.adjacency.g, "ne"), gm.a)
                found = np.array([p["cost_at_eq"] for p in doc["players"]])
                if _inf(found - _lq_costs(gm.adjacency.g, gm.a, x)) > 1e-9:
                    return _fail("ir costs")
            return _ok_if(doc["all_rational"], "ir verdict")
        return judge

    er = ["random", "--n", "100", "--samples", "200"]
    sweep = ["perturb", "--game", files["game4"], "--pattern", files["pattern"],
             "--from", "-0.6", "--to", "0.6", "--steps", "121"]

    # 20 ops per round: the 90th percentile falls among the two dense random ops
    def round_ops(seeds):
        return [
            op("random-dense", er + ["--p", "0.3", "--seed", seeds[0]], random_judge(True)),
            op("random-dense", er + ["--p", "0.3", "--seed", seeds[1]], random_judge(True)),
            op("random-sparse", er + ["--p", "0.001", "--seed", seeds[2]], random_judge(False)),
            op("random-directed", er + ["--p", "0.3", "--seed", seeds[3], "--directed",
                                        "--weights", "gaussian:0,1"], random_judge(True)),
            op("design", ["design", "--problem", files["problem"], "--seed", seeds[4]],
               design_judge),
            op("solve", ["solve", "--game", files["game"]], solve_judge(game, "ne")),
            op("solve", ["solve", "--game", files["game"], "--kind", "social"],
               solve_judge(game, "social")),
            op("solve-constrained", ["solve", "--game", files["game"], "--constrained"],
               solve_judge(game, "ne", True, step_fail=True)),
            op("solve", ["solve", "--game", files["pg"]], solve_judge(pg, "ne")),
            op("solve", ["solve", "--game", files["pg"], "--kind", "social"],
               solve_judge(pg, "social")),
            op("solve-constrained", ["solve", "--game", files["game4"], "--constrained"],
               solve_judge(base, "ne", True)),
            op("solve-constrained", ["solve", "--game", files["game4"], "--constrained",
                                     "--kind", "social"], solve_judge(base, "social", True)),
            op("certify", ["certify", "--game", files["game"]], certify_judge(game)),
            op("certify", ["certify", "--game", files["pg"]], certify_judge(pg)),
            op("certify", ["certify", "--game", files["game4"]], certify_judge(base)),
            op("perturb", sweep, perturb_judge(False)),
            op("perturb-constrained", sweep + ["--constrained"], perturb_judge(True)),
            op("ir-check", ["ir-check", "--game", files["game"]], ir_judge(game)),
            op("ir-check", ["ir-check", "--game", files["pg"]], ir_judge(pg)),
            op("ir-check", ["ir-check", "--game", files["game4"]], ir_judge(base)),
        ]

    # rounds differ in their random-network and design seeds, so a run averages
    # over several of them
    rounds = [round_ops([str(s) for s in digest.add(rng.integers(0, 2**31, 5))])
              for _ in range(CLI_POOL)]

    def final_check():
        return _ok_if(any(paper_hits), "paper branch not recovered by any design seed")

    def cleanup():
        for path in list(files.values()) + [out_path]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        with contextlib.suppress(OSError):
            os.rmdir(workdir)

    return Workload("cli-readme", rounds, 2, digest.hexdigest(), "lapack", final_check,
                    cleanup)


WORKLOADS = {
    "dense-interior": dense_interior,
    "design-multistart": design_multistart,
    "constrained-robustness": constrained_robustness,
    "cli-readme": cli_readme,
}
