"""Command-line interface.

Subcommands: solve, design, certify, perturb, random, ir-check.  Results go
to standard output (or --out PATH) with 12 significant digits.  Exit codes:
0 success, 1 malformed input, 2 singular system, 3 no design solution,
4 irrational player, 5 no convergence.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys

import numpy as np

from . import __version__
from .certificates import all_certificates
from .design import design_solve
from .equilibrium import (
    solve_ne_interior,
    solve_ne_pg,
    solve_social_interior,
    solve_social_pg,
    solve_vi,
)
from .errors import (
    GameFileError,
    NetgamesError,
    NoConvergence,
    NoSolutionFound,
    SingularSystem,
)
from .games import PublicGoodsGame
from .gamefile import load_game, load_pattern, load_problem
from .perturbation import SweepConfig, sweep
from .perturbation import write_csv as write_sweep_csv
from .random_networks import (
    ErConfig,
    WeightLaw,
    coincidence_feasibility_scan,
    write_csv as write_random_csv,
)
from .rationality import ir_check

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_SINGULAR = 2
EXIT_NO_SOLUTION = 3
EXIT_IRRATIONAL = 4
EXIT_NO_CONVERGENCE = 5


def _round12(value):
    """Round floats to 12 significant digits for stable textual output."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc, out_path) -> None:
    _emit(json.dumps(_round12(doc), indent=2) + "\n", out_path)


def _eq_document(eq) -> dict:
    return {
        "kind": eq.kind,
        "x": eq.x.x.tolist(),
        "stationarity_residual": eq.stationarity_residual,
        "complementarity_residual": eq.complementarity_residual,
        "interior": eq.interior,
    }


def _cmd_solve(args) -> int:
    game = load_game(args.game)
    if isinstance(game, PublicGoodsGame):
        if args.constrained:
            raise GameFileError("constrained solving is not available for public-goods games")
        eq = solve_ne_pg(game) if args.kind == "ne" else solve_social_pg(game)
    elif args.constrained:
        eq = solve_vi(game, which=args.kind)
    else:
        eq = solve_ne_interior(game) if args.kind == "ne" else solve_social_interior(game)
    _emit_json(_eq_document(eq), args.out)
    return EXIT_OK


def _cmd_design(args) -> int:
    if args.starts < 1:
        raise GameFileError("--starts must be at least 1")
    if not 0.0 < args.tol < np.inf:
        raise GameFileError("--tol must be positive and finite")
    if args.seed < 0:
        raise GameFileError("--seed must be nonnegative")
    problem = load_problem(args.problem)
    run = design_solve(problem, starts=args.starts, tol=args.tol, seed=args.seed)
    doc = {
        "solutions": [
            {
                "branch_id": sol.branch_id,
                "g": sol.adjacency.g.tolist(),
                "x_star": sol.x_star.x.tolist(),
                "residual_ne": sol.residual_ne,
                "residual_orth": sol.residual_orth,
            }
            for sol in run.solutions
        ],
        "rejected_negative": run.rejected_negative,
        "converged_starts": run.converged_starts,
        "best_residual": run.best_residual,
        "iterations": run.iterations,
    }
    _emit_json(doc, args.out)
    return EXIT_OK


def _cmd_certify(args) -> int:
    game = load_game(args.game)
    doc = {
        "certificates": [
            {
                "name": cert.name,
                "margin": cert.margin,
                "holds": cert.holds,
                "details": dict(cert.details),
            }
            for cert in all_certificates(game.adjacency)
        ]
    }
    _emit_json(doc, args.out)
    return EXIT_OK


def _cmd_perturb(args) -> int:
    game = load_game(args.game)
    if isinstance(game, PublicGoodsGame):
        raise GameFileError("perturb expects a linear-quadratic game file")
    if args.steps < 1:
        raise GameFileError("--steps must be at least 1")
    pattern = load_pattern(args.pattern)
    try:
        config = SweepConfig(
            base_game=game,
            delta_pattern=pattern,
            delta_grid=np.linspace(args.from_, args.to, args.steps),
            solver="constrained" if args.constrained else "interior",
        )
    except ValueError as exc:
        raise GameFileError(str(exc)) from exc
    report = sweep(config)
    buf = io.StringIO()
    write_sweep_csv(report, buf)
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def _cmd_random(args) -> int:
    try:
        law = WeightLaw.parse(args.weights)
        config = ErConfig(
            n=args.n,
            p=args.p,
            samples=args.samples,
            seed=args.seed,
            weight_law=law,
            directed=args.directed,
        )
    except ValueError as exc:
        raise GameFileError(str(exc)) from exc
    scan = coincidence_feasibility_scan(config, np.ones(args.n))
    buf = io.StringIO()
    write_random_csv(config, scan, buf)
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def _cmd_ir_check(args) -> int:
    game = load_game(args.game)
    if isinstance(game, PublicGoodsGame):
        eq = solve_ne_pg(game)
    else:
        eq = solve_ne_interior(game)
        if not eq.interior:
            eq = solve_vi(game, which="ne")
    report = ir_check(game, eq)
    doc = {
        "kind": eq.kind,
        "players": [
            {
                "player": p.player,
                "cost_at_eq": p.cost_at_eq,
                "cost_opt_out": p.cost_opt_out,
                "rational": p.rational,
            }
            for p in report.players
        ],
        "all_rational": report.all_rational,
    }
    _emit_json(doc, args.out)
    return EXIT_OK if report.all_rational else EXIT_IRRATIONAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netgames",
        description="Equilibria, social optima, and network design for LQ network games.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a game for its equilibrium or optimum")
    p_solve.add_argument("--game", required=True, help="game file (JSON)")
    p_solve.add_argument("--kind", choices=("ne", "social"), default="ne")
    p_solve.add_argument(
        "--constrained", action="store_true", help="solve on the nonnegative orthant"
    )
    p_solve.add_argument("--out", default=None, help="write output here instead of stdout")
    p_solve.set_defaults(func=_cmd_solve)

    p_design = sub.add_parser("design", help="recover free adjacency entries")
    p_design.add_argument("--problem", required=True, help="design-problem file (JSON)")
    p_design.add_argument("--starts", type=int, default=64)
    p_design.add_argument("--seed", type=int, default=0)
    p_design.add_argument("--tol", type=float, default=1e-8)
    p_design.add_argument("--out", default=None)
    p_design.set_defaults(func=_cmd_design)

    p_cert = sub.add_parser("certify", help="report all uniqueness/continuity certificates")
    p_cert.add_argument("--game", required=True)
    p_cert.add_argument("--out", default=None)
    p_cert.set_defaults(func=_cmd_certify)

    p_pert = sub.add_parser("perturb", help="sweep the game along a perturbation direction")
    p_pert.add_argument("--game", required=True)
    p_pert.add_argument("--pattern", required=True, help="pattern file (JSON with n and g)")
    p_pert.add_argument("--from", dest="from_", type=float, required=True)
    p_pert.add_argument("--to", type=float, required=True)
    p_pert.add_argument("--steps", type=int, required=True)
    p_pert.add_argument("--constrained", action="store_true")
    p_pert.add_argument("--out", default=None)
    p_pert.set_defaults(func=_cmd_perturb)

    p_rand = sub.add_parser("random", help="singularity statistics on random networks")
    p_rand.add_argument("--n", type=int, required=True)
    p_rand.add_argument("--p", type=float, required=True)
    p_rand.add_argument("--samples", type=int, required=True)
    p_rand.add_argument("--seed", type=int, required=True)
    p_rand.add_argument(
        "--weights",
        default="unit",
        help="unit | uniform:lo,hi | gaussian:mu,sigma",
    )
    p_rand.add_argument("--directed", action="store_true")
    p_rand.add_argument("--out", default=None)
    p_rand.set_defaults(func=_cmd_random)

    p_ir = sub.add_parser("ir-check", help="individual-rationality report at the NE")
    p_ir.add_argument("--game", required=True)
    p_ir.add_argument("--out", default=None)
    p_ir.set_defaults(func=_cmd_ir_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process; ``build_parser`` makes a fresh one."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SingularSystem as exc:
        print(f"error: singular system: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except NoSolutionFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except NoConvergence as exc:
        print(f"error: no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (OSError, UnicodeError, NetgamesError) as exc:  # GameFileError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
