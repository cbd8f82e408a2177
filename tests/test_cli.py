"""Command-line surface: subcommands, exit codes, output formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from lcp_oracle import box_lcp_solutions

import netgames
from netgames.cli import main

GOLDEN = Path(__file__).parent / "golden"
FOUR_PLAYER_GAME = {
    "n": 4,
    "g": [[0, 0.1, 0.2, -0.3], [0.1, 0, -0.3, 0.2], [0.2, -0.3, 0, 0.1], [-0.3, 0.2, 0.1, 0]],
    "a": [1, 1, 1, 1],
}
README_GAME = {
    "n": 3,
    "g": [[0.0, -2.0, -0.273107], [1.18042, 0.0, 2.0], [-3.0, 37.229, 0.0]],
    "a": [1.0, 2.0, 3.0],
}
PG_GAME = {
    "n": 3,
    "g": [[0, 0.2, -0.1], [0.3, 0, 0.1], [-0.2, 0.4, 0]],
    "a": [0, 0, 0],
    "theta": [1.0, 0.5, 2.0],
    "gamma": {"c": [0.5, 1.0, 0.25], "d": [0.25, -0.5, 0.75]},
}
SOLVE_GOLDEN = json.loads((GOLDEN / "solve_outputs.json").read_text())
# a in the thousands: the constrained solver and ir-check judge a game relative to its data
LARGE_A_GAMES = [
    {"n": 3, "g": [[0, -0.1, 0.3], [-0.1, 0, 0], [-0.2, 0.1, 0]], "a": [11000, 4000, -3000]},
    {"n": 3, "g": [[0, 0.2, 0], [-0.2, 0, 0], [-0.2, 0.1, 0]], "a": [11000, 13000, 11000]},
]
README_PATTERN = {"n": 4, "g": [[0, 0, 1, 1], [0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]}


@pytest.fixture
def game_file(tmp_path):
    def write(doc, name="game.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_trivial_game(self, game_file, capsys):
        path = game_file({"n": 2, "g": [[0, 0], [0, 0]], "a": [1.0, 2.0]})
        code, out, _ = run_cli(capsys, "solve", "--game", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["x"] == [1.0, 2.0]
        assert doc["kind"] == "interior-ne"
        assert doc["interior"] is True

    def test_social_kind(self, game_file, capsys):
        path = game_file({"n": 2, "g": [[0, 1], [1, 0]], "a": [1.0, 1.0]})
        code, out, _ = run_cli(capsys, "solve", "--game", path, "--kind", "social")
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(doc["x"], [1 / 3, 1 / 3], atol=1e-10)

    def test_constrained(self, game_file, capsys):
        path = game_file({"n": 2, "g": [[0, 0], [0, 0]], "a": [-1.0, 2.0]})
        code, out, _ = run_cli(capsys, "solve", "--game", path, "--constrained")
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(doc["x"], [0.0, 2.0], atol=1e-10)
        assert doc["kind"] == "constrained-ne"

    def test_pg_game(self, game_file, capsys):
        path = game_file(
            {
                "n": 1,
                "g": [[0]],
                "a": [0.5],
                "theta": [1.0],
                "gamma": {"c": [0.5], "d": [0.25]},
            }
        )
        code, out, _ = run_cli(capsys, "solve", "--game", path)
        assert code == 0
        assert json.loads(out)["x"] == [0.75]

    def test_singular_exit_2(self, game_file, capsys):
        path = game_file({"n": 2, "g": [[0, -1], [-1, 0]], "a": [1.0, 1.0]})
        code, _, err = run_cli(capsys, "solve", "--game", path)
        assert code == 2
        assert "singular" in err.lower()

    def test_constrained_readme_game(self, game_file, capsys):
        # I+G is not a P-matrix here; the boundary solution has x_3 = 0
        code, out, _ = run_cli(capsys, "solve", "--game", game_file(README_GAME), "--constrained")
        assert code == 0
        x = np.array(json.loads(out)["x"])
        g, a = np.array(README_GAME["g"]), np.array(README_GAME["a"])
        f = x + g @ x - a
        assert np.min(x) >= 0.0
        assert max(np.max(np.abs(x - np.maximum(x - f, 0.0))), np.max(np.abs(x * f))) <= 1e-9

    @pytest.mark.parametrize("doc", LARGE_A_GAMES)
    def test_constrained_large_a(self, game_file, capsys, doc):
        code, out, _ = run_cli(capsys, "solve", "--game", game_file(doc), "--constrained")
        assert code == 0
        g, a = np.array(doc["g"], dtype=float), np.array(doc["a"], dtype=float)
        (expected,) = box_lcp_solutions(np.eye(3) + g, a)
        assert np.max(np.abs(np.array(json.loads(out)["x"]) - expected)) <= 1e-8 * (1 + max(a))

    def test_no_convergence_exit_5(self, game_file, capsys):
        # LCP(I+G, -a) without a solution: each of its 4 bases violates a sign
        path = game_file({"n": 2, "g": [[0, -2], [-2, 0]], "a": [1.0, 1.0]})
        code, _, err = run_cli(capsys, "solve", "--game", path, "--constrained")
        assert code == 5
        assert "no convergence" in err

    @pytest.mark.parametrize("case", sorted(SOLVE_GOLDEN))
    def test_golden_output(self, game_file, capsys, case):
        # x, kind and interior are pinned exactly; the residuals only to rounding
        name, *flags = case.split()
        game = {"readme": README_GAME, "pg": PG_GAME}[name]
        code, out, _ = run_cli(capsys, "solve", "--game", game_file(game), "--kind", *flags)
        assert code == 0
        doc, want = json.loads(out), SOLVE_GOLDEN[case]
        assert (doc["x"], doc["kind"], doc["interior"]) == (want["x"], want["kind"], want["interior"])
        for key in ("stationarity_residual", "complementarity_residual"):
            assert abs(doc[key] - want[key]) <= 1e-10

    def test_malformed_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "g": [[0, 1]')
        code, _, err = run_cli(capsys, "solve", "--game", str(path))
        assert code == 1
        assert "line" in err

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--game", "/nonexistent/game.json")
        assert code == 1

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_game_exit_1(self, tmp_path, capsys, kind):
        path = tmp_path / "game.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"n": 1, "g": [[0]], "a": [\xff]}')
        code, out, err = run_cli(capsys, "solve", "--game", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_out_path(self, game_file, tmp_path, capsys):
        path = game_file({"n": 1, "g": [[0]], "a": [3.0]})
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "solve", "--game", path, "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["x"] == [3.0]

    def test_twelve_digit_output(self, game_file, capsys):
        path = game_file({"n": 1, "g": [[0]], "a": [1.0 / 3.0]})
        _, out, _ = run_cli(capsys, "solve", "--game", path)
        assert json.loads(out)["x"][0] == float(f"{1.0 / 3.0:.12g}")


class TestDesign:
    def test_recovers_branches(self, tmp_path, capsys):
        problem = {
            "n": 3,
            "a": [1.0, 2.0, 3.0],
            "fixed": [[1, 2, -2.0], [3, 1, -3.0], [2, 3, 2.0]],
            "free": [[2, 1], [1, 3], [3, 2]],
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        code, out, _ = run_cli(
            capsys, "design", "--problem", str(path), "--starts", "32", "--seed", "0"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["solutions"]
        sol = doc["solutions"][0]
        assert sol["residual_ne"] <= 1e-8 and sol["residual_orth"] <= 1e-8

    def test_reports_iterations(self, tmp_path, capsys):
        problem = {"n": 2, "a": [1.0, 1.0], "fixed": [], "free": [[1, 2], [2, 1]]}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        code, out, _ = run_cli(capsys, "design", "--problem", str(path), "--starts", "8")
        assert code == 0
        assert 1 <= json.loads(out)["iterations"] <= 160

    def test_no_solution_exit_3(self, tmp_path, capsys):
        problem = {
            "n": 2,
            "a": [1.0, 1.0],
            "fixed": [[1, 2, 0.7], [2, 1, 0.4]],
            "free": [],
        }
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(problem))
        code, _, err = run_cli(capsys, "design", "--problem", str(path), "--starts", "4")
        assert code == 3

    @pytest.mark.parametrize(
        "flag",
        [["--starts", "0"], ["--starts", "-3"], ["--tol", "-1"], ["--seed", "-1"],
         ["--tol", "inf"]],
    )
    def test_invalid_arguments_exit_1(self, tmp_path, capsys, flag):
        problem = {"n": 2, "a": [1.0, 1.0], "fixed": [], "free": [[1, 2]]}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        code, out, err = run_cli(capsys, "design", "--problem", str(path), *flag)
        assert code == 1
        assert out == ""
        assert flag[0] in err
        assert err.startswith("error: ") and "Traceback" not in err


class TestCertify:
    def test_reports_six_certificates(self, game_file, capsys):
        path = game_file({"n": 3, "g": [[0, -2, -0.273107], [1.18042, 0, 2], [-3, 37.229, 0]], "a": [1, 2, 3]})
        code, out, _ = run_cli(capsys, "certify", "--game", path)
        assert code == 0  # certificates are informative, even when all fail
        doc = json.loads(out)
        names = [c["name"] for c in doc["certificates"]]
        assert len(names) == 6
        assert not any(
            c["holds"] for c in doc["certificates"] if c["name"] != "gamma-p-matrix"
        )
        for cert in doc["certificates"]:
            assert cert["holds"] == (cert["margin"] > 0)

    @pytest.mark.parametrize(
        "game, golden",
        [(README_GAME, "certify_three_player.json"), (FOUR_PLAYER_GAME, "certify_four_player.json")],
    )
    def test_golden_output(self, game_file, capsys, game, golden):
        # the goldens hold the earlier minimum-principal-minor margin for gamma-p-matrix;
        # every other certificate must match them exactly
        code, out, _ = run_cli(capsys, "certify", "--game", game_file(game))
        assert code == 0
        got = json.loads(out)["certificates"]
        want = json.loads((GOLDEN / golden).read_text())["certificates"]
        assert [c["name"] for c in got] == [c["name"] for c in want]
        for cert, ref in zip(got, want):
            if cert["name"] != "gamma-p-matrix":
                assert cert == ref
                continue
            assert cert["holds"] == ref["holds"]
            rho = cert["details"]["spectral_radius"]
            assert list(cert["details"]) == ["spectral_radius"]
            assert cert["margin"] == pytest.approx(2.0 - rho, abs=1e-10)


class TestPerturb:
    def test_csv_on_stdout(self, game_file, tmp_path, capsys):
        t, u = 0.1, 0.2
        s = -(t + u)
        game = {
            "n": 4,
            "g": [[0, t, u, s], [t, 0, s, u], [u, s, 0, t], [s, u, t, 0]],
            "a": [1, 1, 1, 1],
        }
        pattern = {
            "n": 4,
            "g": [[0, 0, 1, 1], [0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]],
        }
        gpath = game_file(game)
        ppath = tmp_path / "pattern.json"
        ppath.write_text(json.dumps(pattern))
        code, out, _ = run_cli(
            capsys,
            "perturb", "--game", gpath, "--pattern", str(ppath),
            "--from", "-0.3", "--to", "0.6", "--steps", "10",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "delta,social_cost,feasible,min_x,spectral_margin,status"
        assert len(lines) == 11
        assert any(line.split(",")[2] == "false" for line in lines[1:])

    def test_golden_readme_sweep(self, game_file, tmp_path, capsys):
        ppath = tmp_path / "pattern.json"
        ppath.write_text(json.dumps(README_PATTERN))
        code, out, _ = run_cli(
            capsys,
            "perturb", "--game", game_file(FOUR_PLAYER_GAME), "--pattern", str(ppath),
            "--from", "-0.6", "--to", "0.6", "--steps", "121",
        )
        assert code == 0
        assert out == (GOLDEN / "perturb_four_player.csv").read_text()

    def test_constrained_readme_sweep(self, game_file, tmp_path, capsys):
        ppath = tmp_path / "pattern.json"
        ppath.write_text(json.dumps(README_PATTERN))
        code, out, _ = run_cli(
            capsys,
            "perturb", "--game", game_file(FOUR_PLAYER_GAME), "--pattern", str(ppath),
            "--from", "-0.6", "--to", "0.6", "--steps", "121", "--constrained",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 121
        assert all(row.split(",")[2] == "true" for row in rows)

    def test_failed_grid_points_keep_their_rows(self, game_file, tmp_path, capsys):
        # I+G is not a P-matrix below delta = 0.5 and that LCP has no solution
        ppath = tmp_path / "pattern.json"
        ppath.write_text(json.dumps({"n": 2, "g": [[0, 1], [1, 0]]}))
        code, out, _ = run_cli(
            capsys,
            "perturb", "--game", game_file({"n": 2, "g": [[0, -1.5], [-1.5, 0]], "a": [1, 1]}),
            "--pattern", str(ppath), "--from", "-0.6", "--to", "0.6", "--steps", "7",
            "--constrained",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[5] for row in rows] == ["no-convergence"] * 6 + ["ok"]
        assert rows[0][1] == "nan" and rows[0][2] == "false"

    def test_rejects_pg_game(self, game_file, capsys):
        path = game_file(
            {"n": 1, "g": [[0]], "a": [1.0], "gamma": {"c": [1.0], "d": [0.0]}}
        )
        code, _, err = run_cli(
            capsys, "perturb", "--game", path, "--pattern", path,
            "--from", "0", "--to", "1", "--steps", "2",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "pattern_n, grid",
        [
            (3, ("-0.6", "0.6", "5")),  # the pattern's n differs from the game's
            (4, ("0.6", "-0.6", "5")),  # --from > --to
            (4, ("0.2", "0.2", "2")),  # --from = --to with two steps
        ],
    )
    def test_invalid_sweep_exit_1(self, game_file, tmp_path, capsys, pattern_n, grid):
        ppath = tmp_path / "pattern.json"
        ppath.write_text(json.dumps({"n": pattern_n, "g": np.zeros((pattern_n,) * 2).tolist()}))
        code, out, err = run_cli(
            capsys, "perturb", "--game", game_file(FOUR_PLAYER_GAME), "--pattern", str(ppath),
            "--from", grid[0], "--to", grid[1], "--steps", grid[2],
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err


class TestRandom:
    def test_csv_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "random", "--n", "12", "--p", "0.3", "--samples", "20", "--seed", "5"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,p,samples,fraction_singular,mean_min_sv,coincident"
        fields = lines[1].split(",")
        assert fields[0] == "12" and fields[2] == "20"

    def test_deterministic(self, capsys):
        args = ["random", "--n", "10", "--p", "0.4", "--samples", "10", "--seed", "9"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_weights_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "random", "--n", "10", "--p", "0.4", "--samples", "5", "--seed", "2",
            "--weights", "uniform:0.5,1.5",
        )
        assert code == 0

    @pytest.mark.parametrize(
        "flags",
        [
            ["--weights", "gaussian:0,nan"],
            ["--weights", "gaussian:0,inf"],
            ["--weights", "gaussian:inf,1"],
            ["--weights", "uniform:0,inf"],
            ["--weights", "uniform:-1e308,1e308"],
            ["--seed", "-1"],
        ],
    )
    def test_invalid_sampling_exit_1(self, capsys, flags):
        args = {"--n": "5", "--samples": "3", "--p": "0.5", "--seed": "1"}
        args.update([flags])
        code, out, err = run_cli(capsys, "random", *[w for kv in args.items() for w in kv])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_bad_weights_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            "random", "--n", "10", "--p", "0.4", "--samples", "5", "--seed", "2",
            "--weights", "pareto:1",
        )
        assert code == 1


    @pytest.mark.parametrize(
        "flags, expected",
        [
            (["--p", "0.3"], "100,0.3,200,0,0.0475392301965,0"),
            (["--p", "0.001"], "100,0.001,200,1,0,1"),
            (
                ["--p", "0.3", "--directed", "--weights", "gaussian:0,1"],
                "100,0.3,200,0,0.0340298966359,0",
            ),
        ],
    )
    def test_golden_csv(self, capsys, flags, expected):
        code, out, _ = run_cli(
            capsys, "random", "--n", "100", "--samples", "200", "--seed", "7", *flags
        )
        assert code == 0
        assert out == "n,p,samples,fraction_singular,mean_min_sv,coincident\n" + expected + "\n"

    def test_one_svd_per_sample(self, capsys, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        code, _, _ = run_cli(
            capsys, "random", "--n", "10", "--p", "0.3", "--samples", "25", "--seed", "4"
        )
        assert code == 0
        assert len(calls) == 25


class TestIrCheck:
    def test_all_rational_exit_0(self, game_file, capsys):
        path = game_file({"n": 2, "g": [[0, 0], [0, 0]], "a": [1.0, 1.0]})
        code, out, _ = run_cli(capsys, "ir-check", "--game", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["all_rational"] is True
        assert [p["cost_at_eq"] for p in doc["players"]] == [-0.5, -0.5]

    @pytest.mark.parametrize("doc", LARGE_A_GAMES)
    def test_large_a_exit_0(self, game_file, capsys, doc):
        code, out, _ = run_cli(capsys, "ir-check", "--game", game_file(doc))
        assert code == 0
        assert json.loads(out)["all_rational"] is True

    def test_boundary_game_uses_constrained_solver(self, game_file, capsys):
        path = game_file({"n": 2, "g": [[0, 2.0], [0, 0]], "a": [1.0, 1.0]})
        code, out, _ = run_cli(capsys, "ir-check", "--game", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "constrained-ne"
        assert doc["all_rational"] is True


class TestScale:
    """The four-player example with a = 1e-12: every verdict reads as at a = 1."""

    TINY = {**FOUR_PLAYER_GAME, "a": [1e-12] * 4}

    def test_solve_is_interior(self, game_file, capsys):
        code, out, _ = run_cli(capsys, "solve", "--game", game_file(self.TINY))
        assert code == 0
        assert json.loads(out)["interior"] is True

    def test_ir_check_takes_the_interior_equilibrium(self, game_file, capsys):
        code, out, _ = run_cli(capsys, "ir-check", "--game", game_file(self.TINY))
        assert code == 0
        assert json.loads(out)["kind"] == "interior-ne"

    def test_perturb_feasibility_matches_unit_scale(self, game_file, tmp_path, capsys):
        ppath = tmp_path / "pattern.json"
        ppath.write_text(json.dumps(README_PATTERN))
        columns = []
        for doc in (FOUR_PLAYER_GAME, self.TINY):
            code, out, _ = run_cli(
                capsys, "perturb", "--game", game_file(doc), "--pattern", str(ppath),
                "--from", "-0.6", "--to", "0.6", "--steps", "121",
            )
            assert code == 0
            columns.append([row.split(",")[2] for row in out.strip().splitlines()[1:]])
        assert columns[0] == columns[1]
        assert "true" in columns[0] and "false" in columns[0]


def test_main_builds_its_parser_once(game_file, capsys):
    from netgames import cli

    cli._parser.cache_clear()
    path = game_file({"n": 2, "g": [[0, 0], [0, 0]], "a": [1, 2]})
    for _ in range(3):
        assert run_cli(capsys, "solve", "--game", path)[0] == 0
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert cli.build_parser() is not cli.build_parser()  # public: a fresh parser per call


def test_runtime_imports_no_scipy():
    # the core is numpy-only: scipy would add start-up time and resident memory
    code = (
        "import sys, netgames, netgames.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = str(Path(netgames.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60,
        env=env,
    ).stdout
    assert out.strip() == "[]"
