"""Game/problem document loading, validation, and round trips."""

import json

import numpy as np
import pytest

from netgames import (
    AdjacencyMatrix,
    DesignProblem,
    GameFileError,
    GammaFamily,
    NetworkGame,
    PublicGoodsGame,
    load_game,
    load_pattern,
    load_problem,
    parse_game,
    parse_problem,
    save_game,
    save_problem,
)


def test_round_trip_lq(tmp_path):
    rng = np.random.default_rng(31)
    g = rng.normal(size=(4, 4))
    np.fill_diagonal(g, 0.0)
    game = NetworkGame(AdjacencyMatrix(g), rng.normal(size=4))
    path = tmp_path / "game.json"
    save_game(game, path)
    loaded = load_game(path)
    assert isinstance(loaded, NetworkGame)
    np.testing.assert_array_equal(loaded.adjacency.g, game.adjacency.g)
    np.testing.assert_array_equal(loaded.a, game.a)


def test_round_trip_pg(tmp_path):
    rng = np.random.default_rng(37)
    g = rng.normal(size=(3, 3)) * 0.1
    np.fill_diagonal(g, 0.0)
    game = PublicGoodsGame(
        AdjacencyMatrix(g),
        rng.normal(size=3),
        GammaFamily.affine(rng.normal(size=3), rng.normal(size=3)),
    )
    path = tmp_path / "pg.json"
    save_game(game, path)
    loaded = load_game(path)
    assert isinstance(loaded, PublicGoodsGame)
    np.testing.assert_array_equal(loaded.adjacency.g, game.adjacency.g)
    np.testing.assert_array_equal(loaded.theta, game.theta)
    np.testing.assert_array_equal(loaded.gamma.c, game.gamma.c)
    np.testing.assert_array_equal(loaded.gamma.d, game.gamma.d)


def test_round_trip_problem(tmp_path):
    problem = DesignProblem(
        n=3,
        a=np.array([1.0, 2.0, 3.0]),
        fixed=((1, 2, -2.0), (3, 1, -3.0), (2, 3, 2.0)),
        free=((2, 1), (1, 3), (3, 2)),
    )
    path = tmp_path / "problem.json"
    save_problem(problem, path)
    loaded = load_problem(path)
    assert loaded.n == 3
    np.testing.assert_array_equal(loaded.a, problem.a)
    assert loaded.fixed == problem.fixed
    assert loaded.free == problem.free


def test_invalid_json_reports_line():
    with pytest.raises(GameFileError) as info:
        parse_game('{"n": 2,\n "g": [[0, 1],\n', source="bad.json")
    assert "line" in str(info.value)


def test_missing_field_diagnostic():
    with pytest.raises(GameFileError) as info:
        parse_game('{"n": 2, "g": [[0, 1], [1, 0]]}')
    assert info.value.field == "a"


def test_nonzero_diagonal_rejected():
    doc = {"n": 2, "g": [[0.5, 0.0], [0.0, 0.0]], "a": [1.0, 1.0]}
    with pytest.raises(GameFileError) as info:
        parse_game(json.dumps(doc))
    assert info.value.field == "g"
    assert "player 1" in str(info.value)


def test_shape_mismatch_rejected():
    doc = {"n": 3, "g": [[0.0, 1.0], [1.0, 0.0]], "a": [1.0, 1.0, 1.0]}
    with pytest.raises(GameFileError):
        parse_game(json.dumps(doc))
    doc = {"n": 2, "g": [[0.0, 1.0], [1.0, 0.0]], "a": [1.0]}
    with pytest.raises(GameFileError):
        parse_game(json.dumps(doc))


def test_gamma_without_theta_defaults_to_zero():
    doc = {
        "n": 2,
        "g": [[0.0, 0.1], [0.2, 0.0]],
        "a": [1.0, 1.0],
        "gamma": {"c": [1.0, 1.0], "d": [0.5, 0.5]},
    }
    game = parse_game(json.dumps(doc))
    assert isinstance(game, PublicGoodsGame)
    np.testing.assert_array_equal(game.theta, np.zeros(2))


def test_problem_validation_diagnostics():
    with pytest.raises(GameFileError):
        parse_problem('{"n": 2, "a": [1, 1], "fixed": [[1, 1, 0.5]], "free": []}')
    with pytest.raises(GameFileError):
        parse_problem('{"n": 2, "a": [1, 1], "fixed": [[1, 2]], "free": []}')


@pytest.mark.parametrize(
    "fixed, free, entry",
    [([[1, 2.9, -2.0], [True, 3, 1.0]], [[2.5, 1], [3, 2]], r"fixed entry \[1, 2\.9, -2\.0\]"),
     ([[True, 3, 1.0]], [], r"fixed entry \[True, 3, 1\.0\]"),
     ([], [[2.5, 1], [3, 2]], r"free entry \[2\.5, 1\]")],
)
def test_problem_positions_must_be_integers(tmp_path, fixed, free, entry):
    # int() coercion used to load these as other positions, silently
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"n": 3, "a": [1.0, 2.0, 3.0], "fixed": fixed, "free": free}))
    with pytest.raises(GameFileError, match=entry):
        load_problem(path)


def test_pattern_loader(tmp_path):
    path = tmp_path / "pattern.json"
    path.write_text('{"n": 2, "g": [[0.0, 1.0], [0.0, 0.0]]}')
    np.testing.assert_array_equal(load_pattern(path), [[0.0, 1.0], [0.0, 0.0]])
