"""Self-describing JSON documents for games and design problems.

Game schema: ``{"n": int, "g": n x n array, "a": n-array,
"theta": n-array (optional), "gamma": {"c": n-array, "d": n-array} (optional)}``.
A game with a ``gamma`` block is a public-goods game (``theta`` defaults to
zeros); otherwise it is a linear-quadratic game.

Problem schema: ``{"n": int, "a": n-array, "fixed": [[i, j, value], ...],
"free": [[i, j], ...]}`` with 1-based off-diagonal indices.

Floats survive a write/read round trip exactly (JSON uses shortest repr).
"""

from __future__ import annotations

import json

import numpy as np

from .design import DesignProblem
from .errors import GameFileError
from .games import AdjacencyMatrix, GammaFamily, NetworkGame, PublicGoodsGame


def _parse_json(text: str, source: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFileError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            field=None,
        ) from exc
    if not isinstance(doc, dict):
        raise GameFileError(f"{source}: top level must be an object", field=None)
    return doc


def _require(doc: dict, field: str, source: str):
    if field not in doc:
        raise GameFileError(f"{source}: missing required field '{field}'", field=field)
    return doc[field]


def _int_field(doc: dict, field: str, source: str) -> int:
    value = _require(doc, field, source)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise GameFileError(f"{source}: field '{field}' must be a positive integer", field=field)
    return value


def _array_field(doc: dict, field: str, shape: tuple, source: str) -> np.ndarray:
    value = _require(doc, field, source)
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise GameFileError(f"{source}: field '{field}' must be numeric", field=field) from exc
    if arr.shape != shape:
        want = f"an {shape[0]}x{shape[1]}" if len(shape) == 2 else f"a length-{shape[0]}"
        raise GameFileError(
            f"{source}: field '{field}' must be {want} array, got shape {arr.shape}",
            field=field,
        )
    if not np.all(np.isfinite(arr)):
        raise GameFileError(f"{source}: field '{field}' has non-finite entries", field=field)
    return arr


def _matrix_field(doc: dict, field: str, n: int, source: str) -> np.ndarray:
    mat = _array_field(doc, field, (n, n), source)
    if np.any(np.diagonal(mat) != 0.0):
        bad = int(np.flatnonzero(np.diagonal(mat) != 0.0)[0]) + 1
        raise GameFileError(
            f"{source}: field '{field}' must have a zero diagonal (player {bad})", field=field
        )
    return mat


def parse_game(text: str, source: str = "game"):
    """Parse a game document; returns NetworkGame or PublicGoodsGame."""
    doc = _parse_json(text, source)
    n = _int_field(doc, "n", source)
    g = _matrix_field(doc, "g", n, source)
    a = _array_field(doc, "a", (n,), source)
    adjacency = AdjacencyMatrix(g)
    if "gamma" in doc:
        gamma_doc = doc["gamma"]
        if not isinstance(gamma_doc, dict):
            raise GameFileError(f"{source}: field 'gamma' must be an object", field="gamma")
        c = _array_field(gamma_doc, "c", (n,), f"{source}.gamma")
        d = _array_field(gamma_doc, "d", (n,), f"{source}.gamma")
        theta = (
            _array_field(doc, "theta", (n,), source) if "theta" in doc else np.zeros(n)
        )
        return PublicGoodsGame(adjacency=adjacency, theta=theta, gamma=GammaFamily.affine(c, d))
    if "theta" in doc:
        _array_field(doc, "theta", (n,), source)  # shape-checked even when unused
    return NetworkGame(adjacency=adjacency, a=a)


def load_game(path: str):
    """Read a game document from ``path`` (``parse_game``)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_game(fh.read(), source=str(path))


def parse_pattern(text: str, source: str = "pattern") -> np.ndarray:
    """Parse a perturbation-pattern document: only ``n`` and ``g`` are used."""
    doc = _parse_json(text, source)
    n = _int_field(doc, "n", source)
    return _matrix_field(doc, "g", n, source)


def load_pattern(path: str) -> np.ndarray:
    """Read a perturbation-pattern document from ``path`` (``parse_pattern``)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pattern(fh.read(), source=str(path))


def game_document(game) -> dict:
    """In-memory document for a game, suitable for json.dump."""
    doc = {"n": game.n, "g": game.adjacency.g.tolist()}
    if isinstance(game, PublicGoodsGame):
        doc["a"] = game.gamma.c.tolist()
        doc["theta"] = game.theta.tolist()
        doc["gamma"] = {"c": game.gamma.c.tolist(), "d": game.gamma.d.tolist()}
    else:
        doc["a"] = game.a.tolist()
    return doc


def save_game(game, path: str) -> None:
    """Write ``game`` to ``path`` as a game document (``game_document``)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_document(game), fh, indent=2)
        fh.write("\n")


def parse_problem(text: str, source: str = "problem") -> DesignProblem:
    """Parse a design-problem document."""
    doc = _parse_json(text, source)
    n = _int_field(doc, "n", source)
    a = _array_field(doc, "a", (n,), source)
    fixed_doc = doc.get("fixed", [])
    free_doc = doc.get("free", [])
    fixed = []
    for k, item in enumerate(fixed_doc):
        if not (isinstance(item, (list, tuple)) and len(item) == 3):
            raise GameFileError(
                f"{source}: fixed[{k}] must be [i, j, value]", field="fixed"
            )
        fixed.append((item[0], item[1], item[2]))
    free = []
    for k, item in enumerate(free_doc):
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise GameFileError(f"{source}: free[{k}] must be [i, j]", field="free")
        free.append((item[0], item[1]))
    try:
        return DesignProblem(n=n, a=a, fixed=tuple(fixed), free=tuple(free))
    except (ValueError, TypeError) as exc:
        raise GameFileError(f"{source}: {exc}", field=None) from exc


def load_problem(path: str) -> DesignProblem:
    """Read a design-problem document from ``path`` (``parse_problem``)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read(), source=str(path))


def save_problem(problem: DesignProblem, path: str) -> None:
    """Write ``problem`` to ``path`` as a design-problem document."""
    doc = {
        "n": problem.n,
        "a": problem.a.tolist(),
        "fixed": [[i, j, v] for i, j, v in problem.fixed],
        "free": [[i, j] for i, j in problem.free],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
