"""Test-only enumeration oracle for the linear complementarity problem and its box variant."""

import itertools

import numpy as np


def box_lcp_solutions(m, a, ub=None, tol=1e-9):
    """Every point solving VI([0, ub], Mx - a) that some state yields, one row each.

    A state puts each player at 0, free, or (only with ``ub``) at its upper
    bound, so there are 2^n or 3^n of them.  A state fixes ``x_i`` at its
    bound or asks ``F_i(x) = 0``: one n x n linear system per state, all
    solved as one batch (states whose system is singular are skipped).  The
    point solves the VI when every ``x_i`` lies in [0, ub] and every ``F_i``
    has the sign its bound allows (>= 0 at 0, <= 0 at ub), all within ``tol``.
    """
    m = np.asarray(m, dtype=float)
    a = np.asarray(a, dtype=float)
    n = a.size
    hi = np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float)
    states = np.array(list(itertools.product(range(2 if ub is None else 3), repeat=n)))
    free = states == 1
    systems = np.where(free[:, :, None], m, np.eye(n))
    rhs = np.where(free, a, np.where(states == 2, hi, 0.0))
    keep = np.abs(np.linalg.det(systems)) > 1e-12
    states, systems, rhs = states[keep], systems[keep], rhs[keep]
    x = np.linalg.solve(systems, rhs[..., None])[..., 0]
    f = x @ m.T - a
    sign_ok = np.where(states == 0, f >= -tol, np.where(states == 2, f <= tol, True))
    ok = (x >= -tol) & (x <= hi + tol) & sign_ok
    return x[np.all(ok, axis=1)]
