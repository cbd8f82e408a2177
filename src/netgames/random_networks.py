"""Monte-Carlo study of coincidence feasibility on random networks.

Samples Erdos-Renyi adjacency matrices from per-sample RNG streams of (seed, sample
index), so results do not depend on evaluation order, and counts the singular ones (a
necessary condition for a nonzero coincident equilibrium) and the coincident ones.  Each
sample takes one SVD; it is solved only where no singular-value bound settles coincidence.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .games import AdjacencyMatrix, NetworkGame, _as_vector, _slack
from .design import RANK_TOL, _coincides, _singularity
from .equilibrium import DEFAULT_TOL, _norm_inf, solve_ne_interior
from .errors import SingularSystem


@dataclass(frozen=True)
class WeightLaw:
    """Edge-weight distribution: unit, uniform(lo, hi), or gaussian(mu, sigma)."""

    kind: str = "unit"
    lo: float = 0.0
    hi: float = 1.0
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("unit", "uniform", "gaussian"):
            raise ValueError(f"unknown weight law {self.kind!r}")
        if not np.isfinite([self.lo, self.hi, self.mu, self.sigma, float(self.hi) - self.lo]).all():
            raise ValueError("weight law parameters and hi - lo must be finite")
        if self.kind == "uniform" and not self.lo < self.hi:
            raise ValueError("uniform law requires lo < hi")
        if self.kind == "gaussian" and self.sigma <= 0:
            raise ValueError("gaussian law requires sigma > 0")

    @staticmethod
    def parse(text: str) -> "WeightLaw":
        """Parse 'unit', 'uniform:lo,hi', or 'gaussian:mu,sigma'."""
        kind, _, params = text.partition(":")
        if kind == "unit":
            return WeightLaw()
        try:
            first, second = (float(p) for p in params.split(","))
        except ValueError as exc:
            raise ValueError(f"malformed weight law {text!r}") from exc
        if kind == "uniform":
            return WeightLaw(kind="uniform", lo=first, hi=second)
        if kind == "gaussian":
            return WeightLaw(kind="gaussian", mu=first, sigma=second)
        raise ValueError(f"unknown weight law {text!r}")

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "unit":
            return np.ones(size)
        if self.kind == "uniform":
            return rng.uniform(self.lo, self.hi, size)
        return rng.normal(self.mu, self.sigma, size)


@dataclass(frozen=True)
class ErConfig:
    """Erdos-Renyi sampling plan over n-player adjacency matrices."""

    n: int
    p: float
    samples: int
    seed: int
    weight_law: WeightLaw = WeightLaw()
    directed: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie strictly between 0 and 1")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@functools.lru_cache(maxsize=8)
def _upper(n: int) -> np.ndarray:
    """Read-only mask of the strict upper triangle: row-major, the order of triu_indices(n, 1)."""
    mask = ~np.tri(n, dtype=bool)
    mask.setflags(write=False)
    return mask


def _sample_one(config: ErConfig, index: int) -> np.ndarray:
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(index,))
    )
    n = config.n
    if config.directed:
        present = rng.random((n, n)) < config.p
        g = config.weight_law.draw(rng, (n, n))
        g[~present] = 0.0
        np.fill_diagonal(g, 0.0)
        return g
    present = rng.random(n * (n - 1) // 2) < config.p
    weights = config.weight_law.draw(rng, present.size)
    weights[~present] = 0.0
    g = np.zeros((n, n))
    g[_upper(n)] = weights
    return g + g.T


def sample_er(config: ErConfig) -> Iterator[AdjacencyMatrix]:
    """Stream of sampled adjacency matrices, deterministic given the seed."""
    for k in range(config.samples):
        yield AdjacencyMatrix(_sample_one(config, k))


@dataclass(frozen=True)
class SingularityStats:
    """Fraction of singular samples and their mean smallest singular value."""

    fraction_singular: float
    mean_min_sv: float


def singularity_stats(config: ErConfig, rank_tol: float = RANK_TOL) -> SingularityStats:
    """Fraction of samples with smallest singular value <= rank_tol * largest."""
    return _scan(config, None, 0.0, rank_tol).stats


@dataclass(frozen=True)
class ScanCounts:
    """Samples tested, singular and coincident, with the singularity stats of the same samples."""

    tested: int
    singular: int
    coincident: int
    stats: SingularityStats


def coincidence_feasibility_scan(
    config: ErConfig, a, tol: float = 1e-8, rank_tol: float = RANK_TOL
) -> ScanCounts:
    """Count singular samples and samples whose NE coincides with the optimum.

    Samples where (I+G) is numerically singular cannot be checked and count as
    non-coincident.  Each sample is drawn and decomposed once: ``stats`` holds the
    ``singularity_stats`` of the same samples.  ValueError unless 0 < tol < inf.
    """
    return _scan(config, _as_vector(a, config.n, "a"), tol, rank_tol)


def _scan(config: ErConfig, a, tol: float, rank_tol: float) -> ScanCounts:
    """One pass over the samples: one SVD each, plus a coincidence test unless a is None.

    Any x from ``solve_ne_interior`` has ``(I+G)x = a + e`` with ``||e||_inf <= r =
    DEFAULT_TOL(1+||a||_inf)``.  The sample is not coincident, and is not solved, where a lower
    bound on ``||G^T x||_inf`` exceeds ``tol(1+||a||_inf)`` >= ``tol*||a||_inf``, the verdict's
    margin (``games._slack``).  Two bounds serve:
    ``s_min ||x||_2/sqrt(n)`` with ``||x||_2 >= (||a||_2 - sqrt(n) r)/(1+s_max)``; and, for
    G = G^T, ``||Gx||_2/sqrt(n)`` with ``||Gx||_2 >= (||Ga||_2 - s_max sqrt(n) r)/(1+s_max)``,
    since G commutes with I+G and so ``(I+G)Gx = G(a+e)``.  The second needs no s_min and so
    decides singular samples too; where Ga = 0, as on edgeless samples, it cannot fire.
    The allowance ``c = 2n^2 eps`` covers the rounding of the SVD, of fl(Ga), of fl(G^T x) and
    of the residual, the last two via ``||x||_2 <= ||Gx||_2 + ||a||_2 + ||e||_2``.  Both sides
    are divided by 1+||a||_inf, so nothing overflows.
    """
    n, c = config.n, 2.0 * config.n**2 * np.finfo(float).eps
    if a is not None:
        slack, unit = _slack(tol, a), a / (1.0 + _norm_inf(a))
        size, root_r = np.linalg.norm(unit), np.sqrt(n) * DEFAULT_TOL
        reach, radius = size - root_r, (1.0 + c) * root_r + c * size
    min_svs, n_singular, n_coincident = [], 0, 0
    for k in range(config.samples):
        g = _sample_one(config, k)
        if not np.isfinite(g).all():
            raise ValueError("matrix entries must be finite")
        sv, singular = _singularity(g, rank_tol)
        min_svs.append(float(sv[-1]))
        n_singular += singular
        s_eff = sv[-1] - c * sv[0]
        if a is None or s_eff > 0 and s_eff * reach > tol * np.sqrt(n) * (1.0 + sv[0]):
            continue
        s_up = sv[0] * (1.0 + c)
        eta = 4.0 * c * (1.0 + s_up)  # twice the rounding terms' multiples of ||x||_2
        if eta * np.sqrt(n) < 1.0 and np.array_equal(g, g.T):
            y = (np.linalg.norm(g @ unit) - s_up * (radius + eta * (size + radius))) / (1.0 + s_up)
            if y / np.sqrt(n) - eta * (y + size + radius) > tol * (1.0 + c):
                continue
        game = NetworkGame(AdjacencyMatrix(g), a)
        try:
            if _coincides(game, solve_ne_interior(game).x.x, slack)[0]:
                n_coincident += 1
        except SingularSystem:
            pass
    stats = SingularityStats(
        fraction_singular=n_singular / config.samples,
        mean_min_sv=float(np.mean(min_svs)),
    )
    return ScanCounts(
        tested=config.samples, singular=n_singular, coincident=n_coincident, stats=stats
    )


def write_csv(config: ErConfig, scan: ScanCounts, stream) -> None:
    """Emit `n,p,samples,fraction_singular,mean_min_sv,coincident` as one row."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(("n", "p", "samples", "fraction_singular", "mean_min_sv", "coincident"))
    writer.writerow(
        [
            config.n,
            f"{config.p:.12g}",
            config.samples,
            f"{scan.stats.fraction_singular:.12g}",
            f"{scan.stats.mean_min_sv:.12g}",
            scan.coincident,
        ]
    )
