"""Random-network sampling and singularity statistics."""

import numpy as np
import pytest

import netgames.random_networks as random_networks
from netgames import (
    DimensionMismatch,
    ErConfig,
    NetworkGame,
    SingularSystem,
    WeightLaw,
    check_coincidence,
    coincidence_feasibility_scan,
    four_player_symmetric_example,
    sample_er,
    singularity_stats,
)
from netgames.design import RANK_TOL, _coincides, _singularity
from netgames.equilibrium import solve_ne_interior
from netgames.random_networks import ScanCounts, SingularityStats


def reference_scan(config, a, tol=1e-8, rank_tol=RANK_TOL):
    """The scan with one SVD and one coincidence solve on every sample."""
    a = np.asarray(a, dtype=float)
    min_svs, n_singular, n_coincident = [], 0, 0
    for adjacency in sample_er(config):
        sv, singular = _singularity(adjacency.g, rank_tol)
        min_svs.append(float(sv[-1]))
        n_singular += singular
        game = NetworkGame(adjacency, a)
        try:
            n_coincident += _coincides(game, solve_ne_interior(game).x.x, tol)[0]
        except SingularSystem:
            pass
    stats = SingularityStats(n_singular / config.samples, float(np.mean(min_svs)))
    return ScanCounts(config.samples, n_singular, n_coincident, stats)


def reference_sample(config, index):
    """The sampler that built its upper triangle from ``np.triu_indices`` on every call."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(index,)))
    n = config.n
    g = np.zeros((n, n))
    if config.directed:
        present = rng.random((n, n)) < config.p
        weights = config.weight_law.draw(rng, (n, n))
        g = np.where(present, weights, 0.0)
        np.fill_diagonal(g, 0.0)
    else:
        iu = np.triu_indices(n, 1)
        present = rng.random(iu[0].size) < config.p
        weights = config.weight_law.draw(rng, iu[0].size)
        g[iu] = np.where(present, weights, 0.0)
        g = g + g.T
    return g


@pytest.fixture
def solves(monkeypatch):
    """Number of solve_ne_interior calls the scan has made."""
    count = [0]

    def counting(game):
        count[0] += 1
        return solve_ne_interior(game)

    monkeypatch.setattr(random_networks, "solve_ne_interior", counting)
    return count


class TestSampling:
    def test_deterministic_given_seed(self):
        config = ErConfig(n=10, p=0.3, samples=3, seed=123)
        first = [adj.g.copy() for adj in sample_er(config)]
        second = [adj.g.copy() for adj in sample_er(config)]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_undirected_is_symmetric(self):
        config = ErConfig(n=12, p=0.4, samples=5, seed=7)
        for adj in sample_er(config):
            np.testing.assert_array_equal(adj.g, adj.g.T)
            np.testing.assert_array_equal(np.diagonal(adj.g), np.zeros(12))

    def test_directed_zero_diagonal(self):
        config = ErConfig(n=8, p=0.5, samples=5, seed=7, directed=True)
        asymmetric = 0
        for adj in sample_er(config):
            np.testing.assert_array_equal(np.diagonal(adj.g), np.zeros(8))
            if not np.array_equal(adj.g, adj.g.T):
                asymmetric += 1
        assert asymmetric > 0

    def test_edge_density_concentration(self):
        config = ErConfig(n=10, p=0.5, samples=1000, seed=11)
        total_present = 0
        per_sample = 10 * 9 // 2
        for adj in sample_er(config):
            iu = np.triu_indices(10, 1)
            total_present += int(np.count_nonzero(adj.g[iu]))
        density = total_present / (1000 * per_sample)
        assert abs(density - 0.5) <= 0.03

    def test_weight_laws(self):
        uniform = ErConfig(
            n=20, p=0.5, samples=2, seed=3, weight_law=WeightLaw.parse("uniform:0.5,1.5")
        )
        for adj in sample_er(uniform):
            weights = adj.g[adj.g != 0]
            assert np.all((weights >= 0.5) & (weights <= 1.5))
        gauss = ErConfig(
            n=20, p=0.5, samples=2, seed=3, weight_law=WeightLaw.parse("gaussian:0,1")
        )
        saw_negative = False
        for adj in sample_er(gauss):
            saw_negative |= bool(np.any(adj.g < 0))
        assert saw_negative

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("law", ["unit", "uniform:-1,1", "gaussian:0.5,2"])
    def test_matches_triu_indices_sampler(self, directed, law):
        for n, p in ((1, 0.5), (2, 0.9), (7, 0.3), (40, 0.05)):
            config = ErConfig(n, p, 4, seed=n, weight_law=WeightLaw.parse(law), directed=directed)
            for k in range(config.samples):
                new, old = random_networks._sample_one(config, k), reference_sample(config, k)
                assert new.shape == old.shape and new.tobytes() == old.tobytes()

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("gaussian", {"sigma": float("nan")}),
            ("gaussian", {"sigma": float("inf")}),
            ("gaussian", {"mu": float("inf")}),
            ("uniform", {"hi": float("inf")}),
            ("uniform", {"lo": -1e308, "hi": 1e308}),  # finite ends, infinite width
            ("unit", {"lo": float("nan")}),
        ],
    )
    def test_weight_law_must_be_finite(self, kind, params):
        with pytest.raises(ValueError, match="finite"):
            WeightLaw(kind, **params)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            ErConfig(n=5, p=0.5, samples=1, seed=-1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ErConfig(n=5, p=0.0, samples=1, seed=0)
        with pytest.raises(ValueError):
            ErConfig(n=5, p=1.0, samples=1, seed=0)
        with pytest.raises(ValueError):
            ErConfig(n=5, p=0.5, samples=0, seed=0)
        with pytest.raises(ValueError):
            WeightLaw.parse("uniform:2,1")
        with pytest.raises(ValueError):
            WeightLaw.parse("lognormal:0,1")


class TestSingularityStats:
    def test_near_empty_graphs_singular(self):
        stats = singularity_stats(ErConfig(n=10, p=0.001, samples=50, seed=5))
        assert stats.fraction_singular >= 0.99
        assert stats.mean_min_sv == pytest.approx(0.0, abs=1e-8)

    def test_dense_unit_graphs_nonsingular(self):
        stats = singularity_stats(ErConfig(n=60, p=0.3, samples=50, seed=5))
        assert stats.fraction_singular <= 0.02
        assert stats.mean_min_sv > 0

    def test_nonincreasing_in_n(self):
        small = singularity_stats(ErConfig(n=30, p=0.3, samples=100, seed=13))
        large = singularity_stats(ErConfig(n=100, p=0.3, samples=100, seed=13))
        assert large.fraction_singular <= small.fraction_singular


class TestCoincidenceScan:
    def test_empty_graphs_all_coincide(self):
        config = ErConfig(n=10, p=0.001, samples=40, seed=17)
        scan = coincidence_feasibility_scan(config, np.ones(10))
        assert scan.tested == 40
        # empty graphs trivially coincide; an isolated edge breaks coincidence
        empties = sum(1 for adj in sample_er(config) if not np.any(adj.g))
        assert scan.coincident == empties

    def test_dense_graphs_never_coincide(self):
        config = ErConfig(n=50, p=0.3, samples=60, seed=19)
        scan = coincidence_feasibility_scan(config, np.ones(50))
        assert scan.coincident == 0

    def test_coincident_never_exceeds_singular(self):
        rng = np.random.default_rng(23)
        for trial in range(5):
            config = ErConfig(
                n=int(rng.integers(5, 25)),
                p=float(rng.uniform(0.05, 0.6)),
                samples=30,
                seed=trial,
            )
            scan = coincidence_feasibility_scan(config, np.ones(config.n))
            assert scan.coincident <= scan.singular

    def test_carries_singularity_stats(self):
        for config in (
            ErConfig(n=10, p=0.001, samples=30, seed=3),
            ErConfig(n=12, p=0.3, samples=30, seed=4, directed=True),
        ):
            scan = coincidence_feasibility_scan(config, np.ones(config.n))
            assert scan.stats == singularity_stats(config)
            assert scan.singular == round(scan.stats.fraction_singular * config.samples)

    def test_counts_match_check_coincidence(self):
        # the directed 2-player unit graphs give all three outcomes: empty and
        # one-edge graphs coincide, the two-cycle makes I+G singular
        configs = [
            ErConfig(n=2, p=0.5, samples=40, seed=5, directed=True),
            ErConfig(n=3, p=0.3, samples=40, seed=6),
            ErConfig(n=4, p=0.3, samples=40, seed=7, weight_law=WeightLaw.parse("uniform:-1,1")),
            ErConfig(n=4, p=0.3, samples=40, seed=8, directed=True),
        ]
        outcomes = set()
        for config in configs:
            a = np.linspace(1.0, 0.5, config.n)
            expected = 0
            for adjacency in sample_er(config):
                try:
                    holds = check_coincidence(NetworkGame(adjacency, a), tol=1e-8).holds
                except SingularSystem:
                    outcomes.add("singular")
                    continue
                outcomes.add(holds)
                expected += holds
            assert coincidence_feasibility_scan(config, a, tol=1e-8).coincident == expected
        assert outcomes == {True, False, "singular"}


class TestScanSkip:
    def test_matches_reference_loop(self, solves):
        configs = [ErConfig(n=10, p=0.001, samples=10, seed=seed) for seed in range(3)]
        configs += [ErConfig(n=8, p=0.2, samples=10, seed=3)]
        configs += [
            ErConfig(n=6, p=0.4, samples=10, seed=4, directed=True, weight_law=law)
            for law in (WeightLaw("gaussian", sigma=1.0), WeightLaw("gaussian", sigma=1e6))
        ]
        rng = np.random.default_rng(31)
        coincident = 0
        for config in configs:
            n = config.n
            for a in (
                np.ones(n),
                rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.5),  # zeros
                rng.uniform(-1.0, 2.0, n),  # negative entries
                np.zeros(n),
                10.0 ** rng.uniform(-8.0, 8.0, n),
            ):
                for tol in (1e-8, 1e3):
                    scan = coincidence_feasibility_scan(config, a, tol=tol)
                    assert scan == reference_scan(config, a, tol)
                    coincident += scan.coincident
        assert coincident > 0
        assert 0 < solves[0] < 2 * len(configs) * 5 * 10  # some samples solved, some skipped

    def test_near_singular_samples(self, monkeypatch, solves):
        # two families on which the skip bound is nearly tight, with s_min/s_max from just above
        # RANK_TOL up while tol crosses the bound.  G0 + e (J - I) with G0 1 = 0 and a = 1 has
        # x = 1/(1+3e) and G^T x uniform, so only the factor 1 + s_max is slack; [[0, s], [e, 0]]
        # with a = (s, 1) has x = (0, 1) and |(I+G)x| ~ 1 + s_max, so only sqrt(n) is slack
        ratios = RANK_TOL * np.array([1.01, 1.5, 10.0, 1e3, 1e5, 1e7])
        g0 = four_player_symmetric_example(1e-3, 2e-3).adjacency.g
        s0 = np.linalg.norm(g0, 2)
        families = [
            ([g0 + s0 * r / 3.0 * (np.ones((4, 4)) - np.eye(4)) for r in ratios], np.ones(4)),
            ([np.array([[0.0, 1e3], [1e3 * r, 0.0]]) for r in ratios], np.array([1e3, 1.0])),
        ]
        tols = 10.0 ** np.arange(-18.0, -2.0, 0.25)
        for samples, a in families:
            assert not any(_singularity(g)[1] for g in samples)
            monkeypatch.setattr(random_networks, "_sample_one", lambda c, k, gs=samples: gs[k])
            config = ErConfig(n=a.size, p=0.5, samples=len(samples), seed=0)
            coincident, solves[0] = 0, 0
            for tol in tols:
                scan = coincidence_feasibility_scan(config, a, tol=tol)
                assert scan == reference_scan(config, a, tol)
                coincident += scan.coincident
            assert 0 < coincident <= solves[0] < tols.size * len(samples)

    def test_invalid_a_raises_when_every_sample_is_skipped(self, solves):
        config = ErConfig(n=30, p=0.3, samples=3, seed=2)
        assert coincidence_feasibility_scan(config, np.ones(30)).coincident == 0
        assert solves[0] == 0
        with pytest.raises(DimensionMismatch):
            coincidence_feasibility_scan(config, np.ones(29))
        with pytest.raises(ValueError):
            coincidence_feasibility_scan(config, np.r_[np.ones(29), np.nan])

    def test_dense_scan_solves_almost_nothing(self, solves):
        config = ErConfig(n=100, p=0.3, samples=200, seed=7)
        assert coincidence_feasibility_scan(config, np.ones(100)).coincident == 0
        assert solves[0] <= 2

    def test_singular_samples_are_solved(self, solves):
        config = ErConfig(n=10, p=0.001, samples=40, seed=17)
        scan = coincidence_feasibility_scan(config, np.ones(10))
        assert scan.singular == solves[0] == config.samples


class TestSymmetricBound:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [0.001, 0.01, 0.05, 0.3])
    def test_matches_reference_on_undirected_samples(self, p, solves):
        laws = [WeightLaw(), WeightLaw("uniform", lo=-1.0, hi=1.0)]
        laws += [WeightLaw("gaussian", sigma=sigma) for sigma in (1.0, 1e6, 1e300)]
        rng = np.random.default_rng(43)
        scanned = 0
        for i, law in enumerate(laws):
            config = ErConfig(n=(30, 6, 15)[i % 3], p=p, samples=4, seed=i, weight_law=law)
            n = config.n
            for a in (
                np.ones(n),
                rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.5),  # zeros
                rng.uniform(-1.0, 2.0, n),  # negative entries
                np.zeros(n),
                10.0 ** rng.uniform(-8.0, 8.0, n),
            ):
                for tol in (1e-8, 1e3):
                    scan = coincidence_feasibility_scan(config, a, tol=tol)
                    assert scan == reference_scan(config, a, tol)
                    scanned += config.samples
        assert 0 < solves[0] < scanned

    def test_tight_on_a_singular_family(self, monkeypatch, solves):
        # G = G0 + e E: G0 is the 4-player design (G0 1 = 0) plus an isolated fifth player, and
        # E joins the first four, so G is singular and only the symmetric bound can decide.  With
        # a = 1, x = 1/(1+3e) on the four and ||G^T x||_inf = 3e/(1+3e), while s_max = 3e makes
        # the bound exactly 2/sqrt(5) of that: tight but for the sqrt(n) of a vector with one
        # zero entry.  Dropping sqrt(n) or 1+s_max from the bound overshoots the true value.
        g0 = np.zeros((5, 5))
        g0[:4, :4] = four_player_symmetric_example(1e-3, 2e-3).adjacency.g
        joins = np.zeros((5, 5))
        joins[:4, :4] = np.ones((4, 4)) - np.eye(4)
        a = np.ones(5)
        config = ErConfig(n=5, p=0.5, samples=1, seed=0)
        for e in (1e-2, 0.1, 0.3, 1.0, 3.0, 100.0):
            g = g0 + e * joins
            assert _singularity(g)[1]
            monkeypatch.setattr(random_networks, "_sample_one", lambda c, k, g=g: g)
            exact = 3.0 * e / (1.0 + 3.0 * e) / 2.0  # ||G^T x||_inf / (1 + ||a||_inf)
            for factor in 10.0 ** np.arange(-0.5, 0.5, 0.01):
                solves[0] = 0
                scan = coincidence_feasibility_scan(config, a, tol=factor * exact)
                assert scan == reference_scan(config, a, factor * exact)
                assert solves[0] == (factor > 2.0 / np.sqrt(5.0))

    def test_readme_scans_solve_only_edgeless_samples(self, solves):
        sparse = ErConfig(n=100, p=0.001, samples=200, seed=7)
        edgeless = sum(not random_networks._sample_one(sparse, k).any() for k in range(200))
        assert coincidence_feasibility_scan(sparse, np.ones(100)).coincident == edgeless == 1
        assert solves[0] == 1
        gaussian = WeightLaw.parse("gaussian:0,1")
        directed = ErConfig(n=100, p=0.3, samples=200, seed=7, directed=True, weight_law=gaussian)
        solves[0] = 0
        assert coincidence_feasibility_scan(directed, np.ones(100)).coincident == 0
        assert solves[0] <= 2
