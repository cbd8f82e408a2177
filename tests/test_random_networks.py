"""Random-network sampling and singularity statistics."""

import numpy as np
import pytest

from netgames import (
    ErConfig,
    NetworkGame,
    SingularSystem,
    WeightLaw,
    check_coincidence,
    coincidence_feasibility_scan,
    sample_er,
    singularity_stats,
)


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
