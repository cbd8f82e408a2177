"""Uniqueness and continuity certificates."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from matrix_oracles import NotSymmetric, TooLarge, p_matrix_check, spectral_facts_selftest

from netgames import (
    AdjacencyMatrix,
    NetworkGame,
    all_certificates,
    build_gamma_matrix,
    cert_block_p,
    cert_continuity,
    cert_gamma_p_matrix,
    cert_gershgorin,
    cert_strong_monotone,
    four_player_symmetric_example,
    solve_vi,
)
from netgames.certificates import _spectral_norm

EX3_G = np.array(
    [
        [0.0, -2.0, -0.273107],
        [1.18042, 0.0, 2.0],
        [-3.0, 37.229, 0.0],
    ]
)


def uniform_offdiag(n, w):
    g = np.full((n, n), w)
    np.fill_diagonal(g, 0.0)
    return g


def random_adjacency(rng, n, scale):
    g = rng.normal(size=(n, n)) * scale
    np.fill_diagonal(g, 0.0)
    return g


class TestStrongMonotone:
    def test_zero_matrix(self):
        cert = cert_strong_monotone(AdjacencyMatrix(np.zeros((3, 3))))
        assert cert.margin == pytest.approx(2.0)
        assert cert.holds

    def test_three_player_example_fails(self):
        cert = cert_strong_monotone(AdjacencyMatrix(EX3_G))
        assert not cert.holds
        assert cert.details["sigma_max"] >= 37.229  # dominated by the large entry

    def test_uniform_offdiagonal(self):
        # (ones - I) has eigenvalues {n-1, -1}; sigma_max = 0.1*(n-1)
        cert = cert_strong_monotone(AdjacencyMatrix(uniform_offdiag(4, 0.1)))
        assert cert.details["sigma_max"] == pytest.approx(0.3, abs=1e-12)
        assert cert.margin == pytest.approx(1.1, abs=1e-12)

    def test_reports_sharper_bound(self):
        rng = np.random.default_rng(3)
        g = random_adjacency(rng, 5, 0.1)
        cert = cert_strong_monotone(AdjacencyMatrix(g))
        lam = float(np.min(np.linalg.eigvalsh(1.5 * (g + g.T))))
        assert cert.details["lambda_min_threehalves_sym"] == pytest.approx(lam, abs=1e-12)
        # Eq-24-style bound is never weaker than the norm bound
        assert cert.details["alpha_sharper"] >= cert.margin - 1e-12


class TestBlockP:
    def test_zero_matrix(self):
        assert cert_block_p(AdjacencyMatrix(np.zeros((2, 2)))).margin == pytest.approx(2.0)

    def test_uniform_offdiagonal(self):
        cert = cert_block_p(AdjacencyMatrix(uniform_offdiag(4, 0.1)))
        assert cert.margin == pytest.approx(1.1, abs=1e-12)

    def test_three_player_example_fails(self):
        cert = cert_block_p(AdjacencyMatrix(EX3_G))
        assert not cert.holds
        assert cert.details["rowsum_norm"] == pytest.approx(40.229, abs=1e-3)


class TestGammaMatrix:
    def test_structure(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(1, 8)
            g = random_adjacency(rng, n, 1.0)
            gamma = build_gamma_matrix(AdjacencyMatrix(g))
            np.testing.assert_array_equal(np.diagonal(gamma), np.full(n, 2.0))
            off = gamma[~np.eye(n, dtype=bool)]
            assert np.all(off <= 0)
            i, j = (0, 1) if n > 1 else (0, 0)
            if n > 1:
                assert gamma[i, j] == -abs(2 * g[i, j] + g[j, i])

    def test_p_matrix_examples(self):
        assert p_matrix_check(np.eye(3))
        assert p_matrix_check(np.array([[1.0, -3.0], [0.0, 1.0]]))
        assert not p_matrix_check(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_p_matrix_guard(self):
        with pytest.raises(TooLarge):
            p_matrix_check(np.eye(21))

    def test_margin_variant_agrees(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            g = random_adjacency(rng, 4, rng.uniform(0.05, 0.6))
            adjacency = AdjacencyMatrix(g)
            cert = cert_gamma_p_matrix(adjacency)
            assert cert.holds == p_matrix_check(build_gamma_matrix(adjacency))

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        g=st.integers(1, 8).flatmap(
            lambda n: arrays(float, (n, n), elements=st.floats(-1.0, 1.0), fill=st.nothing())
        ),
        scale=st.floats(0.01, 1.0),
    )
    def test_spectral_certificate_matches_minor_scan(self, g, scale):
        g = g * scale
        np.fill_diagonal(g, 0.0)
        adjacency = AdjacencyMatrix(g)
        b = np.abs(2.0 * g + g.T)  # B = 2I - Gamma, nonnegative with zero diagonal
        rho = float(np.max(np.abs(np.linalg.eigvals(b))))
        # on rho(B) = 2 exactly Gamma is singular and both verdicts are decided by rounding
        assume(abs(2.0 - rho) > 1e-9)
        cert = cert_gamma_p_matrix(adjacency)
        assert cert.holds == p_matrix_check(build_gamma_matrix(adjacency))
        assert cert.margin == pytest.approx(2.0 - rho, abs=1e-12)
        assert cert.details == {"spectral_radius": pytest.approx(rho, abs=1e-12)}
        # Perron root of a nonnegative matrix lies between its smallest and largest row sum
        rowsums = b.sum(axis=1)
        assert rowsums.min() - 1e-12 <= rho <= rowsums.max() + 1e-12
        # Gershgorin implies gamma-P on the same draw, since ||B||_inf >= rho(B)
        gersh = cert_gershgorin(adjacency)
        assert cert.margin >= gersh.margin - 1e-12
        if gersh.holds:
            assert cert.holds

    def test_no_size_guard(self):
        rng = np.random.default_rng(29)
        for scale, holds in ((0.2 / 40, True), (2.0 / 40, False)):
            g = np.abs(random_adjacency(rng, 40, scale))
            cert = cert_gamma_p_matrix(AdjacencyMatrix(g))  # 2^40 minors: no TooLarge
            assert cert.holds is holds
            rho = float(np.max(np.abs(np.linalg.eigvals(2.0 * g + g.T))))
            assert cert.margin == pytest.approx(2.0 - rho, abs=1e-12)


class TestGershgorin:
    def test_zero_matrix(self):
        assert cert_gershgorin(AdjacencyMatrix(np.zeros((3, 3)))).margin == pytest.approx(2.0)

    def test_uniform_offdiagonal(self):
        cert = cert_gershgorin(AdjacencyMatrix(uniform_offdiag(4, 0.1)))
        assert cert.margin == pytest.approx(1.1, abs=1e-12)

    def test_heavy_row_fails(self):
        g = np.zeros((3, 3))
        g[0, 1] = g[0, 2] = 0.5  # row weight 1.0 so ||2G+G^T||_inf >= 2
        cert = cert_gershgorin(AdjacencyMatrix(g))
        assert not cert.holds


class TestContinuity:
    def test_zero_matrix(self):
        spectral, rowsum = cert_continuity(AdjacencyMatrix(np.zeros((2, 2))))
        assert spectral.margin == pytest.approx(1.0)
        assert rowsum.margin == pytest.approx(1.0)
        assert spectral.name == "continuity-spectral"
        assert rowsum.name == "continuity-rowsum"

    def test_four_player_reference(self):
        # eigenvalues of the reference design are {0, 0.4, 0.2, -0.6}
        game = four_player_symmetric_example(0.1, 0.2)
        spectral, rowsum = cert_continuity(game.adjacency)
        assert spectral.margin == pytest.approx(0.4, abs=1e-12)
        assert rowsum.margin == pytest.approx(0.4, abs=1e-12)
        assert spectral.holds and rowsum.holds

    def test_spectral_majorizes_rowsum_verdict(self):
        # ||G||_2 <= ||G||_inf fails in general, but holds for symmetric G
        rng = np.random.default_rng(13)
        for _ in range(50):
            g = random_adjacency(rng, 5, 0.3)
            g = (g + g.T) / 2
            spectral, rowsum = cert_continuity(AdjacencyMatrix(g))
            if rowsum.holds:
                assert spectral.holds


class TestImplicationChain:
    def test_chain_on_random_matrices(self):
        rng = np.random.default_rng(17)
        n_gersh = n_block = 0
        for _ in range(200):
            n = int(rng.integers(2, 9))
            g = random_adjacency(rng, n, rng.uniform(0.01, 0.8) / n)
            adjacency = AdjacencyMatrix(g)
            gersh = cert_gershgorin(adjacency)
            block = cert_block_p(adjacency)
            if block.holds:
                n_block += 1
                assert gersh.holds
            if gersh.holds:
                n_gersh += 1
                assert p_matrix_check(build_gamma_matrix(adjacency))
        assert n_block > 20 and n_gersh > 20  # the sample actually exercises the chain

    def test_certified_games_converge_to_one_point(self):
        rng = np.random.default_rng(19)
        done = 0
        while done < 10:
            n = int(rng.integers(2, 7))
            g = random_adjacency(rng, n, 1.0)
            g *= rng.uniform(0.1, 0.6) / (1.5 * np.linalg.svd(g, compute_uv=False)[0])
            adjacency = AdjacencyMatrix(g)
            if not cert_strong_monotone(adjacency).holds:
                continue
            game = NetworkGame(adjacency, rng.uniform(0.2, 2.0, n))
            ref = solve_vi(game, x0=np.zeros(n)).x.x
            for _ in range(5):
                eq = solve_vi(game, x0=rng.uniform(0, 2, n))
                np.testing.assert_allclose(eq.x.x, ref, rtol=0, atol=1e-6)
            done += 1


def svd_sigma_max(m):
    return np.linalg.svd(m, compute_uv=False)[..., 0]


class TestSpectralNorm:
    def population(self):
        rng = np.random.default_rng(41)
        yield np.array([[-3.5]])
        yield np.zeros((1, 1))
        yield np.zeros((5, 5))
        for trial in range(60):
            n = int(rng.integers(1, 30))
            yield np.outer(rng.normal(size=n), rng.normal(size=n))  # rank 1
            yield np.linalg.qr(rng.normal(size=(n, n)))[0] * 10.0 ** rng.uniform(-6, 6)  # repeated
            yield rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-6, 6, (n, n))  # over 12 decades

    def test_matches_svd(self):
        for m in self.population():
            ref = svd_sigma_max(m)
            assert abs(_spectral_norm(m) - ref) <= 1e-13 * ref

    def test_stack_with_a_zero_member(self):
        rng = np.random.default_rng(42)
        stack = rng.normal(size=(6, 8, 8))
        stack[3] = 0.0
        got = _spectral_norm(stack)
        assert got.shape == (6,) and got[3] == 0.0
        np.testing.assert_allclose(got, svd_sigma_max(stack), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scales(self, scale):
        # the squared entries of g * scale overflow or underflow: the scaling must avoid both
        g = random_adjacency(np.random.default_rng(43), 12, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _spectral_norm(g * scale)
            cert = cert_continuity(AdjacencyMatrix(g * scale))[0]
        assert got == pytest.approx(scale * svd_sigma_max(g), rel=1e-13)
        assert cert.details["sigma_max"] == got


class TestAllCertificates:
    def test_six_reported_in_order(self):
        certs = all_certificates(AdjacencyMatrix(np.zeros((3, 3))))
        assert [c.name for c in certs] == [
            "prop1-strong-monotone",
            "prop2-block-p",
            "gamma-p-matrix",
            "gershgorin",
            "continuity-spectral",
            "continuity-rowsum",
        ]
        assert all(c.holds for c in certs)


class TestSpectralFactsSelftest:
    def test_identity(self):
        assert spectral_facts_selftest(np.eye(4))

    def test_diagonal_example(self):
        a = np.diag([-2.0, 3.0])
        assert spectral_facts_selftest(a)
        assert abs(-2.0) <= np.linalg.svd(a, compute_uv=False)[0]

    def test_random_symmetric(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            b = rng.normal(size=(6, 6))
            assert spectral_facts_selftest((b + b.T) / 2)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            spectral_facts_selftest(np.array([[0.0, 1.0], [0.0, 0.0]]))
