"""Symmetric matrix core: decompositions, spectral functions, metric."""

import math

import numpy as np
import pytest

from pgm import (
    DimensionMismatch,
    InternalNumerics,
    NotPositiveDefinite,
    as_sym_matrix,
    det,
    eig,
    expm,
    fro_norm,
    invm,
    is_pd,
    is_psd,
    log_det,
    logm,
    mat_fn,
    op_norm,
    powm,
    riemannian_dist,
    sqrtm,
    trace,
)
from conftest import rand_invertible, rand_spd


class TestEig:
    def test_identity(self):
        d = eig(np.eye(3))
        np.testing.assert_allclose(d.values, [1, 1, 1], atol=1e-14)

    def test_diagonal(self):
        d = eig(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(d.values, [4, 1], atol=1e-14)

    def test_two_by_two(self):
        # characteristic polynomial x^2 - 4x + 3 has roots 3 and 1
        d = eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(d.values, [3, 1], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_decomposition_invariants(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        a = rand_spd(rng, n) - rand_spd(rng, n)
        d = eig(a)
        assert all(x >= y for x, y in zip(d.values, d.values[1:]))
        recon = d.vectors @ np.diag(d.values) @ d.vectors.T
        assert op_norm(recon - a) <= 1e-12 * max(1.0, op_norm(a))
        assert op_norm(d.vectors.T @ d.vectors - np.eye(n)) <= 1e-12 * n


class TestDefiniteness:
    def test_indefinite(self):
        assert not is_pd(np.array([[1.0, 2.0], [2.0, 1.0]]), tol=0.0)

    def test_identity(self):
        assert is_pd(np.eye(2), tol=0.0)

    def test_rank_one_boundary(self):
        ones = np.ones((2, 2))
        assert not is_pd(ones, tol=1e-12)
        assert is_psd(ones, tol=1e-12)

    def test_all_zero(self):
        z = np.zeros((3, 3))
        assert not is_pd(z)
        assert is_psd(z)


class TestMatFn:
    def test_eigensolver_failure_wrapped(self):
        # LAPACK does not converge on NaN input
        with pytest.raises(InternalNumerics):
            mat_fn(np.full((3, 3), np.nan), np.exp)

    def test_sqrt_diagonal(self):
        np.testing.assert_allclose(sqrtm(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)

    def test_power_identity(self):
        np.testing.assert_allclose(powm(np.eye(3), 0.37), np.eye(3), atol=1e-14)

    def test_log_two_by_two(self):
        # eigenpairs (3, (1,1)/sqrt2) and (1, (1,-1)/sqrt2) give
        # log A = (ln 3 / 2) * [[1, 1], [1, 1]]
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        expected = 0.5 * math.log(3.0) * np.ones((2, 2))
        np.testing.assert_allclose(logm(a), expected, atol=1e-12)

    def test_log_requires_pd(self):
        with pytest.raises(NotPositiveDefinite):
            logm(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_inverse(self):
        a = np.diag([2.0, 4.0])
        np.testing.assert_allclose(invm(a), np.diag([0.5, 0.25]), atol=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    def test_sqrt_squares_back(self, seed):
        rng = np.random.default_rng(seed)
        a = rand_spd(rng, int(rng.integers(2, 9)))
        r = sqrtm(a)
        assert fro_norm(r @ r - a) <= 1e-10 * fro_norm(a)

    @pytest.mark.parametrize("seed", range(8))
    def test_power_endpoints(self, seed):
        rng = np.random.default_rng(seed)
        a = rand_spd(rng, 5)
        assert fro_norm(powm(a, 1.0) - a) <= 1e-12 * max(1.0, fro_norm(a))
        assert fro_norm(powm(a, 0.0) - np.eye(5)) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_exp_log_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        a = rand_spd(rng, 6)
        assert fro_norm(expm(logm(a)) - a) <= 1e-10 * fro_norm(a)

    def test_custom_function(self):
        a = np.diag([1.0, 4.0])
        np.testing.assert_allclose(mat_fn(a, lambda w: w + 1.0), np.diag([2.0, 5.0]), atol=1e-14)


class TestScalars:
    def test_det(self):
        assert det(np.diag([2.0, 3.0])) == pytest.approx(6.0)

    def test_fro_norm_identity(self):
        assert fro_norm(np.eye(4)) == pytest.approx(2.0)

    def test_op_norm(self):
        # largest |eigenvalue| of [[2,1],[1,2]] is 3
        assert op_norm(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(3.0)

    def test_trace(self):
        assert trace(np.diag([1.0, 2.0, 3.0])) == pytest.approx(6.0)

    def test_log_det(self):
        assert log_det(np.diag([2.0, 3.0])) == pytest.approx(math.log(6.0))

    def test_log_det_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            log_det(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestRiemannianDist:
    def test_same_point(self):
        assert riemannian_dist(np.eye(3), np.eye(3)) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_diagonal(self):
        a = np.eye(2)
        b = np.diag([math.e**2, 1.0])
        assert riemannian_dist(a, b) == pytest.approx(2.0, abs=1e-12)

    def test_commuting_pair(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert riemannian_dist(a, np.eye(2)) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_requires_pd(self):
        with pytest.raises(NotPositiveDefinite):
            riemannian_dist(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("seed", range(10))
    def test_metric_axioms_and_congruence(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        a, b = rand_spd(rng, n), rand_spd(rng, n)
        d = riemannian_dist(a, b)
        assert d >= 0
        assert riemannian_dist(b, a) == pytest.approx(d, rel=1e-10)
        s = rand_invertible(rng, n)
        sa = 0.5 * (s.T @ a @ s + (s.T @ a @ s).T)
        sb = 0.5 * (s.T @ b @ s + (s.T @ b @ s).T)
        assert riemannian_dist(sa, sb) == pytest.approx(d, rel=1e-8, abs=1e-8)


class TestValidation:
    def test_as_sym_matrix_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            as_sym_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_as_sym_matrix_symmetrizes(self):
        m = as_sym_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]), symmetrize=True)
        np.testing.assert_allclose(m, np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_as_sym_matrix_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            as_sym_matrix(np.zeros((2, 3)))
