"""Symmetric matrix core: decompositions, spectral functions, metric."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from pgm import (
    DimensionMismatch,
    InternalNumerics,
    NotPositiveDefinite,
    Pattern,
    as_sym_matrix,
    fro_norm,
    gaussian_entropy,
    invm,
    is_pd,
    is_psd,
    log_det,
    mat_fn,
    op_norm,
    powm,
    project,
    riemannian_dist,
    single_entry_interval,
    sym,
)
from pgm.linalg import _eigh, _from_spectrum
from conftest import rand_invertible, rand_spd

# mat_fn on each spectrum domain, named by the matrix function it computes
SQRTM = functools.partial(mat_fn, f=np.sqrt, domain="psd")
LOGM = functools.partial(mat_fn, f=np.log, domain="pd")
EXPM = functools.partial(mat_fn, f=np.exp)


class TestEig:
    """The one spectral kernel: ``_eigh`` (ascending) and its inverse ``_from_spectrum``."""

    def test_identity(self):
        w, _ = _eigh(np.eye(3))
        np.testing.assert_allclose(w, [1, 1, 1], atol=1e-14)

    def test_diagonal(self):
        w, _ = _eigh(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(w, [1, 4], atol=1e-14)

    def test_two_by_two(self):
        # characteristic polynomial x^2 - 4x + 3 has roots 1 and 3
        w = _eigh(np.array([[2.0, 1.0], [1.0, 2.0]]), vectors=False)
        np.testing.assert_allclose(w, [1, 3], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_decomposition_invariants(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        a = rand_spd(rng, n) - rand_spd(rng, n)
        w, q = _eigh(a)
        assert all(x <= y for x, y in zip(w, w[1:]))
        assert op_norm(_from_spectrum(w, q) - a) <= 1e-12 * max(1.0, op_norm(a))
        assert op_norm(q.T @ q - np.eye(n)) <= 1e-12 * n


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

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-10])
    def test_stack_matches_loop(self, tol):
        rng = np.random.default_rng(3)
        singles = [
            np.array([[1.0, 2.0], [2.0, 1.0]]),
            np.eye(2),
            np.ones((2, 2)),
            np.zeros((2, 2)),
        ] + [rand_spd(rng, 2) - rand_spd(rng, 2) for _ in range(8)]
        stack = np.array(singles).reshape(3, 4, 2, 2)
        for test in (is_pd, is_psd):
            loop = np.array([test(m, tol) for m in singles]).reshape(3, 4)
            np.testing.assert_array_equal(test(stack, tol), loop)
            assert type(test(singles[1], tol)) is bool


class TestMatFn:
    def test_eigensolver_failure_wrapped(self, monkeypatch):
        # NaN input stops at the input check, so the solver failure is staged
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(InternalNumerics):
            mat_fn(np.eye(3), np.exp)

    def test_sqrt_diagonal(self):
        np.testing.assert_allclose(SQRTM(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)

    def test_power_identity(self):
        np.testing.assert_allclose(powm(np.eye(3), 0.37), np.eye(3), atol=1e-14)

    def test_log_two_by_two(self):
        # eigenpairs (3, (1,1)/sqrt2) and (1, (1,-1)/sqrt2) give
        # log A = (ln 3 / 2) * [[1, 1], [1, 1]]
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        expected = 0.5 * math.log(3.0) * np.ones((2, 2))
        np.testing.assert_allclose(LOGM(a), expected, atol=1e-12)

    def test_log_requires_pd(self):
        with pytest.raises(NotPositiveDefinite):
            LOGM(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_inverse(self):
        a = np.diag([2.0, 4.0])
        np.testing.assert_allclose(invm(a), np.diag([0.5, 0.25]), atol=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    def test_sqrt_squares_back(self, seed):
        rng = np.random.default_rng(seed)
        a = rand_spd(rng, int(rng.integers(2, 9)))
        r = SQRTM(a)
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
        assert fro_norm(EXPM(LOGM(a)) - a) <= 1e-10 * fro_norm(a)

    @pytest.mark.parametrize("f, domain", [(np.sqrt, "psd"), (np.log, "pd"), (np.exp, None)])
    def test_stack_matches_loop(self, f, domain):
        rng = np.random.default_rng(4)
        stack = np.array([[rand_spd(rng, 4) for _ in range(3)] for _ in range(2)])
        out = mat_fn(stack, f, domain)
        assert out.shape == stack.shape
        for idx in np.ndindex(2, 3):
            np.testing.assert_array_equal(out[idx], mat_fn(stack[idx], f, domain))

    @pytest.mark.parametrize("domain", ["pd", "psd"])
    def test_stack_with_one_bad_member(self, domain):
        # the indefinite member has eigenvalues 3 and -1
        stack = np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]], 2.0 * np.eye(2)])
        with pytest.raises(NotPositiveDefinite, match=r"lambda_min = -1\.000e\+00"):
            mat_fn(stack, np.sqrt, domain)

    def test_custom_function(self):
        a = np.diag([1.0, 4.0])
        np.testing.assert_allclose(mat_fn(a, lambda w: w + 1.0), np.diag([2.0, 5.0]), atol=1e-14)

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError, match="^unknown domain 'bogus'$"):
            mat_fn(np.eye(2), np.exp, domain="bogus")


class TestScalars:
    def test_fro_norm_identity(self):
        assert fro_norm(np.eye(4)) == pytest.approx(2.0)

    def test_op_norm(self):
        # largest |eigenvalue| of [[2,1],[1,2]] is 3
        assert op_norm(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(3.0)

    def test_log_det(self):
        assert log_det(np.diag([2.0, 3.0])) == pytest.approx(math.log(6.0))

    def test_log_det_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            log_det(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_log_det_past_the_largest_double(self):
        # lambda_max = 1.9e308 overflows the eigensolver; the spectrum is taken at 2**-1023
        big = np.array([[1e308, 9e307], [9e307, 1e308]])
        assert log_det(big) == pytest.approx(2.0 * math.log(1e308) + math.log(0.19), rel=1e-15)
        np.testing.assert_allclose(log_det(np.stack([big, np.eye(2)])), [log_det(big), 0.0])
        with pytest.raises(NotPositiveDefinite, match=r"lambda_min = -5\.000e\+307"):
            log_det(np.array([[1e308, 1.5e308], [1.5e308, 1e308]]))

    def test_spectra_past_the_largest_double(self):
        # the PD tests are scale-free; a spectral function's result would overflow
        big = np.array([[1e308, 9e307], [9e307, 1e308]])
        assert is_pd(big) and is_psd(big)
        np.testing.assert_array_equal(is_pd(np.stack([big, np.eye(2), -big])), [True, True, False])
        assert not is_pd(np.array([[1e308, 1.5e308], [1.5e308, 1e308]]))
        for call in (invm, SQRTM, LOGM):
            with pytest.raises(InternalNumerics, match="eigenvalues past the largest double"):
                call(big)

    def test_stack_gives_one_value_per_matrix(self):
        eyes = np.stack([np.eye(2), 2.0 * np.eye(2)])
        np.testing.assert_allclose(log_det(eyes), [0.0, 2.0 * math.log(2.0)], atol=1e-15)
        diags = np.stack([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        np.testing.assert_array_equal(op_norm(diags), [2.0, 4.0])
        one = gaussian_entropy(np.eye(2))
        assert one == pytest.approx(2.838, abs=5e-4)
        np.testing.assert_allclose(gaussian_entropy(np.stack([np.eye(2)] * 3)), [one] * 3, rtol=1e-15)
        assert type(log_det(np.eye(2))) is float and type(op_norm(np.eye(2))) is float


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
    @pytest.mark.parametrize(
        "call",
        [
            SQRTM, invm, LOGM, EXPM, lambda a: powm(a, -0.5), log_det, gaussian_entropy,
            is_pd, is_psd,
        ],
        ids=[
            "sqrtm", "invm", "logm", "expm", "powm", "log_det", "gaussian_entropy", "is_pd",
            "is_psd",
        ],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_named(self, call, bad):
        with pytest.raises(ValueError, match="non-finite entries"):
            call(np.array([[1.0, bad], [bad, 1.0]]))

    def test_round_off_asymmetry_symmetrized(self):
        m = np.array([[2.0, 1.0], [1.0 + 1e-15, 2.0]])
        np.testing.assert_array_equal(as_sym_matrix(m), sym(m))
        exact = np.array([[1e308, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(as_sym_matrix(exact), exact)  # sym() would overflow
        assert as_sym_matrix(exact) is not exact

    def test_as_sym_matrix_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            as_sym_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_as_sym_matrix_symmetrizes(self):
        m = as_sym_matrix(sym(np.array([[1.0, 2.0], [0.0, 1.0]])))
        np.testing.assert_allclose(m, np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_as_sym_matrix_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            as_sym_matrix(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_as_sym_matrix_rejects_non_finite(self, bad):
        # nan != nan, so a symmetry test alone calls a NaN pair asymmetric
        m = np.array([[1.0, bad], [bad, 1.0]])
        for call in (as_sym_matrix, lambda a: project(a, Pattern.complete(2))):
            with pytest.raises(ValueError, match="non-finite"):
                call(m)


DENSE_ENTRY_POINTS = {
    "sqrtm": SQRTM,
    "powm": lambda a: powm(a, -0.5),
    "logm": LOGM,
    "expm": EXPM,
    "invm": invm,
    "is_pd": is_pd,
    "is_psd": is_psd,
    "log_det": log_det,
    "op_norm": op_norm,
    "gaussian_entropy": gaussian_entropy,
    "single_entry_interval": lambda a: single_entry_interval(a, 1, 2),
    "as_sym_matrix": as_sym_matrix,
}
MALFORMED_DENSE = {
    "2x3": (np.ones((2, 3)), DimensionMismatch, r"expected a square matrix, got shape \(2, 3\)"),
    "1-D": (np.ones(2), DimensionMismatch, r"expected a square matrix, got shape \(2,\)"),
    "nan": (np.array([[1.0, np.nan], [np.nan, 1.0]]), ValueError, "matrix has non-finite entries"),
    "inf": (np.array([[1.0, np.inf], [np.inf, 1.0]]), ValueError, "matrix has non-finite entries"),
    "asymmetric": (
        np.array([[2.0, 1.0], [0.0, 2.0]]),
        ValueError,
        r"matrix is not symmetric \(max \|a - a\^T\| = 1\.000e\+00\)",
    ),
}


class TestDenseDoor:
    """Every public function that eigensolves a caller's matrix admits it the same way."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_DENSE))
    @pytest.mark.parametrize("entry", sorted(DENSE_ENTRY_POINTS))
    def test_malformed_input_names_the_cause(self, entry, case):
        a, error, message = MALFORMED_DENSE[case]
        with pytest.raises(error, match=message):
            DENSE_ENTRY_POINTS[entry](a)

    @pytest.mark.parametrize("entry", sorted(DENSE_ENTRY_POINTS))
    def test_round_off_asymmetry_is_symmetrized(self, entry):
        # q diag(w) q^T is symmetric only up to round-off
        rng = np.random.default_rng(12)
        q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        a = q @ np.diag(rng.uniform(0.5, 4.0, 5)) @ q.T
        assert not np.array_equal(a, a.T)
        got, want = (_fields(DENSE_ENTRY_POINTS[entry](m)) for m in (a, sym(a)))
        for x, y in zip(got, want, strict=True):
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("entry", ["as_sym_matrix", "single_entry_interval"])
    def test_two_d_entry_points_name_a_stack_shape(self, entry):
        stack = np.stack([np.eye(3), 2.0 * np.eye(3)])
        message = r"expected a square matrix, got shape \(2, 3, 3\)"
        with pytest.raises(DimensionMismatch, match=message):
            DENSE_ENTRY_POINTS[entry](stack)


def _fields(result):
    """The arrays and numbers of a result: a dataclass's fields, else the result itself."""
    return dataclasses.astuple(result) if dataclasses.is_dataclass(result) else (result,)
