"""Symmetric matrix core: decompositions, PD tests, kernels, metric."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from pgm import (
    DEFAULT_TOL,
    DimensionMismatch,
    InternalNumerics,
    NotPositiveDefinite,
    Pattern,
    fro_norm,
    gaussian_entropy,
    geomean,
    is_pd,
    is_psd,
    log_det,
    op_norm,
    project,
    riemannian_dist,
    single_entry_interval,
    sym,
)
from pgm.linalg import (_cholesky, _definite, _eigh, _from_spectrum, _inv, _kernels, _pd_factor,
                        _solve)
from conftest import (mp_log_det, mp_riemannian_dist, rand_invertible, rand_spd, spread_pairs,
                      stretched_spd)

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

    def test_eigensolver_failure_wrapped(self, monkeypatch):
        # NaN input stops at the input check, so the solver failure is staged
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(InternalNumerics, match="^symmetric eigensolver failed: Eigenvalues"):
            geomean(np.eye(3), 2.0 * np.eye(3))


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


def _ratio_draws(rng, n, count, lo, hi):
    """``count`` matrices ``Q diag(w) Q^T``, ``Q`` Haar-orthogonal, with ``w_max = 1`` and
    ``w_min / w_max = r``, ``r`` log-uniform in ``[lo, hi]``, the other ``w`` between them."""
    q, _ = np.linalg.qr(rng.standard_normal((count, n, n)))
    u = np.sort(rng.uniform(0.0, 1.0, (count, n)), axis=1)
    u[:, 0], u[:, -1] = 1.0, 0.0
    w = np.exp(np.log(10.0) * rng.uniform(math.log10(lo), math.log10(hi), (count, 1)) * u)
    return sym((q * w[:, None, :]) @ q.swapaxes(-1, -2))


class TestPdFactor:
    """``linalg._pd_factor``: the Cholesky factor of each matrix that the Cholesky of
    ``a - tol ||a||_F I`` proves PD, NaN for every other one."""

    @staticmethod
    def members():
        q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((2, 2)))
        return np.stack([
            np.array([[4.0, 1.0], [1.0, 3.0]]),
            np.array([[1.0, 2.0], [2.0, 1.0]]),
            np.zeros((2, 2)),
            sym((q * [1.0, 1e-17]) @ q.T),
            np.array([[1e308, 9e307], [9e307, 1e308]]),
            np.array([[1e308, 1.5e308], [1.5e308, 1e308]]),
        ])

    def test_factor_bits_or_nan_and_no_warning(self):
        stack = self.members()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            l = _pd_factor(stack, DEFAULT_TOL)
        pd = np.array([True, False, False, False, True, False])
        for m, f, ok in zip(stack, l, pd):
            if ok:
                np.testing.assert_array_equal(f, np.linalg.cholesky(m))
            else:
                assert np.isnan(f).all()

    def test_powers_of_two_keep_the_verdict(self):
        stack = self.members()
        want = ~np.isnan(_pd_factor(stack, DEFAULT_TOL)[:, 0, 0])
        k = np.arange(-900, 901)[:, None, None, None]
        with np.errstate(over="ignore"):
            scaled = np.ldexp(stack, k)
        finite = np.isfinite(scaled).all(axis=(-2, -1))
        got = ~np.isnan(_pd_factor(np.where(finite[..., None, None], scaled, 0.0),
                                   DEFAULT_TOL)[..., 0, 0])
        assert finite[:, 0].all() and finite[:, -1].any()
        assert (got == want)[finite].all()

    @pytest.mark.parametrize("n", [3, 8, 40])
    def test_never_looser_than_the_spectral_rule(self, n):
        # 3000 draws per n, tol = 1e-10 and r in [1e-12, 1e-8]: every matrix the shifted
        # Cholesky proves PD also has lambda_min > tol * lambda_max by its eigenvalues
        rng = np.random.default_rng(5)
        tol = 1e-10
        for _ in range(3):
            draws = _ratio_draws(rng, n, 1000, 1e-12, 1e-8)
            proved = ~np.isnan(_pd_factor(draws, tol)[:, 0, 0])
            spectral = _definite(np.linalg.eigvalsh(draws), tol)
            assert proved.any() and not (proved & ~spectral).any()

    @pytest.mark.parametrize("n", [3, 8, 40])
    def test_one_verdict_with_the_spectral_rule(self, n):
        # the draws above: the spectral rule tests lambda_min against tol ||w||_2 = tol ||A||_F,
        # so off a relative 1e-6 band around that margin, where round-off may decide, a factor
        # and a spectrum give each matrix one verdict, and both verdicts occur
        rng = np.random.default_rng(5)
        tol = 1e-10
        for _ in range(3):
            draws = _ratio_draws(rng, n, 1000, 1e-12, 1e-8)
            w = np.linalg.eigvalsh(draws)
            proved = ~np.isnan(_pd_factor(draws, tol)[:, 0, 0])
            ratio = w[:, 0] / np.linalg.norm(draws, axis=(-2, -1)) / tol
            off = np.abs(ratio - 1.0) > 1e-6
            assert proved[off].any() and not proved[off].all()
            np.testing.assert_array_equal(_definite(w, tol)[off], proved[off])

    def test_spectral_scale_cannot_overflow(self):
        # ||w||_2 = 3e308 is past the largest double, tol ||w||_2 is not: the spectrum is scaled
        # by a power of two first, so a spectral verdict agrees with is_pd
        a = 1.5e308 * np.eye(4)
        assert is_pd(a) and _definite(np.full(4, 1.5e308), DEFAULT_TOL)


#: Powers of two scale a double exactly, so a scale-free rule gives ``2**k A`` the verdict of A.
SCALES = [2.0**k for k in (-60, -30, 30, 60)]


class TestScaleFree:
    """The PD, PSD and symmetry tests judge a matrix against its own scale."""

    @pytest.mark.parametrize("c", SCALES)
    def test_definiteness_verdicts_commute_with_scaling(self, c):
        cases = [np.diag([1.0, 1e-3]), np.diag([1.0, 1e-12]), np.ones((2, 2)),
                 np.array([[1.0, 2.0], [2.0, 1.0]]), np.diag([1.0, -1e-12])]
        for a in cases:
            assert (is_pd(c * a), is_psd(c * a)) == (is_pd(a), is_psd(a))
        # lambda_min = 1e-3 * c: a floor of max(1, ||A||) would call it not PD at c = 2**-30
        assert is_pd(c * np.diag([1.0, 1e-3]))
        assert log_det(c * np.eye(3)) == 3 * math.log(c)

    def test_asymmetry_judged_against_the_matrix_scale(self):
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            as_sym_matrix([[1e-12, 1e-12], [0.0, 1e-12]])
        round_off = np.array([[2.0, 1.0], [1.0 + 1e-15, 2.0]])
        for c in SCALES:
            np.testing.assert_array_equal(as_sym_matrix(c * round_off), c * sym(round_off))


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

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [3, 8])
    def test_log_det_of_a_spread_direction_matches_mpmath(self, seed, n):
        # an eigenvalue log-sum loses digits here (6.7e-9); a Cholesky diagonal is backward stable
        _, b = stretched_spd(seed, n)
        assert log_det(b) == pytest.approx(mp_log_det(b), rel=3e-9)

    def test_log_det_past_the_largest_double(self):
        # lambda_max = 1.9e308 overflows a double, but no Cholesky entry can: l_ij^2 <= a_ii
        big = np.array([[1e308, 9e307], [9e307, 1e308]])
        assert log_det(big) == pytest.approx(2.0 * math.log(1e308) + math.log(0.19), rel=1e-15)
        np.testing.assert_allclose(log_det(np.stack([big, np.eye(2)])), [log_det(big), 0.0])
        with pytest.raises(NotPositiveDefinite, match=r"lambda_min = -5\.000e\+307"):
            log_det(np.array([[1e308, 1.5e308], [1.5e308, 1e308]]))

    def test_spectra_past_the_largest_double(self):
        # the PD tests are scale-free, though lambda_max = 1.9e308 overflows a double
        big = np.array([[1e308, 9e307], [9e307, 1e308]])
        assert is_pd(big) and is_psd(big)
        np.testing.assert_array_equal(is_pd(np.stack([big, np.eye(2), -big])), [True, True, False])
        assert not is_pd(np.array([[1e308, 1.5e308], [1.5e308, 1e308]]))

    def test_stack_gives_one_value_per_matrix(self):
        eyes = np.stack([np.eye(2), 2.0 * np.eye(2)])
        np.testing.assert_allclose(log_det(eyes), [0.0, 2.0 * math.log(2.0)], atol=1e-15)
        diags = np.stack([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        np.testing.assert_array_equal(op_norm(diags), [2.0, 4.0])
        one = gaussian_entropy(np.eye(2))
        assert one == pytest.approx(2.838, abs=5e-4)
        np.testing.assert_allclose(gaussian_entropy(np.stack([np.eye(2)] * 3)), [one] * 3, rtol=1e-15)
        assert type(log_det(np.eye(2))) is float and type(op_norm(np.eye(2))) is float


class TestRawKernels:
    """``_solve`` and ``_inv``, numpy's gufuncs without ``np.linalg``'s wrappers, under
    ``_kernels``: numpy's results bit for bit, and numpy's error for a singular matrix; and
    ``_cholesky``, numpy's factor bit for bit, NaN for each matrix it refuses, silently."""

    def test_match_numpy_bit_for_bit(self):
        rng = np.random.default_rng(0)
        a, b, v = (rng.standard_normal(shape) for shape in ((3, 4, 4), (3, 4, 5), 4))
        with _kernels():
            pairs = [(_solve(a, b), np.linalg.solve(a, b)),
                     (_solve(a[0], v), np.linalg.solve(a[0], v)), (_inv(a), np.linalg.inv(a))]
        for got, want in pairs:
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_cholesky_matches_numpy_and_refuses_with_nan(self):
        # PD, indefinite, zero, PD near overflow, and indefinite near overflow (the kernel's
        # own arithmetic overflows on it): one stack, no warning, no exception
        rng = np.random.default_rng(1)
        tridiagonal = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])
        overflowing = np.array([[1e308, 1.5e308, 0.0], [1.5e308, 1e308, 0.0], [0.0, 0.0, 1.0]])
        stack = np.stack([rand_spd(rng, 3), np.diag([1.0, -1.0, 2.0]), np.zeros((3, 3)),
                          1e308 * tridiagonal, overflowing])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factors = _cholesky(stack)
        assert factors.shape == stack.shape and factors.dtype == np.float64
        for m, l, pd in zip(stack, factors, [True, False, False, True, False]):
            if pd:
                np.testing.assert_array_equal(l, np.linalg.cholesky(m))
            else:
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.cholesky(m)
                assert np.isnan(l).all()
        np.testing.assert_array_equal(_cholesky(stack[0]), np.linalg.cholesky(stack[0]))

    @pytest.mark.parametrize("kernel", [lambda m: _solve(m, np.ones(2)), _inv],
                             ids=["solve", "inv"])
    def test_singular_matrix_raises_numpys_error(self, kernel):
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"), _kernels():
            kernel(np.ones((2, 2)))


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

    def test_matches_a_60_digit_reference_on_spread_pairs(self):
        errors = [abs(riemannian_dist(a, b) / mp_riemannian_dist(a, b) - 1.0)
                  for a, b in spread_pairs()]
        assert len(errors) == 47 and max(errors) <= 1e-9


class TestValidation:
    @pytest.mark.parametrize(
        "call",
        [log_det, gaussian_entropy, is_pd, is_psd],
        ids=["log_det", "gaussian_entropy", "is_pd", "is_psd"],
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
        pm = project(exact, Pattern.complete(2))
        exact[0, 0] = 2.0
        assert pm.entry(1, 1) == 1e308  # the partial matrix holds no view of its input

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
        with pytest.raises(ValueError, match="non-finite"):
            as_sym_matrix(np.array([[1.0, bad], [bad, 1.0]]))


def as_sym_matrix(a):
    """``a`` through :func:`project` onto the complete pattern, back as a dense array: the
    symmetric matrix that ``project`` admits, with the checks of the dense door."""
    return project(a, Pattern.complete(np.shape(a)[-1])).to_dense()


DENSE_ENTRY_POINTS = {
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
