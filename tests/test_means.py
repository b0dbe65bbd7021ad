"""Geometric means, Karcher mean, AGM iteration, entropy identities."""

import dataclasses
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.linalg import det

from pgm import (
    DimensionMismatch,
    EntropyIdentities,
    InternalNumerics,
    NotPositiveDefinite,
    Pattern,
    PgmError,
    agm_iteration,
    entropy_identities,
    fro_norm,
    gaussian_entropy,
    geomean,
    is_pd,
    karcher_mean,
    linalg,
    max_det_completion,
    means,
    op_norm,
    partial_geomean_maxdet,
    partial_geomean_sweep,
    project,
    riemannian_dist,
    set_geomean,
    sym,
)
from conftest import (
    GOLDEN_MEAN_DISPLAYED,
    ando_block_max,
    ex1_partial_a,
    ex1_partial_b,
    factor_inverse,
    geomean_properties,
    golden_pair_completions,
    matrix_a_chordal_example,
    mp_midpoint_eigenvalues,
    near_complete,
    rand_invertible,
    rand_spd,
    reference_trace_quadrature,
    spectral_fn,
    spread_pairs,
    stretched_spd,
)


class TestGeomean:
    def test_commuting_diagonal(self):
        g = geomean(np.diag([1.0, 4.0]), np.diag([9.0, 16.0]), 0.5)
        np.testing.assert_allclose(g, np.diag([3.0, 8.0]), atol=1e-12)

    def test_golden_pair(self):
        a1, a2 = golden_pair_completions()
        g = geomean(a1, a2, 0.5)
        assert np.abs(g - GOLDEN_MEAN_DISPLAYED).max() <= 5e-4

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        a = rand_spd(rng, 4)
        assert fro_norm(geomean(a, a, 0.3) - a) <= 1e-12 * fro_norm(a)

    @pytest.mark.parametrize("seed", range(8))
    def test_endpoints(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rand_spd(rng, 4), rand_spd(rng, 4)
        assert riemannian_dist(geomean(a, b, 0.0), a) <= 1e-10
        assert riemannian_dist(geomean(a, b, 1.0), b) <= 1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_geodesic_parameterization(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rand_spd(rng, 5), rand_spd(rng, 5)
        t = float(rng.uniform(0, 1))
        assert riemannian_dist(a, geomean(a, b, t)) == pytest.approx(
            t * riemannian_dist(a, b), abs=1e-8
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_determinant_identity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        a, b = rand_spd(rng, n), rand_spd(rng, n)
        t = float(rng.uniform(0, 1))
        lhs = det(geomean(a, b, t))
        rhs = det(a) ** (1 - t) * det(b) ** t
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_outside_unit_interval_warns(self):
        rng = np.random.default_rng(2)
        a, b = rand_spd(rng, 3), rand_spd(rng, 3)
        with pytest.warns(UserWarning):
            g = geomean(a, b, 1.5)
        assert np.isfinite(g).all()

    def test_requires_pd(self):
        with pytest.raises(NotPositiveDefinite):
            geomean(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2), 0.5)

    @pytest.mark.parametrize("single", ["a", "b"])
    def test_broadcast_matches_loop(self, single):
        rng = np.random.default_rng(3)
        one = rand_spd(rng, 4)
        stack = np.stack([rand_spd(rng, 4) for _ in range(5)])
        pair = (lambda m: (one, m)) if single == "a" else (lambda m: (m, one))
        expected = np.stack([geomean(*pair(m), 0.3) for m in stack])
        np.testing.assert_array_equal(geomean(*pair(stack), 0.3), expected)

    def test_broadcast_outer_matches_loop(self):
        rng = np.random.default_rng(4)
        a = np.stack([rand_spd(rng, 3) for _ in range(2)])
        b = np.stack([rand_spd(rng, 3) for _ in range(3)])
        expected = np.array([[geomean(x, y, 0.5) for y in b] for x in a])
        np.testing.assert_array_equal(geomean(a[:, None], b[None], 0.5), expected)

    @pytest.mark.parametrize(
        "shape_a, shape_b",
        [
            ((2, 4, 4), (3, 4, 4)),
            ((4, 4), (3, 3)),
            ((2, 3, 3), (2, 4, 4)),
            ((5, 2, 3, 3), (4, 3, 3)),
        ],
    )
    def test_broadcast_shape_mismatch(self, shape_a, shape_b):
        a = np.broadcast_to(np.eye(shape_a[-1]), shape_a)
        b = np.broadcast_to(np.eye(shape_b[-1]), shape_b)
        with pytest.raises(DimensionMismatch):
            geomean(a, b, 0.5)

    @pytest.mark.parametrize("bad", ["a", "b"])
    def test_broadcast_with_one_indefinite_member(self, bad):
        rng = np.random.default_rng(5)
        stack = np.stack([rand_spd(rng, 3) for _ in range(4)])
        stack[2] = np.diag([1.0, -1.0, 2.0])
        one = rand_spd(rng, 3)
        with pytest.raises(NotPositiveDefinite):
            geomean(*((stack, one) if bad == "a" else (one, stack)), 0.5)

    def test_overflowing_product_refused(self):
        # B's spectrum is finite, but L^-1 B L^-T = 4 B, A = L L^T, is not
        with pytest.raises(InternalNumerics, match="eigenvalues past the largest double"):
            geomean(0.25 * np.eye(2), np.diag([1e308, 5e307]), 0.5)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="CHANGES.md FOUND on "
                       "means.geomean under ROADMAP item 21: at a condition number near 1e10, "
                       "L^-1 B L^-T squares the conditioning and 118 of these 232 pairs get an "
                       "eigenvalue <= 0; item 21's factor SVD mends it and removes this marker")
    def test_takes_near_margin_pairs_in_general_position(self):
        admitted, refused = 0, []
        for seed in range(300):
            a, b, t = near_margin_general_pair(seed)
            if is_pd(a) and is_pd(b):
                admitted += 1
                try:
                    geomean(a, b, t)
                except InternalNumerics:
                    refused.append(seed)
        assert (admitted, refused) == (232, [])

    def test_factorization_failure_wrapped(self, monkeypatch):
        # entropy_identities proves its pair PD by _pd_factor, and its trace integral then
        # factors their midpoint by linalg._factor: a midpoint that round-off leaves singular
        # can be refused there (a NaN factor of linalg._cholesky), and that refusal is staged here
        cholesky, midpoint = linalg._cholesky, 1.5 * np.eye(2)

        def refuse_the_midpoint(a):
            return np.full_like(a, np.nan) if np.array_equal(a, midpoint) else cholesky(a)

        monkeypatch.setattr(linalg, "_cholesky", refuse_the_midpoint)
        with pytest.raises(InternalNumerics, match="^Cholesky factorization failed: Matrix is "
                           "not positive definite$"):
            entropy_identities(np.eye(2), 2.0 * np.eye(2), 0.5)


class TestPropertySuite:
    """The classical properties of ``A #_t B``: ``conftest.geomean_properties`` reads all ten
    through the public functions, at rtol 1e-8."""

    @pytest.mark.parametrize("seed", range(12))
    def test_all_properties_hold(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        a, b, c, d = (rand_spd(rng, n) for _ in range(4))
        report = geomean_properties(
            a, b, c, d,
            t=float(rng.uniform(0, 1)),
            lam=float(rng.uniform(0, 1)),
            s=rand_invertible(rng, n),
        )
        assert all(report.values()), report

    def test_all_properties_hold_at_n_400(self):
        # log det of each member is about 400 log 10 > 709, so det overflows
        rng = np.random.default_rng(400)
        a, b, c, d = (10.0 * rand_spd(rng, 400) for _ in range(4))
        report = geomean_properties(a, b, c, d, t=0.3, lam=0.6, s=rand_spd(rng, 400))
        assert report["determinant_identity"] is True
        assert all(report.values()), report

    def test_determinant_identity_on_completions(self):
        ahat = max_det_completion(ex1_partial_a()).matrix
        bhat = max_det_completion(ex1_partial_b()).matrix
        t = 0.5
        lhs = det(geomean(ahat, bhat, t))
        rhs = det(ahat) ** (1 - t) * det(bhat) ** t
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_reversal(self):
        rng = np.random.default_rng(5)
        a, b = rand_spd(rng, 4), rand_spd(rng, 4)
        assert fro_norm(geomean(a, b, 0.3) - geomean(b, a, 0.7)) <= 1e-10

    def test_monotonicity_shifted(self):
        rng = np.random.default_rng(6)
        a, b = rand_spd(rng, 4), rand_spd(rng, 4)
        g_small = geomean(a, b, 0.4)
        g_large = geomean(a + np.eye(4), b + np.eye(4), 0.4)
        assert np.linalg.eigvalsh(g_large - g_small)[0] >= -1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_agm_sandwich(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rand_spd(rng, 5), rand_spd(rng, 5)
        t = float(rng.uniform(0, 1))
        g = geomean(a, b, t)
        inv_a, inv_b = spectral_fn(a, np.reciprocal), spectral_fn(b, np.reciprocal)
        harmonic = spectral_fn((1 - t) * inv_a + t * inv_b, np.reciprocal)
        arithmetic = (1 - t) * a + t * b
        scale = max(op_norm(a), op_norm(b))
        assert np.linalg.eigvalsh(g - harmonic)[0] >= -1e-10 * scale
        assert np.linalg.eigvalsh(arithmetic - g)[0] >= -1e-10 * scale

    @pytest.mark.parametrize("seed", range(8))
    def test_harmonic_mean_matches_the_spectral_form(self, seed):
        # ((1-t) A^-1 + t B^-1)^-1 off one factor of tA + (1-t)B, against numpy's inverses
        rng = np.random.default_rng(seed)
        n, t = int(rng.integers(1, 8)), float(rng.uniform(0, 1))
        a, b = rand_spd(rng, n, 2.0), rand_spd(rng, n, 2.0)
        want = spectral_fn((1 - t) * np.linalg.inv(a) + t * np.linalg.inv(b), np.reciprocal)
        got = means._harmonic(a, b, t)
        assert np.array_equal(got, got.T)
        assert fro_norm(got - want) <= 1e-13 * fro_norm(want)
        np.testing.assert_array_equal(means._harmonic(a, a, t), (1 - t) * a + t * a)

    def test_all_properties_hold_on_wide_congruences(self):
        # S^T A S and S^T B S, cond(S) and cond(A) up to 1e4: geomean refuses the congruent
        # pair of draws 246, 320, 342 and 359 at the PD margin of a caller's matrix, with
        # NotPositiveDefinite naming a positive lambda_min (1.8e-3, 1.5e-3, 1.3e-3, 2.5e-4),
        # and only where is_pd gives the same verdict; all ten properties hold on the other 396
        rng, refused = np.random.default_rng(5), []
        for draw in range(400):
            n = int(rng.integers(2, 6))
            a, b, c, d = (_log_uniform_spd(rng, n, 1e-4, 1.0) for _ in range(4))
            u, v = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
            s = (u * np.exp(rng.uniform(0.0, math.log(1e4), n))) @ v.T
            try:
                report = geomean_properties(a, b, c, d, 0.5, 0.3, s)
            except NotPositiveDefinite:
                assert not (is_pd(sym(s.T @ a @ s)) and is_pd(sym(s.T @ b @ s)))
                refused.append(draw)
            else:
                assert all(report.values()), (draw, report)
        assert refused == [246, 320, 342, 359]

    def test_power_law_partner_is_scale_free(self):
        # the partner A^2 + I lost its I in the whitening once ||A||^2 cond(A) eps passed 1, and
        # 11 of these 200 draws (norms 1 to 1e12, condition numbers to 5e9) raised InternalNumerics;
        # a harmonic mean off three eigen-route inverses read property 10 False on others
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            w = np.exp(rng.uniform(math.log(2e-10), 0.0, n))
            w[-1] = 1.0
            a = sym((q * (w * 10.0 ** rng.uniform(0, 12))) @ q.T)
            report = geomean_properties(a, a, a, a, 0.5, 0.5, np.eye(n))
            assert report["commuting_power_law"] and report["agm_sandwich"]


def _log_uniform_spd(rng, n, lo, hi):
    """``sym(Q diag(w) Q^T)``, ``w`` log-uniform in [lo, hi], ``Q`` drawn first."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return sym((q * np.exp(rng.uniform(math.log(lo), math.log(hi), n))) @ q.T)


def _scaled(s, alpha):
    """The set ``alpha s``, member by member, as a tuple."""
    return tuple(alpha * m for m in s)


def _inverted(s):
    """The tuple of the members' inverses, by ``np.linalg.inv``."""
    return tuple(np.linalg.inv(m) for m in s)


class TestSampleSets:
    def test_singletons(self):
        rng = np.random.default_rng(0)
        a, b = rand_spd(rng, 3), rand_spd(rng, 3)
        out = set_geomean((a,), (b,), 0.4)
        assert len(out) == 1
        assert fro_norm(out[0] - geomean(a, b, 0.4)) <= 1e-14

    def test_cardinality_bound(self):
        rng = np.random.default_rng(1)
        s = tuple(rand_spd(rng, 3) for _ in range(2))
        t = tuple(rand_spd(rng, 3) for _ in range(3))
        assert len(set_geomean(s, t, 0.5)) <= 6

    def test_identical_singletons_collapse(self):
        a = np.diag([2.0, 3.0])
        out = set_geomean((a,), (a,), 0.7)
        assert len(out) == 1
        np.testing.assert_allclose(out[0], a, atol=1e-13)

    def test_off_geodesic_t_warns_once(self):
        s = (np.eye(2), 2.0 * np.eye(2))
        with pytest.warns(UserWarning, match="lies outside") as record:
            set_geomean(s, _scaled(s, 3.0), 1.5)
        assert len(record) == 1
        assert record[0].filename == __file__

    def test_scalar_homogeneity_memberwise(self):
        rng = np.random.default_rng(2)
        s = tuple(rand_spd(rng, 3) for _ in range(2))
        t_set = tuple(rand_spd(rng, 3) for _ in range(2))
        t = 0.3
        a, b = 2.0, 5.0
        lhs = set_geomean(_scaled(s, a), _scaled(t_set, b), t)
        rhs = _scaled(set_geomean(s, t_set, t), a ** (1 - t) * b**t)
        for x, y in zip(lhs, rhs):
            assert fro_norm(x - y) <= 1e-10 * max(1.0, fro_norm(y))

    def test_inversion_memberwise(self):
        rng = np.random.default_rng(3)
        s = tuple(rand_spd(rng, 3) for _ in range(2))
        t_set = tuple(rand_spd(rng, 3) for _ in range(2))
        lhs = _inverted(set_geomean(s, t_set, 0.4))
        rhs = set_geomean(_inverted(s), _inverted(t_set), 0.4)
        for x, y in zip(lhs, rhs):
            assert fro_norm(x - y) <= 1e-9 * max(1.0, fro_norm(y))

    def test_rejects_indefinite_member(self):
        with pytest.raises(NotPositiveDefinite):
            set_geomean((np.eye(2),), (np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="expected at least one matrix"):
            set_geomean((), (np.eye(2),))


class TestOffGeodesicWarningUnderASpy:
    """The off-geodesic warning comes once per public call, at the caller's line, also while a
    spy wraps ``geomean`` as a tracer does: no mean in ``pgm`` re-enters ``geomean``."""

    @pytest.fixture
    def spy(self):
        with mock.patch.object(means, "geomean", wraps=means.geomean) as spy:
            yield spy

    @pytest.mark.parametrize("k", [2, 3])
    def test_set_geomean(self, spy, k):
        s = tuple(np.diag([1.0, j + 2.0]) for j in range(k))
        with pytest.warns(UserWarning, match="lies outside") as record:
            set_geomean(s, _scaled(s, 3.0), 1.5)
        assert [w.filename for w in record] == [__file__]
        assert spy.call_count == 0


def _matrix_and(result, *names):
    """``([result.matrix], [result.<name>, ...])``: what scales with the inputs, and what not."""
    return [result.matrix], [getattr(result, name) for name in names]


#: The means as ``(matrices, numbers)``: at ``c = 4^k`` the matrices are ``c`` times those of
#: ``(A, B)`` and the numbers (distances, counts, verdicts) equal, bit for bit.
POWER_OF_FOUR_ENTRIES = {
    "geomean": lambda a, b: ([geomean(a, b, 0.3)], []),
    "karcher_mean": lambda a, b: _matrix_and(
        karcher_mean((0.25, 0.75), (a, b)), "steps", "gradient_norm", "converged"),
    "agm_iteration": lambda a, b: _matrix_and(agm_iteration(a, b), "iterations", "converged"),
    "riemannian_dist": lambda a, b: ([], [riemannian_dist(a, b)]),
    "set_geomean": lambda a, b: (list(set_geomean((a,), (a, b))), []),
}


class TestScaleFree:
    """Inverses and comparisons are judged against the operands' own scale, so the means
    run at any scale: a floor of max(1, ||A||) would refuse the inverse of ``1e10 A`` as not PD."""

    @pytest.mark.parametrize("c", [1e10, 1e11, 1e12])
    def test_means_of_large_matrices(self, c):
        rng = np.random.default_rng(11)
        a, b, d = (c * rand_spd(rng, 3) for _ in range(3))
        agm = agm_iteration(a, b)
        assert agm.converged
        np.testing.assert_allclose(agm.matrix, geomean(a, b), rtol=1e-10, atol=0)
        assert all(geomean_properties(a, b, b, d, 0.3, 0.6, rand_invertible(rng, 3)).values())
        inverse = _inverted((a, b))
        np.testing.assert_allclose(inverse[0] @ a, np.eye(3), atol=1e-10)

    @pytest.mark.parametrize("c", [2.0**-70, 1.0, 2.0**70, 2.0**-600, 2.0**600])
    def test_set_geomean_duplicates_are_relative(self, c):
        # I and sqrt(2) I differ by 0.41 c: distinct at every scale, and A # A is one member
        s, t_set = (c * np.eye(2), 2.0 * c * np.eye(2)), (c * np.eye(2),)
        assert len(set_geomean(s, t_set)) == 2
        assert len(set_geomean(t_set, (c * np.eye(2), c * np.eye(2)))) == 1

    @pytest.mark.parametrize("c", [4.0**-300, 4.0**300], ids=["4^-300", "4^300"])
    @pytest.mark.parametrize("name", list(POWER_OF_FOUR_ENTRIES))
    def test_power_of_four_scales_the_means_bit_for_bit(self, name, c):
        # sqrt(4^k x) = 2^k sqrt(x) exactly, so each factor of c A is 2^k times that of A; a
        # Frobenius norm of c A squares its entries past the double range, up or down
        a, b = (rand_spd(np.random.default_rng(seed), 3) for seed in (5, 6))
        mats, numbers = POWER_OF_FOUR_ENTRIES[name](a, b)
        scaled_mats, scaled_numbers = POWER_OF_FOUR_ENTRIES[name](c * a, c * b)
        assert len(scaled_mats) == len(mats)
        assert all(np.array_equal(x, c * m) for x, m in zip(scaled_mats, mats))
        assert scaled_numbers == numbers


#: PD at the margin lambda_min > 1e-10 ||A||_F, while its inverse, lambda_min = 1 against a norm of
#: 1.7e10, is not: the margin gates a caller's matrix, and is not closed under inversion.
NEAR_MARGIN = np.diag([1.2e-10] * 4 + [1.0])


def near_margin_commuting_pairs(trials):
    """The pairs of ``trials`` draws that pass ``is_pd``: two ``sym(Q diag(w) Q^T)`` on one ``Q``,
    ``k`` of the ``n`` entries of each ``w`` log-uniform in [1.1e-10, 4e-10] sqrt(n), the others in
    [0.5, 2]: a condition number near 1e10, so each inverse fails the margin its matrix passed."""
    rng, pairs = np.random.default_rng(1), []
    for _ in range(trials):
        n = rng.integers(3, 8)
        k = rng.integers(2, n)
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        pair = []
        for _ in range(2):
            small = np.exp(rng.uniform(math.log(1.1e-10), math.log(4e-10), k)) * math.sqrt(n)
            w = np.concatenate((small, rng.uniform(0.5, 2.0, n - k)))
            pair.append(sym((q * w) @ q.T))
        if is_pd(pair[0]) and is_pd(pair[1]):
            pairs.append(pair)
    return pairs


def near_margin_general_pair(seed):
    """``(A, B, t)`` off ``default_rng(seed)``: two ``sym(Q diag(w) Q^T)``, each on its own ``Q``,
    so the pair shares no eigenbasis; one entry of each ``w`` log-uniform in [1.05e-10, 3e-10]
    sqrt(n), the other ``n - 1`` in [0.5, 2], ``n`` in [3, 7]; then ``t`` uniform in [0, 1]."""
    rng = np.random.default_rng(seed)
    n = rng.integers(3, 8)
    pair = []
    for _ in range(2):
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        small = np.exp(rng.uniform(math.log(1.05e-10), math.log(3e-10), 1)) * math.sqrt(n)
        pair.append(sym((q * np.concatenate((small, rng.uniform(0.5, 2.0, n - 1)))) @ q.T))
    return pair[0], pair[1], float(rng.uniform(0, 1))


class TestBuiltMatricesPassNoDoor:
    """The AGM and the set mean take the harmonic sums and means they build past every PD
    door: a caller's matrix that passes the margin is taken whole, also near it."""

    def test_agm_of_a_near_margin_matrix_with_itself(self):
        assert is_pd(NEAR_MARGIN)
        res = agm_iteration(NEAR_MARGIN, NEAR_MARGIN)
        assert (res.iterations, res.converged) == (1, True)
        np.testing.assert_array_equal(res.matrix, NEAR_MARGIN)

    def test_near_margin_commuting_pairs_are_refused_only_at_an_inverse(self):
        # the means of the property suite take each pair; geomean refuses an inverse of the
        # first 30 draws where is_pd does, in two of them (17 and 29).  The verdicts of the
        # solvers and properties (an unconverged AGM, properties read False at rtol 1e-8) stand
        pairs, refused = near_margin_commuting_pairs(30), []
        assert len(pairs) >= 28
        for k, (a, b) in enumerate(pairs):
            try:
                geomean_properties(a, b, a, b, 0.3, 0.6, np.eye(len(a)))
            except NotPositiveDefinite:
                assert not (is_pd(factor_inverse(a)) and is_pd(factor_inverse(b)))
                refused.append(k)
            try:
                agm_iteration(a, b)
            except PgmError as exc:
                pytest.fail(f"{type(exc).__name__}: {exc}")
        assert refused == [17, 29]

    @pytest.mark.parametrize("seed", [14174, 16804, 38128, 39809])
    def test_set_mean_returns_the_near_margin_means_of_geomean(self, seed):
        """The set mean's one mean is ``geomean``'s, bit for bit, on four pairs whose mean the
        margin refused (lambda_min 8.0e-12 to 1.6e-10) when the mean went through a PD door.
        These means carry ROADMAP item 21's error: a 50-digit ``mpmath`` mean puts lambda_min /
        ||G||_F at 1.7e-10 to 5.3e-10, where ``pgm`` reads 3.9e-12 to 9.9e-11.  So this pins the
        agreement with ``geomean``, not the accuracy."""
        a, b, t = near_margin_general_pair(seed)
        np.testing.assert_array_equal(set_geomean((a,), (b,), t)[0], geomean(a, b, t))


class TestBlockMaxProperty:
    def test_identity(self):
        assert ando_block_max(np.eye(2), np.eye(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_random(self, seed):
        rng = np.random.default_rng(seed)
        assert ando_block_max(rand_spd(rng, 3), rand_spd(rng, 3))

    def test_bumped_mean_leaves_cone(self):
        rng = np.random.default_rng(9)
        a, b = rand_spd(rng, 3), rand_spd(rng, 3)
        x = geomean(a, b, 0.5) + 0.01 * np.eye(3)
        block = sym(np.block([[a, x], [x, b]]))
        assert np.linalg.eigvalsh(block)[0] < -1e-10


class TestPartialGeomean:
    def test_example_one(self):
        res = partial_geomean_maxdet(ex1_partial_a(), ex1_partial_b(), 0.5)
        assert res.completion_a.matrix[0, 2] == pytest.approx(-2.0 / 3.0, abs=1e-9)
        assert res.completion_b.matrix[0, 2] == pytest.approx(-3.0 / 5.0, abs=1e-9)
        expected = math.sqrt(
            res.completion_a.determinant * res.completion_b.determinant
        )
        assert res.determinant == pytest.approx(expected, rel=1e-10)

    def test_log_determinant_finite_where_determinant_overflows(self):
        g = Pattern.from_pairs(400, [(i, i + 1) for i in range(1, 400)])
        with np.errstate(over="ignore"):
            res = partial_geomean_maxdet(project(10 * np.eye(400), g), project(12 * np.eye(400), g))
        assert res.determinant == math.inf
        assert res.completion_a.determinant == res.completion_b.determinant == math.inf
        assert res.log_determinant == pytest.approx(200 * math.log(120.0), rel=1e-13)
        assert res.completion_a.log_determinant == pytest.approx(400 * math.log(10.0), rel=1e-13)
        assert res.completion_b.log_determinant == pytest.approx(400 * math.log(12.0), rel=1e-13)

    def test_log_determinant_is_log_of_determinant(self):
        res = partial_geomean_maxdet(ex1_partial_a(), ex1_partial_b(), 0.3)
        assert res.log_determinant == pytest.approx(math.log(det(res.matrix)), rel=1e-12)

    def test_determinant_derived_from_the_log(self):
        assert "determinant" not in {f.name for f in dataclasses.fields(means.PartialGeomeanResult)}
        res = partial_geomean_maxdet(ex1_partial_a(), ex1_partial_b(), 0.3)
        assert res.determinant == math.exp(res.log_determinant)
        assert res.determinant == pytest.approx(det(res.matrix), rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_determinant_reads_inf_without_warning(self):
        g = Pattern.from_pairs(400, [(i, i + 1) for i in range(1, 400)])
        res = partial_geomean_maxdet(project(10 * np.eye(400), g), project(12 * np.eye(400), g))
        assert res.determinant == res.completion_a.determinant == math.inf

    @pytest.fixture
    def completions(self, monkeypatch):
        """The inputs ``means.max_det_completion`` is called on, in order."""
        calls, real = [], means.max_det_completion
        monkeypatch.setattr(means, "max_det_completion", lambda pm: calls.append(pm) or real(pm))
        return calls

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_refused_before_completing(self, completions, t):
        with pytest.raises(ValueError, match=f"geomean parameter t must be finite, got {t}"):
            partial_geomean_maxdet(ex1_partial_a(), ex1_partial_b(), t)
        assert completions == []

    def test_off_geodesic_t_warns_once(self, completions):
        with pytest.warns(UserWarning, match="lies outside") as record:
            partial_geomean_maxdet(ex1_partial_a(), ex1_partial_b(), 1.5)
        assert len(record) == 1 and len(completions) == 2
        assert record[0].filename == __file__

    def test_complete_inputs_fixed_point(self):
        pm = matrix_a_chordal_example()
        rep = max_det_completion(pm)
        from pgm import Pattern, project

        full = project(rep.matrix, Pattern.complete(pm.n))
        res = partial_geomean_maxdet(full, full, 0.3)
        assert fro_norm(res.matrix - rep.matrix) <= 1e-10 * fro_norm(rep.matrix)

    def test_t_zero_returns_first_completion(self):
        res = partial_geomean_maxdet(ex1_partial_a(), ex1_partial_b(), 0.0)
        assert fro_norm(res.matrix - res.completion_a.matrix) <= 1e-10

    def test_optimality_over_completion_grid(self):
        # no pair of completions beats the max-det pair
        pa, pb = ex1_partial_a(), ex1_partial_b()
        res = partial_geomean_maxdet(pa, pb, 0.5)
        from pgm import partial_entry_bounds

        (lo_a, hi_a), (lo_b, hi_b) = (partial_entry_bounds(pm, (1, 3)) for pm in (pa, pb))
        ma, mb = pa.to_dense(), pb.to_dense()
        shrink = 1e-9
        best = -np.inf
        for x in np.linspace(lo_a + shrink, hi_a - shrink, 51):
            ma[0, 2] = ma[2, 0] = x
            da = det(ma)
            for y in np.linspace(lo_b + shrink, hi_b - shrink, 51):
                mb[0, 2] = mb[2, 0] = y
                best = max(best, math.sqrt(max(da, 0.0) * max(det(mb), 0.0)))
        assert res.determinant >= best - 1e-9


@st.composite
def near_complete_pairs(draw):
    """Partial PD ``(pa, pb, t)``: ``pa`` misses 1-3 random pairs (chordal or not), ``pb`` is
    complete or near-complete too, n 3-11."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(3, 12))
    pa = project(rand_spd(rng, n), near_complete(rng, n, int(rng.integers(1, 4))))
    pb = project(rand_spd(rng, n), near_complete(rng, n, int(rng.integers(0, 3))))
    return pa, pb, float(rng.uniform(0.0, 1.0))


class TestMeansOfCompletions:
    """The means of completions skip an eigensolve yet equal their definitions exactly."""

    @given(case=near_complete_pairs())
    def test_partial_mean_is_geomean_of_the_completions(self, case):
        pa, pb, t = case
        res = partial_geomean_maxdet(pa, pb, t)
        a_hat, b_hat = res.completion_a.matrix, res.completion_b.matrix
        np.testing.assert_array_equal(res.matrix, geomean(a_hat, b_hat, t))

    @given(case=near_complete_pairs())
    def test_entropy_identities_match_their_definition(self, case):
        pa, pb, t = case
        s0 = max_det_completion(pa).require_converged().matrix
        s1 = max_det_completion(pb).require_converged().matrix
        h0, h1 = gaussian_entropy(s0), gaussian_entropy(s1)
        assert entropy_identities(s0, s1, t) == EntropyIdentities(
            entropy_diff=h1 - h0,
            entropy_diff_integral=0.5 * means._trace_integral(s0, s1),
            entropy_geomean=gaussian_entropy(geomean(s0, s1, t)),
            entropy_interpolated=(1.0 - t) * h0 + t * h1,
        )


#: ``(k, n)`` of a Karcher case, and its ``(steps, gradient_norm.hex(), sha256 of the matrix)``
#: as recorded before the warm start took the core on the members of the proved stack.
KARCHER_DIGESTS = {
    (3, 5): (14, "0x1.f371f75f0de4fp-33",
             "e54305c4308989f5471ed90bb9db1df7a1a5e0de23940d0891e9349777cae686"),
    (4, 10): (20, "0x1.2a7d54b135e52p-31",
              "7f584780e9fb53eda17f8fd927743b0ddcab5f021831ac1df16338fdf27bd264"),
    (6, 15): (27, "0x1.fa6551ea09f8ep-32",
              "ae46304950226e660c0852762e9b29186a4b0f784f26025aa89185be435bcfd9"),
}


class TestKarcherMean:
    def test_two_matrix_midpoint(self):
        rng = np.random.default_rng(0)
        a, b = rand_spd(rng, 4), rand_spd(rng, 4)
        res = karcher_mean((0.5, 0.5), [a, b])
        assert riemannian_dist(res.matrix, geomean(a, b, 0.5)) <= 1e-8

    def test_all_equal(self):
        a = np.diag([1.0, 2.0, 3.0])
        res = karcher_mean((1 / 3,) * 3, [a, a, a])
        assert fro_norm(res.matrix - a) <= 1e-12

    def test_commuting_diagonals(self):
        rng = np.random.default_rng(1)
        mats = [np.diag(rng.uniform(0.5, 2.0, 4)) for _ in range(3)]
        res = karcher_mean((1 / 3,) * 3, mats)
        expected = np.diag(
            np.exp(np.mean([np.log(np.diag(m)) for m in mats], axis=0))
        )
        assert fro_norm(res.matrix - expected) <= 1e-8
        assert res.gradient_norm <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_certificate(self, seed):
        rng = np.random.default_rng(seed)
        mats = [rand_spd(rng, 4) for _ in range(3)]
        w = rng.uniform(0.5, 1.5, 3)
        res = karcher_mean(w / w.sum(), mats)
        assert res.converged
        assert res.gradient_norm <= 1e-6
        # certificate recomputed independently of the result record
        ris = spectral_fn(res.matrix, lambda v: 1 / np.sqrt(v))
        grad = sum(
            wi * spectral_fn(sym(ris @ m @ ris), np.log) for wi, m in zip(w / w.sum(), mats)
        )
        assert fro_norm(grad) <= 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_converges_on_spread_spectra(self, seed):
        # eigenvalues log-uniform in [1e-3, 1e3]; a unit fixed-point step
        # does not converge on these
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(3, 8)), int(rng.integers(3, 7))
        mats = [rand_spd(rng, n, spread=3.0 * math.log(10.0)) for _ in range(k)]
        w = rng.uniform(0.5, 1.5, k)
        res = karcher_mean(w / w.sum(), mats, tol=1e-9)
        assert res.converged
        assert res.gradient_norm <= 1e-9

    @pytest.mark.parametrize(("k", "n"), sorted(KARCHER_DIGESTS))
    def test_warm_start_proves_nothing_twice(self, k, n):
        """The stacked PD proof is the one ``_pd_factor`` of a call, and no ``eigvalsh`` runs:
        the warm start's means reuse it, and the result is the same, bit for bit.  The inputs
        are drawn here, not by the ``conftest`` helpers, so that a change to those cannot move
        the digests."""
        rng = np.random.default_rng([k, n])
        mats = []
        for _ in range(k):
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            m = (q * np.exp(rng.uniform(-2.0, 2.0, n))) @ q.T
            mats.append(0.5 * (m + m.T))
        w = rng.uniform(0.5, 2.0, k)
        with (mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy,
              mock.patch.object(linalg, "_pd_factor", wraps=linalg._pd_factor) as proof):
            res = karcher_mean(w / w.sum(), mats)
        assert (spy.call_count, proof.call_count) == (0, 1)
        digest = hashlib.sha256(res.matrix.tobytes()).hexdigest()
        assert (res.steps, res.gradient_norm.hex(), digest) == KARCHER_DIGESTS[k, n]

    def test_weight_validation(self):
        pair = [np.eye(2), 2.0 * np.eye(2)]
        with pytest.raises(ValueError, match=r"weights must sum to 1, got 1\.1"):
            karcher_mean((0.5, 0.6), pair)
        for bad, shown in (((1.5, -0.5), r"\(1\.5, -0\.5\)"), ((), r"\(\)")):
            message = "weights must be positive and finite, got " + shown
            with pytest.raises(ValueError, match=message):
                karcher_mean(bad, pair)
        with pytest.raises(ValueError, match="2 weights for 1 matrices"):
            karcher_mean((0.5, 0.5), [np.eye(2)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weights_named(self, bad):
        message = rf"weights must be positive and finite, got \({bad}, 0.5\)"
        with pytest.raises(ValueError, match=message):
            karcher_mean((bad, 0.5), [np.eye(2), 2.0 * np.eye(2)])
        with pytest.raises(ValueError, match=message):
            karcher_mean([bad, 0.5], [np.eye(2), 2.0 * np.eye(2)])

    def test_negative_step_budget_named(self):
        with pytest.raises(ValueError, match="max_steps must be an integer >= 0, got -1"):
            karcher_mean((0.5, 0.5), [np.eye(2), 2.0 * np.eye(2)], max_steps=-1)

    @pytest.mark.parametrize("budget", [1.5, 2.0, None])
    def test_non_integer_step_budget_named(self, budget):
        with pytest.raises(ValueError, match=f"max_steps must be an integer >= 0, got {budget!r}"):
            karcher_mean((0.5, 0.5), [np.eye(2), 2.0 * np.eye(2)], max_steps=budget)

    @pytest.mark.parametrize("budget", [True, False])
    def test_bool_step_budget_named(self, budget):
        # both would otherwise pass the >= 0 gate as 1 and 0 steps
        with pytest.raises(ValueError, match=f"max_steps must be an integer >= 0, got {budget!r}"):
            karcher_mean((0.5, 0.5), [np.eye(2), 2.0 * np.eye(2)], max_steps=budget)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_bad_tolerance_named(self, tol):
        # NaN or a negative tolerance would spend the whole budget, however small the gradient
        with pytest.raises(ValueError, match=f"tol must be a finite number >= 0, got {tol!r}"):
            karcher_mean((0.5, 0.5), [np.eye(2), 2.0 * np.eye(2)], tol=tol)

    def test_numpy_integer_step_budget_accepted(self):
        res = karcher_mean((0.5, 0.5), [np.eye(2), 4.0 * np.eye(2)],
                           max_steps=np.int32(0))
        assert res.steps == 1
        np.testing.assert_allclose(res.matrix, 2.0 * np.eye(2))

    @pytest.fixture(scope="class")
    def skewed_spread_results(self):
        """``karcher_mean`` with weights (0.95, 0.05) on 300 pairs ``rand_spd(default_rng(1),
        4, spread=log 1e4)``, run once for the tests that read them."""
        rng = np.random.default_rng(1)
        pairs = [[rand_spd(rng, 4, spread=math.log(1e4)) for _ in range(2)] for _ in range(300)]
        return [karcher_mean((0.95, 0.05), pair) for pair in pairs]

    def test_skewed_weights_on_spread_pairs_raise_nothing(self, skewed_spread_results):
        # eigenvalues log-uniform in [1e-4, 1e4], so L^-1 A_i L^-T spreads past 1e10 near the
        # heavy input: a PD margin on those spectra refused 47 of these pairs that _pd_factor
        # proves PD (draws 6, 17, 18, 19, ...), where the certificate alone decides
        for res in skewed_spread_results:
            assert res.converged == (res.gradient_norm <= 1e-9)
        assert sum(res.converged for res in skewed_spread_results) > 0

    @pytest.mark.xfail(strict=True, reason="CHANGES.md FOUND on means.karcher_mean: the whitened "
                       "L^-1 A_i L^-T square the conditioning, and 36 of these pairs stall for "
                       "200 steps; ROADMAP item 26 mends it and removes this marker")
    def test_skewed_weights_on_spread_pairs_converge(self, skewed_spread_results):
        # convergence only: the closed form A #_0.05 B carries item 21's error on these pairs
        assert all(res.converged for res in skewed_spread_results)

    def test_requires_pd(self):
        with pytest.raises(NotPositiveDefinite):
            karcher_mean(
                (0.5, 0.5),
                [np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])],
            )

    def test_budget_exhaustion_flagged(self):
        rng = np.random.default_rng(7)
        mats = [rand_spd(rng, 4) for _ in range(3)]
        res = karcher_mean((1 / 3,) * 3, mats, tol=1e-14, max_steps=0)
        assert not res.converged
        assert res.gradient_norm > 0


class TestAgmIteration:
    def test_equal_inputs_one_step(self):
        a = np.diag([2.0, 5.0])
        res = agm_iteration(a, a)
        assert res.iterations == 1
        np.testing.assert_allclose(res.matrix, a, atol=1e-13)

    def test_scalar_geometric_mean(self):
        res = agm_iteration(np.array([[1.0]]), np.array([[4.0]]))
        assert res.matrix[0, 0] == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_geomean(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rand_spd(rng, 4), rand_spd(rng, 4)
        res = agm_iteration(a, b)
        assert res.converged
        assert riemannian_dist(res.matrix, geomean(a, b, 0.5)) <= 1e-8

    @pytest.mark.xfail(strict=True, reason="CHANGES.md FOUND on means._geomean_cells: forming "
                       "L^-1 B L^-T squares the conditioning (seed 280 misses by 5.6e-4); "
                       "ROADMAP item 21 mends it and removes this marker")
    def test_geomean_matches_agm_on_spread_pairs(self):
        gaps = []
        for a, b in spread_pairs():
            res = agm_iteration(a, b)
            assert res.converged
            gaps.append(fro_norm(geomean(a, b) - res.matrix) / fro_norm(res.matrix))
        assert len(gaps) == 47 and max(gaps) <= 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_sandwich_every_step(self, seed):
        rng = np.random.default_rng(10 + seed)
        a, b = rand_spd(rng, 4), rand_spd(rng, 4)
        res = agm_iteration(a, b)
        g = geomean(a, b, 0.5)
        scale = max(op_norm(a), op_norm(b))
        for lower, upper in zip(res.lower_iterates, res.upper_iterates):
            assert np.linalg.eigvalsh(g - lower)[0] >= -1e-9 * scale
            assert np.linalg.eigvalsh(upper - g)[0] >= -1e-9 * scale

    def test_requires_pd(self):
        with pytest.raises(NotPositiveDefinite):
            agm_iteration(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))

    def test_near_margin_commuting_pairs_converge_to_the_exact_mean(self):
        # the harmonic steps once took three eigensolves of inverses each, which lost the digits:
        # every pair spent 100 steps unconverged, 3.4e-8 to 5.1e-6 off Q diag(sqrt(w_a w_b)) Q^T
        for a, b in near_margin_commuting_pairs(30):
            w_a, q = np.linalg.eigh(a)
            exact = (q * np.sqrt(w_a * np.diag(q.T @ b @ q))) @ q.T
            res = agm_iteration(a, b)
            assert res.converged and res.iterations <= 6
            assert fro_norm(res.matrix - exact) <= 1e-12 * fro_norm(exact)

    def test_steps_take_one_factor_and_no_eigensolve(self, monkeypatch):
        rng = np.random.default_rng(3)
        a, b = rand_spd(rng, 5, 2.0), rand_spd(rng, 5, 2.0)
        spies = {name: mock.Mock(wraps=getattr(np.linalg, name)) for name in ("eigh", "eigvalsh")}
        for name, spy in spies.items():
            monkeypatch.setattr(np.linalg, name, spy)
        factor = mock.Mock(wraps=means._factor)
        monkeypatch.setattr(means, "_factor", factor)
        res = agm_iteration(a, b)
        assert res.converged and res.iterations > 2
        assert factor.call_count == res.iterations
        means._harmonic(a, b, 0.3)
        assert factor.call_count == res.iterations + 1
        assert [spy.call_count for spy in spies.values()] == [0, 0]

    def test_matches_a_60_digit_reference_on_spread_pairs(self):
        # no worse than the eigen-route harmonic steps, whose worst relative eigenvalue error on
        # these 47 pairs (condition numbers to 1e8) was 2.15e-9
        worst = 0.0
        for a, b in spread_pairs():
            res = agm_iteration(a, b)
            assert res.converged
            want = mp_midpoint_eigenvalues(a, b)
            got = np.linalg.eigvalsh(res.matrix)[::-1]
            worst = max(worst, float(np.max(np.abs(got - want) / want)))
        assert worst <= 2.15e-9


class TestDetIntegralIdentity:
    """The log-determinant identity, halved: ``entropy_identities``' entropy difference and its
    trace integral.  Absolute bounds are half those on the log-determinants."""

    def test_equal_endpoints(self):
        a = np.diag([2.0, 3.0])
        ids = entropy_identities(a, a)
        assert (ids.entropy_diff, ids.entropy_diff_integral) == (0.0, 0.0)

    def test_identity_to_diagonal(self):
        # the trace integral reduces to int_0^1 3/(1+3t) dt = ln 4
        ids = entropy_identities(np.eye(2), np.diag([4.0, 1.0]))
        assert ids.entropy_diff == pytest.approx(0.5 * math.log(4.0), abs=5e-15)
        assert ids.entropy_diff_integral == pytest.approx(0.5 * math.log(4.0), abs=5e-15)

    def test_completion_pair(self):
        pm = ex1_partial_a()
        ahat = max_det_completion(pm).matrix
        other = ahat.copy()
        other[0, 2] = other[2, 0] = 0.5  # still inside the feasibility interval
        ids = entropy_identities(ahat, other)
        assert abs(ids.entropy_diff - ids.entropy_diff_integral) <= 5e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        a0, a1 = rand_spd(rng, n), rand_spd(rng, n)
        ids = entropy_identities(a0, a1)
        assert abs(ids.entropy_diff - ids.entropy_diff_integral) <= 5e-9

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [3, 8])
    def test_sides_agree_on_a_spread_direction(self, seed, n):
        # an eigenvalue log-sum on the left side loses digits here (5.5e-9 off the right side)
        ids = entropy_identities(*stretched_spd(seed, n))
        assert ids.entropy_diff == pytest.approx(ids.entropy_diff_integral, rel=2e-9)

    def test_finite_where_det_overflows(self):
        # det(10 I_400) = 1e400 overflows; both sides are 200 log 1.2
        ids = entropy_identities(10.0 * np.eye(400), 12.0 * np.eye(400))
        assert ids.entropy_diff == pytest.approx(200.0 * math.log(1.2), rel=1e-12)
        assert ids.entropy_diff_integral == pytest.approx(200.0 * math.log(1.2), rel=1e-12)

    def test_requires_pd(self):
        with pytest.raises(NotPositiveDefinite):
            entropy_identities(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))


class TestTraceQuadrature:
    """The closed-form trace integral against slogdet and against a per-node
    Simpson rule with one solve per node."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_slogdet_on_spread_spectra(self, seed):
        rng = np.random.default_rng([seed, 50])
        for _ in range(25):
            n = int(rng.integers(2, 61))
            a0, a1 = rand_spd(rng, n, 5.0), rand_spd(rng, n, 5.0)
            exact = np.linalg.slogdet(a1)[1] - np.linalg.slogdet(a0)[1]
            got = means._trace_integral(a0, a1)
            assert abs(got - exact) <= 1e-10 * abs(exact)

    @pytest.mark.parametrize("quad_points", [2001])
    @pytest.mark.parametrize("spread", [0.8])
    def test_matches_per_node_loop(self, spread, quad_points):
        rng = np.random.default_rng([quad_points, int(10 * spread)])
        for _ in range(8):
            n = int(rng.integers(2, 61))
            a0, a1 = rand_spd(rng, n, spread), rand_spd(rng, n, spread)
            ref = reference_trace_quadrature(a0, a1, quad_points)
            got = means._trace_integral(a0, a1)
            assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))

    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_keeps_its_digits_on_a_one_direction_spread(self, seed, n):
        # A1 = A + 1e9 q q^T, q the eigenvector of A's smallest eigenvalue: one nu_i is
        # near 2 and the rest near 0, so the small ones must keep their absolute digits
        a = rand_spd(np.random.default_rng(seed), n)
        q = np.linalg.eigh(a)[1][:, 0]
        a1 = a + 1e9 * np.outer(q, q)
        diff = np.linalg.slogdet(a1)[1] - np.linalg.slogdet(a)[1]
        assert abs(means._trace_integral(a, a1) - diff) <= 3e-9 * abs(diff)

    @staticmethod
    def _count_kernels(monkeypatch):
        # means imports _eigh by name, so the numpy kernels are what is counted
        calls = {"solve": 0, "eig": 0}
        for name, key in (("solve", "solve"), ("eigh", "eig"), ("eigvalsh", "eig")):
            def counted(*args, _real=getattr(np.linalg, name), _key=key, **kwargs):
                calls[_key] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    def test_one_eigensolve_and_no_solve(self, monkeypatch):
        # the midpoint is factored, not eigensolved: only nu's spectrum is taken
        calls = self._count_kernels(monkeypatch)
        rng = np.random.default_rng(2)
        means._trace_integral(rand_spd(rng, 10), rand_spd(rng, 10))
        assert calls == {"solve": 0, "eig": 1}

    @pytest.mark.parametrize("ratio", [1e4, 1e8, 1e12, 1e16, 1e20, 1e-20])
    def test_wide_ratio_keeps_its_digits(self, ratio):
        # 1 -+ nu/2 cancels as the ratio grows (an error that grows with it, NaN from 1e16),
        # while the logged spectra of M^-1/2 A_i M^-1/2 hold to round-off
        a = rand_spd(np.random.default_rng(7), 6)
        exact = 6.0 * math.log(ratio)
        assert abs(means._trace_integral(a, ratio * a) - exact) <= 1e-14 * abs(exact)
        got = means._trace_integral(np.stack([a, a]), np.stack([2.0 * a, ratio * a]))
        np.testing.assert_allclose(got, [6.0 * math.log(2.0), exact], rtol=1e-14, atol=0)

    def test_wide_pair_adds_one_eigensolve(self, monkeypatch):
        calls = self._count_kernels(monkeypatch)
        a = rand_spd(np.random.default_rng(2), 10)
        means._trace_integral(a, 1e6 * a)
        assert calls == {"solve": 0, "eig": 2}


class TestEntropy:
    def test_identity_covariance(self):
        assert gaussian_entropy(np.eye(2)) == pytest.approx(1.0 + math.log(2 * math.pi))

    def test_integral_finite_at_a_wide_ratio(self):
        # at 1e20 S, nu/2 rounds to 1, where log1p(-nu/2) is -inf
        sigma = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 3.0]])
        ids = entropy_identities(sigma, 1e20 * sigma)
        assert ids.entropy_diff_integral == pytest.approx(1.5 * math.log(1e20), rel=1e-14)
        assert ids.entropy_diff_integral == pytest.approx(ids.entropy_diff, rel=1e-14)

    def test_off_geodesic_t_warns_once(self):
        with pytest.warns(UserWarning, match="lies outside") as record:
            entropy_identities(np.eye(2), 2.0 * np.eye(2), t=1.5)
        assert len(record) == 1
        assert record[0].filename == __file__

    @pytest.mark.parametrize("entry", [geomean, entropy_identities])
    def test_admitted_in_geomeans_order(self, entry):
        # t first, then the dense door, then the pair's shapes, and the PD proof last
        with pytest.raises(ValueError, match="^geomean parameter t must be finite, got nan$"):
            entry(np.eye(2), -np.eye(2), t=math.nan)
        with pytest.raises(DimensionMismatch, match=r"^shape mismatch: \(2, 2\) vs \(3, 3\)$"):
            entry(np.eye(2), -np.eye(3))

    def test_midpoint_average(self):
        rng = np.random.default_rng(4)
        s0, s1 = rand_spd(rng, 4), rand_spd(rng, 4)
        ids = entropy_identities(s0, s1, t=0.5)
        assert ids.entropy_geomean == pytest.approx(
            0.5 * (gaussian_entropy(s0) + gaussian_entropy(s1)), abs=1e-10
        )

    def test_identities_on_completions(self):
        ahat = max_det_completion(ex1_partial_a()).matrix
        other = ahat.copy()
        other[0, 2] = other[2, 0] = 0.0
        ids = entropy_identities(ahat, other, t=0.3)
        assert ids.entropy_diff == pytest.approx(ids.entropy_diff_integral, abs=1e-8)
        assert ids.entropy_geomean == pytest.approx(ids.entropy_interpolated, abs=1e-8)

    def test_identities_see_the_admitted_pair(self):
        # the entropies and the trace integral all read sym(a), not a's raw entries
        rng = np.random.default_rng(11)
        q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        a = q @ np.diag(rng.uniform(0.5, 4.0, 5)) @ q.T
        b = rand_spd(rng, 5)
        assert not np.array_equal(a, a.T)
        assert entropy_identities(a, b, t=0.3) == entropy_identities(sym(a), b, t=0.3)
        assert entropy_identities(b, a, t=0.3) == entropy_identities(b, sym(a), t=0.3)

    def test_stack_gives_identities_per_pair(self):
        rng = np.random.default_rng(12)
        s0 = np.stack([rand_spd(rng, 3) for _ in range(2)])
        s1 = np.stack([rand_spd(rng, 3) for _ in range(2)])
        stacked = entropy_identities(s0, s1, t=0.3)
        for k in range(2):
            single = entropy_identities(s0[k], s1[k], t=0.3)
            for got, want in zip(dataclasses.astuple(stacked), dataclasses.astuple(single)):
                assert got[k] == pytest.approx(want, rel=1e-12)


class TestPerturbationSensitivity:
    """Tiny perturbations near the cone boundary flip definiteness."""

    def _matrix(self, corner):
        return np.array(
            [[1.5, 1.0, 1.0], [1.0, 1.0, corner], [1.0, corner, 1.0]]
        )

    def test_above_third_is_pd(self):
        from pgm import is_pd

        assert is_pd(self._matrix(1.0 / 3.0 + 1e-6))

    def test_truncated_third_is_not_pd(self):
        from pgm import is_pd

        assert not is_pd(self._matrix(0.33333333))

    def test_geomean_rejects_truncated(self):
        with pytest.raises(NotPositiveDefinite):
            geomean(self._matrix(0.33333333), np.eye(3), 0.5)

        g = geomean(self._matrix(1.0 / 3.0 + 1e-6), np.eye(3), 0.5)
        assert np.isfinite(g).all()


INDEFINITE = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
PD_ENTRY_POINTS = {
    "geomean": lambda a, b: geomean(a, b, 0.5),
    "karcher_mean": lambda a, b: karcher_mean((0.5, 0.5), [a, b]),
    "agm_iteration": agm_iteration,
    "entropy_identities": entropy_identities,
    "riemannian_dist": riemannian_dist,
    "set_geomean": lambda a, b: set_geomean((a,), (b,)),
}
MALFORMED_PAIRS = {
    "unequal": (np.eye(2), np.eye(3), DimensionMismatch, "shape mismatch"),
    "non-square": (np.ones((2, 3)), np.ones((2, 3)), DimensionMismatch, "square matrix"),
    "nan": (np.eye(2), np.array([[1.0, np.nan], [np.nan, 1.0]]), ValueError, "non-finite"),
    "indefinite": (np.eye(2), INDEFINITE, NotPositiveDefinite, r"lambda_min = -1\.000e\+00"),
    "asymmetric": (
        np.eye(2),
        np.array([[2.0, 1.0], [0.0, 2.0]]),
        ValueError,
        r"not symmetric \(max \|a - a\^T\| = 1\.000e\+00\)",
    ),
}


class TestPdPrecondition:
    """Every dense entry point names the cause of a malformed argument."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_PAIRS))
    @pytest.mark.parametrize("entry", sorted(PD_ENTRY_POINTS))
    def test_malformed_pair_names_the_cause(self, entry, case):
        a, b, error, message = MALFORMED_PAIRS[case]
        with pytest.raises(error, match=message):
            PD_ENTRY_POINTS[entry](a, b)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda a, b: geomean(a, b, 0.3),
            lambda a, b: karcher_mean((0.3, 0.7), [a, b]).matrix,
            lambda a, b: agm_iteration(a, b).matrix,
            riemannian_dist,
            lambda a, b: set_geomean((a, b), (b,), 0.3),
        ],
        ids=["geomean", "karcher_mean", "agm_iteration", "riemannian_dist", "set_geomean"],
    )
    def test_round_off_asymmetry_is_symmetrized(self, entry):
        # q diag(w) q^T is symmetric only up to round-off, as in the demos
        rng = np.random.default_rng(10)
        q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        a = q @ np.diag(rng.uniform(0.5, 4.0, 5)) @ q.T
        b = rand_spd(rng, 5)
        assert not np.array_equal(a, a.T)
        np.testing.assert_array_equal(entry(a, b), entry(sym(a), b))
        np.testing.assert_array_equal(entry(b, a), entry(b, sym(a)))

    def test_karcher_checks_all_inputs_with_one_eigensolve(self, monkeypatch):
        # with no fixed-point step, the precondition is one stacked PD factorization of all
        # six inputs, and no eigvalsh runs
        shapes, spy = [], mock.Mock(wraps=np.linalg.eigvalsh)

        def counted(a, *args, _real=linalg._pd_factor, **kwargs):
            shapes.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "_pd_factor", counted)
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        rng = np.random.default_rng(8)
        karcher_mean((1 / 6,) * 6, [rand_spd(rng, 4) for _ in range(6)], max_steps=0)
        assert (shapes, spy.call_count) == ([(6, 4, 4)], 0)

    @pytest.mark.parametrize(("entry", "factored"), [
        (lambda a, b, c, d: karcher_mean((0.3, 0.7), [a, b]), [1, 1, 0, 0]),
        (lambda a, b, c, d: entropy_identities(a, b), [1, 1, 0, 0]),
        (lambda a, b, c, d: set_geomean((a, b), (c, d), 0.3), [1, 1, 1, 1]),
    ], ids=["karcher_mean", "entropy_identities", "set_geomean"])
    def test_each_input_is_decomposed_once(self, monkeypatch, entry, factored):
        # the one PD factorization of an input is also where its log-determinant and the
        # means' factor come from: no Cholesky, eigensolve or determinant of it follows.  Every
        # Cholesky of pgm, the PD proof's and linalg._factor's, runs on linalg._cholesky
        rng = np.random.default_rng(4)
        inputs = [rand_spd(rng, 4) for _ in range(4)]
        seen = {"factor": [], "eigen": []}

        def recorded(real, kind):
            def call(m, *args, **kwargs):
                seen[kind].extend(np.reshape(m, (-1, 4, 4)))
                return real(m, *args, **kwargs)
            return call

        monkeypatch.setattr(linalg, "_cholesky", recorded(linalg._cholesky, "factor"))
        for name in ("cholesky", "eigh", "eigvalsh", "slogdet", "det"):
            kind = "eigen" if name.startswith("eig") else "factor"
            monkeypatch.setattr(np.linalg, name, recorded(getattr(np.linalg, name), kind))
        entry(*inputs)
        counts = {kind: [sum(np.array_equal(m, x) for m in ms) for x in inputs]
                  for kind, ms in seen.items()}
        assert counts == {"factor": factored, "eigen": [0, 0, 0, 0]}

    def test_members_must_be_two_dimensional(self):
        stack = np.stack([np.eye(2), 2.0 * np.eye(2)])
        message = r"expected a square matrix, got shape \(2, 2, 2\)"
        with pytest.raises(DimensionMismatch, match=message):
            set_geomean((stack, stack), (np.eye(2),))


T_ENTRY_POINTS = {
    "geomean": lambda t: geomean(np.eye(2), 2.0 * np.eye(2), t),
    "partial_geomean_maxdet": lambda t: partial_geomean_maxdet(
        ex1_partial_a(), ex1_partial_b(), t=t
    ),
    "set_geomean": lambda t: set_geomean((np.eye(2),), (2.0 * np.eye(2),), t),
    "entropy_identities": lambda t: entropy_identities(np.eye(2), 2.0 * np.eye(2), t),
    "partial_geomean_sweep": lambda t: partial_geomean_sweep(
        ex1_partial_a(), ex1_partial_b(), 5, t, 1e-10
    ),
}


class TestGeodesicParameter:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("entry", sorted(T_ENTRY_POINTS))
    def test_non_finite_t_named(self, entry, bad):
        with pytest.raises(ValueError, match=rf"geomean parameter t must be finite, got {bad}"):
            T_ENTRY_POINTS[entry](bad)

    @pytest.mark.parametrize("entry", ["geomean", "partial_geomean_sweep"])
    def test_non_finite_t_rejected_before_any_eigensolve(self, monkeypatch, entry):
        def fail(*args, **kwargs):
            raise AssertionError("eigensolve before the t check")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ValueError, match="t must be finite"):
            T_ENTRY_POINTS[entry](math.nan)


def _karcher_record(*mats):
    rep = karcher_mean((0.2, 0.3, 0.5), mats)
    return np.append(rep.matrix, [rep.steps, rep.gradient_norm])


#: Each mean that factors, whitens or inverts on linalg's kernels: the two-matrix mean, the
#: Karcher mean (warm start, then fixed-point steps on linalg._factor and _whiten), both entropy
#: identities (the trace integral factors the midpoint) and one sweep of stacked means.
KERNEL_ENTRY_POINTS = {
    "geomean": lambda a, b, c: geomean(a, b, 0.3),
    "karcher_mean": _karcher_record,
    "entropy_identities": lambda a, b, c: dataclasses.astuple(entropy_identities(a, b, 0.3)),
    "partial_geomean_sweep": lambda a, b, c: partial_geomean_sweep(
        ex1_partial_a(), ex1_partial_b(), 11, 0.5, 1e-10),
}


@pytest.mark.parametrize("name", sorted(KERNEL_ENTRY_POINTS))
def test_means_need_no_public_factor_solve_or_inverse(monkeypatch, name):
    """With ``np.linalg.cholesky``, ``solve`` and ``inv`` patched to raise, each mean gives the
    unpatched result bit for bit: it factors, whitens and inverts on linalg's kernels."""
    rng = np.random.default_rng(11)
    inputs = [rand_spd(rng, 4) for _ in range(3)]
    expected = np.asarray(KERNEL_ENTRY_POINTS[name](*inputs))

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.cholesky, solve or inv called")

    for kernel in ("cholesky", "solve", "inv"):
        monkeypatch.setattr(np.linalg, kernel, refuse)
    got = np.asarray(KERNEL_ENTRY_POINTS[name](*inputs))
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
