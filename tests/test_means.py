"""Geometric means, Karcher mean, AGM iteration, entropy identities."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.linalg import det

from pgm import (
    DimensionMismatch,
    NotPositiveDefinite,
    Pattern,
    SampleSet,
    WeightVector,
    agm_iteration,
    block_max_property,
    det_integral_identity,
    entropy_identities,
    fro_norm,
    gaussian_entropy,
    geomean,
    geomean_properties_check,
    invm,
    karcher_mean,
    mat_fn,
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
    ex1_partial_a,
    ex1_partial_b,
    golden_pair_completions,
    matrix_a_chordal_example,
    rand_invertible,
    rand_spd,
    reference_trace_quadrature,
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


class TestPropertySuite:
    @pytest.mark.parametrize("seed", range(12))
    def test_all_properties_hold(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        a, b, c, d = (rand_spd(rng, n) for _ in range(4))
        report = geomean_properties_check(
            a, b, c, d,
            t=float(rng.uniform(0, 1)),
            lam=float(rng.uniform(0, 1)),
            s=rand_invertible(rng, n),
        )
        assert report.all_hold, report

    def test_all_properties_hold_at_n_400(self):
        # log det of each member is about 400 log 10 > 709, so det overflows
        rng = np.random.default_rng(400)
        a, b, c, d = (10.0 * rand_spd(rng, 400) for _ in range(4))
        report = geomean_properties_check(a, b, c, d, t=0.3, lam=0.6, s=rand_spd(rng, 400))
        assert report.determinant_identity is True
        assert report.all_hold, report

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
        harmonic = invm((1 - t) * invm(a) + t * invm(b))
        arithmetic = (1 - t) * a + t * b
        scale = max(op_norm(a), op_norm(b))
        assert np.linalg.eigvalsh(g - harmonic)[0] >= -1e-10 * scale
        assert np.linalg.eigvalsh(arithmetic - g)[0] >= -1e-10 * scale


class TestSampleSets:
    def test_singletons(self):
        rng = np.random.default_rng(0)
        a, b = rand_spd(rng, 3), rand_spd(rng, 3)
        out = set_geomean(SampleSet((a,)), SampleSet((b,)), 0.4)
        assert len(out) == 1
        assert fro_norm(out.members[0] - geomean(a, b, 0.4)) <= 1e-14

    def test_cardinality_bound(self):
        rng = np.random.default_rng(1)
        s = SampleSet(tuple(rand_spd(rng, 3) for _ in range(2)))
        t = SampleSet(tuple(rand_spd(rng, 3) for _ in range(3)))
        assert len(set_geomean(s, t, 0.5)) <= 6

    def test_identical_singletons_collapse(self):
        a = np.diag([2.0, 3.0])
        s = SampleSet((a,))
        out = set_geomean(s, s, 0.7)
        assert len(out) == 1
        np.testing.assert_allclose(out.members[0], a, atol=1e-13)

    def test_off_geodesic_t_warns_once(self):
        s = SampleSet((np.eye(2), 2.0 * np.eye(2)))
        with pytest.warns(UserWarning, match="lies outside") as record:
            set_geomean(s, s.scale(3.0), 1.5)
        assert len(record) == 1
        assert record[0].filename == __file__

    def test_scalar_homogeneity_memberwise(self):
        rng = np.random.default_rng(2)
        s = SampleSet(tuple(rand_spd(rng, 3) for _ in range(2)))
        t_set = SampleSet(tuple(rand_spd(rng, 3) for _ in range(2)))
        t = 0.3
        a, b = 2.0, 5.0
        lhs = set_geomean(s.scale(a), t_set.scale(b), t)
        rhs = set_geomean(s, t_set, t).scale(a ** (1 - t) * b**t)
        for x, y in zip(lhs.members, rhs.members):
            assert fro_norm(x - y) <= 1e-10 * max(1.0, fro_norm(y))

    def test_inversion_memberwise(self):
        rng = np.random.default_rng(3)
        s = SampleSet(tuple(rand_spd(rng, 3) for _ in range(2)))
        t_set = SampleSet(tuple(rand_spd(rng, 3) for _ in range(2)))
        lhs = set_geomean(s, t_set, 0.4).inverse()
        rhs = set_geomean(s.inverse(), t_set.inverse(), 0.4)
        for x, y in zip(lhs.members, rhs.members):
            assert fro_norm(x - y) <= 1e-9 * max(1.0, fro_norm(y))

    def test_rejects_indefinite_member(self):
        with pytest.raises(NotPositiveDefinite):
            SampleSet((np.array([[1.0, 2.0], [2.0, 1.0]]),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SampleSet(())

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan])
    def test_scale_factor_named(self, alpha):
        with pytest.raises(ValueError, match=f"scale factor must be positive and finite, got {alpha!r}"):
            SampleSet((np.eye(2),)).scale(alpha)


class TestBlockMaxProperty:
    def test_identity(self):
        assert block_max_property(np.eye(2), np.eye(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_random(self, seed):
        rng = np.random.default_rng(seed)
        assert block_max_property(rand_spd(rng, 3), rand_spd(rng, 3))

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
        from pgm import feasibility_range

        iva, ivb = feasibility_range(pa), feasibility_range(pb)
        ma, mb = pa.to_dense(), pb.to_dense()
        shrink = 1e-9
        best = -np.inf
        for x in np.linspace(iva.lower + shrink, iva.upper - shrink, 51):
            ma[0, 2] = ma[2, 0] = x
            da = det(ma)
            for y in np.linspace(ivb.lower + shrink, ivb.upper - shrink, 51):
                mb[0, 2] = mb[2, 0] = y
                best = max(best, math.sqrt(max(da, 0.0) * max(det(mb), 0.0)))
        assert res.determinant >= best - 1e-9


class TestKarcherMean:
    def test_two_matrix_midpoint(self):
        rng = np.random.default_rng(0)
        a, b = rand_spd(rng, 4), rand_spd(rng, 4)
        res = karcher_mean(WeightVector.uniform(2), [a, b])
        assert riemannian_dist(res.matrix, geomean(a, b, 0.5)) <= 1e-8

    def test_all_equal(self):
        a = np.diag([1.0, 2.0, 3.0])
        res = karcher_mean(WeightVector.uniform(3), [a, a, a])
        assert fro_norm(res.matrix - a) <= 1e-12

    def test_commuting_diagonals(self):
        rng = np.random.default_rng(1)
        mats = [np.diag(rng.uniform(0.5, 2.0, 4)) for _ in range(3)]
        res = karcher_mean(WeightVector.uniform(3), mats)
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
        res = karcher_mean(WeightVector(tuple(w / w.sum())), mats)
        assert res.converged
        assert res.gradient_norm <= 1e-6
        # certificate recomputed independently of the result record
        ris = mat_fn(res.matrix, lambda v: 1 / np.sqrt(v), "pd")
        grad = sum(
            wi * mat_fn(sym(ris @ m @ ris), np.log, "pd") for wi, m in zip(w / w.sum(), mats)
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
        res = karcher_mean(WeightVector(tuple(w / w.sum())), mats, tol=1e-9)
        assert res.converged
        assert res.gradient_norm <= 1e-9

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            WeightVector((0.5, 0.6))
        with pytest.raises(ValueError):
            WeightVector((1.5, -0.5))
        with pytest.raises(ValueError):
            karcher_mean(WeightVector.uniform(2), [np.eye(2)])

    def test_uniform_weights_need_one_weight(self):
        with pytest.raises(ValueError, match="uniform weights need at least one weight, got n = 0"):
            WeightVector.uniform(0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weights_named(self, bad):
        message = rf"weights must be positive and finite, got \({bad}, 0.5\)"
        with pytest.raises(ValueError, match=message):
            WeightVector((bad, 0.5))
        with pytest.raises(ValueError, match=message):
            karcher_mean([bad, 0.5], [np.eye(2), 2.0 * np.eye(2)])

    def test_negative_step_budget_named(self):
        with pytest.raises(ValueError, match="max_steps must be an integer >= 0, got -1"):
            karcher_mean(WeightVector.uniform(2), [np.eye(2), 2.0 * np.eye(2)], max_steps=-1)

    @pytest.mark.parametrize("budget", [1.5, 2.0, None])
    def test_non_integer_step_budget_named(self, budget):
        with pytest.raises(ValueError, match=f"max_steps must be an integer >= 0, got {budget!r}"):
            karcher_mean(WeightVector.uniform(2), [np.eye(2), 2.0 * np.eye(2)], max_steps=budget)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_bad_tolerance_named(self, tol):
        # NaN or a negative tolerance would spend the whole budget, however small the gradient
        with pytest.raises(ValueError, match=f"tol must be a finite number >= 0, got {tol!r}"):
            karcher_mean(WeightVector.uniform(2), [np.eye(2), 2.0 * np.eye(2)], tol=tol)

    def test_numpy_integer_step_budget_accepted(self):
        res = karcher_mean(WeightVector.uniform(2), [np.eye(2), 4.0 * np.eye(2)],
                           max_steps=np.int32(0))
        assert res.steps == 1
        np.testing.assert_allclose(res.matrix, 2.0 * np.eye(2))

    def test_requires_pd(self):
        with pytest.raises(NotPositiveDefinite):
            karcher_mean(
                WeightVector.uniform(2),
                [np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])],
            )

    def test_budget_exhaustion_flagged(self):
        rng = np.random.default_rng(7)
        mats = [rand_spd(rng, 4) for _ in range(3)]
        res = karcher_mean(WeightVector.uniform(3), mats, tol=1e-14, max_steps=0)
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


class TestDetIntegralIdentity:
    def test_equal_endpoints(self):
        a = np.diag([2.0, 3.0])
        assert det_integral_identity(a, a) == (0.0, 0.0)

    def test_identity_to_diagonal(self):
        # the trace integral reduces to int_0^1 3/(1+3t) dt = ln 4
        lhs, rhs = det_integral_identity(np.eye(2), np.diag([4.0, 1.0]))
        assert lhs == pytest.approx(math.log(4.0), abs=1e-14)
        assert rhs == pytest.approx(math.log(4.0), abs=1e-14)

    def test_completion_pair(self):
        pm = ex1_partial_a()
        ahat = max_det_completion(pm).matrix
        other = ahat.copy()
        other[0, 2] = other[2, 0] = 0.5  # still inside the feasibility interval
        lhs, rhs = det_integral_identity(ahat, other)
        assert abs(lhs - rhs) <= 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        a0, a1 = rand_spd(rng, n), rand_spd(rng, n)
        lhs, rhs = det_integral_identity(a0, a1)
        assert abs(lhs - rhs) <= 1e-8

    def test_finite_where_det_overflows(self):
        # det(10 I_400) = 1e400 overflows; both sides are 400 log 1.2
        lhs, rhs = det_integral_identity(10.0 * np.eye(400), 12.0 * np.eye(400))
        assert lhs == pytest.approx(400.0 * math.log(1.2), rel=1e-12)
        assert rhs == pytest.approx(400.0 * math.log(1.2), rel=1e-12)

    def test_requires_pd(self):
        with pytest.raises(NotPositiveDefinite):
            det_integral_identity(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))


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

    def test_two_eigensolves_and_no_solve(self, monkeypatch):
        # means imports _eigh by name, so the numpy kernels are what is counted
        calls = {"solve": 0, "eig": 0}
        for name, key in (("solve", "solve"), ("eigh", "eig"), ("eigvalsh", "eig")):
            def counted(*args, _real=getattr(np.linalg, name), _key=key, **kwargs):
                calls[_key] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        rng = np.random.default_rng(2)
        means._trace_integral(rand_spd(rng, 10), rand_spd(rng, 10))
        assert calls == {"solve": 0, "eig": 2}


class TestEntropy:
    def test_identity_covariance(self):
        assert gaussian_entropy(np.eye(2)) == pytest.approx(1.0 + math.log(2 * math.pi))

    def test_off_geodesic_t_warns_once(self):
        with pytest.warns(UserWarning, match="lies outside") as record:
            entropy_identities(np.eye(2), 2.0 * np.eye(2), t=1.5)
        assert len(record) == 1
        assert record[0].filename == __file__

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
    "karcher_mean": lambda a, b: karcher_mean(WeightVector.uniform(2), [a, b]),
    "agm_iteration": agm_iteration,
    "det_integral_identity": det_integral_identity,
    "riemannian_dist": riemannian_dist,
    "SampleSet": lambda a, b: SampleSet((a, b)),
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
            lambda a, b: karcher_mean(WeightVector((0.3, 0.7)), [a, b]).matrix,
            lambda a, b: agm_iteration(a, b).matrix,
            riemannian_dist,
            lambda a, b: SampleSet((a, b)).members,
        ],
        ids=["geomean", "karcher_mean", "agm_iteration", "riemannian_dist", "SampleSet"],
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
        # with the warm start stubbed out and no fixed-point step, every
        # eigvalsh call left is the precondition
        shapes = []

        def counted(a, *args, _real=np.linalg.eigvalsh, **kwargs):
            shapes.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        monkeypatch.setattr(means, "geomean", lambda a, b, t: b)
        rng = np.random.default_rng(8)
        karcher_mean(WeightVector.uniform(6), [rand_spd(rng, 4) for _ in range(6)], max_steps=0)
        assert shapes == [(6, 4, 4)]

    def test_members_must_be_two_dimensional(self):
        stack = np.stack([np.eye(2), 2.0 * np.eye(2)])
        message = r"expected 2-D matrices, got shape \(2, 2, 2\)"
        with pytest.raises(DimensionMismatch, match=message):
            SampleSet((stack, stack))

    def test_property_check_rejects_mixed_sizes(self):
        rng = np.random.default_rng(9)
        a, b, d = (rand_spd(rng, 3) for _ in range(3))
        with pytest.raises(DimensionMismatch):
            geomean_properties_check(a, b, rand_spd(rng, 2), d, 0.5, 0.5, np.eye(3))


T_ENTRY_POINTS = {
    "geomean": lambda t: geomean(np.eye(2), 2.0 * np.eye(2), t),
    "partial_geomean_maxdet": lambda t: partial_geomean_maxdet(
        ex1_partial_a(), ex1_partial_b(), t=t
    ),
    "set_geomean": lambda t: set_geomean(
        SampleSet((np.eye(2),)), SampleSet((2.0 * np.eye(2),)), t
    ),
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
