"""Maximum-determinant completion: intervals, iteration, certificates."""

import dataclasses
import functools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import det

from pgm import (
    CompletionReport,
    InternalNumerics,
    NotCompletable,
    NotPartialPD,
    OutOfRange,
    Pattern,
    PartialMatrix,
    completion,
    completion_with_det,
    fro_norm,
    is_pd,
    linalg,
    max_det_completion,
    means,
    missing_positions,
    offending_cliques,
    op_norm,
    partial_entry_bounds,
    partial_geomean_maxdet,
    pattern,
    project,
    scale,
    single_entry_interval,
)
from pgm.cli import parse_partial
from conftest import (
    agrees,
    assert_completion_scales,
    cosine_ring,
    ex1_partial_a,
    ex1_partial_b,
    ex2_partial_a,
    ex2_partial_b,
    frustrated_four_cycle,
    frustrated_ring,
    identity_ring_partial,
    matrix_n_four_cycle,
    maxdet_oracle,
    precision_ring,
    rand_chordal_pattern,
    rand_partial_pd,
    rand_spd,
)


def spy_newton(monkeypatch, start=lambda k: k):
    """Run ``completion._newton`` from ``start`` of the sweep's ``K`` and read its records:
    ``(reports, handed)``, the report of each step it yields, built as a caller reads it,
    and the ``X`` it hands back to the sweeps on a stall, if it does; both filled in later."""
    newton, reports, handed = completion._newton, [], []

    def spy(k, *args):
        steps = newton(start(k), *args)
        while True:
            try:
                done, report = next(steps)
            except StopIteration as stall:
                handed.append(stall.value)
                return stall.value
            reports.append(report())
            yield done, report

    monkeypatch.setattr(completion, "_newton", spy)
    return reports, handed


class TestSingleEntryInterval:
    def test_example_one_a(self):
        m = ex1_partial_a().to_dense()
        iv = single_entry_interval(m, 1, 3)
        assert iv.center == pytest.approx(-2.0 / 3.0, abs=1e-12)
        assert iv.lower == pytest.approx(-10.0 / 3.0, abs=1e-12)
        assert iv.upper == pytest.approx(2.0, abs=1e-12)

    def test_example_one_b(self):
        m = ex1_partial_b().to_dense()
        iv = single_entry_interval(m, 1, 3)
        assert iv.center == pytest.approx(-3.0 / 5.0, abs=1e-12)
        assert iv.lower == pytest.approx((-3.0 - 3.0 * math.sqrt(11.0)) / 5.0, abs=1e-12)
        assert iv.upper == pytest.approx((3.0 * math.sqrt(11.0) - 3.0) / 5.0, abs=1e-12)

    def test_identity_corner(self):
        iv = single_entry_interval(np.eye(3), 1, 3)
        assert iv.center == pytest.approx(0.0, abs=1e-15)
        assert (iv.lower, iv.upper) == (pytest.approx(-1.0), pytest.approx(1.0))

    def test_infeasible_block_rejected(self):
        m = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(NotPartialPD):
            single_entry_interval(m, 1, 3)

    def test_diagonal_position_rejected(self):
        with pytest.raises(ValueError):
            single_entry_interval(np.eye(3), 2, 2)

    @pytest.mark.parametrize("index", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_position_gives_plain_ints(self, index):
        # the interval of numpy-integer indices is that of Python ints, which json encodes
        m = ex1_partial_a().to_dense()
        iv = single_entry_interval(m, index(3), index(1))
        assert iv == single_entry_interval(m, 3, 1)
        assert [type(k) for k in iv.position] == [int, int]
        assert json.dumps(iv.position) == "[1, 3]"

    def test_non_integer_position_named(self):
        # a float index would reach numpy's indexing and raise its IndexError
        with pytest.raises(ValueError, match=r"position \(1\.0, 3\.0\) has a non-integer index"):
            single_entry_interval(np.eye(3), 1.0, 3.0)


def _sole_missing_bounds(pm):
    """:func:`partial_entry_bounds` at the one missing position of ``pm``."""
    (pos,) = missing_positions(pm.pattern)
    return partial_entry_bounds(pm, pos)


class TestFeasibilityRange:
    """The feasibility interval of a sole missing entry, by :func:`partial_entry_bounds`."""

    def test_example_two_a(self):
        # the radius is sqrt(det A * det B) / det C = sqrt(28 * 37) / 13
        lo, hi = _sole_missing_bounds(ex2_partial_a())
        assert lo == pytest.approx((10.0 - math.sqrt(1036.0)) / 13.0, abs=1e-10)
        assert hi == pytest.approx((10.0 + math.sqrt(1036.0)) / 13.0, abs=1e-10)

    def test_example_two_b(self):
        lo, hi = _sole_missing_bounds(ex2_partial_b())
        assert lo == pytest.approx((4.0 - math.sqrt(34.0)) / 9.0, abs=1e-10)
        assert hi == pytest.approx((4.0 + math.sqrt(34.0)) / 9.0, abs=1e-10)

    def test_identity_ring(self):
        lo, hi = _sole_missing_bounds(identity_ring_partial(10))
        assert (lo, hi) == (pytest.approx(-1.0), pytest.approx(1.0))

    @pytest.mark.parametrize("maker", [ex1_partial_a, ex1_partial_b, ex2_partial_a, ex2_partial_b])
    def test_endpoints_are_singular(self, maker):
        pm = maker()
        (i, j) = missing_positions(pm.pattern)[0]
        m = pm.to_dense()
        scale = np.prod(np.diag(m))
        for endpoint in _sole_missing_bounds(pm):
            m[i - 1, j - 1] = m[j - 1, i - 1] = endpoint
            assert abs(det(m)) <= 1e-8 * scale
            assert np.linalg.eigvalsh(m)[0] >= -1e-8 * op_norm(m)


class TestMaxDetCompletion:
    def test_example_one(self):
        rep = max_det_completion(ex1_partial_a())
        assert rep.converged
        assert rep.matrix[0, 2] == pytest.approx(-2.0 / 3.0, abs=1e-10)
        rep_b = max_det_completion(ex1_partial_b())
        assert rep_b.matrix[0, 2] == pytest.approx(-3.0 / 5.0, abs=1e-10)

    def test_example_two(self):
        rep = max_det_completion(ex2_partial_a())
        assert rep.matrix[0, 4] == pytest.approx(10.0 / 13.0, abs=1e-9)
        rep_b = max_det_completion(ex2_partial_b())
        assert rep_b.matrix[0, 4] == pytest.approx(4.0 / 9.0, abs=1e-9)

    def test_complete_input_returned(self, monkeypatch):
        pm = PartialMatrix(
            pattern=Pattern.complete(2),
            values={(1, 1): 2.0, (1, 2): 1.0, (2, 2): 2.0},
        )
        monkeypatch.setattr(pattern, "_mcs_visit", lambda *args: pytest.fail("searched"))
        rep = max_det_completion(pm)
        # the closed form on one clique: nothing to fill, so the matrix comes back as given
        assert rep.iterations == 1
        assert rep.converged and rep.residual == 0.0
        np.testing.assert_array_equal(rep.matrix, [[2, 1], [1, 2]])
        assert rep.log_determinant == pytest.approx(math.log(3.0), rel=1e-15)

    def test_log_determinant_where_determinant_underflows(self):
        # 0.1 I on a 400-vertex path: det = 1e-400 underflows to 0.0
        g = Pattern.from_pairs(400, [(i, i + 1) for i in range(1, 400)])
        rep = max_det_completion(project(0.1 * np.eye(400), g))
        assert rep.determinant == 0.0
        assert rep.log_determinant == pytest.approx(400 * math.log(0.1), rel=1e-13)

    @pytest.mark.parametrize("seed", range(6))
    def test_log_determinant_is_log_of_determinant(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 8))
        g = Pattern.complete(n) if seed == 0 else rand_chordal_pattern(rng, n)
        rep = max_det_completion(rand_partial_pd(rng, g))
        assert rep.log_determinant == pytest.approx(math.log(det(rep.matrix)), rel=1e-12, abs=1e-12)
        rep = max_det_completion(matrix_n_four_cycle())  # non-chordal
        assert rep.log_determinant == pytest.approx(math.log(det(rep.matrix)), rel=1e-12, abs=1e-12)

    def test_zero_cycle_budget_named(self):
        with pytest.raises(ValueError, match="max_cycles must be an integer >= 1, got 0"):
            max_det_completion(matrix_n_four_cycle(), max_cycles=0)

    @pytest.mark.parametrize("budget", [1.5, 2.0, "3"])
    def test_non_integer_cycle_budget_named(self, budget):
        with pytest.raises(ValueError, match=f"max_cycles must be an integer >= 1, got {budget!r}"):
            max_det_completion(matrix_n_four_cycle(), max_cycles=budget)

    @pytest.mark.parametrize("budget", [True, False])
    def test_bool_cycle_budget_named(self, budget):
        # True would otherwise run one cycle
        with pytest.raises(ValueError, match=f"max_cycles must be an integer >= 1, got {budget!r}"):
            max_det_completion(matrix_n_four_cycle(), max_cycles=budget)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_bad_tolerance_named(self, tol):
        # NaN or a negative tolerance would spend the whole budget, however small the residual
        with pytest.raises(ValueError, match=f"tol must be a finite number >= 0, got {tol!r}"):
            max_det_completion(matrix_n_four_cycle(), tol=tol)

    def test_numpy_integer_cycle_budget_accepted(self):
        rep = max_det_completion(matrix_n_four_cycle(), max_cycles=np.int64(1))
        assert rep.iterations == 1

    def test_log_determinant_nan_off_the_pd_cone(self, monkeypatch):
        # an unconverged iterate whose spectrum starts below zero has no log determinant
        monkeypatch.setattr(completion, "_eigh", lambda x, vectors=True: np.array([-1.0, 1.0]))
        rep = max_det_completion(matrix_n_four_cycle(), max_cycles=1)
        assert not rep.converged and math.isnan(rep.log_determinant)

    def test_determinant_derived_from_the_log(self):
        assert "determinant" not in {f.name for f in dataclasses.fields(CompletionReport)}
        reports = [max_det_completion(pm) for pm in (ex1_partial_a(), matrix_n_four_cycle())]
        reports.append(max_det_completion(matrix_n_four_cycle(), max_cycles=1))
        for rep in reports:
            assert rep.determinant == math.exp(rep.log_determinant)
        with pytest.raises(AttributeError):
            reports[0].determinant = 1.0

    @pytest.mark.filterwarnings("error")
    def test_determinant_overflows_to_inf_without_warning(self):
        g = Pattern.from_pairs(400, [(i, i + 1) for i in range(1, 400)])
        rep = max_det_completion(project(10.0 * np.eye(400), g))
        assert rep.determinant == math.inf
        assert rep.log_determinant == pytest.approx(400 * math.log(10.0), rel=1e-13)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "pattern", [Pattern.complete(2), Pattern.from_pairs(3, [(1, 2), (2, 3)])],
        ids=["complete", "band1"],
    )
    def test_huge_diagonal_comes_back_finite(self, pattern):
        # 1e308 + 1e308 overflows: a fill that is already symmetric is not symmetrized again
        values = {(i, j): 1e308 if i == j else 1e307 for i, j in pattern.edges}
        pm = PartialMatrix(pattern=pattern, values=values)
        rep = max_det_completion(pm)
        assert np.isfinite(rep.matrix).all() and math.isfinite(rep.log_determinant)
        assert rep.converged and agrees(rep.matrix, pm, tol=0.0)
        if pattern.is_complete:
            np.testing.assert_array_equal(rep.matrix, pm.to_dense())

    def test_determinant_nan_for_an_iterate_off_the_pd_cone(self):
        rep = max_det_completion(frustrated_ring(24), max_cycles=1)
        assert not rep.converged
        assert math.isnan(rep.log_determinant) and math.isnan(rep.determinant)

    def test_single_missing_matches_closed_form(self):
        pm = ex1_partial_a()
        iv = single_entry_interval(pm.to_dense(), 1, 3)
        rep = max_det_completion(pm)
        assert abs(rep.matrix[0, 2] - iv.center) <= 1e-12

    def test_noncompletable_fails_feasibility(self):
        with pytest.raises(NotCompletable):
            max_det_completion(frustrated_four_cycle())

    @pytest.mark.parametrize(
        "make",
        [matrix_n_four_cycle]
        + [lambda n=n: project(_circulant(n, 0.8), _ring(n)) for n in (8, 16, 24)],
        ids=["matrix_n", "ring8", "ring16", "ring24"],
    )
    def test_completes_without_pd_zero_fill(self, make):
        # non-chordal inputs whose zero fill is not PD, yet PD completions
        # exist: Matrix N, and rho = 0.8 rings projected from an SPD circulant
        pm = make()
        assert not is_pd(pm.to_dense())
        rep = max_det_completion(pm)
        assert rep.converged
        assert is_pd(rep.matrix)
        assert agrees(rep.matrix, pm, tol=1e-12)
        inv = np.linalg.inv(rep.matrix)
        for i, j in missing_positions(pm.pattern):
            assert abs(inv[i - 1, j - 1]) <= 1e-8 * op_norm(inv)

    @pytest.mark.parametrize("n", range(4, 23))
    def test_frustrated_ring_not_completable(self, n):
        # partial PD, but the cycle condition n arccos 0.99 > pi fails for n <= 22
        with pytest.raises(NotCompletable, match="sum_E K_ij A_ij"):
            max_det_completion(frustrated_ring(n))

    @pytest.mark.parametrize(
        "n, log_det", [(23, -140.503690), (24, -130.790851), (30, -134.373311)]
    )
    def test_frustrated_ring_completes_once_the_cycle_condition_holds(self, n, log_det):
        rep = max_det_completion(frustrated_ring(n))
        assert rep.converged
        assert rep.log_determinant == pytest.approx(log_det, abs=1e-6)

    @pytest.mark.parametrize(
        "ring, name",
        [
            (frustrated_ring(4), "K = M^-1 is positive definite"),
            (frustrated_ring(15), "K, a Newton iterate, is positive definite"),
        ],
        ids=["sweep", "iterate"],
    )
    def test_each_certificate_of_no_completion_fires(self, ring, name):
        with pytest.raises(NotCompletable, match=re.escape(name)):
            max_det_completion(ring)

    @pytest.mark.parametrize("budget", [1, 2, 5])
    def test_budget_counts_sweeps_and_newton_steps(self, budget):
        rep = max_det_completion(frustrated_ring(24), max_cycles=budget)
        assert rep.iterations == budget and not rep.converged

    def test_newton_runs_only_where_its_step_costs_a_few_sweeps(self, monkeypatch):
        # p^3 against n^2 sum |C|: 4 on a ring, about 300 on the complete 20-vertex pattern
        # but (1, 2) and (3, 4), whose four cliques of 18 leave p = 208 upper positions
        newton, calls = completion._newton, []
        monkeypatch.setattr(completion, "_newton", lambda *args: calls.append(1) or newton(*args))
        assert max_det_completion(frustrated_ring(24)).converged and calls == [1]
        n, missing = 20, {(1, 2), (3, 4)}
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in missing]
        pm = project(rand_spd(np.random.default_rng(0), n), Pattern.from_pairs(n, pairs))
        rep = max_det_completion(pm)
        assert rep.converged and rep.iterations > 1 and calls == [1]

    def test_newton_stall_is_polished_by_a_sweep(self, monkeypatch):
        # one edge at 1 - 5e-7: Newton's X, with A_E written back, misses the certificate
        # at round-off, and one sweep from the X it hands over passes
        reports, handed = spy_newton(monkeypatch)
        rep = max_det_completion(cosine_ring(np.random.default_rng(25).uniform(0.0, math.pi, 4)))
        assert len(handed) == 1 and reports and not reports[-1].converged
        assert rep.converged and rep.iterations == 1 + len(reports) + 1

    def test_rejects_not_partial_pd(self):
        pm = PartialMatrix(
            pattern=Pattern.from_pairs(3, [(1, 2)]),
            values={(1, 1): 1.0, (2, 2): 1.0, (3, 3): 1.0, (1, 2): 2.0},
        )
        with pytest.raises(NotPartialPD, match=r"clique \{1, 2\} has lambda_min = -1\.000e\+00"):
            max_det_completion(pm)

    def test_chordal_convergence_reads_one_spectrum(self, monkeypatch):
        # the input's proof is a stacked Cholesky, and one spectrum of the
        # iterate gives both convergence tests
        calls = {"eig": 0}
        for name in ("eigh", "eigvalsh"):
            def counted(*args, _real=getattr(np.linalg, name), **kwargs):
                calls["eig"] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        rep = max_det_completion(ex1_partial_a())
        assert (rep.iterations, rep.converged, calls["eig"]) == (1, True, 1)

    def test_complete_input_reads_one_spectrum(self, monkeypatch):
        # one clique, the whole matrix: its partial-PD proof is a Cholesky, so the one
        # spectrum is the certificate's
        pm = project(rand_spd(np.random.default_rng(3), 6), Pattern.complete(6))
        calls = {"eig": 0}
        for name in ("eigh", "eigvalsh"):
            def counted(*args, _real=getattr(np.linalg, name), **kwargs):
                calls["eig"] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        rep = max_det_completion(pm)
        assert (rep.iterations, rep.converged, calls["eig"]) == (1, True, 1)
        np.testing.assert_array_equal(rep.matrix, pm.to_dense())
        assert rep.log_determinant == pytest.approx(np.linalg.slogdet(pm.to_dense())[1], rel=1e-12)

    @pytest.mark.parametrize("n", [40, 80])
    def test_chordal_closed_form_makes_no_call_per_clique(self, monkeypatch, n):
        # band-2: n - 2 cliques of size 3, separators of size 2 after the first.  One
        # stacked solve covers every separator, and the n x n calls are the residual's
        # inv and the PD test's spectrum, whatever the clique count.  Solves and inverses
        # run on linalg's kernels, counted under numpy's names with numpy's own calls
        calls = []
        kernels = [(completion, "_inv"), (completion, "_solve")]
        kernels += [(np.linalg, name) for name in
                    ("inv", "solve", "eigh", "eigvalsh", "slogdet", "det", "cholesky")]
        for owner, name in kernels:
            def counted(a, *args, _real=getattr(owner, name), _name=name.lstrip("_"), **kwargs):
                calls.append((_name, np.shape(a)))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        pairs = [(i, j) for i in range(1, n) for j in range(i + 1, min(n, i + 2) + 1)]
        rep = max_det_completion(project(_circulant(n, 0.5), Pattern.from_pairs(n, pairs)))
        assert (rep.iterations, rep.converged) == (1, True)
        assert sorted(name for name, shape in calls if shape[-1] == n) == ["eigvalsh", "inv"]
        assert [shape for name, shape in calls if name == "solve"] == [(n - 3, 2, 2)]

    def test_partial_pd_check_one_eigensolve_per_size(self, monkeypatch):
        # band-2, n = 40: 38 cliques of size 3, the last one in the sweep
        # order indefinite, so the check fails after testing every block by one
        # stacked Cholesky; the refused block alone is eigensolved, for its lambda_min
        n = 40
        pairs = [(i, j) for i in range(1, n) for j in range(i + 1, min(n, i + 2) + 1)]
        g = Pattern.from_pairs(n, pairs)
        rng = np.random.default_rng(3)
        values = {(i, j): 4.0 if i == j else float(rng.uniform(-0.5, 0.5)) for i, j in g.edges}
        values[(n - 1, n)] = 5.0
        pm = PartialMatrix(pattern=g, values=values)
        calls = {"eigh": 0}
        real = linalg._eigh

        def counting(*args, **kwargs):
            calls["eigh"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(linalg, "_eigh", counting)
        with pytest.raises(NotPartialPD):
            max_det_completion(pm)
        assert calls["eigh"] == 1

    def test_infeasible_zero_fill_uses_feasible_start(self):
        # strong chain correlations make the zero fill indefinite
        pm = PartialMatrix(
            pattern=Pattern.from_pairs(3, [(1, 2), (2, 3)]),
            values={(1, 1): 1.0, (2, 2): 1.0, (3, 3): 1.0, (1, 2): 0.9, (2, 3): 0.9},
        )
        assert not is_pd(pm.to_dense())
        rep = max_det_completion(pm)
        assert rep.converged
        assert rep.matrix[0, 2] == pytest.approx(0.81, abs=1e-12)

    @pytest.mark.parametrize("seed", range(15))
    def test_certificate_and_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = rand_chordal_pattern(rng, int(rng.integers(3, 9)))
        pm = rand_partial_pd(rng, g)
        rep = max_det_completion(pm)
        assert rep.converged
        # chordal patterns, complete ones included, are exact after one pass of the closed form
        assert rep.iterations == 1
        assert agrees(rep.matrix, pm, tol=1e-12)
        assert is_pd(rep.matrix)
        inv = np.linalg.inv(rep.matrix)
        for i, j in missing_positions(g):
            assert abs(inv[i - 1, j - 1]) <= 1e-8 * op_norm(inv)
        expected = maxdet_oracle(pm)
        assert fro_norm(rep.matrix - expected) <= 1e-10 * max(1.0, fro_norm(expected))

    @pytest.mark.parametrize("seed", range(12))
    def test_feasible_start_on_tight_correlations(self, seed):
        # AR(1) values near rho = 1 make the zero fill indefinite; one
        # sweep must still reach the closed-form oracle
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(4, 12))
        g = rand_chordal_pattern(rng, n, fill=0.7)
        if not missing_positions(g):
            pytest.skip("complete pattern drawn")
        rho = float(rng.uniform(0.9, 0.99))
        idx = np.arange(n)
        full = rho ** np.abs(idx[:, None] - idx[None, :])
        pm = project(full, g)
        rep = max_det_completion(pm)
        assert rep.converged
        assert rep.iterations == 1
        assert agrees(rep.matrix, pm, tol=1e-9)
        expected = maxdet_oracle(pm)
        assert fro_norm(rep.matrix - expected) <= 1e-10 * max(1.0, fro_norm(expected))

    @pytest.mark.parametrize("seed", range(30))
    def test_one_sweep_on_relabelled_two_trees(self, seed):
        # the cliques of a chordal pattern are swept in MCS visit order, a
        # perfect sequence; lexicographic order needs a second sweep on
        # some of these patterns
        rng = np.random.default_rng(900 + seed)
        n = 20
        edges = [(0, 1)]
        for v in range(2, n):
            a, b = edges[rng.integers(len(edges))]
            edges += [(a, v), (b, v)]
        relabel = rng.permutation(n) + 1
        g = Pattern.from_pairs(n, [(int(relabel[a]), int(relabel[b])) for a, b in edges])
        pm = rand_partial_pd(rng, g)
        rep = max_det_completion(pm)
        assert rep.converged
        assert rep.iterations == 1
        assert agrees(rep.matrix, pm, tol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_determinant_monotone_over_steps(self, seed):
        # replay the sweep through the public single-entry interval API
        rng = np.random.default_rng(seed)
        g = rand_chordal_pattern(rng, 6)
        pm = rand_partial_pd(rng, g)
        missing = missing_positions(g)
        if not missing:
            pytest.skip("complete pattern drawn")
        m = pm.to_dense()
        if not is_pd(m):
            m = max_det_completion(pm, max_cycles=1).matrix.copy()
        last = det(m)
        for _ in range(3):
            for i, j in missing:
                iv = single_entry_interval(m, i, j)
                m[i - 1, j - 1] = m[j - 1, i - 1] = iv.center
                now = det(m)
                assert now >= last - 1e-12 * max(1.0, abs(last))
                last = now

    def test_two_missing_beats_grid(self):
        pm = PartialMatrix(
            pattern=Pattern.from_pairs(4, [(1, 2), (2, 3), (3, 4)]),
            values={
                (1, 1): 2.0, (2, 2): 2.0, (3, 3): 2.0, (4, 4): 2.0,
                (1, 2): 1.0, (2, 3): -1.0, (3, 4): 1.0,
            },
        )
        rep = max_det_completion(pm)
        (p1, p2) = missing_positions(pm.pattern)[:2]
        b1 = partial_entry_bounds(pm, p1)
        b2 = partial_entry_bounds(pm, p2)
        best = -np.inf
        m = pm.to_dense()
        for x in np.linspace(b1[0], b1[1], 201):
            for y in np.linspace(b2[0], b2[1], 201):
                m[p1[0] - 1, p1[1] - 1] = m[p1[1] - 1, p1[0] - 1] = x
                m[p2[0] - 1, p2[1] - 1] = m[p2[1] - 1, p2[0] - 1] = y
                if np.linalg.eigvalsh(m)[0] > 0:
                    best = max(best, det(m))
        assert rep.determinant >= best - 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_hadamard_bound(self, seed):
        rng = np.random.default_rng(seed)
        g = rand_chordal_pattern(rng, int(rng.integers(2, 8)))
        pm = rand_partial_pd(rng, g)
        rep = max_det_completion(pm)
        assert rep.determinant <= np.prod(np.diag(rep.matrix)) * (1 + 1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_order_monotone_determinant(self, seed):
        # a < b entrywise in the partial order forces det(ahat) <= det(bhat)
        rng = np.random.default_rng(seed)
        g = rand_chordal_pattern(rng, int(rng.integers(2, 7)))
        a = rand_partial_pd(rng, g)
        bump = rand_partial_pd(rng, g)
        from pgm import add

        b = add(a, bump)
        assert max_det_completion(a).determinant <= max_det_completion(b).determinant * (
            1 + 1e-12
        )


class TestNewtonFallbacks:
    """Each way Newton gives up on the ring of :func:`precision_ring` (one sweep leaves it
    unconverged, Newton alone takes 4 steps, IPS alone 7 sweeps) still ends at the
    oracle ``K^-1``, by a restart or by the IPS sweeps that polish a stalled iterate."""

    K, PM = precision_ring(6, 0.45)

    def assert_oracle(self, rep):
        assert rep.converged
        assert rep.log_determinant == pytest.approx(-np.linalg.slogdet(self.K)[1], abs=1e-12)
        np.testing.assert_allclose(rep.matrix, np.linalg.inv(self.K), atol=1e-12)

    def test_start_off_the_cone_restarts_from_the_diagonal(self, monkeypatch):
        cholesky, failed = completion._cholesky, []

        def spy(k):  # a factor that the kernel refuses is NaN
            chol = cholesky(k)
            if np.isnan(chol[0, 0]):
                failed.append(k)
            return chol

        monkeypatch.setattr(completion, "_cholesky", spy)
        reports, handed = spy_newton(monkeypatch, start=lambda k: -k)
        rep = max_det_completion(self.PM)
        self.assert_oracle(rep)
        # the negated start fails first, so Newton starts from diag(1 / a_ii) and converges
        assert failed and np.all(np.diag(failed[0]) < 0)
        assert reports[-1].converged and not handed and rep.iterations == 1 + len(reports)

    def test_singular_newton_system_stalls_into_sweeps(self, monkeypatch):
        solve, p = completion._solve, 12  # the 6 diagonal and 6 ring positions

        def singular(a, b):  # numpy's kernel itself refuses the zeroed Hessian
            return solve(np.zeros_like(a) if a.shape == (p, p) else a, b)

        monkeypatch.setattr(completion, "_solve", singular)
        reports, handed = spy_newton(monkeypatch)
        rep = max_det_completion(self.PM)
        # no step: Newton hands its start's X = K^-1 to the sweeps, with no report of its own
        assert reports == [] and len(handed) == 1
        self.assert_oracle(rep)
        assert rep.iterations > 2

    def test_no_step_in_forty_halvings_stalls_into_sweeps(self, monkeypatch):
        cholesky, calls = completion._cholesky, []

        def only_the_start(k):  # every trial K + s D fails (a NaN factor), 1 >= s >= 2**-39
            calls.append(k)
            return cholesky(k) if len(calls) == 1 else np.full_like(k, np.nan)

        monkeypatch.setattr(completion, "_cholesky", only_the_start)
        reports, handed = spy_newton(monkeypatch)
        rep = max_det_completion(self.PM)
        assert len(calls) == 41 and reports == [] and len(handed) == 1
        self.assert_oracle(rep)
        assert rep.iterations > 2


class TestCompletionWithDet:
    def test_near_optimum(self):
        pm = ex1_partial_a()
        d_max = max_det_completion(pm).determinant
        k = d_max * (1.0 - 1e-9)
        m = completion_with_det(pm, k)
        assert m[0, 2] == pytest.approx(-2.0 / 3.0, abs=1e-3)
        assert det(m) == pytest.approx(k, rel=1e-8)

    def test_half_determinant(self):
        pm = ex1_partial_a()
        d_max = max_det_completion(pm).determinant
        k = d_max / 2.0
        m = completion_with_det(pm, k)
        assert det(m) == pytest.approx(k, rel=1e-8)
        assert agrees(m, pm, tol=1e-10)
        assert is_pd(m)
        # independent one-dimensional oracle: bisect the entry itself
        iv = single_entry_interval(pm.to_dense(), 1, 3)
        lo, hi = iv.center, iv.upper
        full = pm.to_dense()
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            full[0, 2] = full[2, 0] = mid
            if det(full) > k:
                lo = mid
            else:
                hi = mid
        full[0, 2] = full[2, 0] = 0.5 * (lo + hi)
        assert det(full) == pytest.approx(k, rel=1e-6)

    def test_unconverged_max_det_start(self, monkeypatch):
        # one sweep on the 4-cycle stops short of the max-det completion,
        # so det(Ahat) sits below the top of the parabola in (1, 3); an
        # unconverged report is refused, so the start is passed as converged
        # to show that the refit absorbs a start short of the vertex
        pm = matrix_n_four_cycle()
        one_sweep = max_det_completion(pm, max_cycles=1)
        assert not one_sweep.converged
        with pytest.raises(InternalNumerics, match="did not converge"):
            one_sweep.require_converged()
        one_sweep = dataclasses.replace(one_sweep, converged=True)
        monkeypatch.setattr(completion, "max_det_completion", lambda pm: one_sweep)
        for ratio in (0.5, 1e-3, 1e-6):
            k = ratio * one_sweep.determinant
            m = completion_with_det(pm, k)
            assert det(m) == pytest.approx(k, rel=1e-8)
            assert agrees(m, pm, tol=0.0)
            assert is_pd(m)

    def test_singular_boundary_raises_internal_numerics(self):
        # x = 0 + 1 * sqrt(1 - 1e-300) rounds to 1: the matrix is exactly singular
        with pytest.raises(InternalNumerics):
            completion_with_det(identity_ring_partial(2), 1e-300)

    def test_out_of_range(self):
        pm = ex1_partial_a()
        d_max = max_det_completion(pm).determinant
        with pytest.raises(OutOfRange):
            completion_with_det(pm, 2.0 * d_max)
        with pytest.raises(OutOfRange):
            completion_with_det(pm, 0.0)

    def test_complete_pattern_rejected(self):
        pm = PartialMatrix(
            pattern=Pattern.complete(2),
            values={(1, 1): 2.0, (1, 2): 0.0, (2, 2): 2.0},
        )
        with pytest.raises(OutOfRange):
            completion_with_det(pm, 1.0)


class TestUnconvergedCompletionRefused:
    """Consumers of the max-det completion refuse an iterate that did not
    converge.  One sweep on the 24-vertex frustrated ring leaves one, so the
    consumers' ``max_det_completion`` is limited to one sweep."""

    @pytest.fixture
    def one_sweep(self, monkeypatch):
        limited = functools.partial(max_det_completion, max_cycles=1)
        monkeypatch.setattr(completion, "max_det_completion", limited)
        monkeypatch.setattr(means, "max_det_completion", limited)
        report = limited(frustrated_ring(24))
        assert not report.converged
        return f"did not converge: residual {report.residual:.6g} after 1 iterations"

    def test_partial_geomean_maxdet(self, one_sweep):
        ring = frustrated_ring(24)
        with pytest.raises(InternalNumerics, match=re.escape(one_sweep)):
            partial_geomean_maxdet(ring, ring)

    def test_completion_with_det(self, one_sweep):
        with pytest.raises(InternalNumerics, match=re.escape(one_sweep)):
            completion_with_det(frustrated_ring(24), 1e-30)

    def test_converged_report_is_returned(self):
        report = max_det_completion(ex1_partial_a())
        assert report.require_converged() is report


class TestFischerBound:
    """On a pattern whose components share no specified entry, the max-det completion
    leaves every cross block zero, so its determinant is the Fischer bound: the product
    of the components' max-det completion determinants."""

    def test_block_diagonal_examples(self):
        pm = _block_diag_partial(ex1_partial_a(), ex1_partial_b())
        da = max_det_completion(ex1_partial_a()).determinant
        db = max_det_completion(ex1_partial_b()).determinant
        rep = max_det_completion(pm)
        assert rep.determinant == pytest.approx(da * db, rel=1e-12)
        off = rep.matrix[:3, 3:]
        assert np.abs(off).max() <= 1e-8

    def test_identity_blocks(self):
        left = PartialMatrix(
            pattern=Pattern.complete(2),
            values={(1, 1): 1.0, (1, 2): 0.0, (2, 2): 1.0},
        )
        rep = max_det_completion(_block_diag_partial(left, left))
        assert rep.determinant == pytest.approx(1.0)
        np.testing.assert_allclose(rep.matrix, np.eye(4), atol=1e-12)

    def test_scalar_blocks(self):
        pm = _block_diag_partial(_scalar_partial(3.0), _scalar_partial(5.0))
        assert max_det_completion(pm).determinant == pytest.approx(15.0)

    @pytest.mark.parametrize("blocks", [2, 3])
    def test_equals_product_over_components(self, blocks):
        # the product of the restricted completions, the definition of the bound
        rng = np.random.default_rng(blocks)
        for _ in range(20):
            parts = [
                rand_partial_pd(rng, rand_chordal_pattern(rng, int(rng.integers(1, 6))), 1.0)
                for _ in range(blocks)
            ]
            pm = parts[0]
            for part in parts[1:]:
                pm = _block_diag_partial(pm, part)
            product = math.prod(max_det_completion(part).determinant for part in parts)
            assert max_det_completion(pm).determinant == pytest.approx(product, rel=1e-13)


class TestPartialEntryBounds:
    def test_matches_feasibility_range_for_single_missing(self):
        pm = ex2_partial_a()
        iv = single_entry_interval(pm.to_dense(), 1, 5)
        lo, hi = partial_entry_bounds(pm, (1, 5))
        assert lo == pytest.approx(iv.lower, abs=1e-12)
        assert hi == pytest.approx(iv.upper, abs=1e-12)

    def test_two_missing_box(self):
        pm = PartialMatrix(
            pattern=Pattern.from_pairs(3, [(1, 2)]),
            values={(1, 1): 2.0, (2, 2): 2.0, (3, 3): 2.0, (1, 2): 1.0},
        )
        assert partial_entry_bounds(pm, (1, 3)) == (pytest.approx(-2.0), pytest.approx(2.0))
        assert partial_entry_bounds(pm, (2, 3)) == (pytest.approx(-2.0), pytest.approx(2.0))

    def test_specified_position_rejected(self):
        with pytest.raises(ValueError):
            partial_entry_bounds(ex1_partial_a(), (1, 2))

    @pytest.mark.parametrize(
        "pos, message",
        [
            ((0, 2), r"edge \(0, 2\) out of range for n = 3"),
            ((1, 9), r"edge \(1, 9\) out of range for n = 3"),
            ((-1, 3), r"edge \(-1, 3\) out of range for n = 3"),
            ((1.5, 3), r"edge \(1\.5, 3\) has a non-integer vertex"),
        ],
    )
    def test_position_off_the_matrix_rejected(self, pos, message):
        # the extended pattern goes through the validating Pattern constructor
        with pytest.raises(ValueError, match=message):
            partial_entry_bounds(ex1_partial_a(), pos)

    def test_disjoint_clique_intervals(self):
        # at (1, 2) clique {1, 2, 3} admits (0.62, 1), clique {1, 2, 4} admits (-1, -0.62)
        g = Pattern.from_pairs(4, [(1, 3), (2, 3), (1, 4), (2, 4)])
        values = {(i, j): 1.0 if i == j else 0.9 for i, j in g.edges}
        values[2, 4] = -0.9
        with pytest.raises(NotPartialPD, match=r"no value at \(1, 2\) keeps the matrix partial PD"):
            partial_entry_bounds(PartialMatrix(pattern=g, values=values), (1, 2))

    def test_not_partial_pd_names_the_clique(self):
        g = Pattern.from_pairs(5, [(1, 2), (2, 3), (4, 5), (3, 5)])
        values = {(i, j): 1.0 if i == j else 0.1 for i, j in g.edges}
        values[3, 5] = 1.5
        message = r"not partial PD: clique \{3, 5\} has lambda_min = -5.000e-01"
        with pytest.raises(NotPartialPD, match=message):
            partial_entry_bounds(PartialMatrix(pattern=g, values=values), (2, 5))


DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


def _band2(n):
    return Pattern.from_pairs(n, [(i, j) for i in range(1, n) for j in (i + 1, i + 2) if j <= n])


def _grid(rows, cols):
    cell = np.arange(1, rows * cols + 1).reshape(rows, cols).tolist()
    pairs = [(cell[r][c], cell[r][c + 1]) for r in range(rows) for c in range(cols - 1)]
    pairs += [(cell[r][c], cell[r + 1][c]) for r in range(rows - 1) for c in range(cols)]
    return Pattern.from_pairs(rows * cols, pairs)


#: Inputs of every path: the demo files, a chordal band, completable rings and a grid, and
#: frustrated rings (no PD completion below n = 23).
EQUIVARIANCE_INPUTS = {
    **{p.stem: functools.partial(parse_partial, str(p)) for p in sorted(DATA.glob("*.txt"))},
    "band2": lambda: rand_partial_pd(np.random.default_rng(5), _band2(12)),
    "ring0.5": lambda: project(_circulant(12, 0.5), _ring(12)),
    "ring0.8": lambda: project(_circulant(12, 0.8), _ring(12)),
    "grid4x4": lambda: rand_partial_pd(np.random.default_rng(6), _grid(4, 4)),
    **{f"frustrated{n}": functools.partial(frustrated_ring, n) for n in (6, 12, 18, 24)},
}


class TestScaleEquivariance:
    """``c A(G)`` with ``c = 2**k`` (exact in doubles) completes to ``c Ahat`` bit for bit,
    in the same iterations, or is refused as ``A(G)`` is: no test has an absolute unit."""

    @pytest.mark.parametrize("name", sorted(EQUIVARIANCE_INPUTS))
    def test_completion_commutes_with_scaling(self, name):
        pm = EQUIVARIANCE_INPUTS[name]()
        for k in (-60, -30, 30, 60):
            assert offending_cliques(scale(2.0**k, pm)) == offending_cliques(pm)
            assert_completion_scales(pm, 2.0**k)

    @pytest.mark.parametrize("n", [6, 12, 18])
    def test_large_frustrated_ring_refuted(self, n):
        # at 2**34, K = M^-1 has entries near 2**-34: under a floor of max(1, ||K||) its PD test
        # fails, and n = 6 reaches a singular inverse in Newton, n = 12 and 18 the cycle budget
        with pytest.raises(NotCompletable):
            max_det_completion(scale(2.0**34, frustrated_ring(n)))


def _ring(n):
    return Pattern.from_pairs(n, [(i, i % n + 1) for i in range(1, n + 1)])


#: A ring (sweeps and Newton), a 4x5 grid (the same), a frustrated ring (refuted) and a band-2
#: input (the closed form).
KERNEL_INPUTS = {
    "ring0.8": lambda: project(_circulant(16, 0.8), _ring(16)),
    "grid4x5": lambda: rand_partial_pd(np.random.default_rng(7), _grid(4, 5)),
    "frustrated12": functools.partial(frustrated_ring, 12),
    "band2": lambda: rand_partial_pd(np.random.default_rng(5), _band2(12)),
}


@pytest.mark.parametrize("name", sorted(KERNEL_INPUTS))
def test_completion_needs_no_public_solve_or_inverse(monkeypatch, name):
    """With ``np.linalg.solve``, ``inv`` and ``cholesky`` patched to raise,
    ``max_det_completion`` gives the unpatched report bit for bit, or the same NotCompletable:
    it runs on linalg's kernels."""
    pm = KERNEL_INPUTS[name]()
    try:
        expected = max_det_completion(pm)
    except NotCompletable as exc:
        expected = exc

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve, inv or cholesky called")

    for kernel in ("solve", "inv", "cholesky"):
        monkeypatch.setattr(np.linalg, kernel, refuse)
    if isinstance(expected, NotCompletable):
        with pytest.raises(NotCompletable, match=re.escape(str(expected))):
            max_det_completion(pm)
        return
    got = max_det_completion(pm)
    np.testing.assert_array_equal(got.matrix, expected.matrix)
    assert (got.log_determinant.hex(), got.residual.hex(), got.iterations, got.converged) == (
        expected.log_determinant.hex(), expected.residual.hex(), expected.iterations,
        expected.converged)


def _circulant(n, rho):
    idx = np.arange(n)
    d = np.abs(idx[:, None] - idx[None, :])
    return rho ** np.minimum(d, n - d)


def _scalar_partial(x):
    return PartialMatrix(pattern=Pattern.from_pairs(1), values={(1, 1): x})


def _block_diag_partial(pa, pb):
    """Stack two partial matrices block-diagonally, cross entries missing."""
    n = pa.n + pb.n
    pairs = [(i, j) for i, j in pa.pattern.edges if i != j]
    pairs += [(i + pa.n, j + pa.n) for i, j in pb.pattern.edges if i != j]
    pattern = Pattern.from_pairs(n, pairs)
    values = dict(pa.values)
    values.update({(i + pa.n, j + pa.n): v for (i, j), v in pb.values.items()})
    return PartialMatrix(pattern=pattern, values=values)
