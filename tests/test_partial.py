"""Partial matrices: definiteness, algebra, projection, partial order."""

import copy
import pickle

import numpy as np
import pytest

from pgm import (
    Comparison,
    DimensionMismatch,
    NotPartialPD,
    Pattern,
    PartialMatrix,
    PatternMismatch,
    add,
    geomean,
    is_partial_pd,
    is_pd,
    is_psd,
    linalg,
    max_det_completion,
    maximal_cliques,
    missing_positions,
    offending_cliques,
    partial_order,
    project,
    scale,
    single_entry_interval,
    sub,
)
from conftest import (
    agrees,
    chordal_example_pattern,
    frustrated_four_cycle,
    golden_pair_completions,
    matrix_a_chordal_example,
    matrix_b_chordal_example,
    order_example_a,
    rand_chordal_pattern,
    rand_partial_pd,
    rand_spd,
)


class TestPartialDefiniteness:
    def test_noncompletable_matrix_is_partial_pd(self):
        # every specified 2x2 block is PD even though no PSD completion exists
        assert is_partial_pd(frustrated_four_cycle())

    def test_chordal_examples_partial_pd(self):
        assert is_partial_pd(matrix_a_chordal_example())
        assert is_partial_pd(matrix_b_chordal_example())

    def test_all_zero_values(self):
        g = chordal_example_pattern()
        zero = PartialMatrix(pattern=g, values={pos: 0.0 for pos in g.edges})
        assert not is_partial_pd(zero)
        assert _partial_psd(zero)

    def test_offending_cliques(self):
        g = Pattern.from_pairs(3, [(1, 2)])
        pm = PartialMatrix(
            pattern=g,
            values={(1, 1): 1.0, (2, 2): 1.0, (3, 3): 1.0, (1, 2): 2.0},
        )
        assert offending_cliques(pm) == [(1, 2)]
        assert not is_partial_pd(pm)

    def test_spectrum_past_the_largest_double(self):
        # block {1, 2} has lambda_max = 1.9e308 (PD) or 2.5e308 (not): its verdict and
        # lambda_min come from the block scaled by 2**-1023; block {2, 3}, with a finite
        # spectrum, is taken as it is
        g = Pattern.from_pairs(3, [(1, 2), (2, 3)])
        m = np.array([[1e308, 9e307, 0.0], [9e307, 1e308, 1.0], [0.0, 1.0, 1e308]])
        assert is_partial_pd(project(m, g))
        m[0, 1] = m[1, 0] = 1.5e308
        assert offending_cliques(project(m, g)) == [(1, 2)]
        with pytest.raises(NotPartialPD, match=r"clique \{1, 2\} has lambda_min = -5\.000e\+307"):
            max_det_completion(project(m, g))

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("tol", [1e-10, 0.05])
    def test_stacked_tests_match_per_clique_loop(self, seed, tol):
        # mixed clique sizes, some blocks indefinite and some singular; the
        # stacked tests (one call per clique size) must give the verdicts of
        # one is_pd / is_psd call per clique, in the same clique order
        rng = np.random.default_rng([17, seed])
        n = int(rng.integers(8, 30))
        if seed % 2:
            g = rand_chordal_pattern(rng, n, fill=0.8)
        else:
            upper = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            g = Pattern.from_pairs(n, [e for e in upper if rng.random() < 0.3])
        m = rand_spd(rng, n) + rng.normal(scale=0.25, size=(n, n))
        m = 0.5 * (m + m.T)
        i, j = sorted(next(e for e in g.edges if e[0] != e[1]))
        m[i - 1, j - 1] = m[j - 1, i - 1] = np.sqrt(m[i - 1, i - 1] * m[j - 1, j - 1])
        pm = project(m, g)
        cliques = maximal_cliques(g)
        dense = pm.to_dense()
        blocks = [dense[np.ix_([v - 1 for v in c], [v - 1 for v in c])] for c in cliques]
        bad = [c for c, b in zip(cliques, blocks) if not is_pd(b, tol)]
        assert len({len(c) for c in cliques}) > 1
        assert 0 < len(bad) < len(cliques)
        assert offending_cliques(pm, tol) == bad
        assert is_partial_pd(pm, tol) is False
        assert _partial_psd(pm) is all(is_psd(b) for b in blocks)
        good = project(rand_spd(rng, n), g)
        assert offending_cliques(good, tol) == []
        assert is_partial_pd(good, tol) is True
        assert _partial_psd(good) is True


class TestAlgebra:
    def test_difference_of_order_example(self):
        c = sub(order_example_a(), matrix_a_chordal_example())
        assert c.entry(1, 1) == 2.0
        assert c.entry(1, 3) == 1.0
        assert c.entry(1, 4) == 0.0
        assert c.entry(2, 2) == 1.0
        assert c.entry(2, 3) == 0.0
        assert c.entry(3, 3) == 1.0
        assert c.entry(3, 4) == 0.0
        assert c.entry(4, 4) == 3.0
        assert is_partial_pd(c)

    def test_scale_identity(self):
        a = matrix_a_chordal_example()
        assert scale(1.0, a).values == a.values

    def test_add_cancels(self):
        a = matrix_a_chordal_example()
        z = add(a, scale(-1.0, a))
        assert all(v == 0.0 for v in z.values.values())
        assert z.pattern == a.pattern

    def test_pattern_mismatch(self):
        a = matrix_a_chordal_example()
        b = PartialMatrix(
            pattern=Pattern.complete(4),
            values={pos: 1.0 if pos[0] == pos[1] else 0.0 for pos in Pattern.complete(4).edges},
        )
        with pytest.raises(PatternMismatch):
            add(a, b)

    @pytest.mark.parametrize("seed", range(10))
    def test_cone_property(self, seed):
        rng = np.random.default_rng(seed)
        g = rand_chordal_pattern(rng, int(rng.integers(2, 7)))
        a, b = rand_partial_pd(rng, g), rand_partial_pd(rng, g)
        assert is_partial_pd(add(a, b))


class TestPartialOrder:
    def test_order_example_strict(self):
        assert partial_order(order_example_a(), matrix_a_chordal_example()) is Comparison.GT
        assert partial_order(matrix_a_chordal_example(), order_example_a()) is Comparison.LT

    def test_equal(self):
        a = matrix_a_chordal_example()
        assert partial_order(a, a) is Comparison.EQ

    def test_incomparable(self):
        a = order_example_a()
        b3 = scale(3.0, matrix_a_chordal_example())
        assert partial_order(a, b3) is Comparison.INCOMPARABLE

    def test_semidefinite_verdict(self):
        a = matrix_a_chordal_example()
        g = a.pattern
        bump = PartialMatrix(
            pattern=g,
            values={pos: (1.0 if pos == (1, 1) else 0.0) for pos in g.edges},
        )
        assert partial_order(add(a, bump), a) is Comparison.GE
        assert partial_order(a, add(a, bump)) is Comparison.LE

    @pytest.mark.parametrize("seed", range(8))
    def test_order_axioms_on_chains(self, seed):
        rng = np.random.default_rng(seed)
        g = rand_chordal_pattern(rng, int(rng.integers(2, 7)))
        x = rand_partial_pd(rng, g)
        d1 = rand_partial_pd(rng, g)
        d2 = rand_partial_pd(rng, g)
        y = add(x, d1)
        z = add(y, d2)
        # reflexive
        assert partial_order(x, x) is Comparison.EQ
        # strict comparisons along the chain
        assert partial_order(y, x) is Comparison.GT
        assert partial_order(z, y) is Comparison.GT
        # transitive
        assert partial_order(z, x) is Comparison.GT
        # antisymmetric: mutual domination collapses to equality
        assert partial_order(x, scale(1.0, x)) is Comparison.EQ

    def test_one_eigensolve_per_clique_size(self, monkeypatch):
        # cliques {1, 2, 3} and {3, 4}; the difference is indefinite on the
        # first, so every verdict up to INCOMPARABLE is tested
        g = Pattern.from_pairs(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
        a = project(np.diag([2.0, 1.0, 2.0, 2.0]), g)
        b = project(np.diag([1.0, 2.0, 1.5, 1.5]), g)
        calls = {"eigh": 0}
        real = linalg._eigh

        def counting(*args, **kwargs):
            calls["eigh"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(linalg, "_eigh", counting)
        assert partial_order(a, b) is Comparison.INCOMPARABLE
        assert 0 < calls["eigh"] <= 2

    @pytest.mark.parametrize("k", [-60, -30, 0, 30, 60])
    @pytest.mark.parametrize("delta, verdict", [(1e-16, Comparison.GE), (1e-12, Comparison.GE),
                                                (1e-9, Comparison.INCOMPARABLE)])
    def test_verdict_judged_against_the_operands_scale(self, k, delta, verdict):
        # the difference is delta c on (1, 2): eigenvalues +-delta c there, slack 1e-10 * 2 c; a
        # floor of 1 would call 1e-16 INCOMPARABLE at c = 2**60 and 1e-9 GE at c = 2**-60
        g = Pattern.from_pairs(3, [(1, 2), (2, 3)])
        base = np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 2.0]])
        bumped = base.copy()
        bumped[0, 1] = bumped[1, 0] = 0.5 + delta
        c = 2.0**k
        assert partial_order(project(c * bumped, g), project(c * base, g)) is verdict

    def test_overflowing_difference_rejected(self):
        g = Pattern.from_pairs(2, [(1, 2)])
        a = project(np.diag([1e308, 1.0]), g)
        b = project(np.diag([-1e308, 1.0]), g)
        with pytest.raises(ValueError, match="non-finite value"):
            partial_order(a, b)


class TestArrayStorage:
    """One symmetric array per matrix; ``values`` and ``edges`` are derived views."""

    def _pair(self):
        g = Pattern.from_pairs(3, [(1, 2), (2, 3)])
        m = np.array([[2.0, -0.0, 9.0], [0.0, 3.0, 0.5], [9.0, 0.5, 4.0]])
        return project(m, g), PartialMatrix(
            pattern=g, values={(1, 1): 2.0, (2, 1): -0.0, (2, 2): 3.0, (3, 2): 0.5, (3, 3): 4.0}
        )

    def test_array_and_dict_built_are_equal(self):
        built, given = self._pair()
        assert built == given and hash(built) == hash(given)
        assert built.values == given.values and repr(built.values[1, 2]) == "-0.0"
        assert built.pattern.edges == given.pattern.edges
        # the upper entry wins in project: the -0.0 above the diagonal, on both sides
        assert np.signbit(built.to_dense()[[0, 1], [1, 0]]).all()

    def test_values_are_read_only(self):
        for pm in self._pair():
            with pytest.raises(TypeError):
                pm.values[1, 1] = 5.0

    @pytest.mark.parametrize(
        "duplicate", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]
    )
    def test_copies_are_equal(self, duplicate):
        for pm in self._pair():
            twin = duplicate(pm)
            assert twin == pm and hash(twin) == hash(pm) and twin.values == pm.values


class TestProjectAgrees:
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ValueError, match="non-finite value"):
            PartialMatrix(
                pattern=Pattern.from_pairs(2, [(1, 2)]),
                values={(1, 1): 1.0, (2, 2): 1.0, (1, 2): value},
            )

    def test_known_completion_agrees(self):
        a1, _ = golden_pair_completions()
        assert agrees(a1, matrix_a_chordal_example())

    def test_project_roundtrip(self):
        rng = np.random.default_rng(0)
        g = rand_chordal_pattern(rng, 5)
        m = rand_spd(rng, 5)
        assert agrees(m, project(m, g))

    def test_geomean_of_completions_leaves_fiber(self):
        a1, a2 = golden_pair_completions()
        mean = geomean(a1, a2, 0.5)
        # entry (1, 1) moves to ~0.875, so the mean is not a completion
        assert not agrees(mean, matrix_a_chordal_example(), tol=1e-3)

    def test_asymmetric_never_agrees(self):
        m = np.array([[1.0, 0.5], [0.0, 1.0]])
        pm = project(np.eye(2), Pattern.complete(2))
        assert not agrees(m, pm)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            project(np.eye(3), Pattern.complete(2))

    def test_conflicting_values_rejected(self):
        values = {(1, 1): 1.0, (2, 2): 1.0, (1, 2): 0.1, (2, 1): 0.2}
        with pytest.raises(ValueError, match=r"conflicting values for position \(1, 2\)"):
            PartialMatrix(pattern=Pattern.from_pairs(2, [(1, 2)]), values=values)

    def test_values_must_cover_the_pattern(self):
        with pytest.raises(ValueError, match="values must cover exactly the specified positions"):
            PartialMatrix(pattern=Pattern.from_pairs(2, [(1, 2)]), values={(1, 1): 1.0, (2, 2): 1.0})

    def test_agrees_rejects_a_non_square_matrix(self):
        assert not agrees(np.eye(3)[:2], matrix_a_chordal_example())

    def test_agrees_rejects_another_dimension(self):
        pm = project(np.eye(3), Pattern.complete(3))
        assert not agrees(np.eye(4), pm)
        assert not agrees(np.eye(2), pm)  # a smaller matrix lacks pm's last row


class TestCompletionConsistency:
    """Partial PSD on a chordal pattern is equivalent to having a PSD
    completion; cross-checked against the completion module."""

    @pytest.mark.parametrize("seed", range(10))
    def test_partial_pd_implies_completable(self, seed):
        rng = np.random.default_rng(seed)
        g = rand_chordal_pattern(rng, int(rng.integers(2, 6)))
        pm = rand_partial_pd(rng, g)
        report = max_det_completion(pm)
        assert report.converged
        assert agrees(report.matrix, pm, tol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_not_partial_psd_rejected(self, seed):
        rng = np.random.default_rng(seed)
        g = rand_chordal_pattern(rng, int(rng.integers(2, 6)))
        pm = rand_partial_pd(rng, g)
        bad = sub(scale(0.01, pm), rand_partial_pd(rng, g))
        if _partial_psd(bad):
            pytest.skip("perturbation stayed partial PSD")
        with pytest.raises(NotPartialPD):
            max_det_completion(bad)

    @pytest.mark.parametrize("seed", range(6))
    def test_difference_inclusion(self, seed):
        # every PD completion of a - b, added to a PD completion of b,
        # is a PD completion of a
        rng = np.random.default_rng(seed)
        g = rand_chordal_pattern(rng, int(rng.integers(2, 6)))
        b = rand_partial_pd(rng, g)
        d = rand_partial_pd(rng, g)
        a = add(b, d)
        c_completion = _random_completion(rng, d)
        b_completion = _random_completion(rng, b)
        total = b_completion + c_completion
        assert agrees(total, a, tol=1e-10)
        assert np.linalg.eigvalsh(total)[0] > 0


def _random_completion(rng, pm):
    """A random PD completion: start at max-det, nudge each missing entry
    within its conditional feasibility interval."""
    m = max_det_completion(pm).matrix.copy()
    for i, j in missing_positions(pm.pattern):
        iv = single_entry_interval(m, i, j)
        val = iv.center + 0.8 * iv.half_width * float(rng.uniform(-1, 1))
        m[i - 1, j - 1] = m[j - 1, i - 1] = val
    return m


def _partial_psd(pm):
    """Partial PSD at ``DEFAULT_TOL``, read off the partial order against zero."""
    return partial_order(pm, scale(0.0, pm)) in (Comparison.GT, Comparison.GE, Comparison.EQ)
