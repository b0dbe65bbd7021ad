"""Which properties of ``A #_t B`` carry over to means of partial PD matrices.

Six hold: the log-determinant identity of the max-det representative
(``partial_geomean_maxdet``, the identity that ``pgm geomean`` prints), its
reversal, joint homogeneity, diagonal congruence and relabeling, and the
integral representation of ``log det Â`` along a partial segment, whose
integrand reads ``Â(l)^-1`` on the pattern only.  Two fail, each pinned on
one shrunk pair on the path pattern {(1,2), (2,3)}, stored in
``demos/data/counterexamples`` so that ``pgm complete`` and ``pgm geomean``
reproduce it: max-det completion does not keep the partial Loewner order,
and the mean of two max-det completions is not the max-det completion of
its own projection.  README's ledger lists every row with its test.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgm import (
    Comparison,
    Pattern,
    max_det_completion,
    partial_geomean_maxdet,
    partial_order,
    project,
    scale,
)
from pgm.cli import main, parse_partial
from conftest import rand_chordal_pattern, rand_spd

COUNTEREXAMPLES = Path(__file__).resolve().parent.parent / "demos" / "data" / "counterexamples"
PATH3 = Pattern.from_pairs(3, [(1, 2), (2, 3)])


def _written(tmp_path, args):
    """The matrix that ``pgm <args> --out`` writes, read back bit for bit."""
    out = tmp_path / "out.txt"
    assert main([*args, "--out", str(out)]) == 0
    return parse_partial(out).to_dense()


def test_max_det_completion_does_not_keep_the_partial_order(tmp_path):
    # A = 3I > B on both cliques, but Â - B̂ = [[1, -1, -1], [-1, 2, -1], [-1, -1, 1]]: the fill
    # b13 = b12 b23 / b22 = 1 meets a13 = 0, and lambda_min = 1 - sqrt(3) = -0.244 max|Â|
    a, b = (str(COUNTEREXAMPLES / name) for name in ("path3_a.txt", "path3_b.txt"))
    pa, pb = parse_partial(a), parse_partial(b)
    assert pa.pattern == pb.pattern == PATH3
    assert partial_order(pa, pb) is Comparison.GT
    ahat, bhat = (_written(tmp_path, ["complete", path]) for path in (a, b))
    np.testing.assert_array_equal(ahat, 3.0 * np.eye(3))
    np.testing.assert_array_equal(bhat, [[2.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    lam_min = np.linalg.eigvalsh(ahat - bhat)[0]
    assert lam_min == pytest.approx(1.0 - math.sqrt(3.0), abs=1e-14)
    assert lam_min <= -1e-3 * np.abs(ahat).max()


def test_the_mean_of_completions_is_not_the_completion_of_its_projection(tmp_path):
    # Â #1/2 B̂ = sqrt(3) B̂^1/2 holds 0.548 at (1,3); the max-det completion of its projection
    # holds m12 m23 / m22 = 1 / (2 sqrt 2) = 0.354 there, 0.085 of max|M| away
    a, b = (str(COUNTEREXAMPLES / name) for name in ("path3_a.txt", "path3_b.txt"))
    mean = _written(tmp_path, ["geomean", a, b])
    res = partial_geomean_maxdet(parse_partial(a), parse_partial(b))
    np.testing.assert_array_equal(mean, res.matrix)
    refill = max_det_completion(project(mean, PATH3)).matrix
    assert refill[0, 2] == pytest.approx(1.0 / math.sqrt(8.0), rel=1e-14)
    assert mean[0, 2] == pytest.approx(0.548188158588657, rel=1e-14)
    assert np.abs(mean - refill).max() >= 1e-3 * np.abs(mean).max()


def _pattern(rng, n, kind):
    """A random chordal pattern, the ``n``-ring, the ring with chords (1, 3) and (4, n), or the
    path, on ``n`` vertices."""
    if kind == "chordal":
        return rand_chordal_pattern(rng, n)
    if kind == "path":
        return Pattern.from_pairs(n, [(i, i + 1) for i in range(1, n)])
    chords = [(1, 3), (4, n)] if kind == "chords" else []
    return Pattern.from_pairs(n, [(i, i % n + 1) for i in range(1, n + 1)] + chords)


def _correlation(rng, n):
    """A random ``n x n`` correlation matrix: ``rand_spd`` scaled to a unit diagonal."""
    s = rand_spd(rng, n)
    d = 1.0 / np.sqrt(np.diag(s))
    return s * np.outer(d, d)


@st.composite
def partial_pairs(draw):
    """Two partial PD matrices on one random chordal pattern or ring, each projected from a
    random SPD matrix (so a ring pair is completable too), and ``t`` in [0, 1]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 8))
    g = _pattern(rng, n, draw(st.sampled_from(["chordal", "ring"])))
    return project(rand_spd(rng, n), g), project(rand_spd(rng, n), g), draw(st.floats(0.0, 1.0))


@given(case=partial_pairs())
def test_partial_mean_log_determinant_identity(case):
    """``log det(Â #_t B̂) = (1-t) log det Â + t log det B̂``, the identity ``pgm geomean``
    prints, through ``partial_geomean_maxdet``."""
    pa, pb, t = case
    res = partial_geomean_maxdet(pa, pb, t)
    rhs = (1.0 - t) * res.completion_a.log_determinant + t * res.completion_b.log_determinant
    assert abs(res.log_determinant - rhs) <= 1e-12 * pa.n


def _gap(got, want):
    """The largest entry error of ``got`` relative to the largest entry of ``want``."""
    return float(np.abs(got - want).max() / np.abs(want).max())


@given(case=partial_pairs())
def test_partial_mean_reversal(case):
    """``Â #_t B̂ = B̂ #_(1-t) Â``: the representative of ``(A, B, t)`` is that of
    ``(B, A, 1 - t)``.  Over 1500 random draws the worst gap was 3.4e-15."""
    pa, pb, t = case
    want = partial_geomean_maxdet(pa, pb, t).matrix
    assert _gap(partial_geomean_maxdet(pb, pa, 1.0 - t).matrix, want) <= 1e-12


@given(case=partial_pairs(), powers=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
def test_partial_mean_joint_homogeneity(case, powers):
    """``(aA, bB)`` gives ``a^(1-t) b^t`` times the representative of ``(A, B)``, with ``a`` and
    ``b`` in [1e-3, 1e3].  Over 1500 random draws the worst gap was 3.5e-15."""
    pa, pb, t = case
    a, b = (10.0**p for p in powers)
    want = a ** (1.0 - t) * b**t * partial_geomean_maxdet(pa, pb, t).matrix
    assert _gap(partial_geomean_maxdet(scale(a, pa), scale(b, pb), t).matrix, want) <= 1e-12


@given(case=partial_pairs(), seed=st.integers(0, 2**32 - 1))
def test_partial_mean_diagonal_congruence(case, seed):
    """``D A D`` and ``D B D`` on the pattern give ``D M D``, ``D`` diagonal with entries
    log-uniform in [0.5, 2]: max-det completion commutes with a diagonal congruence.  A ring's
    completion is iterative, so the bound is its tolerance's; over 1500 random draws the worst
    gap was 1.5e-10."""
    pa, pb, t = case
    d = np.exp(np.random.default_rng(seed).uniform(math.log(0.5), math.log(2.0), pa.n))
    dd = np.outer(d, d)
    moved = (project(dd * pm.to_dense(), pm.pattern) for pm in (pa, pb))
    want = dd * partial_geomean_maxdet(pa, pb, t).matrix
    assert _gap(partial_geomean_maxdet(*moved, t).matrix, want) <= 1e-8


@given(case=partial_pairs(), seed=st.integers(0, 2**32 - 1))
def test_partial_mean_relabeling(case, seed):
    """Relabeling the vertices permutes the representative: new vertex ``k`` is old vertex
    ``perm[k]`` in both inputs and in the mean; bounded as the congruence above.  Over 1500
    random draws the worst gap was 1.3e-10."""
    pa, pb, t = case
    perm = np.random.default_rng(seed).permutation(pa.n)
    new = np.argsort(perm) + 1  # the new label of each old vertex
    g = Pattern.from_pairs(pa.n, [(new[i - 1], new[j - 1]) for i, j in pa.pattern.edges if i < j])
    moved = (project(pm.to_dense()[np.ix_(perm, perm)], g) for pm in (pa, pb))
    want = partial_geomean_maxdet(pa, pb, t).matrix[np.ix_(perm, perm)]
    assert _gap(partial_geomean_maxdet(*moved, t).matrix, want) <= 1e-8


@pytest.mark.parametrize("kind", ["ring", "chords", "path"])
@pytest.mark.parametrize("seed", range(4))
def test_integral_representation_on_the_partial_segment(kind, seed):
    """``log det Â1 - log det Â0 = int_0^1 sum_E (Â(l)^-1)_ij (A1 - A0)_ij dl``, ``Â(l)`` the
    max-det completion of ``(1 - l) A0 + l A1``, on random correlation matrices: ``Â(l)^-1``
    vanishes off the pattern, so the specified entries alone carry the derivative of
    ``log det Â(l)``.  24-point Gauss-Legendre, 26 completions per draw; over 40 draws per
    pattern kind the worst gap was 1.9e-14."""
    rng = np.random.default_rng([5, seed])
    n = int(rng.integers(5, 10))
    g = _pattern(rng, n, kind)
    a0, a1 = (project(_correlation(rng, n), g) for _ in range(2))
    ends = [max_det_completion(pm, tol=1e-13) for pm in (a0, a1)]
    assert all(rep.converged for rep in ends)
    step = np.where(g._mask, a1.to_dense() - a0.to_dense(), 0.0)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    integral = 0.0
    for x, w in zip((nodes + 1.0) / 2.0, weights / 2.0):
        rep = max_det_completion(project((1.0 - x) * a0.to_dense() + x * a1.to_dense(), g),
                                 tol=1e-13)
        assert rep.converged
        integral += w * float((np.linalg.inv(rep.matrix) * step).sum())
    assert abs(ends[1].log_determinant - ends[0].log_determinant - integral) <= 1e-12
