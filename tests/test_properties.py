"""Hypothesis properties of the closed-form completion, the partial order,
the array storage and the text format.

``completion_with_det`` puts one entry of the max-det completion on the
determinant parabola; ``partial_order`` takes its four verdicts from one
clique-spectrum pass and must agree with ``conftest.reference_partial_order``,
the four-pass order over the difference and its negated copy.  A partial
matrix printed by ``format_partial`` parses back bit for bit, the parser and
the dict constructor build equal matrices, and the dense view and the
formatters match the per-entry references in ``conftest``.  On random
rings the completion's verdict obeys ``conftest.cycle_margin``, the cycle
condition, which must equal a search of every odd edge set.  Every
verdict, comparison and completion commutes with scaling by ``2**k``.
All run under the derandomized ``pgm`` profile.
"""

import math
import os
import tempfile
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from numpy.linalg import det

from pgm import (
    Comparison,
    PartialMatrix,
    Pattern,
    agrees,
    completion,
    completion_with_det,
    geomean,
    is_pd,
    is_psd,
    max_det_completion,
    missing_positions,
    offending_cliques,
    partial_order,
    project,
    scale,
    single_entry_interval,
)
from pgm.cli import _human_matrix, format_matrix, format_partial, parse_partial
from pgm.errors import NotCompletable
from conftest import (
    assert_completion_scales,
    cosine_ring,
    cycle_margin,
    frustrated_ring,
    maxdet_oracle,
    rand_chordal_pattern,
    rand_partial_pd,
    rand_spd,
    reference_format_matrix,
    reference_format_partial,
    reference_human_matrix,
    reference_partial_order,
    reference_to_dense,
)


@st.composite
def partial_pd_matrices(draw):
    """A partial PD matrix with a missing entry on a random chordal
    pattern, or on a ring with random chords (mostly non-chordal)."""
    n = draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        g = rand_chordal_pattern(rng, n)
    else:
        pairs = [(i, i % n + 1) for i in range(1, n + 1)]
        pairs += [(i, j) for i in range(1, n) for j in range(i + 2, n + 1) if rng.random() < 0.2]
        g = Pattern.from_pairs(n, pairs)
    assume(missing_positions(g))
    return rand_partial_pd(rng, g)


@st.composite
def ill_conditioned_chordal(draw):
    """A partial PD matrix on a random chordal pattern with a missing entry, half of
    them two chordal parts side by side (so a separator is empty), projected from a
    random SPD matrix whose condition number is up to 1e8."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 9))
    g = rand_chordal_pattern(rng, n, fill=float(rng.uniform(0.2, 1.0)))
    if draw(st.booleans()):
        h = rand_chordal_pattern(rng, int(rng.integers(1, 5)))
        pairs = [(i, j) for i, j in g.edges if i < j]
        pairs += [(n + i, n + j) for i, j in h.edges if i < j]
        g = Pattern.from_pairs(n + h.n, pairs)
    assume(missing_positions(g))
    kappa = draw(st.floats(1.0, 1e8))
    return rand_partial_pd(rng, g, spread=0.5 * math.log(kappa))


@given(pm=ill_conditioned_chordal())
def test_chordal_closed_form_matches_the_oracle(pm):
    report = max_det_completion(pm)
    expected = maxdet_oracle(pm)
    assert (report.iterations, report.converged) == (1, True)
    assert np.abs(report.matrix - expected).max() <= 1e-8 * np.abs(expected).max()
    assert agrees(report.matrix, pm, tol=0.0)
    log_det = np.linalg.slogdet(report.matrix)[1]
    assert abs(report.log_determinant - log_det) <= 1e-10 * max(1.0, abs(log_det))
    # the certificate: the inverse vanishes off the pattern, relative to 1 / lambda_min
    lam_min = np.linalg.eigvalsh(report.matrix)[0]
    off = np.abs(np.linalg.inv(report.matrix)[~pm.pattern._mask]).max()
    assert report.residual == pytest.approx(off, rel=1e-6, abs=1e-300)
    assert off * lam_min <= 1e-10


@given(pm=ill_conditioned_chordal())
def test_newton_from_the_diagonal_matches_the_chordal_closed_form(pm):
    # Newton on the dual, forced from K = diag(1 / a_ii) on the input scaled as
    # max_det_completion scales it and run at tol 0 to its stall, against the closed form,
    # with kappa the closed form's condition number: the closed form is certified at 1e-10
    # and Newton's last X at its floor eps kappa^2 (at most 0.02 eps kappa^2 over 2000
    # draws); matrices agree to 4 eps kappa and log-determinants to 16 n eps kappa (0.23
    # and 2.8 over those draws)
    closed = max_det_completion(pm)
    spec, e = pm.pattern._mask, np.frexp(np.abs(pm._a).max())[1] - 1
    a = np.ldexp(pm.to_dense(), -e)
    *steps, (_, build) = islice(completion._newton(np.diag(1.0 / np.diag(a)), a, spec, 0.0), 100)
    assert len(steps) < 99  # it stalled: tol 0 certifies no step
    newton = build()
    lam = np.linalg.eigvalsh(closed.matrix)
    kappa, eps = lam[-1] / lam[0], np.finfo(float).eps
    assert closed.converged
    assert completion._certify(newton.matrix, a, spec, eps * kappa**2).converged
    x = np.ldexp(newton.matrix, e)
    assert np.abs(x - closed.matrix).max() <= 4.0 * eps * kappa * np.abs(closed.matrix).max()
    log_det = newton.log_determinant + pm.n * e * math.log(2.0)
    assert abs(log_det - closed.log_determinant) <= 16.0 * pm.n * eps * kappa


@given(pm=partial_pd_matrices(), ratio=st.floats(1e-6, 1.0, exclude_max=True))
def test_completion_with_det_on_the_parabola(pm, ratio):
    report = max_det_completion(pm)  # its determinant bounds the targets
    ahat, d_max = report.matrix, report.determinant
    k = ratio * d_max
    assume(k < d_max)
    m = completion_with_det(pm, k)
    assert det(m) == pytest.approx(k, rel=1e-8)
    assert agrees(m, pm, tol=0.0)
    assert is_pd(m)
    # only the first missing entry and its mirror move off ahat
    i, j = missing_positions(pm.pattern)[0]
    expected = ahat.copy()
    expected[i - 1, j - 1] = expected[j - 1, i - 1] = m[i - 1, j - 1]
    assert np.array_equal(m, expected)
    # the determinant falls monotonically from the max-det value to k
    iv = single_entry_interval(ahat, i, j)
    dets = []
    for x in np.linspace(iv.center, m[i - 1, j - 1], 6):
        probe = ahat.copy()
        probe[i - 1, j - 1] = probe[j - 1, i - 1] = x
        dets.append(det(probe))
    assert all(later <= earlier + 1e-12 * d_max for earlier, later in zip(dets, dets[1:]))


@st.composite
def order_pairs(draw):
    """Two partial matrices on a random pattern whose difference is zero,
    random, definite, rank one or semidefinite with a null direction."""
    n = draw(st.integers(2, 7))
    upper = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    g = Pattern.from_pairs(n, [p for p in upper if draw(st.booleans())])
    kind = draw(st.sampled_from(["random", "definite", "rank_one", "semidefinite", "zero"]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    if kind == "zero":
        d = np.zeros((n, n))
    elif kind == "random":
        d = rng.standard_normal((n, n))
    elif kind == "definite":
        d = q @ np.diag(rng.uniform(0.1, 1.0, n)) @ q.T
    elif kind == "rank_one":
        v = rng.standard_normal(n)
        d = np.outer(v, v)
    else:
        d = q @ np.diag(np.r_[0.0, rng.uniform(0.0, 1.0, n - 1)]) @ q.T
    a = rand_spd(rng, n)
    return project(a, g), project(a - sign * 0.5 * (d + d.T), g)


FLIPPED = {
    Comparison.GT: Comparison.LT,
    Comparison.LT: Comparison.GT,
    Comparison.GE: Comparison.LE,
    Comparison.LE: Comparison.GE,
    Comparison.EQ: Comparison.EQ,
    Comparison.INCOMPARABLE: Comparison.INCOMPARABLE,
}


@given(pair=order_pairs())
def test_partial_order_matches_four_pass_reference(pair):
    a, b = pair
    verdict = partial_order(a, b)
    assert verdict is reference_partial_order(a, b)
    assert partial_order(b, a) is reference_partial_order(b, a) is FLIPPED[verdict]


#: Values whose text or sign is easy to lose: signed zeros, the subnormal and
#: float extremes, and the 17-digit integers above 2**53.
EDGE_VALUES = [-0.0, 0.0, 1e-300, -1e-300, 5e-324, 1e17, -1e17, 1.7976931348623157e308,
               0.1, 1 / 3, 123456789.123456789]


def _values(rng, size):
    """``size`` floats: an edge value with probability 0.3, else a signed power-scaled normal."""
    draws = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9, size)
    edge = rng.random(size) < 0.3
    draws[edge] = rng.choice(EDGE_VALUES, int(edge.sum()))
    return draws


@st.composite
def storage_cases(draw):
    """A partial matrix on a random chordal or ring-with-chords pattern, n 1-40,
    built from a dict of edge-laden values."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        g = rand_chordal_pattern(rng, n, fill=float(rng.uniform(0.1, 0.9)))
    else:
        pairs = [(i, i % n + 1) for i in range(1, n + 1) if n > 2]
        pairs += [(i, j) for i in range(1, n) for j in range(i + 2, n + 1) if rng.random() < 0.1]
        g = Pattern.from_pairs(n, pairs)
    edges = sorted(g.edges)
    return PartialMatrix(pattern=g, values=dict(zip(edges, _values(rng, len(edges)).tolist())))


def _parse_text(text):
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False, encoding="utf-8") as f:
        f.write(text)
    try:
        return parse_partial(f.name)
    finally:
        os.unlink(f.name)


def _bits(values):
    return {pos: float(v).hex() for pos, v in values.items()}


@given(pm=storage_cases())
def test_format_partial_parses_back_bit_for_bit(pm):
    text = format_partial(pm)
    assert text == reference_format_partial(pm)
    back = _parse_text(text)
    assert back == pm and hash(back) == hash(pm)
    assert _bits(back.values) == _bits(pm.values)
    assert back.to_dense(np.nan).tobytes() == pm.to_dense(np.nan).tobytes()


@given(pm=storage_cases())
def test_parser_and_dict_constructor_agree(pm):
    """A file whose lower triangle mirrors a signed zero with ``0`` parses to the
    dict-built matrix: the upper entry wins."""
    lines = [f"n {pm.n}"]
    for i in range(1, pm.n + 1):
        row = []
        for j in range(1, pm.n + 1):
            v = pm.values.get((min(i, j), max(i, j)))
            row.append("?" if v is None else "0" if v == 0 and j < i else repr(v))
        lines.append(" ".join(row))
    parsed = _parse_text("\n".join(lines) + "\n")
    assert parsed == pm and hash(parsed) == hash(pm)
    assert parsed.pattern == pm.pattern and hash(parsed.pattern) == hash(pm.pattern)
    assert parsed.pattern.edges == pm.pattern.edges
    assert _bits(parsed.values) == _bits(pm.values)
    assert missing_positions(parsed.pattern) == missing_positions(pm.pattern)


@given(pm=storage_cases(), fill=st.sampled_from([0.0, -0.0, np.nan, 2.5]))
def test_to_dense_matches_per_entry_reference(pm, fill):
    assert pm.to_dense(fill).tobytes() == reference_to_dense(pm, fill).tobytes()


@st.composite
def dense_matrices(draw):
    """An n x n array, n 1-40, of edge values, normals at random scales, and a few
    non-finite entries."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = _values(rng, n * n).reshape(n, n)
    if draw(st.booleans()):
        m.flat[rng.integers(0, n * n, 2)] = rng.choice([np.nan, np.inf, -np.inf], 2)
    return m


@given(m=dense_matrices())
def test_formatters_match_per_entry_references(m):
    assert format_matrix(m) == reference_format_matrix(m)
    assert _human_matrix(m) == reference_human_matrix(m)


@given(n=st.integers(3, 8), seed=st.integers(0, 2**32 - 1))
def test_cycle_margin_is_the_worst_odd_edge_set(n, seed):
    theta = np.random.default_rng(seed).uniform(0.0, math.pi, n)
    worst = max(
        2.0 * theta[list(odd)].sum() - theta.sum() - (size - 1) * math.pi
        for size in range(1, n + 1, 2)
        for odd in combinations(range(n), size)
    )
    assert cycle_margin(theta) == pytest.approx(worst, abs=1e-12)


@pytest.mark.parametrize("n, sign", [(22, 1.0), (23, -1.0)])
def test_cycle_margin_of_the_frustrated_ring(n, sign):
    """``n arccos 0.99 > pi`` first at ``n = 23``: the margin changes sign there."""
    a = frustrated_ring(n).to_dense(0.0)
    theta = np.arccos([a[k, (k + 1) % n] for k in range(n)])
    assert np.sign(cycle_margin(theta)) == sign


@given(n=st.integers(4, 11), seed=st.integers(0, 2**32 - 1))
@example(n=4, seed=4)  # infeasible, and refuted by a Newton iterate
def test_completion_verdicts_obey_the_cycle_condition(n, seed):
    """A ring the condition calls completable (margin below -1e-3) converges, and
    ``NotCompletable`` is raised only on one it does not.  An unconverged report is
    allowed only on a ring without a PD completion."""
    theta = np.random.default_rng(seed).uniform(0.0, math.pi, n)
    margin = cycle_margin(theta)
    assume(abs(margin) >= 1e-3)
    try:
        report = max_det_completion(cosine_ring(theta), max_cycles=50)
    except NotCompletable:
        assert margin > 0
    else:
        assert report.converged == (margin < 0)


@st.composite
def scaled_instances(draw):
    """``(pm, other, a, b, t, k)``: ``pm`` on a random chordal, ring, 2-wide grid or random pattern,
    projected from an SPD matrix whose off-diagonal part is stretched by up to 6 (so some
    are not partial PD), or a ring of random angles (some with no PD completion, some
    refuted by ``NotCompletable``); ``other`` is ``pm`` moved by a random
    definite or indefinite step on the pattern, of size 0 up to 1e-3; ``a``, ``b`` SPD."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["chordal", "ring", "cosine ring", "ladder", "random"]))
    n = draw(st.integers(3, 8))
    if kind == "chordal":
        g = rand_chordal_pattern(rng, n)
    elif kind in ("ring", "cosine ring"):
        g = Pattern.from_pairs(n, [(i, i % n + 1) for i in range(1, n + 1)])
    elif kind == "ladder":  # the 2 x (n // 2) grid
        n -= n % 2
        rungs = [(i, i + 1) for i in range(1, n, 2)]
        g = Pattern.from_pairs(n, rungs + [(i, i + 2) for i in range(1, n - 1)])
    else:
        pairs = combinations(range(1, n + 1), 2)
        g = Pattern.from_pairs(n, [p for p in pairs if rng.random() < 0.5])
    full = rand_spd(rng, n)
    diag = np.diag(np.diag(full))
    full = diag + draw(st.floats(0.5, 6.0)) * (full - diag)
    if kind == "cosine ring":  # completable or not by the cycle condition
        full = cosine_ring(rng.uniform(0.0, math.pi, n)).to_dense()
    step = rng.standard_normal((n, n))
    step = step @ step.T if draw(st.booleans()) else step + step.T
    size = draw(st.sampled_from([0.0, 1e-16, 1e-12, 1e-9, 1e-3, -1e-3]))
    t = draw(st.floats(0.0, 1.0))
    k = draw(st.integers(-900, 900))
    a, b = rand_spd(rng, n), rand_spd(rng, n)
    return project(full, g), project(full + size * step, g), a, b, t, k


@given(case=scaled_instances())
def test_verdicts_and_completions_commute_with_scaling(case):
    """``c = 2**k`` scales a double exactly, and no test has an absolute unit: ``c pm`` is
    refused as ``pm`` is, or completes to ``c Ahat`` bit for bit in the same iterations
    with the residual over ``c``; the PD, PSD, clique and order verdicts are those of the
    unscaled operands, and ``(c A) #_t (c B) = c (A #_t B)``, bit for bit at even ``k``
    (at odd ``k``, ``sqrt(c)`` is not a double)."""
    pm, other, a, b, t, k = case
    c = 2.0**k
    dense = pm.to_dense()
    assert (is_pd(c * dense), is_psd(c * dense)) == (is_pd(dense), is_psd(dense))
    assert offending_cliques(scale(c, pm)) == offending_cliques(pm)
    assert partial_order(scale(c, pm), scale(c, other)) is partial_order(pm, other)
    mean = geomean(a, b, t)
    if k % 2 == 0:
        np.testing.assert_array_equal(geomean(c * a, c * b, t), c * mean)
    else:
        assert np.abs(geomean(c * a, c * b, t) - c * mean).max() <= 1e-13 * c * np.abs(mean).max()
    assert_completion_scales(pm, c, max_cycles=60)
