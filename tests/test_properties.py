"""Hypothesis properties of the closed-form completion and the partial order.

``completion_with_det`` puts one entry of the max-det completion on the
determinant parabola; ``partial_order`` takes its four verdicts from one
clique-spectrum pass and must agree with ``conftest.reference_partial_order``,
the four-pass order over the difference and its negated copy.  Both run
under the derandomized ``pgm`` profile.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from pgm import (
    Comparison,
    Pattern,
    agrees,
    completion_with_det,
    det,
    is_pd,
    max_det_completion,
    missing_positions,
    partial_order,
    project,
    single_entry_interval,
)
from conftest import rand_chordal_pattern, rand_partial_pd, rand_spd, reference_partial_order


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


@given(pm=partial_pd_matrices(), ratio=st.floats(1e-6, 1.0, exclude_max=True))
def test_completion_with_det_on_the_parabola(pm, ratio):
    ahat = max_det_completion(pm).matrix
    d_max = det(ahat)
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
