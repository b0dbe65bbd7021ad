"""Pattern graphs: chordality witnesses, cliques, missing positions."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgm import (
    PartialMatrix,
    Pattern,
    is_chordal,
    max_det_completion,
    maximal_cliques,
    missing_positions,
    pattern,
)
from conftest import (
    brute_force_has_hole,
    brute_force_maximal_cliques,
    chordal_example_pattern,
    four_cycle_pattern,
    is_valid_chordless_cycle,
    rand_chordal_pattern,
    reference_bron_kerbosch,
    reference_mcs_order,
)


def random_pattern(rng, n, p=0.5):
    pairs = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < p
    ]
    return Pattern.from_pairs(n, pairs)


class TestConstruction:
    def test_loops_added(self):
        g = Pattern.from_pairs(3, [(1, 2)])
        assert g.has_edge(2, 2) and g.has_edge(1, 2) and g.has_edge(2, 1)

    def test_queries_outside_the_vertices(self):
        g = Pattern.from_pairs(3, [(1, 2), (1, 3)])
        assert not g.has_edge(0, 1) and not g.has_edge(3, 4) and not g.has_edge(0, 0)

    def test_missing_loop_rejected(self):
        with pytest.raises(ValueError):
            Pattern(n=2, edges=frozenset({(1, 1), (1, 2)}))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Pattern.from_pairs(2, [(1, 3)])

    def test_no_vertex_rejected(self):
        with pytest.raises(ValueError, match="pattern needs at least one vertex"):
            Pattern(n=0, edges=frozenset())

    def test_non_integer_vertex_rejected(self):
        with pytest.raises(ValueError, match=r"edge \(1, 1.5\) has a non-integer vertex"):
            Pattern(n=2, edges=frozenset({(1, 1), (2, 2), (1, 1.5)}))

    def test_complete(self):
        g = Pattern.complete(4)
        assert g.is_complete
        assert missing_positions(g) == []


class TestChordality:
    def test_four_cycle_not_chordal(self):
        g = four_cycle_pattern()
        res = is_chordal(g)
        assert not res.chordal
        assert res.elimination_order is None
        assert sorted(res.chordless_cycle) == [1, 2, 3, 4]
        assert is_valid_chordless_cycle(g, res.chordless_cycle)

    def test_chordal_example(self):
        g = chordal_example_pattern()
        res = is_chordal(g)
        assert res.chordal
        assert res.chordless_cycle is None
        assert sorted(res.elimination_order) == [1, 2, 3, 4]

    def test_complete_graph(self):
        assert is_chordal(Pattern.complete(5)).chordal

    def test_single_vertex(self):
        res = is_chordal(Pattern.from_pairs(1))
        assert res.chordal and res.elimination_order == (1,)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        rng = __import__("numpy").random.default_rng(seed)
        n = int(rng.integers(2, 9))
        g = random_pattern(rng, n, p=float(rng.uniform(0.2, 0.9)))
        res = is_chordal(g)
        assert res.chordal == (not brute_force_has_hole(g))
        if res.chordal:
            _assert_perfect_elimination(g, res.elimination_order)
        else:
            assert is_valid_chordless_cycle(g, res.chordless_cycle)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_chordal_generator(self, seed):
        rng = __import__("numpy").random.default_rng(seed)
        g = rand_chordal_pattern(rng, int(rng.integers(3, 12)))
        res = is_chordal(g)
        assert res.chordal
        assert res.elimination_order == reference_mcs_order(g)


def _assert_perfect_elimination(g, order):
    """Replaying the order never exposes a non-clique later neighborhood."""
    position = {v: k for k, v in enumerate(order)}
    for v in order:
        later = [u for u in order[position[v] + 1 :] if g.has_edge(u, v)]
        for a, b in combinations(later, 2):
            assert g.has_edge(a, b), f"order {order} fails at vertex {v}"


class TestMaximalCliques:
    def test_chordal_example(self):
        assert maximal_cliques(chordal_example_pattern()) == [(1, 3, 4), (2, 3)]

    def test_triangle(self):
        assert maximal_cliques(Pattern.complete(3)) == [(1, 2, 3)]

    def test_four_cycle(self):
        assert maximal_cliques(four_cycle_pattern()) == [(1, 2), (1, 4), (2, 3), (3, 4)]

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force(self, seed):
        rng = __import__("numpy").random.default_rng(100 + seed)
        n = int(rng.integers(2, 9))
        g = random_pattern(rng, n, p=float(rng.uniform(0.2, 0.9)))
        got = maximal_cliques(g)
        assert got == brute_force_maximal_cliques(g)
        # every returned set is a clique and every edge is covered
        for c in got:
            assert all(g.has_edge(i, j) for i, j in combinations(c, 2))
        for i, j in g.edges:
            assert any(i in c and j in c for c in got)

    def test_non_chordal_sequence_matches_the_reference_recursion(self):
        # the clique sweeps run in this order, so it is pinned, not just the set
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 240:
            n = int(rng.integers(4, 31))
            g = random_pattern(rng, n, p=float(rng.uniform(2.0 / n, 0.6)))
            if is_chordal(g).chordal:
                continue
            assert g._clique_sequence == tuple(reference_bron_kerbosch(g))
            checked += 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_complete_pattern_skips_the_search(self, n, monkeypatch):
        class Searched(Pattern):
            is_complete = False  # takes the maximum-cardinality search

        g = Pattern.complete(n)
        _, *searched = Searched(n=n, edges=g.edges)._mcs
        calls = []
        monkeypatch.setattr(pattern, "_mcs_visit", lambda *args: calls.append(args))
        # the order, the one clique and its empty separator, as the search finds them
        assert g._mcs[1:] == tuple(searched)
        assert g._clique_sequence == searched[1] and calls == []

    def test_complete_matrix_completes_without_search(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pattern, "_mcs_visit", lambda *args: calls.append(args))
        g = Pattern.complete(4)
        values = {(i, j): 1.0 if i == j else 0.1 for i, j in g.edges}
        assert max_det_completion(PartialMatrix(pattern=g, values=values)).converged
        assert calls == []


def _disjoint_union(rng, g, h):
    """``g`` and ``h`` side by side, vertices relabeled at random."""
    relabel = rng.permutation(g.n + h.n) + 1
    pairs = [(i, j) for i, j in g.edges if i < j]
    pairs += [(g.n + i, g.n + j) for i, j in h.edges if i < j]
    return Pattern.from_pairs(g.n + h.n, [(int(relabel[i - 1]), int(relabel[j - 1]))
                                          for i, j in pairs])


@st.composite
def search_patterns(draw):
    """Chordal, random (mostly non-chordal), disconnected, edgeless or one-vertex."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = rng.choice(["chordal", "random", "random", "disconnected", "edgeless", "one"])
    n = int(rng.integers(2, 10))
    if kind == "chordal":
        return rand_chordal_pattern(rng, n, fill=float(rng.uniform(0.2, 1.0)))
    if kind == "random":
        return random_pattern(rng, n + 2, p=float(rng.uniform(0.2, 0.6)))
    if kind == "disconnected":
        m = int(rng.integers(1, n))
        return _disjoint_union(rng, rand_chordal_pattern(rng, m), random_pattern(rng, n - m))
    return Pattern.from_pairs(n if kind == "edgeless" else 1)


class TestSearch:
    """The heap search and the clique sequence it yields, against plain-loop and
    brute-force oracles."""

    @given(g=search_patterns())
    def test_order_and_records_match_the_reference(self, g):
        adj = pattern._adjacency(g)
        visit, earlier = pattern._mcs_visit(adj, g.n)
        assert tuple(v + 1 for v in reversed(visit)) == reference_mcs_order(g)
        step = {v: k for k, v in enumerate(visit)}
        for v in range(g.n):  # each vertex's neighbors visited before it, in visit order
            assert earlier[v] == sorted((u for u in adj[v] if step[u] < step[v]), key=step.get)

    @given(g=search_patterns())
    def test_perfect_sequence_with_brute_force_separators(self, g):
        _, _, cliques, separators = g._mcs
        if brute_force_has_hole(g):
            assert (cliques, separators) == (None, None)
            return
        as_sets = [{v + 1 for v in c} for c in cliques]
        assert sorted(tuple(sorted(c)) for c in as_sets) == brute_force_maximal_cliques(g)
        seen = set()
        for j, (clique, separator) in enumerate(zip(as_sets, separators)):
            assert {v + 1 for v in separator} == clique & seen
            # running intersection: the separator lies inside one earlier clique
            assert j == 0 or any(clique & seen <= earlier for earlier in as_sets[:j])
            seen |= clique


class TestMissingPositions:
    def test_complete(self):
        assert missing_positions(Pattern.complete(3)) == []

    def test_chordal_example(self):
        assert missing_positions(chordal_example_pattern()) == [(1, 2), (2, 4)]

    def test_four_cycle(self):
        assert missing_positions(four_cycle_pattern()) == [(1, 3), (2, 4)]

    def test_row_major_order(self):
        g = Pattern.from_pairs(4, [(3, 4)])
        assert missing_positions(g) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]

