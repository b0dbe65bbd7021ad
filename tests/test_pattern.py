"""Pattern graphs: chordality witnesses, cliques, missing positions."""

from itertools import combinations

import pytest

from pgm import (
    Pattern,
    connected_components,
    is_chordal,
    is_completable,
    maximal_cliques,
    missing_positions,
)
from conftest import (
    brute_force_has_hole,
    brute_force_maximal_cliques,
    chordal_example_pattern,
    four_cycle_pattern,
    is_valid_chordless_cycle,
    rand_chordal_pattern,
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

    def test_missing_loop_rejected(self):
        with pytest.raises(ValueError):
            Pattern(n=2, edges=frozenset({(1, 1), (1, 2)}))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Pattern.from_pairs(2, [(1, 3)])

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
        assert not is_completable(g)

    def test_chordal_example(self):
        g = chordal_example_pattern()
        res = is_chordal(g)
        assert res.chordal
        assert res.chordless_cycle is None
        assert sorted(res.elimination_order) == [1, 2, 3, 4]
        assert is_completable(g)

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
        later = [u for u in g.neighbors(v) if position[u] > position[v]]
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


class TestComponents:
    def test_connected(self):
        assert connected_components(Pattern.complete(3)) == [(1, 2, 3)]

    def test_split(self):
        g = Pattern.from_pairs(5, [(1, 2), (4, 5)])
        assert connected_components(g) == [(1, 2), (3,), (4, 5)]
