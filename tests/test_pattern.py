"""Pattern graphs: chordality witnesses, cliques, missing positions."""

import re
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgm import (
    PartialMatrix,
    Pattern,
    is_chordal,
    karcher_mean,
    max_det_completion,
    maximal_cliques,
    missing_positions,
    partial_entry_bounds,
    partial_geomean_sweep,
    pattern,
    single_entry_interval,
)
from conftest import (
    brute_force_has_hole,
    brute_force_maximal_cliques,
    chordal_example_pattern,
    ex1_partial_a,
    ex1_partial_b,
    four_cycle_pattern,
    is_valid_chordless_cycle,
    near_complete,
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


def ring_pattern(n):
    return Pattern.from_pairs(n, [*((i, i + 1) for i in range(1, n)), (n, 1)])


def grid_pattern(rows, cols):
    """The ``rows x cols`` grid graph, vertices numbered row by row."""
    pairs = [(v, v + 1) for v in range(1, rows * cols + 1) if v % cols]
    pairs += [(v, v + cols) for v in range(1, (rows - 1) * cols + 1)]
    return Pattern.from_pairs(rows * cols, pairs)


def triangle_free_with_a_hole(rng, n):
    """A random triangle-free pattern on ``n`` vertices through the cycle ``1..k``,
    ``k >= 4``: pairs join while their ends share no neighbor.  It is not chordal, since
    its shortest cycle has no chord and at least four vertices."""
    k = int(rng.integers(4, min(n, 12) + 1))
    adj = [set() for _ in range(n + 1)]
    pairs = [*((i, i + 1) for i in range(1, k)), (k, 1)]
    candidates = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    pairs += [candidates[t] for t in rng.permutation(len(candidates))[: 2 * n]]
    kept = []
    for i, j in pairs:
        if j not in adj[i] and adj[i].isdisjoint(adj[j]):
            adj[i].add(j)
            adj[j].add(i)
            kept.append((i, j))
    return Pattern.from_pairs(n, kept)


def near_complete_with_missing(n, missing):
    missing = {tuple(sorted(p)) for p in missing}
    return Pattern.from_pairs(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                                  if (i, j) not in missing])


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

    @pytest.mark.parametrize("build, message", [
        (lambda: Pattern.from_pairs(2.0), r"pattern size 2\.0 is not an integer"),
        (lambda: Pattern.from_pairs(np.float64(3.0)), r"size np\.float64\(3\.0\) is not an"),
        (lambda: Pattern.complete(2.0), r"pattern size 2\.0 is not an integer"),
        (lambda: Pattern(n="3", edges=frozenset()), r"pattern size '3' is not an integer"),
        (lambda: Pattern(n=True, edges=frozenset({(1, 1)})), r"pattern size True is not an"),
        (lambda: Pattern.from_pairs(3).has_edge(1.5, 2), r"edge \(1\.5, 2\) has a non-integer"),
        (lambda: Pattern.from_pairs(3).has_edge(1, "2"), r"edge \(1, '2'\) has a non-integer"),
    ], ids=["float", "numpy_float", "complete_float", "str", "bool", "has_edge_float",
            "has_edge_str"])
    def test_non_integer_size_or_queried_vertex_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_numpy_integer_size_is_held_as_an_int(self):
        # the searches shift by n: a numpy n of 64 or more would overflow 1 << n
        g = ring_pattern(70)
        h = Pattern.from_pairs(np.int64(70), [(i, j) for i, j in g.edges if i < j])
        assert type(h.n) is int and h == g
        assert is_chordal(h) == is_chordal(g) and h._clique_sequence == g._clique_sequence

    def test_complete(self):
        g = Pattern.complete(4)
        assert g.is_complete
        assert missing_positions(g) == []
        for n in (4, 70):  # the mask-built pattern is the one of every pair
            g, full = Pattern.complete(n), Pattern.from_pairs(n, combinations(range(1, n + 1), 2))
            assert g == full and hash(g) == hash(full) and g.edges == full.edges


def _pair_matrix(key):
    """The dict door on the 2-vertex pattern with its edge given as ``key``."""
    return PartialMatrix(Pattern.from_pairs(2, [(1, 2)]), {(1, 1): 2.0, key: 0.5, (2, 2): 3.0})


#: Every door that takes a vertex, a position or a count from a caller: how it is given a
#: non-integer ``v``, and the ValueError that names it (``{}`` is ``repr(v)``).
INTEGER_GATES = {
    "Pattern": (lambda v: Pattern(n=3, edges=frozenset({(1, 1), (2, 2), (3, 3), (v, 2)})),
                r"edge \({}, 2\) has a non-integer vertex"),
    "from_pairs": (lambda v: Pattern.from_pairs(3, [(v, 2), (2, 3)]),
                   r"edge \({}, 2\) has a non-integer vertex"),
    "has_edge": (lambda v: Pattern.from_pairs(3).has_edge(v, 2),
                 r"edge \({}, 2\) has a non-integer vertex"),
    "PartialMatrix": (lambda v: _pair_matrix((v, 2)), r"position \({}, 2\) has a non-integer index"),
    "entry": (lambda v: _pair_matrix((1, 2)).entry(v, 2),
              r"position \({}, 2\) has a non-integer index"),
    "single_entry_interval": (lambda v: single_entry_interval(np.eye(3), v, 3),
                              r"position \({}, 3\) has a non-integer index"),
    "partial_entry_bounds": (lambda v: partial_entry_bounds(ex1_partial_a(), (v, 3)),
                             r"edge \({}, 3\) has a non-integer vertex"),
    "size": (lambda v: Pattern.from_pairs(v), r"pattern size {} is not an integer"),
    "max_cycles": (lambda v: max_det_completion(ex1_partial_a(), max_cycles=v),
                   r"max_cycles must be an integer >= 1, got {}"),
    "max_steps": (lambda v: karcher_mean((1.0,), (np.eye(2),), max_steps=v),
                  r"max_steps must be an integer >= 0, got {}"),
    "grid": (lambda v: partial_geomean_sweep(ex1_partial_a(), ex1_partial_b(), v, 0.5, 1e-10),
             r"grid must be an integer, got {}"),
}


class TestIntegerGates:
    """One integer test, ``pattern._is_count``, behind every door of ``INTEGER_GATES``: a bool
    is refused by name, as a float is, and a numpy integer is held as a Python int."""

    @pytest.mark.parametrize("value", [True, False, 1.0, 1.5])
    @pytest.mark.parametrize("door", list(INTEGER_GATES))
    def test_bool_and_float_named(self, door, value):
        build, message = INTEGER_GATES[door]
        with pytest.raises(ValueError, match=message.format(re.escape(repr(value)))):
            build(value)

    @pytest.mark.parametrize("index", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_positions_held_as_ints(self, index):
        g = Pattern.from_pairs(3, [(index(2), index(1)), (index(2), index(3))])
        assert g == Pattern.from_pairs(3, [(1, 2), (2, 3)])
        assert {type(v) for edge in g.edges for v in edge} == {int}
        pm = _pair_matrix((index(2), index(1)))
        assert pm == _pair_matrix((1, 2)) and hash(pm) == hash(_pair_matrix((1, 2)))
        assert list(pm.values) == [(1, 1), (1, 2), (2, 2)]
        assert {type(v) for key in pm.values for v in key} == {int}
        assert pm.entry(index(2), index(1)) == 0.5


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

    @pytest.mark.parametrize("g", [ring_pattern(n) for n in (4, 5, 24, 101)]
                             + [grid_pattern(r, c) for r, c in ((2, 3), (5, 6), (12, 12))],
                             ids=["ring4", "ring5", "ring24", "ring101",
                                  "grid2x3", "grid5x6", "grid12x12"])
    def test_rings_and_grids_list_their_edges_in_the_recursion_order(self, g):
        assert not is_chordal(g).chordal
        assert g._clique_sequence == tuple(reference_bron_kerbosch(g))
        assert sorted(g._clique_sequence) == sorted((i - 1, j - 1) for i, j in g.edges if i < j)

    @pytest.mark.parametrize("isolated", [0, 3], ids=["connected", "isolated"])
    @pytest.mark.parametrize("seed", range(20))
    def test_triangle_free_sequence_matches_the_reference_recursion(self, seed, isolated):
        # a random triangle-free pattern around a hole, isolated vertices scattered in
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(8, 61))
        g = triangle_free_with_a_hole(rng, n)
        for _ in range(isolated):
            g = _disjoint_union(rng, g, Pattern.from_pairs(1))
        assert not is_chordal(g).chordal
        assert g._clique_sequence == tuple(reference_bron_kerbosch(g))
        alone = [(v,) for v in range(g.n) if not g._adjacency[v]]
        assert len(alone) >= isolated and [c for c in g._clique_sequence if len(c) == 1] == alone

    PLANTED = {
        # vertex 1, the pivot, closes the triangle 1-2-3
        "through_the_pivot": lambda n: ([(1, 3)], (0, 1, 2)),
        # the hub h = n // 2, the pivot, sees the triangle 1-2-3 among its neighbors
        "among_its_neighbors": lambda n: ([(1, 3), *((k, n // 2) for k in (1, 2, 3))],
                                          (0, 1, 2, n // 2 - 1)),
        # the pivot 1 (the hub of two 4-cycles) is far from the triangle n-3, n-2, n-1,
        # which the one pass reaches last
        "late_in_the_order": lambda n: ([(1, 4), (1, 6), (n - 3, n - 1)], (n - 4, n - 3, n - 2)),
    }

    # the 5-ring takes only the chord (1, 3): the other two need a hub and a vertex 6
    @pytest.mark.parametrize("n, planted", [(5, "through_the_pivot")]
                             + [(n, k) for k in PLANTED for n in (10, 24, 101)])
    def test_a_chord_closing_a_triangle_takes_the_recursion(self, n, planted):
        chords, clique = self.PLANTED[planted](n)
        g = Pattern.from_pairs(n, [*((i, i + 1) for i in range(1, n)), (n, 1), *chords])
        assert not is_chordal(g).chordal
        assert g._clique_sequence == tuple(reference_bron_kerbosch(g))
        assert clique in g._clique_sequence

    @pytest.mark.parametrize("draw", ["near_complete", "dense"])
    def test_dense_sequence_matches_the_reference_recursion(self, draw):
        # on patterns denser than their complements (``_denser`` only filters the draws) the
        # one bit-count pivot gives the reference's order.  Near-complete draws miss 1-6
        # pairs (k disjoint ones leave 2**k maximal cliques); the dense ones, at n <= 25,
        # give vertices outside p the most neighbors in it more often
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(300):
            if draw == "near_complete":
                n = int(rng.integers(4, 40))
                pairs = list(combinations(range(1, n + 1), 2))
                picked = rng.choice(len(pairs), size=int(rng.integers(1, 7)), replace=False)
                g = near_complete_with_missing(n, [pairs[k] for k in picked])
            else:
                g = random_pattern(rng, int(rng.integers(4, 26)), p=float(rng.uniform(0.55, 0.95)))
            if is_chordal(g).chordal or not g._denser:
                continue
            assert g._clique_sequence == tuple(reference_bron_kerbosch(g))
            checked += 1
        assert checked >= 200

    def test_cliques_deeper_than_the_recursion_limit(self):
        # two missing pairs leave a chordless 4-cycle and four cliques of n - 2 vertices
        n = 160
        g = near_complete_with_missing(n, [(1, 2), (3, 4)])
        expected = tuple(reference_bron_kerbosch(g))
        assert [len(c) for c in expected] == [n - 2] * 4
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            got = g._clique_sequence
        finally:
            sys.setrecursionlimit(limit)
        assert got == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_complete_pattern_skips_the_search(self, n, monkeypatch):
        class Searched(Pattern):
            is_complete = False  # takes the maximum-cardinality search

        g = Pattern.complete(n)
        searched = Searched(n=n, edges=g.edges)._mcs
        calls = []
        monkeypatch.setattr(pattern, "_mcs_visit", lambda *args: calls.append(args))
        # the order, the one clique and its empty separator, as the search finds them
        assert g._mcs == searched
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
    """Chordal, random (mostly non-chordal), disconnected, near-complete (1-3 pairs
    missing, searched over the complement), edgeless or one-vertex."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = rng.choice(["chordal", "random", "random", "disconnected", "near", "near",
                       "edgeless", "one"])
    n = int(rng.integers(2, 10))
    if kind == "near":
        return near_complete(rng, n + 1, int(rng.integers(1, 4)))
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
        # over the pattern a vertex records its neighbors visited before it, over the
        # complement its non-neighbors; either way the order is the reference's
        for step, mask in ((-1, g._mask), (1, ~g._mask)):
            rows = pattern._rows(mask)
            visit, records = pattern._mcs_visit(rows, g.n, step)
            assert tuple(v + 1 for v in reversed(visit)) == reference_mcs_order(g)
            at = {v: k for k, v in enumerate(visit)}
            lists = [pattern._members(row) for row in rows]
            for v in range(g.n):  # each vertex's list entries visited before it, in visit order
                assert records[v] == sorted((u for u in lists[v] if at[u] < at[v]), key=at.get)

    @given(g=search_patterns())
    def test_perfect_sequence_with_brute_force_separators(self, g):
        _, cliques, separators = g._mcs
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

    @pytest.mark.parametrize("n", [40, 60, 200])
    @pytest.mark.parametrize("missing, chordal", [
        ([(1, 2), (1, 3)], True),  # vertex 1 stays simplicial
        ([(1, 2), (2, 3), (2, 5)], True),  # the missing pairs share a vertex: no hole
        ([(1, 2), (3, 4)], False),  # the hole 1-3-2-4
        ([(1, 2), (3, 4), (5, 6)], False),
    ])
    def test_near_complete_search_at_size(self, n, missing, chordal):
        g = Pattern.from_pairs(n, [p for p in combinations(range(1, n + 1), 2) if p not in missing])
        visit, cliques, separators = g._mcs
        assert tuple(v + 1 for v in reversed(visit)) == reference_mcs_order(g)
        assert is_chordal(g).chordal == chordal == (cliques is not None)
        mask, covered, seen = g._mask, np.eye(n, dtype=bool), set()
        for clique in g._clique_sequence:
            c = list(clique)
            assert mask[np.ix_(c, c)].all()  # a clique, and no vertex outside extends it
            assert np.flatnonzero(mask[:, c].all(axis=1)).tolist() == c
            covered[np.ix_(c, c)] = True
        assert (covered == mask).all()  # every edge lies in a clique
        for clique, separator in zip(cliques or (), separators or ()):
            assert set(separator) == set(clique) & seen
            seen |= set(clique)

    def test_near_complete_chordal_search_builds_no_adjacency(self, monkeypatch):
        n = 60
        g = Pattern.from_pairs(n, [p for p in combinations(range(1, n + 1), 2)
                                   if p not in ((1, n - 1), (1, n))])
        read, real = [], pattern._rows
        monkeypatch.setattr(Pattern, "_adjacency", property(lambda self: pytest.fail("adjacency")))
        monkeypatch.setattr(pattern, "_rows", lambda m: read.append(m.sum()) or real(m))
        assert is_chordal(g).chordal
        assert maximal_cliques(g) == [tuple(range(1, n - 1)), tuple(range(2, n + 1))]
        assert read == [4]  # the complement's rows alone, over the two missing pairs


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

