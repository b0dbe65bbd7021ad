"""Specified-entry patterns.

A pattern is an undirected graph with all loops on vertices ``1..n``; its
edges index the specified entries of a partial matrix.  This module tests
chordality, the completability verdict, with a witness (a perfect elimination
ordering from one maximum-cardinality search over the sparser of the pattern
and its complement, or a chordless cycle of length >= 4), and lists maximal cliques:
a chordal pattern's from that search, any other's by Bron-Kerbosch, except that a
triangle-free pattern's cliques are its edges, listed in one pass in the recursion's order.

Vertices are 1-based in every public signature and 0-based internally.
A pattern is stored as its symmetric ``(n, n)`` boolean mask; the edge
set is derived from it when a pattern is built from a mask.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import InternalNumerics


def _normalize_edge(i, j):
    return (i, j) if i <= j else (j, i)


@dataclass(frozen=True)
class Pattern:
    """Undirected graph with all loops on ``{1..n}``.

    ``edges`` is a frozenset of ``(i, j)`` pairs with ``i <= j``; every
    loop ``(i, i)`` must be present.  Queries read the boolean mask ``_mask``.
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("pattern needs at least one vertex")
        for i, j in self.edges:
            if not (isinstance(i, (int, np.integer)) and isinstance(j, (int, np.integer))):
                raise ValueError(f"edge ({i}, {j}) has a non-integer vertex")
            if not (1 <= i <= j <= self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n = {self.n}")
        for i in range(1, self.n + 1):
            if (i, i) not in self.edges:
                raise ValueError(f"missing loop ({i}, {i}); all loops must be present")
        rows, cols = np.array(list(self.edges)).T - 1
        self.__dict__["_mask"] = mask = np.zeros((self.n, self.n), dtype=bool)
        mask[rows, cols] = mask[cols, rows] = True

    @classmethod
    def _from_mask(cls, mask):
        """The pattern of a symmetric boolean mask with a true diagonal, unchecked."""
        g = object.__new__(cls)
        g.__dict__.update(n=mask.shape[0], _mask=mask)
        return g

    def __getattr__(self, name):
        """``edges`` of a pattern built from a mask, derived once."""
        if name != "edges":
            raise AttributeError(name)
        self.__dict__["edges"] = frozenset(_upper(self._mask)[1])
        return self.edges

    @classmethod
    def from_pairs(cls, n, pairs=()):
        """Build a pattern from off-diagonal pairs; loops are added."""
        edges = {(i, i) for i in range(1, n + 1)}
        edges.update(_normalize_edge(i, j) for i, j in pairs)
        return cls(n=n, edges=frozenset(edges))

    @classmethod
    def complete(cls, n):
        """Complete pattern: every entry specified."""
        return cls.from_pairs(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])

    def has_edge(self, i, j):
        i, j = _normalize_edge(i, j)
        return 1 <= i and j <= self.n and bool(self._mask[i - 1, j - 1])

    @property
    def is_complete(self):
        return bool(self._mask.all())

    _adjacency = cached_property(lambda self: _neighbors(self._mask))
    _complement = cached_property(lambda self: _neighbors(~self._mask))
    # more entries than the complement, whose lists the searches then read
    _denser = property(lambda self: 2 * np.count_nonzero(self._mask) > self.n * (self.n + 1))

    @cached_property
    def _mcs(self):
        """One maximum-cardinality search (Tarjan and Yannakakis), in the same order over the
        complement where it has fewer entries: the visit order (reversed, an elimination order)
        and, if perfect, the clique sequence and its separators ``S_j = C_j ∩ (C_1 ∪ … ∪
        C_{j-1})``, else ``None, None``.  A vertex and its earlier-visited neighbors form a
        clique, maximal exactly when the next vertex has no more of them (Blair and Peyton);
        those of the next vertex are the separator.  A complete pattern takes no search."""
        if self.is_complete:
            return list(range(self.n)), (tuple(range(self.n)),), ((),)
        if not self._denser:
            adj = self._adjacency
            visit, earlier = _mcs_visit(adj, self.n, -1)
            # perfect: the earlier neighbors of each v all neighbor the last one visited
            perfect = all(adj[e[-1]].issuperset(e[:-1]) for e in earlier if e)
        else:  # each vertex records its gaps: the non-neighbors visited before it
            visit, gaps = _mcs_visit(self._complement, self.n, 1)
            gaps = [set(g) for g in gaps]
            earlier = {v: [u for u in visit[:k] if u not in gaps[v]] if gaps[v] else visit[:k]
                       for k, v in enumerate(visit)}
            # the same test: each gap of the last earlier neighbor of v is one of v's
            perfect = all(gaps[v].issuperset(gaps[e[-1]]) for v, e in earlier.items() if e)
        if not perfect:
            return visit, None, None
        weights = [len(earlier[v]) for v in visit] + [0]
        ends = [k for k in range(self.n) if weights[k + 1] <= weights[k]]
        cliques = tuple(tuple(sorted((visit[k], *earlier[visit[k]]))) for k in ends)
        seps = tuple(tuple(sorted(earlier[visit[k]])) for k in [0, *(k + 1 for k in ends[:-1])])
        return visit, cliques, seps

    @cached_property
    def _clique_sequence(self):
        """Maximal cliques as sorted tuples of 0-based vertices: for a chordal pattern the
        perfect sequence of ``_mcs``, in visit order (each clique meets the union of the
        earlier ones in its separator, inside one earlier clique), else Bron-Kerbosch's
        discovery order, which the clique sweeps follow; a triangle-free pattern (a ring,
        a grid) has its edges as cliques, listed in one pass in that same order."""
        cliques = self._mcs[1]
        if cliques is not None:
            return cliques
        comp = self._complement if self._denser else None
        return tuple(_bron_kerbosch(self._adjacency, self.n, comp))


def _upper(mask, k=0):
    """Flat indices and 1-based positions ``(i, j)``, ``j >= i + k``, where the square
    ``mask`` is true, row-major, from a flat scan (ten times cheaper than a 2-D one)."""
    flat = np.flatnonzero(mask)
    rows, cols = np.divmod(flat, len(mask))
    keep = cols >= rows + k
    return flat[keep], list(zip((rows[keep] + 1).tolist(), (cols[keep] + 1).tolist()))


def missing_positions(g):
    """Unspecified positions ``(i, j)`` with ``i < j``, in row-major order."""
    return _upper(~g._mask, 1)[1]


@dataclass(frozen=True)
class ChordalityResult:
    """Chordality verdict plus witness.

    Exactly one witness is populated: ``elimination_order`` (a perfect
    elimination ordering, 1-based) when chordal, ``chordless_cycle`` (a
    cycle of length >= 4 without a chord) when not.
    """

    chordal: bool
    elimination_order: tuple | None
    chordless_cycle: tuple | None


def _neighbors(mask):
    """0-based neighbor sets of the graph of a symmetric boolean ``mask``, loops left out."""
    adj = [set() for _ in range(len(mask))]
    for i, j in _upper(mask, 1)[1]:
        adj[i - 1].add(j - 1)
        adj[j - 1].add(i - 1)
    return adj


def _mcs_visit(lists, n, step):
    """Maximum-cardinality search: the visit order and, per vertex, the entries of its list
    visited before it, in visit order.

    Each step visits the heaviest unvisited vertex, the smallest on ties: the least key
    ``v + count * n`` of a lazy heap, the count being minus the weight over neighbor lists
    (``step = -1``) and the visited non-neighbors over the complement's (``step = 1``).
    A key that is not its vertex's current one, ``keys[v]``, is stale and skipped."""
    records, keys, stride = [[] for _ in range(n)], list(range(n)), step * n
    heap = keys.copy()  # every count 0: sorted, so already a heap
    visit, seen = [], [False] * n
    while heap:
        key = heapq.heappop(heap)
        v = key % n
        if key != keys[v]:
            continue
        seen[v] = True
        visit.append(v)
        for u in lists[v]:
            if not seen[u]:
                records[u].append(v)
                keys[u] += stride
                heapq.heappush(heap, keys[u])
    return visit, records


def _shortest_path(adj, start, goal, blocked):
    """BFS path from start to goal avoiding ``blocked`` vertices."""
    parent = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in sorted(adj[v]):
            if u in blocked or u in parent:
                continue
            parent[u] = v
            if u == goal:
                path = [u]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(u)
    return None


def _find_chordless_cycle(adj, n):
    """Locate a chordless cycle of length >= 4 in a non-chordal graph.

    For a vertex v with non-adjacent neighbors x, y, a shortest x-y path
    avoiding the rest of N[v] is induced, so v plus the path is a
    chordless cycle.  Some such triple succeeds in any non-chordal graph
    because every hole provides one.
    """
    for v in range(n):
        for x, y in combinations(sorted(adj[v]), 2):
            if y in adj[x]:
                continue
            blocked = (adj[v] | {v}) - {x, y}
            path = _shortest_path(adj, x, y, blocked)
            if path is not None:
                return (v, *path)
    raise InternalNumerics("PEO check failed but no chordless cycle was found")


def is_chordal(g):
    """Decide chordality, with a witness either way.

    Runs maximum-cardinality search and verifies the perfect-elimination
    property of the resulting order; the order is a valid witness exactly
    when the graph is chordal.  On failure a chordless cycle of length
    >= 4 is extracted as counter-witness.  A pattern admits positive definite
    completions of every partial positive definite matrix exactly when it is chordal.
    """
    visit, cliques, _ = g._mcs
    if cliques is not None:
        return ChordalityResult(
            chordal=True,
            elimination_order=tuple(v + 1 for v in reversed(visit)),
            chordless_cycle=None,
        )
    return ChordalityResult(
        chordal=False,
        elimination_order=None,
        chordless_cycle=tuple(v + 1 for v in _find_chordless_cycle(g._adjacency, g.n)),
    )


def _bron_kerbosch(adj, n, comp=None):
    """Maximal cliques by Bron-Kerbosch with pivoting (Tomita, Tanaka and Takahashi), in
    discovery order, on an explicit stack of frames, so a clique of any size costs no Python
    recursion.  The pivot has the most neighbors in ``p``, the smallest on ties; given the
    complement's lists ``comp`` (of a pattern denser than its complement), that count is
    read off a vertex's few non-neighbors.  A triangle-free pattern's maximal cliques are its
    edges and isolated vertices, listed in one pass in the recursion's order: the top level
    passes its pivot's non-neighbors ``v`` in ascending order, and ``v`` ends in an edge with
    each neighbor not yet passed, or alone if it has none."""
    everyone = set(range(n))
    if all(adj[i].isdisjoint(adj[j]) for i in range(n) for j in adj[i] if i < j):
        cliques, passed = [], set()
        for v in sorted(everyone - adj[max(range(n), key=lambda u: (len(adj[u]), -u))]):
            cliques += [(v, w) if v < w else (w, v) for w in sorted(adj[v] - passed)]
            if not adj[v]:
                cliques.append((v,))
            passed.add(v)
        return cliques

    def frame(r, p, x):
        if comp is not None:  # |adj[u] & p| = |p| - |comp[u] & p| - [u in p]
            pivot = max(p | x, key=lambda u: (len(p) - len(comp[u] & p) - (u in p), -u))
        else:
            pivot = max(p | x, key=lambda u: (len(adj[u] & p), -u))
        return r, p, x, iter(sorted(p - adj[pivot]))

    cliques, stack = [], [frame((), everyone, set())]
    while stack:
        r, p, x, candidates = stack[-1]
        v = next(candidates, None)
        if v is None:
            stack.pop()
            continue
        p_v, x_v = p & adj[v], x & adj[v]
        if p_v:  # the child's sets are its own, so v leaves p now, before the child runs
            stack.append(frame((*r, v), p_v, x_v))
        elif not x_v:
            cliques.append(tuple(sorted((*r, v))))
        p.discard(v)
        x.add(v)
    return cliques


def maximal_cliques(g):
    """All maximal cliques, each sorted, listed lexicographically."""
    return sorted(tuple(v + 1 for v in c) for c in g._clique_sequence)
