"""Specified-entry patterns.

A pattern is an undirected graph with all loops on vertices ``1..n``; its
edges index the specified entries of a partial matrix.  This module
provides chordality testing with witnesses (a perfect elimination ordering
when chordal, a chordless cycle of length >= 4 when not), which is the
completability verdict, and maximal-clique enumeration.

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

    @cached_property
    def _mcs(self):
        """One maximum-cardinality search: 0-based adjacency sets, the visit order (its
        reverse is an elimination order) and, if perfect, the clique sequence and its
        separators ``S_j = C_j ∩ (C_1 ∪ … ∪ C_{j-1})``, else ``None, None``.  A vertex and
        its earlier-visited neighbors form a clique, maximal exactly when the next vertex
        has no more of them (Blair and Peyton); those of the next vertex are the separator.
        A complete pattern takes no search, nor adjacency sets (``None``): the order
        ``0..n-1``, its one clique and an empty separator."""
        if self.is_complete:
            return None, list(range(self.n)), (tuple(range(self.n)),), ((),)
        adj = _adjacency(self)
        visit, earlier = _mcs_visit(adj, self.n)
        # perfect: the earlier neighbors of each v all neighbor the last one visited
        if not all(adj[e[-1]].issuperset(e[:-1]) for e in earlier if e):
            return adj, visit, None, None
        weights = [len(earlier[v]) for v in visit] + [0]
        ends = [k for k in range(self.n) if weights[k + 1] <= weights[k]]
        cliques = tuple(tuple(sorted((visit[k], *earlier[visit[k]]))) for k in ends)
        seps = tuple(tuple(sorted(earlier[visit[k]])) for k in [0, *(k + 1 for k in ends[:-1])])
        return adj, visit, cliques, seps

    @cached_property
    def _clique_sequence(self):
        """Maximal cliques as sorted tuples of 0-based vertices: for a chordal pattern the
        perfect sequence of ``_mcs``, in visit order (each clique meets the union of the
        earlier ones in its separator, inside one earlier clique), else Bron-Kerbosch."""
        adj, _, cliques, _ = self._mcs
        return cliques if cliques is not None else tuple(_bron_kerbosch(adj, self.n))


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


def _adjacency(g):
    adj = [set() for _ in range(g.n)]
    for i, j in _upper(g._mask, 1)[1]:
        adj[i - 1].add(j - 1)
        adj[j - 1].add(i - 1)
    return adj


def _mcs_visit(adj, n):
    """Maximum-cardinality search: the visit order and, per vertex, its neighbors
    visited before it, in visit order (their count is its weight).

    Each step visits the heaviest unvisited vertex, the smallest on ties: a lazy heap
    of ``(-weight, v)``, packed in one int as ``v - weight * n``.  A vertex's fresh key
    pops before its stale ones, which are skipped once it is visited."""
    earlier = [[] for _ in range(n)]
    heap = list(range(n))  # every weight 0: sorted, so already a heap
    visit, seen = [], [False] * n
    while heap:
        v = heapq.heappop(heap) % n
        if seen[v]:
            continue
        seen[v] = True
        visit.append(v)
        for u in adj[v]:
            if not seen[u]:
                earlier[u].append(v)
                heapq.heappush(heap, u - len(earlier[u]) * n)
    return visit, earlier


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
    adj, visit, cliques, _ = g._mcs
    if cliques is not None:
        return ChordalityResult(
            chordal=True,
            elimination_order=tuple(v + 1 for v in reversed(visit)),
            chordless_cycle=None,
        )
    return ChordalityResult(
        chordal=False,
        elimination_order=None,
        chordless_cycle=tuple(v + 1 for v in _find_chordless_cycle(adj, g.n)),
    )


def _bron_kerbosch(adj, n):
    """Maximal cliques by Bron-Kerbosch with pivoting, ``p`` and ``x`` updated in place."""
    cliques = []

    def expand(r, p, x):
        pivot = max(p | x, key=lambda u: (len(adj[u] & p), -u))
        for v in sorted(p - adj[pivot]):
            p_v, x_v = p & adj[v], x & adj[v]
            if p_v:
                expand(r | {v}, p_v, x_v)
            elif not x_v:
                cliques.append(tuple(sorted(r | {v})))
            p.discard(v)
            x.add(v)

    expand(set(), set(range(n)), set())
    return cliques


def maximal_cliques(g):
    """All maximal cliques, each sorted, listed lexicographically."""
    return sorted(tuple(v + 1 for v in c) for c in g._clique_sequence)
