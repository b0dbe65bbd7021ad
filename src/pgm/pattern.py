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

from collections import deque
from dataclasses import dataclass
from functools import cached_property

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
        """0-based adjacency sets, MCS order and its PEO verdict, once per pattern."""
        adj = _adjacency(self)
        order = _mcs_order(adj, self.n)
        return adj, order, _is_peo(adj, order)

    @cached_property
    def _clique_sequence(self):
        """Maximal cliques from the one maximum-cardinality search.

        Each clique is a sorted tuple of 0-based vertices.  For a chordal
        pattern the cliques come in MCS visit order, which is a perfect
        sequence: each clique meets the union of the ones before it inside
        a single earlier clique.  Visiting ``v`` with its already-visited
        neighbors gives a candidate clique, and a candidate is maximal
        exactly when the next vertex has no more visited neighbors than
        ``v`` (Blair and Peyton).  Non-chordal patterns fall back to
        Bron-Kerbosch with pivoting.
        """
        if self.is_complete:  # its one clique, without a search
            return (tuple(range(self.n)),)
        adj, order, chordal = self._mcs
        if not chordal:
            return tuple(_bron_kerbosch(adj, self.n))
        pos = {v: k for k, v in enumerate(order)}
        candidates = [(v, *(u for u in adj[v] if pos[u] > pos[v])) for v in reversed(order)]
        return tuple(
            tuple(sorted(c))
            for c, after in zip(candidates, candidates[1:] + [()])
            if len(after) <= len(c)
        )


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


def _mcs_order(adj, n):
    """Maximum-cardinality search; returns a candidate elimination order.

    Each step visits the unvisited vertex with the most visited
    neighbors, the smallest one on ties (``argmax`` returns the first).
    """
    weight = np.zeros(n)
    picks = []
    for _ in range(n):
        v = int(np.argmax(weight))
        weight[v] = -np.inf
        weight[list(adj[v])] += 1.0
        picks.append(v)
    picks.reverse()
    return picks


def _is_peo(adj, order):
    """Check the perfect-elimination property of a vertex order."""
    pos = {v: k for k, v in enumerate(order)}
    for v in order:
        later = [u for u in adj[v] if pos[u] > pos[v]]
        if not later:
            continue
        u = min(later, key=pos.__getitem__)
        if not set(later) - {u} <= adj[u]:
            return False
    return True


def _shortest_path(adj, start, goal, blocked):
    """BFS path from start to goal avoiding ``blocked`` vertices."""
    if start == goal:
        return [start]
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
        nb = sorted(adj[v])
        for a in range(len(nb)):
            for b in range(a + 1, len(nb)):
                x, y = nb[a], nb[b]
                if y in adj[x]:
                    continue
                blocked = (adj[v] | {v}) - {x, y}
                path = _shortest_path(adj, x, y, blocked)
                if path is not None and len(path) >= 3:
                    return (v, *path)
    return None


def is_chordal(g):
    """Decide chordality, with a witness either way.

    Runs maximum-cardinality search and verifies the perfect-elimination
    property of the resulting order; the order is a valid witness exactly
    when the graph is chordal.  On failure a chordless cycle of length
    >= 4 is extracted as counter-witness.  A pattern admits positive definite
    completions of every partial positive definite matrix exactly when it is chordal.
    """
    adj, order, chordal = g._mcs
    if chordal:
        return ChordalityResult(
            chordal=True,
            elimination_order=tuple(v + 1 for v in order),
            chordless_cycle=None,
        )
    cycle = _find_chordless_cycle(adj, g.n)
    if cycle is None:
        raise InternalNumerics("PEO check failed but no chordless cycle was found")
    return ChordalityResult(
        chordal=False,
        elimination_order=None,
        chordless_cycle=tuple(v + 1 for v in cycle),
    )


def _bron_kerbosch(adj, n):
    cliques = []

    def expand(r, p, x):
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda u: (len(adj[u] & p), -u))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(n)), set())
    return cliques


def maximal_cliques(g):
    """All maximal cliques, each sorted, listed lexicographically."""
    return sorted(tuple(v + 1 for v in c) for c in g._clique_sequence)
