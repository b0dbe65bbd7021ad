"""Partial matrices over a pattern.

A partial matrix assigns real values exactly to the positions specified by
its pattern (one value per unordered pair, so symmetry is structural).
This module provides partial positive (semi)definiteness, entrywise
algebra, projection of full matrices, and the partial Loewner order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotPartialPD, PatternMismatch
from .linalg import DEFAULT_TOL, _definite, as_sym_matrix
from .pattern import Pattern, _normalize_edge


@dataclass(frozen=True)
class PartialMatrix:
    """Values on the specified positions of a pattern.

    ``values`` maps ``(i, j)`` with ``i <= j`` (1-based) to finite floats
    and covers exactly ``pattern.edges``.
    """

    pattern: Pattern
    values: dict

    def __post_init__(self):
        vals = {}
        for (i, j), v in dict(self.values).items():
            key = _normalize_edge(i, j)
            v = float(v)
            if not math.isfinite(v):
                raise ValueError(f"non-finite value {v} at position {key}")
            if key in vals and vals[key] != v:
                raise ValueError(f"conflicting values for position {key}")
            vals[key] = v
        if set(vals) != set(self.pattern.edges):
            raise ValueError("values must cover exactly the specified positions")
        object.__setattr__(self, "values", vals)

    @property
    def n(self):
        return self.pattern.n

    def entry(self, i, j):
        return self.values[_normalize_edge(i, j)]

    def to_dense(self, fill=0.0):
        """Dense symmetric array with ``fill`` at unspecified positions."""
        m = np.full((self.n, self.n), float(fill))
        for (i, j), v in self.values.items():
            m[i - 1, j - 1] = v
            m[j - 1, i - 1] = v
        return m


def project(m, pattern):
    """Keep the entries of a full symmetric matrix at a pattern's
    specified positions."""
    m = as_sym_matrix(m)
    if m.shape[0] != pattern.n:
        raise DimensionMismatch(
            f"matrix of dimension {m.shape[0]} vs pattern on {pattern.n} vertices"
        )
    values = {(i, j): float(m[i - 1, j - 1]) for i, j in pattern.edges}
    return PartialMatrix(pattern=pattern, values=values)


def agrees(m, pm, tol=1e-8):
    """True iff ``m`` is symmetric and matches ``pm`` on every specified
    position within ``tol``."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] != pm.n:
        raise DimensionMismatch(f"matrix of dimension {m.shape[0]} vs partial matrix of {pm.n}")
    if not np.array_equal(m, m.T):
        return False
    return all(
        abs(m[i - 1, j - 1] - v) <= tol for (i, j), v in pm.values.items()
    )


def clique_extremes(a, cliques):
    """``[lambda_min, lambda_max]`` of each clique block of the dense ``a``
    (cliques 0-based), one stacked eigensolve per clique size.  ``_definite``
    gives a pair the verdict of its full spectrum; ``-ext[:, ::-1]`` negates."""
    sizes = np.array([len(c) for c in cliques])
    ext = np.empty((len(cliques), 2))
    for size in set(sizes.tolist()):
        rows = np.flatnonzero(sizes == size)
        idx = np.array([cliques[r] for r in rows])
        ext[rows] = linalg._eigh(a[idx[:, :, None], idx[:, None, :]], vectors=False)[:, [0, -1]]
    return ext


def is_partial_pd(pm, tol=DEFAULT_TOL):
    """True iff every maximal-clique principal submatrix is positive
    definite.  Checking maximal cliques suffices because cliques nest."""
    ext = clique_extremes(pm.to_dense(), pm.pattern._clique_sequence)
    return bool(_definite(ext, tol).all())


def is_partial_psd(pm, tol=DEFAULT_TOL):
    """True iff every maximal-clique principal submatrix is positive
    semidefinite."""
    ext = clique_extremes(pm.to_dense(), pm.pattern._clique_sequence)
    return bool(_definite(ext, tol, semi=True).all())


def offending_cliques(pm, tol=DEFAULT_TOL):
    """Maximal cliques whose principal submatrix fails to be positive
    definite (diagnostic companion to :func:`is_partial_pd`), in the
    order of :func:`maximal_cliques`."""
    return [c for c, _ in _offenders(pm.to_dense(), pm.pattern._clique_sequence, tol)]


def _offenders(a, cliques, tol):
    """Sorted 1-based ``(clique, lambda_min)`` of the non-PD clique blocks of the dense ``a``."""
    ext = clique_extremes(a, cliques)
    rows = np.flatnonzero(~_definite(ext, tol))
    return sorted((tuple(v + 1 for v in cliques[r]), ext[r, 0]) for r in rows)


def _require_partial_pd(a, cliques, tol):
    """Raise :class:`NotPartialPD` naming the first of :func:`_offenders`."""
    bad = _offenders(a, cliques, tol)
    if bad:
        clique, lam_min = bad[0]
        names = ", ".join(map(str, clique))
        raise NotPartialPD(f"not partial PD: clique {{{names}}} has lambda_min = {lam_min:.3e}")


def _require_same_pattern(a, b):
    if a.pattern != b.pattern:
        raise PatternMismatch("operands must share the same pattern")


def add(a, b):
    """Entrywise sum on the shared pattern."""
    _require_same_pattern(a, b)
    values = {pos: v + b.values[pos] for pos, v in a.values.items()}
    return PartialMatrix(pattern=a.pattern, values=values)


def scale(alpha, a):
    """Entrywise scalar multiple; the pattern is unchanged."""
    alpha = float(alpha)
    return PartialMatrix(
        pattern=a.pattern, values={pos: alpha * v for pos, v in a.values.items()}
    )


def sub(a, b):
    """Entrywise difference ``a + (-1) * b``."""
    return add(a, scale(-1.0, b))


class Comparison(enum.Enum):
    """Verdict of the partial Loewner order."""

    LT = "LT"
    LE = "LE"
    GT = "GT"
    GE = "GE"
    EQ = "EQ"
    INCOMPARABLE = "INCOMPARABLE"


def partial_order(a, b):
    """Classify ``a`` against ``b`` in the partial Loewner order.

    The order is defined through the difference: ``a > b`` iff ``a - b``
    is partial positive definite, ``a >= b`` iff it is partial positive
    semidefinite, both at tolerance ``DEFAULT_TOL``.  ``EQ`` requires the
    difference to be identically zero; strict verdicts take precedence.
    """
    diff = sub(a, b).to_dense()  # sub rejects another pattern and an overflow
    if not diff.any():
        return Comparison.EQ
    ext = clique_extremes(diff, a.pattern._clique_sequence)
    neg = -ext[:, ::-1]  # the pairs of -diff
    if _definite(ext, DEFAULT_TOL).all():
        return Comparison.GT
    if _definite(neg, DEFAULT_TOL).all():
        return Comparison.LT
    if _definite(ext, DEFAULT_TOL, semi=True).all():
        return Comparison.GE
    if _definite(neg, DEFAULT_TOL, semi=True).all():
        return Comparison.LE
    return Comparison.INCOMPARABLE


def restrict(pm, vertices):
    """Partial matrix induced on a subset of vertices, relabeled 1..k in
    the given (sorted) order."""
    verts = sorted(vertices)
    index = {v: k + 1 for k, v in enumerate(verts)}
    pairs = [
        (index[i], index[j])
        for i, j in pm.pattern.edges
        if i in index and j in index and i != j
    ]
    sub_pattern = Pattern.from_pairs(len(verts), pairs)
    values = {}
    for (i, j), v in pm.values.items():
        if i in index and j in index:
            values[_normalize_edge(index[i], index[j])] = v
    return PartialMatrix(pattern=sub_pattern, values=values)
