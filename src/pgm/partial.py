"""Partial matrices over a pattern.

A partial matrix assigns real values exactly to the positions specified by
its pattern (one value per unordered pair, so symmetry is structural).  It
is stored as one symmetric float array, zero off the pattern; the
``values`` dict is a read-only view derived from it on first use.
This module alone proves partial positive definiteness; it also provides
entrywise algebra, projection of full matrices, and the partial Loewner order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotPartialPD, PatternMismatch
from .linalg import DEFAULT_TOL, _definite, _require_tol, as_sym_matrix
from .pattern import Pattern, _normalize_edge, _upper


@dataclass(frozen=True)
class PartialMatrix:
    """Values on the specified positions of a pattern.

    ``values`` maps ``(i, j)`` with ``i <= j`` (1-based) to finite floats
    and covers exactly ``pattern.edges``.  The matrix is stored as the
    symmetric ``(n, n)`` array ``_a``; equal matrices hash alike.
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
        rows, cols = np.array(list(vals)).T - 1
        self.__dict__.update(values=MappingProxyType(vals), _a=np.zeros((self.n, self.n)))
        self._a[rows, cols] = self._a[cols, rows] = list(vals.values())

    @classmethod
    def _from_array(cls, pattern, a):
        """The partial matrix of a finite symmetric array, zero off ``pattern``, unchecked."""
        pm = object.__new__(cls)
        pm.__dict__.update(pattern=pattern, _a=a)
        return pm

    def __getattr__(self, name):
        """``values`` of a matrix built from an array, derived once."""
        if name != "values":
            raise AttributeError(name)
        flat, keys = _upper(self.pattern._mask)
        self.__dict__["values"] = MappingProxyType(dict(zip(keys, self._a.ravel()[flat].tolist())))
        return self.values

    def __hash__(self):
        return hash((self.pattern, (self._a + 0.0).tobytes()))  # + 0.0 turns -0.0 into 0.0

    def __getstate__(self):  # the read-only ``values`` view does not pickle; it is derived again
        return {"pattern": self.pattern, "_a": self._a}

    @property
    def n(self):
        return self.pattern.n

    def entry(self, i, j):
        return self.values[_normalize_edge(i, j)]

    def to_dense(self, fill=0.0):
        """Dense symmetric array with ``fill`` at unspecified positions."""
        return np.where(self.pattern._mask, self._a, fill)


def _entrywise(pattern, op, *args):
    """The partial matrix of ``op(*args)`` on ``pattern``, which rejects an
    overflow as the dict constructor rejects a non-finite value."""
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.where(pattern._mask, op(*args), 0.0)
    if not np.isfinite(a).all():  # the first in row-major order lies in the upper triangle
        i, j = np.argwhere(~np.isfinite(a))[0].tolist()
        raise ValueError(f"non-finite value {a[i, j]} at position {(i + 1, j + 1)}")
    return PartialMatrix._from_array(pattern, a)


def project(m, pattern):
    """Keep the entries of a full symmetric matrix at a pattern's
    specified positions (the upper triangle's, signed zeros included)."""
    m = as_sym_matrix(m)
    if m.shape[0] != pattern.n:
        raise DimensionMismatch(
            f"matrix of dimension {m.shape[0]} vs pattern on {pattern.n} vertices"
        )
    m = np.where(np.tri(pattern.n, k=-1, dtype=bool), m.T, m)
    return PartialMatrix._from_array(pattern, np.where(pattern._mask, m, 0.0))


def agrees(m, pm, tol=1e-8):
    """True iff ``m`` is symmetric and matches ``pm`` on every specified
    position within ``tol``."""
    _require_tol(tol)
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] != pm.n:
        raise DimensionMismatch(f"matrix of dimension {m.shape[0]} vs partial matrix of {pm.n}")
    if not np.array_equal(m, m.T):
        return False
    with np.errstate(over="ignore"):
        return bool(np.all(np.abs(m - pm._a)[pm.pattern._mask] <= tol))


def _clique_blocks(a, cliques):
    """A list of ``(rows, blocks)``, one per clique size: the positions in ``cliques``
    (0-based) of the cliques of that size, and their blocks of the dense ``a`` as one stack."""
    sizes = np.array([len(c) for c in cliques])
    groups = [np.flatnonzero(sizes == size) for size in set(sizes.tolist())]
    idx = [np.array([cliques[r] for r in rows]) for rows in groups]
    return [(rows, a[i[:, :, None], i[:, None, :]]) for rows, i in zip(groups, idx)]


def is_partial_pd(pm, tol=DEFAULT_TOL):
    """True iff every maximal-clique principal submatrix is positive
    definite.  Checking maximal cliques suffices because cliques nest."""
    return not offending_cliques(pm, tol)


def offending_cliques(pm, tol=DEFAULT_TOL):
    """Maximal cliques whose principal submatrix fails to be positive definite (diagnostic
    companion to :func:`is_partial_pd`), in the order of :func:`maximal_cliques`: the blocks
    that ``linalg._pd_test`` refuses, one stacked Cholesky per clique size."""
    cliques = pm.pattern._clique_sequence
    refused = [r for rows, blocks in _clique_blocks(pm._a, cliques)
               for r in rows[~linalg._pd_test(blocks, tol)]]
    return sorted(tuple(v + 1 for v in cliques[r]) for r in refused)


def _require_partial_pd(pm, tol):
    """Raise :class:`NotPartialPD` naming the first of :func:`offending_cliques` and the
    lambda_min of its block (``linalg._spectrum``), the one eigensolve, taken on failure only."""
    bad = offending_cliques(pm, tol)
    if bad:
        idx = np.array(bad[0]) - 1
        w, e = linalg._spectrum(pm._a[np.ix_(idx, idx)])
        names, lam_min = ", ".join(map(str, bad[0])), np.ldexp(w[0], e)
        raise NotPartialPD(f"not partial PD: clique {{{names}}} has lambda_min = {lam_min:.3e}")


def _require_same_pattern(a, b):
    if a.pattern != b.pattern:
        raise PatternMismatch("operands must share the same pattern")


def add(a, b):
    """Entrywise sum on the shared pattern."""
    _require_same_pattern(a, b)
    return _entrywise(a.pattern, np.add, a._a, b._a)


def scale(alpha, a):
    """Entrywise scalar multiple; the pattern is unchanged."""
    return _entrywise(a.pattern, np.multiply, float(alpha), a._a)


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
    semidefinite, each clique's eigenvalues at tolerance ``DEFAULT_TOL`` times the largest
    ``|entry|`` of that clique's blocks in ``a`` and ``b`` (so ``c a`` against ``c b``, ``c > 0``,
    gets the verdict of ``a`` against ``b``).  ``EQ`` requires the difference to be
    identically zero; strict verdicts take precedence.  Per clique size it takes one stacked
    eigensolve of the difference's blocks and one stacked max of the scale's blocks.
    """
    diff = sub(a, b).to_dense()  # sub rejects another pattern and an overflow
    if not diff.any():
        return Comparison.EQ
    cliques = a.pattern._clique_sequence
    big = np.maximum(np.abs(a._a), np.abs(b._a))
    holds = np.ones(4, dtype=bool)  # GT, LT, GE, LE: diff or -diff definite, then semidefinite
    for (_, blocks), (_, bigs) in zip(_clique_blocks(diff, cliques), _clique_blocks(big, cliques)):
        w, e = linalg._spectrum(blocks)
        scale = np.ldexp(bigs.max(axis=(1, 2)), -e)  # in w's units 2**e
        holds &= [_definite(spectra, DEFAULT_TOL, semi, scale).all()
                  for semi in (False, True) for spectra in (w, -w[:, ::-1])]
    verdicts = (Comparison.GT, Comparison.LT, Comparison.GE, Comparison.LE)
    return next((v for v, h in zip(verdicts, holds) if h), Comparison.INCOMPARABLE)
