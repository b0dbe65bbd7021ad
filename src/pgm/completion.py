"""Maximum-determinant positive definite completion.

The maximum-determinant completion of a partial positive definite matrix
``A`` is the unique completion whose inverse vanishes at every
unspecified position.  It is reached by block coordinate ascent on the
covariance over the maximal cliques of the pattern (iterative
proportional scaling, Speed and Kiiveri 1986): starting from
``M = diag(A)``, each clique ``C`` in turn gets

    M <- M + M[:, C] M_CC^{-1} (A_CC - M_CC) M_CC^{-1} M[C, :],

which sets ``M_CC = A_CC``, keeps ``M`` positive definite and adds
``A_CC^{-1} - M_CC^{-1}`` to ``M^{-1}`` on the clique block, so the
inverse stays supported on the pattern.  On a chordal pattern one sweep
over the cliques in perfect-sequence order is the closed form of Grone,
Johnson, Sa and Wolkowicz (1984).

Two certificates end the iteration: the inverse-zero residual of the
completion (it is the maximum-determinant one), or a positive definite
``K = M^{-1}`` supported on the pattern with ``sum_E K_ij A_ij <= 0``
(no positive definite completion exists, since ``tr(K X) > 0`` for every
``X > 0``).

The single-entry subproblem also has a closed form: permuting a
symmetric matrix so the free position lands at the corner,

    H(x) = [[a, v^T, x],
            [v, C,   w],
            [x, w^T, b]],

the completions H(x) > 0 are exactly |x - v^T C^{-1} w| <
sqrt(det A det B) / det C with A, B the leading/trailing principal
blocks, and x = v^T C^{-1} w maximizes the determinant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalNumerics,
    NotCompletable,
    NotPartialPD,
    OutOfRange,
    PatternMismatch,
)
from .linalg import DEFAULT_TOL, det, is_pd, op_norm, sym
from .partial import restrict
from .pattern import (
    Pattern,
    connected_components,
    maximal_cliques,
    missing_positions,
)


@dataclass(frozen=True)
class FeasibilityInterval:
    """Open interval of values keeping a single-entry completion PD.

    The interval is ``(center - half_width, center + half_width)`` with
    ``center = v^T C^{-1} w`` (the maximum-determinant value) and
    ``half_width = sqrt(det A det B) / det C``.
    """

    position: tuple
    center: float
    half_width: float

    @property
    def lower(self):
        return self.center - self.half_width

    @property
    def upper(self):
        return self.center + self.half_width

    def contains(self, x):
        return self.lower < x < self.upper


@dataclass
class CompletionReport:
    """Result of a completion run.

    ``residual`` is the largest absolute inverse entry over unspecified
    positions (zero there certifies the maximum-determinant completion);
    ``converged`` records whether the residual dropped below tolerance
    relative to ``||M^{-1}||`` within the cycle budget; ``iterations``
    counts sweeps over the maximal cliques (0 for a complete pattern, 1
    for a chordal one).
    """

    matrix: np.ndarray
    determinant: float
    iterations: int
    residual: float
    converged: bool


def _corner_permutation(n, i0, j0):
    """Permutation matrix sending row/col i0 -> 0 and j0 -> n-1."""
    order = [i0] + [k for k in range(n) if k != i0 and k != j0] + [j0]
    p = np.zeros((n, n))
    p[np.arange(n), order] = 1.0
    return p


def single_entry_interval(m, i, j, tol=DEFAULT_TOL):
    """Feasibility interval for one free position of a full matrix.

    All entries of ``m`` except position ``(i, j)`` are taken as fixed.
    Raises :class:`NotPartialPD` when either bordered principal block is
    not positive definite (no PD completion exists in that coordinate).
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    i0, j0 = i - 1, j - 1
    if not (0 <= i0 < n and 0 <= j0 < n) or i0 == j0:
        raise ValueError(f"position ({i}, {j}) is not an off-diagonal position")
    p = _corner_permutation(n, i0, j0)
    mp = p @ m @ p.T
    a_blk = mp[:-1, :-1]
    b_blk = mp[1:, 1:]
    if not is_pd(a_blk, tol) or not is_pd(b_blk, tol):
        raise NotPartialPD(
            f"no positive definite completion in position ({i}, {j}): "
            "a bordered principal block is not positive definite"
        )
    c_blk = mp[1:-1, 1:-1]
    v = mp[1:-1, 0]
    w = mp[1:-1, -1]
    if c_blk.size == 0:
        center = 0.0
        ld_c = 0.0
    else:
        center = float(v @ np.linalg.solve(c_blk, w))
        ld_c = np.linalg.slogdet(c_blk)[1]
    ld_a = np.linalg.slogdet(a_blk)[1]
    ld_b = np.linalg.slogdet(b_blk)[1]
    half = float(np.exp(0.5 * (ld_a + ld_b) - ld_c))
    return FeasibilityInterval(position=(min(i, j), max(i, j)), center=center, half_width=half)


def max_det_completion(pm, tol=1e-10, max_cycles=500, pd_tol=DEFAULT_TOL):
    """Maximum-determinant positive definite completion.

    Sweeps the clique update of the module docstring over the maximal
    cliques, in perfect-sequence order when the pattern is chordal, so
    that chordal patterns finish after one sweep.  After each sweep the
    specified entries are written back into a copy of the iterate, which
    is returned once its inverse vanishes (relative to ``||M^{-1}||``) at
    every unspecified position and it is positive definite.  When the
    iterate's inverse ``K`` instead certifies that no positive definite
    completion exists (``sum_E K_ij A_ij <= 0``), :class:`NotCompletable`
    is raised.

    Parameters
    ----------
    pm : PartialMatrix, partial positive definite.
    tol : float
        Convergence tolerance on the inverse-zero certificate.
    max_cycles : int
        Sweep budget; exceeding it returns the last iterate, with the
        specified entries written back, and ``converged=False``.
    pd_tol : float
        Tolerance of the positive definiteness tests.
    """
    cliques = [list(c) for c in pm.pattern._clique_sequence]
    a = pm.to_dense(np.nan)
    spec = np.isfinite(a)
    a[~spec] = 0.0
    blocks = [a[np.ix_(c, c)] for c in cliques]
    if not all(is_pd(block, pd_tol) for block in blocks):
        raise NotPartialPD("input is not partial positive definite")
    if pm.pattern.is_complete:
        return CompletionReport(
            matrix=sym(a), determinant=det(a), iterations=0, residual=0.0, converged=True
        )
    m = np.diag(np.diag(a))
    x, residual, converged, cycles = a, np.inf, False, 0
    for cycles in range(1, max_cycles + 1):
        for c, block in zip(cliques, blocks):
            m_cc = m[np.ix_(c, c)]
            w = np.linalg.solve(m_cc, m[c])
            m += w.T @ (block - m_cc) @ w
        x = np.where(spec, a, sym(m))
        inv = np.linalg.inv(x)
        residual = np.abs(inv[~spec]).max()
        if residual <= tol * op_norm(inv) and is_pd(x, pd_tol):
            converged = True
            break
        k = np.where(spec, np.linalg.inv(m), 0.0)
        trace_ka = float(np.sum(k * a))
        if trace_ka <= 0.0 and is_pd(k, pd_tol):
            raise NotCompletable(
                "no positive definite completion exists: K = M^-1 is positive definite "
                f"and supported on the pattern, yet sum_E K_ij A_ij = {trace_ka:.3g} <= 0, "
                "while tr(K X) > 0 for every positive definite X"
            )
    return CompletionReport(
        matrix=x,
        determinant=det(x),
        iterations=cycles,
        residual=float(residual),
        converged=converged,
    )


def feasibility_range(pm, pos=None, tol=DEFAULT_TOL):
    """Feasibility interval of the unique missing entry.

    The endpoints give singular positive semidefinite completions; the
    center gives the maximum-determinant completion.
    """
    missing = missing_positions(pm.pattern)
    if len(missing) != 1:
        raise ValueError(
            f"feasibility_range needs exactly one missing entry, found {len(missing)}"
        )
    if pos is not None and tuple(sorted(pos)) != missing[0]:
        raise ValueError(f"position {pos} is not the missing entry {missing[0]}")
    i, j = missing[0]
    return single_entry_interval(pm.to_dense(0.0), i, j, tol)


def partial_entry_bounds(pm, pos, tol=DEFAULT_TOL):
    """Values at one missing position keeping the partial matrix
    partial PD (other positions may stay missing).

    Intersects the single-entry intervals of every maximal-clique block
    that would contain the new entry.  Returns an ``(lower, upper)``
    pair; for a matrix whose only missing entry is ``pos`` this equals
    the full feasibility interval.
    """
    i, j = sorted(pos)
    if (i, j) in pm.pattern.edges:
        raise ValueError(f"position ({i}, {j}) is already specified")
    extended = Pattern(n=pm.n, edges=frozenset(pm.pattern.edges | {(i, j)}))
    dense = pm.to_dense(0.0)
    lo, hi = -np.inf, np.inf
    for clique in maximal_cliques(extended):
        if i not in clique or j not in clique:
            continue
        idx = [v - 1 for v in clique]
        sub = dense[np.ix_(idx, idx)]
        iv = single_entry_interval(sub, clique.index(i) + 1, clique.index(j) + 1, tol)
        lo = max(lo, iv.lower)
        hi = min(hi, iv.upper)
    if not lo < hi:
        raise NotPartialPD(f"no value at ({i}, {j}) keeps the matrix partial PD")
    return float(lo), float(hi)


def completion_with_det(pm, k, rel_tol=1e-8, tol=1e-10):
    """A positive definite completion with determinant ``k``.

    Valid targets are ``0 < k < det(max-det completion)``.  The matrix is
    found by bisecting the segment from the maximum-determinant
    completion toward a singular boundary completion; the determinant is
    monotone along it, and the result satisfies ``|det - k| <= rel_tol*k``.
    """
    report = max_det_completion(pm, tol=tol)
    d_max = report.determinant
    if not 0.0 < k < d_max:
        raise OutOfRange(f"target determinant must lie in (0, {d_max:.6g}), got {k:.6g}")
    missing = missing_positions(pm.pattern)
    if not missing:
        raise OutOfRange("a complete matrix admits only its own determinant")
    ahat = report.matrix
    i, j = missing[0]
    iv = single_entry_interval(ahat, i, j)
    boundary = ahat.copy()
    boundary[i - 1, j - 1] = boundary[j - 1, i - 1] = iv.upper
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        m = (1.0 - mid) * ahat + mid * boundary
        d = det(m)
        if abs(d - k) <= rel_tol * k:
            return sym(m)
        if d > k:
            lo = mid
        else:
            hi = mid
    raise InternalNumerics("determinant bisection did not reach the requested target")


def fischer_bound(pm, tol=1e-10):
    """Determinant bound for block-decomposable patterns.

    For a pattern splitting into components with every cross entry
    missing, no completion determinant exceeds the product of the
    components' maximum completion determinants, with equality exactly
    at zero cross blocks.  Returns that product.
    """
    comps = connected_components(pm.pattern)
    if len(comps) < 2:
        raise PatternMismatch(
            "pattern has no fully-missing off-diagonal block to split on"
        )
    bound = 1.0
    for comp in comps:
        bound *= max_det_completion(restrict(pm, comp), tol=tol).determinant
    return bound
