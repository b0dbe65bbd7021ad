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

with A, B the leading/trailing principal blocks, the determinant is the
parabola det H(x) = d_max (1 - ((x - c) / h)^2) with c = v^T C^{-1} w,
h = sqrt(det A det B) / det C and d_max = h^2 det C.  So H(x) > 0 exactly
for |x - c| < h, and x = c + h sqrt(1 - k / d_max) has determinant k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalNumerics,
    NotCompletable,
    NotPartialPD,
    OutOfRange,
)
from .linalg import DEFAULT_TOL, _definite, _dense, _DeterminantFromLog, _eigh, is_pd, sym
from .partial import _require_partial_pd
from .pattern import (
    Pattern,
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


@dataclass
class CompletionReport(_DeterminantFromLog):
    """Result of a completion run.

    ``residual`` is the largest absolute inverse entry over unspecified
    positions (zero there certifies the maximum-determinant completion);
    ``converged`` records whether the residual dropped below tolerance
    relative to ``||M^{-1}||`` within the cycle budget; ``iterations``
    counts sweeps over the maximal cliques (0 for a complete pattern, 1
    for a chordal one).  ``log_determinant`` is NaN if ``matrix`` is not
    positive definite; the derived ``determinant`` is its exp, read only.
    """

    matrix: np.ndarray
    log_determinant: float
    iterations: int
    residual: float
    converged: bool

    def require_converged(self):
        """This report if it converged, else :class:`InternalNumerics` naming the residual
        and the sweep count; callers that use ``matrix`` as the max-det completion call it."""
        if not self.converged:
            message = f"max-det completion did not converge: residual {self.residual:.6g}"
            raise InternalNumerics(f"{message} after {self.iterations} sweeps")
        return self


def single_entry_interval(m, i, j, tol=DEFAULT_TOL):
    """Feasibility interval for one free position of a full matrix.

    All entries of ``m`` (admitted by ``linalg._dense``, 2-D only) but position
    ``(i, j)`` are fixed.  Raises :class:`NotPartialPD` when either bordered principal
    block is not positive definite (no PD completion exists in that coordinate).
    """
    m = _dense(m)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    i0, j0 = i - 1, j - 1
    if not (0 <= i0 < n and 0 <= j0 < n) or i0 == j0:
        raise ValueError(f"position ({i}, {j}) is not an off-diagonal position")
    order = [i0] + [k for k in range(n) if k != i0 and k != j0] + [j0]
    mp = m[np.ix_(order, order)]
    bordered = np.stack([mp[:-1, :-1], mp[1:, 1:]])
    if not is_pd(bordered, tol).all():
        raise NotPartialPD(
            f"no positive definite completion in position ({i}, {j}): "
            "a bordered principal block is not positive definite"
        )
    c_blk = mp[1:-1, 1:-1]
    center = float(mp[1:-1, 0] @ np.linalg.solve(c_blk, mp[1:-1, -1]))
    ld_c = np.linalg.slogdet(c_blk)[1]
    ld_a, ld_b = np.linalg.slogdet(bordered)[1]
    half = float(np.exp(0.5 * (ld_a + ld_b) - ld_c))
    return FeasibilityInterval(position=(min(i, j), max(i, j)), center=center, half_width=half)


def max_det_completion(pm, tol=1e-10, max_cycles=500):
    """Maximum-determinant positive definite completion.

    Sweeps the clique update of the module docstring over the maximal
    cliques, in perfect-sequence order when the pattern is chordal, so
    that chordal patterns finish after one sweep.  After each sweep the
    specified entries are written back into a copy of the iterate, which
    is returned once it is positive definite and its inverse vanishes
    (relative to ``||M^{-1}|| = 1 / lambda_min``) at every unspecified
    position; one spectrum of the iterate gives both tests.  When the
    iterate's inverse ``K`` instead certifies that no positive definite
    completion exists (``sum_E K_ij A_ij <= 0``), :class:`NotCompletable`
    is raised.

    Parameters
    ----------
    pm : PartialMatrix, partial positive definite, else :class:`NotPartialPD`
        names the first offending maximal clique and its lambda_min.
    tol : float
        Convergence tolerance on the inverse-zero certificate, finite and ``>= 0``.
    max_cycles : int
        Sweep budget, at least 1; exceeding it returns the last iterate,
        with the specified entries written back, and ``converged=False``.
    """
    if not (isinstance(max_cycles, (int, np.integer)) and max_cycles >= 1):
        raise ValueError(f"max_cycles must be an integer >= 1, got {max_cycles!r}")
    if not 0.0 <= tol < np.inf:  # NaN fails every comparison
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    cliques = [list(c) for c in pm.pattern._clique_sequence]
    a, spec = pm.to_dense(), pm.pattern._mask
    _require_partial_pd(a, cliques, DEFAULT_TOL)
    if pm.pattern.is_complete:
        return CompletionReport(
            matrix=sym(a), log_determinant=float(np.linalg.slogdet(a)[1]),
            iterations=0, residual=0.0, converged=True,
        )
    index = [np.ix_(c, c) for c in cliques]
    blocks = [a[ix] for ix in index]
    m = np.diag(np.diag(a))
    converged = False
    for cycles in range(1, max_cycles + 1):
        for c, ix, block in zip(cliques, index, blocks):
            m_cc = m[ix]
            w = np.linalg.solve(m_cc, m[c])
            m += w.T @ (block - m_cc) @ w
        x = np.where(spec, a, sym(m))
        residual = np.abs(np.linalg.inv(x)[~spec]).max()
        lam = _eigh(x, vectors=False)
        if _definite(lam, DEFAULT_TOL) and residual * lam[0] <= tol:
            converged = True
            break
        k = np.where(spec, np.linalg.inv(m), 0.0)
        trace_ka = float(np.sum(k * a))
        if trace_ka <= 0.0 and _definite(_eigh(k, vectors=False), DEFAULT_TOL):
            raise NotCompletable(
                "no positive definite completion exists: K = M^-1 is positive definite "
                f"and supported on the pattern, yet sum_E K_ij A_ij = {trace_ka:.3g} <= 0, "
                "while tr(K X) > 0 for every positive definite X"
            )
    return CompletionReport(  # lam: the spectrum of x
        matrix=x, log_determinant=float(np.log(lam).sum()) if lam[0] > 0 else np.nan,
        iterations=cycles, residual=float(residual), converged=converged,
    )


def feasibility_range(pm):
    """Feasibility interval of the unique missing entry.

    The endpoints give singular positive semidefinite completions; the
    center gives the maximum-determinant completion.
    """
    missing = missing_positions(pm.pattern)
    if len(missing) != 1:
        raise ValueError(
            f"feasibility_range needs exactly one missing entry, found {len(missing)}"
        )
    i, j = missing[0]
    return single_entry_interval(pm.to_dense(0.0), i, j)


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


def completion_with_det(pm, k):
    """A positive definite completion with determinant ``k``.

    Valid targets are ``0 < k < d_max = det(Ahat)``, ``Ahat`` the max-det
    completion.  The result is ``Ahat`` with its first missing entry set on
    the parabola of the module docstring, whose log height starts at
    ``Ahat``'s ``log_determinant``.  While the measured ``d`` (one ``slogdet``)
    misses ``|d - k| <= 1e-8 * k``, ``log d - log k`` is added to the log height
    (the parabola with the same roots through the measured point) and the
    entry set again, three times at most; then :class:`InternalNumerics` is
    raised.  Double precision certifies the target down to about ``k / d_max = 1e-7``.
    A max-det completion that did not converge raises :class:`InternalNumerics`.
    """
    report = max_det_completion(pm).require_converged()
    d_max = report.determinant
    if not 0.0 < k < d_max:
        raise OutOfRange(f"target determinant must lie in (0, {d_max:.6g}), got {k:.6g}")
    missing = missing_positions(pm.pattern)
    if not missing:
        raise OutOfRange("a complete matrix admits only its own determinant")
    m = report.matrix.copy()
    i, j = missing[0]
    iv = single_entry_interval(m, i, j)
    log_k, height = np.log(k), report.log_determinant  # height: the parabola's, logged
    for _ in range(4):
        root = np.sqrt(-np.expm1(log_k - height))  # sqrt(1 - k / exp(height))
        m[i - 1, j - 1] = m[j - 1, i - 1] = iv.center + iv.half_width * root
        sign, log_d = np.linalg.slogdet(m)
        if sign <= 0.0:
            break
        if abs(np.expm1(log_d - log_k)) <= 1e-8:
            return m
        height += log_d - log_k  # the parabola through (x, d) with the same roots
    raise InternalNumerics(f"completion det {sign:g}*exp({log_d:.6g}) misses the target {k:.6g}")
