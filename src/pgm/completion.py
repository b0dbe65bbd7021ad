"""Maximum-determinant positive definite completion.

The maximum-determinant completion of a partial positive definite matrix
``A`` is the unique completion whose inverse vanishes at every
unspecified position.  On a chordal pattern it has a closed form along a
perfect clique sequence (Dempster 1972; Grone, Johnson, Sa and Wolkowicz
1984), filled in one pass; its inverse is ``sum_j [A_CC^-1] - sum_j
[A_SS^-1]`` over the cliques ``C`` and their separators ``S``, padded.
Other patterns take iterative proportional scaling (Speed and Kiiveri
1986): from ``M = diag(A)``, each maximal clique ``C`` in turn gets

    M <- M + M[:, C] M_CC^{-1} (A_CC - M_CC) M_CC^{-1} M[C, :],

which sets ``M_CC = A_CC`` and keeps ``M`` positive definite and ``M^{-1}``
supported on the pattern, until the inverse-zero residual is small or a
positive definite ``K = M^{-1}`` on the pattern has ``sum_E K_ij A_ij <= 0``
(no PD completion exists, since ``tr(K X) > 0`` for every ``X > 0``).

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

    The path is picked once: a complete pattern returns its matrix as given
    (``iterations == 0``), a chordal one the closed form of the module docstring
    (``iterations == 1``), any other sweeps of the clique update until
    :func:`_certify` reports convergence.  A sweep whose ``K`` certifies that no
    PD completion exists raises :class:`NotCompletable`.

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
    _require_partial_pd(pm, DEFAULT_TOL)
    cliques = [list(c) for c in pm.pattern._clique_sequence]
    a, spec = pm.to_dense(), pm.pattern._mask
    if pm.pattern.is_complete:
        return CompletionReport(
            matrix=a, log_determinant=float(np.linalg.slogdet(a)[1]),
            iterations=0, residual=0.0, converged=True,
        )
    _, visit, _, separators = pm.pattern._mcs
    if separators is not None:
        return _certify(_closed_form(a, visit, cliques, separators), a, spec, 1, tol)
    index = [np.ix_(c, c) for c in cliques]
    blocks = [a[ix] for ix in index]
    m = np.diag(np.diag(a))
    for cycles in range(1, max_cycles + 1):
        for c, ix, block in zip(cliques, index, blocks):
            m_cc = m[ix]
            w = np.linalg.solve(m_cc, m[c])
            m += w.T @ (block - m_cc) @ w
        report = _certify(sym(m), a, spec, cycles, tol)
        if report.converged:
            break
        k = np.where(spec, np.linalg.inv(m), 0.0)
        trace_ka = float(np.sum(k * a))
        if trace_ka <= 0.0 and _definite(_eigh(k, vectors=False), DEFAULT_TOL):
            raise NotCompletable(
                "no positive definite completion exists: K = M^-1 is positive definite "
                f"and supported on the pattern, yet sum_E K_ij A_ij = {trace_ka:.3g} <= 0, "
                "while tr(K X) > 0 for every positive definite X"
            )
    return report


def _certify(fill, a, spec, iterations, tol):
    """The report of the symmetric ``fill`` with the specified entries of ``a`` written back:
    one ``inv`` gives the inverse-zero residual, one spectrum the PD test, the convergence
    test ``residual * lambda_min <= tol`` and the log-determinant."""
    x = np.where(spec, a, fill)
    residual = np.abs(np.linalg.inv(x)[~spec]).max()
    lam = _eigh(x, vectors=False)
    return CompletionReport(
        matrix=x, log_determinant=float(np.log(lam).sum()) if lam[0] > 0 else np.nan,
        iterations=iterations, residual=float(residual),
        converged=bool(_definite(lam, DEFAULT_TOL) and residual * lam[0] <= tol),
    )


def _closed_form(a, visit, cliques, separators):
    """The max-det completion on a chordal pattern, exactly symmetric, along its perfect
    clique sequence in the search's ``visit`` order.  Clique ``C_j`` meets the earlier
    ones in ``S_j`` and adds ``R_j``, the vertices visited since ``C_{j-1}``; given
    ``S_j``, the completion makes ``R_j`` independent of the vertices ``U`` visited
    before: ``X_RU = W^T X_SU``, ``W = A_SS^-1 A_SR`` (0 if ``S_j`` is empty), one stacked
    ``solve`` per shape ``(|S|, |R|)``.  ``X_RS`` comes out as ``A_RS`` up to round-off."""
    pos = np.argsort(visit)
    x = a[np.ix_(visit, visit)]
    ends = np.cumsum([len(c) - len(s) for c, s in zip(cliques, separators)])
    steps = [(pos[list(s)], end - len(c) + len(s), end)
             for c, s, end in zip(cliques, separators, ends) if s]
    shapes, w = {}, {}
    for j, (sp, start, end) in enumerate(steps):
        shapes.setdefault((len(sp), end - start), []).append(j)
    for js in shapes.values():
        s = np.array([steps[j][0] for j in js])
        r = np.array([np.arange(*steps[j][1:]) for j in js])
        w.update(zip(js, np.linalg.solve(x[s[..., None], s[:, None]], x[s[..., None], r[:, None]])))
    for j, (sp, start, end) in enumerate(steps):
        x[start:end, :start] = block = w[j].T @ x[sp, :start]
        x[:start, start:end] = block.T
    return x[np.ix_(pos, pos)]


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
    """Values at one missing position keeping the partial matrix partial PD (other
    positions may stay missing), as a ``(lower, upper)`` pair: the intersection of the
    single-entry intervals of every maximal-clique block that would contain the new
    entry, the full feasibility interval if ``pos`` is the only missing entry.  An input
    that is not partial PD raises :class:`NotPartialPD` naming its first offending clique.
    """
    i, j = sorted(pos)
    if (i, j) in pm.pattern.edges:
        raise ValueError(f"position ({i}, {j}) is already specified")
    _require_partial_pd(pm, tol)
    return _entry_bounds(pm, i, j, tol)


def _entry_bounds(pm, i, j, tol):
    """:func:`partial_entry_bounds` at the missing ``(i, j)``, ``i < j``, of a ``pm`` that
    is already proved partial PD; :class:`NotPartialPD` if no value there keeps it so."""
    extended = Pattern(n=pm.n, edges=frozenset(pm.pattern.edges | {(i, j)}))
    ivs = [single_entry_interval(pm._a[np.ix_(c, c)], c.index(i - 1) + 1, c.index(j - 1) + 1, tol)
           for c in extended._clique_sequence if i - 1 in c and j - 1 in c]
    lo, hi = max(iv.lower for iv in ivs), min(iv.upper for iv in ivs)
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
