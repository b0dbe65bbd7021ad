"""Maximum-determinant positive definite completion.

The maximum-determinant completion of a partial positive definite matrix
``A`` is the unique completion whose inverse vanishes at every
unspecified position.  On a chordal pattern it has a closed form along a
perfect clique sequence (Dempster 1972; Grone, Johnson, Sa and Wolkowicz
1984), filled in one pass; its inverse is ``sum_j [A_CC^-1] - sum_j
[A_SS^-1]`` over the cliques ``C`` and their separators ``S``, padded.
Other patterns take one sweep of iterative proportional scaling (IPS; Speed
and Kiiveri 1986) from ``M = diag(A)``: each maximal clique ``C`` in turn gets

    M <- M + M[:, C] M_CC^{-1} (A_CC - M_CC) M_CC^{-1} M[C, :],

which sets ``M_CC = A_CC`` and keeps ``M`` positive definite and ``M^{-1}``
supported on the pattern.  Newton's method then minimizes the dual
``-log det K + sum_E K_ij A_ij`` over PD ``K`` supported on the pattern from
``K = M^{-1}`` (Dempster 1972; Boyd and Vandenberghe 2004, 9.5) unless its step
costs far more than a sweep; IPS sweeps go on where it stalls or does not run.
A PD ``K`` with ``sum_E K_ij A_ij <= 0`` rules out every PD completion ``X``: ``tr(K X) > 0``.

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

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InternalNumerics,
    NotCompletable,
    NotPartialPD,
    OutOfRange,
)
from .linalg import (DEFAULT_TOL, _cholesky, _definite, _dense, _DeterminantFromLog, _eigh, _inv,
                     _kernels, _log_det, _pd_factor, _pd_test, _require_tol, _solve, sym)
from .partial import _require_partial_pd
from .pattern import (
    Pattern,
    _is_count,
    _position,
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
    is 1 for a chordal pattern (a complete one included) and else counts IPS
    sweeps and Newton steps.  ``log_determinant`` is NaN if ``matrix`` is not
    positive definite; the derived ``determinant`` is its exp, read only.
    """

    matrix: np.ndarray
    log_determinant: float
    iterations: int
    residual: float
    converged: bool

    def require_converged(self):
        """This report if it converged, else :class:`InternalNumerics` naming the residual
        and the iteration count; callers that use ``matrix`` as the max-det completion call it."""
        if not self.converged:
            message = f"max-det completion did not converge: residual {self.residual:.6g}"
            raise InternalNumerics(f"{message} after {self.iterations} iterations")
        return self


def single_entry_interval(m, i, j, tol=DEFAULT_TOL):
    """Feasibility interval for one free position of a full matrix, with the ``center`` and
    ``half_width`` that :func:`partial_entry_bounds` leaves out; its position is plain ints.

    All entries of ``m`` (admitted by ``linalg._dense``, 2-D only) but position ``(i, j)`` are
    fixed.  One ``linalg._pd_factor`` of the two bordered principal blocks proves them PD at
    ``tol``, else raises :class:`NotPartialPD` (no PD completion in that coordinate), and gives
    the three log-determinants: ``det C`` is that of the second factor's leading block.
    """
    m = _dense(m, stack=False)
    i, j = _position(i, j)
    if not 1 <= i < j <= len(m):
        raise ValueError(f"position ({i}, {j}) is not an off-diagonal position")
    order = [i - 1] + [k for k in range(len(m)) if k not in (i - 1, j - 1)] + [j - 1]
    mp = m[np.ix_(order, order)]
    l = _pd_factor(np.stack([mp[:-1, :-1], mp[1:, 1:]]), tol)
    if np.isnan(l[:, 0, 0]).any():
        raise NotPartialPD(
            f"no positive definite completion in position ({i}, {j}): "
            "a bordered principal block is not positive definite"
        )
    with _kernels():
        center = float(mp[1:-1, 0] @ _solve(mp[1:-1, 1:-1], mp[1:-1, -1]))
    ld_a, ld_b = _log_det(l)
    half = float(np.exp(0.5 * (ld_a + ld_b) - _log_det(l[1, :-1, :-1])))
    return FeasibilityInterval(position=(i, j), center=center, half_width=half)


def max_det_completion(pm, tol=1e-10, max_cycles=500):
    """Maximum-determinant positive definite completion.

    The input is completed scaled by the power of two that brings its largest entry into
    [1, 2), then scaled back.  The path is picked once: a chordal pattern takes the closed
    form of the module docstring (``iterations == 1``; a complete one returns its matrix as
    given), any other one IPS sweep, then Newton on the dual if ``p^3 <= 16 n^2 sum_C |C|``
    (an O(p^3) step, ``p`` the upper pattern positions, against an O(n^2 sum_C |C|) sweep),
    then IPS sweeps, until :func:`_certify` reports convergence.  A certificate that no PD
    completion exists (module docstring) raises :class:`NotCompletable`.

    Parameters
    ----------
    pm : PartialMatrix, partial positive definite, else :class:`NotPartialPD`
        names the first offending maximal clique and its lambda_min.
    tol : float
        Convergence tolerance on the inverse-zero certificate, finite and ``>= 0``.
    max_cycles : int
        Budget of IPS sweeps and Newton steps, at least 1; exceeding it returns the
        last iterate, with the specified entries written back, and ``converged=False``.
    """
    if not (_is_count(max_cycles) and max_cycles >= 1):
        raise ValueError(f"max_cycles must be an integer >= 1, got {max_cycles!r}")
    _require_tol(tol)
    _require_partial_pd(pm, DEFAULT_TOL)
    cliques = [list(c) for c in pm.pattern._clique_sequence]
    spec, e = pm.pattern._mask, np.frexp(np.abs(pm._a).max())[1] - 1
    a = np.ldexp(pm.to_dense(), -e)
    visit, _, separators = pm.pattern._mcs
    if separators is not None:
        report = _certify(_closed_form(a, visit, cliques, separators), a, spec, tol)
    else:
        # each clique's index array and block index, built once for every sweep
        steps = [(c, ix, a[ix]) for c in map(np.array, cliques) for ix in [(c[:, None], c)]]
        # p^3 / (n^2 sum |C|): 4 on a ring, under 7 on a grid, O(n^3) on a near-complete pattern
        p = (np.count_nonzero(spec) + pm.n) // 2
        newton = p ** 3 <= 16 * pm.n ** 2 * sum(map(len, cliques))
        _, build, count = _run(_ips(np.diag(np.diag(a)), steps, a, spec, tol, newton), max_cycles)
        report = replace(build(), iterations=count)
    report.matrix = np.ldexp(report.matrix, e)
    report.residual = float(np.ldexp(report.residual, -e))
    report.log_determinant = float(report.log_determinant + pm.n * e * np.log(2.0))
    return report


def _run(steps, budget):
    """``(done, result, count)`` of the first done step of ``steps``, else of step ``budget``."""
    for count, (done, result) in enumerate(steps, 1):
        if done or count == budget:
            return done, result, count


def _ips(m, steps, a, spec, tol, newton):
    """IPS sweeps of ``m`` in place, each yielding a thunk of its report; ``K = M^-1`` on the
    pattern is refuted before a next step, and after the first, if ``newton``, Newton runs."""
    while True:
        with _kernels():
            for c, ix, block in steps:
                m_cc = m[ix]
                w = _solve(m_cc, m[c])
                m += w.T @ (block - m_cc) @ w
        report = _certify(sym(m), a, spec, tol)
        yield report.converged, lambda: report
        with _kernels():
            k = sym(np.where(spec, _inv(m), 0.0))
        _refute(k, a, "K = M^-1")
        if newton:
            newton, m = False, (yield from _newton(k, a, spec, tol))


def _refute(k, a, name):
    """:class:`NotCompletable` if ``k`` is positive definite and ``sum_E K_ij A_ij <= 0``."""
    trace_ka = float(np.sum(k * a))
    if trace_ka <= 0.0 and _pd_test(k, DEFAULT_TOL):
        raise NotCompletable(f"no positive definite completion exists: {name} is positive definite"
                             f" and supported on the pattern, yet sum_E K_ij A_ij = {trace_ka:.3g}"
                             " <= 0, while tr(K X) > 0 for every positive definite X")


def _newton(k, a, spec, tol):
    """Newton on the dual from ``k`` (``diag(1 / a_ii)`` if not PD) over ``K`` at the upper
    positions, weighted ``c_e`` (2 off the diagonal, 1 on it).  Steps halve from 1 until ``K``
    stays PD and, while the squared decrement is over 1e-2, Armijo (0.25) holds.  Each step
    yields the report of ``X = K^-1`` made lazy; a stall returns ``X`` to the sweeps."""
    i, j = np.nonzero(np.triu(spec))
    c, a_e, last = np.where(i == j, 1.0, 2.0), a[i, j], np.inf
    weight = np.outer(c, c / 2)  # the Hessian's, constant
    if np.isnan((chol := _cholesky(k))[0, 0]):
        k, chol = np.diag(1.0 / np.diag(a)), np.diag(np.diag(a) ** -0.5)
    while True:
        with _kernels():
            x = sym(_inv(k))  # the report of the step to k, if any: built once, if read
            report = functools.cache(functools.partial(_certify, x, a, spec, tol))
            r, xi, xj = c * (x[i, j] - a_e), x[i], x[j]  # minus the gradient
            try:  # the Hessian: gathers of rows, then columns, are 3x faster than np.ix_
                d = _solve(weight * (xi[:, i] * xj[:, j] + xi[:, j] * xj[:, i]), r)
            except np.linalg.LinAlgError:
                break
        decrement, direction = r @ d, np.zeros_like(k)
        direction[i, j] = direction[j, i] = d
        if decrement < 1e-6 and last < np.inf and (report().converged or decrement >= last):
            break  # certified; skipping the start's test costs at most one step
        value = np.sum(k * a) - _log_det(chol)
        for s in 0.5 ** np.arange(40):
            if np.isnan((chol := _cholesky(trial := k + s * direction))[0, 0]):
                continue
            objective = np.sum(trial * a) - _log_det(chol)
            if decrement <= 1e-2 or objective <= value - 0.25 * s * decrement:
                break
        else:
            break
        if last < np.inf:  # a step to k was taken
            yield False, report
        k, last = trial, decrement
        _refute(k, a, "K, a Newton iterate,")
    if last < np.inf:  # no step follows
        yield report().converged, report
    return x


def _certify(fill, a, spec, tol):
    """The report of the symmetric ``fill`` with the specified entries of ``a`` (largest in
    [1, 2)) written back: one ``inv`` gives the inverse-zero residual (0 with nothing
    unspecified), one ``eigvalsh`` the PD test, the convergence test ``residual * lambda_min
    <= tol`` and the log-determinant."""
    x = np.where(spec, a, fill)
    lam = _eigh(x, vectors=False)
    with _kernels():
        residual = np.abs(_inv(x)[~spec]).max() if not spec.all() else 0.0
    log_det = np.log(lam).sum() if lam[0] > 0 else np.nan
    return CompletionReport(
        matrix=x, log_determinant=float(log_det),
        iterations=1, residual=float(residual),  # an iteration's count is max_det_completion's
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
    with _kernels():
        for js in shapes.values():
            s = np.array([steps[j][0] for j in js])
            r = np.array([np.arange(*steps[j][1:]) for j in js])
            w.update(zip(js, _solve(x[s[..., None], s[:, None]], x[s[..., None], r[:, None]])))
    for j, (sp, start, end) in enumerate(steps):
        x[start:end, :start] = block = w[j].T @ x[sp, :start]
        x[:start, start:end] = block.T
    return x[np.ix_(pos, pos)]


def partial_entry_bounds(pm, pos, tol=DEFAULT_TOL):
    """Values at one missing position keeping the partial matrix partial PD (other
    positions may stay missing), as a ``(lower, upper)`` pair: the intersection of the
    single-entry intervals of every maximal-clique block that would contain the new
    entry, the full feasibility interval if ``pos`` is the only missing entry (its ``center``
    and ``half_width`` are those of ``single_entry_interval(pm.to_dense(), *pos)``).  An input
    that is not partial PD raises :class:`NotPartialPD` naming its first offending clique.
    """
    i, j = pos
    i, j = _position(i, j, "edge")
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
    ``Ahat``'s ``log_determinant``.  While the measured ``log d`` (off ``linalg._pd_factor`` at
    ``tol = 0``) misses ``|d - k| <= 1e-8 * k``, ``log d - log k`` is added to the log height
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
        log_d = _log_det(_pd_factor(m, 0.0))  # NaN if m is not PD
        if np.isnan(log_d):
            break
        if abs(np.expm1(log_d - log_k)) <= 1e-8:
            return m
        height += log_d - log_k  # the parabola through (x, d) with the same roots
    raise InternalNumerics(f"completion log det {log_d:.6g} misses the target log {log_k:.6g}")
