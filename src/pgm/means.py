"""Geometric means on the positive definite cone.

The weighted two-variable geometric mean

    A #_t B = A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2} = L (L^-1 B L^-T)^t L^T,   A = L L^T,

is the point at parameter ``t`` on the unique Riemannian geodesic from A to B; by
congruence invariance any factor L serves, and every congruence here takes the Cholesky
factor.  This module computes means and nothing else: the mean (on single matrices or
stacks), the means of two finite sets (plain sequences of matrices), the
maximum-determinant representative of means of partial matrices, the sweep of
``A(x) #_t B(y)`` over the feasible fills of two missing entries, the Karcher mean (one
period of the weighted inductive mean as the start point, then a fixed-point iteration
with the Bini-Iannazzo step size until the gradient certificate holds), the
arithmetic-harmonic iteration, and the entropy identities for Gaussian covariances (half
the log-determinant identity), with the trace integral in closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .completion import CompletionReport, _entry_bounds, _run, max_det_completion
from .errors import DimensionMismatch, InternalNumerics, PgmError, TooManyMissing
from .linalg import (
    DEFAULT_TOL,
    _dense,
    _DeterminantFromLog,
    _eigh,
    _factor,
    _from_spectrum,
    _kernels,
    _log_det,
    _pd_factor,
    _pd_test,
    _pd_stack,
    _require_pd,
    _require_tol,
    _solve,
    _whiten,
    fro_norm,
    sym,
)
from .partial import _require_partial_pd
from .pattern import _is_count, missing_positions


def geomean(a, b, t=0.5, tol=DEFAULT_TOL):
    """Weighted geometric mean ``A #_t B``.

    ``t = 0`` returns A, ``t = 1`` returns B, and ``t = 1/2`` is the
    geodesic midpoint.  Values of ``t`` outside [0, 1] extend the
    geodesic and are computed with a warning; the property guarantees
    hold only on [0, 1].  On stacks ``(..., n, n)`` the means are taken
    pairwise, with the leading dimensions broadcast (one A against a
    stack of B, or the reverse).  The warning comes from here, once per call, whoever
    wraps this function.  Both operands pass ``linalg._dense``, then ``linalg._require_pd``,
    and the mean is :func:`_geomean_core` on the factor that proved A, one eigensolve.
    """
    _warn_off_geodesic(t)
    a, b = _dense(a), _dense(b)
    _require_pair(a, b)
    l = _require_pd(a, tol)
    _require_pd(b, tol)
    return _geomean_core(l, b, t)


def _require_pair(a, b):
    """:class:`DimensionMismatch` unless the matrices, or stacks, ``a`` and ``b`` broadcast."""
    lead = zip(a.shape[-3::-1], b.shape[-3::-1])
    if a.shape[-2:] != b.shape[-2:] or any(p != q and 1 not in (p, q) for p, q in lead):
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")


def _warn_off_geodesic(t):
    """Raise ValueError if ``t`` is not finite.  If it lies outside [0, 1], warn at the line
    that called the public entry calling this: each entry calls it once per parameter, and
    the means it takes go through the core, which never warns."""
    if not math.isfinite(t):
        raise ValueError(f"geomean parameter t must be finite, got {t}")
    if not 0.0 <= t <= 1.0:
        message = f"geomean parameter t = {t} lies outside [0, 1]; extending the geodesic"
        warnings.warn(message, stacklevel=3)


def _geomean_core(l, b, t):
    """``A #_t B = L (L^-1 B L^-T)^t L^T``, ``A = L L^T``, for A and B PD-tested by the caller,
    broadcast as in :func:`geomean`: one eigensolve, its spectra checked by :func:`_positive`."""
    m, _, v = _geomean_cells(l, b, t)
    _positive(v)
    return m


def _positive(v):
    """``v``, ascending spectra of matrices built from PD-tested ones (``L^-1 B L^-T``), if
    positive and finite (no PD margin), else InternalNumerics: overflow, round-off."""
    if not np.isfinite(v).all():
        raise InternalNumerics("eigenvalues past the largest double")
    if not (v[..., 0] > 0).all():
        raise InternalNumerics("a matrix built from PD inputs has an eigenvalue <= 0: round-off at "
                               "the PD boundary")
    return v


def _harmonic(a, b, t):
    """``((1-t) A^-1 + t B^-1)^-1 = M - t(1-t) Z^T Z``, ``M = (1-t)A + tB``, ``Z = L^-1 (A - B)``,
    ``L L^T = tA + (1-t)B``: one Cholesky, one solve, no eigensolve; exactly M if ``A == B``."""
    l = _factor(t * a + (1.0 - t) * b)
    with _kernels():
        z = _solve(l, a - b)
    return sym((1.0 - t) * a + t * b - t * (1.0 - t) * (z.swapaxes(-1, -2) @ z))


def _geomean_cells(l, b, t):
    """:func:`_geomean_core`'s means, the mask ``ok`` of those whose spectrum ``v`` of ``L^-1 B
    L^-T`` is positive and finite (the others, round-off at the PD boundary under a tol near 0,
    come back NaN), and ``v``; an overflow of a mean in ``ok`` raises InternalNumerics."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        v, u = _eigh(_whiten(l, b))
        ok = (v[..., 0] > 0) & (v[..., -1] < np.inf)  # ascending; NaN fails both
        m = _from_spectrum(np.where(ok[..., None], v**t, np.nan), l @ u)  # L U diag(v^t) U^T L^T
    if (np.isfinite(m).all(axis=(-2, -1)) != ok).any():
        raise InternalNumerics("eigenvalues past the largest double")
    return m, ok, v


def _close(x, y, rtol):
    """x == y up to rtol times the larger Frobenius norm, all taken in units of the power of two
    at the largest entry (exact), so that no square overflows or underflows."""
    x, y = np.ldexp((x, y), -np.frexp(np.abs((x, y)).max())[1])
    return fro_norm(x - y) <= rtol * max(fro_norm(x), fro_norm(y))


def set_geomean(s, t_set, t=0.5):
    """All pairwise weighted geometric means of two finite sets of PD matrices, as a tuple.

    ``s`` and ``t_set`` are non-empty sequences (or stacks) of matrices of one shape.  Each is
    proved PD once by one ``_pd_stack``, and the means are one broadcast :func:`_geomean_core`
    on the factors of ``s``, so each is :func:`geomean`'s, bit for bit; a mean passes no PD
    door.  Duplicates (Frobenius distance <= 1e-12 times the larger norm) are removed, so the
    result has at most ``len(s) * len(t_set)`` members.
    """
    _warn_off_geodesic(t)
    (xs, l), ys = _pd_stack(s), _pd_stack(t_set)[0]
    _require_pair(xs[0], ys[0])
    out = []
    for g in _geomean_core(l[:, None], ys, t).reshape(-1, *ys.shape[1:]):
        if not any(_close(g, kept, 1e-12) for kept in out):
            out.append(g)
    return tuple(out)


@dataclass
class PartialGeomeanResult(_DeterminantFromLog):
    """Maximum-determinant representative of the mean of two partial
    matrices: the weighted mean of their max-det completions, with its
    ``log_determinant`` (off its Cholesky factor); ``determinant`` is its exp, read only."""

    matrix: np.ndarray
    log_determinant: float
    t: float
    completion_a: CompletionReport
    completion_b: CompletionReport


def partial_geomean_maxdet(pa, pb, t=0.5):
    """Mean of two partial PD matrices through their max-det completions.

    Among all pairwise means of completions, the mean of the two
    maximum-determinant completions uniquely maximizes the determinant,
    which then equals ``det(Ahat)^{1-t} det(Bhat)^t``.  A completion that did not
    converge raises :class:`InternalNumerics`; a converged one is certified PD, so the mean
    is :func:`geomean`'s, bit for bit, with ``Ahat`` factored and neither eigensolved again."""
    if pa.n != pb.n:
        raise DimensionMismatch(f"dimension mismatch: {pa.n} vs {pb.n}")
    _warn_off_geodesic(t)  # before completing
    rep_a = max_det_completion(pa).require_converged()
    rep_b = max_det_completion(pb).require_converged()
    m = _geomean_core(_factor(rep_a.matrix), rep_b.matrix, t)
    return PartialGeomeanResult(
        matrix=m, log_determinant=_log_det(_factor(m)), t=t,
        completion_a=rep_a, completion_b=rep_b,
    )


#: Entries of one float stack of a sweep block, 2^16 (512 KB): a block holds as many x-rows as
#: keep a stack of its cells' matrices near this size, at least one, so memory is O(grid n^2).
_SWEEP_BLOCK = 2**16


def _shrunk_axis(bounds):
    lo, hi = bounds
    width = hi - lo
    return lo + 1e-6 * width, hi - 1e-6 * width


def partial_geomean_sweep(pa, pb, grid, t, tol):
    """``A(x) #_t B(y)`` over the box of feasible fills, ``grid`` points per axis: rows ``(x, y,
    det, eig_1..eig_n)``, eigenvalues descending and ``det`` their product in that order,
    x-major, as one ``(grid**2, n + 3)`` array; a cell whose pair is not PD at ``tol`` holds NaNs.

    Either each input carries one missing entry (x sweeps the first, y the second), or one
    input carries both and the other is complete.  A, then B, is proved partial PD once at
    ``tol``; the box is the :func:`~pgm.completion.partial_entry_bounds` of each entry, not
    proved again.  The grid runs in blocks of x-rows (``_SWEEP_BLOCK``).  The congruence base is
    the input with no y (B if A holds both entries: ``B #_{1-t} A``), factored by ``_pd_factor``
    once per block if it holds x, else once; the other's members get ``_pd_test`` verdicts only.
    A block is one :func:`_geomean_cells` on the base's factors and one eigvalsh per PD cell.
    """
    if not _is_count(grid):
        raise ValueError(f"grid must be an integer, got {grid!r}")
    if grid < 2:
        raise PgmError(f"grid must be at least 2, got {grid}")
    if pa.n != pb.n:
        raise DimensionMismatch(f"dimension mismatch: {pa.n} vs {pb.n}")
    pms = (pa, pb)
    slots = [(k, pos) for k, pm in enumerate(pms) for pos in missing_positions(pm.pattern)]
    if len(slots) > 2:
        raise TooManyMissing(f"sweep supports at most 2 missing entries, found {len(slots)}")
    if len(slots) < 2:
        raise PgmError("sweep needs exactly two missing entries across the inputs")
    _warn_off_geodesic(t)
    dense = [_dense(pm.to_dense()) for pm in pms]
    for pm in pms:
        _require_partial_pd(pm, tol)

    (kx, pos_x), (ky, pos_y) = slots
    xs = np.linspace(*_shrunk_axis(_entry_bounds(pms[kx], *pos_x, tol)), grid)
    ys = np.linspace(*_shrunk_axis(_entry_bounds(pms[ky], *pos_y, tol)), grid)
    # ops[k] is input k on a block: (rows along x if it holds x, columns along y if it does y, n, n)
    ops = [np.tile(a, (1, grid if ky == k else 1, 1, 1)) for k, a in enumerate(dense)]
    (i, j), (p, q) = pos_x, pos_y
    ops[ky][..., p - 1, q - 1] = ops[ky][..., q - 1, p - 1] = ys
    table = np.full((grid, grid, pa.n + 3), np.nan)
    table[..., 0] = xs[:, None]
    table[..., 1] = ys
    rows = max(1, _SWEEP_BLOCK // (grid * pa.n**2))
    base, t = (0, t) if ky else (1, 1 - t)  # the base holds no y; A #_t B = B #_{1-t} A
    for r in range(0, grid, rows):
        x = xs[r : r + rows, None]
        ops[kx] = np.repeat(ops[kx][:1], len(x), axis=0)  # this block's fills of the x input
        ops[kx][..., i - 1, j - 1] = ops[kx][..., j - 1, i - 1] = x
        if kx == base or r == 0:  # the base holds x, or this is the first block
            l = _pd_factor(ops[base], tol)
            ok_base = ~np.isnan(l[..., 0, 0])
        if kx == ky or r == 0:  # the other input holds x, or this is the first block
            ok_other = _pd_test(ops[ky], tol)
        keep = ok_base & ok_other
        if keep.any():  # every factor of the base meets every PD member of the other input
            m, ok, _ = _geomean_cells(l[ok_base][:, None], ops[ky][ok_other], t)
            keep[keep] = ok.ravel()
            table[r : r + rows][keep, 3:] = _eigh(m[ok], vectors=False)[:, ::-1]
    table[..., 2] = table[..., 3:].prod(axis=-1)
    return table.reshape(grid * grid, -1)


@dataclass
class KarcherResult:
    """Karcher mean estimate with its optimality certificate.

    ``gradient_norm`` is ``|| sum_i w_i log(X^{-1/2} A_i X^{-1/2}) ||_F``,
    which vanishes exactly at the minimizer of the weighted sum of
    squared Riemannian distances.  ``steps`` counts the geomean steps of
    the warm start and the fixed-point steps after it.
    """

    matrix: np.ndarray
    steps: int
    gradient_norm: float
    converged: bool


def karcher_mean(weights, mats, tol=1e-9, max_steps=200):
    """Weighted Karcher mean of positive definite matrices.

    The start point is one period of the weighted inductive mean: with
    ``s_j = w_1 + ... + w_j``,

        S_1 = A_1,   S_j = A_j #_{s_{j-1}/s_j} S_{j-1},   j = 2..k.

    From there the fixed-point iteration

        X <- L exp(theta G) L^T,
        G = sum_i w_i log(M_i),   M_i = L^{-1} A_i L^{-T},   X = L L^T (Cholesky),

    runs until the gradient certificate ``||G||_F`` drops below ``tol``
    or ``max_steps`` steps are spent (``L = X^{1/2} Q``, ``Q`` orthogonal, so ``X^{1/2}``
    gives the same iterates).  The spectra of the ``M_i`` give G and the step of Bini
    and Iannazzo (LAA 2013), ``theta = 2 / sum_i w_i (c_i + 1)/(c_i - 1) log c_i`` with
    ``c_i = cond(M_i)`` (2 at ``c_i = 1``); a unit step can diverge on spread inputs.

    ``weights`` is a plain sequence of one positive finite weight per matrix, summing to 1
    within 1e-12; a ValueError names the weights, or their sum or count, that break it.  One stacked
    :func:`~pgm.linalg._pd_factor` proves the inputs PD: the start point's means take
    :func:`_geomean_core` on its factors and their own means, and each step's spectra meet only
    :func:`_positive`, no PD margin.  ``converged`` is False if the step budget ran out first.
    """
    if not (_is_count(max_steps) and max_steps >= 0):
        raise ValueError(f"max_steps must be an integer >= 0, got {max_steps!r}")
    _require_tol(tol)
    w = tuple(float(x) for x in weights)
    if not w or not all(0.0 < x < math.inf for x in w):
        raise ValueError(f"weights must be positive and finite, got {w}")
    if abs(sum(w) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {sum(w)!r}")
    stack, factors = _pd_stack(mats)
    if len(w) != len(stack):
        raise ValueError(f"{len(w)} weights for {len(stack)} matrices")
    w = np.asarray(w)

    partial_sums = np.cumsum(w)
    x = stack[0]
    for j in range(1, len(stack)):
        x = _geomean_core(factors[j], x, partial_sums[j - 1] / partial_sums[j])

    converged, (x, gnorm), count = _run(_karcher(x, stack, w, tol), max_steps + 1)
    return KarcherResult(
        matrix=x,
        steps=len(stack) - 1 + count - 1,
        gradient_norm=gnorm,
        converged=bool(converged),
    )


def _karcher(x, stack, w, tol):
    """Steps of :func:`karcher_mean` from ``x``, each yielding ``(x, ||G||_F)`` before it moves."""
    while True:
        l = _factor(x)
        lam, vec = _eigh(_whiten(l, stack))
        grad = sym(np.tensordot(w, _from_spectrum(np.log(_positive(lam)), vec), axes=1))
        gnorm = fro_norm(grad)
        yield gnorm <= tol, (x, gnorm)
        cond = lam[:, -1] / lam[:, 0]
        ratio = np.divide(np.log(cond), cond - 1.0, out=np.ones_like(cond), where=cond > 1.0)
        theta = 2.0 / float(w @ ((cond + 1.0) * ratio))
        v, u = _eigh(theta * grad)
        x = _from_spectrum(np.exp(v), l @ u)  # L U exp(diag(v)) U^T L^T


@dataclass
class AgmResult:
    """Arithmetic-harmonic iteration output.

    ``lower_iterates``/``upper_iterates`` hold the harmonic and
    arithmetic sequences from the first computed pair onward; each lower
    iterate sits below ``A # B`` and each upper iterate above it in the
    Loewner order.
    """

    matrix: np.ndarray
    iterations: int
    converged: bool
    lower_iterates: list
    upper_iterates: list


def agm_iteration(a, b):
    """Arithmetic-harmonic mean iteration converging to ``A # B``.

        A_{k+1} = ((A_k^{-1} + B_k^{-1}) / 2)^{-1},
        B_{k+1} = (A_k + B_k) / 2.

    Both sequences converge monotonically to the geometric mean; the iteration stops when
    ``||A_k - B_k||_F <= 1e-12 ||B_k||_F`` (scale-free, :func:`_close`), or after 100 steps
    unconverged, and returns the arithmetic midpoint of the final pair.  The pair passes one PD
    proof; each step's harmonic mean is one :func:`_harmonic`: one Cholesky, exact on equal inputs.
    """
    converged, (lowers, uppers), iterations = _run(_agm(*_pd_stack((a, b))[0]), 100)
    return AgmResult(
        matrix=sym(0.5 * (lowers[-1] + uppers[-1])),
        iterations=iterations,
        converged=converged,
        lower_iterates=lowers,
        upper_iterates=uppers,
    )


def _agm(lower, upper):
    """Steps of :func:`agm_iteration`, each yielding its verdict and the iterates so far."""
    lowers, uppers = [], []
    while True:
        lower, upper = _harmonic(lower, upper, 0.5), sym(0.5 * (lower + upper))
        lowers.append(lower)
        uppers.append(upper)
        yield _close(lower, upper, 1e-12), (lowers, uppers)


def _trace_integral(a0, a1):
    """The integral over [0, 1] of tr(A(l)^{-1} (A1 - A0)), A(l) = (1 - l) A0 + l A1, in closed
    form: with M = A(1/2) = L L^T and nu in (-2, 2) the spectrum of L^{-1} (A1 - A0) L^{-T}, the
    integrand is sum_i nu_i / (1 + (l - 1/2) nu_i), whose integral is sum_i log1p(nu_i / 2) -
    log1p(-nu_i / 2), per pair of a stack.  A pair with ``max |nu| / 2 > 1 - 1e-3``, where
    ``1 -+ nu / 2`` loses digits, takes sum_i log eig(L^-1 A1 L^-T) - log eig(L^-1 A0 L^-T)."""
    l = _factor(np.divide(a0, 2.0) + np.divide(a1, 2.0))  # M cannot overflow
    nu = _eigh(_whiten(l, np.subtract(a1, a0)), vectors=False)
    wide = np.abs(nu).max(axis=-1) > 2.0 - 2e-3
    with np.errstate(divide="ignore", invalid="ignore"):  # only a wide pair's log1p(-+1) fails
        integral = (np.log1p(nu / 2.0) - np.log1p(-nu / 2.0)).sum(axis=-1)
    if wide.any():
        ends = _eigh(_whiten(l, np.stack(np.broadcast_arrays(a1, a0))), vectors=False)
        integral = np.where(wide, np.subtract(*np.log(ends).sum(axis=-1)), integral)
    return float(integral) if integral.ndim == 0 else integral


def gaussian_entropy(sigma):
    """Shannon entropy of a zero-mean Gaussian with covariance ``sigma``, per matrix of a stack,
    admitted by ``linalg._dense``: :func:`_entropy` of the factor of its ``linalg._require_pd``."""
    return _entropy(_require_pd(_dense(sigma), DEFAULT_TOL))


def _entropy(l):
    """``log(det sigma)/2 + n (1 + log 2 pi)/2`` from the Cholesky factor ``l`` of ``sigma``."""
    return 0.5 * _log_det(l) + 0.5 * l.shape[-1] * (1.0 + math.log(2.0 * math.pi))


@dataclass(frozen=True)
class EntropyIdentities:
    """Two entropy identities for Gaussian covariances.

    The entropy difference equals half the trace integral along the segment between the
    covariances (twice each is ``log det S1 - log det S0`` and its integral), and the
    entropy of the geodesic point interpolates the endpoint entropies linearly.
    """

    entropy_diff: float
    entropy_diff_integral: float
    entropy_geomean: float
    entropy_interpolated: float


def entropy_identities(sigma0, sigma1, t=0.5):
    """Both Gaussian entropy identities for a covariance pair, as ``_dense`` admits it: ``H0``
    and ``H1`` off the factors of one ``linalg._require_pd`` each, the mean off ``sigma0``'s,
    and the mean's entropy off its ``linalg._factor``, as a matrix built here is not admitted."""
    _warn_off_geodesic(t)
    sigma0, sigma1 = _dense(sigma0), _dense(sigma1)
    _require_pair(sigma0, sigma1)
    l0, l1 = _require_pd(sigma0, DEFAULT_TOL), _require_pd(sigma1, DEFAULT_TOL)
    h0, h1 = _entropy(l0), _entropy(l1)
    h_mean = _entropy(_factor(_geomean_core(l0, sigma1, t)))
    integral = 0.5 * _trace_integral(sigma0, sigma1)
    return EntropyIdentities(
        entropy_diff=h1 - h0,
        entropy_diff_integral=integral,
        entropy_geomean=h_mean,
        entropy_interpolated=(1.0 - t) * h0 + t * h1,
    )
