"""Geometric means on the positive definite cone.

The weighted two-variable geometric mean

    A #_t B = A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}

is the point at parameter ``t`` on the unique Riemannian geodesic from A
to B.  This module provides the mean (on single matrices or stacks), a
numerical checker for its classical property suite, means of finite
sample sets, the maximum-determinant representative of means of partial
matrices, the sweep of ``A(x) #_t B(y)`` over the feasible fills of two
missing entries, the Karcher mean (one period of the weighted inductive
mean as the start point, then a fixed-point iteration with the
Bini-Iannazzo step size until the gradient certificate holds), the
arithmetic-harmonic iteration, and the log-determinant and entropy
identities for Gaussian covariances, with the trace integral in closed form.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .completion import CompletionReport, _entry_bounds, max_det_completion
from .errors import DimensionMismatch, PgmError, TooManyMissing
from .linalg import (
    DEFAULT_TOL,
    _definite,
    _dense,
    _DeterminantFromLog,
    _eigh,
    _from_spectrum,
    _pd_stack,
    _require,
    fro_norm,
    invm,
    is_pd,
    is_psd,
    log_det,
    mat_fn,
    op_norm,
    powm,
    riemannian_dist,
    sym,
)
from .partial import _require_partial_pd
from .pattern import missing_positions


def geomean(a, b, t=0.5, tol=DEFAULT_TOL):
    """Weighted geometric mean ``A #_t B``.

    ``t = 0`` returns A, ``t = 1`` returns B, and ``t = 1/2`` is the
    geodesic midpoint.  Values of ``t`` outside [0, 1] extend the
    geodesic and are computed with a warning; the property guarantees
    hold only on [0, 1].  On stacks ``(..., n, n)`` the means are taken
    pairwise, with the leading dimensions broadcast (one A against a
    stack of B, or the reverse).  Both pass :func:`~pgm.linalg._dense`, then a PD
    check; one ``eigh(A)`` gives A's PD check and ``A^{+-1/2}``, and the mean
    itself is :func:`_geomean_core`, one more eigensolve.
    """
    _warn_off_geodesic(t)
    a, b = _dense(a), _dense(b)
    lead = zip(a.shape[-3::-1], b.shape[-3::-1])
    if a.shape[-2:] != b.shape[-2:] or any(p != q and 1 not in (p, q) for p, q in lead):
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    w, q = _eigh(a)
    rs, ris = _sqrt_pair(_require(w, "pd", tol), q)
    _require(_eigh(b, vectors=False), "pd", tol)
    return _geomean_core(rs, ris, b, t)


def _warn_off_geodesic(t):
    """Raise ValueError if ``t`` is not finite.  If it lies outside [0, 1], warn at
    the line that called the public entry calling this, unless that line is in this
    module: an entry warns once per call, and the means it takes stay silent."""
    if not math.isfinite(t):
        raise ValueError(f"geomean parameter t must be finite, got {t}")
    if not 0.0 <= t <= 1.0 and sys._getframe(2).f_globals["__name__"] != __name__:
        message = f"geomean parameter t = {t} lies outside [0, 1]; extending the geodesic"
        warnings.warn(message, stacklevel=3)


def _geomean_core(rs, ris, b, t):
    """``A #_t B`` from ``A^{1/2}``, ``A^{-1/2}`` and ``B``, unchecked: the caller
    has PD-tested A and B.  One eigensolve, of ``A^{-1/2} B A^{-1/2}``; stacks
    broadcast as in :func:`geomean`."""
    v, u = _eigh(sym(ris @ b @ ris))
    return sym(rs @ _from_spectrum(v**t, u) @ rs)


def _sqrt_pair(w, q):
    """``(A^{1/2}, A^{-1/2})`` from the spectrum ``(w, q)`` of a PD matrix A."""
    root = np.sqrt(w)
    return _from_spectrum(root, q), _from_spectrum(1.0 / root, q)


@dataclass(frozen=True)
class GeomeanPropertyReport:
    """Boolean outcome of each classical geometric-mean property."""

    commuting_power_law: bool
    scalar_homogeneity: bool
    reversal: bool
    monotonicity: bool
    continuity_lipschitz: bool
    congruence_invariance: bool
    joint_concavity: bool
    inversion: bool
    determinant_identity: bool
    agm_sandwich: bool

    @property
    def all_hold(self):
        return all(getattr(self, f.name) for f in fields(self))


def _close(x, y, rtol):
    return fro_norm(x - y) <= rtol * max(1.0, fro_norm(x), fro_norm(y))


def _psd_geq(x, y, rtol):
    """x >= y up to an eigenvalue slack of rtol * scale."""
    d = sym(x - y)
    scale = max(1.0, op_norm(x), op_norm(y))
    return float(_eigh(d, vectors=False)[0]) >= -rtol * scale


def geomean_properties_check(a, b, c, d, t, lam, s, rtol=1e-8):
    """Numerically verify the classical geometric-mean property suite.

    Parameters
    ----------
    a, b, c, d : positive definite matrices of a common dimension.
    t, lam : floats in [0, 1]; ``lam`` doubles as the second geodesic
        parameter in the continuity bound and as the convex weight in
        joint concavity.
    s : invertible matrix for the congruence check.
    rtol : relative tolerance of every comparison; semidefiniteness
        checks allow an eigenvalue slack of ``rtol * scale``, and the
        log-determinants an absolute gap of ``rtol``.

    Returns
    -------
    GeomeanPropertyReport
        One boolean per property:

        1.  commuting pairs reduce to ``A^{1-t} B^t``
        2.  ``(aA) #_t (bB) = a^{1-t} b^t (A #_t B)``
        3.  reversal ``A #_t B = B #_{1-t} A``
        4.  monotonicity in both arguments
        5.  geodesic-parameter Lipschitz continuity bound
        6.  congruence invariance ``S^T (A #_t B) S``
        7.  joint concavity
        8.  inversion ``(A #_t B)^{-1} = A^{-1} #_t B^{-1}``
        9.  ``log det(A #_t B) = (1-t) log det A + t log det B``
        10. harmonic/arithmetic sandwich
    """
    _warn_off_geodesic(t)
    _warn_off_geodesic(lam)
    a, b, c, d = _pd_stack((a, b, c, d))
    g_ab = geomean(a, b, t)

    commuting_partner = sym(a @ a) + np.eye(a.shape[0])
    p1 = _close(
        geomean(a, commuting_partner, t),
        sym(powm(a, 1.0 - t) @ powm(commuting_partner, t)),
        rtol,
    )

    alpha, beta = 1.0 + lam, 2.0 - lam
    p2 = _close(
        geomean(alpha * a, beta * b, t),
        alpha ** (1.0 - t) * beta**t * g_ab,
        rtol,
    )

    p3 = _close(g_ab, geomean(b, a, 1.0 - t), rtol)

    p4 = _psd_geq(geomean(a + c, b + d, t), g_ab, rtol)

    lhs = riemannian_dist(geomean(a, b, lam), geomean(c, d, t))
    bound = (
        abs(lam - t) * riemannian_dist(a, b)
        + (1.0 - t) * riemannian_dist(a, c)
        + t * riemannian_dist(b, d)
    )
    p5 = lhs <= bound + rtol * max(1.0, bound)

    p6 = _close(
        sym(s.T @ g_ab @ s),
        geomean(sym(s.T @ a @ s), sym(s.T @ b @ s), t),
        rtol,
    )

    p7 = _psd_geq(
        geomean((1.0 - lam) * a + lam * b, (1.0 - lam) * c + lam * d, t),
        (1.0 - lam) * geomean(a, c, t) + lam * geomean(b, d, t),
        rtol,
    )

    p8 = _close(invm(g_ab), geomean(invm(a), invm(b), t), rtol)

    ld_g, ld_a, ld_b = log_det(np.stack((g_ab, a, b)))
    p9 = bool(abs(ld_g - ((1.0 - t) * ld_a + t * ld_b)) <= rtol)

    harmonic = invm((1.0 - t) * invm(a) + t * invm(b))
    arithmetic = (1.0 - t) * a + t * b
    p10 = _psd_geq(g_ab, harmonic, rtol) and _psd_geq(arithmetic, g_ab, rtol)

    return GeomeanPropertyReport(
        commuting_power_law=p1,
        scalar_homogeneity=p2,
        reversal=p3,
        monotonicity=p4,
        continuity_lipschitz=p5,
        congruence_invariance=p6,
        joint_concavity=p7,
        inversion=p8,
        determinant_identity=p9,
        agm_sandwich=p10,
    )


@dataclass(frozen=True)
class SampleSet:
    """Non-empty finite set of positive definite matrices of one shape, checked as one stack."""

    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(_pd_stack(self.members)))

    def __len__(self):
        return len(self.members)

    def scale(self, alpha):
        """Memberwise positive scalar multiple."""
        if not 0 < alpha < math.inf:  # NaN fails every comparison
            raise ValueError(f"scale factor must be positive and finite, got {alpha!r}")
        return SampleSet(tuple(alpha * m for m in self.members))

    def inverse(self):
        """Memberwise inverse."""
        return SampleSet(tuple(invm(m) for m in self.members))


def set_geomean(s, t_set, t=0.5):
    """All pairwise weighted geometric means of two sample sets.

    Duplicates (Frobenius distance <= 1e-12) are removed, so the result
    has at most ``len(s) * len(t_set)`` members.
    """
    _warn_off_geodesic(t)
    out = []
    for x in s.members:
        for y in t_set.members:
            g = geomean(x, y, t)
            if all(fro_norm(g - kept) > 1e-12 for kept in out):
                out.append(g)
    return SampleSet(tuple(out))


def block_max_property(a, b):
    """Check that ``A # B`` is the largest symmetric block completing
    ``[[A, X], [X, B]]`` to a positive semidefinite matrix.

    Verifies the block matrix is PSD (relative tolerance 1e-8) at ``X = A # B``
    and stops being PSD once ``X`` is pushed by ``1e-6 ||X||`` along the identity.
    """
    x = geomean(a, b, 0.5)
    bumped = x + 1e-6 * op_norm(x) * np.eye(a.shape[0])
    return is_psd(sym(np.block([[a, x], [x, b]])), 1e-8) and not is_psd(
        sym(np.block([[a, bumped], [bumped, b]])), 1e-8
    )


@dataclass
class PartialGeomeanResult(_DeterminantFromLog):
    """Maximum-determinant representative of the mean of two partial
    matrices: the weighted mean of their max-det completions, with its
    ``log_determinant`` (one ``slogdet``); ``determinant`` is its exp, read only."""

    matrix: np.ndarray
    log_determinant: float
    t: float
    completion_a: CompletionReport
    completion_b: CompletionReport


def partial_geomean_maxdet(pa, pb, t=0.5):
    """Mean of two partial PD matrices through their max-det completions.

    Among all pairwise means of completions, the mean of the two
    maximum-determinant completions uniquely maximizes the determinant,
    which then equals ``det(Ahat)^{1-t} det(Bhat)^t``.  A completion that
    did not converge raises :class:`InternalNumerics`.
    """
    if pa.n != pb.n:
        raise DimensionMismatch(f"dimension mismatch: {pa.n} vs {pb.n}")
    _warn_off_geodesic(t)  # before completing
    rep_a = max_det_completion(pa).require_converged()
    rep_b = max_det_completion(pb).require_converged()
    m = geomean(rep_a.matrix, rep_b.matrix, t)
    return PartialGeomeanResult(
        matrix=m, log_determinant=float(np.linalg.slogdet(m)[1]), t=t,
        completion_a=rep_a, completion_b=rep_b,
    )


def _shrunk_axis(bounds):
    lo, hi = bounds
    width = hi - lo
    return lo + 1e-6 * width, hi - 1e-6 * width


def partial_geomean_sweep(pa, pb, grid, t, tol):
    """``A(x) #_t B(y)`` over the box of feasible fills, ``grid`` points per axis: rows
    ``(x, y, det, eig_1..eig_n)``, eigenvalues descending, x-major, as one
    ``(grid**2, n + 3)`` array; a cell whose pair is not PD at ``tol`` holds NaNs.

    Either each input carries one missing entry (x sweeps the first, y
    the second), or one input carries both and the other is complete.
    A, then B, is proved partial PD once at ``tol``; the box is the
    :func:`~pgm.completion.partial_entry_bounds` of each entry, not proved again.
    Each distinct filled matrix is PD-tested once at ``tol``: the input
    without x once for the grid, the input with x once per x-row, each
    held as a stack along y if it holds y.  A's test is one ``eigh``,
    which also gives ``A^{+-1/2}`` of its PD members, so the mean of each
    row is the unchecked :func:`_geomean_core` (a stack of one
    broadcasts), then one det and one eigvalsh.  A cell thus costs two
    eigensolves with one missing entry per input, three with both in one.
    """
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
    # ops[k] is input k on the current x-row: a stack along y if it holds y, else a stack of one
    ops = [np.tile(a, (grid if ky == k else 1, 1, 1)) for k, a in enumerate(dense)]
    (i, j), (p, q) = pos_x, pos_y
    ops[ky][:, p - 1, q - 1] = ops[ky][:, q - 1, p - 1] = ys
    table = np.full((grid, grid, pa.n + 3), np.nan)
    table[..., 0] = xs[:, None]
    table[..., 1] = ys
    for r, x in enumerate(xs):
        ops[kx][:, i - 1, j - 1] = ops[kx][:, j - 1, i - 1] = x
        if kx == 0 or r == 0:  # A holds x, or this is the first row
            w, v = _eigh(ops[0])
            ok_a = _definite(w, tol)
            roots = _sqrt_pair(w[ok_a], v[ok_a])  # A's PD members: keep's cells if any
        if kx == 1 or r == 0:  # B holds x, or this is the first row
            ok_b = is_pd(ops[1], tol)
        keep = ok_a & ok_b
        if keep.any():
            m = _geomean_core(*roots, ops[1] if len(ops[1]) == 1 else ops[1][keep], t)
            table[r, keep, 2] = np.linalg.det(m)
            table[r, keep, 3:] = _eigh(m, vectors=False)[:, ::-1]
    return table.reshape(grid * grid, -1)


@dataclass(frozen=True)
class WeightVector:
    """Positive finite weights summing to one."""

    weights: tuple

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        if not w or not all(0.0 < x < math.inf for x in w):
            raise ValueError(f"weights must be positive and finite, got {w}")
        if abs(sum(w) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {sum(w)!r}")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, n):
        if n < 1:
            raise ValueError(f"uniform weights need at least one weight, got n = {n!r}")
        return cls(weights=(1.0 / n,) * n)

    def __len__(self):
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)


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

        X <- X^{1/2} exp(theta G) X^{1/2},
        G = sum_i w_i log(M_i),   M_i = X^{-1/2} A_i X^{-1/2},

    runs until the gradient certificate ``||G||_F`` drops below ``tol``
    or ``max_steps`` steps are spent.  The spectra of the ``M_i`` give G
    and the step of Bini and Iannazzo (LAA 2013), ``theta = 2 / sum_i
    w_i (c_i + 1)/(c_i - 1) log c_i`` with ``c_i = cond(M_i)`` (a term is
    2 at ``c_i = 1``); a unit step can diverge on widely spread inputs.

    The inputs are checked by one stacked eigensolve, and the iteration
    runs on that stack.  Returns a :class:`KarcherResult`; ``converged``
    is False when the step budget was exhausted first.
    """
    if not (isinstance(max_steps, (int, np.integer)) and max_steps >= 0):
        raise ValueError(f"max_steps must be an integer >= 0, got {max_steps!r}")
    if not 0.0 <= tol < np.inf:  # NaN fails every comparison
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    if not isinstance(weights, WeightVector):
        weights = WeightVector(weights=tuple(weights))
    stack = _pd_stack(mats)
    if len(weights) != len(stack):
        raise ValueError(f"{len(weights)} weights for {len(stack)} matrices")
    w = np.asarray(weights.weights)

    partial_sums = np.cumsum(w)
    x = stack[0]
    for j in range(1, len(stack)):
        x = geomean(stack[j], x, partial_sums[j - 1] / partial_sums[j])

    for steps in range(max_steps + 1):
        x_w, x_q = _eigh(x)
        rs, ris = _sqrt_pair(_require(x_w, "pd", DEFAULT_TOL), x_q)
        lam, vec = _eigh(sym(ris @ stack @ ris))
        lam = _require(lam, "pd", DEFAULT_TOL)
        grad = sym(np.tensordot(w, _from_spectrum(np.log(lam), vec), axes=1))
        gnorm = fro_norm(grad)
        if gnorm <= tol or steps == max_steps:
            break
        cond = lam[:, -1] / lam[:, 0]
        ratio = np.divide(np.log(cond), cond - 1.0, out=np.ones_like(cond), where=cond > 1.0)
        theta = 2.0 / float(w @ ((cond + 1.0) * ratio))
        x = sym(rs @ mat_fn(theta * grad, np.exp) @ rs)
    return KarcherResult(
        matrix=x,
        steps=len(stack) - 1 + steps,
        gradient_norm=gnorm,
        converged=bool(gnorm <= tol),
    )


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

    Both sequences converge monotonically to the geometric mean; the
    iteration stops when ``||A_k - B_k||_F <= 1e-12 ||B_k||_F``, or after
    100 steps unconverged, and returns the arithmetic midpoint of the final pair.
    """
    lower, upper = _pd_stack((a, b))
    lowers, uppers = [], []
    converged = False
    for iterations in range(1, 101):
        harmonic = invm(0.5 * (invm(lower) + invm(upper)))
        arithmetic = sym(0.5 * (lower + upper))
        lower, upper = harmonic, arithmetic
        lowers.append(lower)
        uppers.append(upper)
        if fro_norm(lower - upper) <= 1e-12 * fro_norm(upper):
            converged = True
            break
    mid = sym(0.5 * (lower + upper))
    return AgmResult(
        matrix=mid,
        iterations=iterations,
        converged=converged,
        lower_iterates=lowers,
        upper_iterates=uppers,
    )


def _trace_integral(a0, a1):
    """The integral over [0, 1] of tr(A(lambda)^{-1} (A1 - A0)), A(lambda) = (1 - lambda) A0 +
    lambda A1, in closed form: with nu in (-2, 2) the spectrum of M^{-1/2} (A1 - A0) M^{-1/2},
    M = A(1/2), the integrand is sum_i nu_i / (1 + (lambda - 1/2) nu_i), whose integral is
    sum_i log1p(nu_i / 2) - log1p(-nu_i / 2); per pair of a stack."""
    ris = _sqrt_pair(*_eigh(np.add(a0, a1) / 2.0))[1]
    nu = _eigh(sym(ris @ np.subtract(a1, a0) @ ris), vectors=False)
    integral = (np.log1p(nu / 2.0) - np.log1p(-nu / 2.0)).sum(axis=-1)
    return float(integral) if integral.ndim == 0 else integral


def det_integral_identity(a0, a1):
    """Integral representation of a determinant ratio, in the log domain.

    Along the segment ``A(lambda) = (1-lambda) A0 + lambda A1`` (inside
    the PD cone by convexity),

        log det(A1) - log det(A0) = integral_0^1 tr(A(lambda)^{-1} (A1-A0)) dlambda.

    Returns ``(lhs, rhs)`` = (the log-determinant difference, from one stacked
    eigensolve of the pair, and the integral, in closed form from one spectrum).
    """
    pair = _pd_stack((a0, a1))
    ld0, ld1 = log_det(pair)
    return float(ld1 - ld0), _trace_integral(*pair)


def gaussian_entropy(sigma):
    """Shannon entropy of a zero-mean Gaussian with covariance ``sigma``, admitted by
    ``linalg._dense`` through ``log_det``: ``log(det sigma)/2 + n (1 + log 2 pi)/2``,
    per matrix of a stack."""
    return 0.5 * log_det(sigma) + 0.5 * np.shape(sigma)[-1] * (1.0 + math.log(2.0 * math.pi))


@dataclass(frozen=True)
class EntropyIdentities:
    """Two entropy identities for Gaussian covariances.

    The entropy difference equals half the trace integral along the
    segment between the covariances, and the entropy of the geodesic
    point interpolates the endpoint entropies linearly.
    """

    entropy_diff: float
    entropy_diff_integral: float
    entropy_geomean: float
    entropy_interpolated: float


def entropy_identities(sigma0, sigma1, t=0.5):
    """Evaluate both Gaussian entropy identities for a covariance pair, as ``_dense`` admits it."""
    sigma0, sigma1 = _dense(sigma0), _dense(sigma1)
    h0 = gaussian_entropy(sigma0)
    h1 = gaussian_entropy(sigma1)
    _warn_off_geodesic(t)
    h_mean = gaussian_entropy(geomean(sigma0, sigma1, t))  # geomean rejects unequal shapes
    integral = 0.5 * _trace_integral(sigma0, sigma1)
    return EntropyIdentities(
        entropy_diff=h1 - h0,
        entropy_diff_integral=integral,
        entropy_geomean=h_mean,
        entropy_interpolated=(1.0 - t) * h0 + t * h1,
    )
