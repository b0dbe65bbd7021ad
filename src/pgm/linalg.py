"""Dense real symmetric matrix core.

Eigendecompositions (:func:`_eigh`, inverted by :func:`_from_spectrum`), PD proofs by Cholesky,
log-determinants off those factors (results derive their determinant from it, in one base class)
and norms, plus the Riemannian trace metric on the PD cone.  The means take their matrix functions
(powers, logarithms) on ``_eigh`` of matrices proved PD or built from such, past no door.
The metric alone uses ``scipy.linalg``, registered as a lazy module: its first call runs it.

All functions take and return plain ``numpy`` arrays.  Each one that runs a symmetric eigensolve
on its argument admits it through :func:`_dense`.  Every Cholesky, solve and inverse of ``pgm``
runs here, on numpy's LAPACK gufuncs bound once as ``_lapack``: :func:`_cholesky`, :func:`_factor`,
:func:`_solve`, :func:`_inv` and :func:`_whiten`.  ``_from_spectrum`` re-symmetrizes its output
so that downstream symmetry checks can be exact.  Eigensolves, PD tests, ``log_det`` and
``op_norm`` also take stacks ``(..., n, n)``, with one result per matrix.
"""

from __future__ import annotations

import importlib.util
import sys

import numpy as np
import scipy

from .errors import DimensionMismatch, InternalNumerics, NotPositiveDefinite

_lapack = np.linalg._umath_linalg
if "scipy.linalg" not in sys.modules:  # a lazy module: its code runs on its first attribute read
    _spec = importlib.util.find_spec("scipy.linalg")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules["scipy.linalg"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules["scipy.linalg"])

#: Default relative tolerance of every PD, PSD and symmetry test: a matrix counts as PD when
#: lambda_min > DEFAULT_TOL * ||A||_F, with no absolute unit, so ``c A`` gets the verdict of ``A``.
DEFAULT_TOL = 1e-10


def sym(a):
    """Symmetric part ``(a + a^T) / 2`` of a matrix or a stack of matrices."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def _dense(a):
    """``a`` as a float ``(..., n, n)`` array, checked finite: as it is if exactly symmetric,
    its :func:`sym` if ``max |a - a^T| <= DEFAULT_TOL * max |a|`` per matrix."""
    m = np.asarray(a, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    if (m == m.swapaxes(-1, -2)).all():
        return m
    skew = np.abs(m - m.swapaxes(-1, -2)).max(axis=(-2, -1))
    if (skew > DEFAULT_TOL * np.abs(m).max(axis=(-2, -1))).any():
        raise ValueError(f"matrix is not symmetric (max |a - a^T| = {skew.max():.3e})")
    return sym(m)


def as_sym_matrix(a):
    """Validate a dense real symmetric matrix.

    Parameters
    ----------
    a : array_like, shape (n, n)
        Square matrix with finite real entries.  Round-off asymmetry is
        averaged away; more raises ValueError (pass ``sym(a)`` to average
        any asymmetry).

    Returns
    -------
    ndarray of float, exactly symmetric, never ``a`` itself.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return _dense(m).copy()


def _eigh(a, vectors=True):
    """Ascending eigenvalues (and eigenvectors) of a symmetric matrix or
    a stack ``(..., n, n)``; a solver failure raises InternalNumerics."""
    try:
        return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise InternalNumerics(f"symmetric eigensolver failed: {exc}") from exc


def _spectrum(a):
    """Ascending eigenvalues of the finite symmetric ``a`` (or of each matrix of a stack) as
    ``(w, e)``, in units of ``2**e``: one eigensolve of ``2**-e a``, largest entry in [1, 2)."""
    e = np.frexp(np.abs(a).max(axis=(-2, -1)))[1] - 1
    return _eigh(np.ldexp(a, -e[..., None, None]), vectors=False), e


def _require_tol(tol):
    """The gate of every public tolerance: ValueError unless ``tol`` is finite and >= 0."""
    if not 0.0 <= tol < np.inf:  # NaN fails every comparison
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


def _definite(w, tol, semi=False, scale=None):
    """The PD (or, if ``semi``, PSD) test per ascending spectrum in ``w``: ``lambda_min`` against
    ``tol`` (:func:`_require_tol`) times ``scale``, by default ``||w||_2 = ||A||_F``, the rule of
    :func:`_pd_test`, on ``w`` scaled into [-1, 1] by a power of two, where no norm overflows."""
    _require_tol(tol)
    if scale is None:
        w = np.ldexp(w, -np.frexp(np.abs(w).max(axis=-1, keepdims=True))[1])
        scale = np.hypot.reduce(w, axis=-1)
    lam_min = w[..., 0]
    return lam_min >= -tol * scale if semi else lam_min > tol * scale


def _pd_stack(mats):
    """``(stack, factors)``: the ``k >= 1`` matrices ``mats``, each admitted by :func:`_dense`,
    as one ``(k, n, n)`` stack, checked 2-D and of one shape, and its :func:`_require_pd`."""
    stack = [_dense(m) for m in mats]
    if not stack:
        raise ValueError("expected at least one matrix")
    if len({m.shape for m in stack}) > 1:
        raise DimensionMismatch(f"shape mismatch: {' vs '.join(str(m.shape) for m in stack)}")
    stack = np.stack(stack)
    if stack.ndim != 3:
        raise DimensionMismatch(f"expected 2-D matrices, got shape {stack.shape[1:]}")
    return stack, _require_pd(stack, DEFAULT_TOL)


def _from_spectrum(w, q):
    """``Q diag(w) Q^T`` re-symmetrized, for one matrix or a stack."""
    return sym((q * w[..., None, :]) @ q.swapaxes(-1, -2))


def _pd_factor(a, tol):
    """The lower Cholesky factor of each matrix of the finite symmetric stack ``a`` that is PD
    at ``tol`` by :func:`_pd_test`, NaN for each other: a verdict-only caller takes the test."""
    return np.where(_pd_test(a, tol)[..., None, None], _cholesky(a), np.nan)


def _pd_test(a, tol):
    """True per matrix of the finite symmetric stack ``a`` that is PD at ``tol`` (see
    :func:`_require_tol`): the Cholesky of ``a - tol ||a||_F I`` succeeds, on ``a`` scaled by the
    power of two at its largest entry, so ``c a`` gets the verdict of ``a``.  A Cholesky sees no
    ``lambda_max``, so :func:`_definite` tests ``lambda_min > tol ||w||_2 = tol ||a||_F``."""
    _require_tol(tol)
    s = np.ldexp(a, -np.frexp(np.abs(a).max(axis=(-2, -1)))[1][..., None, None])
    d = np.arange(a.shape[-1])
    s[..., d, d] -= tol * np.sqrt((s * s).sum(axis=(-2, -1)))[..., None]
    return ~np.isnan(_cholesky(s)[..., 0, 0])


def _cholesky(a):
    """``np.linalg.cholesky`` of a real ``a`` bit for bit, but NaN for each matrix it refuses."""
    with np.errstate(all="ignore"):
        return _lapack.cholesky_lo(a, signature="d->d")


def _factor(a):
    """:func:`_cholesky` of the PD-tested ``a``; InternalNumerics if round-off refuses a matrix."""
    if np.isnan((l := _cholesky(a))[..., 0, 0]).any():
        raise InternalNumerics("Cholesky factorization failed: Matrix is not positive definite")
    return l


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _kernels():
    """numpy's error state for :func:`_solve` and :func:`_inv`, entered once per sweep or step."""
    return np.errstate(all="ignore", invalid="call", call=_singular)


def _solve(a, b):
    """``np.linalg.solve`` of real arrays bit for bit, unwrapped; call it under :func:`_kernels`."""
    return (_lapack.solve1 if b.ndim == 1 else _lapack.solve)(a, b, signature="dd->d")


def _inv(a):
    """``np.linalg.inv`` bit for bit, as :func:`_solve` takes ``solve``."""
    return _lapack.inv(a, signature="d->d")


def _whiten(l, b):
    """``sym(L^-1 B L^-T)`` of a triangular ``L``, broadcast; ``L^-1`` under :func:`_kernels`."""
    with _kernels():
        li = _inv(l)
    return sym(li @ b @ li.swapaxes(-1, -2))


def _require_pd(a, tol):
    """:func:`_pd_factor` of ``a``, or NotPositiveDefinite naming the least refused lambda_min."""
    l = _pd_factor(a, tol)
    bad = np.isnan(l[..., 0, 0])
    if bad.any():
        w, e = _spectrum(a[bad])
        lam_min = float(np.ldexp(w[..., 0], e).min())
        raise NotPositiveDefinite(f"matrix is not positive definite (lambda_min = {lam_min:.3e})")
    return l


def is_pd(a, tol=DEFAULT_TOL):
    """True iff ``a`` is PD at ``tol`` by :func:`_pd_test`, per matrix of a stack; via _dense."""
    ok = _pd_test(_dense(a), tol)
    return bool(ok) if ok.ndim == 0 else ok


def is_psd(a, tol=DEFAULT_TOL):
    """True iff lambda_min(a) >= -tol * ||a||_F, per matrix of a stack; via :func:`_dense`."""
    ok = _definite(_spectrum(_dense(a))[0], tol, semi=True)
    return bool(ok) if ok.ndim == 0 else ok


class _DeterminantFromLog:
    """``determinant`` as ``exp(log_determinant)``: inf or 0.0 out of range, NaN for NaN."""

    @property
    def determinant(self):
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_determinant))


def _log_det(l):
    """``2 sum log diag l``: the log-determinant of ``l l^T`` for a lower Cholesky factor ``l``
    (NaN for a NaN factor), per factor of a stack; the one place where ``pgm`` takes one."""
    ld = 2.0 * np.log(np.diagonal(l, axis1=-2, axis2=-1)).sum(axis=-1)
    return float(ld) if ld.ndim == 0 else ld


def log_det(a):
    """Log-determinant of each matrix of ``a``, admitted by :func:`_dense`, off the factor of its
    :func:`_require_pd`; finite for every finite PD input, as each ``l_ij^2 <= a_ii``."""
    return _log_det(_require_pd(_dense(a), DEFAULT_TOL))


def fro_norm(a):
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(a, dtype=float), "fro"))


def op_norm(a):
    """Spectral norm of a symmetric matrix admitted by :func:`_dense`: max |eigenvalue|,
    per matrix of a stack."""
    norm = np.abs(_eigh(_dense(a), vectors=False)).max(axis=-1)
    return float(norm) if norm.ndim == 0 else norm


def riemannian_dist(a, b):
    """Riemannian trace metric between positive definite matrices.

    delta(A, B) = || log(A^{-1/2} B A^{-1/2}) ||_F, evaluated through the generalized symmetric
    eigenproblem ``B x = lambda A x``, whose eigenvalues equal those of A^{-1/2} B A^{-1/2}, on
    ``scipy.linalg.eigh``: the first call loads ``scipy.linalg``, which ``import pgm`` leaves out.
    """
    (ma, mb), _ = _pd_stack((a, b))
    w = scipy.linalg.eigh(mb, ma, eigvals_only=True)
    return float(np.sqrt(np.sum(np.log(w) ** 2)))
