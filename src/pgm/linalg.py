"""Dense real symmetric matrix core.

Eigendecompositions, spectral matrix functions (``mat_fn`` of any scalar function, powers,
inverse), log-determinants (results derive their determinant from it, in one base class) and
norms, plus the Riemannian trace metric on the cone of symmetric positive definite matrices.

All functions take and return plain ``numpy`` arrays.  Each one that runs a
symmetric eigensolve on its argument admits it through :func:`_dense`.  Outputs
of spectral functions are explicitly re-symmetrized so that downstream symmetry
checks can be exact.  Spectral functions, PD tests, ``log_det`` and ``op_norm``
also take stacks ``(..., n, n)``, with one result per matrix.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, InternalNumerics, NotPositiveDefinite

#: Default relative tolerance for positive (semi)definiteness tests.
#: A matrix counts as PD when lambda_min > DEFAULT_TOL * max(1, ||A||).
DEFAULT_TOL = 1e-10


def sym(a):
    """Symmetric part ``(a + a^T) / 2`` of a matrix or a stack of matrices."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def _dense(a):
    """``a`` as a float ``(..., n, n)`` array, checked finite: as it is if exactly symmetric,
    its :func:`sym` if ``max |a - a^T| <= DEFAULT_TOL * max(1, max |a|)`` per matrix."""
    m = np.asarray(a, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    if (m == m.swapaxes(-1, -2)).all():
        return m
    skew = np.abs(m - m.swapaxes(-1, -2)).max(axis=(-2, -1))
    if (skew > DEFAULT_TOL * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))).any():
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
    m = np.asarray(a, dtype=float)
    try:
        return np.linalg.eigh(m) if vectors else np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise InternalNumerics(f"symmetric eigensolver failed: {exc}") from exc


def _spectrum(a):
    """Ascending eigenvalues of the finite symmetric ``a`` (or of each matrix of a stack) as
    ``(w, e)``, in units of ``2**e``: where they overflow, ``e`` brings the largest entry of
    that matrix into [1, 2), where :func:`_definite` gives its verdict scale-free."""
    w = _eigh(a, vectors=False)
    if np.isfinite(w).all():
        return w, 0
    e = np.where(np.isfinite(w).all(axis=-1), 0, np.frexp(np.abs(a).max(axis=(-2, -1)))[1] - 1)
    return _eigh(np.ldexp(a, -e[..., None, None]), vectors=False), e


def _definite(w, tol, semi=False):
    """The PD (or, if ``semi``, PSD) test per ascending spectrum in ``w``."""
    scale = np.abs(w).max(axis=-1, initial=1.0)
    lam_min = w[..., 0]
    return lam_min >= -tol * scale if semi else lam_min > tol * scale


def _require(w, domain, tol, e=0):
    """Spectra ``w`` (in units ``2**e``, :func:`_spectrum`) checked against ``domain``.

    ``domain`` is "pd" or "psd".  Raises :class:`NotPositiveDefinite` naming the smallest
    failing lambda_min (:class:`InternalNumerics` where ``w`` overflows); PSD spectra come
    back with negatives clipped.
    """
    if domain not in ("pd", "psd"):
        raise ValueError(f"unknown domain {domain!r}")
    if not np.isfinite(w).all():
        raise InternalNumerics("eigenvalues past the largest double")
    ok = _definite(w, tol, semi=domain == "psd")
    if not ok.all():
        kind = "definite" if domain == "pd" else "semidefinite"
        lam_min = float(np.ldexp(w[..., 0], e)[~ok].min())
        raise NotPositiveDefinite(f"matrix is not positive {kind} (lambda_min = {lam_min:.3e})")
    return w if domain == "pd" else np.clip(w, 0.0, None)


def _pd_stack(mats):
    """The ``k >= 1`` matrices ``mats``, each admitted by :func:`_dense`, as one
    ``(k, n, n)`` stack, checked 2-D, of one shape and PD by one eigensolve."""
    stack = [_dense(m) for m in mats]
    if not stack:
        raise ValueError("expected at least one matrix")
    if len({m.shape for m in stack}) > 1:
        raise DimensionMismatch(f"shape mismatch: {' vs '.join(str(m.shape) for m in stack)}")
    stack = np.stack(stack)
    if stack.ndim != 3:
        raise DimensionMismatch(f"expected 2-D matrices, got shape {stack.shape[1:]}")
    _require(_eigh(stack, vectors=False), "pd", DEFAULT_TOL)
    return stack


def _from_spectrum(w, q):
    """``Q diag(w) Q^T`` re-symmetrized, for one matrix or a stack."""
    return sym((q * w[..., None, :]) @ q.swapaxes(-1, -2))


def is_pd(a, tol=DEFAULT_TOL):
    """True iff lambda_min(a) > tol * max(1, ||a||), per matrix of a stack; via :func:`_dense`."""
    ok = _definite(_spectrum(_dense(a))[0], tol)
    return bool(ok) if ok.ndim == 0 else ok


def is_psd(a, tol=DEFAULT_TOL):
    """True iff lambda_min(a) >= -tol * max(1, ||a||), per matrix of a stack; via :func:`_dense`."""
    ok = _definite(_spectrum(_dense(a))[0], tol, semi=True)
    return bool(ok) if ok.ndim == 0 else ok


def mat_fn(a, f, domain=None):
    """Apply a scalar function to a symmetric matrix through its spectrum.

    Parameters
    ----------
    a : array_like, shape (n, n) or a stack (..., n, n), admitted by :func:`_dense`.
    f : callable
        Vectorized scalar function applied to the eigenvalues.
    domain : {None, "pd", "psd"}
        Spectrum requirement, met at relative tolerance ``DEFAULT_TOL`` by
        every matrix of a stack.
        ``"pd"`` demands strictly positive eigenvalues (log, inverse, negative
        powers); ``"psd"`` allows a zero boundary and clips round-off negatives
        (square root, nonnegative powers); ``None`` imposes nothing (exp).

    Returns
    -------
    ndarray, ``Q f(L) Q^T`` re-symmetrized, of the shape of ``a``.
    """
    w, q = _eigh(_dense(a))
    if domain is not None:
        w = _require(w, domain, DEFAULT_TOL)
    return _from_spectrum(f(w), q)


def powm(a, t):
    """Matrix power ``a**t``; negative exponents require a PD argument."""
    domain = "pd" if t < 0 else "psd"
    return mat_fn(a, lambda w: w**t, domain=domain)


def invm(a):
    """Inverse of a positive definite matrix."""
    return mat_fn(a, lambda w: 1.0 / w, domain="pd")


class _DeterminantFromLog:
    """``determinant`` as ``exp(log_determinant)``: inf or 0.0 out of range, NaN for NaN."""

    @property
    def determinant(self):
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_determinant))


def log_det(a):
    """Sum of eigenvalue logs of a positive definite matrix admitted by :func:`_dense`,
    per matrix of a stack; finite where the spectrum overflows (:func:`_spectrum`)."""
    a = _dense(a)
    w, e = _spectrum(a)
    ld = np.log(_require(w, "pd", DEFAULT_TOL, e)).sum(axis=-1) + a.shape[-1] * e * np.log(2.0)
    return float(ld) if ld.ndim == 0 else ld


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

    delta(A, B) = || log(A^{-1/2} B A^{-1/2}) ||_F, evaluated through the
    generalized symmetric eigenproblem ``B x = lambda A x`` whose
    eigenvalues equal those of A^{-1/2} B A^{-1/2}.
    """
    ma, mb = _pd_stack((a, b))
    w = scipy.linalg.eigh(mb, ma, eigvals_only=True)
    return float(np.sqrt(np.sum(np.log(w) ** 2)))
