"""Dense real symmetric matrix core.

Eigendecompositions, spectral matrix functions (square root, log, exp,
fractional powers, inverse), determinants and norms, plus the Riemannian
trace metric on the cone of symmetric positive definite matrices.

All functions take and return plain ``numpy`` arrays.  Outputs of spectral
functions are explicitly re-symmetrized so that downstream symmetry checks
can be exact.  Spectral functions and PD tests also take stacks
``(..., n, n)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, InternalNumerics, NotPositiveDefinite

#: Default relative tolerance for positive (semi)definiteness tests.
#: A matrix counts as PD when lambda_min > DEFAULT_TOL * max(1, ||A||).
DEFAULT_TOL = 1e-10


def sym(a):
    """Symmetric part ``(a + a^T) / 2`` of a matrix or a stack of matrices."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def _square_finite(a):
    """``a`` as a float array, checked to be one square matrix with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def as_sym_matrix(a, symmetrize=False):
    """Validate a dense real symmetric matrix.

    Parameters
    ----------
    a : array_like, shape (n, n)
        Square matrix with finite real entries.
    symmetrize : bool
        If True, asymmetric input is averaged with its transpose instead
        of being rejected.

    Returns
    -------
    ndarray of float, exactly symmetric.
    """
    m = _square_finite(a)
    if symmetrize:
        return sym(m)
    if not np.array_equal(m, m.T):
        raise ValueError("matrix is not symmetric; pass symmetrize=True to average")
    return m.copy()


@dataclass(frozen=True)
class EigenDecomp:
    """Spectral decomposition A = Q diag(values) Q^T.

    ``values`` are sorted in non-increasing order; ``vectors`` holds the
    matching orthonormal eigenvectors as columns.
    """

    values: np.ndarray
    vectors: np.ndarray


def eig(a):
    """Full eigendecomposition of a symmetric matrix.

    Returns an :class:`EigenDecomp` with eigenvalues in non-increasing
    order.  Raises :class:`InternalNumerics` in the (practically
    unreachable) event that the symmetric eigensolver fails to converge.
    """
    w, q = _eigh(a)
    return EigenDecomp(values=w[::-1].copy(), vectors=q[:, ::-1].copy())


def _eigh(a, vectors=True):
    """Ascending eigenvalues (and eigenvectors) of a symmetric matrix or
    a stack ``(..., n, n)``; a solver failure raises InternalNumerics."""
    m = np.asarray(a, dtype=float)
    try:
        return np.linalg.eigh(m) if vectors else np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise InternalNumerics(f"symmetric eigensolver failed: {exc}") from exc


def _definite(w, tol, semi=False):
    """The PD (or, if ``semi``, PSD) test per ascending spectrum in ``w``."""
    scale = np.abs(w).max(axis=-1, initial=1.0)
    lam_min = w[..., 0]
    return lam_min >= -tol * scale if semi else lam_min > tol * scale


def _require(w, domain, tol):
    """Spectra ``w`` checked against ``domain`` ("pd" or "psd").

    Raises :class:`NotPositiveDefinite` naming the smallest failing
    lambda_min; PSD spectra come back with round-off negatives clipped.
    """
    if domain not in ("pd", "psd"):
        raise ValueError(f"unknown domain {domain!r}")
    ok = _definite(w, tol, semi=domain == "psd")
    if not ok.all():
        kind = "definite" if domain == "pd" else "semidefinite"
        lam_min = float(w[..., 0][~ok].min())
        raise NotPositiveDefinite(f"matrix is not positive {kind} (lambda_min = {lam_min:.3e})")
    return w if domain == "pd" else np.clip(w, 0.0, None)


def _pd_stack(mats, tol=DEFAULT_TOL):
    """The ``k >= 1`` matrices ``mats`` as one ``(k, n, n)`` float stack, checked
    square, finite, of one shape and positive definite by one eigensolve."""
    stack = [_square_finite(m) for m in mats]
    if not stack:
        raise ValueError("expected at least one matrix")
    if len({m.shape for m in stack}) > 1:
        raise DimensionMismatch(f"shape mismatch: {' vs '.join(str(m.shape) for m in stack)}")
    stack = np.stack(stack)
    _require(_eigh(stack, vectors=False), "pd", tol)
    return stack


def _from_spectrum(w, q):
    """``Q diag(w) Q^T`` re-symmetrized, for one matrix or a stack."""
    return sym((q * w[..., None, :]) @ q.swapaxes(-1, -2))


def is_pd(a, tol=DEFAULT_TOL):
    """True iff lambda_min(a) > tol * max(1, ||a||); per matrix on a stack."""
    ok = _definite(_eigh(a, vectors=False), tol)
    return bool(ok) if ok.ndim == 0 else ok


def is_psd(a, tol=DEFAULT_TOL):
    """True iff lambda_min(a) >= -tol * max(1, ||a||); per matrix on a stack."""
    ok = _definite(_eigh(a, vectors=False), tol, semi=True)
    return bool(ok) if ok.ndim == 0 else ok


def mat_fn(a, f, domain=None, tol=DEFAULT_TOL):
    """Apply a scalar function to a symmetric matrix through its spectrum.

    Parameters
    ----------
    a : array_like, symmetric, shape (n, n) or a stack (..., n, n).
    f : callable
        Vectorized scalar function applied to the eigenvalues.
    domain : {None, "pd", "psd"}
        Spectrum requirement.  ``"pd"`` demands strictly positive
        eigenvalues (log, inverse, negative powers); ``"psd"`` allows a
        zero boundary and clips round-off negatives (square root,
        nonnegative powers); ``None`` imposes nothing (exp).  On a stack
        every matrix must meet it.
    tol : float
        Relative tolerance of the spectrum check.

    Returns
    -------
    ndarray, ``Q f(L) Q^T`` re-symmetrized, of the shape of ``a``.
    """
    w, q = _eigh(a)
    if domain is not None:
        w = _require(w, domain, tol)
    return _from_spectrum(f(w), q)


def sqrtm(a, tol=DEFAULT_TOL):
    """Principal square root of a positive semidefinite matrix."""
    return mat_fn(a, np.sqrt, domain="psd", tol=tol)


def invsqrtm(a, tol=DEFAULT_TOL):
    """Inverse square root of a positive definite matrix."""
    return mat_fn(a, lambda w: 1.0 / np.sqrt(w), domain="pd", tol=tol)


def powm(a, t, tol=DEFAULT_TOL):
    """Matrix power ``a**t``; negative exponents require a PD argument."""
    domain = "pd" if t < 0 else "psd"
    return mat_fn(a, lambda w: w**t, domain=domain, tol=tol)


def logm(a, tol=DEFAULT_TOL):
    """Matrix logarithm of a positive definite matrix."""
    return mat_fn(a, np.log, domain="pd", tol=tol)


def expm(a):
    """Matrix exponential of a symmetric matrix."""
    return mat_fn(a, np.exp)


def invm(a, tol=DEFAULT_TOL):
    """Inverse of a positive definite matrix."""
    return mat_fn(a, lambda w: 1.0 / w, domain="pd", tol=tol)


def det(a):
    """Determinant."""
    return float(np.linalg.det(np.asarray(a, dtype=float)))


def log_det(a, tol=DEFAULT_TOL):
    """Sum of eigenvalue logs of a positive definite matrix."""
    w = _require(_eigh(a, vectors=False), "pd", tol)
    return float(np.log(w).sum())


def trace(a):
    """Trace."""
    return float(np.trace(np.asarray(a, dtype=float)))


def fro_norm(a):
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(a, dtype=float), "fro"))


def op_norm(a):
    """Spectral norm; for symmetric input this is max |eigenvalue|."""
    return float(np.abs(_eigh(a, vectors=False)).max())


def riemannian_dist(a, b, tol=DEFAULT_TOL):
    """Riemannian trace metric between positive definite matrices.

    delta(A, B) = || log(A^{-1/2} B A^{-1/2}) ||_F, evaluated through the
    generalized symmetric eigenproblem ``B x = lambda A x`` whose
    eigenvalues equal those of A^{-1/2} B A^{-1/2}.
    """
    ma, mb = _pd_stack((a, b), tol)
    w = scipy.linalg.eigh(mb, ma, eigvals_only=True)
    return float(np.sqrt(np.sum(np.log(w) ** 2)))
