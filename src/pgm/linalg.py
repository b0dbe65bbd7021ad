"""Dense real symmetric matrix core.

Eigendecompositions, spectral matrix functions (square root, log, exp,
fractional powers, inverse), determinants and norms, plus the Riemannian
trace metric on the cone of symmetric positive definite matrices.

All functions take and return plain ``numpy`` arrays.  Outputs of spectral
functions are explicitly re-symmetrized so that downstream symmetry checks
can be exact.
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
    """Symmetric part ``(a + a.T) / 2``."""
    return 0.5 * (a + a.T)


def as_sym_matrix(a, symmetrize=False):
    """Validate a dense real symmetric matrix.

    Parameters
    ----------
    a : array_like, shape (n, n)
        Square matrix with real entries.
    symmetrize : bool
        If True, asymmetric input is averaged with its transpose instead
        of being rejected.

    Returns
    -------
    ndarray of float, exactly symmetric.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
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
    m = np.asarray(a, dtype=float)
    try:
        w, q = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise InternalNumerics(f"symmetric eigensolver failed: {exc}") from exc
    return EigenDecomp(values=w[::-1].copy(), vectors=q[:, ::-1].copy())


def _spectrum(a):
    """Ascending eigenvalues of a symmetric matrix."""
    try:
        return np.linalg.eigvalsh(np.asarray(a, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise InternalNumerics(f"symmetric eigensolver failed: {exc}") from exc


def is_pd(a, tol=DEFAULT_TOL):
    """True iff lambda_min(a) > tol * max(1, ||a||)."""
    w = _spectrum(a)
    scale = max(1.0, float(np.abs(w).max()))
    return bool(w[0] > tol * scale)


def is_psd(a, tol=DEFAULT_TOL):
    """True iff lambda_min(a) >= -tol * max(1, ||a||)."""
    w = _spectrum(a)
    scale = max(1.0, float(np.abs(w).max()))
    return bool(w[0] >= -tol * scale)


def mat_fn(a, f, domain=None, tol=DEFAULT_TOL):
    """Apply a scalar function to a symmetric matrix through its spectrum.

    Parameters
    ----------
    a : array_like, symmetric.
    f : callable
        Vectorized scalar function applied to the eigenvalues.
    domain : {None, "pd", "psd"}
        Spectrum requirement.  ``"pd"`` demands strictly positive
        eigenvalues (log, inverse, negative powers); ``"psd"`` allows a
        zero boundary and clips round-off negatives (square root,
        nonnegative powers); ``None`` imposes nothing (exp).
    tol : float
        Relative tolerance of the spectrum check.

    Returns
    -------
    ndarray, ``Q f(L) Q^T`` re-symmetrized.
    """
    try:
        w, q = np.linalg.eigh(np.asarray(a, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise InternalNumerics(f"symmetric eigensolver failed: {exc}") from exc
    if domain is not None:
        scale = max(1.0, float(np.abs(w).max()))
        if domain == "pd":
            if w[0] <= tol * scale:
                raise NotPositiveDefinite(
                    f"matrix is not positive definite (lambda_min = {w[0]:.3e})"
                )
        elif domain == "psd":
            if w[0] < -tol * scale:
                raise NotPositiveDefinite(
                    f"matrix is not positive semidefinite (lambda_min = {w[0]:.3e})"
                )
            w = np.clip(w, 0.0, None)
        else:
            raise ValueError(f"unknown domain {domain!r}")
    return sym((q * f(w)) @ q.T)


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
    w = _spectrum(a)
    scale = max(1.0, float(np.abs(w).max()))
    if w[0] <= tol * scale:
        raise NotPositiveDefinite(
            f"log_det requires a positive definite matrix (lambda_min = {w[0]:.3e})"
        )
    return float(np.log(w).sum())


def trace(a):
    """Trace."""
    return float(np.trace(np.asarray(a, dtype=float)))


def fro_norm(a):
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(a, dtype=float), "fro"))


def op_norm(a):
    """Spectral norm; for symmetric input this is max |eigenvalue|."""
    w = _spectrum(a)
    return float(np.abs(w).max())


def riemannian_dist(a, b, tol=DEFAULT_TOL):
    """Riemannian trace metric between positive definite matrices.

    delta(A, B) = || log(A^{-1/2} B A^{-1/2}) ||_F, evaluated through the
    generalized symmetric eigenproblem ``B x = lambda A x`` whose
    eigenvalues equal those of A^{-1/2} B A^{-1/2}.
    """
    ma = np.asarray(a, dtype=float)
    mb = np.asarray(b, dtype=float)
    if ma.shape != mb.shape:
        raise DimensionMismatch(f"shape mismatch: {ma.shape} vs {mb.shape}")
    for m in (ma, mb):
        if not is_pd(m, tol):
            raise NotPositiveDefinite("riemannian_dist requires positive definite arguments")
    w = scipy.linalg.eigh(mb, ma, eigvals_only=True)
    return float(np.sqrt(np.sum(np.log(w) ** 2)))
