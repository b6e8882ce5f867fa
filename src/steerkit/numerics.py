"""Dense matrix kernel: Kronecker products, SVD nullspaces, principal angles.

Matrices are plain 2-D numpy arrays in row-major (C) order.  The dtype is the
reality flag: float arrays are exactly real, complex arrays may carry phases.
Vectorization is row-major everywhere, so ``vec(A @ K @ B) ==
kron(A, B.T) @ vec(K)`` with ``vec = ravel(order="C")``.

All SVDs go through LAPACK via numpy and are deterministic for bit-identical
inputs.
"""

from __future__ import annotations

import math

import numpy as np

NULLSPACE_TOL = 1e-9  # relative rank cut: sigma <= tol * sigma_max is zero


class NumericsError(ValueError):
    """Invalid input to a numerics operation."""


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D ndarray."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise NumericsError(f"expected a 2-D matrix, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise NumericsError("matrix has non-finite entries")
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product, (A otimes B)[i*rB+k, j*cB+m] = A[i,j] * B[k,m]."""
    return np.kron(as_matrix(a), as_matrix(b))


def vec(k) -> np.ndarray:
    """Row-major vectorization of a matrix."""
    return as_matrix(k).ravel(order="C")


def _fix_column_signs(q: np.ndarray) -> np.ndarray:
    # Rotate each column so its first significant component is positive real;
    # makes the basis deterministic beyond what LAPACK guarantees.
    q = q.copy()
    for k in range(q.shape[1]):
        col = q[:, k]
        mags = np.abs(col)
        top = mags.max(initial=0.0)
        if top == 0.0:
            continue
        idx = int(np.argmax(mags > 1e-8 * top))
        pivot = col[idx]
        if np.iscomplexobj(q):
            q[:, k] = col * (np.conj(pivot) / abs(pivot))
        elif pivot < 0:
            q[:, k] = -col
    return q


def nullspace_with_spectrum(a):
    """Nullspace basis plus the kept/dropped singular values.

    Returns ``(basis, kept, dropped)`` where ``basis`` has orthonormal columns
    spanning the numerical kernel (sigma <= NULLSPACE_TOL * sigma_max), and
    ``kept``/``dropped`` are the singular values above/below the cut, both in
    descending order.  Used by callers that need to inspect the rank gap.
    """
    a = as_matrix(a)
    m, n = a.shape
    if n == 0:
        return a.reshape(m, 0)[:0].T, np.zeros(0), np.zeros(0)
    # U is unused: only wide matrices need the full (n x n) V.
    _, s, vh = np.linalg.svd(a, full_matrices=m < n)
    # Wide matrices have n - m implicit zero singular values.
    s_full = np.concatenate([s, np.zeros(n - len(s))])
    smax = s_full[0] if len(s_full) else 0.0
    null_mask = s_full <= NULLSPACE_TOL * smax
    k = int(null_mask.sum())
    # Rows of vh are right-singular vectors, sigma descending; reverse the
    # null block so basis columns come out by ascending singular value.
    basis = vh[n - k:][::-1].conj().T if k else np.zeros((n, 0), dtype=vh.dtype)
    basis = _fix_column_signs(basis)
    return basis, s_full[~null_mask], s_full[null_mask]


def nullspace(a) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of ``a``.

    Columns are ordered by ascending singular value and sign-fixed so the
    first significant component of each column is positive real.
    """
    basis, _, _ = nullspace_with_spectrum(a)
    return basis


def principal_angle_distance(u, v) -> tuple[float, bool]:
    """Largest principal angle between two orthonormal column spans.

    Returns ``(angle, dim_mismatch)``.  Spans of unequal dimension get the
    pi/2 sentinel with the mismatch flag set; ambient dimensions must agree.
    """
    u = as_matrix(u)
    v = as_matrix(v)
    if u.shape[0] != v.shape[0]:
        raise NumericsError(
            f"ambient dimensions differ: {u.shape[0]} vs {v.shape[0]}")
    if u.shape[1] != v.shape[1]:
        return math.pi / 2, True
    if u.shape[1] == 0:
        return 0.0, False
    s = np.linalg.svd(u.conj().T @ v, compute_uv=False)
    cos_min = min(1.0, s.min())
    if cos_min < math.sqrt(0.5):
        return float(np.arccos(cos_min)), False
    # Small angles: arccos near 1 amplifies roundoff to sqrt(eps); the sine
    # of the largest principal angle is the norm of the projection residual.
    r = u - v @ (v.conj().T @ u)
    sin_max = min(1.0, np.linalg.svd(r, compute_uv=False).max(initial=0.0))
    return float(np.arcsin(sin_max)), False


def projection_residual(w, basis) -> float:
    """Max relative residual of columns of ``w`` projected onto span(basis).

    Zero means every column of ``w`` lies inside the span.
    """
    w = as_matrix(w)
    basis = as_matrix(basis)
    if w.shape[1] == 0:
        return 0.0
    if basis.shape[1] == 0:
        # empty span contains only zero columns
        return 0.0 if np.linalg.norm(w) == 0.0 else 1.0
    resid = w - basis @ (basis.conj().T @ w)
    norms = np.linalg.norm(w, axis=0)
    norms = np.where(norms == 0, 1.0, norms)
    return float((np.linalg.norm(resid, axis=0) / norms).max())


def orthonormal_columns(a) -> np.ndarray:
    """Orthonormal basis of the column space of ``a`` (SVD based)."""
    a = as_matrix(a)
    if a.shape[1] == 0:
        return a.copy()
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    r = int(np.sum(s > NULLSPACE_TOL * s[0])) if s.size else 0
    return _fix_column_signs(u[:, :r])
