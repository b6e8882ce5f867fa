"""Dense matrix kernel: Kronecker products, SVD nullspaces and column spaces,
principal angles.

Matrices are plain 2-D numpy arrays in row-major (C) order.  The dtype is the
reality flag: float arrays are exactly real, complex arrays may carry phases.
Vectorization is row-major everywhere, so ``vec(A @ K @ B) ==
kron(A, B.T) @ vec(K)`` with ``vec = ravel(order="C")``.

All SVDs go through LAPACK via numpy and are deterministic for bit-identical
inputs.  A nullspace of a stack at least twice as tall as wide is taken
from the SVD of its R factor; a count takes the values-only SVD of the whole
stack, where LAPACK's gesdd takes the same R step itself.
"""

from __future__ import annotations

import math

import numpy as np

#: Rank cut: a singular value at or below ``NULLSPACE_TOL * max(sigma_max,
#: 1)`` is zero.  The oracle's stacks and projectors are built from unitary
#: matrices, so sigma_max = O(1) unless a matrix is pure round-off; the
#: floor gives such a matrix rank 0, where a cut relative to its own
#: round-off would find full rank.
NULLSPACE_TOL = 1e-9


class NumericsError(ValueError):
    """Invalid input to a numerics operation."""


def as_stack(a) -> np.ndarray:
    """Validate and return ``a`` as a finite stack of matrices, ndim >= 2."""
    a = np.asarray(a)
    if a.ndim < 2:
        raise NumericsError(f"expected a matrix or a stack, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise NumericsError("matrix has non-finite entries")
    return a


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D ndarray."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise NumericsError(f"expected a 2-D matrix, got shape {a.shape}")
    return as_stack(a)


def kron(a, b) -> np.ndarray:
    """Kronecker product, (A otimes B)[i*rB+k, j*cB+m] = A[i,j] * B[k,m].

    Stacks (..., r, c) pair their matrices over broadcast leading axes.  Each
    entry is one product, as in ``np.kron``, so every matrix of the result
    equals ``np.kron`` of its pair bit for bit.  The result is a fresh
    C-ordered array whatever the layout of the inputs.
    """
    a, b = as_stack(a), as_stack(b)
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    out = np.multiply(a[..., :, None, :, None], b[..., None, :, None, :],
                      order="C")
    return out.reshape(out.shape[:-4] + (ra * rb, ca * cb))


def vec(k) -> np.ndarray:
    """Row-major vectorization of a matrix."""
    return as_matrix(k).ravel(order="C")


def row_dots(v: np.ndarray) -> np.ndarray:
    """``v @ v`` over the last axis of a real stack of vectors, by the BLAS
    dot that ``np.linalg.norm`` uses for one vector."""
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def norms(a) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, shape (..., m, n) -> (...);
    for a C-ordered stack each equals ``np.linalg.norm`` of that matrix
    alone bit for bit."""
    a = np.ascontiguousarray(a)
    v = a.reshape(a.shape[:-2] + (-1,))
    if np.iscomplexobj(v):
        return np.sqrt(row_dots(v.real) + row_dots(v.imag))
    return np.sqrt(row_dots(v))


def _fix_column_signs(q: np.ndarray) -> np.ndarray:
    # Rotate each column so its first significant component is positive real;
    # makes the basis deterministic beyond what LAPACK guarantees.  Real
    # stacks flip all columns at once; complex phases are fixed column by
    # column, as vectorized complex arithmetic rounds differently.
    if np.iscomplexobj(q):
        q = q.copy()
        for idx in np.ndindex(q.shape[:-2]):
            for k in range(q.shape[-1]):
                col = q[idx + (slice(None), k)]
                mags = np.abs(col)
                top = mags.max(initial=0.0)
                if top == 0.0:
                    continue
                pivot = col[int(np.argmax(mags > 1e-8 * top))]
                q[idx + (slice(None), k)] = col * (np.conj(pivot) / abs(pivot))
        return q
    mags = np.abs(q)
    top = mags.max(axis=-2, initial=0.0)
    first = np.argmax(mags > 1e-8 * top[..., None, :], axis=-2)
    pivot = np.take_along_axis(q, first[..., None, :], axis=-2)
    q = q.copy()
    return np.negative(q, out=q, where=pivot < 0)


def _rank_cut(s: np.ndarray) -> float:
    """The cut for singular values ``s`` in descending order."""
    return NULLSPACE_TOL * max(s[0] if len(s) else 0.0, 1.0)


def _spectrum(a: np.ndarray, compute_uv: bool):
    """The SVD of a validated matrix ``a`` split at the rank cut:
    ``(vh, kept, dropped)``.

    ``vh`` is the full (n x n) V^H for a wide ``a``, the reduced one
    otherwise, and None without ``compute_uv``.  A wide ``a`` has n - m
    implicit zero singular values, which join the dropped ones.
    """
    m, n = a.shape
    if compute_uv:
        if m >= 2 * n:
            # R-SVD (Chan 1982): A = QR and R share S and V^H, and U is
            # unused.  LAPACK's gesdd factors stacks this tall the same way
            # before it bidiagonalizes R, so S and V^H are the same bits as
            # its own, without the m x n U.
            a = np.linalg.qr(a, mode="r")
        _, s, vh = np.linalg.svd(a, full_matrices=m < n)
    else:
        # Without vectors gesdd takes that R step itself (for m >= 11n/6,
        # 17n/9 complex), so the spectrum is the same bits as above.
        s, vh = np.linalg.svd(a, compute_uv=False), None
    if len(s) < n:
        s = np.concatenate([s, np.zeros(n - len(s))])
    null_mask = s <= _rank_cut(s)
    return vh, s[~null_mask], s[null_mask]


def nullspace_with_spectrum(a):
    """Nullspace basis plus the kept/dropped singular values.

    Returns ``(basis, kept, dropped)`` where ``basis`` has orthonormal columns
    spanning the numerical kernel (sigma at or below the rank cut of
    :data:`NULLSPACE_TOL`), and
    ``kept``/``dropped`` are the singular values above/below the cut, both in
    descending order.  Used by callers that need to inspect the rank gap.
    """
    a = as_matrix(a)
    m, n = a.shape
    if n == 0:
        return a.reshape(m, 0)[:0].T, np.zeros(0), np.zeros(0)
    vh, kept, dropped = _spectrum(a, compute_uv=True)
    k = len(dropped)
    # Rows of vh are right-singular vectors, sigma descending; reverse the
    # null block so basis columns come out by ascending singular value.
    basis = vh[n - k:][::-1].conj().T if k else np.zeros((n, 0), dtype=vh.dtype)
    return _fix_column_signs(basis), kept, dropped


def nullity_with_spectrum(a):
    """Dimension of the numerical kernel plus the kept/dropped singular values.

    Returns ``(k, kept, dropped)`` under the rank cut of
    :func:`nullspace_with_spectrum`, from the values-only SVD of the whole
    of ``a``; no singular vector is computed.  For tall stacks gesdd takes
    the R step of :func:`nullspace_with_spectrum` itself, so the spectrum
    is the bits of the values-only SVD of R; the vectors' route rounds its
    values differently, by a few ulps of the largest.
    """
    _, kept, dropped = _spectrum(as_matrix(a), compute_uv=False)
    return len(dropped), kept, dropped


def range_with_spectrum(a):
    """Column-space basis plus the kept/dropped singular values.

    Returns ``(basis, kept, dropped)`` like :func:`nullspace_with_spectrum`,
    with the same rank cut; ``basis`` has orthonormal, sign-fixed columns
    ordered by descending singular value.
    """
    a = as_matrix(a)
    if a.shape[1] == 0:
        return a.copy(), np.zeros(0), np.zeros(0)
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    k = int(np.sum(s > _rank_cut(s)))
    # The SVD's own U leaves the range by ~n * eps on clustered spectra;
    # combinations of the columns of ``a`` stay in it to round-off.
    q = np.linalg.qr(a @ (vh[:k].conj().T / s[:k]))[0]
    return _fix_column_signs(q), s[:k], s[k:]


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


def projection_residual(w, basis):
    """Max relative residual of columns of ``w`` projected onto span(basis).

    Zero means every column of ``w`` lies inside the span.  Stacks of pairs,
    shape (..., m, n) and (..., m, r), give an array of residuals.
    """
    w = as_stack(w)
    basis = as_stack(basis)
    if w.shape[-1] == 0:
        out = np.zeros(np.broadcast_shapes(w.shape[:-2], basis.shape[:-2]))
    elif basis.shape[-1] == 0:
        # empty span contains only zero columns
        out = np.where(norms(w) == 0.0, 0.0, 1.0)
    else:
        resid = w - basis @ (basis.conj().swapaxes(-1, -2) @ w)
        scale = np.linalg.norm(w, axis=-2)
        scale = np.where(scale == 0, 1.0, scale)
        out = (np.linalg.norm(resid, axis=-2) / scale).max(axis=-1)
    return float(out) if out.ndim == 0 else out


def orthonormal_columns(a) -> np.ndarray:
    """Orthonormal basis of the column space of ``a`` (SVD based).  A stack
    of matrices gives a stack of bases; its matrices must share one rank."""
    a = as_stack(a)
    if a.shape[-1] == 0:
        return a.copy()
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    ranks = (np.sum(s > NULLSPACE_TOL * s[..., :1], axis=-1) if s.shape[-1]
             else np.zeros(s.shape[:-1], dtype=int))
    if ranks.size and ranks.min() != ranks.max():
        raise NumericsError("the matrices of the stack differ in rank")
    return _fix_column_signs(u[..., :int(ranks.max(initial=0))])
