"""Steering engine.

Extends a base-point intertwiner over its orbit by the defining rule
``K(g . x0) = rho_j(g) K(x0) rho_l(g)^-1`` and evaluates kernels at orbit
points through the fixed coset section.  Well-definedness across section
choices is exactly the stabilizer constraint on the base-point matrix.

:func:`_product` forms per-kernel products (a pair of small gemms per
kernel) from representation stacks, into fresh or caller-owned arrays.
:func:`steer` evaluates those stacks for one element or a stack of elements.
:func:`section_pieces` streams a whole basis at a stack of points in the
order ``[basis][point]``, in pieces within the chunk budget, evaluating the
representations of the points' sections once per call; ``sample`` writes
the pieces as they come and :func:`section_kernels` gathers them into one
array.  :func:`kernel_at` is the element-by-element reference path, and
``sample``, :func:`section_kernels` and :func:`steer` equal it bit for bit.

The verifier's sweeps form whole-basis products (:func:`_steered_blocks`),
which round differently in the last bits.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from . import groups
from .groups import LORENTZ
from .irreps import (COMPLEX, IrrepError, IrrepLabel, _covers, _rep_stack,
                     rep_matrices)

#: Byte budget of the stacks formed at a time: the batched paths steer at
#: most this many bytes of kernels per numpy call, and no representation
#: stack they form at once is larger.
CHUNK_BYTES = 1 << 20


def chunk_length(item_bytes: int) -> int:
    """Number of items of ``item_bytes`` bytes that fit the chunk budget."""
    return max(1, CHUNK_BYTES // item_bytes)


def _dtype(j: IrrepLabel) -> np.dtype:
    """dtype of the kernels and representation stacks of a label pair."""
    return np.dtype(complex if j.field == COMPLEX else float)


def _rep_bytes(j: IrrepLabel, l: IrrepLabel) -> int:
    """Bytes of the larger of ``rho_j(g)`` and ``rho_l(g)^-1``."""
    return _dtype(j).itemsize * max(j.dim, l.dim) ** 2


def _steered_bytes(j: IrrepLabel, l: IrrepLabel, n_basis: int) -> int:
    """Bytes per steering element that the chunk budget counts: the
    ``n_basis`` kernels it steers or one representation matrix, whichever is
    larger, so that neither kind of stack of a chunk exceeds the budget."""
    return max(_dtype(j).itemsize * n_basis * j.dim * l.dim, _rep_bytes(j, l))


def _require_shape(shape: tuple, *arrays) -> None:
    for a in arrays:
        if a is not None and a.shape != shape:
            raise IrrepError(f"output shape {a.shape} does not match {shape}")


def steer(k0: np.ndarray, j: IrrepLabel, l: IrrepLabel, g, *,
          out: np.ndarray | None = None,
          work: np.ndarray | None = None) -> np.ndarray:
    """``rho_j(g) @ k0 @ rho_l(g)^-1``.

    ``k0`` is one base-point kernel of shape ``(dim_j, dim_l)`` or a stack
    of them, shape ``(..., dim_j, dim_l)``.  ``g`` is one group element,
    which steers every kernel of the stack, or a stack of n elements given
    by their canonical parameters, shape ``(n, k)``: element i steers
    ``k0[..., i, :, :]`` (axis -3 of ``k0`` has length n or 1) and the
    result has shape ``(..., n, dim_j, dim_l)``.  The representation
    stacks are fresh C-ordered arrays for every group, so one pair of
    stacked products steers any mix of elements, O(3) parity elements
    included, and each slice equals the one-element call bit for bit.

    With ``out``, the result is written into it and ``out`` is returned;
    with ``work``, ``rho_j(g) @ k0`` is formed there.  Both have the
    result's shape and dtype and may be strided views; the values equal
    the fresh result bit for bit.
    """
    k0 = np.asarray(k0)
    if k0.shape[-2:] != (j.dim, l.dim):
        raise IrrepError(
            f"kernel shape {k0.shape} does not match ({j.dim}, {l.dim})")
    if isinstance(g, groups.GroupElement):
        for label in (j, l):
            if label.group != g.group:
                raise IrrepError(
                    f"label {label} does not accept {g.group} elements")
        out, work = (None if a is None else a[..., None, :, :]
                     for a in (out, work))
        return steer(k0[..., None, :, :], j, l, [g.params], out=out,
                     work=work)[..., 0, :, :]
    params = groups.parameter_stack(j.group, g)
    if params.ndim != 2:
        raise IrrepError(f"expected an (n, k) parameter stack, got shape "
                         f"{params.shape}")
    shape = np.broadcast_shapes(k0.shape[:-2], params.shape[:1]) + k0.shape[-2:]
    _require_shape(shape, out, work)
    return _product(*_reps(j, l, params), k0, out=out, work=work)


def _reps(j: IrrepLabel, l: IrrepLabel, params) -> tuple:
    """``rho_j(g)``, ``rho_l(g)^-1`` at parameters (n, k), as rep_matrices and
    rep_inverses give them; a Lorentz pair shares its group evaluation."""
    if j.group == LORENTZ:
        p = groups.parameter_stack(LORENTZ, params)
        covers = _covers(p, (j, l))
        return _rep_stack(j, p, False, covers), _rep_stack(l, p, True, covers)
    # Compact inverses are conjugate transposes (see irreps.rep_inverses).
    rho = rep_matrices(j, params)
    return rho, (rho if j == l else rep_matrices(l, params)).conj().swapaxes(-1, -2)


def _product(rho: np.ndarray, rho_inv: np.ndarray, k0: np.ndarray, *,
             out: np.ndarray | None = None,
             work: np.ndarray | None = None) -> np.ndarray:
    """``rho @ k0 @ rho_inv`` over broadcast stacks, with ``rho @ k0`` formed
    in ``work``; every matrix of the result is the one-element product bit
    for bit."""
    work = np.matmul(rho, k0, out=work)
    return np.matmul(work, rho_inv, out=out)


def kernel_at(elem, x: groups.OrbitPoint) -> np.ndarray:
    """Evaluate a basis element at an orbit point via the coset section.

    ``elem`` needs attributes ``j``, ``l``, ``orbit`` and ``base_matrix``.
    This is the element-by-element reference path; :func:`section_kernels`
    equals it bit for bit.
    """
    if x.orbit != elem.orbit:
        raise IrrepError(f"point on {x.orbit} does not match {elem.orbit}")
    g = groups.coset_representative(x, elem.j.group)
    return steer(elem.base_matrix, elem.j, elem.l, g)


def _check_basis(elements) -> None:
    if not elements:
        raise IrrepError("section_kernels needs at least one basis element")
    e0 = elements[0]
    if any((e.j, e.l, e.orbit) != (e0.j, e0.l, e0.orbit) for e in elements):
        raise IrrepError("basis elements must share j, l and the orbit; "
                         "they are steered as one stack")


def section_pieces(elements, coords) -> Iterator[np.ndarray]:
    """Values of a basis at a stack of points of its orbit given by their
    coordinates, shape (n, c), streamed in the order ``[basis][point]``.

    Yields C-ordered kernel stacks ``(k, dim_j, dim_l)`` whose concatenation
    is ``section_kernels(elements, coords)`` flattened over its first two
    axes.  A piece holds whole basis elements when one element's values at
    all n points fit the chunk budget, and a run of points of one element
    otherwise; no piece, and no representation stack formed at once,
    exceeds the budget.  Each piece lives in a buffer that the next one
    overwrites.  The basis and the points are checked, and the coset
    sections computed, before this returns.  The representations of the
    sections are evaluated once per call, a piece's points at a time; they
    are kept for the other pieces that reuse them only when there are
    such pieces, so a consumer holds at most the representations of all n
    sections and two chunk buffers, never the whole basis.
    """
    _check_basis(elements)
    e0 = elements[0]
    coords = np.asarray(coords, dtype=float)
    if not len(coords):
        return iter(())
    params = groups.section_params(e0.orbit, coords, e0.j.group)
    return _pieces(elements, params)


def _pieces(elements, params) -> Iterator[np.ndarray]:
    e0 = elements[0]
    j, l = e0.j, e0.l
    n, n_basis = len(params), len(elements)
    k0 = np.stack([e.base_matrix for e in elements])[:, None]
    step = chunk_length(_steered_bytes(j, l, 1))
    width = min(step, n)
    rows = max(1, step // n)
    reps = (_reps(j, l, params[i:i + width]) for i in range(0, n, width))
    if rows < n_basis:
        # Every row of elements reuses them.
        reps = list(reps)
    shape = (min(rows, n_basis), width, j.dim, l.dim)
    out, work = np.empty(shape, _dtype(j)), np.empty(shape, _dtype(j))
    for b in range(0, n_basis, rows):
        k = k0[b:b + rows]
        for rho, rho_inv in reps:
            m = len(rho)
            piece = _product(rho, rho_inv, k, out=out[:len(k), :m],
                             work=work[:len(k), :m])
            yield piece.reshape(-1, j.dim, l.dim)


def section_kernels(elements, coords) -> np.ndarray:
    """Values of a basis at a stack of points of its orbit given by their
    coordinates, shape (n, c) -> ``(n_basis, n, dim_j, dim_l)``: the pieces
    of :func:`section_pieces` gathered into one array."""
    pieces = section_pieces(elements, coords)
    j, l = elements[0].j, elements[0].l
    out = np.empty((len(elements), len(coords), j.dim, l.dim), _dtype(j))
    flat = out.reshape(-1, j.dim, l.dim)
    i = 0
    for piece in pieces:
        flat[i:i + len(piece)] = piece
        i += len(piece)
    return out


def _steered_blocks(k, j, l, params, step, out, work) -> Iterator[np.ndarray]:
    """Whole-basis products ``rho_j(g) K rho_l(g)^-1`` for n elements,
    parameters (n, p), and every K of ``k`` (n_k, dim_j, w, dim_l): n_k
    stacks of w kernels side by side, run c of n_k equal runs of elements
    steering ``k[c]``.  Yields blocks (m, dim_j, w, dim_l) of ``step``
    elements, the last maybe shorter: rho_j K in the flat buffer ``work``
    (the block's rho_j stacked vertically, one gemm per stack), times
    rho_l^-1 in ``out`` (one gemm per element), each of ``step * k[0].size``
    items.  Representations go a run of blocks at a time, within budget.
    """
    dj, dl, size = j.dim, l.dim, k[0].size
    per = len(params) // len(k)
    run = step * max(1, chunk_length(2 * _rep_bytes(j, l)) // step)
    for r in range(0, len(params), run):
        rho, rho_inv = _reps(j, l, params[r:r + run])
        for i in range(0, len(rho), step):
            m = min(step, len(rho) - i)
            left = work[:m * size].reshape(m * dj, -1)
            for c in range((r + i) // per, (r + i + m - 1) // per + 1):
                a, b = max(i, c * per - r), min(i + m, (c + 1) * per - r)
                np.matmul(rho[a:b].reshape(-1, dj), k[c].reshape(dj, -1),
                          out=left[(a - i) * dj:(b - i) * dj])
            # A C-ordered copy of a conjugate transpose view multiplies faster.
            right = np.matmul(left.reshape(m, -1, dl),
                              np.ascontiguousarray(rho_inv[i:i + m]),
                              out=out[:m * size].reshape(m, -1, dl))
            yield right.reshape(m, dj, -1, dl)
        del rho, rho_inv
