"""Steering engine.

Extends a base-point intertwiner over its orbit by the defining rule
``K(g . x0) = rho_j(g) K(x0) rho_l(g)^-1`` and evaluates kernels at orbit
points through the fixed coset section.  Well-definedness across section
choices is exactly the stabilizer constraint on the base-point matrix.

:func:`_steered_blocks` is the one product engine: per element one gemm
``rho_j(g) K`` and one gemm with ``rho_l(g)^-1``, for w kernels laid side by
side that every element steers, from runs of the pairs ``(rho_j(g),
rho_l(g)^-1)``; :func:`_runs` is the one caller of
:func:`~steerkit.irreps.rep_pair`, for consecutive units of a parameter
stack, as many whole units per call as fit the chunk budget.
:func:`_pieces` steers a stack of base matrices one kernel at a time (w = 1)
by a stack of elements, a run at a time, and :func:`_gathered` gathers its
pieces, in buffers of the dtype of the kernels and the labels'
:attr:`~steerkit.irreps.IrrepLabel.dtype` together.  :func:`section_pieces`
streams a basis at a stack of points through it in the order
``[basis][point]``, which ``sample`` writes as it comes;
:func:`section_kernels` gathers them, :func:`steer` does the same for one
kernel and a stack of elements, and :func:`kernel_at` is :func:`steer` at
the section of one point.  All of these steer one kernel per gemm pair, so
they equal one another bit for bit.  The verifier's one sweep, on every
orbit the null cone included, takes its kernels at x from the same pieces
and steers a whole basis side by side (w > 1), which can round differently
in the last bits (complex SO(3) labels, and real SO(3) and O(3) labels of
dimension 17 and more, on the development machine).
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator

import numpy as np

from . import groups
from .irreps import IrrepError, IrrepLabel, rep_pair

#: Byte budget of the stacks formed at a time: the batched paths steer at
#: most this many bytes of kernels per numpy call, and no representation
#: stack they form at once is larger.
CHUNK_BYTES = 1 << 20


def chunk_length(item_bytes: int) -> int:
    """Number of items of ``item_bytes`` bytes that fit the chunk budget."""
    return max(1, CHUNK_BYTES // item_bytes)


def _rep_bytes(j: IrrepLabel, l: IrrepLabel) -> int:
    """Bytes of the larger of ``rho_j(g)`` and ``rho_l(g)^-1``."""
    return j.dtype.itemsize * max(j.dim, l.dim) ** 2


def steer(k0: np.ndarray, j: IrrepLabel, l: IrrepLabel, params) -> np.ndarray:
    """``rho_j(g) @ k0 @ rho_l(g)^-1`` for a stack of n elements given by
    their parameters, shape ``(n, k)``.

    ``k0`` is one base-point kernel of shape ``(dim_j, dim_l)``; any other
    shape is rejected.  The result has shape ``(n, dim_j, dim_l)`` and the
    dtype of ``k0``, ``j.dtype`` and ``l.dtype`` together, for every n.
    The kernel goes through the pieces of :func:`section_pieces`, a
    budget-sized run of representations at a time, so each slice equals the
    steering by that element alone bit for bit, O(3) parity elements
    included.
    """
    k0 = np.asarray(k0)
    if k0.shape != (j.dim, l.dim):
        raise IrrepError(f"kernel shape {k0.shape} is not the ({j.dim}, "
                         f"{l.dim}) of one kernel")
    params = groups.parameter_stack(j.group, params)
    if params.ndim != 2:
        raise IrrepError(f"expected an (n, k) parameter stack, got shape "
                         f"{params.shape}")
    return _gathered(k0[None], j, l, params)[0]


def _runs(j: IrrepLabel, l: IrrepLabel, params, units) -> Iterator[tuple]:
    """:func:`~steerkit.irreps.rep_pair` of parameters (n, k), unit by unit:
    ``units`` lists the lengths of consecutive units, or is one length for
    all.  Each unit's pair is a view of a run that holds as many whole units
    as fit the chunk budget, forward and inverse stacks together (or one
    unit); a run is dropped before the next one is drawn."""
    n = len(params)
    ends = (np.cumsum(units) if np.ndim(units)
            else np.minimum(np.arange(units, n + units, units), n)).tolist()
    budget = chunk_length(2 * _rep_bytes(j, l))
    start = i = 0
    while i < len(ends):
        last = max(i + 1, bisect.bisect_right(ends, start + budget))
        rho, rho_inv = rep_pair(j, l, params[start:ends[last - 1]])
        for a, b in zip([start] + ends[i:last - 1], ends[i:last]):
            yield rho[a - start:b - start], rho_inv[a - start:b - start]
        start, i = ends[last - 1], last
        del rho, rho_inv


def kernel_at(elem, coords) -> np.ndarray:
    """Evaluate a basis element at one point of its orbit, given by its
    coordinate row, shape (c,), via the coset section.

    ``elem`` needs attributes ``j``, ``l``, ``orbit`` and ``base_matrix``;
    :func:`~steerkit.groups.section_params` checks the point against
    ``elem.orbit``.  This is the element-by-element reference path;
    :func:`section_kernels` equals it bit for bit.
    """
    x = np.asarray(coords, dtype=float)
    if x.ndim != 1:
        raise groups.GroupError(f"expected one point's coordinate row, "
                                f"shape (c,), got shape {x.shape}")
    params = groups.section_params(elem.orbit, x[None], elem.j.group)
    return steer(elem.base_matrix, elem.j, elem.l, params)[0]


def _basis(elements, coords) -> tuple:
    """The stacked base matrices and labels of a basis, and the coset
    sections of a stack of points of its orbit, both checked."""
    if not elements:
        raise IrrepError("section_kernels needs at least one basis element")
    e0 = elements[0]
    if any((e.j, e.l, e.orbit) != (e0.j, e0.l, e0.orbit) for e in elements):
        raise IrrepError("basis elements must share j, l and the orbit; "
                         "they are steered as one stack")
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2:
        raise groups.GroupError(f"expected an (n, c) stack of coordinates, "
                                f"got shape {coords.shape}")
    k = np.stack([e.base_matrix for e in elements]).astype(e0.j.dtype)
    return k, e0.j, e0.l, groups.section_params(e0.orbit, coords, e0.j.group)


def section_pieces(elements, coords) -> Iterator[np.ndarray]:
    """Values of a basis at a stack of points of its orbit given by their
    coordinates, shape (n, c), streamed in the order ``[basis][point]``.

    Yields C-ordered kernel stacks ``(k, dim_j, dim_l)`` whose concatenation
    is ``section_kernels(elements, coords)`` flattened over its first two
    axes.  Each piece is one element's values at a run of points, as many
    as fit the chunk budget, and lives in a buffer that the next one
    overwrites.  The basis and the points are checked, and the coset
    sections computed, before this returns.  The representations of the
    sections are evaluated once per call, a run at a time; every element
    reuses them when there are several, so a consumer holds at most the
    representations of all n sections and two chunk buffers, never the
    whole basis.
    """
    return _pieces(*_basis(elements, coords))


def section_kernels(elements, coords) -> np.ndarray:
    """Values of a basis at a stack of points of its orbit given by their
    coordinates, shape (n, c) -> ``(n_basis, n, dim_j, dim_l)``: the pieces
    of :func:`section_pieces` gathered into one array."""
    return _gathered(*_basis(elements, coords))


def _pieces(k, j: IrrepLabel, l: IrrepLabel, params,
            runs=None) -> Iterator[np.ndarray]:
    """Each kernel of the stack ``k`` (b, dim_j, dim_l) steered by the n
    elements ``params`` (n, k), in the order ``[kernel][element]``, in
    pieces of at most a chunk's elements in two buffers, from the caller's
    ``runs`` of their representations or else from :func:`_runs` of them."""
    step = chunk_length(_rep_bytes(j, l))
    runs = _runs(j, l, params, step) if runs is None else runs
    if len(k) > 1:
        # Every kernel reuses them.
        runs = list(runs)
    out, work = (np.empty(min(step, len(params)) * k[0].size,
                          np.result_type(k, j.dtype, l.dtype))
                 for _ in range(2))
    for kernel in k:
        for piece in _steered_blocks(kernel[:, None], runs, step, out, work):
            yield piece.reshape(-1, j.dim, l.dim)


def _gathered(k, j: IrrepLabel, l: IrrepLabel, params,
              runs=None) -> np.ndarray:
    """The pieces of :func:`_pieces` gathered into one array (b, n, dim_j,
    dim_l) of their dtype."""
    out = np.empty((len(k), len(params), j.dim, l.dim),
                   np.result_type(k, j.dtype, l.dtype))
    i = 0
    for piece in _pieces(k, j, l, params, runs):
        out.reshape(-1, j.dim, l.dim)[i:i + len(piece)] = piece
        i += len(piece)
    return out


def _steered_blocks(k, runs, step, out, work) -> Iterator[np.ndarray]:
    """``rho_j(g) K rho_l(g)^-1`` for a sequence of elements, given as
    ``runs`` of their representations ``(rho_j, rho_l^-1)`` (a list, or a
    generator such as :func:`_runs`), every one steering the kernels ``k``
    (dim_j, ..., dim_l), the w kernels of its middle axes side by side.
    Yields blocks (m, dim_j, w, dim_l) of ``step`` elements of a run, the
    last of a run maybe shorter: per element one gemm rho_j K into the flat
    buffer ``work`` and one gemm with rho_l^-1, as the run holds it, into
    ``out``, each of ``step * k.size`` items of the dtype of ``k`` and the
    labels together, which holds the runs' stacks.  A run is dropped before
    the next one is drawn.  With w = 1 every kernel is the per-kernel
    product bit for bit; whole bases (w > 1) may round differently in the
    last bits.
    """
    dj, dl, flat = k.shape[0], k.shape[-1], k.reshape(k.shape[0], -1)
    for rho, rho_inv in runs:
        for i in range(0, len(rho), step):
            m = min(step, len(rho) - i)
            left = np.matmul(rho[i:i + m], flat,
                             out=work[:m * k.size].reshape(m, dj, -1))
            right = np.matmul(left.reshape(m, -1, dl), rho_inv[i:i + m],
                              out=out[:m * k.size].reshape(m, -1, dl))
            yield right.reshape(m, dj, -1, dl)
        del rho, rho_inv
