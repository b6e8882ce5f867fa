"""Steering engine.

Extends a base-point intertwiner over its orbit by the defining rule
``K(g . x0) = rho_j(g) K(x0) rho_l(g)^-1`` and evaluates kernels at orbit
points through the fixed coset section.  Well-definedness across section
choices is exactly the stabilizer constraint on the base-point matrix.

:func:`_steered_blocks` is the one product engine: per element one gemm
``rho_j(g) K`` and one gemm with ``rho_l(g)^-1``, for w kernels laid side by
side, from runs of the pairs ``(rho_j(g), rho_l(g)^-1)`` that the caller
evaluates with :func:`~steerkit.irreps.rep_pair`; :func:`_runs` evaluates
consecutive units of a parameter stack, as many whole units per call as fit
the chunk budget.
:func:`steer` steers each kernel of a stack alone (w = 1), and
:func:`kernel_at` is :func:`steer` at the section of one point, given by its
coordinate row.  :func:`section_pieces` streams a basis at a stack of points
in the order ``[basis][point]``, one element's run of points per piece,
evaluating the representations of the points' sections once per call;
``sample`` writes the pieces as they come and :func:`section_kernels`
gathers them into one array.  All of these steer one kernel per gemm pair,
so they equal one another bit for bit.  The verifier's one sweep, on every
orbit the null cone included, takes its kernels at x from the same
per-kernel pieces, from runs of its one evaluation, and steers a whole
basis side by side (w > 1), which can round differently in the last bits
(complex SO(3) labels, and real SO(3) and O(3) labels of dimension 17 and
more, on the development machine).
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator

import numpy as np

from . import groups
from .irreps import COMPLEX, IrrepError, IrrepLabel, rep_pair

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


def steer(k0: np.ndarray, j: IrrepLabel, l: IrrepLabel, params) -> np.ndarray:
    """``rho_j(g) @ k0 @ rho_l(g)^-1`` for a stack of n elements given by
    their parameters, shape ``(n, k)``.

    ``k0`` is one base-point kernel of shape ``(dim_j, dim_l)`` or a stack
    of them, shape ``(..., dim_j, dim_l)``: element i steers
    ``k0[..., i, :, :]`` (axis -3 of ``k0`` has length n or 1, or is absent)
    and the result has shape ``(..., n, dim_j, dim_l)``.  The
    representations are evaluated once, and each leading kernel is steered
    alone through :func:`_steered_blocks`, so each slice equals the steering
    by that element alone bit for bit, O(3) parity elements included.
    """
    k0 = np.asarray(k0)
    if k0.shape[-2:] != (j.dim, l.dim):
        raise IrrepError(
            f"kernel shape {k0.shape} does not match ({j.dim}, {l.dim})")
    params = groups.parameter_stack(j.group, params)
    if params.ndim != 2:
        raise IrrepError(f"expected an (n, k) parameter stack, got shape "
                         f"{params.shape}")
    n = len(params)
    stack = k0.reshape((-1,) + k0.shape[-3:]) if k0.ndim > 2 else k0[None, None]
    if stack.shape[1] not in (1, n):
        raise IrrepError(f"axis -3 of the kernel stack has length "
                         f"{stack.shape[1]}, not 1 or the {n} elements")
    runs = [rep_pair(j, l, params)]
    out = np.empty((len(stack), n, j.dim, l.dim), np.result_type(k0, *runs[0]))
    work = np.empty(out[0].size, out.dtype)
    for k, o in zip(stack, out):
        for _ in _steered_blocks(k[:, :, None], 1 if len(k) > 1 else n, runs,
                                 max(1, n), o.reshape(-1), work):
            pass
    return out.reshape(k0.shape[:-3] + out.shape[1:])


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
    axes.  Each piece is one element's values at a run of points, as many
    as fit the chunk budget, and lives in a buffer that the next one
    overwrites.  The basis and the points are checked, and the coset
    sections computed, before this returns.  The representations of the
    sections are evaluated once per call, a run at a time; every element
    reuses them when there are several, so a consumer holds at most the
    representations of all n sections and two chunk buffers, never the
    whole basis.
    """
    _check_basis(elements)
    e0 = elements[0]
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2:
        raise groups.GroupError(f"expected an (n, c) stack of coordinates, "
                                f"got shape {coords.shape}")
    params = groups.section_params(e0.orbit, coords, e0.j.group)
    step = chunk_length(_rep_bytes(e0.j, e0.l))
    return _pieces(elements, _runs(e0.j, e0.l, params, step), len(params),
                   step)


def _pieces(elements, runs, n: int, step: int) -> Iterator[np.ndarray]:
    """Each element's values at n points, in blocks of ``step`` points, from
    ``runs`` of the representations of their sections."""
    j, l = elements[0].j, elements[0].l
    if len(elements) > 1:
        # Every element reuses them.
        runs = list(runs)
    out, work = (np.empty(min(step, n) * j.dim * l.dim, _dtype(j))
                 for _ in range(2))
    for e in elements:
        for piece in _steered_blocks(e.base_matrix[None, :, None], n, runs,
                                     step, out, work):
            yield piece.reshape(-1, j.dim, l.dim)


def section_kernels(elements, coords) -> np.ndarray:
    """Values of a basis at a stack of points of its orbit given by their
    coordinates, shape (n, c) -> ``(n_basis, n, dim_j, dim_l)``: the pieces
    of :func:`section_pieces` gathered into one array."""
    return _gathered(section_pieces(elements, coords), elements, len(coords))


def _gathered(pieces, elements, n: int) -> np.ndarray:
    """The pieces of a basis at n points gathered into one array."""
    j, l = elements[0].j, elements[0].l
    out = np.empty((len(elements), n, j.dim, l.dim), _dtype(j))
    flat = out.reshape(-1, j.dim, l.dim)
    i = 0
    for piece in pieces:
        flat[i:i + len(piece)] = piece
        i += len(piece)
    return out


def _steered_blocks(k, per, runs, step, out, work) -> Iterator[np.ndarray]:
    """``rho_j(g) K rho_l(g)^-1`` for a sequence of elements, given as
    ``runs`` of their representations ``(rho_j, rho_l^-1)`` (a list, or a
    generator such as :func:`_runs`), and the kernels ``k`` (n_k, dim_j, w,
    dim_l): n_k stacks of w kernels side by side, element i steering
    ``k[i // per]``.  Yields blocks (m, dim_j, w, dim_l) of ``step``
    elements of a run, the last of a run maybe shorter: per element one
    gemm rho_j K into the flat buffer ``work`` and one gemm with rho_l^-1,
    as the run holds it, into ``out``, each of ``step * k[0].size`` items.
    A run is dropped before the next one is drawn.  With w = 1 every kernel is the per-kernel product bit for
    bit; whole bases (w > 1) may round differently in the last bits.
    """
    dj, dl, size = k.shape[1], k.shape[-1], k[0].size
    start = 0
    for rho, rho_inv in runs:
        for i in range(0, len(rho), step):
            m = min(step, len(rho) - i)
            left = work[:m * size].reshape(m, dj, -1)
            for c in range((start + i) // per, (start + i + m - 1) // per + 1):
                a, b = max(i, c * per - start), min(i + m, (c + 1) * per - start)
                np.matmul(rho[a:b], k[c].reshape(dj, -1), out=left[a - i:b - i])
            right = np.matmul(left.reshape(m, -1, dl), rho_inv[i:i + m],
                              out=out[:m * size].reshape(m, -1, dl))
            yield right.reshape(m, dj, -1, dl)
        start += len(rho)
        del rho, rho_inv
