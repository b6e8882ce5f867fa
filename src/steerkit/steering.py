"""Steering engine.

Extends a base-point intertwiner over its orbit by the defining rule
``K(g . x0) = rho_j(g) K(x0) rho_l(g)^-1`` and evaluates kernels at orbit
points through the fixed coset section.  Well-definedness across section
choices is exactly the stabilizer constraint on the base-point matrix.

:func:`steer` is the one place that forms the product, for one element or a
stack of elements, into fresh arrays or into arrays the caller owns;
:func:`section_kernels` evaluates a whole basis at a stack of points through
it, writing chunk by chunk in place into the output with one work array per
call, and :func:`kernel_at` is the element-by-element reference path.
"""

from __future__ import annotations

import numpy as np

from . import groups
from .groups import LORENTZ
from .irreps import (COMPLEX, IrrepError, IrrepLabel, rep_inverses,
                     rep_matrices)

#: Byte budget of the kernel stacks formed at a time: the batched paths
#: steer at most this many bytes of kernels per numpy call.
CHUNK_BYTES = 1 << 20


def chunk_length(item_bytes: int) -> int:
    """Number of items of ``item_bytes`` bytes that fit the chunk budget."""
    return max(1, CHUNK_BYTES // item_bytes)


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
    rho = rep_matrices(j, params)
    if j == l and j.group != LORENTZ:
        # Compact inverses are conjugate transposes (see irreps.rep_inverses).
        rho_inv = rho.conj().swapaxes(-1, -2)
    else:
        rho_inv = rep_inverses(l, params)
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


def section_kernels(elements, coords, out=None, work=None) -> np.ndarray:
    """Values of a basis at a stack of points of its orbit given by their
    coordinates, shape (n, c) -> ``(n_basis, n, dim_j, dim_l)``.

    The coset sections of all points are computed at once, and the whole
    basis is steered by stacks of sections that fit the chunk budget, each
    written in place into the output through one work array per call.
    ``out`` and ``work``, when given, have the output's shape and dtype.
    """
    _check_basis(elements)
    e0 = elements[0]
    j, l = e0.j, e0.l
    coords = np.asarray(coords, dtype=float)
    shape = (len(elements), len(coords), j.dim, l.dim)
    dtype = complex if j.field == COMPLEX else float
    if out is None:
        out = np.empty(shape, dtype)
    _require_shape(shape, out, work)
    if not len(coords):
        return out
    params = groups.section_params(e0.orbit, coords, j.group)
    k0 = np.stack([e.base_matrix for e in elements])[:, None]
    step = chunk_length(out.itemsize * len(elements) * j.dim * l.dim)
    if work is None:
        work = np.empty(shape[:1] + (min(step, len(params)),) + shape[2:], dtype)
    for i in range(0, len(params), step):
        g = params[i:i + step]
        steer(k0, j, l, g, out=out[:, i:i + step], work=work[:, :len(g)])
    return out
