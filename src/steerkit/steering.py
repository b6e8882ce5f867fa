"""Steering engine.

Extends a base-point intertwiner over its orbit by the defining rule
``K(g . x0) = rho_j(g) K(x0) rho_l(g)^-1`` and evaluates kernels at orbit
points through the fixed coset section.  Well-definedness across section
choices is exactly the stabilizer constraint on the base-point matrix.

:func:`steer` is the one place that forms the product, for one element or a
stack of elements; :func:`kernels_at` and :func:`section_kernels` evaluate a
whole basis at a stack of points through it, chunk by chunk, and
:func:`kernel_at` is the element-by-element reference path.
"""

from __future__ import annotations

import numpy as np

from . import groups
from .groups import O3
from .irreps import (COMPLEX, REAL, IrrepError, IrrepLabel, rep_inverses,
                     rep_matrices)

#: Byte budget of the kernel stacks formed at a time: the batched paths
#: steer at most this many bytes of kernels per numpy call.
CHUNK_BYTES = 1 << 20


def chunk_length(item_bytes: int) -> int:
    """Number of items of ``item_bytes`` bytes that fit the chunk budget."""
    return max(1, CHUNK_BYTES // item_bytes)


def steer(k0: np.ndarray, j: IrrepLabel, l: IrrepLabel, g) -> np.ndarray:
    """``rho_j(g) @ k0 @ rho_l(g)^-1``.

    ``k0`` is one base-point kernel of shape ``(dim_j, dim_l)`` or a stack
    of them, shape ``(..., dim_j, dim_l)``.  ``g`` is one group element,
    which steers every kernel of the stack, or a stack of n elements given
    by their canonical parameters, shape ``(n, k)``: element i steers
    ``k0[..., i, :, :]`` (axis -3 of ``k0`` has length n or 1) and the
    result has shape ``(..., n, dim_j, dim_l)``.
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
        return steer(k0[..., None, :, :], j, l, [g.params])[..., 0, :, :]
    params = groups.parameter_stack(j.group, g)
    if params.ndim != 2:
        raise IrrepError(f"expected an (n, k) parameter stack, got shape "
                         f"{params.shape}")
    if j.group == O3 and j.field == REAL:
        # Parity elements have contiguous real O(3) matrices, the others
        # strided ones (see irreps.rep_matrices): steer each layout apart.
        flip = params[:, 3] < 0
        if flip.any() and not flip.all():
            own_axis = k0.ndim > 2 and k0.shape[-3] == len(params)
            parts = [(m, steer(k0[..., m, :, :] if own_axis else k0, j, l,
                               params[m])) for m in (flip, ~flip)]
            batch = np.broadcast_shapes(k0.shape[:-3], parts[0][1].shape[:-3])
            out = np.empty(batch + (len(params), j.dim, l.dim),
                           dtype=parts[0][1].dtype)
            for m, part in parts:
                out[..., m, :, :] = part
            return out
    return rep_matrices(j, params) @ k0 @ rep_inverses(l, params)


def kernel_at(elem, x: groups.OrbitPoint) -> np.ndarray:
    """Evaluate a basis element at an orbit point via the coset section.

    ``elem`` needs attributes ``j``, ``l``, ``orbit`` and ``base_matrix``.
    This is the element-by-element reference path; :func:`kernels_at`
    equals it bit for bit.
    """
    if x.orbit != elem.orbit:
        raise IrrepError(f"point on {x.orbit} does not match {elem.orbit}")
    g = groups.coset_representative(x, elem.j.group)
    return steer(elem.base_matrix, elem.j, elem.l, g)


def _check_basis(elements) -> None:
    if not elements:
        raise IrrepError("kernels_at needs at least one basis element")
    e0 = elements[0]
    if any((e.j, e.l, e.orbit) != (e0.j, e0.l, e0.orbit) for e in elements):
        raise IrrepError("basis elements must share j, l and the orbit; "
                         "they are steered as one stack")


def kernels_at(elements, points) -> np.ndarray:
    """Values of a basis at orbit points, shape
    ``(n_basis, n_points, dim_j, dim_l)``.

    The elements must share ``j``, ``l`` and the orbit; see
    :func:`section_kernels`.  Each slice equals :func:`kernel_at` bit for
    bit.
    """
    _check_basis(elements)
    orbit = elements[0].orbit
    for x in points:
        if x.orbit != orbit:
            raise IrrepError(f"point on {x.orbit} does not match {orbit}")
    coords = np.array([x.coords for x in points], dtype=float)
    return section_kernels(elements, coords.reshape(len(points), -1)
                           if len(points) else np.zeros((0, 1)))


def section_kernels(elements, coords) -> np.ndarray:
    """Values of a basis at a stack of points of its orbit given by their
    coordinates, shape (n, c) -> ``(n_basis, n, dim_j, dim_l)``.

    The coset sections of all points are computed at once, and the whole
    basis is steered by stacks of sections that fit the chunk budget, each
    written straight into the output.
    """
    _check_basis(elements)
    e0 = elements[0]
    j, l = e0.j, e0.l
    coords = np.asarray(coords, dtype=float)
    out = np.empty((len(elements), len(coords), j.dim, l.dim),
                   dtype=complex if j.field == COMPLEX else float)
    if not len(coords):
        return out
    params = groups.section_params(e0.orbit, coords, j.group)
    k0 = np.stack([e.base_matrix for e in elements])[:, None]
    step = chunk_length(out.itemsize * len(elements) * j.dim * l.dim)
    for i in range(0, len(params), step):
        out[:, i:i + step] = steer(k0, j, l, params[i:i + step])
    return out
