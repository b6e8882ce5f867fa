"""Steering engine.

Extends a base-point intertwiner over its orbit by the defining rule
``K(g . x0) = rho_j(g) K(x0) rho_l(g)^-1`` and evaluates kernels at orbit
points through the fixed coset section.  Well-definedness across section
choices is exactly the stabilizer constraint on the base-point matrix.

:func:`steer` is the one place that forms the product; :func:`kernels_at`
evaluates a whole basis at a list of points through it, and
:func:`kernel_at` is the single-element reference path.
"""

from __future__ import annotations

import numpy as np

from . import groups
from .irreps import COMPLEX, IrrepError, IrrepLabel, rep_inverse, rep_matrix


def steer(k0: np.ndarray, j: IrrepLabel, l: IrrepLabel,
          g: groups.GroupElement) -> np.ndarray:
    """``rho_j(g) @ k0 @ rho_l(g)^-1``.

    ``k0`` is one base-point kernel of shape ``(dim_j, dim_l)`` or a stack
    of them, shape ``(..., dim_j, dim_l)``; every kernel in the stack is
    steered by the same representation matrices.
    """
    k0 = np.asarray(k0)
    if k0.shape[-2:] != (j.dim, l.dim):
        raise IrrepError(
            f"kernel shape {k0.shape} does not match ({j.dim}, {l.dim})")
    return rep_matrix(j, g) @ k0 @ rep_inverse(l, g)


def kernel_at(elem, x: groups.OrbitPoint) -> np.ndarray:
    """Evaluate a basis element at an orbit point via the coset section.

    ``elem`` needs attributes ``j``, ``l``, ``orbit`` and ``base_matrix``.
    """
    if x.orbit != elem.orbit:
        raise IrrepError(f"point on {x.orbit} does not match {elem.orbit}")
    g = groups.coset_representative(x, elem.j.group)
    return steer(elem.base_matrix, elem.j, elem.l, g)


def kernels_at(elements, points) -> np.ndarray:
    """Values of a basis at orbit points, shape
    ``(n_basis, n_points, dim_j, dim_l)``.

    The elements share ``j``, ``l`` and the orbit.  One coset section and one
    steer per point: the representation factors depend on the point only,
    so the whole basis is steered as one stack.  Each slice equals
    :func:`kernel_at` bit for bit.
    """
    e0 = elements[0]
    k0 = np.stack([e.base_matrix for e in elements])
    out = np.zeros((len(elements), len(points), e0.j.dim, e0.l.dim),
                   dtype=complex if e0.j.field == COMPLEX else float)
    for p, x in enumerate(points):
        if x.orbit != e0.orbit:
            raise IrrepError(f"point on {x.orbit} does not match {e0.orbit}")
        g = groups.coset_representative(x, e0.j.group)
        out[:, p] = steer(k0, e0.j, e0.l, g)
    return out
