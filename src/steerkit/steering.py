"""Steering engine.

Extends a base-point intertwiner over its orbit by the defining rule
``K(g . x0) = rho_j(g) K(x0) rho_l(g)^-1`` and evaluates kernels at orbit
points through the fixed coset section.  Well-definedness across section
choices is exactly the stabilizer constraint on the base-point matrix.
"""

from __future__ import annotations

import numpy as np

from . import groups
from .irreps import IrrepError, IrrepLabel, rep_inverse, rep_matrix


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


def steer_residual(elem, g: groups.GroupElement, x: groups.OrbitPoint) -> float:
    """Relative defect of ``K(g.x) = rho_j(g) K(x) rho_l(g)^-1``."""
    kx = kernel_at(elem, x)
    kgx = kernel_at(elem, groups.act(g, x))
    steered = rep_matrix(elem.j, g) @ kx @ rep_inverse(elem.l, g)
    return float(np.linalg.norm(kgx - steered)
                 / max(1.0, np.linalg.norm(kx)))
