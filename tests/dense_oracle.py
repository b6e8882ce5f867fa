"""Dense reference oracle, for the tests only.

The library solves the stabilizer constraint block by block over the
weights of the rotations about z.  This is the direct route it replaced:
stack ``kron(rho_j(h), rho_l(h)^-T) - I`` over every sampled stabilizer
element h, for all dim_j * dim_l unknowns, and take the SVD nullspace of
the stack.  It costs far more, and it shares nothing with the library's
solve but the representation matrices and the SVD.  It keeps its own,
redundant sample of every stabilizer, and shares no choice of generators
with the library, which imposes the rotations about z through its weight
blocks and the rest of the massive stabilizer through the ladder rows of
one generator rather than a finite rotation.
"""

import math

import numpy as np

from steerkit import numerics
from steerkit.groups import Circle, MassiveHyperboloid, Sphere
from steerkit.irreps import rep_pair
from steerkit.stabilizer_solver import require_rank_gap


def constraint_stack(j, l, elements) -> np.ndarray:
    """The blocks ``kron(rho_j(h), rho_l(h)^-T) - I`` of a sequence of
    elements h, given by their parameters, stacked in order into one
    (n * d, d) matrix, d = dim_j * dim_l."""
    ops = numerics.kron(rep_pair(j, j, elements)[0],
                        rep_pair(l, l, elements)[1].swapaxes(-1, -2))
    n, d = len(ops), ops.shape[-1]
    # kron returns a fresh C-ordered stack: this reshape is a view, so the
    # diagonals are written in place.
    ops.reshape(n, d * d)[:, ::d + 1] -= 1.0
    return ops.reshape(n * d, d)


def reference_sample(orbit, group) -> tuple:
    """Parameters of the stabilizer elements the dense reference stacks: the
    identity, and the reflection r_y under O(2), on the circle; the
    rotations about z by 1 and by sqrt(2) elsewhere, with r_y = parity *
    R_y(pi) under O(3) and the rotations about y by 1 and by sqrt(2) on the
    massive hyperboloid."""
    angles = (1.0, math.sqrt(2.0))
    if isinstance(orbit, Circle):
        if group == "so2":
            return ((0.0,),)
        return (0.0, 1.0), (0.0, -1.0)
    if isinstance(orbit, Sphere):
        if group == "so3":
            return tuple((t, 0.0, 0.0) for t in angles)
        return (tuple((t, 0.0, 0.0, 1.0) for t in angles)
                + ((0.0, math.pi, 0.0, -1.0),))
    about_z = tuple((t, 0.0, 0.0, 0.0, 0.0, 0.0) for t in angles)
    if isinstance(orbit, MassiveHyperboloid):
        return about_z + tuple((0.0, t, 0.0, 0.0, 0.0, 0.0) for t in angles)
    return about_z


def dense_basis(j, l, orbit) -> np.ndarray:
    """Orthonormal basis of the intertwiner space at the base point, by the
    nullspace of the full constraint stack of :func:`reference_sample`."""
    basis, kept, dropped = numerics.nullspace_with_spectrum(
        constraint_stack(j, l, reference_sample(orbit, j.group)))
    require_rank_gap(kept, dropped, f" for {j} / {l} (dense)")
    return basis
