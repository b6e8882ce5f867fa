"""Dense reference oracle, for the tests only.

The library solves the stabilizer constraint block by block over the
weights of the rotations about z.  This is the direct route it replaced:
stack ``kron(rho_j(h), rho_l(h)^-T) - I`` over every sampled stabilizer
element h, for all dim_j * dim_l unknowns, and take the SVD nullspace of
the stack.  It costs far more, and it shares nothing with the library's
solve but the representation matrices and the SVD.  On the massive
hyperboloid it keeps its own, redundant sample: the rotations about z and
about y by 1 and by sqrt(2) each, where the library stacks one y rotation.
"""

import math

import numpy as np

from steerkit import groups, numerics
from steerkit.groups import MassiveHyperboloid, lorentz_element
from steerkit.irreps import rep_inverses, rep_matrices
from steerkit.stabilizer_solver import require_rank_gap


def constraint_stack(j, l, elements) -> np.ndarray:
    """The blocks ``kron(rho_j(h), rho_l(h)^-T) - I`` of a sequence of
    elements h stacked in order into one (n * d, d) matrix, d = dim_j *
    dim_l."""
    params = [h.params for h in elements]
    ops = numerics.kron(rep_matrices(j, params),
                        rep_inverses(l, params).swapaxes(-1, -2))
    n, d = len(ops), ops.shape[-1]
    # kron returns a fresh C-ordered stack: this reshape is a view, so the
    # diagonals are written in place.
    ops.reshape(n, d * d)[:, ::d + 1] -= 1.0
    return ops.reshape(n * d, d)


def reference_sample(orbit, group) -> tuple:
    """The stabilizer elements the dense reference stacks."""
    if isinstance(orbit, MassiveHyperboloid):
        angles = (1.0, math.sqrt(2.0))
        return (tuple(lorentz_element(t, 0.0, 0.0) for t in angles)
                + tuple(lorentz_element(0.0, t, 0.0) for t in angles))
    return groups.stabilizer_sample(orbit, group).elements


def dense_basis(j, l, orbit) -> np.ndarray:
    """Orthonormal basis of the intertwiner space at the base point, by the
    nullspace of the full constraint stack of :func:`reference_sample`."""
    basis, kept, dropped = numerics.nullspace_with_spectrum(
        constraint_stack(j, l, reference_sample(orbit, j.group)))
    require_rank_gap(kept, dropped, f" for {j} / {l} (dense)")
    return basis
