"""Dense reference oracle, for the tests only.

The library solves the stabilizer constraint block by block over the
weights of the rotations about z.  This is the direct route it replaced:
stack ``kron(rho_j(h), rho_l(h)^-T) - I`` over every sampled stabilizer
element h, for all dim_j * dim_l unknowns, and take the SVD nullspace of
the stack.  It costs far more, and it shares nothing with the library's
solve but the representation matrices and the SVD.
"""

import numpy as np

from steerkit import groups, numerics
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


def dense_basis(j, l, orbit) -> np.ndarray:
    """Orthonormal basis of the intertwiner space at the base point, by the
    nullspace of the full constraint stack of the stabilizer sample."""
    sample = groups.stabilizer_sample(orbit, j.group)
    basis, kept, dropped = numerics.nullspace_with_spectrum(
        constraint_stack(j, l, sample.elements))
    require_rank_gap(kept, dropped, f" for {j} / {l} (dense)")
    return basis
