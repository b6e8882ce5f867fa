"""Numerical intertwiner oracle.

Solves the base-point constraint ``rho_j(h) K rho_l(h)^-1 = K`` over the
sampled stabilizer generators by stacking the vectorized operators
``kron(rho_j(h), rho_l(h)^-T) - I`` into one matrix and extracting its
nullspace.  The computation knows nothing about the closed-form bases; it is
the independent cross-check for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups, numerics
from .groups import Orbit
from .irreps import (IrrepError, IrrepLabel, rep_inverses, rep_matrices,
                     stabilizer_content)

#: Minimum ratio between the smallest kept and largest dropped singular
#: value; anything smaller means the rank detection is not trustworthy.
GAP_RATIO = 1e6


class DegenerateSpectrumError(RuntimeError):
    """Singular-value gap too small to declare the nullspace dimension."""


@dataclass(frozen=True, eq=False)
class IntertwinerSpace:
    """Solution space of the base-point constraint.

    ``basis`` columns are row-major vectorized kernels; ``matrices()``
    reshapes them back to dim_j x dim_l.
    """

    j: IrrepLabel
    l: IrrepLabel
    orbit: Orbit
    basis: np.ndarray

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]

    def matrices(self) -> list[np.ndarray]:
        dj, dl = self.j.dim, self.l.dim
        return [self.basis[:, k].reshape(dj, dl) for k in range(self.dimension)]


def _check_pair(j: IrrepLabel, l: IrrepLabel, orbit: Orbit) -> str:
    if j.group != l.group:
        raise IrrepError(f"labels from different groups: {j} vs {l}")
    if j.field != l.field:
        raise IrrepError(f"labels over different fields: {j} vs {l}")
    if j.group not in groups.ORBIT_GROUPS.get(type(orbit), ()):
        raise IrrepError(f"{j.group} labels do not live on {type(orbit).__name__}")
    return j.group


def constraint_operator(j: IrrepLabel, l: IrrepLabel, elements) -> np.ndarray:
    """Vectorized stabilizer constraints of a sequence of elements h, the
    blocks ``kron(rho_j(h), rho_l(h)^-T) - I`` stacked in order into one
    (n * d, d) matrix, d = dim_j * dim_l."""
    params = [h.params for h in elements]
    ops = numerics.kron(rep_matrices(j, params),
                        rep_inverses(l, params).swapaxes(-1, -2))
    n, d = len(ops), ops.shape[-1]
    # kron returns a fresh C-ordered stack: this reshape is a view, so the
    # diagonals are written in place.
    ops.reshape(n, d * d)[:, ::d + 1] -= 1.0
    return ops.reshape(n * d, d)


def require_rank_gap(kept: np.ndarray, dropped: np.ndarray,
                     context: str = "") -> None:
    """Reject spectra where the kept/dropped split is not clean.

    A silent rank misdetection would poison every downstream count, so a
    ratio below :data:`GAP_RATIO` between the smallest kept and the largest
    dropped singular value raises instead of guessing.
    """
    if kept.size and dropped.size and dropped[0] > 0.0:
        if kept[-1] / dropped[0] < GAP_RATIO:
            raise DegenerateSpectrumError(
                f"singular-value gap {kept[-1]:.3e}/{dropped[0]:.3e} below "
                f"{GAP_RATIO:.0e}{context}")


def solve_basepoint(j: IrrepLabel, l: IrrepLabel,
                    orbit: Orbit) -> IntertwinerSpace:
    """Full intertwiner space Hom_H(V_l, V_j) at the orbit base point.

    Real labels are solved over the reals, complex labels over the complex
    numbers.  Raises :class:`DegenerateSpectrumError` when the singular-value
    spectrum carries no clean rank gap.
    """
    group = _check_pair(j, l, orbit)
    sample = groups.stabilizer_sample(orbit, group)
    stack = constraint_operator(j, l, sample.elements)
    basis, kept, dropped = numerics.nullspace_with_spectrum(stack)
    require_rank_gap(kept, dropped, f" for {j} / {l}")
    return IntertwinerSpace(j, l, orbit, basis)


def predicted_dimension(j: IrrepLabel, l: IrrepLabel, orbit: Orbit) -> int:
    """Closed-form dimension of the base-point intertwiner space.

    By Schur's lemma, the sum over the stabilizer irreps sigma of
    ``n_j[sigma] * n_l[sigma]`` (see :func:`irreps.stabilizer_content`);
    ``dim_R Hom_H(V, W) = dim_C Hom_H(V_C, W_C)``, so one count serves both
    fields.
    """
    _check_pair(j, l, orbit)
    cj, cl = stabilizer_content(j, orbit), stabilizer_content(l, orbit)
    return sum(n * cl[sigma] for sigma, n in cj.items())
