"""Numerical intertwiner oracle.

Solves the base-point constraint ``rho_j(h) K rho_l(h)^-1 = K`` over the
sampled stabilizer generators by stacking the vectorized operators
``kron(rho_j(h), rho_l(h)^-T) - I`` and extracting the joint nullspace.  The
computation knows nothing about the closed-form bases; it is the independent
cross-check for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups, numerics
from .groups import MassiveHyperboloid, Orbit
from .irreps import (COMPLEX, REAL, IrrepError, IrrepLabel,
                     massive_spin_content, massless_weight_content,
                     rep_inverse, rep_matrix)

#: Minimum ratio between the smallest kept and largest dropped singular
#: value; anything smaller means the rank detection is not trustworthy.
GAP_RATIO = 1e6

DEFAULT_TOL = 1e-9


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


def constraint_operator(j: IrrepLabel, l: IrrepLabel, h) -> np.ndarray:
    """Vectorized stabilizer constraint for one element h."""
    rj = rep_matrix(j, h)
    rli = rep_inverse(l, h)
    op = numerics.kron(rj, rli.T)
    return op - np.eye(op.shape[0])

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


def solve_basepoint(j: IrrepLabel, l: IrrepLabel, orbit: Orbit,
                    tol: float = DEFAULT_TOL) -> IntertwinerSpace:
    """Full intertwiner space Hom_H(V_l, V_j) at the orbit base point.

    Real labels are solved over the reals, complex labels over the complex
    numbers.  Raises :class:`DegenerateSpectrumError` when the singular-value
    spectrum carries no clean rank gap.
    """
    group = _check_pair(j, l, orbit)
    sample = groups.stabilizer_sample(orbit, group)
    ops = [constraint_operator(j, l, h) for h in sample.elements]
    stack = np.vstack(ops)
    basis, kept, dropped = numerics.nullspace_with_spectrum(stack, tol)
    require_rank_gap(kept, dropped, f" for {j} / {l}")
    return IntertwinerSpace(j, l, orbit, basis)


def predicted_dimension(j: IrrepLabel, l: IrrepLabel, orbit: Orbit) -> int:
    """Closed-form dimension of the base-point intertwiner space."""
    group = _check_pair(j, l, orbit)
    if group == groups.SO2:
        if j.field == COMPLEX:
            return 1
        trivial = (j.j == 0, l.j == 0)
        return {(True, True): 1, (True, False): 2, (False, True): 2,
                (False, False): 4}[trivial]
    if group == groups.O2:
        # r_y forces the signs to match on the 1-dim reps and pairs the
        # off-diagonal weights on the 2-dim ones; both fields count alike.
        j1, l1 = j.j == 0 or j.tilde, l.j == 0 or l.tilde
        if j1 and l1:
            return 1 if j.tilde == l.tilde else 0
        if j1 or l1:
            return 1
        return 2
    if group == groups.SO3:
        return 2 * min(j.j, l.j) + 1
    if group == groups.O3:
        same = j.parity == l.parity
        return min(j.j, l.j) + (1 if same else 0)
    # Lorentz
    if isinstance(orbit, MassiveHyperboloid):
        cj = massive_spin_content(j)
        cl = massive_spin_content(l)
        total = 0
        for spin, nj in cj.items():
            nl = cl.get(spin, 0)
            if nl == 0:
                continue
            half_integer = spin.denominator == 2
            schur = 1
            if half_integer:
                # quaternionic commutant over the reals, complex line over C
                schur = 4 if (j.realified or j.field == REAL) else 1
            total += nj * nl * schur
        return total
    cj = massless_weight_content(j)
    cl = massless_weight_content(l)
    return sum(n * cl.get(m, 0) for m, n in cj.items())

