"""Numerical intertwiner oracle.

Solves the base-point constraint ``rho_j(h) K rho_l(h)^-1 = K`` for the
stabilizer H of the base point, block by block over the weights of the
rotations about z (the harmonic analysis on the stabilizer of Lang &
Weiler, arXiv:2010.10952).  The stabilizers of the sphere, the massive
hyperboloid and the null cone contain every rotation about z:

* The weight-m space of a label is the range of the projector ``P_m =
  (1/N) sum_k exp(-i m theta_k) rho(Rz(theta_k))``, theta_k = 4 pi k / N on
  [0, 4 pi) so that the half-integer weights of spinors show, N = 2 dim.
  The candidates m = -(dim-1)/2, ..., (dim-1)/2 in steps of 1/2 never alias.
  :func:`weight_bases` takes an orthonormal basis U_m of each range, once
  per label; a real label keeps m >= 0 only, as U_-m = conj(U_m).
* K commutes with the rotations about z iff ``K = sum_m U^j_m X_m
  U^l_m^H``: the unknowns are the blocks X_m of equal weight.  A real K
  has X_-m = conj(X_m), so real labels solve for the real and imaginary
  parts of X_m, m >= 0, in real arithmetic.
* Only the generators of H outside the rotations about z (see
  :func:`_generators`: the y rotation of the hyperboloid, the O(3)
  reflection) are stacked, on those unknowns.  Without such generators
  (the sphere under SO(3), the null cone) every X_m is free and no stack
  is built.

The circle's stabilizer has no rotations: it is the one weight-0 block U = I
on the same path, with the O(2) reflection as its one generator, and SO(2)
builds no stack.  Every spectrum the solve takes (the projector ranges and
the stack) must show a clean rank gap.  The computation uses the
representations at stabilizer elements only, never the closed-form bases or
the content tables; it is the independent cross-check for them.  What
depends on one label only (its weight bases and their images under the
stacked generators) is computed once per label and cached; per pair the
solve allocates the embedding and the stack once and writes the Kronecker
products of each weight block straight into its columns, then takes the
stack's nullspace.

:func:`solve_basepoint` returns the basis; :func:`oracle_dimension`, which
``steerkit dims`` prints, counts it from the values-only SVD of the same
stack, with the same rank cut and gap checks, and forms no singular vector
and no basis; without a stack it counts the free unknowns from the
dimensions of the weight blocks, and forms no embedding either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import groups, numerics
from .groups import Circle, GroupError, MassiveHyperboloid, Orbit
from .irreps import (COMPLEX, IrrepError, IrrepLabel, rep_matrices,
                     rep_pair, stabilizer_content)

#: Minimum ratio between the smallest kept and largest dropped singular
#: value; anything smaller means the rank detection is not trustworthy.
GAP_RATIO = 1e6

#: The angle of the massive hyperboloid's y rotation generator.  Any angle
#: but 0 or pi modulo 2 pi generates SO(3) with the rotations about z.
Y_ANGLE = math.sqrt(2.0)


class DegenerateSpectrumError(RuntimeError):
    """Singular-value gap too small to declare the nullspace dimension."""


@dataclass(frozen=True, eq=False)
class IntertwinerSpace:
    """Solution space of the base-point constraint.

    ``basis`` columns are row-major vectorized kernels; ``matrices()``
    reshapes them back to dim_j x dim_l.  ``gap_ratio`` is the smallest
    ratio of the smallest kept to the largest dropped singular value over
    the spectra of the solve (infinite when none has a dropped value).
    """

    j: IrrepLabel
    l: IrrepLabel
    orbit: Orbit
    basis: np.ndarray
    gap_ratio: float

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


def require_rank_gap(kept: np.ndarray, dropped: np.ndarray,
                     context: str = "") -> float:
    """Reject spectra where the kept/dropped split is not clean.

    A silent rank misdetection would poison every downstream count, so a
    ratio below :data:`GAP_RATIO` between the smallest kept and the largest
    dropped singular value raises instead of guessing.  Returns the ratio,
    infinite when either side is empty or the dropped values are zeros.
    """
    if not (kept.size and dropped.size and dropped[0] > 0.0):
        return math.inf
    ratio = kept[-1] / dropped[0]
    if ratio < GAP_RATIO:
        raise DegenerateSpectrumError(
            f"singular-value gap {kept[-1]:.3e}/{dropped[0]:.3e} below "
            f"{GAP_RATIO:.0e}{context}")
    return float(ratio)


@lru_cache(maxsize=None)
def weight_bases(label: IrrepLabel) -> tuple[MappingProxyType, float]:
    """Orthonormal bases of the weight spaces of the rotations about z.

    Returns ``(bases, gap_ratio)``: ``bases`` maps twice the weight, an
    int, to a read-only (dim, n) matrix for every weight present, and
    ``gap_ratio`` is the smallest over the projectors' spectra.  A real
    label keeps the weights m >= 0 only (P_-m = conj(P_m)), with a real U_0
    from Re P_0.  For SO(3), O(3) and Lorentz labels, whose orbits have
    every rotation about z in their stabilizers.
    """
    d = label.dim
    n = 2 * d
    real = label.field != COMPLEX
    params = np.tile(groups.IDENTITY[label.group], (n, 1))
    params[:, 0] = 4.0 * math.pi * np.arange(n) / n
    rho = rep_matrices(label, params).reshape(n, d * d)
    twice = np.arange(0 if real else 1 - d, d)
    # exp(-i m theta_k) = exp(-2 pi i (2m) k / n), the exponent reduced mod n
    phases = np.exp(-2j * math.pi * (np.outer(twice, np.arange(n)) % n) / n)
    projectors = (phases @ rho / n).reshape(len(twice), d, d)
    bases, gap, rank = {}, math.inf, 0
    for m2, p in zip(twice.tolist(), projectors):
        u, kept, dropped = numerics.range_with_spectrum(
            p.real if real and m2 == 0 else p)
        gap = min(gap, require_rank_gap(
            kept, dropped, f" for the weight {m2}/2 projector of {label}"))
        if u.shape[1]:
            u.flags.writeable = False
            bases[m2] = u
            rank += u.shape[1] * (2 if real and m2 else 1)
    if rank != d:
        raise DegenerateSpectrumError(
            f"the weight spaces of {label} have {rank} dimensions, not {d}")
    return MappingProxyType(bases), gap


@lru_cache(maxsize=None)
def _label_factors(label: IrrepLabel, params: tuple) -> tuple:
    """What the solve needs of one label, whatever it is paired with.

    ``params`` are the stacked stabilizer generators (see
    :func:`_generators`).  Returns ``(bases, conj_bases, images,
    inverse_images, gap_ratio)``: the weight bases U_m keyed by twice the
    weight (U = I on the circle), their conjugates, ``rho(h) U_m`` and
    ``rho(h)^-T conj(U_m)`` stacked over the generators (empty without
    generators), and the gap ratio of :func:`weight_bases`.  Cached like
    :func:`weight_bases`, on the generators' parameters rather than the
    orbit, so that radius and mass do not split it; every array is
    read-only.
    """
    if label.group in groups.ORBIT_GROUPS[Circle]:
        # Complex, for a complex label: its reps may all be real (O(2) j = 0
        # and 0~), and its basis must still be complex.
        dtype = complex if label.field == COMPLEX else float
        bases, gap = {0: np.eye(label.dim, dtype=dtype)}, math.inf
    else:
        bases, gap = weight_bases(label)
    conj = {m: u.conj() for m, u in bases.items()}
    images, inverse_images = {}, {}
    if params:
        rho, rho_inv = rep_pair(label, label, params)
        rho_inv_t = rho_inv.swapaxes(-1, -2)
        images = {m: rho @ u for m, u in bases.items()}
        inverse_images = {m: rho_inv_t @ u for m, u in conj.items()}
    factors = (bases, conj, images, inverse_images)
    for part in factors:
        for a in part.values():
            a.flags.writeable = False
    return tuple(map(MappingProxyType, factors)) + (gap,)


def _generators(j: IrrepLabel, l: IrrepLabel, orbit: Orbit) -> tuple:
    """Parameters of the generators of the base point's stabilizer H that
    a pair's solve stacks: those that, with the rotations about z, generate
    H.  On the circle H is trivial under SO(2) (none) and {1, r_y} under
    O(2) (the reflection r_y).  On the sphere H is SO(2)_z under SO(3)
    (none) and O(2)_z under O(3) (r_y = parity * R_y(pi)).  On the massive
    hyperboloid H is SO(3) (R_y(:data:`Y_ANGLE`)): the closed subgroups of
    SO(3) that contain SO(2)_z are SO(2)_z, O(2)_z and SO(3), the first two
    holding R_y(t) only for t = 0 or pi modulo 2 pi.  On the null cone only
    SO(2)_z is imposed (none): the null rotations of its stabilizer ISO(2)
    are not."""
    return _stabilizer_generators(orbit, _check_pair(j, l, orbit))


@lru_cache(maxsize=None)
def _stabilizer_generators(orbit: Orbit, group: str) -> tuple:
    # Built and checked once per orbit and group.
    if group == groups.O2:
        params = ((0.0, -1.0),)
    elif group == groups.O3:
        params = ((0.0, math.pi, 0.0, -1.0),)
    elif isinstance(orbit, MassiveHyperboloid):
        if math.remainder(Y_ANGLE, math.pi) == 0.0:
            raise GroupError(
                f"the y rotation by {Y_ANGLE!r} of the hyperboloid's "
                f"stabilizer lies in O(2)_z, so the generators do not "
                f"generate SO(3)")
        params = ((0.0, Y_ANGLE, 0.0, 0.0, 0.0, 0.0),)
    else:
        params = ()
    # Checked in units of the base point's largest entry: radius and mass
    # set no scale for the stabilizer, and a norm of x0 could overflow.
    x0 = groups.base_point(orbit).vector
    x0 = x0 / np.abs(x0).max()
    for p in params:
        if np.linalg.norm(groups.matrices(group, p) @ x0 - x0) > 1e-11:
            raise GroupError(f"the {group} stabilizer generator {p} moves "
                             f"the base point")
    return params


def _block(out: np.ndarray, at: int, a: np.ndarray,
           b: np.ndarray) -> np.ndarray:
    """The columns of ``out`` from ``at`` on that hold kron(a, b), as a
    (..., ra, rb, ca, cb) view.  Setting ``shape`` raises where numpy would
    have to copy, so no write to the view can be lost."""
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    v = out[..., at:at + ca * cb].view()
    v.shape = out.shape[:-2] + (ra, rb, ca, cb)
    return v


def _unknowns(j: IrrepLabel, l: IrrepLabel, params: tuple) -> tuple:
    """The weights both labels have, and the number of the pair's
    unknowns: n_j(m) n_l(m) summed over those weights, twice for m > 0
    over the reals.  A weight of j missing from l has no unknowns."""
    uj, ul = _label_factors(j, params)[0], _label_factors(l, params)[0]
    real = j.field != COMPLEX
    shared = [m for m in uj if m in ul]
    return shared, sum(uj[m].shape[1] * ul[m].shape[1]
                       * (2 if real and m else 1) for m in shared)


def _constraint(j: IrrepLabel, l: IrrepLabel, params: tuple) -> tuple:
    """The base-point constraint of a pair on its equal-weight unknowns.

    ``params`` are the pair's :func:`_generators`.  Returns ``(embed,
    stack, gap_ratio)``: ``embed`` maps the unknowns to row-major
    vectorized kernels (orthonormal columns), ``stack`` is the constraint
    ``rho_j(h) K rho_l(h)^-1 - K`` on them stacked over the generators
    (None when there are none), and ``gap_ratio`` is that of the weight
    bases.  Each array is allocated once, at its final size: every weight
    block writes its Kronecker products straight into its own columns, and
    ``embed`` is subtracted from the stack in place.
    """
    uj, _, rho_uj, _, gap_j = _label_factors(j, params)
    _, ul, _, rho_ul, gap_l = _label_factors(l, params)
    real = j.field != COMPLEX
    # A real K has X_-m = conj(X_m): a column c of weight m > 0 stands for
    # c + conj(c), whose real, orthonormal parts are sqrt(2) Re c and
    # sqrt(2) Im c.
    shared, n = _unknowns(j, l, params)

    def fill(out, left, right):
        # vec(U_j X U_l^H) = kron(U_j, conj(U_l)) vec(X), row-major: each
        # entry is one product, as in np.kron.
        at = 0
        for m in shared:
            a, b = left[m], right[m]
            terms = [(a[..., :, None, :, None], b[..., None, :, None, :])]
            if real and m:
                c = np.multiply(*terms[0])
                terms = [(c.real, math.sqrt(2.0)), (c.imag, math.sqrt(2.0))]
            for x, y in terms:
                np.multiply(x, y, out=_block(out, at, a, b))
                at += a.shape[-1] * b.shape[-1]

    dtype = float if real else complex
    embed = np.empty((j.dim * l.dim, n), dtype)
    fill(embed, uj, ul)
    gap = min(gap_j, gap_l)
    if not params:
        return embed, None, gap
    stack = np.empty((len(params),) + embed.shape, dtype)
    fill(stack, rho_uj, rho_ul)
    stack -= embed
    return embed, stack.reshape(len(params) * len(embed), n), gap


def solve_basepoint(j: IrrepLabel, l: IrrepLabel,
                    orbit: Orbit) -> IntertwinerSpace:
    """Full intertwiner space Hom_H(V_l, V_j) at the orbit base point.

    Real labels get a real basis, complex labels a complex one.  Raises
    :class:`DegenerateSpectrumError` when a singular-value spectrum of the
    solve carries no clean rank gap.
    """
    embed, stack, gap = _constraint(j, l, _generators(j, l, orbit))
    if stack is None:
        return IntertwinerSpace(j, l, orbit, embed, gap)
    x, kept, dropped = numerics.nullspace_with_spectrum(stack)
    gap = min(gap, require_rank_gap(kept, dropped, f" for {j} / {l}"))
    return IntertwinerSpace(j, l, orbit, embed @ x, gap)


def oracle_dimension(j: IrrepLabel, l: IrrepLabel, orbit: Orbit) -> int:
    """``solve_basepoint(j, l, orbit).dimension`` without forming the basis.

    The count is taken from the singular values of the same stack, with the
    same rank cut and the same gap checks: no singular vector, sign fixing
    or basis product.  Without a stack, every equal-weight block is free
    and the count is that of the unknowns (see :func:`_unknowns`), without
    forming the embedding.  Raises :class:`DegenerateSpectrumError` where
    :func:`solve_basepoint` does.
    """
    params = _generators(j, l, orbit)
    if not params:
        return _unknowns(j, l, params)[1]
    _, stack, _ = _constraint(j, l, params)
    k, kept, dropped = numerics.nullity_with_spectrum(stack)
    require_rank_gap(kept, dropped, f" for {j} / {l}")
    return k


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
