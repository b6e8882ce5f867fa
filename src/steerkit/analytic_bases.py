"""Closed-form steerable kernel bases.

Every basis element stores its base-point intertwiner; ``steering`` evaluates
it anywhere on the orbit through the fixed coset section.  The base-point
matrices are the canonical solutions of the stabilizer constraint:

* SO(2): the full matrix space (trivial stabilizer), canonical units E_ab.
* O(2): the diagonal units surviving the reflection constraint.
* SO(3): weight-matched units |j m><l m| (complex) or the identity/J pairs on
  the +-m real subspaces.
* O(3): the parity-compatible symmetric / antisymmetric combinations of the
  SO(3) solutions.
* Lorentz, massive orbit: products of slot embeddings, which steer to the
  familiar covariant projectors (u u, the transverse Delta, its symmetric
  traceless square, energy projectors and the spin-3/2 projector); the
  spin-1/2 and 3/2 families carry the four invariant maps {1, i, C, iC} and
  live on the realified spinor spaces, where the antilinear charge
  conjugation is an ordinary real matrix.
* Lorentz, null cone: the transverse projector built from the null pair
  (n, nbar) and its spin-2 combination; nbar is a gauge choice, fixed at the
  base point to (1, 0, 0, -1)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import groups
from .groups import (ETA, LORENTZ, O2, O3, SO2, SO3, Circle,
                     MassiveHyperboloid, NullCone, Orbit, Sphere)
from .irreps import (CHARGE_CONJUGATION, COMPLEX, DIRAC, GAMMA, REAL, SLOTS,
                     SPINOR_VECTOR, IrrepError, IrrepLabel, check_pair,
                     o2_irrep, o3_irrep, realify, realify_antilinear,
                     so2_irrep, so3_irrep, tensor_irrep, tensor_slots)

#: Auxiliary null vector at the cone base point; n0 . nbar0 = 1.
NBAR0 = np.array([0.5, 0.0, 0.0, -0.5])

#: Transverse polarization 4-vectors at the cone base point.
TRANSVERSE0 = (np.array([0.0, 1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0]))


@dataclass(frozen=True, eq=False)
class KernelBasisElement:
    """One steerable-kernel basis element, given by its base-point matrix;
    ``steering.kernel_at`` and ``section_kernels`` evaluate it."""

    j: IrrepLabel
    l: IrrepLabel
    orbit: Orbit
    kind: str
    base_matrix: np.ndarray

    @property
    def group(self) -> str:
        return self.j.group

    def __repr__(self) -> str:
        return f"KernelBasisElement({self.j}, {self.l}, {self.kind})"


def _element(j, l, orbit, kind, k0) -> KernelBasisElement:
    k0 = np.asarray(k0)
    if k0.shape != (j.dim, l.dim):
        raise IrrepError(f"base matrix shape {k0.shape} != ({j.dim}, {l.dim})")
    k0 = k0.copy()
    k0.flags.writeable = False
    return KernelBasisElement(j, l, orbit, kind, k0)


# ---------------------------------------------------------------------------
# SO(2) and O(2)

def basis_so2(j: int, l: int, field: str = REAL,
              radius: float = 1.0) -> list[KernelBasisElement]:
    """SO(2) basis: one complex element, or 1/2/4 canonical real units."""
    orbit = Circle(radius)
    lj, ll = so2_irrep(j, field), so2_irrep(l, field)
    if field == COMPLEX:
        return [_element(lj, ll, orbit, "unit", np.array([[1.0 + 0j]]))]
    out = []
    if j == 0 and l == 0:
        out.append(_element(lj, ll, orbit, "unit", [[1.0]]))
    elif j == 0:
        out.append(_element(lj, ll, orbit, "e1", [[1.0, 0.0]]))
        out.append(_element(lj, ll, orbit, "e2", [[0.0, 1.0]]))
    elif l == 0:
        out.append(_element(lj, ll, orbit, "e1", [[1.0], [0.0]]))
        out.append(_element(lj, ll, orbit, "e2", [[0.0], [1.0]]))
    else:
        for kind, (r, c) in (("E11", (0, 0)), ("E12", (0, 1)),
                             ("E21", (1, 0)), ("E22", (1, 1))):
            k0 = np.zeros((2, 2))
            k0[r, c] = 1.0
            out.append(_element(lj, ll, orbit, kind, k0))
    return out


def basis_o2(j, l, field: str = REAL, radius: float = 1.0) -> list[KernelBasisElement]:
    """O(2) basis; ``j``/``l`` are integers >= 0 or '0~' for the sign rep.

    The reflection r_y in the stabilizer kills everything except: matching
    1-dimensional labels, one vector component for (0, l) and (0~, l), and
    the diagonal units for (j, l).
    """
    orbit = Circle(radius)
    lj, ll = o2_irrep(j, field), o2_irrep(l, field)
    one_j, one_l = lj.dim == 1, ll.dim == 1
    out = []
    if one_j and one_l:
        if lj.tilde != ll.tilde:
            return []
        unit = np.ones((1, 1), complex if field == COMPLEX else float)
        return [_element(lj, ll, orbit, "unit", unit)]
    if one_j or one_l:
        # r_y acts as +1 on the first real component (cosine-like) and -1 on
        # the second; the sign rep picks the other one.  Complex basis: the
        # respective symmetric / antisymmetric weight combinations.
        tilde = lj.tilde if one_j else ll.tilde
        if field == COMPLEX:
            v = np.array([[1.0, -1.0]]) if tilde else np.array([[1.0, 1.0]])
            v = v.astype(complex)
        else:
            v = np.array([[0.0, 1.0]]) if tilde else np.array([[1.0, 0.0]])
        k0 = v if one_j else v.T
        return [_element(lj, ll, orbit, "0~" if tilde else "0", k0)]
    if field == COMPLEX:
        out.append(_element(lj, ll, orbit, "I", np.eye(2, dtype=complex)))
        out.append(_element(lj, ll, orbit, "sigma1",
                            np.array([[0, 1], [1, 0]], dtype=complex)))
    else:
        out.append(_element(lj, ll, orbit, "E11", np.diag([1.0, 0.0])))
        out.append(_element(lj, ll, orbit, "E22", np.diag([0.0, 1.0])))
    return out


# ---------------------------------------------------------------------------
# SO(3) and O(3)

def _weight_unit_complex(j: int, l: int, mj: int, ml: int) -> np.ndarray:
    """|j mj><l ml| in the m-descending complex harmonic bases."""
    k0 = np.zeros((2 * j + 1, 2 * l + 1), dtype=complex)
    k0[j - mj, l - ml] = 1.0
    return k0


def _real_pair_units(j: int, l: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Identity-like and J-like units on the +-m real-harmonic subspaces."""
    t_id = np.zeros((2 * j + 1, 2 * l + 1))
    t_j = np.zeros((2 * j + 1, 2 * l + 1))
    c, s = 2 * m - 1, 2 * m  # cosine / sine harmonic rows
    t_id[c, c] = 1.0
    t_id[s, s] = 1.0
    t_j[s, c] = 1.0
    t_j[c, s] = -1.0
    return t_id, t_j


def basis_so3(j: int, l: int, field: str = REAL,
              radius: float = 1.0) -> list[KernelBasisElement]:
    """SO(3) basis of 2 min(j, l) + 1 elements on a sphere orbit."""
    orbit = Sphere(radius)
    lj, ll = so3_irrep(j, field), so3_irrep(l, field)
    mmax = min(j, l)
    out = []
    if field == COMPLEX:
        for m in range(-mmax, mmax + 1):
            out.append(_element(lj, ll, orbit, f"m={m}",
                                _weight_unit_complex(j, l, m, m)))
        return out
    k0 = np.zeros((2 * j + 1, 2 * l + 1))
    k0[0, 0] = 1.0
    out.append(_element(lj, ll, orbit, "m=0", k0))
    for m in range(1, mmax + 1):
        t_id, t_j = _real_pair_units(j, l, m)
        out.append(_element(lj, ll, orbit, f"(m={m},I)", t_id))
        out.append(_element(lj, ll, orbit, f"(m={m},J)", t_j))
    return out


def basis_o3(j: int, parity_j: int, l: int, parity_l: int, field: str = REAL,
             radius: float = 1.0) -> list[KernelBasisElement]:
    """O(3) basis: min+1 elements for matching parities, min otherwise.

    Same-sign pairs keep the symmetric weight combinations (the m = 0 unit
    and the identity-like pairs); opposite signs keep the antisymmetric
    sigma_3 / J-like ones, for which the m = 0 combination vanishes
    identically.
    """
    orbit = Sphere(radius)
    lj = o3_irrep(j, parity_j, field)
    ll = o3_irrep(l, parity_l, field)
    mmax = min(j, l)
    same = parity_j == parity_l
    out = []
    if field == COMPLEX:
        if same:
            out.append(_element(lj, ll, orbit, "m=0",
                                _weight_unit_complex(j, l, 0, 0)))
        for m in range(1, mmax + 1):
            plus = _weight_unit_complex(j, l, m, m)
            minus = _weight_unit_complex(j, l, -m, -m)
            k0 = plus + minus if same else plus - minus
            out.append(_element(lj, ll, orbit, f"m={m}{'+' if same else '-'}", k0))
        return out
    if same:
        k0 = np.zeros((2 * j + 1, 2 * l + 1))
        k0[0, 0] = 1.0
        out.append(_element(lj, ll, orbit, "m=0", k0))
    for m in range(1, mmax + 1):
        t_id, t_j = _real_pair_units(j, l, m)
        if same:
            out.append(_element(lj, ll, orbit, f"(m={m},I)", t_id))
        else:
            out.append(_element(lj, ll, orbit, f"(m={m},J)", t_j))
    return out


# ---------------------------------------------------------------------------
# Lorentz: covariant projector builders (massive orbit)

def unit_velocity(x) -> np.ndarray:
    """u = x for a point x of the unit hyperboloid, given by its 4-vector;
    a vector off that hyperboloid is a GroupError."""
    return groups.canonical_coords(MassiveHyperboloid(), x)[0]


def spin0_projector(u: np.ndarray) -> np.ndarray:
    """u^mu u_nu, the projector onto the boosted time direction."""
    return np.outer(u, ETA @ u)


def transverse_projector(u: np.ndarray) -> np.ndarray:
    """Delta^mu_nu = delta^mu_nu - u^mu u_nu (idempotent, trace 3)."""
    return np.eye(4) - spin0_projector(u)


def _symmetric_traceless(d: np.ndarray, rank: int) -> np.ndarray:
    """Symmetric traceless square on (2,0) tensors, 16x16, of a mixed-index
    projector ``d`` of the given rank; a stack of projectors gives a
    stack."""
    t = 0.5 * (np.einsum("...mr,...ns->...mnrs", d, d)
               + np.einsum("...ms,...nr->...mnrs", d, d))
    t -= np.einsum("...mn,...rs->...mnrs", d @ ETA, ETA @ d) / rank
    return t.reshape(d.shape[:-2] + (16, 16))


def spin2_projector(u: np.ndarray) -> np.ndarray:
    """Symmetric traceless transverse projector on (2,0) tensors, 16x16."""
    return _symmetric_traceless(transverse_projector(u), 3)


def slash(v: np.ndarray) -> np.ndarray:
    """v_mu gamma^mu for a contravariant 4-vector v."""
    return np.einsum("m,mab->ab", ETA @ v, GAMMA)


def energy_projector(u: np.ndarray, sign: int) -> np.ndarray:
    """P_+-(u) = (1 +- uslash)/2 on Dirac spinors."""
    return 0.5 * (np.eye(4, dtype=complex) + sign * slash(u))


def rarita_projector(u: np.ndarray) -> np.ndarray:
    """Spin-3/2 projector on spinor-vectors, 16x16 complex.

    ``Pi^mu_nu = Delta^mu_nu - gamma_perp^mu gamma_perp_nu / 3``; squares to
    itself, annihilates u on the vector index and gamma_perp on contraction.
    """
    d = transverse_projector(u)
    gperp = np.einsum("mn,nab->mab", d, GAMMA)
    gperp_low = np.einsum("nr,rab->nab", ETA, gperp)
    pi = np.einsum("mn,ab->manb", d, np.eye(4, dtype=complex))
    pi -= np.einsum("mac,ncb->manb", gperp, gperp_low) / 3.0
    return pi.reshape(16, 16)


# ---------------------------------------------------------------------------
# Lorentz: massive bases

_QUATERNION_KINDS = ("1", "i", "C", "iC")


def _quaternion_realified(base: np.ndarray) -> list[np.ndarray]:
    """Realified {1, i, C, iC} composed with a complex-linear base map."""
    n = CHARGE_CONJUGATION @ GAMMA[0].real
    if base.shape[0] == 16:
        n = np.kron(np.eye(4), n)
    return [
        realify(base),
        realify(1j * base),
        realify_antilinear(n @ np.conj(base)),
        realify_antilinear(1j * (n @ np.conj(base))),
    ]


def lorentz_massive_basis(j: IrrepLabel, l: IrrepLabel,
                          mass: float = 1.0) -> list[KernelBasisElement]:
    """All supported massive basis elements for a pair of Lorentz labels.

    Tensor pairs: one element per (output slot, input slot) pair of equal
    SO(3) spin, ordered by spin, then output slot, then input slot; the base
    matrix is the partial isometry between the slots and steers to the
    covariant projector when the slots coincide.  Dirac and spinor-vector
    pairs (spin 1/2 and 3/2): the eight quaternion x energy-sign elements on
    the realified spinor spaces.  Tensor-spinor pairs share no spin.
    """
    if j.group != LORENTZ or l.group != LORENTZ:
        raise IrrepError("massive bases take Lorentz labels")
    orbit = MassiveHyperboloid(mass)
    if j.tensor is not None and l.tensor is not None:
        pairs = sorted(((SLOTS[o][0], o, i) for o in tensor_slots(j)
                        for i in tensor_slots(l)
                        if SLOTS[o][0] == SLOTS[i][0]), key=lambda t: t[0])
        return [_element(j, l, orbit, f"spin{spin}:{i}->{o}",
                         SLOTS[o][1] @ SLOTS[i][1].T) for spin, o, i in pairs]
    if not all(lab.realified for lab in (j, l) if lab.spinor is not None):
        raise IrrepError(
            f"massive spinor bases take realified labels, where the charge "
            f"conjugation is a real matrix; got {j} / {l}")
    if (j.spinor is None) != (l.spinor is None):
        return []  # integer vs half-integer spins never match
    u0 = np.array([1.0, 0, 0, 0])
    if j.spinor == l.spinor == DIRAC:
        p_plus = energy_projector(u0, +1)
        blocks = ((+1, p_plus), (-1, np.eye(4) - p_plus))
    elif j.spinor == l.spinor == SPINOR_VECTOR:
        pi = rarita_projector(u0)
        blocks = [(sign, pi @ np.kron(np.eye(4), energy_projector(u0, sign)))
                  for sign in (+1, -1)]
    else:
        raise IrrepError(
            f"massive spinor blocks are implemented for Dirac->Dirac (1/2) "
            f"and spinor-vector->spinor-vector (3/2); got {j} / {l}")
    return [_element(j, l, orbit, f"({kind},P{sign:+d})", mat)
            for sign, base in blocks
            for kind, mat in zip(_QUATERNION_KINDS, _quaternion_realified(base))]


# ---------------------------------------------------------------------------
# Lorentz: massless bases

def massless_pair(x, gauge: Sequence[float] = (0.0, 0.0)):
    """Null pair (n, nbar) at a point x of the null cone, given by its
    4-vector, with optional gauge shift.

    n is the cone point itself; nbar steers the base choice
    ``nbar0 + a_i e_i + a^2 n0 / 2`` (still null, n . nbar = 1).
    """
    lam = groups.matrices(LORENTZ, groups.section_params(NullCone(), x))
    a1, a2 = float(gauge[0]), float(gauge[1])
    n0 = np.array([1.0, 0.0, 0.0, 1.0])
    nbar_base = (NBAR0 + a1 * TRANSVERSE0[0] + a2 * TRANSVERSE0[1]
                 + 0.5 * (a1 * a1 + a2 * a2) * n0)
    return lam @ n0, lam @ nbar_base


def massless_transverse_projector(n: np.ndarray, nbar: np.ndarray) -> np.ndarray:
    """Mixed-index Delta^mu_nu = delta - n nbar - nbar n (lowered); stacks
    of null pairs, shape (..., 4), give a stack."""
    n, nbar = np.asarray(n), np.asarray(nbar)
    n_low, nbar_low = ((ETA @ v[..., None])[..., None, :, 0] for v in (n, nbar))
    return np.eye(4) - n[..., :, None] * nbar_low - nbar[..., :, None] * n_low


def massless_spin2_projector(n: np.ndarray, nbar: np.ndarray) -> np.ndarray:
    """Spin-2 massless projector with the 2-dimensional trace subtraction."""
    return _symmetric_traceless(massless_transverse_projector(n, nbar), 2)


def basis_lorentz_massless(spin: int) -> list[KernelBasisElement]:
    """Massless basis: the transverse projector (spin 1 on 4-vectors) or its
    traceless symmetric square (spin 2 on (2,0) tensors)."""
    orbit = NullCone()
    n0 = np.array([1.0, 0.0, 0.0, 1.0])
    if spin == 1:
        lab = tensor_irrep(1, 0)
        k0 = massless_transverse_projector(n0, NBAR0)
        return [_element(lab, lab, orbit, "transverse", k0)]
    if spin == 2:
        lab = tensor_irrep(2, 0)
        k0 = massless_spin2_projector(n0, NBAR0)
        return [_element(lab, lab, orbit, "transverse-sym2", k0)]
    raise IrrepError("massless bases cover spin 1 and spin 2")


# ---------------------------------------------------------------------------
# dispatcher

def basis_for(j: IrrepLabel, l: IrrepLabel, orbit: Orbit) -> list[KernelBasisElement]:
    """Analytic basis for a label pair on an orbit (dispatch by group)."""
    group = check_pair(j, l, orbit)
    if group == SO2:
        return basis_so2(j.j, l.j, j.field, orbit.radius)
    if group == O2:
        return basis_o2("0~" if j.tilde else j.j,
                        "0~" if l.tilde else l.j, j.field, orbit.radius)
    if group == SO3:
        return basis_so3(j.j, l.j, j.field, orbit.radius)
    if group == O3:
        return basis_o3(j.j, j.parity, l.j, l.parity, j.field, orbit.radius)
    if isinstance(orbit, MassiveHyperboloid):
        return lorentz_massive_basis(j, l, orbit.mass)
    if j.tensor == (1, 0) and l.tensor == (1, 0):
        return basis_lorentz_massless(1)
    if j.tensor == (2, 0) and l.tensor == (2, 0):
        return basis_lorentz_massless(2)
    raise IrrepError("massless analytic bases cover the (1,0) and (2,0) "
                     "tensor pairs")
