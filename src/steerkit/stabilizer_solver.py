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
* Where H holds an element w that maps the weight m to -m (see
  :data:`_WEYL`: r_y on the circle under O(2), r_y = parity * R_y(pi) on
  the sphere under O(3), R_y(pi) on the massive hyperboloid), its
  constraint is met by construction, in weight bases adapted to w once per
  label (:func:`_adapted`), and the unknowns halve:

  - complex labels take U_-m = rho(w) U_m, and w reads X_-m = X_m;
  - real labels of integer weight take rho(w) U_m = conj(U_m), and w reads
    X_m real;
  - realified spinors, where rho(w)^2 = -1, take a symplectic basis, each
    second column the conjugate of rho(w) times the one before, and w reads
    X_m = [[a, b], [-conj(b), conj(a)]] on every 2 x 2 block;
  - the weight-0 space, and the circle's one block U = I (its stabilizer
    has no rotations), split into the +-1 eigenspaces of rho(w), and X_0
    into the two diagonal blocks.
* What H holds beyond these is stacked on the unknowns (see
  :data:`_GENERATORS`): on the massive hyperboloid the rotation
  R_y(:data:`Y_ANGLE`), which with O(2)_z generates SO(3); the
  spinor-vector stack is 1024 x 160, tensor(2,0) 256 x 35.  The sphere, the
  circle and the null cone build no stack: there every unknown is free.

Every spectrum the solve takes (the projector ranges, the adaptation to w
and the stack) must show a clean rank gap.  The computation uses the
representations at stabilizer elements only, never the closed-form bases or
the content tables; it is the independent cross-check for them.  What
depends on one label only (its adapted weight bases and their images under
the stacked generators) is computed once per label and cached; per pair the
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
from .groups import Circle, MassiveHyperboloid, Orbit, Sphere
from .irreps import (COMPLEX, IrrepLabel, check_pair, rep_matrices,
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

    ``basis`` columns are row-major vectorized dim_j x dim_l kernels.
    ``gap_ratio`` is the smallest ratio of the smallest kept to the largest
    dropped singular value over the spectra of the solve (infinite when
    none has a dropped value).
    """

    j: IrrepLabel
    l: IrrepLabel
    orbit: Orbit
    basis: np.ndarray
    gap_ratio: float

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


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


#: The element w of the base point's stabilizer H that maps the weight m
#: of the rotations about z to -m, imposed in closed form by the adapted
#: weight bases (see :func:`_adapted`), as parameters, by orbit type and
#: group: the reflection r_y on the circle under O(2) (where H = {1, r_y}),
#: r_y = parity * R_y(pi) on the sphere under O(3) (H = O(2)_z) and R_y(pi)
#: on the massive hyperboloid (H = SO(3)).  SO(2) and SO(3) have none, and
#: neither has the null cone's ISO(2).
_WEYL = {
    (Circle, groups.O2): (0.0, -1.0),
    (Sphere, groups.O3): (0.0, math.pi, 0.0, -1.0),
    (MassiveHyperboloid, groups.LORENTZ): (0.0, math.pi, 0.0, 0.0, 0.0, 0.0),
}

#: The generators of H that a pair's solve stacks, as parameters, by orbit
#: type and group: those that, with the rotations about z and w, generate
#: H.  Only the massive hyperboloid has one, R_y(:data:`Y_ANGLE`): the
#: closed subgroups of SO(3) that contain SO(2)_z are SO(2)_z, O(2)_z and
#: SO(3), the first two holding R_y(t) only for t = 0 or pi modulo 2 pi.  On
#: the null cone only SO(2)_z is imposed: the null rotations of its
#: stabilizer ISO(2) are not.  Each element of these tables is linear and
#: fixes x0, so it fixes every multiple of x0: radius and mass play no part.
_GENERATORS = {
    (MassiveHyperboloid, groups.LORENTZ): (
        (0.0, Y_ANGLE, 0.0, 0.0, 0.0, 0.0),),
}


def _generators(j: IrrepLabel, l: IrrepLabel, orbit: Orbit) -> tuple:
    """``(weyl, params)``: the parameters of the element a pair's solve
    imposes in closed form (None without one, see :data:`_WEYL`) and of the
    generators it stacks (see :data:`_GENERATORS`), after the pair is
    checked against the orbit."""
    key = (type(orbit), check_pair(j, l, orbit))
    return _WEYL.get(key), _GENERATORS.get(key, ())


#: How the real unknowns of a block are read from its complex products: the
#: real and imaginary parts, each scaled to a unit column.
_RE_IM = (("real", math.sqrt(2.0)), ("imag", math.sqrt(2.0)))


def _symplectic(a: np.ndarray) -> np.ndarray:
    """A unitary Q whose columns pair as ``q_2k+1 = conj(a q_2k)``, for a
    unitary ``a`` with ``a conj(a) = -1`` (so a is antisymmetric): then
    ``Q^T a Q`` is [[0, -1], [1, 0]] block by block.  Each q_2k is the unit
    vector farthest from the pairs taken so far, its residual
    orthogonalized twice; ``conj(a q_2k)`` is orthogonal to both."""
    n = len(a)
    q = np.zeros((n, n), dtype=complex)
    rest = np.eye(n, dtype=complex)
    for k in range(0, n, 2):
        for _ in range(2):
            rest -= q[:, :k] @ (q[:, :k].conj().T @ rest)
        norms = np.linalg.norm(rest, axis=0)
        top = int(np.argmax(norms))
        q[:, k] = rest[:, top] / norms[top]
        q[:, k + 1] = (a @ q[:, k]).conj()
    return q


def _adapted(label: IrrepLabel, bases, rho_w: np.ndarray) -> tuple:
    """The weight blocks of ``label`` adapted to w, whose representation is
    ``rho_w``, so that w's constraint holds by construction (see the module
    docstring).  Returns ``(blocks, gap_ratio)``: ``blocks`` maps (twice the
    weight m >= 0, the sign of w on the block) to the (left, right, parts)
    of :func:`_label_factors`, and ``gap_ratio`` is the smallest over the
    spectra the adaptation takes: the ranges of the projectors onto the +-1
    eigenspaces of w at weight 0 and onto the real forms of w."""
    real = label.field != COMPLEX
    blocks, gap, rank = {}, math.inf, 0

    def projector_range(p, what):
        nonlocal gap
        q, kept, dropped = numerics.range_with_spectrum(p)
        gap = min(gap, require_rank_gap(kept, dropped,
                                        f" for the {what} of {label}"))
        return q

    for m2, u in bases.items():
        n = u.shape[1]
        if m2 == 0:
            b = u.conj().T @ rho_w @ u
            for sign in (1, -1):
                v = u @ projector_range((np.eye(n) + sign * b) / 2,
                                        f"{sign:+d} eigenspace of w")
                rank += v.shape[1]
                if v.shape[1]:
                    blocks[0, sign] = ((v,), (v.conj(),), None)
        elif m2 < 0:
            continue
        elif not real:
            # U_-m = rho(w) U_m, projected onto the weight -m basis so that
            # its columns stay weight vectors to round-off: each column is
            # c_m + c_-m over sqrt 2.
            minus = bases[-m2]
            v = minus @ (minus.conj().T @ (rho_w @ u))
            blocks[m2, 1] = ((u, v), (u.conj(), v.conj()),
                             (("", math.sqrt(0.5)),))
            rank += 2 * n
        elif m2 % 2 == 0:
            # Q = X + iY with rho(w) U Q = conj(U Q): with a = U^T rho(w) U,
            # (X, Y) spans the +1 eigenspace of [[Re a, -Im a], [-Im a,
            # -Re a]], the fixed space of the involution c -> a conj(c).
            a, eye = u.T @ rho_w @ u, np.eye(n)
            xy = projector_range(np.block([[eye + a.real, -a.imag],
                                           [-a.imag, eye - a.real]]) / 2,
                                 f"real form of w at weight {m2 // 2}")
            v = u @ (xy[:n] + 1j * xy[n:])
            blocks[m2, 1] = ((v,), (v.conj(),), (_RE_IM[0],))
            rank += 2 * v.shape[1]
        elif n % 2 == 0:     # an odd n leaves the rank check below short
            # rho(w) v_2k = conj(v_2k+1) and rho(w) v_2k+1 = -conj(v_2k):
            # the products of the even columns of j with all of l, plus
            # their images under w, carry the quaternionic X_m.
            v = u @ _symplectic(u.T @ rho_w @ u)
            turned = np.empty_like(v)
            turned[:, 0::2], turned[:, 1::2] = v[:, 1::2], -v[:, 0::2]
            blocks[m2, 1] = ((v[:, 0::2], v[:, 1::2].conj()),
                             (v.conj(), turned),
                             (("real", 1.0), ("imag", 1.0)))
            rank += 2 * n
    if rank != label.dim:
        raise DegenerateSpectrumError(
            f"the weight spaces of {label} adapted to w have {rank} "
            f"dimensions, not {label.dim}")
    return blocks, gap


@lru_cache(maxsize=None)
def _label_factors(label: IrrepLabel, weyl, params: tuple) -> tuple:
    """What the solve needs of one label, whatever it is paired with.

    ``weyl`` and ``params`` are the parameters of the element imposed in
    closed form and of the stacked generators (see :func:`_generators`).
    Returns ``(blocks, images, gap_ratio)``.  ``blocks`` maps each weight
    block (twice the weight; with w, also the sign of w on the block) to
    ``(left, right, parts)``: the block's unknowns are the columns of the
    sum over t of ``kron(left_t of j, right_t of l)`` (the right factors
    are conjugated weight bases, so that this is vec(U^j X U^l^H)), the one
    product as it is when ``parts`` is None, and otherwise for each named
    part (``"real"``, ``"imag"`` or ``""``, all of it) that part of the
    sum times its scale.  ``images`` maps the block to the images of left
    under ``rho(h)`` and of right under ``rho(h)^-T``, stacked over the
    generators (empty without generators).  ``gap_ratio`` is the smallest
    over :func:`weight_bases` and the adaptation.  Cached like
    :func:`weight_bases`, on the parameters rather than the orbit, so that
    radius and mass do not split it; every array is read-only.
    """
    if label.group in groups.ORBIT_GROUPS[Circle]:
        bases, gap = {0: np.eye(label.dim, dtype=label.dtype)}, math.inf
    else:
        bases, gap = weight_bases(label)
    if weyl is None:
        real = label.field != COMPLEX
        blocks = {m2: ((u,), (u.conj(),), _RE_IM if real and m2 else None)
                  for m2, u in bases.items()}
    else:
        blocks, adapted_gap = _adapted(label, bases,
                                       rep_matrices(label, weyl))
        gap = min(gap, adapted_gap)
    images = {}
    if params:
        rho, rho_inv = rep_pair(label, label, params)
        rho_inv_t = rho_inv.swapaxes(-1, -2)
        images = {key: (tuple(rho @ a for a in left),
                        tuple(rho_inv_t @ b for b in right))
                  for key, (left, right, _) in blocks.items()}
    for part in (blocks, images):
        for terms in part.values():
            for a in terms[0] + terms[1]:
                a.flags.writeable = False
    return MappingProxyType(blocks), MappingProxyType(images), gap


def _block(out: np.ndarray, at: int, a: np.ndarray,
           b: np.ndarray) -> np.ndarray:
    """The columns of ``out`` from ``at`` on that hold kron(a, b), as a
    (..., ra, rb, ca, cb) view.  Setting ``shape`` raises where numpy would
    have to copy, so no write to the view can be lost."""
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    v = out[..., at:at + ca * cb].view()
    v.shape = out.shape[:-2] + (ra, rb, ca, cb)
    return v


def _unknowns(j: IrrepLabel, l: IrrepLabel, weyl, params: tuple) -> tuple:
    """The weight blocks both labels have, and the number of the pair's
    unknowns: n_j n_l summed over those blocks, once per part that a real
    label reads (n the columns of the first left and right factors).  A
    block of j missing from l has no unknowns."""
    bj = _label_factors(j, weyl, params)[0]
    bl = _label_factors(l, weyl, params)[0]
    shared = [key for key in bj if key in bl]
    return shared, sum(len(bj[key][2] or (None,)) * bj[key][0][0].shape[1]
                       * bl[key][1][0].shape[1] for key in shared)


def _constraint(j: IrrepLabel, l: IrrepLabel, weyl, params: tuple) -> tuple:
    """The base-point constraint of a pair on its reduced unknowns.

    ``weyl`` and ``params`` are the pair's :func:`_generators`.  Returns
    ``(embed, stack, gap_ratio)``: ``embed`` maps the unknowns to row-major
    vectorized kernels (orthonormal columns, each invariant under the
    rotations about z and w), ``stack`` is the constraint ``rho_j(h) K
    rho_l(h)^-1 - K`` on them stacked over the generators (None when there
    are none), and ``gap_ratio`` is that of the weight bases.  Each array
    is allocated once, at its final size: every weight block writes its
    Kronecker products straight into its own columns, and ``embed`` is
    subtracted from the stack in place.
    """
    bj, ij, gap_j = _label_factors(j, weyl, params)
    bl, il, gap_l = _label_factors(l, weyl, params)
    shared, n = _unknowns(j, l, weyl, params)

    def fill(out, jside, lside):
        # vec(U_j X U_l^H) = kron(U_j, conj(U_l)) vec(X), row-major: each
        # entry is one product, as in np.kron, plus the products of the
        # second term where a block has one.
        at = 0
        for key in shared:
            a, b, parts = jside[key][0], lside[key][1], bj[key][2]
            terms = [(x[..., :, None, :, None], y[..., None, :, None, :])
                     for x, y in zip(a, b)]
            if parts is None:
                np.multiply(*terms[0], out=_block(out, at, a[0], b[0]))
                at += a[0].shape[-1] * b[0].shape[-1]
                continue
            c = np.multiply(*terms[0])
            for x, y in terms[1:]:
                c += x * y
            for name, scale in parts:
                np.multiply(getattr(c, name) if name else c, scale,
                            out=_block(out, at, a[0], b[0]))
                at += a[0].shape[-1] * b[0].shape[-1]

    embed = np.empty((j.dim * l.dim, n), j.dtype)
    fill(embed, bj, bl)
    gap = min(gap_j, gap_l)
    if not params:
        return embed, None, gap
    stack = np.empty((len(params),) + embed.shape, j.dtype)
    fill(stack, ij, il)
    stack -= embed
    return embed, stack.reshape(len(params) * len(embed), n), gap


def solve_basepoint(j: IrrepLabel, l: IrrepLabel,
                    orbit: Orbit) -> IntertwinerSpace:
    """Full intertwiner space Hom_H(V_l, V_j) at the orbit base point.

    Real labels get a real basis, complex labels a complex one.  Raises
    :class:`DegenerateSpectrumError` when a singular-value spectrum of the
    solve carries no clean rank gap.
    """
    weyl, params = _generators(j, l, orbit)
    embed, stack, gap = _constraint(j, l, weyl, params)
    if stack is None:
        if weyl is not None:
            # Adapted columns multiply vectors that passed a second spectral
            # step; rescaled to unit norm, the circle's entries +-1/2 come
            # out exact.
            embed /= np.linalg.norm(embed, axis=0)
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
    weyl, params = _generators(j, l, orbit)
    if not params:
        return _unknowns(j, l, weyl, params)[1]
    _, stack, _ = _constraint(j, l, weyl, params)
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
    check_pair(j, l, orbit)
    cj, cl = stabilizer_content(j, orbit), stabilizer_content(l, orbit)
    return sum(n * cl[sigma] for sigma, n in cj.items())
