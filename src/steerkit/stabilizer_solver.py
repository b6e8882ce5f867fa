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
* What H holds beyond these is the rest of SO(3), on the massive
  hyperboloid (see :data:`_LADDER`).  SO(3) is connected, so K commutes
  with it iff it commutes with J_z = sum_m m U_m U_m^H and with one
  generator J = rho(r) J_z rho(r)^-1 about a perpendicular axis, r =
  R_y(pi / 2); J maps the weight m to m +- 1, and its raising part alone
  suffices.  So the ladder rows A^j_m X_m - X_m+1 A^l_m = 0 between
  adjacent weights, A_m = U_m+1^H J U_m, written on the adapted unknowns,
  are the one constraint stacked on them (:func:`_ladder_rows`): 480 x 160
  for the spinor-vector, 112 x 35 for tensor(2,0), 32 x 16 for the
  realified Dirac pair, whose unknowns are all free.  The sphere, the
  circle and the null cone build no rows: there every unknown is free.

Every spectrum the solve takes (the projector ranges, the adaptation to w
and the ladder rows) must show a clean rank gap.  The computation uses the
representations at stabilizer elements only, never the closed-form bases or
the content tables; it is the independent cross-check for them.  What
depends on one label only (its adapted weight bases and their small images
under J, projected onto the adjacent weights) is computed once per label and
cached; per pair the rows are written block by block from those images, in
one array of the rows' size.

:func:`oracle_dimension`, which ``steerkit dims`` prints, counts the
solutions from the values-only SVD of the ladder rows, with the rank cut and
gap checks of the solve, and forms no singular vector, no basis and never
the dim_j dim_l embedding; without rows it counts the free unknowns from the
dimensions of the weight blocks.  :func:`solve_basepoint` forms the
embedding to return the basis: the embedding times the rows' nullspace,
refined once, or, where no row survives the rank cut, the embedding itself.
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
                     stabilizer_content)

#: Minimum ratio between the smallest kept and largest dropped singular
#: value; anything smaller means the rank detection is not trustworthy.
GAP_RATIO = 1e6


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

#: The rotation r of H that turns J_z into a generator about a perpendicular
#: axis, J = rho(r) J_z rho(r)^-1, whose ladder rows the solve imposes (see
#: :func:`_ladder_rows`), as parameters, by orbit type and group: R_y(pi /
#: 2), which maps z to x, on the massive hyperboloid, whose H = SO(3) is
#: connected and generated by the rotations about z and x.  On the null cone
#: only SO(2)_z is imposed: the null rotations of its stabilizer ISO(2) are
#: not.  Each element of these tables is linear and fixes x0, so it fixes
#: every multiple of x0: radius and mass play no part.
_LADDER = {
    (MassiveHyperboloid, groups.LORENTZ): (0.0, math.pi / 2, 0.0, 0.0, 0.0,
                                           0.0),
}


def _generators(j: IrrepLabel, l: IrrepLabel, orbit: Orbit) -> tuple:
    """``(weyl, turn)``: the parameters of the element a pair's solve
    imposes in closed form (see :data:`_WEYL`) and of the rotation whose J
    it imposes by the ladder rows (see :data:`_LADDER`), each None where
    there is none, after the pair is checked against the orbit."""
    key = (type(orbit), check_pair(j, l, orbit))
    return _WEYL.get(key), _LADDER.get(key)


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


def _generator(label: IrrepLabel, turn: tuple) -> tuple:
    """``(bases, J)``: the weight bases of every weight of ``label``, keyed
    by twice the weight, the negative ones of a real label included (U_-m =
    conj(U_m)), and J = rho(r) J_z rho(r)^H, with r = ``turn`` and J_z =
    sum_m m U_m U_m^H: the generator about r z, which maps the weight m to
    m +- 1 where r z is perpendicular to z."""
    bases = dict(weight_bases(label)[0])
    if label.field != COMPLEX:
        bases.update({-m2: u.conj() for m2, u in bases.items() if m2})
    j_z = sum(m2 / 2 * (u @ u.conj().T) for m2, u in bases.items())
    rho = rep_matrices(label, turn)
    return bases, rho @ j_z @ rho.conj().T


def _rungs(label: IrrepLabel, blocks, turn: tuple) -> tuple:
    """What the ladder rows need of one label: ``(sizes, rungs)``.

    ``sizes`` maps twice each weight of the label, the negative ones
    included, to the dimension of its space; J is :func:`_generator`'s.  A
    block of ``blocks`` is a sum of Kronecker terms, each of one weight: its
    (left, right) pairs, and where it reads real and imaginary parts, their
    conjugates at the opposite weight (Re c = (c + conj c) / 2, Im c = (c -
    conj c) / 2i).  ``rungs`` maps each block to a dict from twice a weight
    a to ``(images, rights)``, the factors of the block's share of the rows
    of weight a: the terms of weight a - 1, which J raises to a, enter as
    kron(U_a^H J left, U_a-1^T right), and those of weight a as
    -kron(U_a^H left, U_a-1^T J^T right).  ``images`` stacks the left
    factors over the terms, each times the term's coefficient in each part,
    as (parts, n_a, columns of left, terms), and ``rights`` stacks the right
    factors as (terms, n_a-1, columns of right); each is None where the
    label has no such weight.  The keys of ``blocks`` are (twice the weight,
    sign of w): the ladder runs only on orbits where w is imposed.
    """
    bases, gen = _generator(label, turn)
    rungs = {}
    for key, (left, right, parts) in blocks.items():
        terms = list(zip((key[0], -key[0]), left, right))
        parts = parts or (("", 1.0),)
        gamma = np.array([[{"": s, "real": s / 2, "imag": -0.5j * s}[name]]
                          * len(terms) for name, s in parts])
        if parts[0][0]:
            terms += [(-m2, a.conj(), b.conj()) for m2, a, b in terms]
            gamma = np.hstack([gamma, gamma.conj()])
        rung = {}
        for a2 in {m2 + step for m2, _, _ in terms for step in (0, 2)}:
            sel = [(t, 1.0, gen @ a, b) for t, (m2, a, b) in enumerate(terms)
                   if m2 == a2 - 2]
            sel += [(t, -1.0, a, gen.T @ b)
                    for t, (m2, a, b) in enumerate(terms) if m2 == a2]
            t, sign, lefts, rights = zip(*sel)
            top, below = bases.get(a2), bases.get(a2 - 2)
            g = gamma[:, list(t)] * sign
            images = None
            if top is not None:
                images = g[:, None, None, :] * np.moveaxis(
                    top.conj().T @ np.stack(lefts), 0, -1)[None]
            rung[a2] = (images,
                        None if below is None else below.T @ np.stack(rights))
        rungs[key] = MappingProxyType(rung)
    sizes = {m2: u.shape[1] for m2, u in bases.items()}
    return MappingProxyType(sizes), MappingProxyType(rungs)


@lru_cache(maxsize=None)
def _label_factors(label: IrrepLabel, weyl, turn) -> tuple:
    """What the solve needs of one label, whatever it is paired with.

    ``weyl`` and ``turn`` are the parameters of the element imposed in
    closed form and of the rotation whose J the ladder rows impose (see
    :func:`_generators`).  Returns ``(blocks, ladder, gap_ratio)``.
    ``blocks`` maps each weight block (twice the weight; with w, also the
    sign of w on the block) to ``(left, right, parts)``: the block's
    unknowns are the columns of the sum over t of ``kron(left_t of j,
    right_t of l)`` (the right factors are conjugated weight bases, so that
    this is vec(U^j X U^l^H)), the one product as it is when ``parts`` is
    None, and otherwise for each named part (``"real"``, ``"imag"`` or
    ``""``, all of it) that part of the sum times its scale.  ``ladder`` is
    the ``(sizes, rungs)`` of :func:`_rungs`, None without ``turn``.
    ``gap_ratio`` is the smallest over :func:`weight_bases` and the
    adaptation.  Cached like :func:`weight_bases`, on the parameters rather
    than the orbit, so that radius and mass do not split it; every array
    is read-only.
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
    arrays = [a for left, right, _ in blocks.values() for a in left + right]
    ladder = None
    if turn is not None:
        ladder = _rungs(label, blocks, turn)
        arrays += [a for rung in ladder[1].values()
                   for pair in rung.values() for a in pair if a is not None]
    for a in arrays:
        a.flags.writeable = False
    return MappingProxyType(blocks), ladder, gap


def _block(out: np.ndarray, row: int, col: int, rows: tuple,
           cols: tuple) -> np.ndarray:
    """The entries of ``out`` from (``row``, ``col``) on, as a view of
    shape ``rows + cols``.  Setting ``shape`` raises where numpy would have
    to copy, so no write to the view can be lost."""
    v = out[row:row + math.prod(rows), col:col + math.prod(cols)].view()
    v.shape = rows + cols
    return v


def _unknowns(j: IrrepLabel, l: IrrepLabel, weyl, turn) -> tuple:
    """The weight blocks both labels have, and the number of the pair's
    unknowns: n_j n_l summed over those blocks, once per part that a real
    label reads (n the columns of the first left and right factors).  A
    block of j missing from l has no unknowns."""
    bj = _label_factors(j, weyl, turn)[0]
    bl = _label_factors(l, weyl, turn)[0]
    shared = [key for key in bj if key in bl]
    return shared, sum(len(bj[key][2] or (None,)) * bj[key][0][0].shape[1]
                       * bl[key][1][0].shape[1] for key in shared)


def _embedding(j: IrrepLabel, l: IrrepLabel, weyl, turn) -> tuple:
    """``(embed, gap_ratio)``: ``embed`` maps the pair's unknowns to
    row-major vectorized kernels (orthonormal columns, each invariant under
    the rotations about z and w), and ``gap_ratio`` is that of the weight
    bases.  ``embed`` is allocated once, at its final size, and every
    weight block writes its Kronecker products straight into its own
    columns."""
    bj, _, gap_j = _label_factors(j, weyl, turn)
    bl, _, gap_l = _label_factors(l, weyl, turn)
    shared, n = _unknowns(j, l, weyl, turn)
    embed = np.empty((j.dim * l.dim, n), j.dtype)
    # vec(U_j X U_l^H) = kron(U_j, conj(U_l)) vec(X), row-major: each entry
    # is one product, as in np.kron, plus the products of the second term
    # where a block has one.
    at = 0
    for key in shared:
        a, b, parts = bj[key][0], bl[key][1], bj[key][2]
        (ra, ca), (rb, cb) = a[0].shape, b[0].shape
        terms = [(x[:, None, :, None], y[None, :, None, :])
                 for x, y in zip(a, b)]
        if parts is None:
            np.multiply(*terms[0],
                        out=_block(embed, 0, at, (ra, rb), (ca, cb)))
            at += ca * cb
            continue
        c = np.multiply(*terms[0])
        for x, y in terms[1:]:
            c += x * y
        for name, scale in parts:
            np.multiply(getattr(c, name) if name else c, scale,
                        out=_block(embed, 0, at, (ra, rb), (ca, cb)))
            at += ca * cb
    return embed, min(gap_j, gap_l)


def _ladder_rows(j: IrrepLabel, l: IrrepLabel, weyl, turn) -> np.ndarray:
    """The constraint that J imposes on the pair's unknowns: for every
    weight a of j with a - 1 a weight of l, the block ``U^j_a^H (J K - K J)
    U^l_a-1 = A^j X_a-1 - X_a A^l`` (A = U_a^H J U_a-1, the raising part of
    J), row-major, stacked.  J maps the weight m to m +- 1, and a K that
    commutes with J_z and the raising part commutes with the lowering part
    too: between two irreducible summands, the kernel and the image of such
    a K are kept by the raising part, so each spans top weights of its
    summand, and their weights match only between equal spins, where K is a
    multiple of the isomorphism.  A real pair stacks the real and imaginary
    parts of each row, in real arithmetic.  Written block by block from the
    small images of :func:`_rungs` into one array: the embedding is never
    formed.
    """
    bj, (sizes_j, rungs_j), _ = _label_factors(j, weyl, turn)
    bl, (sizes_l, rungs_l), _ = _label_factors(l, weyl, turn)
    shared, n = _unknowns(j, l, weyl, turn)
    starts, rows = {}, 0
    for m2, k in sizes_j.items():
        if m2 - 2 in sizes_l:
            starts[m2] = rows
            rows += k * sizes_l[m2 - 2]
    # Rows by columns, so that a real pair reads the real and imaginary
    # parts of each row as two rows of one float view.
    z = np.zeros((n, rows), complex)
    out, at = z.T, 0
    for key in shared:
        ca, cb = bj[key][0][0].shape[1], bl[key][1][0].shape[1]
        parts = len(bj[key][2] or (None,))
        rung_l = rungs_l[key]
        for a2, (images, _) in rungs_j[key].items():
            rights = rung_l.get(a2, (None, None))[1]
            if images is None or rights is None:
                continue
            ra, rb, t = images.shape[1], rights.shape[1], len(rights)
            rows_a = images.reshape(-1, t) @ rights.reshape(t, -1)
            _block(out, starts[a2], at, (ra, rb), (parts, ca, cb))[...] = (
                rows_a.reshape(parts, ra, ca, rb, cb).transpose(1, 3, 0, 2, 4))
        at += parts * ca * cb
    return out if j.field == COMPLEX else z.view(np.float64).T


def solve_basepoint(j: IrrepLabel, l: IrrepLabel,
                    orbit: Orbit) -> IntertwinerSpace:
    """Full intertwiner space Hom_H(V_l, V_j) at the orbit base point.

    Real labels get a real basis, complex labels a complex one.  Raises
    :class:`DegenerateSpectrumError` when a singular-value spectrum of the
    solve carries no clean rank gap.
    """
    weyl, turn = _generators(j, l, orbit)
    embed, gap = _embedding(j, l, weyl, turn)
    if turn is not None:
        rows = _ladder_rows(j, l, weyl, turn)
        x, kept, dropped = numerics.nullspace_with_spectrum(rows)
        gap = min(gap, require_rank_gap(kept, dropped, f" for {j} / {l}"))
        if kept.size:
            # One step of refinement: on clustered spectra the SVD leaves
            # its null vectors up to n eps off the kernel.  G = A^H A + x x^H
            # is A^H A on the kept directions and about 1 on x, so G^-1 A^H
            # A x is the part of x along the kept directions.  G is inverted
            # through the SVD that the solve takes anyway: a LAPACK solve
            # would map code and buffers that nothing else here uses, about
            # 0.2 MB more resident memory in a `verify` run.
            gram = rows.conj().T @ rows
            u, s, vh = np.linalg.svd(gram + x @ x.conj().T)
            x -= vh.conj().T @ ((u.conj().T @ (gram @ x)) / s[:, None])
            return IntertwinerSpace(j, l, orbit, embed @ x, gap)
    if weyl is not None:
        # Adapted columns multiply vectors that passed a second spectral
        # step; rescaled to unit norm, the circle's entries +-1/2 come out
        # exact.  Where the ladder rows keep no value, every unknown is
        # free, and their round-off mixes nothing into the basis.
        embed /= np.linalg.norm(embed, axis=0)
    return IntertwinerSpace(j, l, orbit, embed, gap)


def oracle_dimension(j: IrrepLabel, l: IrrepLabel, orbit: Orbit) -> int:
    """``solve_basepoint(j, l, orbit).dimension`` without forming the basis.

    The count is taken from the singular values of the same ladder rows,
    with the same rank cut and the same gap checks: no singular vector,
    sign fixing, embedding or basis product.  Without ladder rows, every
    equal-weight block is free and the count is that of the unknowns (see
    :func:`_unknowns`).  Raises :class:`DegenerateSpectrumError` where
    :func:`solve_basepoint` does.
    """
    weyl, turn = _generators(j, l, orbit)
    if turn is None:
        return _unknowns(j, l, weyl, turn)[1]
    k, kept, dropped = numerics.nullity_with_spectrum(
        _ladder_rows(j, l, weyl, turn))
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
