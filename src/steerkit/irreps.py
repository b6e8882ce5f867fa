"""Irreducible representation matrices for all five groups.

Every representation is evaluated at a stack of group elements given by
their parameters (see :mod:`steerkit.groups`), through :func:`rep_pair`,
which pairs ``rho_j(g)`` with ``rho_l(g)^-1``.  Conventions fixed here:

* SO(2) complex irreps: ``rho_n(g_phi) = exp(i n phi)``, n integer.  Real
  irreps: ``rho_0 = 1`` and the 2x2 rotation by ``j phi`` for j >= 1.
* O(2): the trivial rep, the sign rep (written ``0~``), and 2-dimensional
  reps; the reflection r_y maps to ``sigma_1`` (complex basis) or
  ``diag(1, -1)`` (real basis).
* SO(3) complex irreps are Wigner D-matrices ``D^l_{mm'} = exp(-i m alpha)
  d^l_{mm'}(beta) exp(-i m' gamma)`` in the spherical-harmonic basis with
  Condon-Shortley phases and rows/columns ordered by m descending from +l.
* SO(3) real irreps are ``R^l = conj(S^l) D^l S^l.T`` in the real-harmonic
  order ``(Y_l0, Yc_l1, Ys_l1, ..., Yc_ll, Ys_ll)``.  Both turn one table of
  d^l(beta) per l and basis by z rotations; l is at most ``MAX_L = 32``.
* O(3) irreps multiply by ``eps * (-1)^l`` on parity elements.
* Lorentz tensor reps of signature (p, q) are Kronecker products of p copies
  of Lambda and q copies of its inverse transpose, indices ordered
  lexicographically; p + q <= 2.
* The Dirac rep uses Weyl-basis gamma matrices and satisfies
  ``S(Lambda)^-1 gamma^mu S(Lambda) = Lambda^mu_nu gamma^nu``; charge
  conjugation is ``C = i gamma^2 gamma^0``.  Spinor labels have a realified
  variant acting on the doubled real space (Re, Im stacked), where the
  antilinear charge conjugation becomes an honest real matrix.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from . import groups, numerics
from .groups import ETA, LORENTZ, O2, O3, SO2, SO3

REAL, COMPLEX = "real", "complex"

DIRAC, SPINOR_VECTOR = "dirac", "spinor_vector"

MAX_L = 32  # the largest SO(3)/O(3) label l


class IrrepError(ValueError):
    """Unsupported irrep label or label/element combination."""


# ---------------------------------------------------------------------------
# labels

@dataclass(frozen=True)
class IrrepLabel:
    """Group tag plus irrep parameters.

    Exactly one parameter family is populated: ``j`` (with ``tilde`` for the
    O(2) sign rep and ``parity`` for O(3)), ``tensor = (p, q)`` for Lorentz
    spacetime tensors, or ``spinor`` for the Dirac / spinor-vector reps.
    ``realified`` spinor labels act on the doubled real spinor space.
    """

    group: str
    field: str
    j: Optional[int] = None
    tilde: bool = False
    parity: Optional[int] = None
    tensor: Optional[tuple[int, int]] = None
    spinor: Optional[str] = None
    realified: bool = False

    def __post_init__(self):
        if self.field not in (REAL, COMPLEX):
            raise IrrepError(f"{self.group} label field must be 'real' or "
                             f"'complex', got {self.field!r}")

    @property
    def dim(self) -> int:
        if self.group == SO2:
            if self.field == COMPLEX:
                return 1
            return 1 if self.j == 0 else 2
        if self.group == O2:
            return 1 if (self.j == 0 or self.tilde) else 2
        if self.group in (SO3, O3):
            return 2 * self.j + 1
        if self.tensor is not None:
            return 4 ** sum(self.tensor)
        base = 4 if self.spinor == DIRAC else 16
        return 2 * base if self.realified else base

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the label's representations, kernels and oracle
        unknowns: complex128 over the complex field, float64 otherwise."""
        return np.dtype(complex if self.field == COMPLEX else float)

    def realify(self) -> "IrrepLabel":
        if self.spinor is None:
            raise IrrepError("only spinor labels have a realified form")
        return replace(self, realified=True, field=REAL)

    def __str__(self) -> str:
        if self.group == SO2:
            return f"so2[{self.field}] n={self.j}"
        if self.group == O2:
            tag = "0~" if self.tilde else str(self.j)
            return f"o2[{self.field}] j={tag}"
        if self.group == SO3:
            return f"so3[{self.field}] l={self.j}"
        if self.group == O3:
            return f"o3[{self.field}] l={self.j}{'+' if self.parity > 0 else '-'}"
        if self.tensor is not None:
            return f"lorentz tensor{self.tensor}"
        tag = "*" if self.realified else ""
        return f"lorentz {self.spinor}{tag}"


def _integer(what: str, value) -> int:
    """``value`` as an int; a non-integral label is rejected, not truncated,
    and so is one beyond 2**53, where ``n * phi`` would round n."""
    if not isinstance(value, (int, np.integer)):
        raise IrrepError(f"{what} must be an integer, got {value!r}")
    if abs(int(value)) > 2 ** 53:
        raise IrrepError(f"{what} must be at most 2**53 in size: a larger "
                         f"label does not convert to float exactly")
    return int(value)


def so2_irrep(n: int, field: str = REAL) -> IrrepLabel:
    n = _integer("SO(2) label n", n)
    if field == REAL and n < 0:
        raise IrrepError("real SO(2) irreps are labeled by j >= 0")
    return IrrepLabel(SO2, field, j=n)


def o2_irrep(j, field: str = REAL) -> IrrepLabel:
    """O(2) irrep; ``j`` is an integer >= 0 or the string '0~' (sign rep)."""
    if isinstance(j, str):
        if j not in ("0~", "0t"):
            raise IrrepError(f"unknown O(2) label {j!r}")
        return IrrepLabel(O2, field, j=0, tilde=True)
    j = _integer("O(2) label j", j)
    if j < 0:
        raise IrrepError("O(2) irreps are labeled by j >= 0 or '0~'")
    return IrrepLabel(O2, field, j=j)


def so3_irrep(l: int, field: str = REAL) -> IrrepLabel:
    l = _integer("SO(3) label l", l)
    _check_l(l)
    return IrrepLabel(SO3, field, j=l)


def o3_irrep(l: int, parity: int, field: str = REAL) -> IrrepLabel:
    l = _integer("O(3) label l", l)
    _check_l(l)
    if parity not in (1, -1):
        raise IrrepError("O(3) irreps are labeled by (l >= 0, parity)")
    return IrrepLabel(O3, field, j=l, parity=parity)


def tensor_irrep(p: int, q: int) -> IrrepLabel:
    p, q = _integer("tensor label p", p), _integer("tensor label q", q)
    if p < 0 or q < 0 or p + q > 2:
        raise IrrepError("tensor reps supported for p, q >= 0 with p + q <= 2")
    return IrrepLabel(LORENTZ, REAL, tensor=(p, q))


def dirac_irrep(realified: bool = False) -> IrrepLabel:
    lab = IrrepLabel(LORENTZ, COMPLEX, spinor=DIRAC)
    return lab.realify() if realified else lab


def spinor_vector_irrep(realified: bool = False) -> IrrepLabel:
    lab = IrrepLabel(LORENTZ, COMPLEX, spinor=SPINOR_VECTOR)
    return lab.realify() if realified else lab


def basis_convention(label: IrrepLabel) -> str:
    if label.group in (SO3, O3):
        return "complex-harmonic" if label.field == COMPLEX else "real-harmonic"
    if label.tensor is not None:
        return "canonical-tensor"
    if label.spinor is not None:
        return "Dirac-basis" + ("-realified" if label.realified else "")
    return "circular"


# ---------------------------------------------------------------------------
# Wigner D matrices: D^l(alpha, beta, gamma) = Z(alpha) d^l(beta) Z(gamma) in
# both bases, Z the z rotation, and d^l(beta) = K Z(beta) K^-1 for
# K = D^l(R_x(-pi/2)), tabulated once per l and basis from d^l(pi/2).

def _round_sqrt(num: int, den: int) -> float:
    """The float nearest to sign(num) sqrt(|num| / den), for roots above
    2^-74: an inexact root lies strictly between s and s + 1 times 2^-128,
    where no rounding boundary falls, so it rounds like s + 1/2."""
    s = math.isqrt((abs(num) << 256) // den)
    inexact = s * s * den != abs(num) << 256
    return math.copysign((2 * s + inexact) / (1 << 129), num)


@lru_cache(maxsize=None)
def _half_pi_d(l: int) -> np.ndarray:
    """Delta = d^l(pi/2), rows and columns m = l, ..., -l: the factorial sum
    at cos(pi/4) = sin(pi/4) in integers, each entry rounded once."""
    f = [math.factorial(i) for i in range(2 * l + 1)]
    ms = range(l, -l - 1, -1)
    out = np.empty((2 * l + 1, 2 * l + 1))
    for i, a in enumerate(ms):
        for k, b in enumerate(ms):
            r = sum((-1) ** (a - b + s) * f[2 * l] // (
                f[l + b - s] * f[s] * f[a - b + s] * f[l - a - s])
                for s in range(max(0, b - a), min(l + b, l - a) + 1))
            out[i, k] = _round_sqrt(r * abs(r) * f[l + a] * f[l - a]
                                    * f[l + b] * f[l - b], 4 ** l * f[2 * l] ** 2)
    return out


@lru_cache(maxsize=None)
def _small_d_table(l: int, field: str) -> np.ndarray:
    """d^l(beta) in the basis of ``field``: coefficients of 1, cos(k beta) - 1
    and sin(k beta), k = 1..l, one row each.  ``d_ab = i^(a-b) sum_m
    Delta_ma Delta_mb exp(-i m beta)`` and ``conj(S) d S^T`` (real basis)
    add equal or opposite terms of m and -m: only products and scales round."""
    n = 2 * l + 1
    delta = _half_pi_d(l)
    m = np.arange(l, -l - 1, -1)
    quarter = np.subtract.outer(m, m) % 4
    re_i = np.array([1.0, 0.0, -1.0, 0.0])          # Re i^q
    table = np.empty((n, n, n))
    table[0] = np.eye(n)
    for k in range(1, l + 1):
        plus = np.outer(delta[l - k], delta[l - k])
        minus = np.outer(delta[l + k], delta[l + k])
        table[k] = re_i[quarter] * (plus + minus)
        table[l + k] = re_i[(quarter - 1) % 4] * (plus - minus)
    if field == REAL:
        # Y_0 is row m = 0 twice, Yc_k and Ys_k rows m = +-k with signs.
        k = np.repeat(np.arange(l + 1), 2)[1:]
        sign = np.where((np.arange(n) % 2 == 0) & (k > 0), -1.0, 1.0) * (-1.0) ** k
        rows = table[:, l - k] + sign[:, None] * table[:, l + k]
        scale = np.where(k == 0, 0.25, 0.5)
        table = ((rows[:, :, l - k] + sign * rows[:, :, l + k])
                 * np.sqrt(np.outer(scale, scale)))
    table = np.ascontiguousarray(table).reshape(n, n * n)
    table.flags.writeable = False
    return table


def _check_l(l: int) -> None:
    if not 0 <= l <= MAX_L:
        raise IrrepError(f"l must be in 0..{MAX_L}, got {l}")


def _small_d_stack(l: int, factors: dict, field: str) -> np.ndarray:
    """d^l in the basis of ``field`` from the :func:`_factors` of a stack of
    angles, a fresh C-ordered (n, 2l+1, 2l+1) array.  ``np.einsum`` sums
    each entry over the table rows in order and without BLAS, so every
    matrix of a stack equals the matrix of its angle alone bit for bit."""
    s, c = (t[:, :l] for t in factors["beta"])
    trig = np.concatenate([np.ones((len(s), 1)), -2.0 * s * s, 2.0 * s * c], 1)
    return np.einsum("nk,kd->nd", trig, _small_d_table(l, field)).reshape(
        len(s), 2 * l + 1, 2 * l + 1)


def _so3_stack(l: int, factors: dict, field: str) -> np.ndarray:
    """D^l in the basis of ``field`` from the :func:`_factors` of a stack of
    z-y-z Euler angles; a fresh C-ordered array, composed in place with the
    operations, and so the bits, of the expressions ``left * d * right``
    (complex labels cast d^l to complex once and multiply the phases into
    it) and ``c x - s y``, ``y c + s x`` (real labels turn the rows, then the
    columns)."""
    d = _small_d_stack(l, factors, field)
    if field == COMPLEX:
        left, right = factors[COMPLEX]
        cut = slice(left.shape[1] // 2 - l, left.shape[1] // 2 + l + 1)
        out = d.astype(complex)
        np.multiply(left[:, cut, None], out, out=out)
        out *= right[:, None, cut]
        return out
    # Z(alpha) @ d, then d @ Z(gamma) = (Z(-gamma) @ d^T)^T, in place: the
    # rows (Yc_k, Ys_k) turn by k theta, with s x and s y in two buffers
    # that both turns reuse.
    sx, sy = (np.empty((len(d), l, 2 * l + 1)) for _ in range(2))
    for rows, (c, s) in zip((d, d.swapaxes(1, 2)), factors[REAL]):
        c, s = c[:, :l, None], s[:, :l, None]
        x, y = rows[:, 1::2], rows[:, 2::2]
        np.multiply(s, x, out=sx)
        np.multiply(s, y, out=sy)
        x *= c
        x -= sy
        y *= c
        y += sx
    return d


@lru_cache(maxsize=None)
def real_change_of_basis(l: int) -> np.ndarray:
    """Unitary S^l mapping complex harmonics (m descending) to real ones.

    Real harmonics are ordered ``(Y_l0, Yc_l1, Ys_l1, ..., Yc_ll, Ys_ll)``
    with ``Yc = (Y_m + (-1)^m Y_-m)/sqrt(2)`` and
    ``Ys = -i (Y_m - (-1)^m Y_-m)/sqrt(2)``.
    """
    if l < 0:
        raise IrrepError("l must be >= 0")
    n = 2 * l + 1
    s = np.zeros((n, n), dtype=complex)
    s[0, l] = 1.0
    inv = 1.0 / math.sqrt(2.0)
    for m in range(1, l + 1):
        cs = (-1.0) ** m
        s[2 * m - 1, l - m] = inv
        s[2 * m - 1, l + m] = cs * inv
        s[2 * m, l - m] = -1j * inv
        s[2 * m, l + m] = 1j * cs * inv
    s.flags.writeable = False
    return s


# ---------------------------------------------------------------------------
# Lorentz building blocks

_SIGMA = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)

#: Weyl-basis gamma matrices, gamma[mu] with {gamma^mu, gamma^nu} = 2 eta^munu.
GAMMA = np.zeros((4, 4, 4), dtype=complex)
GAMMA[0, :2, 2:] = _SIGMA[0]
GAMMA[0, 2:, :2] = _SIGMA[0]
for _i in (1, 2, 3):
    GAMMA[_i, :2, 2:] = _SIGMA[_i]
    GAMMA[_i, 2:, :2] = -_SIGMA[_i]
GAMMA.flags.writeable = False

#: Charge-conjugation matrix C = i gamma^2 gamma^0 (real in the Weyl basis).
CHARGE_CONJUGATION = (1j * GAMMA[2] @ GAMMA[0]).real.copy()
CHARGE_CONJUGATION.flags.writeable = False


def _sl2_inverse(a: np.ndarray) -> np.ndarray:
    # Adjugate of each 2x2 block; exact for unit determinant.
    return groups._mat2(a[..., 1, 1], -a[..., 0, 1], -a[..., 1, 0], a[..., 0, 0])


def _diag2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros(a.shape + (2, 2), dtype=np.result_type(a, b))
    out[..., 0, 0], out[..., 1, 1] = a, b
    return out


def _sl2_stack(p: np.ndarray) -> np.ndarray:
    """SL(2,C) elements covering a stack of Lorentz elements given by their
    parameters, shape (n, 6): ``Uz(alpha) Uy(beta) Uz(gamma) A(eta)``."""
    def uz(t):
        return _diag2(np.exp(-0.5j * t), np.exp(0.5j * t))

    c, s = np.cos(p[:, 1] / 2.0), np.sin(p[:, 1] / 2.0)
    uy = groups._mat2(c, -s, s, c).astype(complex)
    eta = p[:, 3:6]
    r = np.sqrt(numerics.row_dots(eta))
    boost = np.tile(np.eye(2, dtype=complex), (len(p), 1, 1))
    moving = r != 0.0
    if moving.any():
        rm = r[moving]
        n = eta[moving] / rm[:, None]
        ch = groups._scalar(math.cosh, rm / 2.0)[:, None, None]
        sh = groups._scalar(math.sinh, rm / 2.0)[:, None, None]
        boost[moving] = ch * np.eye(2) + sh * (
            n[:, 0, None, None] * _SIGMA[1] + n[:, 1, None, None] * _SIGMA[2]
            + n[:, 2, None, None] * _SIGMA[3])
    return uz(p[:, 0]) @ uy @ uz(p[:, 2]) @ boost


def realify(m: np.ndarray) -> np.ndarray:
    """Real 2n x 2n form of a complex-linear map on (Re, Im) stacked vectors;
    a stack of maps gives a stack."""
    r, c = m.shape[-2:]
    out = np.empty(m.shape[:-2] + (2 * r, 2 * c), m.real.dtype)
    out[..., :r, :c] = out[..., r:, c:] = m.real
    np.negative(m.imag, out=out[..., :r, c:])
    out[..., r:, :c] = m.imag
    return out


def realify_antilinear(m: np.ndarray) -> np.ndarray:
    """Real form of the antilinear map ``v -> m @ conj(v)``."""
    return np.block([[m.real, m.imag], [m.imag, -m.real]])


# ---------------------------------------------------------------------------
# representation matrices

def rep_pair(j: IrrepLabel, l: IrrepLabel, params) -> tuple:
    """``(rho_j(g), rho_l(g)^-1)`` for a stack of elements of the labels'
    group, parameters of shape (..., k) -> two stacks (..., dim, dim) of
    ``j.dtype`` and ``l.dtype``, from what the labels share
    (:func:`_factors`) evaluated once.
    Every matrix equals that of its element and label alone bit for bit.

    The inverses are exact closed forms, not the representation of the
    inverse elements (the spinor reps are double-valued over the parameter
    section, which could flip the sign relative to ``rho(g)``) and not a
    numerical inverse (the non-compact reps are badly conditioned at large
    rapidity): compact reps invert by unitarity (the transpose of a real
    stack is a view, for ``j == l`` of the first stack), tensor reps by
    ``Lambda^-1 = eta Lambda^T eta``, and spinor reps by the SL(2,C)
    adjugate.
    """
    if j.group != l.group:
        raise IrrepError(f"labels from different groups: {j} vs {l}")
    p = groups.parameter_stack(j.group, params)
    flat = p.reshape(-1, p.shape[-1])
    factors = _factors(flat, (j, l))
    rho = _rep_stack(j, flat, factors, False)
    if j.group == LORENTZ:
        inv = _rep_stack(l, flat, factors, True)
    else:
        inv = (rho if j == l else _rep_stack(l, flat, factors, False))
        inv = inv.conj().swapaxes(-1, -2)
    return tuple(m.reshape(p.shape[:-1] + m.shape[-2:]) for m in (rho, inv))


def rep_matrices(label: IrrepLabel, params) -> np.ndarray:
    """``rho(g)`` for a stack of elements, of ``label.dtype``: the bits of
    the first stack of :func:`rep_pair` of one label, without forming an
    inverse."""
    p = groups.parameter_stack(label.group, params)
    flat = p.reshape(-1, p.shape[-1])
    rho = _rep_stack(label, flat, _factors(flat, (label,)), False)
    return rho.reshape(p.shape[:-1] + rho.shape[-2:])


def _factors(p: np.ndarray, labels):
    """What the matrices of ``labels`` at parameters (n, k) are formed from.
    SO(3) and O(3): sin and cos of k beta/2 (key ``"beta"``) and, per field,
    the z rotations by k alpha and -k gamma, k = 1..L for the largest label;
    a label l takes the first l columns, or the middle 2l+1 complex phases.
    Lorentz: Lambda and its SL(2,C) cover, None where no label uses it."""
    group = labels[0].group
    if group == LORENTZ:
        lam = (groups.matrices(LORENTZ, p)
               if any(x.spinor != DIRAC for x in labels) else None)
        return lam, _sl2_stack(p) if any(x.spinor for x in labels) else None
    if group not in (SO3, O3):
        return None
    top = max(x.j for x in labels)
    k = np.arange(1, top + 1)
    half = np.multiply.outer(0.5 * p[:, 1], k)
    factors = {"beta": (np.sin(half), np.cos(half))}
    if any(x.field == COMPLEX for x in labels):
        phase = -1j * np.arange(top, -top - 1, -1)
        factors[COMPLEX] = tuple(np.exp(t, out=t) for t in (
            phase * p[:, :1], phase * p[:, 2:3]))
    if any(x.field == REAL for x in labels):
        factors[REAL] = [(np.cos(t), np.sin(t)) for t in (
            np.multiply.outer(p[:, 0], k), np.multiply.outer(-p[:, 2], k))]
    return factors


def _rep_stack(label: IrrepLabel, p: np.ndarray, factors,
               inverse: bool) -> np.ndarray:
    """Matrices (inverses only for Lorentz labels) at parameters (n, k),
    from the :func:`_factors` of labels that include ``label``."""
    n = len(p)
    ones = np.ones((n, 1, 1), label.dtype)
    if label.group == SO2:
        phi = p[:, 0]
        if label.field == COMPLEX:
            return np.exp(1j * label.j * phi)[:, None, None]
        return ones if label.j == 0 else groups.rot2(label.j * phi)
    if label.group == O2:
        phi, s = p[:, 0], p[:, 1]
        if label.tilde:
            return s[:, None, None].astype(label.dtype)
        if label.j == 0:
            return ones
        if label.field == COMPLEX:
            rot = _diag2(np.exp(1j * label.j * phi), np.exp(-1j * label.j * phi))
            refl = s != 1.0
            rot[refl] = rot[refl] @ _SIGMA[1]
            return rot
        return groups.rot2(label.j * phi) @ _diag2(np.ones(n), s)
    if label.group in (SO3, O3):
        m = _so3_stack(label.j, factors, label.field)
        if label.group == O3:
            m[p[:, 3] < 0] *= label.parity * (-1.0) ** label.j
        return m
    lam, sl2 = factors
    if label.tensor is not None:
        return _tensor_stack(*label.tensor, lam, inverse)
    return _spinor_stack(label, lam, sl2, inverse)


def _tensor_stack(p: int, q: int, lam: np.ndarray, inverse: bool) -> np.ndarray:
    """Kronecker chain of p factors Lambda and q factors of its inverse
    transpose ``eta Lambda eta`` (exact for Lorentz); with ``inverse``, of
    ``Lambda^-1 = eta Lambda^T eta`` and ``Lambda^T``."""
    if p + q == 0:
        return np.ones((len(lam), 1, 1))
    if inverse:
        lam, lam_dual = ETA @ lam.swapaxes(-1, -2) @ ETA, lam.swapaxes(-1, -2)
    else:
        lam_dual = ETA @ lam @ ETA
    factors = [lam] * p + [lam_dual] * q
    out = factors[0]
    for f in factors[1:]:
        out = numerics.kron(out, f)
    return out


def _spinor_stack(label: IrrepLabel, lam: np.ndarray, a: np.ndarray,
                  inverse: bool) -> np.ndarray:
    """Weyl-basis spinor rep S(Lambda) = diag((A^dag)^-1, A), A from
    :func:`_sl2_stack`, or with ``inverse`` its inverse diag(A^dag, A^-1);
    tensored with the vector rep for the spinor-vector and realified when
    asked."""
    adag = a.conj().swapaxes(-1, -2)
    s = np.zeros((len(a), 4, 4), dtype=complex)
    if inverse:
        s[:, :2, :2], s[:, 2:, 2:] = adag, _sl2_inverse(a)
    else:
        s[:, :2, :2], s[:, 2:, 2:] = _sl2_inverse(adag), a
    if label.spinor == SPINOR_VECTOR:
        s = numerics.kron(_tensor_stack(1, 0, lam, inverse), s)
    return realify(s) if label.realified else s


# ---------------------------------------------------------------------------
# restriction to stabilizers

_E4 = np.eye(4)


def _slot_columns() -> dict:
    """Orthonormal embeddings of the SO(3)-irreducible slots of tensor reps.

    Keys are slot names; values are (spin, columns) with columns shaped
    (parent_dim, 2*spin + 1).  All rank-2 placements share the same
    coordinate embeddings because rotations act identically on upper and
    lower indices.
    """
    e = _E4
    k = np.kron
    cols = {
        "scalar": (0, np.array([[1.0]])),
        "time": (0, e[:, [0]]),
        "space": (1, e[:, 1:4]),
        "00": (0, k(e[:, [0]], e[:, [0]])),
        "0i": (1, np.column_stack([k(e[:, [0]], e[:, [i]]) for i in (1, 2, 3)])),
        "i0": (1, np.column_stack([k(e[:, [i]], e[:, [0]]) for i in (1, 2, 3)])),
        "trace": (0, sum(k(e[:, [i]], e[:, [i]]) for i in (1, 2, 3)) / math.sqrt(3.0)),
        "as": (1, np.column_stack([
            (k(e[:, [i]], e[:, [j]]) - k(e[:, [j]], e[:, [i]])) / math.sqrt(2.0)
            for i, j in ((2, 3), (3, 1), (1, 2))])),
        "sym": (2, np.column_stack([
            (k(e[:, [1]], e[:, [1]]) - k(e[:, [2]], e[:, [2]])) / math.sqrt(2.0),
            (2 * k(e[:, [3]], e[:, [3]]) - k(e[:, [1]], e[:, [1]])
             - k(e[:, [2]], e[:, [2]])) / math.sqrt(6.0),
            (k(e[:, [1]], e[:, [2]]) + k(e[:, [2]], e[:, [1]])) / math.sqrt(2.0),
            (k(e[:, [1]], e[:, [3]]) + k(e[:, [3]], e[:, [1]])) / math.sqrt(2.0),
            (k(e[:, [2]], e[:, [3]]) + k(e[:, [3]], e[:, [2]])) / math.sqrt(2.0),
        ])),
    }
    return cols


SLOTS = _slot_columns()

#: SO(3)-irreducible slot names per tensor signature on the massive orbit.
TENSOR_SLOTS = {
    (0, 0): ("scalar",),
    (1, 0): ("time", "space"),
    (0, 1): ("time", "space"),
    (2, 0): ("00", "0i", "i0", "trace", "as", "sym"),
    (1, 1): ("00", "0i", "i0", "trace", "as", "sym"),
    (0, 2): ("00", "0i", "i0", "trace", "as", "sym"),
}


def tensor_slots(label: IrrepLabel) -> tuple[str, ...]:
    """The slot names of a tensor label, for the signatures of the table."""
    if label.tensor not in TENSOR_SLOTS:
        raise IrrepError(f"tensor slots are tabulated for p, q >= 0 with "
                         f"p + q <= 2, got {label.tensor}")
    return TENSOR_SLOTS[label.tensor]


def check_pair(j: IrrepLabel, l: IrrepLabel, orbit: groups.Orbit) -> str:
    """The group of a label pair on an orbit; raises :class:`IrrepError`,
    naming both labels, unless they share the group and the field and the
    group acts on the orbit."""
    if j.group != l.group:
        raise IrrepError(f"labels from different groups: {j} vs {l}")
    if j.field != l.field:
        raise IrrepError(f"labels over different fields: {j} vs {l}")
    if j.group not in groups.ORBIT_GROUPS.get(type(orbit), ()):
        raise IrrepError(f"{j} / {l} labels do not live on "
                         f"{type(orbit).__name__}")
    return j.group


def stabilizer_content(label: IrrepLabel, orbit: groups.Orbit) -> Counter:
    """Multiplicity of each irrep of the base-point stabilizer H in the
    complexified ``label``; a realified label counts as V + conj(V).

    Keys name the irreps of H: ``0`` (trivial) for SO(2) on the circle, the
    sign of r_y for O(2), the z weight m for SO(3) and on the null cone,
    m > 0 or ``(0, sign of r_y)`` for O(3), and the spin (a Fraction) on
    the hyperboloid.  The null-cone weights are the J_z weights of the
    hyperboloid's spin content.
    """
    check_pair(label, label, orbit)
    if label.group == SO2:
        return Counter({0: label.dim})
    if label.group == O2:
        if label.dim == 2:
            return Counter((1, -1))
        return Counter((-1 if label.tilde else 1,))
    if label.group == SO3:
        return Counter(range(-label.j, label.j + 1))
    if label.group == O3:
        # r_y = parity * Ry(pi) scales the m = 0 vector by eps (-1)^l (-1)^l.
        return Counter([(0, label.parity)] + list(range(1, label.j + 1)))
    if label.tensor is not None:
        spins = Counter(Fraction(SLOTS[s][0]) for s in tensor_slots(label))
    elif label.spinor == DIRAC:
        spins = Counter({Fraction(1, 2): 2})
    else:
        spins = Counter({Fraction(1, 2): 4, Fraction(3, 2): 2})
    if label.realified:
        spins += spins
    if isinstance(orbit, groups.MassiveHyperboloid):
        return spins
    return Counter(s - k for s, n in spins.items()
                   for k in range(int(2 * s) + 1) for _ in range(n))
