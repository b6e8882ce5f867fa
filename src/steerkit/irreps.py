"""Irreducible representation matrices for all five groups.

Conventions fixed here:

* SO(2) complex irreps: ``rho_n(g_phi) = exp(i n phi)``, n integer.  Real
  irreps: ``rho_0 = 1`` and the 2x2 rotation by ``j phi`` for j >= 1.
* O(2): the trivial rep, the sign rep (written ``0~``), and 2-dimensional
  reps; the reflection r_y maps to ``sigma_1`` (complex basis) or
  ``diag(1, -1)`` (real basis).
* SO(3) complex irreps are Wigner D-matrices ``D^l_{mm'} = exp(-i m alpha)
  d^l_{mm'}(beta) exp(-i m' gamma)`` in the spherical-harmonic basis with
  Condon-Shortley phases and rows/columns ordered by m descending from +l.
* SO(3) real irreps are ``R^l = conj(S^l) D^l S^l.T`` in the real-harmonic
  order ``(Y_l0, Yc_l1, Ys_l1, ..., Yc_ll, Ys_ll)``.
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

from . import groups
from .groups import ETA, LORENTZ, O2, O3, SO2, SO3, GroupElement

REAL, COMPLEX = "real", "complex"

DIRAC, SPINOR_VECTOR = "dirac", "spinor_vector"


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


def so2_irrep(n: int, field: str = REAL) -> IrrepLabel:
    n = int(n)
    if field == REAL and n < 0:
        raise IrrepError("real SO(2) irreps are labeled by j >= 0")
    return IrrepLabel(SO2, field, j=n)


def o2_irrep(j, field: str = REAL) -> IrrepLabel:
    """O(2) irrep; ``j`` is an integer >= 0 or the string '0~' (sign rep)."""
    if isinstance(j, str):
        if j not in ("0~", "0t"):
            raise IrrepError(f"unknown O(2) label {j!r}")
        return IrrepLabel(O2, field, j=0, tilde=True)
    j = int(j)
    if j < 0:
        raise IrrepError("O(2) irreps are labeled by j >= 0 or '0~'")
    return IrrepLabel(O2, field, j=j)


def so3_irrep(l: int, field: str = REAL) -> IrrepLabel:
    if l < 0:
        raise IrrepError("SO(3) irreps are labeled by l >= 0")
    return IrrepLabel(SO3, field, j=int(l))


def o3_irrep(l: int, parity: int, field: str = REAL) -> IrrepLabel:
    if l < 0 or parity not in (1, -1):
        raise IrrepError("O(3) irreps are labeled by (l >= 0, parity)")
    return IrrepLabel(O3, field, j=int(l), parity=parity)


def tensor_irrep(p: int, q: int) -> IrrepLabel:
    if p < 0 or q < 0 or p + q > 2:
        raise IrrepError("tensor reps supported for p, q >= 0 with p + q <= 2")
    return IrrepLabel(LORENTZ, REAL, tensor=(int(p), int(q)))


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
# Wigner small-d and D matrices

_MAX_L = 32
_LOG_FACT = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, 2 * _MAX_L + 2)))])


@lru_cache(maxsize=None)
def _dsmall_terms(l: int):
    """Term table for the factorial sum, vectorized over (row, col, s)."""
    rows, cols, cps, sps, coefs = [], [], [], [], []
    for a in range(l, -l - 1, -1):          # row index l - a
        for b in range(l, -l - 1, -1):      # col index l - b
            pref = 0.5 * (_LOG_FACT[l + a] + _LOG_FACT[l - a]
                          + _LOG_FACT[l + b] + _LOG_FACT[l - b])
            for s in range(max(0, b - a), min(l + b, l - a) + 1):
                logc = pref - (_LOG_FACT[l + b - s] + _LOG_FACT[s]
                               + _LOG_FACT[a - b + s] + _LOG_FACT[l - a - s])
                rows.append(l - a)
                cols.append(l - b)
                cps.append(2 * l + b - a - 2 * s)
                sps.append(a - b + 2 * s)
                coefs.append((-1.0) ** (a - b + s) * math.exp(logc))
    out = (np.array(rows), np.array(cols), np.array(cps), np.array(sps),
           np.array(coefs))
    for arr in out:
        arr.flags.writeable = False
    return out


def wigner_small_d(l: int, beta: float) -> np.ndarray:
    """Wigner d^l(beta), a real orthogonal (2l+1) x (2l+1) matrix.

    Entry [i, k] is ``d^l_{m m'}(beta)`` with ``m = l - i`` and ``m' = l - k``
    (both indices descending from +l).
    """
    if l < 0:
        raise IrrepError("l must be >= 0")
    if l > _MAX_L:
        raise IrrepError(f"l = {l} exceeds the supported maximum {_MAX_L}")
    rows, cols, cps, sps, coefs = _dsmall_terms(l)
    c = math.cos(beta / 2.0)
    s = math.sin(beta / 2.0)
    cpow = np.power(c, np.arange(2 * l + 1))
    spow = np.power(s, np.arange(2 * l + 1))
    d = np.zeros((2 * l + 1, 2 * l + 1))
    np.add.at(d, (rows, cols), coefs * cpow[cps] * spow[sps])
    return d


def wigner_D(l: int, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Wigner D^l, the SO(3) irrep matrix for z-y-z Euler angles."""
    m = np.arange(l, -l - 1, -1)
    d = wigner_small_d(l, beta)
    return np.exp(-1j * m * alpha)[:, None] * d * np.exp(-1j * m * gamma)[None, :]


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


def so3_real_matrix(l: int, alpha: float, beta: float, gamma: float) -> np.ndarray:
    s = real_change_of_basis(l)
    r = s.conj() @ wigner_D(l, alpha, beta, gamma) @ s.T
    return r.real


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
    # Adjugate; exact for unit determinant.
    return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])


def _sl2_rotation(alpha: float, beta: float, gamma: float) -> np.ndarray:
    def uz(t):
        return np.array([[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]])

    def uy(t):
        c, s = math.cos(t / 2.0), math.sin(t / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)

    return uz(alpha) @ uy(beta) @ uz(gamma)


def _sl2_boost(eta) -> np.ndarray:
    eta = np.asarray(eta, dtype=float)
    r = float(np.linalg.norm(eta))
    if r == 0.0:
        return np.eye(2, dtype=complex)
    n = eta / r
    return math.cosh(r / 2.0) * np.eye(2) + math.sinh(r / 2.0) * (
        n[0] * _SIGMA[1] + n[1] * _SIGMA[2] + n[2] * _SIGMA[3])


def sl2_of(g: GroupElement) -> np.ndarray:
    """SL(2,C) element covering the Lorentz element (one of the two signs)."""
    if g.group != LORENTZ:
        raise IrrepError("sl2_of expects a Lorentz element")
    p = g.params
    return _sl2_rotation(p[0], p[1], p[2]) @ _sl2_boost(p[3:6])


def sl2c_to_lorentz(a) -> GroupElement:
    """Lorentz element of an SL(2,C) matrix via the sigma-trace formula.

    ``Lambda^mu_nu = Tr(sigma_mu a sigma_nu a^dagger) / 2``; a and -a map to
    the same element.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2) or abs(np.linalg.det(a) - 1.0) > 1e-12:
        raise IrrepError("expected a 2x2 matrix with unit determinant")
    lam = np.empty((4, 4))
    adag = a.conj().T
    for mu in range(4):
        for nu in range(4):
            lam[mu, nu] = 0.5 * np.trace(_SIGMA[mu] @ a @ _SIGMA[nu] @ adag).real
    return groups.element_from_matrix(LORENTZ, lam)


def realify(m: np.ndarray) -> np.ndarray:
    """Real 2n x 2n form of a complex-linear map on (Re, Im) stacked vectors."""
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


def realify_antilinear(m: np.ndarray) -> np.ndarray:
    """Real form of the antilinear map ``v -> m @ conj(v)``."""
    return np.block([[m.real, m.imag], [m.imag, -m.real]])


# ---------------------------------------------------------------------------
# representation matrices

def rep_matrix(label: IrrepLabel, g: GroupElement) -> np.ndarray:
    """Representation matrix of ``g`` in the conventions listed above."""
    if label.group != g.group:
        raise IrrepError(f"label {label} does not accept {g.group} elements")
    if label.group == SO2:
        phi = g.params[0]
        if label.field == COMPLEX:
            return np.array([[np.exp(1j * label.j * phi)]])
        if label.j == 0:
            return np.array([[1.0]])
        return groups.rot2(label.j * phi)
    if label.group == O2:
        phi, s = g.params[0], int(g.params[1])
        if label.tilde:
            return np.array([[float(s)]])
        if label.j == 0:
            return np.array([[1.0]])
        if label.field == COMPLEX:
            rot = np.diag([np.exp(1j * label.j * phi), np.exp(-1j * label.j * phi)])
            return rot if s == 1 else rot @ _SIGMA[1]
        return groups.rot2(label.j * phi) @ np.diag([1.0, float(s)])
    if label.group in (SO3, O3):
        alpha, beta, gamma = g.params[:3]
        if label.field == COMPLEX:
            m = wigner_D(label.j, alpha, beta, gamma)
        else:
            m = so3_real_matrix(label.j, alpha, beta, gamma)
        if label.group == O3 and g.params[3] < 0:
            m = m * (label.parity * (-1.0) ** label.j)
        return m
    # Lorentz
    if label.tensor is not None:
        return _tensor_rep(*label.tensor, g, inverse=False)
    return _spinor_rep(label, g, inverse=False)


def rep_inverse(label: IrrepLabel, g: GroupElement) -> np.ndarray:
    """Matrix of ``rho(g)^-1`` by exact closed forms.

    Not ``rep_matrix(label, g.inverse())``: the spinor reps are double-valued
    over the parameter section and that could flip the sign relative to
    ``rho(g)``.  Not a numerical inverse either: the non-compact reps are
    badly conditioned at large rapidity.  Compact reps invert by unitarity,
    tensor reps by the metric identity ``Lambda^-1 = eta Lambda^T eta``, and
    spinor reps by the SL(2,C) adjugate.
    """
    if label.group != LORENTZ:
        return rep_matrix(label, g).conj().T
    if label.tensor is not None:
        return _tensor_rep(*label.tensor, g, inverse=True)
    return _spinor_rep(label, g, inverse=True)


def _tensor_rep(p: int, q: int, g: GroupElement, inverse: bool) -> np.ndarray:
    """Kronecker chain of p factors Lambda and q factors of its inverse
    transpose ``eta Lambda eta`` (exact for Lorentz); with ``inverse``, of
    ``Lambda^-1 = eta Lambda^T eta`` and ``Lambda^T``."""
    if p + q == 0:
        return np.array([[1.0]])
    lam = g.matrix
    if inverse:
        lam, lam_dual = ETA @ lam.T @ ETA, lam.T
    else:
        lam_dual = ETA @ lam @ ETA
    factors = [lam] * p + [lam_dual] * q
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def _spinor_rep(label: IrrepLabel, g: GroupElement, inverse: bool) -> np.ndarray:
    """Weyl-basis spinor rep S(Lambda) = diag((A^dag)^-1, A), A = sl2_of(g),
    or with ``inverse`` its inverse diag(A^dag, A^-1); tensored with the
    vector rep for the spinor-vector and realified when asked."""
    a = sl2_of(g)
    s = np.zeros((4, 4), dtype=complex)
    if inverse:
        s[:2, :2], s[2:, 2:] = a.conj().T, _sl2_inverse(a)
    else:
        s[:2, :2], s[2:, 2:] = _sl2_inverse(a.conj().T), a
    if label.spinor == SPINOR_VECTOR:
        s = np.kron(_tensor_rep(1, 0, g, inverse), s)
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


def massive_spin_content(label: IrrepLabel) -> dict:
    """Multiplicity of each SO(3) spin in the restriction to the massive
    stabilizer.  Keys are Fractions."""
    if label.tensor is not None:
        return dict(Counter(Fraction(SLOTS[s][0])
                            for s in TENSOR_SLOTS[label.tensor]))
    if label.spinor == DIRAC:
        return {Fraction(1, 2): 2}
    if label.spinor == SPINOR_VECTOR:
        return {Fraction(1, 2): 4, Fraction(3, 2): 2}
    raise IrrepError(f"label {label} is not a Lorentz label")


def massless_weight_content(label: IrrepLabel) -> dict:
    """Complexified SO(2)-weight multiplicities on the massless orbit."""
    if label.tensor is not None:
        base = {Fraction(0): 2, Fraction(1): 1, Fraction(-1): 1}
        p, q = label.tensor
        if p + q == 0:
            return {Fraction(0): 1}
        if p + q == 1:
            return dict(base)
        out: dict = {}
        for m1, n1 in base.items():
            for m2, n2 in base.items():
                out[m1 + m2] = out.get(m1 + m2, 0) + n1 * n2
        return out
    if label.spinor == DIRAC:
        out = {Fraction(1, 2): 2, Fraction(-1, 2): 2}
    elif label.spinor == SPINOR_VECTOR:
        out = {Fraction(1, 2): 6, Fraction(-1, 2): 6,
               Fraction(3, 2): 2, Fraction(-3, 2): 2}
    else:
        raise IrrepError(f"label {label} is not a Lorentz label")
    if label.realified:
        out = {m: 2 * n for m, n in out.items()}
    return out
