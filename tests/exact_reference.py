"""Exact reference kernels on the Lorentz orbits, exact projectors onto the
circle's intertwiner spaces, exact counts of the massive tensor and spinor
intertwiners and a 50-digit reference for the Wigner matrices, for the
tests only.

A kernel at x is ``rho_j(g) K0 rho_l(g)^-1`` for a group element g with
``g . x0 = x``.  At the points built here g has rational entries, so the
kernel is evaluated exactly, with the base matrix entering as the exact
value of its float64 entries (``Fraction(float)``), and rounded to float64
once.  The sections differ from the library's on purpose where the kernels
allow it:

* massive tensors: the pure boost B(u) of the 4-velocity u.  Massive
  kernels are invariant under the stabilizer, the rotations, so any section
  gives the same kernel.
* realified Dirac: the SL(2,C) boost ``((1 + u0) I + u.sigma) / sqrt(2 (1 +
  u0))``, rational when ``e^(eta/2)`` is.
* null cone: the library's own section ``R(alpha, beta, 0) Bz(eta)``,
  because massless kernels depend on the section up to gauge.

A direction is given by the rational cosines and sines of its angles (see
:func:`half_angle`), a rapidity by the rational ``e^(eta/2)`` (massive) or
``e^eta = x^0`` (cone).  Rational matrices are kept as an integer object
array over one common denominator.

The counts stack the constraint of two rational rotations, which generate
a dense subgroup of the massive stabilizer, in integers and take its
nullity modulo primes in int64 arithmetic.  The spinor counts take the
SU(2) rotations with the rational half angle cos(theta/2) = 3/5, whose
entries are Gaussian rationals, and i as a square root of -1 modulo primes
p = 1 mod 4; a realified spinor pair is counted as the four complex blocks
between V and its conjugate.

The Wigner D^l reference takes float Euler angles exactly (``Fraction``)
and evaluates d^l(beta) by the factorial sum, the phases by Taylor series
and the real harmonics by the change of basis ``conj(S) D S^T``, all in
``decimal`` with guard digits beyond the 50 it is good for.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from steerkit.irreps import DIRAC


def half_angle(t) -> tuple:
    """(cos, sin) of the angle 2 atan(t), rational for rational t."""
    t = Fraction(t)
    return (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)


def _rational(entries) -> tuple:
    """Rational matrix (integer numerators, common denominator)."""
    f = np.vectorize(Fraction, otypes=[object])(np.asarray(entries, dtype=object))
    den = math.lcm(*(x.denominator for x in f.ravel()))
    return np.vectorize(lambda x: x.numerator * (den // x.denominator),
                        otypes=[object])(f), den


def _mul(a: tuple, b: tuple) -> tuple:
    return a[0] @ b[0], a[1] * b[1]


def _kron(a: tuple, b: tuple) -> tuple:
    return np.kron(a[0], b[0]), a[1] * b[1]


def _float(a: tuple) -> np.ndarray:
    # int / int is correctly rounded.
    return np.vectorize(lambda x: x / a[1], otypes=[float])(a[0])


_ETA = np.diag([1, -1, -1, -1]).astype(object)


def _tensor_rep(p: int, q: int, lam) -> tuple:
    out = _rational([[1]])
    for f in [lam] * p + [_ETA @ lam @ _ETA] * q:
        out = _kron(out, _rational(f))
    return out


def _dirac_realified(c, s, n) -> tuple:
    """Realified Weyl-basis S(A) = diag(A^-1, A) of the Hermitian SL(2,C)
    boost ``A = c I + s n.sigma``."""
    re = np.array([[n[2], n[0]], [n[0], -n[2]]], dtype=object)
    im = np.array([[0, -n[1]], [n[1], 0]], dtype=object)
    eye, zero = np.eye(2, dtype=int).astype(object), np.zeros((2, 2), int)
    s_re = np.block([[c * eye - s * re, zero], [zero, c * eye + s * re]])
    s_im = np.block([[-s * im, zero], [zero, s * im]])
    return _rational(np.block([[s_re, -s_im], [s_im, s_re]]))


def _steer(elements, rho, rho_inv) -> np.ndarray:
    return np.stack([_float(_mul(_mul(rho, _rational(e.base_matrix)),
                                 rho_inv)) for e in elements])


def _direction(alpha, beta) -> list:
    (ca, sa), (cb, sb) = alpha, beta
    return [sb * ca, sb * sa, cb]


def massive_kernels(elements, alpha, beta, h) -> tuple:
    """The point of the unit-mass hyperboloid with direction angles
    ``alpha``, ``beta`` (rational (cos, sin) pairs) and ``e^(eta/2) = h``,
    as a float 4-vector, and the exact kernels of ``elements`` there."""
    h = Fraction(h)
    c, s = (h + 1 / h) / 2, (h - 1 / h) / 2   # cosh, sinh of eta / 2
    n = _direction(alpha, beta)
    u0, u = c * c + s * s, [2 * c * s * v for v in n]
    point = [float(v) for v in [u0] + u]
    e0 = elements[0]
    if e0.j.spinor == DIRAC:
        return point, _steer(elements, _dirac_realified(c, s, n),
                             _dirac_realified(c, -s, n))
    lam = np.empty((4, 4), dtype=object)
    lam[0, 0], lam[0, 1:], lam[1:, 0] = u0, u, u
    lam[1:, 1:] = [[int(a == b) + ua * ub / (1 + u0)
                    for b, ub in enumerate(u)] for a, ua in enumerate(u)]
    inv = _ETA @ lam.T @ _ETA
    return point, _steer(elements, _tensor_rep(*e0.j.tensor, lam),
                         _tensor_rep(*e0.l.tensor, inv))


def cone_kernels(elements, alpha, beta, x0) -> tuple:
    """The null-cone point ``x0 (1, n)`` with direction angles ``alpha``,
    ``beta``, as a float 4-vector, and the exact kernels of ``elements``
    there through the section ``R(alpha, beta, 0) Bz(log x0)``."""
    x0 = Fraction(x0)
    (ca, sa), (cb, sb) = alpha, beta
    ch, sh = (x0 + 1 / x0) / 2, (x0 - 1 / x0) / 2
    rz = np.array([[1, 0, 0, 0], [0, ca, -sa, 0], [0, sa, ca, 0],
                   [0, 0, 0, 1]], dtype=object)
    ry = np.array([[1, 0, 0, 0], [0, cb, 0, sb], [0, 0, 1, 0],
                   [0, -sb, 0, cb]], dtype=object)
    bz = np.array([[ch, 0, 0, sh], [0, 1, 0, 0], [0, 0, 1, 0],
                   [sh, 0, 0, ch]], dtype=object)
    lam = rz @ ry @ bz
    point = [float(x0 * v) for v in [1] + _direction(alpha, beta)]
    e0 = elements[0]
    return point, _steer(elements, _tensor_rep(*e0.j.tensor, lam),
                         _tensor_rep(*e0.l.tensor, _ETA @ lam.T @ _ETA))


# ---------------------------------------------------------------------------
# intertwiner spaces on the circle

def _reflection(label) -> np.ndarray:
    """rho(r_y) of an O(2) label, an integer matrix: 1 for j = 0, -1 for 0~,
    diag(1, -1) for a real j >= 1 and sigma_1 for a complex one."""
    if label.dim == 1:
        return np.array([[-1 if label.tilde else 1]])
    return np.array([[1, 0], [0, -1]] if label.field == "real"
                    else [[0, 1], [1, 0]])


def circle_projector(j, l) -> np.ndarray:
    """The orthogonal projector onto the row-major vectorized intertwiners
    of a pair of circle labels, exact in binary (entries 0, +-1/2 and 1).

    The base point's stabilizer is trivial under SO(2): the projector is the
    identity.  Under O(2) it is {1, r_y}, and the projector is the average
    ``(I + R) / 2`` of the constraint operators, ``R = kron(rho_j(r_y),
    rho_l(r_y)^-T) = kron(rho_j(r_y), rho_l(r_y))``: each rho(r_y) is a
    real symmetric involution, so R is one too.
    """
    d = j.dim * l.dim
    if j.group == "so2":
        return np.eye(d)
    return (np.eye(d) + np.kron(_reflection(j), _reflection(l))) / 2


def projector_error(basis, exact) -> float:
    """Largest entry of the real and imaginary parts of ``B B^H - P``, for a
    basis B and a projector P of float entries, each taken exactly: the
    product is formed in rationals and rounded once."""
    b = np.asarray(basis, dtype=complex)
    re, im, p = (np.vectorize(Fraction, otypes=[object])(a)
                 for a in (b.real, b.imag, np.asarray(exact, dtype=float)))
    # (Re + i Im)(Re^T - i Im^T)
    parts = (re @ re.T + im @ im.T - p, im @ re.T - re @ im.T)
    return float(max(abs(x) for part in parts for x in part.ravel()))


# ---------------------------------------------------------------------------
# exact counts on the massive hyperboloid

#: Two primes p = 1 mod 4 below 2^31: i exists mod p, and the product of two
#: residues stays below 2^62, inside int64.
PRIMES = (2147483629, 2147483549)

#: 5 Lambda for the rotations by theta about z and about y, cos theta =
#: 3/5: integer matrices.  theta is no rational multiple of pi (Niven), so
#: the two generate a dense subgroup of SO(3), the massive stabilizer.
_ROTATIONS5 = (np.array([[5, 0, 0, 0], [0, 3, -4, 0], [0, 4, 3, 0],
                         [0, 0, 0, 5]], dtype=np.int64),
               np.array([[5, 0, 0, 0], [0, 3, 0, 4], [0, 0, 5, 0],
                         [0, -4, 0, 3]], dtype=np.int64))


def tensor_constraint(j, l) -> np.ndarray:
    """The constraint ``kron(rho_j(h), rho_l(h)^-T) - I`` of a massive
    tensor pair for both rotations h, stacked, times 5^(rank j + rank l):
    an integer matrix.  A rotation has eta Lambda eta = Lambda^-T = Lambda,
    so both factors are Kronecker powers of Lambda."""
    k = sum(j.tensor) + sum(l.tensor)
    blocks = []
    for r in _ROTATIONS5:
        m = np.ones((1, 1), dtype=np.int64)
        for _ in range(k):
            m = np.kron(m, r)
        blocks.append(m - 5 ** k * np.eye(len(m), dtype=np.int64))
    return np.vstack(blocks)


#: (cos, sin) of theta / 2 for the spinor counts, 2 atan(1/2): (3/5, 4/5).
#: Then cos theta = -7/25, and theta is again no rational multiple of pi.
SPINOR_HALF_ANGLE = half_angle(Fraction(1, 2))


def _gaussian_mul(a: tuple, b: tuple) -> tuple:
    """The product of two Gaussian integer matrices, each (re, im)."""
    return a[0] @ b[0] - a[1] @ b[1], a[0] @ b[1] + a[1] @ b[0]


def _su2_rotations5() -> list:
    """5 A for the SU(2) rotations by theta about z and about y, A =
    cos(theta/2) I - i sin(theta/2) n.sigma: Gaussian integer matrices."""
    c, s = (int(5 * x) for x in SPINOR_HALF_ANGLE)
    return [(np.array([[c, 0], [0, c]]), np.array([[-s, 0], [0, s]])),
            (np.array([[c, -s], [s, c]]), np.zeros((2, 2), dtype=int))]


#: The Pauli matrices x, y, z as Gaussian integer matrices.
_PAULI = [(np.array([[0, 1], [1, 0]]), np.zeros((2, 2), dtype=int)),
          (np.zeros((2, 2), dtype=int), np.array([[0, -1], [1, 0]])),
          (np.array([[1, 0], [0, -1]]), np.zeros((2, 2), dtype=int))]


def _covered_rotation25(a5: tuple) -> np.ndarray:
    """25 Lambda for the Lorentz rotation that the SU(2) element A = a5 / 5
    covers: the time row and column of the identity and R_jk = tr(sigma_j
    A sigma_k A^H) / 2, an integer matrix."""
    adjoint = (a5[0].T, -a5[1].T)
    lam = np.zeros((4, 4), dtype=int)
    lam[0, 0] = 25
    for j, sj in enumerate(_PAULI):
        for k, sk in enumerate(_PAULI):
            m = _gaussian_mul(_gaussian_mul(sj, a5),
                              _gaussian_mul(sk, adjoint))
            assert np.trace(m[1]) == 0 and np.trace(m[0]) % 2 == 0
            lam[1 + j, 1 + k] = np.trace(m[0]) // 2
    return lam


def _spinor_rotations(label) -> list:
    """N rho(h) of the complex form V of a realified massive spinor label,
    for both rotations h, with the scale N: the Weyl-basis Dirac rep
    diag((A^H)^-1, A) = diag(A, A) of a rotation (N = 5), tensored with the
    vector's Lambda for the spinor-vector (N = 125).  Gaussian integer
    matrices."""
    out = []
    for a5 in _su2_rotations5():
        zero = np.zeros((2, 2), dtype=int)
        rho = tuple(np.block([[x, zero], [zero, x]]) for x in a5)
        if label.spinor != DIRAC:
            lam = _covered_rotation25(a5)
            rho = tuple(np.kron(x, lam) for x in rho)
        out.append(rho)
    return out


def spinor_nullity_mod(label, p: int) -> int:
    """The nullity of the constraint of a realified massive spinor pair
    (label, label) modulo the prime p = 1 mod 4, where i is a square root
    of -1.  The realified label is V + conj(V) over C, so its real
    intertwiners number dim_C Hom(V + conj V, V + conj V): the sum over the
    four blocks Hom(V_a, V_b), a, b in {V, conj V}, each the nullity of the
    stack of ``kron(N rho_b(h), N conj(rho_a(h))) - N^2 I`` (for a unitary
    rho, rho^-T = conj(rho)).  conj sends i to -i."""
    i = next(pow(g, (p - 1) // 4, p) for g in range(2, p)
             if pow(g, (p - 1) // 2, p) == p - 1)
    assert i * i % p == p - 1
    forms = [[(re + i * im) % p, (re - i * im) % p]
             for re, im in _spinor_rotations(label)]
    n = len(forms[0][0])
    scale = 5 if label.spinor == DIRAC else 125
    count = 0
    for a in (0, 1):
        for b in (0, 1):
            stack = np.vstack([np.kron(rho[b], rho[1 - a]) % p
                               - scale ** 2 * np.eye(n * n, dtype=np.int64)
                               for rho in forms])
            count += nullity_mod(stack, p)
    return count


def nullity_mod(a: np.ndarray, p: int) -> int:
    """Dimension of the kernel of an integer matrix modulo the prime p, by
    Gaussian elimination in int64.  The rank mod p is at most the rank over
    Q, so this bounds the nullity over Q from above."""
    a = np.asarray(a, dtype=np.int64) % p
    rank = 0
    for col in range(a.shape[1]):
        rows = rank + np.flatnonzero(a[rank:, col])
        if not len(rows):
            continue
        a[[rank, rows[0]]] = a[[rows[0], rank]]
        a[rank, col:] = a[rank, col:] * pow(int(a[rank, col]), p - 2, p) % p
        # Only the rows with an entry in the pivot column change: the
        # constraint stacks are sparse.
        rows = rank + 1 + np.flatnonzero(a[rank + 1:, col])
        a[rows, col:] = (a[rows, col:]
                         - a[rows, col:col + 1] * a[rank, col:] % p) % p
        rank += 1
    return a.shape[1] - rank


# ---------------------------------------------------------------------------
# Wigner D^l at 50 digits

DIGITS = 50
#: Working precision: the factorial sum cancels about 20 digits at l = 32.
_PREC = DIGITS + 40


def _decimal(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


def _cos_sin(x: Fraction) -> tuple:
    """(cos x, sin x) for |x| <= 4 by their Taylor series."""
    x = _decimal(x)
    cos, sin, term, k = Decimal(0), Decimal(0), Decimal(1), 0
    eps = Decimal(10) ** -(_PREC + 5)
    while abs(term) > eps or k < 2:
        part = term if k % 4 < 2 else -term
        if k % 2:
            sin += part
        else:
            cos += part
        k += 1
        term = term * x / k
    return cos, sin


def _phases(l: int, angle: Fraction) -> list:
    """exp(-i m angle) for m = l, ..., -l as (re, im) pairs, from powers of
    exp(i angle)."""
    c, s = _cos_sin(angle)
    powers = [(Decimal(1), Decimal(0))]
    for _ in range(l):
        re, im = powers[-1]
        powers.append((re * c - im * s, re * s + im * c))
    return [(powers[abs(m)][0], -powers[abs(m)][1] if m > 0 else powers[-m][1])
            for m in range(l, -l - 1, -1)]


@lru_cache(maxsize=None)
def _factorial_sum(l: int) -> list:
    """The factorial sum of d^l per entry (rows and columns m = l, ..., -l):
    the integer ``(l+a)! (l-a)! (l+b)! (l-b)!`` under the square root and
    the terms ``(+-(2l)! / ((l+b-s)! s! (a-b+s)! (l-a-s)!), cos power, sin
    power)`` of cos(beta/2) and sin(beta/2); the entry divides by (2l)!."""
    f = math.factorial
    return [[(f(l + a) * f(l - a) * f(l + b) * f(l - b),
              [((-1) ** (a - b + k) * (f(2 * l) // (
                  f(l + b - k) * f(k) * f(a - b + k) * f(l - a - k))),
                2 * l + b - a - 2 * k, a - b + 2 * k)
               for k in range(max(0, b - a), min(l + b, l - a) + 1)])
             for b in range(l, -l - 1, -1)] for a in range(l, -l - 1, -1)]


@lru_cache(maxsize=None)
def _small_d(l: int, beta: Fraction) -> tuple:
    """d^l(beta) by the factorial sum, rows and columns m = l, ..., -l."""
    c, s = _cos_sin(beta / 2)
    cpow, spow = [Decimal(1)], [Decimal(1)]
    for _ in range(2 * l):
        cpow.append(cpow[-1] * c)
        spow.append(spow[-1] * s)
    scale = math.factorial(2 * l)
    return tuple(tuple(sum(coef * cpow[cp] * spow[sp] for coef, cp, sp in terms)
                       * Decimal(norm).sqrt() / scale for norm, terms in row)
                 for row in _factorial_sum(l))


def _real_rows(l: int) -> list:
    """Rows of S (``irreps.real_change_of_basis``) as (column, re, im)."""
    h, zero = 1 / Decimal(2).sqrt(), Decimal(0)
    rows = [[(l, Decimal(1), zero)]]
    for m in range(1, l + 1):
        cs = (-1) ** m
        rows.append([(l - m, h, zero), (l + m, cs * h, zero)])
        rows.append([(l - m, zero, -h), (l + m, zero, cs * h)])
    return rows


def wigner_D(l: int, alpha: float, beta: float, gamma: float, real: bool):
    """D^l at the Euler angles, each float taken exactly: a pair of Decimal
    matrices (re, im) in the complex basis, a Decimal matrix in the real
    basis."""
    with localcontext() as ctx:
        ctx.prec = _PREC
        d = _small_d(l, Fraction(beta))
        left, right = _phases(l, Fraction(alpha)), _phases(l, Fraction(gamma))
        n = 2 * l + 1
        re = [[None] * n for _ in range(n)]
        im = [[None] * n for _ in range(n)]
        for i, (lr, li) in enumerate(left):
            for k, (rr, ri) in enumerate(right):
                re[i][k] = (lr * rr - li * ri) * d[i][k]
                im[i][k] = (lr * ri + li * rr) * d[i][k]
        if not real:
            return re, im
        rows = _real_rows(l)
        out = [[Decimal(0)] * n for _ in range(n)]
        for a, row_a in enumerate(rows):
            for b, row_b in enumerate(rows):
                for i, sr, si in row_a:
                    for k, tr, ti in row_b:
                        # Re((sr - i si) (re + i im) (tr + i ti))
                        pr = sr * re[i][k] + si * im[i][k]
                        pi = sr * im[i][k] - si * re[i][k]
                        out[a][b] += pr * tr - pi * ti
        return out


def max_error(matrix, exact) -> float:
    """Largest entry of |matrix - exact|, formed in Decimal; ``exact`` as
    returned by :func:`wigner_D`."""
    m = np.asarray(matrix)
    if isinstance(exact, tuple):
        return max(max_error(m.real, exact[0]), max_error(m.imag, exact[1]))
    with localcontext() as ctx:
        ctx.prec = _PREC
        return float(max(abs(Decimal(float(v)) - e)
                         for row, row_e in zip(m, exact)
                         for v, e in zip(row, row_e)))
