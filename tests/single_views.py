"""One-element views of the library's stacked routines, for the tests only.

The library evaluates representations on stacks of elements and keeps the
oracle's spectrum with its nullspace; no library path needs the views of one
element or of the basis alone.  The tests that state conventions element by
element take them from here.
"""

import numpy as np

from steerkit import groups, irreps
from steerkit.irreps import COMPLEX
from steerkit.numerics import nullspace_with_spectrum


def wigner_D(l: int, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Wigner D^l, the SO(3) irrep matrix for z-y-z Euler angles."""
    irreps._check_l(l)
    factors = irreps._factors(np.array([[alpha, beta, gamma]], dtype=float),
                              [irreps.so3_irrep(l, COMPLEX)])
    return irreps._so3_stack(l, factors, COMPLEX)[0]


def wigner_small_d(l: int, beta: float) -> np.ndarray:
    """Wigner d^l(beta), a real orthogonal (2l+1) x (2l+1) matrix.

    Entry [i, k] is ``d^l_{m m'}(beta)`` with ``m = l - i`` and ``m' = l - k``
    (both indices descending from +l).
    """
    irreps._check_l(l)
    factors = irreps._factors(np.array([[0.0, beta, 0.0]]),
                              [irreps.so3_irrep(l, COMPLEX)])
    return irreps._small_d_stack(l, factors, COMPLEX)[0]


def sl2_of(params) -> np.ndarray:
    """SL(2,C) element covering the Lorentz element with parameters
    ``params`` (one of the two signs)."""
    return irreps._sl2_stack(groups.parameter_stack(groups.LORENTZ, [params]))[0]


def nullspace(a) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of ``a``.

    Columns are ordered by ascending singular value and sign-fixed so the
    first significant component of each column is positive real.
    """
    return nullspace_with_spectrum(a)[0]


def so3_stack_reference(l: int, params, field: str) -> np.ndarray:
    """D^l at SO(3) parameters (n, 3) in the basis of ``field``, by the
    out-of-place expressions the library composed with before it worked in
    place: the complex phases as ``left * d * right``, and the real z
    rotations of the rows and then the columns with fresh temporaries."""
    factors = irreps._factors(np.asarray(params, dtype=float),
                              [irreps.so3_irrep(l, field)])
    d = irreps._small_d_stack(l, factors, field)
    if field == COMPLEX:
        left, right = factors[COMPLEX]
        cut = slice(left.shape[1] // 2 - l, left.shape[1] // 2 + l + 1)
        return left[:, cut, None] * d * right[:, None, cut]
    for rows, (c, s) in zip((d, d.swapaxes(1, 2)), factors[irreps.REAL]):
        c, s = c[:, :l, None], s[:, :l, None]
        x, y = rows[:, 1::2], rows[:, 2::2]
        turned = c * x - s * y
        y *= c
        y += s * x
        x[...] = turned
    return d
