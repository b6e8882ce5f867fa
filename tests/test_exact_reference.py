"""Lorentz kernels and Wigner matrices against the references of
``exact_reference``.

The points sit where the coset section is hardest to get right: next to
the z axis on both sides, next to the rest frame, and at the backward null
direction.  Each kernel from ``section_kernels`` and from ``kernel_at`` is
within 1e-14 of the exact kernel, relative to max(1, |K|).  The SO(3)
representation matrices in both bases are within ``WIGNER_TOL`` per unit
of l + 1 of the 50-digit D^l, at and next to beta = 0 and pi and at
generic angles.  The massive tensor and spinor counts of ``dims`` equal
the nullity of the rational constraint stack modulo two primes.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from steerkit import analytic_bases as bases
from steerkit import groups
from steerkit.groups import MassiveHyperboloid
from steerkit.irreps import (dirac_irrep, rep_matrices, so3_irrep,
                             spinor_vector_irrep, tensor_irrep)
from steerkit.stabilizer_solver import oracle_dimension, predicted_dimension
from steerkit.steering import kernel_at, section_kernels
from steerkit.verify import lorentz_case_grid

from exact_reference import (PRIMES, SPINOR_HALF_ANGLE, cone_kernels,
                             half_angle, massive_kernels, max_error,
                             nullity_mod, spinor_nullity_mod,
                             tensor_constraint, wigner_D)

TOL = 1e-14

GENERIC = (half_angle(Fraction(1, 2)), half_angle(Fraction(1, 3)))
#: Directions about 1e-8 rad from +z and from -z.
NEAR_NORTH = (half_angle(Fraction(1, 2)), half_angle(Fraction(1, 2 * 10**8)))
NEAR_SOUTH = (half_angle(Fraction(1, 2)), half_angle(2 * 10**8))

#: (direction, e^(eta/2)) on the unit-mass hyperboloid.
MASSIVE_POINTS = {
    "generic": (GENERIC, Fraction(3, 2)),
    "near+z": (NEAR_NORTH, Fraction(33, 20)),       # eta ~ 1
    "near-z": (NEAR_SOUTH, Fraction(33, 20)),
    "eta1e-7": (GENERIC, 1 + Fraction(1, 2 * 10**7)),
    "eta1e-9": (GENERIC, 1 + Fraction(1, 2 * 10**9)),
    "rest": (GENERIC, Fraction(1)),
}

#: (direction, x^0) on the null cone; the backward direction has alpha = 0,
#: the library's section there.
CONE_POINTS = {
    "generic": (GENERIC, Fraction(3, 2)),
    "near+z": (NEAR_NORTH, Fraction(11, 4)),
    "near-z": (NEAR_SOUTH, Fraction(11, 4)),
    "backward": (((1, 0), (-1, 0)), Fraction(2)),
}

#: Every tensor pair with p + q <= 2 (all share spin 0, so each has a
#: basis) and the realified Dirac pair.
_TENSORS = [tensor_irrep(p, q) for p in range(3) for q in range(3 - p)]
MASSIVE_BASES = [bases.lorentz_massive_basis(j, l)
                 for j in _TENSORS for l in _TENSORS] + [
    bases.lorentz_massive_basis(dirac_irrep(True), dirac_irrep(True))]
CONE_BASES = [bases.basis_lorentz_massless(1), bases.basis_lorentz_massless(2)]


def _check(elements, point, exact):
    stacked = section_kernels(elements, np.array([point]))[:, 0]
    for elem, k_stack, k_exact in zip(elements, stacked, exact):
        scale = max(1.0, np.linalg.norm(k_exact))
        for k in (k_stack, kernel_at(elem, point)):
            err = np.linalg.norm(k - k_exact) / scale
            assert err <= TOL, (str(elem.j), str(elem.l), elem.kind, err)


@pytest.mark.parametrize("name", MASSIVE_POINTS)
def test_massive_kernels_match_exact_reference(name):
    (alpha, beta), h = MASSIVE_POINTS[name]
    for elements in MASSIVE_BASES:
        point, exact = massive_kernels(elements, alpha, beta, h)
        _check(elements, point, exact)


@pytest.mark.parametrize("name", CONE_POINTS)
def test_cone_kernels_match_exact_reference(name):
    (alpha, beta), x0 = CONE_POINTS[name]
    for elements in CONE_BASES:
        point, exact = cone_kernels(elements, alpha, beta, x0)
        _check(elements, point, exact)


@pytest.mark.parametrize("name", ["eta1e-7", "eta1e-9"])
def test_section_rapidity_near_rest_frame(name):
    (alpha, beta), h = MASSIVE_POINTS[name]
    point, _ = massive_kernels(MASSIVE_BASES[0], alpha, beta, h)
    eta = groups.section_params(MassiveHyperboloid(), [point])[0, 5]
    with localcontext() as ctx:
        ctx.prec = 50
        exact = float(2 * (Decimal(h.numerator) / Decimal(h.denominator)).ln())
    assert abs(eta - exact) <= 4 * np.spacing(exact)


#: Error allowed per unit of l + 1.  The rounding of m * alpha and
#: m * gamma in the phases alone can reach 2 * 2^-53 * pi * l.
WIGNER_TOL = 8e-16

#: (alpha, beta, gamma): beta at and next to the poles, and generic angles.
WIGNER_ANGLES = [(0.7, 0.0, -1.3), (-2.9, math.pi, 0.4), (1.9, 1e-9, 3.1),
                 (-0.6, math.pi - 1e-9, -2.2), (2.6, 1.234, -0.8),
                 (-3.0, 2.71, 1.5)]


@pytest.mark.parametrize("l", [0, 1, 2, 3, 4, 8, 16, 32])
def test_wigner_D_matches_exact_reference(l):
    for field in ("complex", "real"):
        got = rep_matrices(so3_irrep(l, field), WIGNER_ANGLES)
        for angles, m in zip(WIGNER_ANGLES, got):
            err = max_error(m, wigner_D(l, *angles, field == "real"))
            assert err <= WIGNER_TOL * (l + 1), (field, angles, err)


def test_massive_tensor_counts_are_exact():
    # The oracle's count rests on one SVD and its rank cut, the closed form
    # on the content tables; neither is exact.  The nullity of the rational
    # constraint stack of the two rotations, taken modulo two primes, bounds
    # the count over Q from above, and the oracle's independent solutions
    # from below: they meet on every massive tensor pair of `dims --group
    # lorentz --full`, and on the mixed pair tensor(1,1) / tensor(0,2).
    pairs = [(j, l) for j, l, orbit in lorentz_case_grid(True)
             if isinstance(orbit, MassiveHyperboloid) and j.tensor]
    pairs.append((tensor_irrep(1, 1), tensor_irrep(0, 2)))
    assert len(pairs) == 5
    for p in PRIMES:
        assert p % 4 == 1 and p < 2 ** 31
        assert all(p % d for d in range(2, math.isqrt(p) + 1))
    for j, l in pairs:
        count = oracle_dimension(j, l, MassiveHyperboloid())
        assert count == predicted_dimension(j, l, MassiveHyperboloid())
        stack = tensor_constraint(j, l)
        assert [nullity_mod(stack, p) for p in PRIMES] == [count] * 2, (j, l)


def test_massive_spinor_counts_are_exact():
    # The oracle's ladder counts of the realified Dirac and spinor-vector
    # pairs, which `dims --group lorentz --full` prints, against the
    # nullity of the Gaussian-rational constraint of the two SU(2)
    # rotations with cos(theta/2) = 3/5, modulo two primes: four complex
    # blocks of 16 (Dirac) and 256 (spinor-vector) unknowns each, in place
    # of one real stack of 64 or 1024 columns.  Dirac keeps every unknown,
    # the spinor-vector half of them.
    assert SPINOR_HALF_ANGLE == (Fraction(3, 5), Fraction(4, 5))
    mh = MassiveHyperboloid()
    for label, count in [(dirac_irrep(True), 16),
                         (spinor_vector_irrep(True), 80)]:
        assert oracle_dimension(label, label, mh) == count
        assert predicted_dimension(label, label, mh) == count
        assert [spinor_nullity_mod(label, p) for p in PRIMES] == [count] * 2
