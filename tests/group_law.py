"""Group law on canonical parameters, for the tests only.

The library maps parameters to matrices and never back, so it has no
product or inverse.  The group-law tests take them from here: multiply or
invert the matrices and read the canonical parameters off the result.  The
stabilizer draws are closed forms in the parameters.
"""

import math

import numpy as np

from steerkit import groups
from steerkit.groups import (ETA, LORENTZ, O2, O3, SO2, SO3, Circle,
                             GroupElement, MassiveHyperboloid, Sphere)


def _euler(r: np.ndarray) -> tuple:
    """Canonical z-y-z angles of a 3x3 rotation matrix."""
    s = math.hypot(r[0, 2], r[1, 2])
    if s > 1e-9:
        angles = (math.atan2(r[1, 2], r[0, 2]), math.atan2(s, r[2, 2]),
                  math.atan2(r[2, 1], -r[2, 0]))
    elif r[2, 2] > 0:
        angles = (math.atan2(r[1, 0], r[0, 0]), 0.0, 0.0)    # Rz(alpha)
    else:
        angles = (math.atan2(-r[1, 0], -r[0, 0]), math.pi, 0.0)  # Rz Ry(pi)
    return groups.so3_element(*angles).params


def element(group: str, m: np.ndarray) -> GroupElement:
    """The element with matrix realization ``m``."""
    sign = 1.0 if np.linalg.det(m) > 0 else -1.0
    if group in (SO2, O2):
        phi = math.atan2(m[1, 0], m[0, 0])
        if group == SO2:
            return groups.so2_element(phi)
        return groups.o2_element(phi, int(sign))
    if group == SO3:
        return GroupElement(SO3, _euler(m))
    if group == O3:
        return GroupElement(O3, _euler(sign * m) + (sign,))
    # Lambda = R B(eta), and row 0 of Lambda is row 0 of B(eta):
    # (cosh|eta|, sinh|eta| eta/|eta|).
    sh = m[0, 1:]
    norm = float(np.linalg.norm(sh))
    eta = math.asinh(norm) * sh / norm if norm > 0 else np.zeros(3)
    rot = m @ groups.boost_matrix(-eta)
    return GroupElement(LORENTZ, _euler(rot[1:, 1:]) + tuple(eta))


def product(a: GroupElement, b: GroupElement) -> GroupElement:
    """``a * b`` (matrices multiply left to right)."""
    return element(a.group, groups.matrices(a.group, a.params)
                   @ groups.matrices(b.group, b.params))


def inverse(g: GroupElement) -> GroupElement:
    m = groups.matrices(g.group, g.params)
    return element(g.group, ETA @ m.T @ ETA if g.group == LORENTZ else m.T)


def stabilizer_draw(orbit, group: str,
                    rng: np.random.Generator) -> GroupElement:
    """Random element of the stabilizer of the orbit's base point."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    if isinstance(orbit, Circle):
        if group == SO2:
            return groups.identity(SO2)
        return groups.o2_reflection() if rng.random() < 0.5 else groups.identity(O2)
    if isinstance(orbit, Sphere):
        if group == SO3:
            return GroupElement(SO3, (theta, 0.0, 0.0))
        if rng.random() < 0.5:
            return GroupElement(O3, (theta, 0.0, 0.0, 1.0))
        # Rz(theta) times the reflection r_y = -Ry(pi)
        return GroupElement(O3, (theta, math.pi, 0.0, -1.0))
    if isinstance(orbit, MassiveHyperboloid):
        return GroupElement(LORENTZ, tuple(
            groups.random_params(SO3, rng, 1)[0].tolist()) + (0.0, 0.0, 0.0))
    return GroupElement(LORENTZ, (theta, 0.0, 0.0, 0.0, 0.0, 0.0))
