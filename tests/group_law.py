"""Group law on parameter tuples, for the tests only.

The library maps parameters to matrices and never back, so it has no
product or inverse.  The group-law tests take them from here: multiply or
invert the matrices and read parameters off the result.  The stabilizer
draws are closed forms in the parameters.
"""

import math

import numpy as np

from steerkit import groups
from steerkit.groups import (ETA, IDENTITY, LORENTZ, O2, O3, SO2, SO3,
                             Circle, MassiveHyperboloid, Sphere)


def _euler(r: np.ndarray) -> tuple:
    """z-y-z angles of a 3x3 rotation matrix, beta in [0, pi] and gamma 0
    when beta is 0 or pi."""
    s = math.hypot(r[0, 2], r[1, 2])
    if s > 1e-9:
        return (math.atan2(r[1, 2], r[0, 2]), math.atan2(s, r[2, 2]),
                math.atan2(r[2, 1], -r[2, 0]))
    if r[2, 2] > 0:
        return (math.atan2(r[1, 0], r[0, 0]), 0.0, 0.0)    # Rz(alpha)
    return (math.atan2(-r[1, 0], -r[0, 0]), math.pi, 0.0)  # Rz Ry(pi)


def element(group: str, m: np.ndarray) -> tuple:
    """Parameters of the element with matrix realization ``m``."""
    sign = 1.0 if np.linalg.det(m) > 0 else -1.0
    if group in (SO2, O2):
        phi = math.atan2(m[1, 0], m[0, 0])
        return (phi,) if group == SO2 else (phi, sign)
    if group == SO3:
        return _euler(m)
    if group == O3:
        return _euler(sign * m) + (sign,)
    # Lambda = R B(eta), and row 0 of Lambda is row 0 of B(eta):
    # (cosh|eta|, sinh|eta| eta/|eta|).
    sh = m[0, 1:]
    norm = float(np.linalg.norm(sh))
    eta = math.asinh(norm) * sh / norm if norm > 0 else np.zeros(3)
    rot = m @ groups.boost_matrix(-eta)
    return _euler(rot[1:, 1:]) + tuple(eta)


def product(group: str, a, b) -> tuple:
    """``a * b`` (matrices multiply left to right)."""
    return element(group, groups.matrices(group, a) @ groups.matrices(group, b))


def inverse(group: str, g) -> tuple:
    m = groups.matrices(group, g)
    return element(group, ETA @ m.T @ ETA if group == LORENTZ else m.T)


def stabilizer_draw(orbit, group: str, rng: np.random.Generator) -> tuple:
    """Parameters of a random element of the stabilizer of the orbit's base
    point."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    if isinstance(orbit, Circle):
        if group == SO2:
            return IDENTITY[SO2]
        return (0.0, -1.0) if rng.random() < 0.5 else IDENTITY[O2]
    if isinstance(orbit, Sphere):
        if group == SO3:
            return (theta, 0.0, 0.0)
        if rng.random() < 0.5:
            return (theta, 0.0, 0.0, 1.0)
        # Rz(theta) times the reflection r_y = -Ry(pi)
        return (theta, math.pi, 0.0, -1.0)
    if isinstance(orbit, MassiveHyperboloid):
        return tuple(groups.random_params(SO3, rng, 1)[0].tolist()) + (
            0.0, 0.0, 0.0)
    return (theta, 0.0, 0.0, 0.0, 0.0, 0.0)
