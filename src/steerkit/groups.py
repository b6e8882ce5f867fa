"""Group elements, orbits, coset sections and stabilizer samples.

Covers SO(2), O(2), SO(3), O(3) and the proper orthochronous Lorentz group
SO+(1,3).  Conventions fixed here and relied on everywhere else:

* Euler angles are z-y-z: ``R(alpha, beta, gamma) = Rz(alpha) Ry(beta)
  Rz(gamma)`` with ``alpha, gamma in [0, 2pi)`` and ``beta in [0, pi]``.
* O(2) elements are ``g_{phi,s} = [[cos phi, -s sin phi], [sin phi, s cos phi]]``
  with ``s = det``; O(3) elements are ``p * R`` with ``p = det``.
* Lorentz elements factor as ``Lambda = R(alpha, beta, gamma) @ B(eta)`` with
  ``B`` a pure boost of rapidity vector ``eta``; the metric is
  ``diag(1, -1, -1, -1)`` and all elements are orthochronous with det +1.
* Coset sections: circle ``x0 = (R, 0)`` with ``g_phi``; sphere ``x0 =
  (0, 0, R)`` with ``g_{alpha,beta,0}``; massive hyperboloid ``x0 =
  (m, 0, 0, 0)`` with ``R(alpha,beta,0) Bz(eta)``; null cone ``x0 =
  (1, 0, 0, 1)`` likewise with ``exp(eta) = x^0``.  At the coordinate
  singularities (south pole, backward null direction) the section fixes
  ``alpha = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

TWO_PI = 2.0 * math.pi

SO2, O2, SO3, O3, LORENTZ = "so2", "o2", "so3", "o3", "lorentz"
GROUPS = (SO2, O2, SO3, O3, LORENTZ)

#: Minkowski metric diag(1, -1, -1, -1).
ETA = np.diag([1.0, -1.0, -1.0, -1.0])

_ORTHO_TOL = 1e-12


class GroupError(ValueError):
    """Invalid group element, orbit point or operation."""


def _require_finite(what: str, *values) -> None:
    # Written as "accept if finite": a NaN fails every comparison, so
    # "reject if out of range" checks alone would let it through.
    if not all(map(math.isfinite, values)):
        raise GroupError(f"{what} must be finite, got {tuple(map(float, values))}")


def _wrap(angle: float) -> float:
    a = float(angle) % TWO_PI
    # Collapse the 2*pi boundary so wrapped values stay in [0, 2*pi).
    return 0.0 if a >= TWO_PI or abs(a) < 1e-15 or abs(a - TWO_PI) < 1e-15 else a


# ---------------------------------------------------------------------------
# matrix building blocks

def rot2(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def _o2_matrix(phi: float, s: int) -> np.ndarray:
    c, sn = math.cos(phi), math.sin(phi)
    return np.array([[c, -s * sn], [sn, s * c]])


def _rotz3(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _roty3(b: float) -> np.ndarray:
    c, s = math.cos(b), math.sin(b)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def euler_zyz_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    return _rotz3(alpha) @ _roty3(beta) @ _rotz3(gamma)


def boost_matrix(eta: np.ndarray) -> np.ndarray:
    """Pure boost with rapidity vector ``eta`` (symmetric 4x4)."""
    eta = np.asarray(eta, dtype=float)
    r = float(np.linalg.norm(eta))
    out = np.eye(4)
    if r == 0.0:
        return out
    n = eta / r
    ch, sh = math.cosh(r), math.sinh(r)
    out[0, 0] = ch
    out[0, 1:] = sh * n
    out[1:, 0] = sh * n
    out[1:, 1:] = np.eye(3) + (ch - 1.0) * np.outer(n, n)
    return out


def _rot4(r3: np.ndarray) -> np.ndarray:
    out = np.eye(4)
    out[1:, 1:] = r3
    return out


def _euler_from_rotation(r: np.ndarray) -> tuple[float, float, float]:
    """z-y-z Euler angles from a 3x3 rotation matrix, beta in [0, pi]."""
    cb = min(1.0, max(-1.0, float(r[2, 2])))
    beta = math.acos(cb)
    sb = math.sin(beta)
    if sb > 1e-9:
        alpha = math.atan2(r[1, 2], r[0, 2])
        gamma = math.atan2(r[2, 1], -r[2, 0])
    elif cb > 0.0:
        # beta ~ 0: only alpha + gamma is defined, put it all in alpha.
        beta = 0.0
        alpha = math.atan2(r[1, 0], r[0, 0])
        gamma = 0.0
    else:
        # beta ~ pi: R = Rz(alpha) Ry(pi), so R[:2,:2] = -Rz(alpha)[:2,:2]
        beta = math.pi
        alpha = math.atan2(-r[1, 0], -r[0, 0])
        gamma = 0.0
    return _wrap(alpha), beta, _wrap(gamma)


# ---------------------------------------------------------------------------
# group elements

@dataclass(frozen=True)
class GroupElement:
    """Parametrized element of one of the five supported groups.

    ``params`` is the canonical parameter tuple: ``(phi,)`` for SO(2),
    ``(phi, s)`` for O(2), ``(alpha, beta, gamma)`` for SO(3), plus parity
    ``p`` for O(3), plus the rapidity vector for the Lorentz group.
    """

    group: str
    params: tuple[float, ...]

    @property
    def matrix(self) -> np.ndarray:
        """Concrete matrix realization on R^d (d = 2, 3 or 4)."""
        p = self.params
        if self.group == SO2:
            return rot2(p[0])
        if self.group == O2:
            return _o2_matrix(p[0], int(p[1]))
        if self.group == SO3:
            return euler_zyz_matrix(*p)
        if self.group == O3:
            return p[3] * euler_zyz_matrix(p[0], p[1], p[2])
        if self.group == LORENTZ:
            return _rot4(euler_zyz_matrix(p[0], p[1], p[2])) @ boost_matrix(p[3:6])
        raise GroupError(f"unknown group {self.group!r}")

    def inverse(self) -> "GroupElement":
        m = self.matrix
        if self.group == LORENTZ:
            return element_from_matrix(self.group, ETA @ m.T @ ETA)
        return element_from_matrix(self.group, m.T)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return compose(self, other)


def so2_element(phi: float) -> GroupElement:
    _require_finite("SO(2) angle", phi)
    return GroupElement(SO2, (_wrap(phi),))


def o2_element(phi: float, s: int = 1) -> GroupElement:
    if s not in (1, -1):
        raise GroupError("O(2) sign must be +1 or -1")
    _require_finite("O(2) angle", phi)
    return GroupElement(O2, (_wrap(phi), float(s)))


def o2_reflection() -> GroupElement:
    """The reflection r_y : (x, y) -> (x, -y)."""
    return o2_element(0.0, -1)


def so3_element(alpha: float, beta: float, gamma: float) -> GroupElement:
    # Canonicalize through the matrix so any input lands in the standard
    # z-y-z ranges.
    _require_finite("Euler angles", alpha, beta, gamma)
    return element_from_matrix(SO3, euler_zyz_matrix(alpha, beta, gamma))


def o3_element(alpha: float, beta: float, gamma: float, parity: int = 1) -> GroupElement:
    if parity not in (1, -1):
        raise GroupError("O(3) parity must be +1 or -1")
    g = so3_element(alpha, beta, gamma)
    return GroupElement(O3, g.params + (float(parity),))


def lorentz_element(alpha: float, beta: float, gamma: float,
                    eta=(0.0, 0.0, 0.0)) -> GroupElement:
    g = so3_element(alpha, beta, gamma)
    e = np.asarray(eta, dtype=float)
    if e.shape != (3,):
        raise GroupError("rapidity must be a 3-vector")
    _require_finite("rapidity", *e)
    return GroupElement(LORENTZ, g.params + tuple(e))


def identity(group: str) -> GroupElement:
    return {
        SO2: so2_element(0.0),
        O2: o2_element(0.0, 1),
        SO3: GroupElement(SO3, (0.0, 0.0, 0.0)),
        O3: GroupElement(O3, (0.0, 0.0, 0.0, 1.0)),
        LORENTZ: GroupElement(LORENTZ, (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
    }[group]


def element_from_matrix(group: str, m: np.ndarray) -> GroupElement:
    """Recover canonical parameters from a matrix realization."""
    m = np.asarray(m, dtype=float)
    if group == SO2:
        return so2_element(math.atan2(m[1, 0], m[0, 0]))
    if group == O2:
        s = 1 if np.linalg.det(m) > 0 else -1
        return o2_element(math.atan2(m[1, 0], m[0, 0]), s)
    if group == SO3:
        return GroupElement(SO3, _euler_from_rotation(m))
    if group == O3:
        p = 1.0 if np.linalg.det(m) > 0 else -1.0
        return GroupElement(O3, _euler_from_rotation(p * m) + (p,))
    if group == LORENTZ:
        return _lorentz_from_matrix(m)
    raise GroupError(f"unknown group {group!r}")


def _lorentz_from_matrix(m: np.ndarray) -> GroupElement:
    if m[0, 0] < 1.0 - 1e-9 or np.linalg.det(m) < 0:
        raise GroupError("matrix is not proper orthochronous")
    # Polar split Lambda = R B: B^2 = Lambda^T Lambda is SPD because R is
    # Euclidean-orthogonal and B symmetric.
    b2 = m.T @ m
    b2 = 0.5 * (b2 + b2.T)
    ch = b2[0, 0]
    if ch <= 1.0 + 1e-14:
        eta = np.zeros(3)
    else:
        # B^2 is the boost of rapidity 2*eta along the same axis.
        sh_vec = b2[0, 1:]
        sh = float(np.linalg.norm(sh_vec))
        eta = 0.5 * math.asinh(sh) * (sh_vec / sh)
    rot4 = m @ boost_matrix(-eta)
    alpha, beta, gamma = _euler_from_rotation(rot4[1:, 1:])
    return GroupElement(LORENTZ, (alpha, beta, gamma) + tuple(eta))


def compose(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group product ``a * b`` (matrices multiply left to right)."""
    if a.group != b.group:
        raise GroupError(f"cannot compose {a.group} with {b.group}")
    return element_from_matrix(a.group, a.matrix @ b.matrix)


def random_element(group: str, rng: np.random.Generator,
                   eta_max: float = 2.0) -> GroupElement:
    """Random element; rotation angles quasi-uniform, |eta| <= eta_max."""
    if group == SO2:
        return so2_element(rng.uniform(0.0, TWO_PI))
    if group == O2:
        return o2_element(rng.uniform(0.0, TWO_PI), 1 if rng.random() < 0.5 else -1)
    alpha = rng.uniform(0.0, TWO_PI)
    beta = math.acos(rng.uniform(-1.0, 1.0))
    gamma = rng.uniform(0.0, TWO_PI)
    if group == SO3:
        return GroupElement(SO3, (alpha, beta, gamma))
    if group == O3:
        return GroupElement(O3, (alpha, beta, gamma, 1.0 if rng.random() < 0.5 else -1.0))
    if group == LORENTZ:
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        eta = rng.uniform(0.0, eta_max) * direction
        return GroupElement(LORENTZ, (alpha, beta, gamma) + tuple(eta))
    raise GroupError(f"unknown group {group!r}")


# ---------------------------------------------------------------------------
# orbits and orbit points

@dataclass(frozen=True)
class Circle:
    radius: float = 1.0


@dataclass(frozen=True)
class Sphere:
    radius: float = 1.0


@dataclass(frozen=True)
class MassiveHyperboloid:
    mass: float = 1.0


@dataclass(frozen=True)
class NullCone:
    pass


Orbit = Union[Circle, Sphere, MassiveHyperboloid, NullCone]

#: Groups acting on each orbit type; the first is the default.
ORBIT_GROUPS = {Circle: (SO2, O2), Sphere: (SO3, O3),
                MassiveHyperboloid: (LORENTZ,), NullCone: (LORENTZ,)}


def minkowski(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(x[0] * y[0] - x[1:] @ y[1:])


@dataclass(frozen=True)
class OrbitPoint:
    """Point on an orbit: circle angle, sphere angles, or explicit 4-vector."""

    orbit: Orbit
    coords: tuple[float, ...]

    @property
    def vector(self) -> np.ndarray:
        if isinstance(self.orbit, Circle):
            phi = self.coords[0]
            return self.orbit.radius * np.array([math.cos(phi), math.sin(phi)])
        if isinstance(self.orbit, Sphere):
            a, b = self.coords
            return self.orbit.radius * np.array(
                [math.cos(a) * math.sin(b), math.sin(a) * math.sin(b), math.cos(b)])
        return np.array(self.coords)


def _require_positive(what: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise GroupError(f"{what} must be positive and finite, got {value}")


def circle_point(phi: float, radius: float = 1.0) -> OrbitPoint:
    _require_positive("circle radius", radius)
    _require_finite("circle angle", phi)
    return OrbitPoint(Circle(radius), (_wrap(phi),))


def sphere_point(alpha: float, beta: float, radius: float = 1.0) -> OrbitPoint:
    _require_positive("sphere radius", radius)
    _require_finite("sphere angles", alpha, beta)
    if not 0.0 <= beta <= math.pi + 1e-12:
        b = _wrap(beta)
        if b > math.pi:
            # (alpha, beta) and (alpha + pi, 2pi - beta) are the same point
            return sphere_point(alpha + math.pi, TWO_PI - b, radius)
        beta = b
    return OrbitPoint(Sphere(radius), (_wrap(alpha), min(float(beta), math.pi)))


def massive_point(x, mass: float = 1.0) -> OrbitPoint:
    x = np.asarray(x, dtype=float)
    if x.shape != (4,):
        raise GroupError("hyperboloid point must be a 4-vector")
    _require_positive("hyperboloid mass", mass)
    _require_finite("hyperboloid point", *x)
    with np.errstate(over="ignore", invalid="ignore"):
        # An overflowing square fails the comparison and is rejected here.
        on_orbit = abs(minkowski(x, x) - mass ** 2) <= 1e-11 * max(1.0, x[0] ** 2)
    if not (x[0] > 0 and on_orbit):
        raise GroupError(f"{x} is not on the mass-{mass} hyperboloid")
    return OrbitPoint(MassiveHyperboloid(mass), tuple(x))


def cone_point(x) -> OrbitPoint:
    x = np.asarray(x, dtype=float)
    if x.shape != (4,):
        raise GroupError("cone point must be a 4-vector")
    _require_finite("cone point", *x)
    with np.errstate(over="ignore", invalid="ignore"):
        on_orbit = abs(minkowski(x, x)) <= 1e-11 * x[0] ** 2
    if not (x[0] > 0 and on_orbit):
        raise GroupError(f"{x} is not on the forward null cone")
    return OrbitPoint(NullCone(), tuple(x))


def base_point(orbit: Orbit) -> OrbitPoint:
    if isinstance(orbit, Circle):
        return OrbitPoint(orbit, (0.0,))
    if isinstance(orbit, Sphere):
        return OrbitPoint(orbit, (0.0, 0.0))
    if isinstance(orbit, MassiveHyperboloid):
        return OrbitPoint(orbit, (orbit.mass, 0.0, 0.0, 0.0))
    if isinstance(orbit, NullCone):
        return OrbitPoint(orbit, (1.0, 0.0, 0.0, 1.0))
    raise GroupError(f"unknown orbit {orbit!r}")


def point_from_vector(orbit: Orbit, v: np.ndarray) -> OrbitPoint:
    v = np.asarray(v, dtype=float)
    if isinstance(orbit, Circle):
        r = float(np.linalg.norm(v))
        if abs(r - orbit.radius) > 1e-10 * max(1.0, orbit.radius):
            raise GroupError("vector is off the circle")
        return circle_point(math.atan2(v[1], v[0]), orbit.radius)
    if isinstance(orbit, Sphere):
        r = float(np.linalg.norm(v))
        if abs(r - orbit.radius) > 1e-10 * max(1.0, orbit.radius):
            raise GroupError("vector is off the sphere")
        beta = math.acos(min(1.0, max(-1.0, v[2] / r)))
        alpha = math.atan2(v[1], v[0]) if math.sin(beta) > 1e-12 else 0.0
        return OrbitPoint(orbit, (_wrap(alpha), beta))
    if isinstance(orbit, MassiveHyperboloid):
        return massive_point(v, orbit.mass)
    if isinstance(orbit, NullCone):
        return cone_point(v)
    raise GroupError(f"unknown orbit {orbit!r}")


def _compatible(group: str, orbit: Orbit) -> bool:
    return group in ORBIT_GROUPS.get(type(orbit), ())


def act(g: GroupElement, x: OrbitPoint) -> OrbitPoint:
    """Linear action of ``g`` on the orbit point; the orbit is preserved."""
    if not _compatible(g.group, x.orbit):
        raise GroupError(f"{g.group} does not act on {type(x.orbit).__name__}")
    return point_from_vector(x.orbit, g.matrix @ x.vector)


def default_group(orbit: Orbit) -> str:
    if type(orbit) not in ORBIT_GROUPS:
        raise GroupError(f"unknown orbit {orbit!r}")
    return ORBIT_GROUPS[type(orbit)][0]


def coset_representative(x: OrbitPoint, group: Optional[str] = None) -> GroupElement:
    """Section g with ``g . x0 = x`` for the fixed base point of the orbit.

    For O(2)/O(3) the representative stays in the connected component
    (s = p = +1).  The section is smooth except at the south pole / backward
    null direction, where alpha is fixed to 0.
    """
    orbit = x.orbit
    group = group or default_group(orbit)
    if not _compatible(group, orbit):
        raise GroupError(f"{group} does not act on {type(orbit).__name__}")
    if isinstance(orbit, Circle):
        phi = x.coords[0]
        return so2_element(phi) if group == SO2 else o2_element(phi, 1)
    if isinstance(orbit, Sphere):
        a, b = x.coords
        if group == SO3:
            return GroupElement(SO3, (a, b, 0.0))
        return GroupElement(O3, (a, b, 0.0, 1.0))
    v = x.vector
    if isinstance(orbit, MassiveHyperboloid):
        m = orbit.mass
        eta = math.acosh(max(1.0, v[0] / m))
        sp = v[1:]
        norm = float(np.linalg.norm(sp))
        if norm < 1e-14:
            return GroupElement(LORENTZ, (0.0, 0.0, 0.0, 0.0, 0.0, eta))
        n = sp / norm
    else:
        eta = math.log(v[0])
        n = v[1:] / v[0]
    cb = min(1.0, max(-1.0, float(n[2])))
    beta = math.acos(cb)
    alpha = math.atan2(n[1], n[0]) if math.sin(beta) > 1e-12 else 0.0
    # R(alpha, beta, 0) maps z-hat to n-hat, then Bz supplies the rapidity.
    rot = so3_element(alpha, beta, 0.0)
    return GroupElement(LORENTZ, rot.params + (0.0, 0.0, eta))


# ---------------------------------------------------------------------------
# stabilizers

#: Angles with irrational ratio: the subgroup they generate is dense in the
#: corresponding SO(2), so joint invariance under the sampled rotations is
#: equivalent to invariance under the whole continuous stabilizer.
STABILIZER_ANGLES = (1.0, math.sqrt(2.0))


@dataclass(frozen=True)
class StabilizerSample:
    """Base point plus group elements that fix it (generating sample)."""

    base: OrbitPoint
    elements: tuple[GroupElement, ...]


def stabilizer_sample(orbit: Orbit, group: Optional[str] = None) -> StabilizerSample:
    group = group or default_group(orbit)
    if not _compatible(group, orbit):
        raise GroupError(f"{group} does not act on {type(orbit).__name__}")
    x0 = base_point(orbit)
    if isinstance(orbit, Circle):
        if group == SO2:
            elems = (identity(SO2),)
        else:
            elems = (identity(O2), o2_reflection())
    elif isinstance(orbit, Sphere):
        zrots = tuple(GroupElement(SO3, (t, 0.0, 0.0)) for t in STABILIZER_ANGLES)
        if group == SO3:
            elems = zrots
        else:
            o3_zrots = tuple(GroupElement(O3, g.params + (1.0,)) for g in zrots)
            # r_y = diag(1,-1,1) = parity * rotation by pi about y.
            elems = o3_zrots + (GroupElement(O3, (0.0, math.pi, 0.0, -1.0)),)
    elif isinstance(orbit, MassiveHyperboloid):
        elems = tuple(
            GroupElement(LORENTZ, (t, 0.0, 0.0, 0.0, 0.0, 0.0))
            for t in STABILIZER_ANGLES
        ) + tuple(
            GroupElement(LORENTZ, (0.0, t, 0.0, 0.0, 0.0, 0.0))
            for t in STABILIZER_ANGLES
        )
    else:
        elems = tuple(
            GroupElement(LORENTZ, (t, 0.0, 0.0, 0.0, 0.0, 0.0))
            for t in STABILIZER_ANGLES
        )
    for h in elems:
        if np.linalg.norm(h.matrix @ x0.vector - x0.vector) > _ORTHO_TOL * 10:
            raise GroupError(f"stabilizer sample element {h} moves the base point")
    return StabilizerSample(x0, elems)


def random_stabilizer_element(orbit: Orbit, group: Optional[str] = None,
                              rng: Optional[np.random.Generator] = None) -> GroupElement:
    """Fresh random element of the stabilizer of the orbit's base point."""
    group = group or default_group(orbit)
    rng = rng if rng is not None else np.random.default_rng()
    theta = rng.uniform(0.0, TWO_PI)
    if isinstance(orbit, Circle):
        if group == SO2:
            return identity(SO2)
        return o2_reflection() if rng.random() < 0.5 else identity(O2)
    if isinstance(orbit, Sphere):
        if group == SO3:
            return GroupElement(SO3, (theta, 0.0, 0.0))
        if rng.random() < 0.5:
            return GroupElement(O3, (theta, 0.0, 0.0, 1.0))
        refl = compose(o3_element(theta, 0.0, 0.0),
                       GroupElement(O3, (0.0, math.pi, 0.0, -1.0)))
        return refl
    if isinstance(orbit, MassiveHyperboloid):
        g3 = random_element(SO3, rng)
        return GroupElement(LORENTZ, g3.params + (0.0, 0.0, 0.0))
    return GroupElement(LORENTZ, (theta, 0.0, 0.0, 0.0, 0.0, 0.0))


def random_orbit_point(orbit: Orbit, rng: np.random.Generator,
                       eta_max: float = 2.0) -> OrbitPoint:
    """Random point on the orbit (rapidity capped for Lorentz orbits)."""
    if isinstance(orbit, Circle):
        return circle_point(rng.uniform(0.0, TWO_PI), orbit.radius)
    if isinstance(orbit, Sphere):
        return sphere_point(rng.uniform(0.0, TWO_PI),
                            math.acos(rng.uniform(-1.0, 1.0)), orbit.radius)
    g = random_element(LORENTZ, rng, eta_max=eta_max)
    return act(g, base_point(orbit))
