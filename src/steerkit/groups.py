"""Group elements, orbits and coset sections.

Covers SO(2), O(2), SO(3), O(3) and the proper orthochronous Lorentz group
SO+(1,3).  Conventions fixed here and relied on everywhere else:

* A group element is its parameter tuple, and a stack of elements is an
  array of shape (..., k): ``(phi,)`` for SO(2), ``(phi, s)`` for O(2),
  ``(alpha, beta, gamma)`` for SO(3), plus the parity ``p`` for O(3), plus
  the rapidity vector for the Lorentz group.  Parameters are taken as
  given: any finite angles are valid, ``s`` and ``p`` are +-1.  The coset
  sections and the random draws produce the canonical ranges, ``alpha,
  gamma in [0, 2pi)`` and ``beta in [0, pi]``.
* Euler angles are z-y-z: ``R(alpha, beta, gamma) = Rz(alpha) Ry(beta)
  Rz(gamma)``.
* O(2) elements are ``g_{phi,s} = [[cos phi, -s sin phi], [sin phi, s cos phi]]``
  with ``s = det``; O(3) elements are ``p * R`` with ``p = det``.
* Lorentz elements factor as ``Lambda = R(alpha, beta, gamma) @ B(eta)`` with
  ``B`` a pure boost of rapidity vector ``eta``; the metric is
  ``diag(1, -1, -1, -1)`` and all elements are orthochronous with det +1.
* Coset sections: circle ``x0 = (R, 0)`` with ``g_phi``; sphere ``x0 =
  (0, 0, R)`` with ``g_{alpha,beta,0}``; massive hyperboloid ``x0 =
  (m, 0, 0, 0)`` with ``R(alpha,beta,0) Bz(eta)``; null cone ``x0 =
  (1, 0, 0, 1)`` likewise with ``exp(eta) = x^0``.  On the z axis (the
  poles, the rest frame, the forward and backward null directions) the
  section fixes ``alpha = 0``, and the rest frame gets the identity.
* Orbit membership is tested in units of the radius or the mass, so that
  it holds on orbits of any positive finite radius or mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .numerics import row_dots

TWO_PI = 2.0 * math.pi

SO2, O2, SO3, O3, LORENTZ = "so2", "o2", "so3", "o3", "lorentz"
GROUPS = (SO2, O2, SO3, O3, LORENTZ)

#: Minkowski metric diag(1, -1, -1, -1).
ETA = np.diag([1.0, -1.0, -1.0, -1.0])

class GroupError(ValueError):
    """Invalid group element, orbit point or operation."""


def _require_finite(what: str, values) -> None:
    # Written as "accept if finite": a NaN fails every comparison, so
    # "reject if out of range" checks alone would let it through.
    if not np.isfinite(np.asarray(values, dtype=float)).all():
        raise GroupError(f"{what} must be finite")


def _wrap_angles(angles) -> np.ndarray:
    """Angles reduced to [0, 2*pi), elementwise; the same remainder as
    Python's float ``%``."""
    a = np.remainder(angles, TWO_PI)
    # Collapse the 2*pi boundary so wrapped values stay in [0, 2*pi).
    return np.where((a >= TWO_PI) | (np.abs(a) < 1e-15)
                    | (np.abs(a - TWO_PI) < 1e-15), 0.0, a)


# ---------------------------------------------------------------------------
# matrix building blocks
#
# Every builder takes a stack of parameters (any leading shape, or none) and
# returns the stack of matrices.  The entries are formed with the same
# floating-point operations as for one element, so each matrix of a stack
# equals the one built alone bit for bit: ``np.cos``/``np.sin`` agree with
# ``math.cos``/``math.sin``, and stacked ``matmul`` runs the per-matrix
# kernel.  ``np.cosh``/``np.sinh``/``np.arctan2`` do not agree with ``math``
# in the last bit, so the boosts and circle angles, whose bits are pinned,
# stay scalar ``math`` calls.

def _scalar(fn, *args: np.ndarray) -> np.ndarray:
    """``fn`` of ``math`` applied entry by entry to equally shaped arrays."""
    values = [fn(*v) for v in zip(*(a.ravel().tolist() for a in args))]
    return np.array(values, dtype=float).reshape(args[0].shape)


def _mat2(a, b, c, d) -> np.ndarray:
    """Stack of 2x2 matrices [[a, b], [c, d]] from equally shaped entries."""
    out = np.empty(np.shape(a) + (2, 2), dtype=np.result_type(a, b, c, d))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def rot2(phi) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return _mat2(c, -s, s, c)


def _o2_matrix(phi, s) -> np.ndarray:
    c, sn = np.cos(phi), np.sin(phi)
    return _mat2(c, -s * sn, sn, s * c)


def _rotz3(a) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    out = np.zeros(np.shape(a) + (3, 3))
    out[..., 0, 0], out[..., 0, 1], out[..., 2, 2] = c, -s, 1.0
    out[..., 1, 0], out[..., 1, 1] = s, c
    return out


def _roty3(b) -> np.ndarray:
    c, s = np.cos(b), np.sin(b)
    out = np.zeros(np.shape(b) + (3, 3))
    out[..., 0, 0], out[..., 0, 2], out[..., 1, 1] = c, s, 1.0
    out[..., 2, 0], out[..., 2, 2] = -s, c
    return out


def euler_zyz_matrix(alpha, beta, gamma) -> np.ndarray:
    """``Rz(alpha) Ry(beta) Rz(gamma)``; array angles give a stack."""
    return _rotz3(alpha) @ _roty3(beta) @ _rotz3(gamma)


def boost_matrix(eta) -> np.ndarray:
    """Pure boost with rapidity vector ``eta`` (symmetric 4x4); a stack of
    rapidity vectors, shape (..., 3), gives a stack of boosts."""
    eta = np.asarray(eta, dtype=float)
    flat = eta.reshape(-1, 3)
    r = np.sqrt(row_dots(flat))
    out = np.tile(np.eye(4), (len(flat), 1, 1))
    moving = r != 0.0
    if moving.any():
        rm = r[moving]
        n = flat[moving] / rm[:, None]
        ch, sh = _scalar(math.cosh, rm), _scalar(math.sinh, rm)
        out[moving, 0, 0] = ch
        out[moving, 0, 1:] = sh[:, None] * n
        out[moving, 1:, 0] = sh[:, None] * n
        out[moving, 1:, 1:] = np.eye(3) + (ch - 1.0)[:, None, None] * (
            n[:, :, None] * n[:, None, :])
    return out.reshape(eta.shape[:-1] + (4, 4))


def _rot4(r3: np.ndarray) -> np.ndarray:
    out = np.zeros(r3.shape[:-2] + (4, 4))
    out[..., 0, 0] = 1.0
    out[..., 1:, 1:] = r3
    return out


#: Number of parameters per element of each group.
PARAM_COUNT = {SO2: 1, O2: 2, SO3: 3, O3: 4, LORENTZ: 6}


#: The parameter that must be +1 or -1: the O(2) sign s, the O(3) parity p.
_SIGN_PARAM = {O2: (1, "O(2) sign"), O3: (3, "O(3) parity")}


def parameter_stack(group: str, params) -> np.ndarray:
    """``params`` as a float array of shape (..., k) for ``group``; NaN and
    infinite entries, and an O(2) sign or O(3) parity other than +-1, are
    rejected."""
    p = np.asarray(params, dtype=float)
    if group not in PARAM_COUNT:
        raise GroupError(f"unknown group {group!r}")
    if p.ndim == 0 or p.shape[-1] != PARAM_COUNT[group]:
        raise GroupError(f"{group} parameters have {PARAM_COUNT[group]} "
                         f"entries per element, got shape {p.shape}")
    _require_finite(f"{group} parameters", p)
    if group in _SIGN_PARAM:
        at, what = _SIGN_PARAM[group]
        bad = np.abs(p[..., at]) != 1.0
        if bad.any():
            raise GroupError(f"{what} must be +1 or -1, got "
                             f"{float(p[..., at][bad].flat[0])}")
    return p


def matrices(group: str, params) -> np.ndarray:
    """Matrix realizations on R^d (d = 2, 3 or 4) of a stack of elements,
    given by their parameters, shape (..., k) -> (..., d, d)."""
    p = parameter_stack(group, params)
    if group == SO2:
        return rot2(p[..., 0])
    if group == O2:
        return _o2_matrix(p[..., 0], p[..., 1])
    rot = euler_zyz_matrix(p[..., 0], p[..., 1], p[..., 2])
    if group == SO3:
        return rot
    if group == O3:
        return p[..., 3, None, None] * rot
    return _rot4(rot) @ boost_matrix(p[..., 3:6])


#: Parameters of the identity element of each group.
IDENTITY = {SO2: (0.0,), O2: (0.0, 1.0), SO3: (0.0,) * 3,
            O3: (0.0, 0.0, 0.0, 1.0), LORENTZ: (0.0,) * 6}


#: Low and high of the uniform double behind each parameter of a compact
#: draw, in stream order: beta is drawn as cos(beta) in [-1, 1], and the
#: O(2) sign and the O(3) parity as a double in [0, 1) that is +1 below 0.5.
_COMPACT_DRAWS = {
    SO2: ((0.0,), (TWO_PI,)),
    O2: ((0.0, 0.0), (TWO_PI, 1.0)),
    SO3: ((0.0, -1.0, 0.0), (TWO_PI, 1.0, TWO_PI)),
    O3: ((0.0, -1.0, 0.0, 0.0), (TWO_PI, 1.0, TWO_PI, 1.0)),
}


def _check_draw(n: int, eta_max: float) -> None:
    if n < 0:
        raise GroupError(f"cannot draw {n} elements or points")
    if not 0.0 <= eta_max < math.inf:
        raise GroupError(f"eta_max must be finite and >= 0, got {eta_max}")


def _angles_from_cosines(c: np.ndarray) -> np.ndarray:
    # math.acos, not np.arccos: the two differ in the last bit.
    return _scalar(math.acos, c)


def random_params(group: str, rng: np.random.Generator, n: int,
                  eta_max: float = 2.0) -> np.ndarray:
    """Canonical parameters of n random elements, shape (n, k).

    Rotation angles are quasi-uniform and Lorentz rapidities have |eta| <=
    eta_max.  The stack is n successive one-row draws: row i is what the
    i-th of n calls with ``n = 1`` returns, drawn from the same doubles in
    the same order, and the generator ends in the same state.  Compact
    groups take all their doubles in one ``rng.uniform`` call; a Lorentz
    element draws its direction with ``rng.normal`` between its uniforms, so
    those are drawn element by element, each uniform and norm as numpy forms
    it.
    """
    _check_draw(n, eta_max)
    if group == LORENTZ:
        out = np.empty((n, 6))
        for row in out:
            row[0] = TWO_PI * rng.random()
            row[1] = math.acos(-1.0 + 2.0 * rng.random())
            row[2] = TWO_PI * rng.random()
            direction = rng.normal(size=3)
            direction /= math.sqrt(direction.dot(direction))
            row[3:] = eta_max * rng.random() * direction
        return out
    if group not in _COMPACT_DRAWS:
        raise GroupError(f"unknown group {group!r}")
    low, high = _COMPACT_DRAWS[group]
    out = rng.uniform(low, high, size=(n, len(low)))
    if group in (SO2, O2):
        out[:, 0] = _wrap_angles(out[:, 0])
    else:
        out[:, 1] = _angles_from_cosines(out[:, 1])
    if group in _SIGN_PARAM:
        at = _SIGN_PARAM[group][0]
        out[:, at] = np.where(out[:, at] < 0.5, 1.0, -1.0)
    return out


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
        return orbit_vectors(self.orbit, self.coords)


def orbit_vectors(orbit: Orbit, coords) -> np.ndarray:
    """Ambient vectors of a stack of orbit points given by their
    coordinates, shape (..., c) -> (..., d)."""
    c = np.array(coords, dtype=float)
    if isinstance(orbit, Circle):
        return orbit.radius * np.stack([np.cos(c[..., 0]), np.sin(c[..., 0])],
                                       axis=-1)
    if isinstance(orbit, Sphere):
        a, b = c[..., 0], c[..., 1]
        return orbit.radius * np.stack(
            [np.cos(a) * np.sin(b), np.sin(a) * np.sin(b), np.cos(b)], axis=-1)
    return c


def _require_positive(what: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise GroupError(f"{what} must be positive and finite, got {value}")


def _off_lorentz_orbit(orbit: Orbit, x: np.ndarray) -> np.ndarray:
    """Mask of the 4-vectors of a finite stack that are not on ``orbit``."""
    with np.errstate(over="ignore", invalid="ignore"):
        # An overflowing square fails the comparison and is rejected here.
        if isinstance(orbit, MassiveHyperboloid):
            x = x / orbit.mass
        q = x[..., 0] * x[..., 0] - row_dots(x[..., 1:])
        t2 = x[..., 0] ** 2
        if isinstance(orbit, MassiveHyperboloid):
            on = np.abs(q - 1.0) <= 1e-11 * np.maximum(1.0, t2)
        else:
            on = np.abs(q) <= 1e-11 * t2
    return ~((x[..., 0] > 0) & on)


def _canonical_coords(orbit: Orbit, coords) -> np.ndarray:
    """Validated canonical coordinates of a stack of points, shape (n, c),
    c = 1, 2, 4: circle angles wrapped to [0, 2pi), sphere angles to alpha in
    [0, 2pi) and beta in [0, pi], and 4-vectors checked to be on the orbit."""
    c = np.array(coords, dtype=float, ndmin=2)
    count = {Circle: 1, Sphere: 2}.get(type(orbit), 4)
    if c.ndim != 2 or c.shape[1] != count:
        raise GroupError(f"a point on {type(orbit).__name__} has {count} "
                         f"coordinates, got shape {np.shape(coords)}")
    if isinstance(orbit, Circle):
        _require_positive("circle radius", orbit.radius)
        _require_finite("circle angle", c)
        return _wrap_angles(c)
    if isinstance(orbit, Sphere):
        _require_positive("sphere radius", orbit.radius)
        _require_finite("sphere angles", c)
        alpha, beta = c.T
        out = ~((0.0 <= beta) & (beta <= math.pi + 1e-12))
        b = _wrap_angles(beta[out])
        # (alpha, beta) and (alpha + pi, 2pi - beta) are the same point
        turn = b > math.pi
        alpha[np.flatnonzero(out)[turn]] += math.pi
        beta[out] = np.where(turn, TWO_PI - b, b)
        return np.stack([_wrap_angles(alpha), np.minimum(beta, math.pi)], -1)
    if isinstance(orbit, MassiveHyperboloid):
        _require_positive("hyperboloid mass", orbit.mass)
    _require_finite("Lorentz orbit point", c)
    off = _off_lorentz_orbit(orbit, c)
    if off.any():
        where = (f"the mass-{orbit.mass} hyperboloid"
                 if isinstance(orbit, MassiveHyperboloid)
                 else "the forward null cone")
        raise GroupError(f"{c[off][0]} is not on {where}")
    return c


def orbit_points(orbit: Orbit, coords) -> list[OrbitPoint]:
    """OrbitPoints of a stack of coordinates, shape (n, c), in canonical
    form; see :func:`_canonical_coords`."""
    return [OrbitPoint(orbit, tuple(c))
            for c in _canonical_coords(orbit, coords).tolist()]


def circle_point(phi: float, radius: float = 1.0) -> OrbitPoint:
    return orbit_points(Circle(radius), [[phi]])[0]


def sphere_point(alpha: float, beta: float, radius: float = 1.0) -> OrbitPoint:
    return orbit_points(Sphere(radius), [[alpha, beta]])[0]


def massive_point(x, mass: float = 1.0) -> OrbitPoint:
    return orbit_points(MassiveHyperboloid(mass), _four_vector(x))[0]


def cone_point(x) -> OrbitPoint:
    return orbit_points(NullCone(), _four_vector(x))[0]


def _four_vector(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (4,):
        raise GroupError("a point on a Lorentz orbit must be a 4-vector")
    return x[None]


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


def _polar(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> tuple:
    """Angles (alpha, beta) of the directions (x, y, z), of any length:
    ``alpha = atan2(y, x)`` wrapped to [0, 2pi) and ``beta = atan2(hypot(x,
    y), z)``.  Adding 0.0 turns -0.0 into +0.0, so alpha is 0 on the z axis
    and beta is 0 at the origin."""
    x, y, z = x + 0.0, y + 0.0, z + 0.0
    return _wrap_angles(np.arctan2(y, x)), np.arctan2(np.hypot(x, y), z)


def orbit_coords(orbit: Orbit, vectors) -> np.ndarray:
    """Canonical coordinates of a stack of ambient vectors on ``orbit``,
    shape (..., d) -> (..., c); raises if any vector is off the orbit."""
    v = np.asarray(vectors, dtype=float)
    flat = v.reshape(-1, v.shape[-1])
    if isinstance(orbit, (Circle, Sphere)):
        name = "circle" if isinstance(orbit, Circle) else "sphere"
        _require_positive(f"{name} radius", orbit.radius)
        r = np.sqrt(row_dots(flat / orbit.radius))
        if np.any(np.abs(r - 1.0) > 1e-10):
            raise GroupError(f"vector is off the {name}")
        if isinstance(orbit, Circle):
            flat = _scalar(math.atan2, flat[:, 1], flat[:, 0])[:, None]
        else:
            flat = np.stack(_polar(*flat.T), -1)
    coords = _canonical_coords(orbit, flat)
    return coords.reshape(v.shape[:-1] + coords.shape[-1:])


def _require_compatible(group: str, orbit: Orbit) -> None:
    if group not in ORBIT_GROUPS.get(type(orbit), ()):
        raise GroupError(f"{group} does not act on {type(orbit).__name__}")


def act_points(group: str, params, orbit: Orbit, coords) -> np.ndarray:
    """Coordinates of ``g . x`` for stacks of elements (parameters, shape
    (..., k)) and points (coordinates, shape (..., c)); the leading shapes
    broadcast."""
    _require_compatible(group, orbit)
    moved = matrices(group, params) @ orbit_vectors(orbit, coords)[..., None]
    return orbit_coords(orbit, moved[..., 0])


def default_group(orbit: Orbit) -> str:
    if type(orbit) not in ORBIT_GROUPS:
        raise GroupError(f"unknown orbit {orbit!r}")
    return ORBIT_GROUPS[type(orbit)][0]


def section_params(orbit: Orbit, coords, group: Optional[str] = None) -> np.ndarray:
    """Parameters of the coset section g with ``g . x0 = x`` for a stack of
    points given by their coordinates, shape (..., c) -> (..., k).

    The section is fixed for each orbit: ``g_phi`` on the circle,
    ``g_{alpha,beta,0}`` on the sphere, and ``R(alpha, beta, 0) Bz(eta)`` on
    the hyperboloid and the cone.  For O(2)/O(3) it stays in the connected
    component (s = p = +1).  The parameters come straight from the
    coordinates, checked and canonicalized by :func:`_canonical_coords`:
    ``alpha = atan2(y, x)``, ``beta = atan2(hypot(x, y), z)`` of the spatial
    part, ``eta = asinh(|x|/m)`` on the hyperboloid and ``log x^0`` on the
    cone.  The section is smooth except on the z axis, where alpha is 0,
    and the rest frame gets the identity.
    """
    group = group or default_group(orbit)
    _require_compatible(group, orbit)
    c = np.asarray(coords, dtype=float)
    flat = _canonical_coords(orbit, c.reshape(-1, c.shape[-1]))
    out = np.zeros((len(flat), PARAM_COUNT[group]))
    if isinstance(orbit, Circle):
        out[:, 0] = flat[:, 0]
        out[:, 1:] = 1.0
    elif isinstance(orbit, Sphere):
        out[:, :2] = flat
        out[:, 3:] = 1.0
    else:
        # R(alpha, beta, 0) turns z-hat to the direction of the spatial
        # part, then Bz supplies the rapidity.
        out[:, 0], out[:, 1] = _polar(*flat[:, 1:].T)
        if isinstance(orbit, MassiveHyperboloid):
            out[:, 5] = np.arcsinh(np.sqrt(row_dots(flat[:, 1:])) / orbit.mass)
        else:
            out[:, 5] = np.log(flat[:, 0])
    return out.reshape(c.shape[:-1] + out.shape[-1:])


def random_orbit_coords(orbit: Orbit, rng: np.random.Generator, n: int,
                        eta_max: float = 2.0) -> np.ndarray:
    """Canonical coordinates of n random points on the orbit, shape (n, c).

    The stack is n successive one-row draws: row i is what the i-th of n
    calls with ``n = 1`` returns, from the same doubles in the same order.
    Circle and sphere angles are quasi-uniform; a point on a Lorentz
    orbit is a random element (see :func:`random_params`, rapidity capped at
    eta_max) acting on the base point, the whole stack in one action.
    """
    _check_draw(n, eta_max)
    if isinstance(orbit, Circle):
        return _canonical_coords(orbit, rng.uniform(0.0, TWO_PI, size=(n, 1)))
    if isinstance(orbit, Sphere):
        c = rng.uniform((0.0, -1.0), (TWO_PI, 1.0), size=(n, 2))
        c[:, 1] = _angles_from_cosines(c[:, 1])
        return _canonical_coords(orbit, c)
    x0 = base_point(orbit)
    return act_points(LORENTZ, random_params(LORENTZ, rng, n, eta_max),
                      orbit, x0.coords)
