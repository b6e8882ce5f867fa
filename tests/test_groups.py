import math

import numpy as np
import pytest

from steerkit import analytic_bases as bases
from steerkit import groups, irreps, stabilizer_solver, steering
from steerkit.groups import (ETA, GroupError, Circle, MassiveHyperboloid,
                             NullCone, Sphere, act_points, base_point,
                             boost_matrix, circle_point, cone_point,
                             default_group, massive_point, matrices,
                             orbit_vectors, random_orbit_coords,
                             random_params, section_params, sphere_point)
from steerkit.irreps import (o2_irrep, o3_irrep, so2_irrep, so3_irrep,
                             tensor_irrep)

from dense_oracle import reference_sample
from group_law import inverse, product, stabilizer_draw

ALL_GROUPS = ("so2", "o2", "so3", "o3", "lorentz")


def test_so2_composition_adds_angles():
    g = product("so2", (0.3,), (0.4,))
    np.testing.assert_allclose(matrices("so2", g), matrices("so2", (0.7,)),
                               atol=1e-14)


def test_o2_reflection_conjugation_flips_angle():
    # r_y g_phi r_y = g_{-phi}
    phi = 1.234
    ry = (0.0, -1.0)
    g = product("o2", product("o2", ry, (phi, 1.0)), ry)
    np.testing.assert_allclose(matrices("o2", g), matrices("o2", (-phi, 1.0)),
                               atol=1e-12)
    assert g[1] == 1.0


def test_so3_inverse_composes_to_identity():
    g = (0.4, 1.1, 2.2)
    e = product("so3", g, inverse("so3", g))
    np.testing.assert_allclose(matrices("so3", e), np.eye(3), atol=1e-13)


@pytest.mark.parametrize("group", ALL_GROUPS)
def test_inverse_matrix_property(group):
    rng = np.random.default_rng(5)
    for p in random_params(group, rng, 10):
        prod = matrices(group, inverse(group, p)) @ matrices(group, p)
        np.testing.assert_allclose(prod, np.eye(prod.shape[0]), atol=1e-12)


@pytest.mark.parametrize("group,orbit", [
    ("so2", Circle()), ("o2", Circle(2.0)), ("so3", Sphere()),
    ("o3", Sphere(0.5)), ("lorentz", MassiveHyperboloid(1.5)),
    ("lorentz", NullCone()),
])
def test_action_is_associative(group, orbit):
    rng = np.random.default_rng(9)
    for _ in range(8):
        a, b = random_params(group, rng, 2)
        x = random_orbit_coords(orbit, rng, 1)[0]
        ab = product(group, a, b)
        lhs = orbit_vectors(orbit, act_points(group, ab, orbit, x))
        rhs = orbit_vectors(orbit, act_points(
            group, a, orbit, act_points(group, b, orbit, x)))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * max(1, abs(lhs[0])))


def test_act_examples():
    x = act_points("so2", (math.pi / 2,), Circle(), [0.0])
    assert abs(x[0] - math.pi / 2) < 1e-14

    # boost of the rest frame point: oracle is the explicit 4x4 boost matrix
    m = 1.7
    b = boost_matrix([0.0, 0.0, 1.0])
    expect = b @ np.array([m, 0.0, 0.0, 0.0])
    g = (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    got = act_points("lorentz", g, MassiveHyperboloid(m),
                     base_point(MassiveHyperboloid(m)).coords)
    np.testing.assert_allclose(got, expect, atol=1e-13)
    np.testing.assert_allclose(got, [m * math.cosh(1), 0, 0, m * math.sinh(1)],
                               atol=1e-13)

    flip = (0.0, 0.0, 0.0, -1.0)  # -identity
    south = act_points("o3", flip, Sphere(), [0.0, 0.0])
    np.testing.assert_allclose(orbit_vectors(Sphere(), south), [0, 0, -1.0],
                               atol=1e-14)


def test_act_rejects_wrong_orbit():
    with pytest.raises(GroupError):
        act_points("so2", (0.1,), Sphere(), [0.0, 0.0])


def test_lorentz_invariants():
    rng = np.random.default_rng(13)
    for lam in matrices("lorentz", random_params("lorentz", rng, 10)):
        np.testing.assert_allclose(lam.T @ ETA @ lam, ETA, atol=1e-12)
        assert lam[0, 0] >= 1.0 - 1e-12
        assert abs(np.linalg.det(lam) - 1.0) < 1e-11


def test_section_at_base_points_is_identity():
    for orbit in (Circle(), Sphere(), MassiveHyperboloid(), NullCone()):
        m = matrices(default_group(orbit),
                     section_params(orbit, base_point(orbit).coords))
        np.testing.assert_allclose(m, np.eye(m.shape[0]), atol=1e-13)


def test_hyperboloid_section_is_pure_boost():
    m = 1.2
    x = massive_point([m * math.cosh(2.0), 0, 0, m * math.sinh(2.0)], m)
    p = section_params(x.orbit, x.coords)
    alpha, beta, gamma, e1, e2, e3 = p
    assert abs(e3 - 2.0) < 1e-12 and abs(e1) < 1e-12 and abs(e2) < 1e-12
    assert abs(alpha) < 1e-12 and abs(beta) < 1e-12
    # oracle: apply the representative to the base point
    np.testing.assert_allclose(matrices("lorentz", p)
                               @ base_point(x.orbit).vector, x.vector,
                               atol=1e-12)


@pytest.mark.parametrize("group,orbit", [
    ("so2", Circle()), ("o2", Circle()), ("so3", Sphere()), ("o3", Sphere()),
    ("lorentz", MassiveHyperboloid()), ("lorentz", NullCone()),
])
def test_coset_section_property(group, orbit):
    rng = np.random.default_rng(21)
    x0 = base_point(orbit)
    for p in random_params(group, rng, 10):
        x = act_points(group, p, orbit, x0.coords)
        rep = section_params(orbit, x, group)
        xv = orbit_vectors(orbit, x)
        scale = max(1.0, abs(xv[0]))
        np.testing.assert_allclose(matrices(group, rep) @ x0.vector, xv,
                                   atol=1e-11 * scale)


def test_coset_section_degenerate_points():
    south = sphere_point(0.0, math.pi)
    rep = matrices("so3", section_params(south.orbit, south.coords))
    np.testing.assert_allclose(rep @ np.array([0, 0, 1.0]),
                               south.vector, atol=1e-12)
    backward = cone_point([1.0, 0.0, 0.0, -1.0])
    rep = matrices("lorentz", section_params(backward.orbit, backward.coords))
    np.testing.assert_allclose(rep @ np.array([1.0, 0, 0, 1.0]),
                               backward.vector, atol=1e-12)


def test_coordinate_width_is_checked():
    # Points on the circle have 1 coordinate, on the sphere 2 and on a
    # Lorentz orbit 4.  Any other width is a GroupError that names the
    # count, from the point constructors, the sections and the kernel
    # stacks alike; a kernel stack takes an (n, c) stack only, so n angles
    # in one row are not read as one point with n coordinates.
    vec = tensor_irrep(1, 0)
    cases = [(bases.basis_so2(1, 2), (3, 2), "1 coordinates"),
             (bases.basis_so3(1, 1), (3, 3), "2 coordinates"),
             (bases.basis_so3(1, 1), (3, 1), "2 coordinates"),
             (bases.lorentz_massive_basis(vec, vec), (3, 3), "4 coordinates"),
             (bases.basis_lorentz_massless(1), (3, 5), "4 coordinates")]
    for elements, shape, count in cases:
        orbit, coords = elements[0].orbit, np.full(shape, 0.5)
        for build in (lambda: groups.orbit_points(orbit, coords),
                      lambda: section_params(orbit, coords),
                      lambda: steering.section_kernels(elements, coords),
                      lambda: steering.section_pieces(elements, coords)):
            with pytest.raises(GroupError, match=count):
                build()
    with pytest.raises(GroupError, match=r"\(n, c\) stack"):
        steering.section_kernels(bases.basis_so2(1, 2),
                                 np.array([0.1, 0.2, 0.3]))
    with pytest.raises(GroupError, match=r"\(n, c\) stack"):
        steering.section_pieces(bases.basis_so3(1, 1), np.zeros((2, 1, 2)))
    # The widths that fit still give one kernel stack per point.
    for elements, coords in [(bases.basis_so2(1, 2), [[0.1], [0.2], [0.3]]),
                             (bases.basis_so3(1, 1), [[0.1, 0.2]])]:
        values = steering.section_kernels(elements, coords)
        assert values.shape[:2] == (len(elements), len(coords))


def test_stabilizer_samples():
    # The dense reference's sample and the oracle's generators fix the base
    # point; on the circle the sample holds the identity (SO(2)) and the
    # reflection diag(1, -1) (O(2)), the latter the one O(2) generator.
    s = reference_sample(Circle(), "so2")
    assert len(s) == 1
    np.testing.assert_allclose(matrices("so2", s[0]), np.eye(2))
    assert stabilizer_solver._generators(so2_irrep(1), so2_irrep(1),
                                         Circle()) == ()

    s = reference_sample(Circle(), "o2")
    mats = matrices("o2", s)
    assert len(mats) == 2
    np.testing.assert_allclose(mats[1], np.diag([1.0, -1.0]), atol=1e-14)
    (reflection,) = stabilizer_solver._generators(o2_irrep(1), o2_irrep(1),
                                                  Circle())
    np.testing.assert_allclose(matrices("o2", reflection),
                               np.diag([1.0, -1.0]), atol=1e-14)

    for group, orbit, label in [
            ("so3", Sphere(), so3_irrep(1)), ("o3", Sphere(), o3_irrep(1, 1)),
            ("lorentz", MassiveHyperboloid(), tensor_irrep(1, 0)),
            ("lorentz", NullCone(), tensor_irrep(1, 0))]:
        x0 = base_point(orbit).vector
        params = list(reference_sample(orbit, group))
        params += stabilizer_solver._generators(label, label, orbit)
        for p in params:
            np.testing.assert_allclose(matrices(group, p) @ x0, x0,
                                       atol=1e-12)


def test_massive_sample_has_one_y_rotation():
    # One y rotation, by sqrt(2): with U(1)_z imposed by the weight
    # blocking, one rotation outside O(2)_z generates SO(3).
    t = tensor_irrep(1, 0)
    root2 = math.sqrt(2.0)
    assert stabilizer_solver._generators(t, t, MassiveHyperboloid()) == (
        (0.0, root2, 0.0, 0.0, 0.0, 0.0),)


@pytest.mark.parametrize("y", [0.0, math.pi, -math.pi, 2 * math.pi,
                               3 * math.pi])
def test_degenerate_y_rotation_is_rejected(monkeypatch, y):
    # A y rotation by 0 or pi modulo 2 pi lies in O(2)_z: the generators
    # would no longer generate SO(3), and building them says so.
    build = stabilizer_solver._stabilizer_generators
    build.cache_clear()
    try:
        monkeypatch.setattr(stabilizer_solver, "Y_ANGLE", y)
        with pytest.raises(GroupError, match="do not generate SO\\(3\\)"):
            build(MassiveHyperboloid(), "lorentz")
        # The other orbits stack no y rotation.
        build(NullCone(), "lorentz")
        build(Sphere(), "so3")
    finally:
        build.cache_clear()


def test_random_stabilizer_elements_fix_base_point():
    rng = np.random.default_rng(2)
    for group, orbit in [("so2", Circle()), ("o2", Circle()),
                         ("so3", Sphere()), ("o3", Sphere()),
                         ("lorentz", MassiveHyperboloid()),
                         ("lorentz", NullCone())]:
        x0 = base_point(orbit)
        for _ in range(5):
            h = stabilizer_draw(orbit, group, rng)
            np.testing.assert_allclose(matrices(group, h) @ x0.vector,
                                       x0.vector, atol=1e-12)


def test_orbit_point_validation():
    with pytest.raises(GroupError):
        massive_point([1.0, 0.9, 0.0, 0.0], 1.0)
    with pytest.raises(GroupError):
        cone_point([1.0, 0.0, 0.0, 0.5])
    with pytest.raises(GroupError):
        cone_point([-1.0, 0.0, 0.0, 1.0])
    with pytest.raises(GroupError):
        groups.orbit_coords(Circle(), np.array([2.0, 0.0]))
    # Non-finite input fails every "reject if out of range" comparison, so
    # each constructor must reject it explicitly.
    nan, inf = math.nan, math.inf
    for build, args in [(massive_point, ([nan] * 4,)),
                        (massive_point, ([inf, 0.0, 0.0, inf],)),
                        (massive_point, ([1.0, 0.0, 0.0, 0.0], nan)),
                        (cone_point, ([nan] * 4,)),
                        (cone_point, ([inf, 0.0, 0.0, inf],)),
                        (circle_point, (0.1, nan)),
                        (circle_point, (nan,)),
                        (sphere_point, (0.1, 0.2, nan)),
                        (sphere_point, (0.1, nan)),
                        (sphere_point, (inf, 0.2))]:
        with pytest.raises(GroupError, match="finite"):
            build(*args)
    # A finite 4-vector whose squared norm overflows is not on the orbit.
    with pytest.raises(GroupError):
        massive_point([1e200, 0.0, 0.0, 1e200])
    # Membership is measured in units of the radius or the mass: a point at
    # twice the radius or mass is off the smallest orbit, and the largest
    # orbits keep their own points.
    for off in (
            lambda: groups.orbit_coords(Sphere(1e-200), [[0.0, 0.0, 2e-200]]),
            lambda: groups.orbit_coords(Circle(1e-200), [[2e-200, 0.0]]),
            lambda: massive_point([2e-200, 0.0, 0.0, 0.0], mass=1e-200)):
        with pytest.raises(GroupError, match="off the|not on"):
            off()
    for scale in (1e-200, 1e200):
        assert massive_point([scale, 0.0, 0.0, 0.0], scale).coords == (
            scale, 0.0, 0.0, 0.0)
        for group, orbit, x in (("so3", Sphere(scale), [[0.3, 1.1]]),
                                ("so2", Circle(scale), [[0.3]])):
            p = random_params(group, np.random.default_rng(4), 3)
            moved = act_points(group, p, orbit, x)
            np.testing.assert_allclose(
                orbit_vectors(orbit, moved) / scale,
                matrices(group, p) @ orbit_vectors(orbit, x[0]) / scale,
                atol=1e-15)
    # Sections of raw sphere coordinates, as a dump or a kernel stack uses.
    for build in (lambda: groups.section_params(Sphere(), [[inf, 0.5]]),
                  lambda: steering.section_kernels(bases.basis_so3(1, 1),
                                                   [[nan, 0.5]])):
        with pytest.raises(GroupError, match="sphere angles must be finite"):
            build()
    # Sections check their points like the point constructors: off the
    # orbit (wrong mass, backward in time, off the cone) there is none.
    vec = tensor_irrep(1, 0)
    for elements, point in [
            (bases.lorentz_massive_basis(vec, vec), [3.0, 0.0, 0.0, 0.0]),
            (bases.lorentz_massive_basis(vec, vec), [-2.0, 0.0, 0.0, 1.0]),
            (bases.basis_lorentz_massless(1), [1.0, 0.0, 0.5, 0.0])]:
        for build in (lambda: groups.section_params(elements[0].orbit, [point]),
                      lambda: steering.section_kernels(elements, [point])):
            with pytest.raises(GroupError):
                build()
    # The rest frame gets the identity, also with negative zeros.
    for mass in (1.0, 2.5):
        params = groups.section_params(MassiveHyperboloid(mass),
                                       [[mass, -0.0, -0.0, -0.0]])
        assert not params.any()
    # Canonical compact coordinates pass through with their bits.
    rng = np.random.default_rng(3)
    for orbit, shape in ((Circle(), (20, 1)), (Sphere(), (20, 2))):
        coords = groups._canonical_coords(orbit, rng.uniform(-7, 7, shape))
        params = groups.section_params(orbit, coords)
        assert params[:, :shape[1]].tobytes() == coords.tobytes()


def test_non_finite_parameter_stacks_rejected():
    # A NaN or infinite parameter is rejected where the stack is read, not
    # returned as NaN rows.
    for label, orbit in [(so3_irrep(1), Sphere()),
                         (tensor_irrep(1, 0), MassiveHyperboloid())]:
        group, x0 = label.group, base_point(orbit).coords
        for bad in (math.nan, math.inf, -math.inf):
            for at in (0, -1):
                p = np.full((2, groups.PARAM_COUNT[group]), 0.1)
                p[1, at] = bad
                for call in (
                        lambda: irreps.rep_matrices(label, p),
                        lambda: irreps.rep_pair(label, label, p)[1],
                        lambda: steering.steer(np.eye(label.dim), label,
                                               label, p),
                        lambda: groups.matrices(group, p),
                        lambda: groups.act_points(group, p, orbit, x0)):
                    with pytest.raises(GroupError,
                                       match="parameters must be finite"):
                        call()


def test_sign_and_parity_parameters_must_be_unit():
    # The O(2) sign and the O(3) parity of a parameter stack are +1 or -1;
    # any other finite value is rejected and named, not read as a scale.
    for label in (irreps.o2_irrep(1), irreps.o2_irrep("0~", "complex"),
                  irreps.o3_irrep(1, -1)):
        group = label.group
        at = {"o2": 1, "o3": 3}[group]
        for bad in (0.5, 0.0, 2.0, -0.999):
            p = np.full((2, groups.PARAM_COUNT[group]), 1.0)
            p[1, at] = bad
            for call in (
                    lambda: irreps.rep_matrices(label, p),
                    lambda: irreps.rep_pair(label, label, p)[1],
                    lambda: steering.steer(np.eye(label.dim), label, label,
                                           p),
                    lambda: groups.matrices(group, p)):
                with pytest.raises(GroupError, match=f"got {bad}"):
                    call()
        p[1, at] = -1.0
        assert irreps.rep_matrices(label, p).shape == (2, label.dim,
                                                       label.dim)


def test_sphere_coords_near_the_poles():
    for beta in (1e-8, 1e-6, math.pi - 1e-8):
        for radius in (1.0, 3.0):
            v = radius * np.array([math.sin(beta) * math.cos(0.7),
                                   math.sin(beta) * math.sin(0.7),
                                   math.cos(beta)])
            a, b = groups.orbit_coords(Sphere(radius), v)
            assert abs(b - beta) <= 4 * math.ulp(beta), (beta, radius)
            assert abs(a - 0.7) <= 4 * math.ulp(0.7)


def test_identity_elements():
    for group in ALL_GROUPS:
        m = matrices(group, groups.IDENTITY[group])
        np.testing.assert_array_equal(m, np.eye(m.shape[0]))


# ---------------------------------------------------------------------------
# batched draws on the scalar random stream

ALL_ORBITS = (Circle(0.5), Sphere(2.5), MassiveHyperboloid(2.0), NullCone())


def _scalar_params(group, rng, eta_max):
    """One element drawn double by double, in the documented stream order."""
    tau = 2.0 * math.pi
    if group in ("so2", "o2"):
        phi = rng.uniform(0.0, tau) % tau
        return (phi,) if group == "so2" else (phi, 1.0 if rng.random() < 0.5
                                              else -1.0)
    euler = (rng.uniform(0.0, tau), math.acos(rng.uniform(-1.0, 1.0)),
             rng.uniform(0.0, tau))
    if group == "so3":
        return euler
    if group == "o3":
        return euler + (1.0 if rng.random() < 0.5 else -1.0,)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return euler + tuple(rng.uniform(0.0, eta_max) * direction)


def _scalar_coords(orbit, rng, eta_max):
    tau = 2.0 * math.pi
    if isinstance(orbit, Circle):
        return circle_point(rng.uniform(0.0, tau), orbit.radius).coords
    if isinstance(orbit, Sphere):
        return sphere_point(rng.uniform(0.0, tau),
                            math.acos(rng.uniform(-1.0, 1.0)),
                            orbit.radius).coords
    return act_points("lorentz", _scalar_params("lorentz", rng, eta_max),
                      orbit, base_point(orbit).coords)


def _same_stream(draw, scalar, one, n, eta_max):
    """Batched draw == n scalar reference draws == n one-row draws, bit for
    bit, with the generator left in the same state by all three."""
    rngs = [np.random.default_rng(n + 7) for _ in range(3)]
    batched = draw(rngs[0], n, eta_max)
    ref = np.array([scalar(rngs[1], eta_max) for _ in range(n)])
    ones = np.array([one(rngs[2], eta_max) for _ in range(n)])
    assert batched.shape[0] == n
    for other in (ref, ones):
        assert np.array_equal(batched, other.reshape(batched.shape))
        assert np.array_equal(np.signbit(batched),
                              np.signbit(other.reshape(batched.shape)))
    states = [r.bit_generator.state for r in rngs]
    assert states[0] == states[1] == states[2]


@pytest.mark.parametrize("n", [0, 1, 50])
@pytest.mark.parametrize("group", ALL_GROUPS)
def test_random_params_match_scalar_draws(group, n):
    for eta_max in (0.0, 2.0):
        _same_stream(
            lambda rng, k, e: groups.random_params(group, rng, k, e),
            lambda rng, e: _scalar_params(group, rng, e),
            lambda rng, e: random_params(group, rng, 1, e)[0], n, eta_max)


def _lorentz_rows_by_uniform(rng, n, eta_max):
    """Lorentz draws through ``rng.uniform`` and ``np.linalg.norm``."""
    out = np.empty((n, 6))
    for row in out:
        row[0] = rng.uniform(0.0, 2.0 * math.pi)
        row[1] = math.acos(rng.uniform(-1.0, 1.0))
        row[2] = rng.uniform(0.0, 2.0 * math.pi)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        row[3:] = rng.uniform(0.0, eta_max) * direction
    return out


def test_lorentz_draws_keep_the_uniform_and_norm_bits():
    # The Lorentz draws take rng.uniform's formula on rng.random and the
    # dot product np.linalg.norm takes; rows, signed zeros and the
    # generator's end state are those of the rng.uniform loop.
    for seed in range(60):
        for eta_max in (0.0, 1e-3, 2.0, 5.0):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            rows = groups.random_params("lorentz", a, 40, eta_max)
            assert rows.tobytes() == _lorentz_rows_by_uniform(
                b, 40, eta_max).tobytes()
            assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("n", [0, 1, 50])
@pytest.mark.parametrize("orbit", ALL_ORBITS, ids=lambda o: type(o).__name__)
def test_random_orbit_coords_match_scalar_draws(orbit, n):
    for eta_max in (0.0, 2.0):
        _same_stream(
            lambda rng, k, e: groups.random_orbit_coords(orbit, rng, k, e),
            lambda rng, e: _scalar_coords(orbit, rng, e),
            lambda rng, e: random_orbit_coords(orbit, rng, 1, e)[0], n,
            eta_max)


@pytest.mark.parametrize("draw,cos_at", [
    (lambda rng, n: groups.random_params("so3", rng, n), 1),
    (lambda rng, n: groups.random_params("o3", rng, n), 1),
    (lambda rng, n: groups.random_orbit_coords(Sphere(), rng, n), 1),
])
def test_polar_angles_are_math_acos_of_the_drawn_double(draw, cos_at):
    # np.arccos differs from math.acos in the last bit for some doubles, so
    # a batched arccos would change the stream's angles.
    n = 500
    width = draw(np.random.default_rng(0), 1).shape[1]
    raw = np.random.default_rng(3).random((n, width))
    beta = draw(np.random.default_rng(3), n)[:, cos_at]
    expect = [math.acos(-1.0 + 2.0 * d) for d in raw[:, cos_at]]
    assert beta.tolist() == expect
    assert (np.arccos(-1.0 + 2.0 * raw[:, cos_at]) != beta).any()


def test_invalid_draw_caps_and_counts_rejected():
    lorentz_draws = [
        lambda rng, e: random_params("lorentz", rng, 1, e),
        lambda rng, e: random_params("lorentz", rng, 3, e),
        lambda rng, e: random_orbit_coords(MassiveHyperboloid(), rng, 1, e),
        lambda rng, e: random_orbit_coords(NullCone(), rng, 3, e),
    ]
    for draw in lorentz_draws:
        for bad in (-1.0, -1e-300, math.nan, math.inf):
            rng = np.random.default_rng(0)
            before = rng.bit_generator.state
            with pytest.raises(GroupError, match="eta_max"):
                draw(rng, bad)
            assert rng.bit_generator.state == before  # raised before drawing
        # eta_max = 0 draws pure rotations, as before
        draw(np.random.default_rng(0), 0.0)
    assert random_params("lorentz", np.random.default_rng(0), 1,
                         eta_max=0.0)[0, 3:].tolist() == [0.0, 0.0, 0.0]
    for draw in (lambda rng: groups.random_params("so3", rng, -1),
                 lambda rng: groups.random_orbit_coords(Circle(), rng, -2)):
        with pytest.raises(ValueError, match="cannot draw"):
            draw(np.random.default_rng(0))
    assert groups.random_params("o2", np.random.default_rng(0), 0).shape == (0, 2)
