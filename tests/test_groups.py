import json
import math

import numpy as np
import pytest

from steerkit import analytic_bases as bases
from steerkit import cli, groups, irreps, numerics, stabilizer_solver, steering
from steerkit.groups import (ETA, GroupError, Circle, MassiveHyperboloid,
                             NullCone, Sphere, act_points, base_point,
                             boost_matrix, canonical_coords, default_group,
                             matrices, orbit_vectors, random_orbit_coords,
                             random_params, section_params)
from steerkit.irreps import (o2_irrep, o3_irrep, so2_irrep, so3_irrep,
                             spinor_vector_irrep, tensor_irrep)
from steerkit.stabilizer_solver import predicted_dimension

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
                     base_point(MassiveHyperboloid(m)))
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
                     section_params(orbit, base_point(orbit)))
        np.testing.assert_allclose(m, np.eye(m.shape[0]), atol=1e-13)


def test_hyperboloid_section_is_pure_boost():
    m = 1.2
    orbit = MassiveHyperboloid(m)
    x = [m * math.cosh(2.0), 0, 0, m * math.sinh(2.0)]
    p = section_params(orbit, x)
    alpha, beta, gamma, e1, e2, e3 = p
    assert abs(e3 - 2.0) < 1e-12 and abs(e1) < 1e-12 and abs(e2) < 1e-12
    assert abs(alpha) < 1e-12 and abs(beta) < 1e-12
    # oracle: apply the representative to the base point
    np.testing.assert_allclose(matrices("lorentz", p)
                               @ orbit_vectors(orbit, base_point(orbit)), x,
                               atol=1e-12)


@pytest.mark.parametrize("group,orbit", [
    ("so2", Circle()), ("o2", Circle()), ("so3", Sphere()), ("o3", Sphere()),
    ("lorentz", MassiveHyperboloid()), ("lorentz", NullCone()),
])
def test_coset_section_property(group, orbit):
    rng = np.random.default_rng(21)
    x0 = base_point(orbit)
    for p in random_params(group, rng, 10):
        x = act_points(group, p, orbit, x0)
        rep = section_params(orbit, x, group)
        xv = orbit_vectors(orbit, x)
        scale = max(1.0, abs(xv[0]))
        np.testing.assert_allclose(
            matrices(group, rep) @ orbit_vectors(orbit, x0), xv,
            atol=1e-11 * scale)


def test_coset_section_degenerate_points():
    south = (0.0, math.pi)
    rep = matrices("so3", section_params(Sphere(), south))
    np.testing.assert_allclose(rep @ np.array([0, 0, 1.0]),
                               orbit_vectors(Sphere(), south), atol=1e-12)
    backward = [1.0, 0.0, 0.0, -1.0]
    rep = matrices("lorentz", section_params(NullCone(), backward))
    np.testing.assert_allclose(rep @ np.array([1.0, 0, 0, 1.0]), backward,
                               atol=1e-12)


def test_coordinate_width_is_checked(capsys):
    # Points on the circle have 1 coordinate, on the sphere 2 and on a
    # Lorentz orbit 4.  Any other width is a GroupError that names the
    # count, from canonical_coords, the sections, kernel_at, the kernel
    # stacks and `steerkit basis` alike; a kernel stack takes an (n, c)
    # stack only, so n angles in one row are not read as one point with n
    # coordinates, and kernel_at one row only.  Likewise orbit_coords takes
    # ambient vectors of 2, 3 and 4 components only.
    vec = tensor_irrep(1, 0)
    cases = [(bases.basis_so2(1, 2), (3, 2), "1 coordinates"),
             (bases.basis_so3(1, 1), (3, 3), "2 coordinates"),
             (bases.basis_so3(1, 1), (3, 1), "2 coordinates"),
             (bases.lorentz_massive_basis(vec, vec), (3, 3), "4 coordinates"),
             (bases.basis_lorentz_massless(1), (3, 5), "4 coordinates")]
    for elements, shape, count in cases:
        orbit, coords = elements[0].orbit, np.full(shape, 0.5)
        for build in (lambda: canonical_coords(orbit, coords),
                      lambda: section_params(orbit, coords),
                      lambda: steering.kernel_at(elements[0], coords[0]),
                      lambda: steering.section_kernels(elements, coords),
                      lambda: steering.section_pieces(elements, coords)):
            with pytest.raises(GroupError, match=count):
                build()
        assert count in _point_errors(orbit, coords[0], capsys)[-1]
    with pytest.raises(GroupError, match=r"\(n, c\) stack"):
        steering.section_kernels(bases.basis_so2(1, 2),
                                 np.array([0.1, 0.2, 0.3]))
    with pytest.raises(GroupError, match=r"\(n, c\) stack"):
        steering.section_pieces(bases.basis_so3(1, 1), np.zeros((2, 1, 2)))
    with pytest.raises(GroupError, match=r"shape \(c,\)"):
        steering.kernel_at(bases.basis_so2(1, 2)[0], [[0.1]])
    # The widths that fit still give one kernel stack per point.
    for elements, coords in [(bases.basis_so2(1, 2), [[0.1], [0.2], [0.3]]),
                             (bases.basis_so3(1, 1), [[0.1, 0.2]])]:
        values = steering.section_kernels(elements, coords)
        assert values.shape[:2] == (len(elements), len(coords))
    # A 3-vector is no circle point and a 4-vector no sphere point.
    for orbit, v, width in [(Circle(), [0.6, 0.8, 0.0], "2 components"),
                            (Sphere(), [0.6, 0.8, 0.0, 0.0], "3 components")]:
        with pytest.raises(GroupError, match=width):
            groups.orbit_coords(orbit, v)


def test_stabilizer_samples():
    # The dense reference's sample and the oracle's stabilizer elements fix
    # the base point; on the circle the sample holds the identity (SO(2)) and
    # the reflection diag(1, -1) (O(2)), the latter the O(2) element the
    # oracle imposes in closed form.
    s = reference_sample(Circle(), "so2")
    assert len(s) == 1
    np.testing.assert_allclose(matrices("so2", s[0]), np.eye(2))
    assert stabilizer_solver._generators(so2_irrep(1), so2_irrep(1),
                                         Circle()) == (None, None)

    s = reference_sample(Circle(), "o2")
    mats = matrices("o2", s)
    assert len(mats) == 2
    np.testing.assert_allclose(mats[1], np.diag([1.0, -1.0]), atol=1e-14)
    reflection, turn = stabilizer_solver._generators(o2_irrep(1), o2_irrep(1),
                                                     Circle())
    assert turn is None
    np.testing.assert_allclose(matrices("o2", reflection),
                               np.diag([1.0, -1.0]), atol=1e-14)

    for group, orbit, label in [
            ("so3", Sphere(), so3_irrep(1)), ("o3", Sphere(), o3_irrep(1, 1)),
            ("lorentz", MassiveHyperboloid(), tensor_irrep(1, 0)),
            ("lorentz", NullCone(), tensor_irrep(1, 0))]:
        x0 = orbit_vectors(orbit, base_point(orbit))
        weyl, turn = stabilizer_solver._generators(label, label, orbit)
        params = list(reference_sample(orbit, group))
        params += [p for p in (weyl, turn) if p is not None]
        for p in params:
            np.testing.assert_allclose(matrices(group, p) @ x0, x0,
                                       atol=1e-12)


def test_massive_sample_has_one_y_rotation():
    # The massive hyperboloid's oracle names two y rotations: R_y(pi), which
    # the adapted weight blocks impose, and the quarter turn R_y(pi / 2),
    # which conjugates J_z into the generator about x whose raising part the
    # ladder rows impose.  With U(1)_z imposed by the weight blocking, the
    # generators about z and x span so(3), so SO(3) is imposed.
    t = tensor_irrep(1, 0)
    assert stabilizer_solver._generators(t, t, MassiveHyperboloid()) == (
        (0.0, math.pi, 0.0, 0.0, 0.0, 0.0),
        (0.0, math.pi / 2, 0.0, 0.0, 0.0, 0.0))
    np.testing.assert_allclose(
        matrices("so3", (0.0, math.pi / 2, 0.0)) @ [0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("y", [0.0, math.pi, -math.pi, 2 * math.pi,
                               3 * math.pi])
def test_degenerate_y_rotation_is_rejected(y):
    # A y rotation by 0 or pi modulo 2 pi maps the z axis to itself or its
    # negative, so it lies in O(2)_z: conjugating J_z by it gives +-J_z,
    # which has no raising part.  Its ladder rows vanish to round-off, and a
    # count from them keeps every unknown, more than the closed form, on
    # tensor20 and on the spinor-vector (Dirac would show nothing: all its
    # unknowns are free).  The hyperboloid's own turn by pi / 2 is no such
    # angle.
    z = [0.0, 0.0, 1.0]
    assert math.remainder(y, math.pi) == 0.0
    np.testing.assert_allclose(np.abs(matrices("so3", (0.0, y, 0.0)) @ z), z,
                               atol=1e-12)
    orbit = MassiveHyperboloid()
    for label in (tensor_irrep(2, 0), spinor_vector_irrep(realified=True)):
        weyl, turn = stabilizer_solver._generators(label, label, orbit)
        assert math.remainder(turn[1], math.pi) != 0.0
        degenerate = (0.0, y, 0.0, 0.0, 0.0, 0.0)
        rows = stabilizer_solver._ladder_rows(label, label, weyl, degenerate)
        assert np.abs(rows).max() <= 1e-13
        unknowns = stabilizer_solver._unknowns(label, label, weyl,
                                               degenerate)[1]
        k, kept, _ = numerics.nullity_with_spectrum(rows)
        assert k == unknowns > predicted_dimension(label, label, orbit)
        assert not kept.size


def test_random_stabilizer_elements_fix_base_point():
    rng = np.random.default_rng(2)
    for group, orbit in [("so2", Circle()), ("o2", Circle()),
                         ("so3", Sphere()), ("o3", Sphere()),
                         ("lorentz", MassiveHyperboloid()),
                         ("lorentz", NullCone())]:
        x0 = orbit_vectors(orbit, base_point(orbit))
        for _ in range(5):
            h = stabilizer_draw(orbit, group, rng)
            np.testing.assert_allclose(matrices(group, h) @ x0, x0,
                                       atol=1e-12)


def _point_errors(orbit, point, capsys) -> list[str]:
    """The errors of the paths that take one point: canonical_coords, the
    sections, kernel_at, `steerkit basis`, and unit_velocity or
    massless_pair on their orbits, each of which must fail."""
    vec = tensor_irrep(1, 0)
    if isinstance(orbit, Circle):
        elem = bases.basis_so2(1, 1, radius=orbit.radius)[0]
        argv = ["so2", "1", f"--radius={orbit.radius!r}"]
    elif isinstance(orbit, Sphere):
        elem = bases.basis_so3(1, 1, radius=orbit.radius)[0]
        argv = ["so3", "1", f"--radius={orbit.radius!r}"]
    elif isinstance(orbit, MassiveHyperboloid):
        elem = bases.lorentz_massive_basis(vec, vec, orbit.mass)[0]
        argv = ["lorentz", "vector", "--mass", repr(orbit.mass)]
    else:
        elem = bases.basis_lorentz_massless(1)[0]
        argv = ["lorentz", "vector", "--orbit", "massless"]
    calls = [lambda: canonical_coords(orbit, point),
             lambda: section_params(orbit, [point]),
             lambda: steering.kernel_at(elem, point)]
    if orbit == MassiveHyperboloid():
        calls.append(lambda: bases.unit_velocity(point))
    elif isinstance(orbit, NullCone):
        calls.append(lambda: bases.massless_pair(point))
    errors = []
    for call in calls:
        with pytest.raises(GroupError) as err:
            call()
        errors.append(str(err.value))
    group, label, *extra = argv
    text = ",".join(map(repr, np.ravel(point).tolist()))
    code = cli.main(["basis", "--group", group, "--j", label, "--l", label,
                     f"--point={text}"] + extra)
    assert code == 1
    errors.append(json.loads(capsys.readouterr().err)["error"])
    return errors


def test_orbit_point_validation(capsys):
    # Every path that takes a point rejects it, saying why, when it is off
    # its orbit, non-finite, or on an orbit whose radius or mass is not
    # positive and finite.  Non-finite input fails every "reject if out of
    # range" comparison, so it must be rejected explicitly.
    nan, inf = math.nan, math.inf
    cases = [
        (MassiveHyperboloid(), [1.0, 0.9, 0.0, 0.0], "not on"),
        (NullCone(), [1.0, 0.0, 0.0, 0.5], "not on"),
        (NullCone(), [-1.0, 0.0, 0.0, 1.0], "not on"),
        # A finite 4-vector whose squared norm overflows is not on the orbit.
        (MassiveHyperboloid(), [1e200, 0.0, 0.0, 1e200], "not on"),
        (MassiveHyperboloid(), [nan] * 4, "must be finite"),
        (MassiveHyperboloid(), [inf, 0.0, 0.0, inf], "must be finite"),
        (MassiveHyperboloid(nan), [1.0, 0.0, 0.0, 0.0], "positive and finite"),
        (MassiveHyperboloid(0.0), [1.0, 0.0, 0.0, 0.0], "positive and finite"),
        (NullCone(), [nan] * 4, "must be finite"),
        (NullCone(), [inf, 0.0, 0.0, inf], "must be finite"),
        (Circle(nan), [0.1], "positive and finite"),
        (Circle(-1.0), [0.1], "positive and finite"),
        (Circle(), [nan], "must be finite"),
        (Sphere(inf), [0.1, 0.2], "positive and finite"),
        (Sphere(0.0), [0.1, 0.2], "positive and finite"),
        (Sphere(), [0.1, nan], "must be finite"),
        (Sphere(), [inf, 0.2], "must be finite"),
    ]
    for orbit, point, why in cases:
        for error in _point_errors(orbit, point, capsys):
            assert why in error, (orbit, point, error)
    # A vector is checked where orbit_coords reads it, NaN and inf too.
    for orbit, v in [(Circle(), [2.0, 0.0]), (Circle(), [nan, 0.0]),
                     (Sphere(), [0.0, inf, 0.0]), (Sphere(), [nan] * 3)]:
        with pytest.raises(GroupError, match=r"vector \[.*\] is off the"):
            groups.orbit_coords(orbit, v)
    # Membership is measured in units of the radius or the mass: a point at
    # twice the radius or mass is off the smallest orbit, and the largest
    # orbits keep their own points.
    for off in (
            lambda: groups.orbit_coords(Sphere(1e-200), [[0.0, 0.0, 2e-200]]),
            lambda: groups.orbit_coords(Circle(1e-200), [[2e-200, 0.0]]),
            lambda: canonical_coords(MassiveHyperboloid(1e-200),
                                     [2e-200, 0.0, 0.0, 0.0]),
            # its unit velocity is x / 2, not x
            lambda: bases.unit_velocity([2.0, 0.0, 0.0, 0.0])):
        with pytest.raises(GroupError, match="off the|not on"):
            off()
    for scale in (1e-200, 1e200):
        assert canonical_coords(MassiveHyperboloid(scale),
                                [scale, 0.0, 0.0, 0.0]).tolist() == [
            [scale, 0.0, 0.0, 0.0]]
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
        coords = canonical_coords(orbit, rng.uniform(-7, 7, shape))
        params = groups.section_params(orbit, coords)
        assert params[:, :shape[1]].tobytes() == coords.tobytes()
    # A point has one canonical form: a zero angle is +0.0.
    for orbit, point in ((Circle(), [-0.0]), (Sphere(), [-0.0, -0.0]),
                         (Sphere(), [0.3, -0.0])):
        assert not np.signbit(canonical_coords(orbit, point)).any()


def test_lorentz_orbits_at_extreme_scales():
    # The hyperboloid's rapidity is measured in units of the mass, and the
    # cone's membership in units of x^0: no square underflows or overflows.
    for mass in (1e-200, 1e200):
        x = [mass * math.cosh(1.0), 0.0, 0.0, mass * math.sinh(1.0)]
        eta = section_params(MassiveHyperboloid(mass), [x])[0, 5]
        assert abs(eta - 1.0) <= 1e-15
    assert canonical_coords(NullCone(), [1e200, 0.0, 0.0, 1e200]).tolist() == [
        [1e200, 0.0, 0.0, 1e200]]
    np.testing.assert_allclose(section_params(NullCone(), [[1e200, 0.0, 0.0,
                                                            1e200]]),
                               [[0.0, 0.0, 0.0, 0.0, 0.0,
                                 math.log(1e200)]])
    for off in ([1e200, 0.0, 0.0, 1.001e200], [1e200, 1e199, 0.0, 1e200],
                [-1e200, 0.0, 0.0, 1e200], [1e-200, 0.0, 0.0, 2e-200]):
        with pytest.raises(GroupError, match="not on the forward null cone"):
            canonical_coords(NullCone(), off)


def test_non_finite_parameter_stacks_rejected():
    # A NaN or infinite parameter is rejected where the stack is read, not
    # returned as NaN rows.
    for label, orbit in [(so3_irrep(1), Sphere()),
                         (tensor_irrep(1, 0), MassiveHyperboloid())]:
        group, x0 = label.group, base_point(orbit)
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


def _wrap_reference(angles) -> np.ndarray:
    """The wrap as it was first written: |a| and |a - 2pi| each tested."""
    a = np.remainder(angles, groups.TWO_PI)
    return np.where((a >= groups.TWO_PI) | (np.abs(a) < 1e-15)
                    | (np.abs(a - groups.TWO_PI) < 1e-15), 0.0, a)


def test_wrap_angles_matches_the_reference_expression():
    # Every double within 64 ulps of the edges of the collapse, of either
    # sign, and random finite doubles wrap to the reference's bits.
    angles = []
    for centre in (0.0, 1e-15, groups.TWO_PI - 1e-15, groups.TWO_PI,
                   2 * groups.TWO_PI):
        for sign in (1.0, -1.0):
            for direction in (math.inf, -math.inf):
                x = sign * centre
                for _ in range(65):
                    angles.append(x)
                    x = math.nextafter(x, direction)
    rng = np.random.default_rng(8)
    raw = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(float)
    angles = np.concatenate([angles, raw[np.isfinite(raw)],
                             rng.uniform(-15.0, 15.0, 100_000)])
    assert math.nextafter(groups.TWO_PI, 0.0) in angles
    assert groups._wrap_angles(angles).tobytes() == (
        _wrap_reference(angles).tobytes())


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
        return canonical_coords(orbit, [rng.uniform(0.0, tau)])[0]
    if isinstance(orbit, Sphere):
        return canonical_coords(orbit, [rng.uniform(0.0, tau),
                                        math.acos(rng.uniform(-1.0, 1.0))])[0]
    return act_points("lorentz", _scalar_params("lorentz", rng, eta_max),
                      orbit, base_point(orbit))


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
