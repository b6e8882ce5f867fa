import math

import numpy as np
import pytest

from steerkit import groups
from steerkit.groups import (ETA, GroupError, Circle, MassiveHyperboloid,
                             NullCone, Sphere, act, base_point, boost_matrix,
                             circle_point, compose, cone_point,
                             coset_representative, identity, massive_point,
                             o2_element, o2_reflection, o3_element,
                             random_element, random_orbit_point,
                             random_stabilizer_element, so2_element,
                             so3_element, sphere_point, stabilizer_sample)

ALL_GROUPS = ("so2", "o2", "so3", "o3", "lorentz")


def test_so2_composition_adds_angles():
    g = compose(so2_element(0.3), so2_element(0.4))
    assert abs(g.params[0] - 0.7) < 1e-14


def test_o2_reflection_conjugation_flips_angle():
    # r_y g_phi r_y = g_{-phi}
    phi = 1.234
    ry = o2_reflection()
    g = compose(compose(ry, o2_element(phi)), ry)
    assert abs(g.params[0] - (2 * math.pi - phi)) < 1e-12
    assert g.params[1] == 1.0


def test_so3_inverse_composes_to_identity():
    g = so3_element(0.4, 1.1, 2.2)
    e = compose(g, g.inverse())
    np.testing.assert_allclose(e.matrix, np.eye(3), atol=1e-13)


@pytest.mark.parametrize("group", ALL_GROUPS)
def test_inverse_matrix_property(group):
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_element(group, rng)
        prod = g.inverse().matrix @ g.matrix
        np.testing.assert_allclose(prod, np.eye(prod.shape[0]), atol=1e-12)


@pytest.mark.parametrize("group,orbit", [
    ("so2", Circle()), ("o2", Circle(2.0)), ("so3", Sphere()),
    ("o3", Sphere(0.5)), ("lorentz", MassiveHyperboloid(1.5)),
    ("lorentz", NullCone()),
])
def test_action_is_associative(group, orbit):
    rng = np.random.default_rng(9)
    for _ in range(8):
        a = random_element(group, rng)
        b = random_element(group, rng)
        x = random_orbit_point(orbit, rng)
        lhs = act(compose(a, b), x).vector
        rhs = act(a, act(b, x)).vector
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * max(1, abs(lhs[0])))


def test_act_examples():
    x = act(so2_element(math.pi / 2), circle_point(0.0))
    assert abs(x.coords[0] - math.pi / 2) < 1e-14

    # boost of the rest frame point: oracle is the explicit 4x4 boost matrix
    m = 1.7
    b = boost_matrix([0.0, 0.0, 1.0])
    expect = b @ np.array([m, 0.0, 0.0, 0.0])
    g = groups.lorentz_element(0, 0, 0, (0, 0, 1.0))
    got = act(g, base_point(MassiveHyperboloid(m))).vector
    np.testing.assert_allclose(got, expect, atol=1e-13)
    np.testing.assert_allclose(got, [m * math.cosh(1), 0, 0, m * math.sinh(1)],
                               atol=1e-13)

    flip = o3_element(0, 0, 0, parity=-1)  # -identity
    south = act(flip, sphere_point(0.0, 0.0))
    np.testing.assert_allclose(south.vector, [0, 0, -1.0], atol=1e-14)


def test_act_rejects_wrong_orbit():
    with pytest.raises(GroupError):
        act(so2_element(0.1), sphere_point(0.0, 0.0))


def test_lorentz_invariants():
    rng = np.random.default_rng(13)
    for _ in range(10):
        lam = random_element("lorentz", rng).matrix
        np.testing.assert_allclose(lam.T @ ETA @ lam, ETA, atol=1e-12)
        assert lam[0, 0] >= 1.0 - 1e-12
        assert abs(np.linalg.det(lam) - 1.0) < 1e-11


def test_coset_representative_base_points_are_identity():
    for orbit in (Circle(), Sphere(), MassiveHyperboloid(), NullCone()):
        g = coset_representative(base_point(orbit))
        np.testing.assert_allclose(g.matrix, np.eye(g.matrix.shape[0]),
                                   atol=1e-13)


def test_coset_representative_hyperboloid_pure_boost():
    m = 1.2
    x = massive_point([m * math.cosh(2.0), 0, 0, m * math.sinh(2.0)], m)
    g = coset_representative(x)
    alpha, beta, gamma, e1, e2, e3 = g.params
    assert abs(e3 - 2.0) < 1e-12 and abs(e1) < 1e-12 and abs(e2) < 1e-12
    assert abs(alpha) < 1e-12 and abs(beta) < 1e-12
    # oracle: apply the representative to the base point
    np.testing.assert_allclose(g.matrix @ base_point(x.orbit).vector, x.vector,
                               atol=1e-12)


@pytest.mark.parametrize("group,orbit", [
    ("so2", Circle()), ("o2", Circle()), ("so3", Sphere()), ("o3", Sphere()),
    ("lorentz", MassiveHyperboloid()), ("lorentz", NullCone()),
])
def test_coset_section_property(group, orbit):
    rng = np.random.default_rng(21)
    x0 = base_point(orbit)
    for _ in range(10):
        g = random_element(group, rng)
        x = act(g, x0)
        rep = coset_representative(x, group)
        scale = max(1.0, abs(x.vector[0]))
        np.testing.assert_allclose(rep.matrix @ x0.vector, x.vector,
                                   atol=1e-11 * scale)


def test_coset_section_degenerate_points():
    south = sphere_point(0.0, math.pi)
    rep = coset_representative(south)
    np.testing.assert_allclose(rep.matrix @ np.array([0, 0, 1.0]),
                               south.vector, atol=1e-12)
    backward = cone_point([1.0, 0.0, 0.0, -1.0])
    rep = coset_representative(backward)
    np.testing.assert_allclose(rep.matrix @ np.array([1.0, 0, 0, 1.0]),
                               backward.vector, atol=1e-12)


def test_stabilizer_samples():
    s = stabilizer_sample(Circle(), "so2")
    assert len(s.elements) == 1
    np.testing.assert_allclose(s.elements[0].matrix, np.eye(2))

    s = stabilizer_sample(Circle(), "o2")
    mats = [h.matrix for h in s.elements]
    assert len(mats) == 2
    np.testing.assert_allclose(mats[1], np.diag([1.0, -1.0]), atol=1e-14)

    for group, orbit in [("so3", Sphere()), ("o3", Sphere()),
                         ("lorentz", MassiveHyperboloid()),
                         ("lorentz", NullCone())]:
        s = stabilizer_sample(orbit, group)
        for h in s.elements:
            np.testing.assert_allclose(h.matrix @ s.base.vector,
                                       s.base.vector, atol=1e-12)


def test_random_stabilizer_elements_fix_base_point():
    rng = np.random.default_rng(2)
    for group, orbit in [("so2", Circle()), ("o2", Circle()),
                         ("so3", Sphere()), ("o3", Sphere()),
                         ("lorentz", MassiveHyperboloid()),
                         ("lorentz", NullCone())]:
        x0 = base_point(orbit)
        for _ in range(5):
            h = random_stabilizer_element(orbit, group, rng)
            assert h.group == group
            np.testing.assert_allclose(h.matrix @ x0.vector, x0.vector,
                                       atol=1e-12)


def test_orbit_point_validation():
    with pytest.raises(GroupError):
        massive_point([1.0, 0.9, 0.0, 0.0], 1.0)
    with pytest.raises(GroupError):
        cone_point([1.0, 0.0, 0.0, 0.5])
    with pytest.raises(GroupError):
        cone_point([-1.0, 0.0, 0.0, 1.0])
    with pytest.raises(GroupError):
        groups.point_from_vector(Circle(), np.array([2.0, 0.0]))
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


def test_element_validation():
    with pytest.raises(GroupError):
        o2_element(0.1, s=0)
    with pytest.raises(GroupError):
        compose(so2_element(0.1), so3_element(0, 0, 0))
    with pytest.raises(GroupError):
        groups.element_from_matrix("lorentz", -np.eye(4))
    nan, inf = math.nan, math.inf
    for make, args in [(so2_element, (nan,)), (o2_element, (inf, -1)),
                       (so3_element, (nan, 0, 0)), (so3_element, (0, inf, 0)),
                       (o3_element, (nan, 0, 0)),
                       (groups.lorentz_element, (0, 0, 0, (nan, 0, 0))),
                       (groups.lorentz_element, (0, 0, 0, (0, 0, -inf))),
                       (groups.lorentz_element, (0, nan, 0))]:
        with pytest.raises(GroupError, match="must be finite"):
            make(*args)


def test_angle_canonicalization():
    g = so2_element(-0.5)
    assert 0.0 <= g.params[0] < 2 * math.pi
    g = so3_element(7.0, 2.0, -3.0)
    a, b, c = g.params
    assert 0 <= a < 2 * math.pi and 0 <= b <= math.pi and 0 <= c < 2 * math.pi
    np.testing.assert_allclose(g.matrix,
                               groups.euler_zyz_matrix(7.0, 2.0, -3.0),
                               atol=1e-13)


def test_identity_elements():
    for group in ALL_GROUPS:
        e = identity(group)
        np.testing.assert_array_equal(e.matrix, np.eye(e.matrix.shape[0]))
