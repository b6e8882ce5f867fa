import math

import numpy as np
import pytest

from steerkit import analytic_bases as bases
from steerkit import groups, verify
from steerkit.groups import MassiveHyperboloid, NullCone, Sphere
from steerkit.irreps import (IrrepError, dirac_irrep, so2_irrep,
                             so3_irrep, tensor_irrep, wigner_D)
from steerkit.steering import kernel_at, kernels_at, steer


def test_steer_identity_leaves_kernel():
    k0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = steer(k0, so2_irrep(2), so2_irrep(3), groups.identity("so2"))
    np.testing.assert_allclose(out, k0, atol=1e-15)


def test_steer_so2_complex_phase():
    # steering the unit kernel gives exp(i (j - l) phi)
    for j, l in [(2, 5), (0, 3), (4, 4)]:
        phi = 0.77
        out = steer(np.array([[1.0 + 0j]]), so2_irrep(j, "complex"),
                    so2_irrep(l, "complex"), groups.so2_element(phi))
        assert abs(out[0, 0] - np.exp(1j * (j - l) * phi)) < 1e-14


def test_steer_so2_real_canonical_matrix():
    # the displayed steering of [[1,0],[0,0]]:
    # [[cos j cos l, cos j sin l], [sin j cos l, sin j sin l]] (angles j phi,
    # l phi)
    j, l, phi = 2, 3, 0.6
    out = steer(np.diag([1.0, 0.0]), so2_irrep(j), so2_irrep(l),
                groups.so2_element(phi))
    cj, sj = math.cos(j * phi), math.sin(j * phi)
    cl, sl = math.cos(l * phi), math.sin(l * phi)
    np.testing.assert_allclose(out, [[cj * cl, cj * sl], [sj * cl, sj * sl]],
                               atol=1e-14)


def test_steer_composition_property():
    rng = np.random.default_rng(5)
    cases = [
        (so2_irrep(2), so2_irrep(1), "so2"),
        (so3_irrep(2, "complex"), so3_irrep(1, "complex"), "so3"),
        (tensor_irrep(1, 0), tensor_irrep(1, 0), "lorentz"),
        (dirac_irrep(realified=True), dirac_irrep(realified=True), "lorentz"),
    ]
    for j, l, gname in cases:
        k0 = rng.normal(size=(j.dim, l.dim))
        for _ in range(5):
            a = groups.random_element(gname, rng, eta_max=1.0)
            b = groups.random_element(gname, rng, eta_max=1.0)
            lhs = steer(steer(k0, j, l, a), j, l, b)
            rhs = steer(k0, j, l, groups.compose(b, a))
            assert (np.linalg.norm(lhs - rhs)
                    <= 1e-11 * max(1.0, np.linalg.norm(rhs)))


def test_kernel_at_base_point_returns_base_matrix():
    for elem in bases.basis_so3(2, 1) + bases.basis_so2(1, 1):
        x0 = groups.base_point(elem.orbit)
        np.testing.assert_allclose(kernel_at(elem, x0), elem.base_matrix,
                                   atol=1e-13)


def test_kernel_at_so3_complex_matches_direct_product():
    # K_m(alpha, beta) entries are D^j_{mj m} (D^l)^-1_{m ml}; oracle is the
    # direct product of Wigner matrices.
    j = l = 1
    elem = next(e for e in bases.basis_so3(j, l, "complex")
                if e.kind == "m=0")
    alpha, beta = 0.9, 1.7
    x = groups.sphere_point(alpha, beta)
    got = kernel_at(elem, x)
    dj = wigner_D(j, alpha, beta, 0.0)
    dl_inv = wigner_D(l, alpha, beta, 0.0).conj().T
    expect = np.outer(dj[:, j - 0], dl_inv[l - 0, :])
    np.testing.assert_allclose(got, expect, atol=1e-13)


def test_kernel_at_is_section_independent():
    # composing the representative with a stabilizer rotation must not move
    # the kernel value: that is exactly the base-point constraint
    theta = 1.2
    for elem in (bases.basis_so3(2, 1)[2], bases.basis_so3(1, 2, "complex")[0]):
        x = groups.sphere_point(0.8, 0.5)
        rep = groups.coset_representative(x, "so3")
        moved = groups.compose(rep, groups.so3_element(theta, 0.0, 0.0))
        direct = steer(elem.base_matrix, elem.j, elem.l, moved)
        np.testing.assert_allclose(direct, kernel_at(elem, x), atol=1e-12)


def test_steerability_defect_is_small_for_analytic_elements():
    for els in (bases.basis_so3(2, 2), bases.basis_so2(1, 3)):
        assert verify.max_steer_residual(els, els[0].orbit, n_g=5, n_x=5,
                                         seed=11) <= 1e-11


def test_steer_shape_mismatch_rejected():
    g = groups.so2_element(0.1)
    for bad in (np.eye(3), np.zeros((4, 2, 3)), np.zeros(2)):
        with pytest.raises(IrrepError):
            steer(bad, so2_irrep(1), so2_irrep(1), g)


def test_steer_stack_matches_elementwise():
    # The grid sampler steers a whole basis as one stack; each slice must
    # equal steering that element on its own, bit for bit.
    rng = np.random.default_rng(11)
    cases = [
        (so3_irrep(2, "complex"), so3_irrep(1, "complex"), "so3"),
        (tensor_irrep(2, 0), tensor_irrep(1, 0), "lorentz"),
        (dirac_irrep(realified=True), dirac_irrep(realified=True), "lorentz"),
    ]
    for j, l, gname in cases:
        stack = rng.normal(size=(5, j.dim, l.dim))
        g = groups.random_element(gname, rng, eta_max=1.0)
        out = steer(stack, j, l, g)
        assert out.shape == stack.shape
        for k0, got in zip(stack, out):
            assert np.array_equal(got, steer(k0, j, l, g))
    # kernels_at steers the whole basis as one stack per point; each slice
    # must equal the kernel_at reference, including at the section's
    # singular points (poles, rest frame, backward null direction).
    vec, t20 = tensor_irrep(1, 0), tensor_irrep(2, 0)
    poles = [groups.sphere_point(0.0, 0.0), groups.sphere_point(0.3, math.pi)]
    evaluated = [
        (bases.basis_so3(2, 1), Sphere()),
        (bases.basis_so3(1, 2, "complex"), Sphere()),
        (bases.basis_o3(2, -1, 1, 1), Sphere()),
        (bases.lorentz_massive_basis(t20, vec), MassiveHyperboloid()),
        (bases.lorentz_massive_basis(dirac_irrep(realified=True),
                                     dirac_irrep(realified=True)),
         MassiveHyperboloid()),
        (bases.basis_lorentz_massless(2), NullCone()),
    ]
    for els, orbit in evaluated:
        pts = [groups.random_orbit_point(orbit, rng) for _ in range(4)]
        if isinstance(orbit, Sphere):
            pts += poles
        elif isinstance(orbit, MassiveHyperboloid):
            pts.append(groups.base_point(orbit))
        else:
            pts += [groups.cone_point([1.0, 0.0, 0.0, 1.0]),
                    groups.cone_point([1.0, 0.0, 0.0, -1.0])]
        values = kernels_at(els, pts)
        assert values.shape == (len(els), len(pts), els[0].j.dim,
                                els[0].l.dim)
        for b, elem in enumerate(els):
            for p, x in enumerate(pts):
                assert np.array_equal(values[b, p], kernel_at(elem, x))
    with pytest.raises(IrrepError):
        kernels_at(bases.basis_so3(1, 1), [groups.sphere_point(0.1, 0.2, 2.0)])


def test_kernel_at_wrong_orbit_rejected():
    elem = bases.basis_so2(1, 1)[0]
    with pytest.raises(IrrepError):
        kernel_at(elem, groups.sphere_point(0.1, 0.2))
    big = bases.basis_so2(1, 1, radius=2.0)[0]
    with pytest.raises(IrrepError):
        kernel_at(big, groups.circle_point(0.1, 1.0))


def test_lorentz_steer_matches_covariant_projector():
    # steering the rest-frame transverse projector gives 1 - u u (index
    # lowered), computed here directly from the boosted point
    vec = tensor_irrep(1, 0)
    elem = next(e for e in bases.lorentz_massive_basis(vec, vec)
                if "space" in e.kind)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = groups.random_orbit_point(MassiveHyperboloid(), rng, eta_max=2.0)
        u = x.vector  # m = 1
        expect = np.eye(4) - np.outer(u, groups.ETA @ u)
        np.testing.assert_allclose(kernel_at(elem, x), expect, atol=1e-11)
