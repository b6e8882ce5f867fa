import math

import numpy as np
import pytest

from steerkit import analytic_bases as bases
from steerkit import groups, numerics, stabilizer_solver, verify
from steerkit.analytic_bases import (basis_for, basis_lorentz_massless,
                                     basis_o2,
                                     basis_o3, basis_so2, basis_so3,
                                     energy_projector, lorentz_massive_basis,
                                     massless_pair,
                                     massless_spin2_projector,
                                     massless_transverse_projector,
                                     rarita_projector, spin2_projector,
                                     transverse_projector, unit_velocity)
from steerkit.groups import (ETA, Circle, MassiveHyperboloid, NullCone,
                             Sphere)
from steerkit.irreps import (GAMMA, IrrepError, dirac_irrep, o2_irrep,
                             o3_irrep, realify, so2_irrep, so3_irrep,
                             spinor_vector_irrep, tensor_irrep)

from single_views import wigner_D


def _oracle_residual(space, k):
    """Relative distance of ``vec(k)`` from the oracle's solution span."""
    return numerics.projection_residual(
        numerics.vec(k).reshape(-1, 1).astype(space.basis.dtype), space.basis)


# ---------------------------------------------------------------------------
# SO(2): the displayed closed forms

def test_so2_complex_basis_value():
    (elem,) = basis_so2(3, 3, "complex")
    x = groups.circle_point(0.4)
    assert abs(elem.at(x)[0, 0] - 1.0) < 1e-14  # j = l: constant kernel


def test_so2_vector_case_closed_form():
    e1, e2 = basis_so2(0, 4)
    phi = 1.1
    x = groups.circle_point(phi)
    np.testing.assert_allclose(
        e1.at(x), [[math.cos(4 * phi), math.sin(4 * phi)]], atol=1e-14)
    np.testing.assert_allclose(
        e2.at(x), [[-math.sin(4 * phi), math.cos(4 * phi)]], atol=1e-14)


def test_so2_matrix_case_closed_forms():
    j, l, phi = 2, 3, 0.9
    cj, sj = math.cos(j * phi), math.sin(j * phi)
    cl, sl = math.cos(l * phi), math.sin(l * phi)
    expected = {
        "E11": [[cj * cl, cj * sl], [sj * cl, sj * sl]],
        "E12": [[-cj * sl, cj * cl], [-sj * sl, sj * cl]],
        "E21": [[-sj * cl, -sj * sl], [cj * cl, cj * sl]],
        "E22": [[sj * sl, -sj * cl], [-cj * sl, cj * cl]],
    }
    x = groups.circle_point(phi)
    els = basis_so2(j, l)
    assert [e.kind for e in els] == ["E11", "E12", "E21", "E22"]
    for e in els:
        np.testing.assert_allclose(e.at(x), expected[e.kind], atol=1e-14)


# ---------------------------------------------------------------------------
# O(2): surviving elements

def test_o2_case_counts():
    counts = {
        (0, 0): 1, ("0~", "0~"): 1, (0, "0~"): 0, ("0~", 0): 0,
        (0, 3): 1, ("0~", 3): 1, (3, 0): 1, (3, "0~"): 1, (2, 3): 2,
    }
    for (a, b), n in counts.items():
        assert len(basis_o2(a, b)) == n
        assert len(basis_o2(a, b, "complex")) == n


def test_o2_vector_cases_closed_form():
    phi, l = 0.8, 3
    x = groups.circle_point(phi)
    (e,) = basis_o2(0, l)
    np.testing.assert_allclose(
        e.at(x), [[math.cos(l * phi), math.sin(l * phi)]], atol=1e-14)
    (e,) = basis_o2("0~", l)
    np.testing.assert_allclose(
        e.at(x), [[-math.sin(l * phi), math.cos(l * phi)]], atol=1e-14)


def test_o2_matrix_case_closed_form():
    j, l, phi = 2, 3, 1.3
    x = groups.circle_point(phi)
    cj, sj = math.cos(j * phi), math.sin(j * phi)
    cl, sl = math.cos(l * phi), math.sin(l * phi)
    e11, e22 = basis_o2(j, l)
    np.testing.assert_allclose(
        e11.at(x), [[cj * cl, cj * sl], [sj * cl, sj * sl]], atol=1e-14)
    np.testing.assert_allclose(
        e22.at(x), [[sj * sl, -sj * cl], [-cj * sl, cj * cl]], atol=1e-14)


def test_o2_basis_respects_reflections():
    # O(2) steerability includes the reflection elements
    for seed, els in enumerate((basis_o2(2, 3), basis_o2("0~", 2),
                                basis_o2(0, 0))):
        assert verify.max_steer_residual(els, Circle(), n_g=5, n_x=5,
                                         seed=7 + seed) <= 1e-12


# ---------------------------------------------------------------------------
# SO(3)

def test_so3_counts_and_kinds():
    els = basis_so3(2, 3)
    assert [e.kind for e in els] == [
        "m=0", "(m=1,I)", "(m=1,J)", "(m=2,I)", "(m=2,J)"]
    els_c = basis_so3(2, 3, "complex")
    assert [e.kind for e in els_c] == [f"m={m}" for m in range(-2, 3)]
    assert len(basis_so3(0, 0)) == 1


def test_so3_complex_entries_are_wigner_products():
    j, l, m = 2, 1, -1
    elem = next(e for e in basis_so3(j, l, "complex") if e.kind == f"m={m}")
    alpha, beta = 1.3, 0.4
    x = groups.sphere_point(alpha, beta)
    got = elem.at(x)
    dj = wigner_D(j, alpha, beta, 0.0)
    dl_inv = wigner_D(l, alpha, beta, 0.0).conj().T
    for mj in range(-j, j + 1):
        for ml in range(-l, l + 1):
            expect = dj[j - mj, j - m] * dl_inv[l - m, l - ml]
            assert abs(got[j - mj, l - ml] - expect) < 1e-13


def test_so3_real_base_point_patterns():
    els = basis_so3(1, 1)
    k = {e.kind: e.base_matrix for e in els}
    m0 = np.zeros((3, 3))
    m0[0, 0] = 1.0
    np.testing.assert_array_equal(k["m=0"], m0)
    ident = np.zeros((3, 3))
    ident[1, 1] = ident[2, 2] = 1.0
    np.testing.assert_array_equal(k["(m=1,I)"], ident)
    jmat = np.zeros((3, 3))
    jmat[2, 1] = 1.0
    jmat[1, 2] = -1.0
    np.testing.assert_array_equal(k["(m=1,J)"], jmat)


def test_so3_real_steered_forms_are_r_matrix_products():
    # the steered identity-pair and J-pair elements expand into products of
    # real Wigner matrix entries over the +-m real-ket indices:
    #   K_(m,I)[mj, ml] = Rj[mj, m] Rl^-1[m, ml] + Rj[mj, -m] Rl^-1[-m, ml]
    #   K_(m,J)[mj, ml] = Rj[mj, -m] Rl^-1[m, ml] - Rj[mj, m] Rl^-1[-m, ml]
    # with ket index 2m-1 for +m (cosine) and 2m for -m (sine)
    from steerkit.irreps import rep_matrices
    j, l, m = 2, 3, 1
    alpha, beta = 0.8, 1.9
    x = groups.sphere_point(alpha, beta)
    g = (alpha, beta, 0.0)
    rj = rep_matrices(so3_irrep(j), g)
    rl_inv = rep_matrices(so3_irrep(l), g).T  # orthogonal
    pos, neg = 2 * m - 1, 2 * m
    expect_i = (np.outer(rj[:, pos], rl_inv[pos, :])
                + np.outer(rj[:, neg], rl_inv[neg, :]))
    expect_j = (np.outer(rj[:, neg], rl_inv[pos, :])
                - np.outer(rj[:, pos], rl_inv[neg, :]))
    els = {e.kind: e for e in basis_so3(j, l)}
    np.testing.assert_allclose(els["(m=1,I)"].at(x), expect_i, atol=1e-13)
    np.testing.assert_allclose(els["(m=1,J)"].at(x), expect_j, atol=1e-13)


def test_so3_kernels_do_not_depend_on_gamma():
    # the coset section fixes gamma = 0; steering with gamma = 0.7 instead
    # must give the same kernel because the base matrices commute with the
    # z-rotation blocks
    from steerkit.steering import steer
    alpha, beta = 0.7, 1.1
    x = groups.sphere_point(alpha, beta)
    for field in ("real", "complex"):
        for elem in basis_so3(2, 2, field):
            (twisted,) = steer(elem.base_matrix, elem.j, elem.l,
                               [(alpha, beta, 0.7)])
            np.testing.assert_allclose(twisted, elem.at(x), atol=1e-11)


# ---------------------------------------------------------------------------
# O(3)

def test_o3_counts_per_sign_pair():
    assert len(basis_o3(2, 1, 3, 1)) == 3
    assert len(basis_o3(2, 1, 3, -1)) == 2
    assert len(basis_o3(0, 1, 0, -1)) == 0
    assert len(basis_o3(0, -1, 0, -1)) == 1
    assert len(basis_o3(2, 1, 3, 1, "complex")) == 3
    assert len(basis_o3(2, -1, 3, 1, "complex")) == 2


def test_o3_complex_elements_are_weight_combinations():
    # same signs: D^j_{mj m} (D^l)^-1_{m ml} + D^j_{mj -m} (D^l)^-1_{-m ml};
    # opposite signs: the difference
    alpha, beta = 0.5, 1.2
    x = groups.sphere_point(alpha, beta)
    for pj, pl, sign in ((1, 1, 1.0), (1, -1, -1.0)):
        j, l, m = 2, 2, 1
        els = basis_o3(j, pj, l, pl, "complex")
        elem = next(e for e in els if e.kind.startswith("m=1"))
        dj = wigner_D(j, alpha, beta, 0.0)
        dl_inv = wigner_D(l, alpha, beta, 0.0).conj().T
        expect = (np.outer(dj[:, j - m], dl_inv[l - m, :])
                  + sign * np.outer(dj[:, j + m], dl_inv[l + m, :]))
        np.testing.assert_allclose(elem.at(x), expect, atol=1e-13)


def test_o3_span_is_subspace_of_so3_span():
    # at the base point the O(3) solutions sit inside the SO(3) solution
    # space, with dimensions min+1 (or min) vs 2 min + 1
    j, l = 2, 3
    so3_span = np.column_stack(
        [e.base_matrix.ravel() for e in basis_so3(j, l)])
    so3_basis = numerics.orthonormal_columns(so3_span)
    for pj, pl, want in ((1, 1, 3), (1, -1, 2)):
        els = basis_o3(j, pj, l, pl)
        assert len(els) == want
        vecs = np.column_stack([e.base_matrix.ravel() for e in els])
        assert numerics.projection_residual(vecs, so3_basis) <= 1e-12


def test_o3_steerability_includes_parity():
    for seed, els in enumerate((basis_o3(2, 1, 2, -1),
                                basis_o3(1, -1, 2, -1, "complex"))):
        assert verify.max_steer_residual(els, Sphere(), n_g=5, n_x=5,
                                         seed=13 + seed) <= 1e-11


# ---------------------------------------------------------------------------
# Lorentz massive

def _spin_block(j, l, spin):
    """The massive elements of one matched spin, in builder order."""
    return [e for e in lorentz_massive_basis(j, l)
            if e.kind.startswith(f"spin{spin}:")]


def test_massive_spin0_base_point():
    vec = tensor_irrep(1, 0)
    (elem,) = _spin_block(vec, vec, 0)
    np.testing.assert_array_equal(elem.base_matrix, np.diag([1.0, 0, 0, 0]))


def test_massive_spin1_is_transverse_projector():
    vec = tensor_irrep(1, 0)
    (elem,) = _spin_block(vec, vec, 1)
    m = 1.0
    eta = 0.8
    x = groups.massive_point(
        [m * math.cosh(eta), 0, 0, m * math.sinh(eta)], m)
    k = elem.at(x)
    u = x.vector / m
    np.testing.assert_allclose(k, np.eye(4) - np.outer(u, ETA @ u),
                               atol=1e-12)
    assert np.linalg.norm(k @ u) <= 1e-12
    np.testing.assert_allclose(k @ k, k, atol=1e-12)
    assert abs(np.trace(k) - 3.0) < 1e-12


def test_massive_rank2_same_slot_elements_are_covariant_projectors():
    # oracle: the covariant component formulas built directly from u
    t20 = tensor_irrep(2, 0)
    rng = np.random.default_rng(5)
    orbit = MassiveHyperboloid()
    (x,) = groups.orbit_points(
        orbit, groups.random_orbit_coords(orbit, rng, 1, eta_max=1.5))
    u = unit_velocity(x)
    d = transverse_projector(u)
    ul = ETA @ u
    expected = {
        "spin0:00->00": np.einsum("m,n,r,s->mnrs", u, u, ul, ul),
        "spin0:trace->trace": np.einsum("mn,rs->mnrs", d @ ETA, ETA @ d) / 3.0,
        "spin1:i0->i0": np.einsum("mr,n,s->mnrs", d, u, ul),
        "spin1:0i->0i": np.einsum("m,r,ns->mnrs", u, ul, d),
        "spin1:as->as": 0.5 * (np.einsum("mr,ns->mnrs", d, d)
                               - np.einsum("nr,ms->mnrs", d, d)),
        "spin2:sym->sym": spin2_projector(u).reshape(4, 4, 4, 4),
    }
    els = lorentz_massive_basis(t20, t20)
    for e in els:
        if e.kind in expected:
            np.testing.assert_allclose(
                e.at(x), expected[e.kind].reshape(16, 16), atol=1e-11)


def test_massive_counts_match_predictions_for_tensor_pairs():
    mh = MassiveHyperboloid()
    for j, l in [(tensor_irrep(1, 0), tensor_irrep(1, 0)),
                 (tensor_irrep(1, 0), tensor_irrep(2, 0)),
                 (tensor_irrep(2, 0), tensor_irrep(2, 0)),
                 (tensor_irrep(1, 1), tensor_irrep(2, 0)),
                 (tensor_irrep(0, 0), tensor_irrep(1, 0))]:
        els = lorentz_massive_basis(j, l)
        assert len(els) == stabilizer_solver.predicted_dimension(j, l, mh)


def test_massive_spin_half_family():
    d = dirac_irrep(realified=True)
    els = lorentz_massive_basis(d, d)
    assert len(els) == 8
    kinds = {e.kind for e in els}
    assert "(C,P+1)" in kinds and "(i,P-1)" in kinds
    # base-point charge-conjugation element: antilinear C gamma^0 after P_+
    from steerkit.irreps import CHARGE_CONJUGATION, realify_antilinear
    p_plus = energy_projector(np.array([1.0, 0, 0, 0]), +1)
    n = (CHARGE_CONJUGATION @ GAMMA[0]).real
    expect = realify_antilinear(n @ np.conj(p_plus))
    elem = next(e for e in els if e.kind == "(C,P+1)")
    np.testing.assert_allclose(elem.base_matrix, expect, atol=1e-14)


def test_massive_spin_half_steered_forms_are_covariant():
    # the four invariant maps commute with the whole group, so steering only
    # moves the energy projector: K(x) = q o P_eps(u(x)) for each element
    from steerkit.irreps import CHARGE_CONJUGATION, realify_antilinear
    d = dirac_irrep(realified=True)
    els = lorentz_massive_basis(d, d)
    n = (CHARGE_CONJUGATION @ GAMMA[0]).real
    rng = np.random.default_rng(37)
    orbit = MassiveHyperboloid()
    for x in groups.orbit_points(
            orbit, groups.random_orbit_coords(orbit, rng, 4, eta_max=2.0)):
        u = unit_velocity(x)
        for e in els:
            sign = +1 if e.kind.endswith("P+1)") else -1
            p = energy_projector(u, sign)
            if e.kind.startswith("(1,"):
                expect = realify(p)
            elif e.kind.startswith("(i,"):
                expect = realify(1j * p)
            elif e.kind.startswith("(C,"):
                expect = realify_antilinear(n @ np.conj(p))
            else:
                expect = realify_antilinear(1j * (n @ np.conj(p)))
            np.testing.assert_allclose(e.at(x), expect, atol=1e-11)


def test_massive_spin_three_half_steered_forms_are_covariant():
    # K(x) = q o Pi_{3/2}(u) o P_eps(u); the vector and spinor factors steer
    # together while the quaternion part stays fixed
    from steerkit.irreps import CHARGE_CONJUGATION, realify_antilinear
    sv = spinor_vector_irrep(realified=True)
    els = lorentz_massive_basis(sv, sv)
    n16 = np.kron(np.eye(4), (CHARGE_CONJUGATION @ GAMMA[0]).real)
    rng = np.random.default_rng(41)
    orbit = MassiveHyperboloid()
    (x,) = groups.orbit_points(
        orbit, groups.random_orbit_coords(orbit, rng, 1, eta_max=1.5))
    u = unit_velocity(x)
    for e in els:
        sign = +1 if e.kind.endswith("P+1)") else -1
        base = rarita_projector(u) @ np.kron(np.eye(4),
                                             energy_projector(u, sign))
        if e.kind.startswith("(1,"):
            expect = realify(base)
        elif e.kind.startswith("(i,"):
            expect = realify(1j * base)
        elif e.kind.startswith("(C,"):
            expect = realify_antilinear(n16 @ np.conj(base))
        else:
            expect = realify_antilinear(1j * (n16 @ np.conj(base)))
        np.testing.assert_allclose(e.at(x), expect, atol=1e-10)


def test_energy_projector_algebra():
    rng = np.random.default_rng(11)
    orbit = MassiveHyperboloid()
    (x,) = groups.orbit_points(
        orbit, groups.random_orbit_coords(orbit, rng, 1, eta_max=1.5))
    u = unit_velocity(x)
    pp, pm = energy_projector(u, +1), energy_projector(u, -1)
    np.testing.assert_allclose(pp @ pp, pp, atol=1e-12)
    np.testing.assert_allclose(pm @ pm, pm, atol=1e-12)
    np.testing.assert_allclose(pp + pm, np.eye(4), atol=1e-13)
    assert np.linalg.norm(pp @ pm) <= 1e-12


def test_rarita_projector_identities():
    rng = np.random.default_rng(13)
    orbit = MassiveHyperboloid()
    (x,) = groups.orbit_points(
        orbit, groups.random_orbit_coords(orbit, rng, 1, eta_max=1.5))
    u = unit_velocity(x)
    pi = rarita_projector(u)
    np.testing.assert_allclose(pi @ pi, pi, atol=1e-11)
    pi4 = pi.reshape(4, 4, 4, 4)
    assert np.linalg.norm(np.einsum("manb,n->mab", pi4, u)) <= 1e-11
    d = transverse_projector(u)
    gperp = np.einsum("mn,nab->mab", d, GAMMA)
    gperp_low = np.einsum("mn,nab->mab", ETA, gperp)
    contraction = np.einsum("mca,manb->cnb", gperp_low, pi4)
    assert np.abs(contraction).max() <= 1e-11


def test_massive_spin_three_half_family():
    sv = spinor_vector_irrep(realified=True)
    els = lorentz_massive_basis(sv, sv)
    assert len(els) == 8
    assert all(e.base_matrix.shape == (32, 32) for e in els)


def test_massive_base_points_lie_in_oracle_space():
    mh = MassiveHyperboloid()
    cases = [
        (tensor_irrep(1, 0), tensor_irrep(2, 0)),
        (tensor_irrep(2, 0), tensor_irrep(2, 0)),
        (dirac_irrep(realified=True), dirac_irrep(realified=True)),
    ]
    for j, l in cases:
        space = stabilizer_solver.solve_basepoint(j, l, mh)
        for e in lorentz_massive_basis(j, l):
            assert _oracle_residual(space, e.base_matrix) <= 1e-10


def test_massive_unmatched_and_unsupported():
    vec = tensor_irrep(1, 0)
    t20 = tensor_irrep(2, 0)
    assert _spin_block(vec, vec, 2) == []
    assert lorentz_massive_basis(dirac_irrep(True), vec) == []
    assert lorentz_massive_basis(t20, spinor_vector_irrep(True)) == []
    # The Dirac <-> spinor-vector cross blocks are not implemented yet.
    with pytest.raises(IrrepError, match="implemented for"):
        lorentz_massive_basis(dirac_irrep(True), spinor_vector_irrep(True))
    # Complex spinor labels: the charge conjugation is antilinear there, so
    # the builder asks for the realified labels instead of relabelling.
    for j, l in [(dirac_irrep(), dirac_irrep()),
                 (spinor_vector_irrep(), spinor_vector_irrep()),
                 (dirac_irrep(), vec), (vec, dirac_irrep())]:
        with pytest.raises(IrrepError, match="realified"):
            lorentz_massive_basis(j, l)
    with pytest.raises(IrrepError, match="realified"):
        basis_for(dirac_irrep(), dirac_irrep(), MassiveHyperboloid())
    with pytest.raises(IrrepError, match="realified"):
        verify.check_case(dirac_irrep(), dirac_irrep(), MassiveHyperboloid())
    with pytest.raises(IrrepError, match="Lorentz labels"):
        lorentz_massive_basis(so3_irrep(1), vec)


# ---------------------------------------------------------------------------
# Lorentz massless

def test_massless_base_point_projector():
    # upper-index form at the base pair is diag(0, -1, -1, 0); the kernel
    # stores the mixed form
    n0 = np.array([1.0, 0, 0, 1.0])
    nbar0 = bases.NBAR0
    upper = (ETA - np.outer(n0, nbar0) - np.outer(nbar0, n0))
    np.testing.assert_allclose(upper, np.diag([0.0, -1.0, -1.0, 0.0]),
                               atol=1e-15)
    (elem,) = basis_lorentz_massless(1)
    np.testing.assert_allclose(elem.base_matrix, upper @ ETA, atol=1e-15)


def test_massless_pair_invariants_under_steering():
    rng = np.random.default_rng(17)
    orbit = NullCone()
    for x in groups.orbit_points(
            orbit, groups.random_orbit_coords(orbit, rng, 8, eta_max=2.0)):
        n, nbar = massless_pair(x)
        np.testing.assert_allclose(n, x.vector, atol=1e-11)
        assert abs(groups.minkowski(n, nbar) - 1.0) <= 1e-11
        assert abs(groups.minkowski(nbar, nbar)) <= 1e-11


def test_massless_transverse_projector_identities():
    rng = np.random.default_rng(19)
    orbit = NullCone()
    (x,) = groups.orbit_points(
        orbit, groups.random_orbit_coords(orbit, rng, 1, eta_max=2.0))
    n, nbar = massless_pair(x)
    d = massless_transverse_projector(n, nbar)
    np.testing.assert_allclose(d @ d, d, atol=1e-11)
    assert abs(np.trace(d) - 2.0) <= 1e-11
    assert np.linalg.norm(d @ n) <= 1e-11
    assert np.linalg.norm(d @ nbar) <= 1e-11


def test_massless_spin2_trace_and_idempotence():
    rng = np.random.default_rng(23)
    orbit = NullCone()
    (x,) = groups.orbit_points(
        orbit, groups.random_orbit_coords(orbit, rng, 1, eta_max=1.5))
    n, nbar = massless_pair(x)
    p = massless_spin2_projector(n, nbar)
    np.testing.assert_allclose(p @ p, p, atol=1e-10)
    assert abs(np.trace(p) - 2.0) <= 1e-10  # 2-dim space of transverse
    # symmetric traceless tensors


def test_massless_evaluator_matches_covariant_formula():
    (e1,) = basis_lorentz_massless(1)
    (e2,) = basis_lorentz_massless(2)
    rng = np.random.default_rng(29)
    orbit = NullCone()
    for x in groups.orbit_points(
            orbit, groups.random_orbit_coords(orbit, rng, 5, eta_max=1.5)):
        n, nbar = massless_pair(x)
        np.testing.assert_allclose(e1.at(x),
                                   massless_transverse_projector(n, nbar),
                                   atol=1e-11)
        np.testing.assert_allclose(e2.at(x),
                                   massless_spin2_projector(n, nbar),
                                   atol=1e-10)


def test_massless_gauge_shift_stays_in_gauge_span():
    # Delta(nbar') - Delta(nbar) must lie in span{n e_i + e_i n, n n}
    rng = np.random.default_rng(31)
    orbit = NullCone()
    for _ in range(10):
        (x,) = groups.orbit_points(
            orbit, groups.random_orbit_coords(orbit, rng, 1, eta_max=1.5))
        lam = groups.matrices("lorentz",
                              groups.section_params(orbit, x.coords))
        n, nbar = massless_pair(x)
        a = rng.uniform(-2, 2, size=2)
        _, nbar_shift = massless_pair(x, gauge=a)
        assert abs(groups.minkowski(nbar_shift, nbar_shift)) <= 1e-10
        assert abs(groups.minkowski(n, nbar_shift) - 1.0) <= 1e-11
        diff = (massless_transverse_projector(n, nbar_shift)
                - massless_transverse_projector(n, nbar))
        e1, e2 = (lam @ v for v in bases.TRANSVERSE0)
        span = np.column_stack([
            (np.outer(n, ETA @ e1) + np.outer(e1, ETA @ n)).ravel(),
            (np.outer(n, ETA @ e2) + np.outer(e2, ETA @ n)).ravel(),
            np.outer(n, ETA @ n).ravel()])
        basis = numerics.orthonormal_columns(span)
        resid = numerics.projection_residual(diff.reshape(-1, 1), basis)
        assert resid <= 1e-11


def test_massless_base_points_lie_in_oracle_space():
    for spin, lab in ((1, tensor_irrep(1, 0)), (2, tensor_irrep(2, 0))):
        space = stabilizer_solver.solve_basepoint(lab, lab, NullCone())
        (elem,) = basis_lorentz_massless(spin)
        assert _oracle_residual(space, elem.base_matrix) <= 1e-10


def test_massless_unsupported_spin():
    with pytest.raises(IrrepError):
        basis_lorentz_massless(3)


# ---------------------------------------------------------------------------
# cross-cutting properties

def _grid_cases():
    cases = []
    for field in ("real", "complex"):
        for j in range(5):
            for l in range(5):
                cases.append((so2_irrep(j, field), so2_irrep(l, field),
                              Circle()))
        for j in range(4):
            for l in range(4):
                cases.append((so3_irrep(j, field), so3_irrep(l, field),
                              Sphere()))
        labels = [o2_irrep(0, field), o2_irrep("0~", field)] + [
            o2_irrep(n, field) for n in range(1, 5)]
        cases.extend((a, b, Circle()) for a in labels for b in labels)
        for pj in (1, -1):
            for pl in (1, -1):
                for j, l in ((1, 2), (3, 3), (0, 2)):
                    cases.append((o3_irrep(j, pj, field),
                                  o3_irrep(l, pl, field), Sphere()))
    return cases


def test_counts_and_base_point_membership_across_grid():
    for j, l, orbit in _grid_cases():
        els = basis_for(j, l, orbit)
        space = stabilizer_solver.solve_basepoint(j, l, orbit)
        assert len(els) == space.dimension
        assert len(els) == stabilizer_solver.predicted_dimension(j, l, orbit)
        for e in els:
            assert _oracle_residual(space, e.base_matrix) <= 1e-10


def test_linear_independence_across_grid():
    for j, l, orbit in _grid_cases():
        els = basis_for(j, l, orbit)
        if len(els) < 2:
            continue
        a = np.column_stack([e.base_matrix.ravel() for e in els])
        gram = a.conj().T @ a
        w = np.linalg.eigvalsh(gram)
        assert w[0] >= 1e-8 * w[-1]


def test_non_unit_orbit_scales():
    # radius and mass only rescale the orbit geometry; the kernels and the
    # oracle are unchanged, and the coset sections must still hit the points
    els = basis_so3(2, 1, radius=2.5)
    assert verify.max_steer_residual(els[:2], Sphere(2.5), n_g=4, n_x=4,
                                     seed=43) <= 1e-11
    # Out to the ends of float64: no check squares a radius, and the
    # oracle's stabilizer does not depend on it.
    for radius in (1e-200, 1e200):
        for els, orbit in ((basis_so3(1, 1, radius=radius), Sphere(radius)),
                           (basis_so2(1, 1, radius=radius), Circle(radius))):
            assert verify.max_steer_residual(els, orbit, n_g=4, n_x=4,
                                             seed=43) <= 1e-11
    assert verify.check_case(o3_irrep(1, 1), o3_irrep(1, 1),
                             Sphere(1e6)).passed

    mass = 3.0
    vec = tensor_irrep(1, 0)
    elems = lorentz_massive_basis(vec, vec, mass=mass)
    eta = 1.1
    import math
    x = groups.massive_point(
        [mass * math.cosh(eta), 0, 0, mass * math.sinh(eta)], mass)
    u = x.vector / mass
    spin1 = next(e for e in elems if "space" in e.kind)
    np.testing.assert_allclose(spin1.at(x), transverse_projector(u),
                               atol=1e-12)
    space = stabilizer_solver.solve_basepoint(
        vec, vec, MassiveHyperboloid(mass))
    assert space.dimension == 2
    for e in elems:
        assert _oracle_residual(space, e.base_matrix) <= 1e-10


def test_base_matrices_are_read_only():
    elem = basis_so2(1, 1)[0]
    with pytest.raises(ValueError):
        elem.base_matrix[0, 0] = 5.0


def test_basis_for_rejects_unsupported():
    with pytest.raises(IrrepError):
        basis_for(tensor_irrep(1, 1), tensor_irrep(1, 1), NullCone())
