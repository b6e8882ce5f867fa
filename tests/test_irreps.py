import math
import re
from fractions import Fraction

import numpy as np
import pytest

from steerkit import groups, irreps
from steerkit.groups import (Circle, GroupError, MassiveHyperboloid,
                             NullCone, Sphere, boost_matrix, matrices,
                             random_params)
from steerkit.irreps import (CHARGE_CONJUGATION, GAMMA, SLOTS, TENSOR_SLOTS,
                             IrrepError, dirac_irrep, o2_irrep, o3_irrep,
                             real_change_of_basis, realify,
                             realify_antilinear, rep_matrices, rep_pair,
                             so2_irrep, so3_irrep,
                             spinor_vector_irrep, stabilizer_content,
                             tensor_irrep)

from group_law import inverse, product, stabilizer_draw
from single_views import (sl2_of, so3_stack_reference, wigner_D,
                          wigner_small_d)


def sample_labels(max_l=4):
    labels = [so2_irrep(2), so2_irrep(0), so2_irrep(-3, "complex"),
              o2_irrep("0~"), o2_irrep(2), o2_irrep(3, "complex"),
              so3_irrep(max_l, "complex"), so3_irrep(max_l),
              o3_irrep(2, -1), o3_irrep(3, 1, "complex"),
              tensor_irrep(1, 0), tensor_irrep(0, 1), tensor_irrep(2, 0),
              tensor_irrep(1, 1)]
    return labels


# ---------------------------------------------------------------------------
# Wigner matrices

def _small_d(l, betas, field):
    angles = np.zeros((len(betas), 3))
    angles[:, 1] = betas
    factors = irreps._factors(angles, [so3_irrep(l, field)])
    return irreps._small_d_stack(l, factors, field)


def test_wigner_small_d_degenerate_cases():
    np.testing.assert_array_equal(wigner_small_d(0, 0.7), [[1.0]])
    # At beta = 0 only the identity row of the table remains.
    for l in range(5):
        np.testing.assert_array_equal(wigner_small_d(l, 0.0), np.eye(2 * l + 1))
    # A stack is C-ordered and equals its one-angle calls bit for bit.
    rng = np.random.default_rng(3)
    betas = np.concatenate([[0.0, math.pi, 1e-9, math.pi - 1e-9],
                            rng.uniform(0.0, math.pi, 5)])
    for l in (0, 1, 2, 4, 8, 16, 32):
        n = 2 * l + 1
        for field in ("real", "complex"):
            d = _small_d(l, betas, field)
            assert d.shape == (len(betas), n, n) and d.flags.c_contiguous
            for beta, row in zip(betas, d):
                one = _small_d(l, np.array([beta]), field)[0]
                assert row.tobytes() == one.tobytes(), (l, field, beta)


def test_wigner_small_d_orthogonal():
    # Every l up to the maximum in both bases, at the poles, next to them
    # and at random angles.
    rng = np.random.default_rng(4)
    betas = [0.0, math.pi, 1e-9, math.pi - 1e-9] + list(rng.uniform(0, math.pi, 4))
    params = [(rng.uniform(-math.pi, math.pi), b, rng.uniform(-math.pi, math.pi))
              for b in betas]
    for l in range(irreps.MAX_L + 1):
        for field in ("real", "complex"):
            m = irreps.rep_matrices(so3_irrep(l, field), params)
            err = np.abs(m @ m.conj().swapaxes(-1, -2) - np.eye(2 * l + 1)).max()
            assert err <= 1e-13, (l, field, err)
        d = wigner_small_d(l, 0.83)
        np.testing.assert_allclose(d @ d.T, np.eye(2 * l + 1), atol=1e-13)


def test_wigner_small_d_additive_in_beta():
    for l in (1, 3):
        d1 = wigner_small_d(l, 0.4)
        d2 = wigner_small_d(l, 1.1)
        np.testing.assert_allclose(d1 @ d2, wigner_small_d(l, 1.5), atol=1e-12)


def test_wigner_small_d_at_pi():
    # d^l_{m,m'}(pi) = (-1)^(l-m') delta_{m,-m'}: the anti-diagonal that
    # makes the reflection rep come out as +-(-1)^m on the weight pairs.
    for l in (1, 2, 3, 4):
        d = wigner_small_d(l, math.pi)
        expect = np.zeros_like(d)
        for i, m in enumerate(range(l, -l - 1, -1)):
            mp = -m
            expect[i, l - mp] = (-1.0) ** (l - mp)
        np.testing.assert_allclose(d, expect, atol=1e-13)


def test_wigner_small_d_matches_generator_exponential():
    # Independent oracle: d^l(beta) = exp(-i beta Jy) with Jy assembled from
    # the standard ladder operators in the m-descending basis,
    # J+-|l m> = sqrt(l(l+1) - m(m+-1)) |l m+-1>.
    for l in (1, 2, 3, 5):
        dim = 2 * l + 1
        ms = np.arange(l, -l - 1, -1)
        jp = np.zeros((dim, dim))
        for k, m in enumerate(ms[1:], start=1):  # raise m -> m + 1
            jp[k - 1, k] = math.sqrt(l * (l + 1) - m * (m + 1))
        jy = (jp - jp.T) / 2j
        w, v = np.linalg.eigh(jy)
        beta = 1.234
        expm = (v * np.exp(-1j * beta * w)) @ v.conj().T
        assert np.abs(expm.imag).max() < 1e-12
        np.testing.assert_allclose(wigner_small_d(l, beta), expm.real,
                                   atol=1e-12)


def test_wigner_D_z_rotation_is_diagonal():
    l, alpha = 3, 0.7
    m = np.arange(l, -l - 1, -1)
    np.testing.assert_allclose(wigner_D(l, alpha, 0, 0),
                               np.diag(np.exp(-1j * m * alpha)), atol=1e-14)


def test_wigner_rejects_negative_l():
    with pytest.raises(IrrepError):
        wigner_small_d(-1, 0.3)
    with pytest.raises(IrrepError):
        real_change_of_basis(-2)


# ---------------------------------------------------------------------------
# real change of basis

def test_real_change_of_basis_l0_and_l1():
    np.testing.assert_array_equal(real_change_of_basis(0), [[1.0]])
    s = real_change_of_basis(1)
    inv = 1 / math.sqrt(2)
    # row of Yc_11: 1/sqrt2 at m=+1, -1/sqrt2 at m=-1 (Condon-Shortley)
    np.testing.assert_allclose(s[1], [inv, 0, -inv], atol=1e-15)
    np.testing.assert_allclose(s[2], [-1j * inv, 0, -1j * inv], atol=1e-15)
    np.testing.assert_allclose(s[0], [0, 1, 0], atol=1e-15)


def test_real_change_of_basis_unitary():
    for l in range(6):
        s = real_change_of_basis(l)
        np.testing.assert_allclose(s @ s.conj().T, np.eye(2 * l + 1),
                                   atol=1e-13)


def test_real_rep_is_real():
    rng = np.random.default_rng(3)
    for l in (1, 2, 4):
        s = real_change_of_basis(l)
        for p in random_params("so3", rng, 5):
            r = s.conj() @ wigner_D(l, *p) @ s.T
            assert np.abs(r.imag).max() <= 1e-12


def test_real_l1_matches_geometric_rotation():
    # Real harmonics (Y_10, Yc_11, Ys_11) are proportional to (z, -x, -y),
    # so R^1 must be the 3x3 rotation matrix conjugated by that relabeling.
    p = np.zeros((3, 3))
    p[0, 2] = p[1, 0] = p[2, 1] = 1.0
    t = np.diag([1.0, -1.0, -1.0])
    rng = np.random.default_rng(4)
    for g in random_params("so3", rng, 10):
        r1 = rep_matrices(so3_irrep(1), g)
        np.testing.assert_allclose(r1, t @ p @ matrices("so3", g) @ p.T @ t,
                                   atol=1e-13)


# ---------------------------------------------------------------------------
# representation properties

def test_rep_identity_is_identity():
    for lab in sample_labels() + [dirac_irrep(), dirac_irrep(realified=True),
                                  spinor_vector_irrep(realified=True)]:
        np.testing.assert_allclose(rep_matrices(lab,
                                                groups.IDENTITY[lab.group]),
                                   np.eye(lab.dim), atol=1e-13)


@pytest.mark.parametrize("lab", sample_labels(), ids=str)
def test_rep_homomorphism(lab):
    rng = np.random.default_rng(17)
    for _ in range(50):
        a, b = random_params(lab.group, rng, 2)
        lhs = rep_matrices(lab, product(lab.group, a, b))
        rhs = rep_matrices(lab, a) @ rep_matrices(lab, b)
        assert (np.linalg.norm(lhs - rhs)
                <= 1e-11 * max(1.0, np.linalg.norm(rhs)))


@pytest.mark.parametrize("spinor", [dirac_irrep(), dirac_irrep(True),
                                    spinor_vector_irrep(True)], ids=str)
def test_spinor_rep_homomorphism_up_to_cover_sign(spinor):
    # The spinor reps live on the double cover: the parameter section can
    # flip the global sign, which conjugation-type formulas never see.
    rng = np.random.default_rng(19)
    for _ in range(50):
        a, b = random_params("lorentz", rng, 2)
        lhs = rep_matrices(spinor, product("lorentz", a, b))
        rhs = rep_matrices(spinor, a) @ rep_matrices(spinor, b)
        defect = min(np.linalg.norm(lhs - rhs), np.linalg.norm(lhs + rhs))
        assert defect <= 1e-11 * max(1.0, np.linalg.norm(rhs))


def test_compact_reps_unitary():
    rng = np.random.default_rng(23)
    for lab in sample_labels():
        if lab.group == "lorentz":
            continue
        for r in rep_matrices(lab, random_params(lab.group, rng, 5)):
            np.testing.assert_allclose(r @ r.conj().T, np.eye(lab.dim),
                                       atol=1e-12)


def test_rep_inverse_matches_inverse_element():
    rng = np.random.default_rng(29)
    for lab in sample_labels():
        for p in random_params(lab.group, rng, 5):
            lhs = rep_pair(lab, lab, p)[1]
            rhs = rep_matrices(lab, inverse(lab.group, p))
            assert (np.linalg.norm(lhs - rhs)
                    <= 1e-11 * max(1.0, np.linalg.norm(rhs)))


def _pair_cases():
    cases = []
    for field in ("real", "complex"):
        for a, b in ((0, 32), (32, 0), (5, 17), (17, 5)):
            cases.append((so3_irrep(a, field), so3_irrep(b, field)))
            cases.append((o3_irrep(a, 1, field), o3_irrep(b, -1, field)))
        cases += [(so2_irrep(2, field), so2_irrep(0, field)),
                  (o2_irrep("0~", field), o2_irrep(3, field)),
                  (o2_irrep(1, field), o2_irrep(0, field))]
    cases += [(so2_irrep(-3, "complex"), so2_irrep(4, "complex")),
              (tensor_irrep(1, 0), tensor_irrep(2, 0)),
              (dirac_irrep(True), spinor_vector_irrep(True)),
              (tensor_irrep(1, 1), tensor_irrep(0, 0))]
    return cases


@pytest.mark.parametrize("j,l", _pair_cases(), ids=lambda x: str(x))
def test_pair_keeps_the_bits_of_each_label_alone(j, l):
    # rep_pair evaluates what two labels share once: for SO(3) and O(3)
    # the sine and cosine tables up to the larger l, of which the smaller
    # label takes a prefix (the middle, for the complex phases).  That must
    # give each label's bits alone, wherever an angle falls in the SIMD
    # lanes of the longer table.  203 random elements (O(3) parities mixed)
    # and the poles.
    rng = np.random.default_rng(41)
    params = random_params(j.group, rng, 203)
    if j.group in ("so3", "o3"):
        params[:4, 1] = [0.0, math.pi, 1e-9, math.pi - 1e-9]
    if j.group in ("o2", "o3"):
        assert set(params[:, -1]) == {1.0, -1.0}
    rho, rho_inv = rep_pair(j, l, params)
    for got, want in ((rho, rep_matrices(j, params)),
                      (rho_inv, rep_pair(l, l, params)[1])):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    # And each element alone gets its row of the stacks.
    for i in (0, 1, 202):
        for a, b in zip(rep_pair(j, l, params[i]), (rho, rho_inv)):
            assert a.tobytes() == b[i].tobytes(), i


@pytest.mark.parametrize("field", ["real", "complex"])
def test_in_place_composition_keeps_every_bit(field):
    # The SO(3) stacks are composed in place.  Their bytes, signed zeros
    # included, are those of the out-of-place expressions, for SO(3) and
    # O(3) labels of every l, at the angles where zeros arise: beta = 0 and
    # pi, alpha = gamma = 0, and the sphere sections' gamma = 0.
    rng = np.random.default_rng(47)
    grid = [(a, b, c) for a in (0.0, 2.1) for b in (0.0, math.pi, 0.7)
            for c in (0.0, 4.4)]
    sections = groups.section_params(
        Sphere(), np.concatenate([groups.random_orbit_coords(Sphere(), rng, 6),
                                  [[0.0, 0.0], [0.0, math.pi]]]), "so3")
    params = np.concatenate([grid, sections])
    parity = np.where(np.arange(len(params)) % 2, -1.0, 1.0)[:, None]
    signed_zero = False
    for l in range(irreps.MAX_L + 1):
        want = so3_stack_reference(l, params, field)
        flip = parity[:, 0] < 0
        for label, p, sign in (
                (so3_irrep(l, field), params, 1.0),
                (o3_irrep(l, 1, field), np.hstack([params, parity]),
                 (-1.0) ** l),
                (o3_irrep(l, -1, field), np.hstack([params, parity]),
                 -(-1.0) ** l)):
            ref = want.copy()
            if label.group == "o3":
                ref[flip] *= sign
            rho, rho_inv = rep_pair(label, label, p)
            assert rho.dtype == ref.dtype and rho.tobytes() == ref.tobytes()
            assert rho_inv.tobytes() == ref.conj().swapaxes(1, 2).tobytes()
        signed_zero |= bool(np.any(np.signbit(want.view(float))
                                   & (want.view(float) == 0.0)))
    assert signed_zero


def test_pair_of_labels_from_different_groups_raises():
    with pytest.raises(IrrepError, match="different groups"):
        rep_pair(so3_irrep(1), o3_irrep(1, 1), [[0.1, 0.2, 0.3, 1.0]])


def test_so2_real_rep_is_rotation_by_j_phi():
    g = (0.37,)
    np.testing.assert_allclose(rep_matrices(so2_irrep(1), g),
                               groups.rot2(0.37), atol=1e-15)
    np.testing.assert_allclose(rep_matrices(so2_irrep(3), g),
                               groups.rot2(3 * 0.37), atol=1e-14)


def test_o2_reflection_representations():
    ry = (0.0, -1.0)
    assert rep_matrices(o2_irrep(0), ry)[0, 0] == 1.0
    assert rep_matrices(o2_irrep("0~"), ry)[0, 0] == -1.0
    np.testing.assert_allclose(rep_matrices(o2_irrep(2), ry),
                               np.diag([1.0, -1.0]), atol=1e-15)
    np.testing.assert_allclose(rep_matrices(o2_irrep(2, "complex"), ry),
                               [[0, 1], [1, 0]], atol=1e-15)


def test_o3_reflection_weight_pattern():
    # rho_{l,eps}(r_y) has entries eps * (-1)^m on the m -> -m antidiagonal.
    ry = (0.0, math.pi, 0.0, -1.0)
    np.testing.assert_allclose(matrices("o3", ry), np.diag([1.0, -1.0, 1.0]),
                               atol=1e-15)
    for l, eps in ((1, 1), (2, -1), (3, 1)):
        r = rep_matrices(o3_irrep(l, eps, "complex"), ry)
        expect = np.zeros((2 * l + 1, 2 * l + 1))
        for i, m in enumerate(range(l, -l - 1, -1)):
            expect[i, l + m] = eps * (-1.0) ** m
        np.testing.assert_allclose(r, expect, atol=1e-13)


def test_tensor_rep_boost_on_rest_vector():
    g = (0.0, 0.0, 0.0, 0.0, 0.0, 0.9)
    out = rep_matrices(tensor_irrep(1, 0), g) @ np.array([1.0, 0, 0, 0])
    np.testing.assert_allclose(out, [math.cosh(0.9), 0, 0, math.sinh(0.9)],
                               atol=1e-14)


def test_tensor_rep_kron_structure():
    rng = np.random.default_rng(31)
    (g,) = random_params("lorentz", rng, 1)
    lam = matrices("lorentz", g)
    np.testing.assert_allclose(rep_matrices(tensor_irrep(2, 0), g),
                               np.kron(lam, lam), atol=1e-13)
    dual = groups.ETA @ lam @ groups.ETA
    np.testing.assert_allclose(rep_matrices(tensor_irrep(1, 1), g),
                               np.kron(lam, dual), atol=1e-13)


# ---------------------------------------------------------------------------
# gamma matrices, Dirac rep, charge conjugation

def test_clifford_algebra():
    eta = groups.ETA
    for mu in range(4):
        for nu in range(4):
            anti = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
            np.testing.assert_allclose(anti, 2 * eta[mu, nu] * np.eye(4),
                                       atol=1e-15)


def test_gamma_hermiticity_conventions():
    np.testing.assert_allclose(GAMMA[0], GAMMA[0].conj().T)
    assert np.abs(GAMMA[0].imag).max() == 0.0
    for i in (1, 2, 3):
        np.testing.assert_allclose(GAMMA[i], -GAMMA[i].conj().T)


def test_charge_conjugation_matrix():
    c = CHARGE_CONJUGATION
    cinv = np.linalg.inv(c)
    for mu in range(4):
        np.testing.assert_allclose(cinv @ GAMMA[mu] @ c, -GAMMA[mu].T,
                                   atol=1e-14)


def test_dirac_defining_property():
    # S(Lambda)^-1 gamma^mu S(Lambda) = Lambda^mu_nu gamma^nu anchors all the
    # spinor conventions.
    rng = np.random.default_rng(37)
    for g in random_params("lorentz", rng, 20):
        s = rep_matrices(dirac_irrep(), g)
        sinv = rep_pair(dirac_irrep(), dirac_irrep(), g)[1]
        lam = matrices("lorentz", g)
        for mu in range(4):
            lhs = sinv @ GAMMA[mu] @ s
            rhs = np.einsum("n,nab->ab", lam[mu], GAMMA)
            assert np.abs(lhs - rhs).max() <= 1e-10


def test_charge_conjugation_commutes_with_boosts():
    # C(psi) = C gamma^0 conj(psi); S C S^-1 = C as antilinear maps, i.e.
    # N conj(S) = S N with N = C gamma^0.
    n = (CHARGE_CONJUGATION @ GAMMA[0]).real
    rng = np.random.default_rng(41)
    for s in rep_matrices(dirac_irrep(), random_params("lorentz", rng, 10)):
        assert np.abs(n @ s.conj() - s @ n).max() <= 1e-12


def test_realified_rep_consistency():
    rng = np.random.default_rng(43)
    lab = dirac_irrep()
    for _ in range(5):
        g, h = random_params("lorentz", rng, 2)
        s = rep_matrices(lab, g)
        np.testing.assert_allclose(rep_matrices(lab.realify(), g), realify(s),
                                   atol=1e-14)
        # realify is an algebra homomorphism
        t = rep_matrices(lab, h)
        np.testing.assert_allclose(realify(s) @ realify(t), realify(s @ t),
                                   atol=1e-12)


def test_realify_antilinear_composition():
    rng = np.random.default_rng(47)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    n = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    vr = np.concatenate([v.real, v.imag])
    # antilinear then linear: w = m @ conj(n @ conj(v)) hmm -> compose as maps
    anti = realify_antilinear(n)
    w = n @ v.conj()
    np.testing.assert_allclose(anti @ vr,
                               np.concatenate([w.real, w.imag]), atol=1e-13)
    both = realify(m) @ anti
    w2 = m @ (n @ v.conj())
    np.testing.assert_allclose(both @ vr,
                               np.concatenate([w2.real, w2.imag]), atol=1e-12)


# ---------------------------------------------------------------------------
# SL(2,C) covering map

def test_sigma_map_preserves_minkowski_norm():
    # The 2x2 Hermitian realization X = x^mu sigma_mu satisfies
    # det(X) = x . x, which is what makes the SL(2,C) action a Lorentz map.
    rng = np.random.default_rng(51)
    for _ in range(10):
        x = rng.normal(size=4)
        xmat = sum(x[mu] * irreps._SIGMA[mu] for mu in range(4))
        np.testing.assert_allclose(xmat, xmat.conj().T, atol=1e-14)
        assert abs(np.linalg.det(xmat).real
                   - groups.minkowski(x, x)) < 1e-12


def _sigma_trace(a: np.ndarray) -> np.ndarray:
    """Lorentz matrix covered by the SL(2,C) matrix ``a``:
    ``Lambda^mu_nu = Tr(sigma_mu a sigma_nu a^dagger) / 2``."""
    return 0.5 * np.einsum("mij,jk,nkl,li->mn", irreps._SIGMA, a,
                           irreps._SIGMA, a.conj().T).real


def test_sl2c_to_lorentz_examples():
    np.testing.assert_allclose(_sigma_trace(np.eye(2)), np.eye(4), atol=1e-14)
    eta = 1.3
    g2 = np.diag([math.exp(eta / 2), math.exp(-eta / 2)]).astype(complex)
    np.testing.assert_allclose(_sigma_trace(g2), boost_matrix([0, 0, eta]),
                               atol=1e-12)
    theta = 0.9
    g2 = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    expect = np.eye(4)
    expect[1:, 1:] = matrices("so3", (theta, 0.0, 0.0))
    np.testing.assert_allclose(_sigma_trace(g2), expect, atol=1e-12)


def test_sl2c_sign_invariance_and_validation():
    # sl2_of covers the element with a unit-determinant matrix, a and -a
    # cover the same one, and non-Lorentz parameters are rejected.
    rng = np.random.default_rng(53)
    (g,) = random_params("lorentz", rng, 1)
    a = sl2_of(g)
    assert abs(np.linalg.det(a) - 1.0) < 1e-12
    np.testing.assert_allclose(_sigma_trace(a), _sigma_trace(-a), atol=1e-12)
    np.testing.assert_allclose(_sigma_trace(a),
                               groups.matrices("lorentz", g), atol=1e-11)
    with pytest.raises(GroupError):
        sl2_of((0.3, 0.2, 0.1))


# ---------------------------------------------------------------------------
# restriction to stabilizers

def test_tensor_slots_partition_and_are_stabilizer_invariant():
    # The slot embeddings behind stabilizer_content: together they form an
    # orthonormal basis of the tensor space, and the massive stabilizer
    # (rotations) maps every slot into itself.
    rng = np.random.default_rng(59)
    hs = [stabilizer_draw(MassiveHyperboloid(), "lorentz", rng)
          for _ in range(6)]
    for sig, slots in TENSOR_SLOTS.items():
        lab = tensor_irrep(*sig)
        embeds = [SLOTS[slot] for slot in slots]
        q = np.column_stack([cols for _, cols in embeds])
        assert q.shape == (lab.dim, lab.dim)
        np.testing.assert_allclose(q.T @ q, np.eye(lab.dim), atol=1e-14)
        for spin, cols in embeds:
            assert cols.shape[1] == 2 * spin + 1
        for h in hs:
            r = rep_matrices(lab, h)
            for _, cols in embeds:
                moved = r @ cols
                assert np.abs(moved - cols @ (cols.T @ moved)).max() <= 1e-12


def test_spin_and_weight_content_tables():
    mh, cone = MassiveHyperboloid(), NullCone()
    assert stabilizer_content(tensor_irrep(2, 0), mh) == {
        Fraction(0): 2, Fraction(1): 3, Fraction(2): 1}
    # A realified label counts as V + conj(V).
    assert stabilizer_content(spinor_vector_irrep(True), mh) == {
        Fraction(1, 2): 8, Fraction(3, 2): 4}
    w = stabilizer_content(tensor_irrep(1, 0), cone)
    assert w == {Fraction(0): 2, Fraction(1): 1, Fraction(-1): 1}
    w2 = stabilizer_content(tensor_irrep(2, 0), cone)
    assert sum(w2.values()) == 16 and w2[Fraction(2)] == 1
    assert stabilizer_content(spinor_vector_irrep(), cone) == {
        Fraction(1, 2): 6, Fraction(-1, 2): 6,
        Fraction(3, 2): 2, Fraction(-3, 2): 2}
    assert stabilizer_content(o2_irrep("0~"), Circle()) == {-1: 1}
    assert stabilizer_content(o3_irrep(2, -1), Sphere()) == {
        (0, -1): 1, 1: 1, 2: 1}
    with pytest.raises(IrrepError):
        stabilizer_content(so3_irrep(1), Circle())


def _stabilizer_irrep_dim(label, orbit, sigma) -> int:
    # The stabilizers: trivial (SO(2) on the circle), {e, r_y} (O(2)),
    # SO(2) (SO(3) on the sphere; the null cone), O(2) (O(3) on the sphere)
    # and SU(2) (the hyperboloid).
    if label.group == "o3":
        return 1 if isinstance(sigma, tuple) else 2
    if isinstance(orbit, MassiveHyperboloid):
        return int(2 * sigma) + 1
    return 1


def test_stabilizer_content_accounts_for_the_whole_label():
    labels = []
    for f in ("real", "complex"):
        low = -32 if f == "complex" else 0
        labels += [(so2_irrep(n, f), Circle()) for n in range(low, 33)]
        labels += [(o2_irrep(j, f), Circle()) for j in [*range(33), "0~"]]
        labels += [(so3_irrep(l, f), Sphere()) for l in range(33)]
        labels += [(o3_irrep(l, p, f), Sphere())
                   for l in range(33) for p in (1, -1)]
    lorentz = [tensor_irrep(p, q) for p in range(3) for q in range(3 - p)]
    lorentz += [dirac_irrep(), dirac_irrep(True), spinor_vector_irrep(),
                spinor_vector_irrep(True)]
    labels += [(lab, orbit) for lab in lorentz
               for orbit in (MassiveHyperboloid(), NullCone())]
    for label, orbit in labels:
        content = stabilizer_content(label, orbit)
        assert min(content.values()) > 0
        assert sum(n * _stabilizer_irrep_dim(label, orbit, sigma)
                   for sigma, n in content.items()) == label.dim, label


def test_tensor_signatures_outside_the_slot_table_raise_irrep_error():
    # Labels built directly, past tensor_irrep's check: the spin content and
    # the massive basis name the tabulated range instead of a bare KeyError.
    from steerkit.analytic_bases import lorentz_massive_basis
    from steerkit.stabilizer_solver import predicted_dimension
    vec = tensor_irrep(1, 0)
    for sig in [(3, 0), (-1, 0), (1, 2)]:
        lab = irreps.IrrepLabel(groups.LORENTZ, "real", tensor=sig)
        calls = [lambda: stabilizer_content(lab, MassiveHyperboloid()),
                 lambda: stabilizer_content(lab, NullCone()),
                 lambda: predicted_dimension(lab, vec, NullCone()),
                 lambda: predicted_dimension(vec, lab, MassiveHyperboloid()),
                 lambda: lorentz_massive_basis(lab, vec),
                 lambda: lorentz_massive_basis(vec, lab)]
        for call in calls:
            with pytest.raises(IrrepError,
                               match=r"p, q >= 0 with p \+ q <= 2, got "
                                     + re.escape(str(sig))):
                call()


# ---------------------------------------------------------------------------
# labels

def test_label_dimensions():
    assert so2_irrep(0).dim == 1 and so2_irrep(4).dim == 2
    assert so2_irrep(-4, "complex").dim == 1
    assert o2_irrep("0~").dim == 1 and o2_irrep(3).dim == 2
    assert so3_irrep(4).dim == 9
    assert o3_irrep(2, -1).dim == 5
    assert tensor_irrep(2, 0).dim == 16 and tensor_irrep(0, 0).dim == 1
    assert dirac_irrep().dim == 4 and dirac_irrep(True).dim == 8
    assert spinor_vector_irrep().dim == 16
    assert spinor_vector_irrep(True).dim == 32


def test_labels_beyond_2_53_are_rejected():
    # Beyond 2**53 an integer does not convert to float exactly, so
    # n * phi would evaluate another SO(2)/O(2) irrep; 2**53 still does.
    big = 2 ** 53
    assert so2_irrep(big).j == big and o2_irrep(big, "complex").j == big
    assert so2_irrep(-big, "complex").j == -big
    assert np.isfinite(rep_matrices(so2_irrep(big), [0.3])).all()
    for make, args in [(so2_irrep, (big + 1,)),
                       (so2_irrep, (-big - 1, "complex")),
                       (so2_irrep, (np.uint64(2 ** 63),)),
                       (o2_irrep, (big + 1,)), (o2_irrep, (10 ** 400,)),
                       (o2_irrep, (10 ** 400, "complex"))]:
        with pytest.raises(IrrepError, match=r"at most 2\*\*53"):
            make(*args)


def test_label_validation():
    with pytest.raises(IrrepError):
        so2_irrep(-1)  # real labels are non-negative
    with pytest.raises(IrrepError):
        o2_irrep(-2)
    with pytest.raises(IrrepError):
        so3_irrep(-1)
    with pytest.raises(IrrepError):
        o3_irrep(2, 0)
    # l above the table bound is rejected when the label is made
    for make, args in [(so3_irrep, (33,)), (so3_irrep, (40, "complex")),
                       (o3_irrep, (33, 1))]:
        with pytest.raises(IrrepError, match=r"0\.\.32"):
            make(*args)
    assert so3_irrep(32).dim == 65 and o3_irrep(32, -1).dim == 65
    with pytest.raises(IrrepError):
        tensor_irrep(2, 1)
    with pytest.raises(GroupError):
        rep_matrices(so2_irrep(1), (0.0, 0.0, 0.0))
    with pytest.raises(IrrepError):
        tensor_irrep(1, 0).realify()
    # non-integral labels are rejected, not truncated
    for make, args in [(so3_irrep, (1.5,)), (so2_irrep, (2.7,)),
                       (o3_irrep, (1.5, 1)), (o2_irrep, (2.9,)),
                       (tensor_irrep, (1.5, 0)), (tensor_irrep, (0, 1.0)),
                       (so3_irrep, ("2",))]:
        with pytest.raises(IrrepError, match="must be an integer"):
            make(*args)
    # so is a field other than real or complex
    for make, args in [(so3_irrep, (2,)), (so2_irrep, (1,)),
                       (o2_irrep, (1,)), (o2_irrep, ("0~",)),
                       (o3_irrep, (1, -1))]:
        with pytest.raises(IrrepError, match="'cplx'"):
            make(*args, "cplx")
    # Python and numpy integers stay accepted
    assert so3_irrep(np.int64(2)) == so3_irrep(2)
    assert o3_irrep(np.int32(1), -1) == o3_irrep(1, -1)
    assert tensor_irrep(np.int64(1), 0) == tensor_irrep(1, 0)
