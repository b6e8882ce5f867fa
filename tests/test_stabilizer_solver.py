import numpy as np
import pytest

from steerkit import groups, numerics
from steerkit.groups import Circle, MassiveHyperboloid, NullCone, Sphere
from steerkit.irreps import (IrrepError, dirac_irrep, o2_irrep, o3_irrep,
                             rep_inverse, rep_matrix, so2_irrep, so3_irrep,
                             spinor_vector_irrep, tensor_irrep)
from steerkit.stabilizer_solver import (DegenerateSpectrumError,
                                        predicted_dimension, require_rank_gap,
                                        solve_basepoint)
from steerkit.steering import steer


def _check(j, l, orbit, expected=None):
    space = solve_basepoint(j, l, orbit)
    assert space.dimension == predicted_dimension(j, l, orbit)
    if expected is not None:
        assert space.dimension == expected
    return space


def test_so2_real_case_counts():
    # trivial stabilizer: the full matrix space survives
    _check(so2_irrep(0), so2_irrep(0), Circle(), 1)
    _check(so2_irrep(0), so2_irrep(3), Circle(), 2)
    _check(so2_irrep(2), so2_irrep(0), Circle(), 2)
    _check(so2_irrep(2), so2_irrep(3), Circle(), 4)


def test_so2_complex_always_one():
    for j in (-2, 0, 3):
        for l in (-1, 2):
            _check(so2_irrep(j, "complex"), so2_irrep(l, "complex"),
                   Circle(), 1)


def test_o2_case_table():
    # the six O(2) cases, both fields
    for field in ("real", "complex"):
        _check(o2_irrep(0, field), o2_irrep(0, field), Circle(), 1)
        _check(o2_irrep("0~", field), o2_irrep("0~", field), Circle(), 1)
        _check(o2_irrep(0, field), o2_irrep("0~", field), Circle(), 0)
        _check(o2_irrep(0, field), o2_irrep(2, field), Circle(), 1)
        _check(o2_irrep("0~", field), o2_irrep(2, field), Circle(), 1)
        _check(o2_irrep(3, field), o2_irrep("0~", field), Circle(), 1)
        _check(o2_irrep(2, field), o2_irrep(3, field), Circle(), 2)


def test_so3_counts_both_fields():
    for field in ("real", "complex"):
        for j in range(4):
            for l in range(4):
                _check(so3_irrep(j, field), so3_irrep(l, field), Sphere(),
                       2 * min(j, l) + 1)


def test_o3_counts_with_parities():
    for field in ("real", "complex"):
        for pj in (1, -1):
            for pl in (1, -1):
                want = min(2, 3) + (1 if pj == pl else 0)
                _check(o3_irrep(2, pj, field), o3_irrep(3, pl, field),
                       Sphere(), want)
    # scalar pair with opposite signs has no solutions at all
    _check(o3_irrep(0, 1), o3_irrep(0, -1), Sphere(), 0)


def test_lorentz_massive_tensor_counts():
    vec = tensor_irrep(1, 0)
    t20 = tensor_irrep(2, 0)
    mh = MassiveHyperboloid()
    _check(vec, vec, mh, 2)          # spin 0 + spin 1
    _check(vec, t20, mh, 5)          # 2 spin-0 slots + 3 spin-1 slots
    _check(t20, t20, mh, 14)         # 2^2 + 3^2 + 1
    _check(tensor_irrep(0, 0), vec, mh, 1)
    _check(tensor_irrep(1, 1), t20, mh, 14)


def test_lorentz_dirac_quaternionic_count():
    # two spin-1/2 blocks, quaternionic commutant over the reals:
    # 2 x 2 block pairs x 4 quaternion units
    mh = MassiveHyperboloid()
    d = dirac_irrep(realified=True)
    _check(d, d, mh, 16)


def test_lorentz_dirac_complex_field_count():
    # over the complex scalars the commutant per matched spin-1/2 block pair
    # is just C: 2 x 2 pairs
    d = dirac_irrep()
    _check(d, d, MassiveHyperboloid(), 4)


def test_lorentz_spinor_vector_count_and_containment():
    # spin content 4 x (1/2) + 2 x (3/2): 4*4*4 + 2*2*4 = 80; the eight
    # analytic spin-3/2 elements must lie inside that space
    from steerkit.analytic_bases import lorentz_massive_basis
    sv = spinor_vector_irrep(realified=True)
    space = _check(sv, sv, MassiveHyperboloid(), 80)
    vecs = np.column_stack([numerics.vec(e.base_matrix)
                            for e in lorentz_massive_basis(sv, sv)])
    assert numerics.projection_residual(vecs, space.basis) <= 1e-10


def test_lorentz_tensor_spinor_cross_is_empty():
    # integer vs half-integer spins never match
    _check(dirac_irrep(realified=True), tensor_irrep(1, 0),
           MassiveHyperboloid(), 0)


def test_lorentz_massless_weight_counts():
    vec, t20 = tensor_irrep(1, 0), tensor_irrep(2, 0)
    _check(vec, vec, NullCone(), 6)       # 2*2 + 2 * 1*1
    _check(vec, t20, NullCone(), 20)      # 2*6 + 2 * 1*4
    _check(t20, t20, NullCone(), 70)      # 6*6 + 2 * (4*4 + 1*1)
    # the (0,0), spinor and realified branches of massless_weight_content
    d, d_real, sv = dirac_irrep(), dirac_irrep(True), spinor_vector_irrep()
    _check(tensor_irrep(0, 0), vec, NullCone(), 2)   # 1*2 at weight 0
    _check(d, d, NullCone(), 8)           # 2*2 at +-1/2
    _check(d_real, d_real, NullCone(), 32)  # 4*4 at +-1/2
    _check(d, sv, NullCone(), 24)         # 2*6 at +-1/2


def test_solutions_satisfy_constraint_for_all_samples():
    cases = [
        (so2_irrep(2), so2_irrep(3), Circle()),
        (o2_irrep(2), o2_irrep(3), Circle()),
        (so3_irrep(2, "complex"), so3_irrep(3, "complex"), Sphere()),
        (o3_irrep(2, 1), o3_irrep(2, -1), Sphere()),
        (tensor_irrep(1, 0), tensor_irrep(2, 0), MassiveHyperboloid()),
        (tensor_irrep(1, 0), tensor_irrep(1, 0), NullCone()),
    ]
    for j, l, orbit in cases:
        space = solve_basepoint(j, l, orbit)
        sample = groups.stabilizer_sample(orbit, j.group)
        for h in sample.elements:
            rj, rli = rep_matrix(j, h), rep_inverse(l, h)
            for k in space.matrices():
                assert np.linalg.norm(rj @ k @ rli - k) <= 1e-10


def test_solutions_commute_with_fresh_stabilizer_elements():
    # 20 random stabilizer elements per case, not the sampled generators
    cases = [
        (o2_irrep(2), o2_irrep(3), Circle()),
        (so3_irrep(2), so3_irrep(3), Sphere()),
        (o3_irrep(2, 1, "complex"), o3_irrep(3, -1, "complex"), Sphere()),
        (tensor_irrep(2, 0), tensor_irrep(2, 0), MassiveHyperboloid()),
        (dirac_irrep(realified=True), dirac_irrep(realified=True),
         MassiveHyperboloid()),
        (tensor_irrep(2, 0), tensor_irrep(2, 0), NullCone()),
    ]
    rng = np.random.default_rng(1)
    for j, l, orbit in cases:
        space = solve_basepoint(j, l, orbit)
        kernels = np.stack(space.matrices())
        scales = [max(1.0, np.linalg.norm(k)) for k in kernels]
        for _ in range(20):
            h = groups.random_stabilizer_element(orbit, j.group, rng)
            moved = steer(kernels, j, l, h)
            for k, k_h, scale in zip(kernels, moved, scales):
                assert np.linalg.norm(k_h - k) / scale <= 1e-10


def test_basis_is_orthonormal_and_deterministic():
    j, l = so3_irrep(2), so3_irrep(2)
    s1 = solve_basepoint(j, l, Sphere())
    s2 = solve_basepoint(j, l, Sphere())
    np.testing.assert_array_equal(s1.basis, s2.basis)
    np.testing.assert_allclose(s1.basis.T @ s1.basis,
                               np.eye(s1.dimension), atol=1e-12)


def test_so2_complex_real_reconciliation():
    # One complex line per (j, l); the real solver sees the conjugation-fixed
    # combinations: dim 4 for j, l >= 1 (the +-j pairing), dim 2 with one
    # trivial label, dim 1 for (0, 0).
    circle = Circle()
    for j, l in [(1, 1), (2, 3)]:
        real_dim = solve_basepoint(so2_irrep(j), so2_irrep(l), circle).dimension
        c1 = solve_basepoint(so2_irrep(j, "complex"),
                             so2_irrep(l, "complex"), circle).dimension
        c2 = solve_basepoint(so2_irrep(j, "complex"),
                             so2_irrep(-l, "complex"), circle).dimension
        assert real_dim == 2 * c1 + 2 * c2 == 4
    real_dim = solve_basepoint(so2_irrep(0), so2_irrep(2), circle).dimension
    c = solve_basepoint(so2_irrep(0, "complex"),
                        so2_irrep(2, "complex"), circle).dimension
    assert real_dim == 2 * c == 2


def test_so3_complex_real_reconciliation():
    # The conjugation constraint halves the complex parameter count, so the
    # real dimension equals the complex dimension.
    for j, l in [(1, 1), (2, 3), (0, 2)]:
        dr = solve_basepoint(so3_irrep(j), so3_irrep(l), Sphere()).dimension
        dc = solve_basepoint(so3_irrep(j, "complex"),
                             so3_irrep(l, "complex"), Sphere()).dimension
        assert dr == dc == 2 * min(j, l) + 1


def test_rank_gap_guard():
    # a clean split passes, a 10^5 ratio raises rather than guessing
    require_rank_gap(np.array([2.0, 1.0]), np.array([1e-12]))
    require_rank_gap(np.array([2.0, 1.0]), np.array([0.0]))
    require_rank_gap(np.zeros(0), np.array([1e-12]))
    with pytest.raises(DegenerateSpectrumError):
        require_rank_gap(np.array([1.0, 1e-4]), np.array([1e-9]))


def test_mismatched_labels_rejected():
    with pytest.raises(IrrepError):
        solve_basepoint(so2_irrep(1), so3_irrep(1), Circle())
    with pytest.raises(IrrepError):
        solve_basepoint(so2_irrep(1), so2_irrep(1, "complex"), Circle())
    with pytest.raises(IrrepError):
        solve_basepoint(so3_irrep(1), so3_irrep(1), Circle())
    with pytest.raises(IrrepError):
        predicted_dimension(so2_irrep(1), so2_irrep(1), Sphere())
