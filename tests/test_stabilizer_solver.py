import ast
import inspect
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steerkit import cli, groups, numerics, stabilizer_solver
from steerkit.groups import (LORENTZ, Circle, MassiveHyperboloid, NullCone,
                             Sphere)
from steerkit.irreps import (IrrepError, IrrepLabel, dirac_irrep, o2_irrep,
                             o3_irrep, rep_matrices, rep_pair, so2_irrep,
                             so3_irrep, spinor_vector_irrep, tensor_irrep)
from steerkit.stabilizer_solver import (GAP_RATIO, DegenerateSpectrumError,
                                        oracle_dimension, predicted_dimension,
                                        require_rank_gap, solve_basepoint,
                                        weight_bases)
from steerkit.steering import steer
from steerkit.verify import SPAN_TOL, compact_case_grid, lorentz_case_grid

from dense_oracle import constraint_stack, dense_basis, reference_sample
from exact_reference import circle_projector, projector_error
from group_law import stabilizer_draw


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
    # the scalar, spinor and realified labels: the J_z weights of their spins
    d, d_real, sv = dirac_irrep(), dirac_irrep(True), spinor_vector_irrep()
    _check(tensor_irrep(0, 0), vec, NullCone(), 2)   # 1*2 at weight 0
    _check(d, d, NullCone(), 8)           # 2*2 at +-1/2
    _check(d_real, d_real, NullCone(), 32)  # 4*4 at +-1/2
    _check(d, sv, NullCone(), 24)         # 2*6 at +-1/2


def test_lorentz_predicted_dimension_matches_oracle_on_both_orbits():
    # All pairs of the tensor labels and the realified Dirac label, plus
    # the complex Dirac label with itself and with the spinor-vector.
    real = [tensor_irrep(p, q) for p in range(3) for q in range(3 - p)]
    real.append(dirac_irrep(realified=True))
    d, sv = dirac_irrep(), spinor_vector_irrep()
    pairs = [(j, l) for j in real for l in real] + [(d, d), (d, sv), (sv, d)]
    for orbit in (MassiveHyperboloid(), NullCone()):
        for j, l in pairs:
            _check(j, l, orbit)


def test_solutions_satisfy_constraint_for_all_samples():
    mh = MassiveHyperboloid()
    dirac, sv = dirac_irrep(realified=True), spinor_vector_irrep(realified=True)
    cases = [
        (so2_irrep(2), so2_irrep(3), Circle()),
        (so2_irrep(2, "complex"), so2_irrep(-1, "complex"), Circle()),
        (o2_irrep(2), o2_irrep(3), Circle()),
        (o2_irrep("0~", "complex"), o2_irrep(3, "complex"), Circle()),
        (so3_irrep(2, "complex"), so3_irrep(3, "complex"), Sphere()),
        (so3_irrep(2), so3_irrep(1), Sphere()),
        (o3_irrep(2, 1), o3_irrep(2, -1), Sphere()),
        (o3_irrep(1, -1, "complex"), o3_irrep(2, 1, "complex"), Sphere()),
        (tensor_irrep(1, 0), tensor_irrep(2, 0), mh),
        (tensor_irrep(1, 1), tensor_irrep(0, 2), mh),
        (dirac, dirac, mh),
        (sv, sv, mh),
        (tensor_irrep(1, 0), tensor_irrep(1, 0), NullCone()),
    ]
    for j, l, orbit in cases:
        space = solve_basepoint(j, l, orbit)
        sample = reference_sample(orbit, j.group)
        # The dense reference's stack is the per-element vstack bit for bit.
        blocks = []
        for h in sample:
            op = np.kron(rep_matrices(j, h), rep_pair(l, l, h)[1].T)
            blocks.append(op - np.eye(op.shape[0]))
        stack = constraint_stack(j, l, sample)
        assert stack.dtype == blocks[0].dtype
        np.testing.assert_array_equal(stack, np.vstack(blocks))
        for h in sample:
            rj, rli = rep_matrices(j, h), rep_pair(l, l, h)[1]
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
        hs = [stabilizer_draw(orbit, j.group, rng) for _ in range(20)]
        moved = steer(kernels[:, None], j, l, hs)
        for k, k_h, scale in zip(kernels, moved, scales):
            err = np.linalg.norm(k_h - k, axis=(-2, -1)).max()
            assert err / scale <= 1e-10


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
    # a clean split passes and returns its ratio (infinite when nothing
    # nonzero is dropped), a 10^5 ratio raises rather than guessing
    assert require_rank_gap(np.array([2.0, 1.0]), np.array([1e-12])) == 1e12
    assert require_rank_gap(np.array([2.0, 1.0]), np.array([0.0])) == np.inf
    assert require_rank_gap(np.zeros(0), np.array([1e-12])) == np.inf
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


# ---------------------------------------------------------------------------
# the weight-blocked solve against the dense reference, and its edges

def _dims_pairs():
    """Every pair of the `dims` tables: the Lorentz table with the
    spinor-vector pair, SO(3) to 8, O(3) to 4 over both fields, complex
    SO(2) to 8 and O(2) to 8; plus tensor(1,1) / tensor(0,2)."""
    mixed = (tensor_irrep(1, 1), tensor_irrep(0, 2))
    return (lorentz_case_grid(True)
            + compact_case_grid("so3", 8, ("real",))
            + compact_case_grid("o3", 4)
            + compact_case_grid("so2", 8, ("complex",))
            + compact_case_grid("o2", 8, ("real",))
            + [mixed + (MassiveHyperboloid(),), mixed + (NullCone(),)])


def test_span_matches_dense_reference():
    for j, l, orbit in _dims_pairs():
        space = solve_basepoint(j, l, orbit)
        dense = dense_basis(j, l, orbit)
        assert space.dimension == dense.shape[1], (j, l, orbit)
        assert oracle_dimension(j, l, orbit) == dense.shape[1], (j, l, orbit)
        assert space.basis.dtype == dense.dtype, (j, l, orbit)
        angle, _ = numerics.principal_angle_distance(space.basis, dense)
        assert angle <= SPAN_TOL, (j, l, orbit, angle)


def test_gap_ratio_recorded_on_every_dims_pair():
    for j, l, orbit in _dims_pairs():
        assert solve_basepoint(j, l, orbit).gap_ratio >= GAP_RATIO


def _record_nullspace_calls(monkeypatch) -> list:
    shapes = []
    solve = numerics.nullspace_with_spectrum

    def recording(a):
        shapes.append((np.shape(a), np.asarray(a).dtype))
        return solve(a)
    monkeypatch.setattr(numerics, "nullspace_with_spectrum", recording)
    return shapes


def test_spinor_vector_solves_for_equal_weight_blocks_only(monkeypatch):
    # A dense stack that comes back (3 elements x 1024 rows, 1024 unknowns)
    # or a second y rotation fails here: the one solve is real and has the
    # equal-weight unknowns, the real and imaginary parts of X_m for m > 0
    # (2 n_j(m) n_l(m) each, n read from the projector ranks; a real label
    # keeps m >= 0 only), and the rows of the one y rotation only.
    sv = spinor_vector_irrep(realified=True)
    shapes = _record_nullspace_calls(monkeypatch)
    space = solve_basepoint(sv, sv, MassiveHyperboloid())
    ranks = {m: u.shape[1] for m, u in weight_bases(sv)[0].items()}
    unknowns = sum(2 * n * n for n in ranks.values())
    assert ranks == {1: 12, 3: 4}
    assert unknowns == 320 < sv.dim ** 2
    assert shapes == [((sv.dim ** 2, unknowns), np.dtype(np.float64))]
    assert space.dimension == 80


def test_stackless_counts_form_no_embedding(monkeypatch):
    # The real SO(3) table to 8, the complex SO(2) table to 8 and the cone
    # pairs stack no generator: their counts are read from the dimensions
    # of the weight blocks (U = I on the circle), with no embedding or stack
    # assembled.  On every pair of the dims tables the count is the solve's.
    pairs = _dims_pairs()
    stackless = [(j, l, orbit) for j, l, orbit in pairs
                 if j.group in ("so2", "so3") or isinstance(orbit, NullCone)]
    assert len(stackless) == 81 + 81 + 3
    dims = {(j, l, orbit): solve_basepoint(j, l, orbit).dimension
            for j, l, orbit in pairs}

    def no_constraint(*args):
        raise AssertionError("_constraint called by a stackless count")
    with monkeypatch.context() as patch:
        patch.setattr(stabilizer_solver, "_constraint", no_constraint)
        for pair in stackless:
            assert oracle_dimension(*pair) == dims[pair], pair
    for pair in pairs:
        assert oracle_dimension(*pair) == dims[pair], pair


def test_count_and_solve_split_every_dims_stack_alike():
    # The count takes the values-only SVD of the whole stack and the solve
    # the SVD of its R factor with vectors: two routes through LAPACK.  On
    # every stacked pair of the dims tables they cut the spectrum at the
    # same place, and agree to round-off; the count's spectrum is the bits
    # of the values-only SVD of R wherever the solve takes R (m >= 2n).  On
    # the stackless pairs (SO(2), SO(3), the cone) the count is the solve's
    # too.
    stacked = 0
    for j, l, orbit in _dims_pairs():
        params = stabilizer_solver._generators(j, l, orbit)
        if not params:
            assert oracle_dimension(j, l, orbit) == solve_basepoint(
                j, l, orbit).dimension, (j, l, orbit)
            continue
        stacked += 1
        _, stack, _ = stabilizer_solver._constraint(j, l, params)
        k, kept, dropped = numerics.nullity_with_spectrum(stack)
        basis, solve_kept, solve_dropped = numerics.nullspace_with_spectrum(
            stack)
        assert k == basis.shape[1] == len(solve_dropped), (j, l, orbit)
        assert len(kept) == len(solve_kept), (j, l, orbit)
        scale = 16 * np.finfo(float).eps * max(kept[:1].max(initial=0.0), 1.0)
        np.testing.assert_allclose(kept, solve_kept, rtol=0, atol=scale)
        np.testing.assert_allclose(dropped, solve_dropped, rtol=0, atol=scale)
        m, n = stack.shape
        if m >= 2 * n:
            s = np.linalg.svd(np.linalg.qr(stack, mode="r"), compute_uv=False)
            np.testing.assert_array_equal(np.concatenate([kept, dropped]), s)
    assert stacked == 307


def test_spinor_vector_count_copies_nothing(monkeypatch):
    # The spinor-vector stack is assembled in place, one array for the
    # stack, and counted by the values-only SVD of the whole stack: no
    # concatenation and no QR step of its own.
    sv = spinor_vector_irrep(realified=True)
    pair = (sv, sv, MassiveHyperboloid())
    expected = oracle_dimension(*pair)

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called by the spinor-vector count")
        return call
    monkeypatch.setattr(np, "concatenate", forbidden("np.concatenate"))
    monkeypatch.setattr(np.linalg, "qr", forbidden("np.linalg.qr"))
    assert oracle_dimension(*pair) == expected == 80


def test_real_pairs_solve_in_real_arithmetic(monkeypatch):
    # Every real pair of the dims tables: no complex array reaches the
    # nullspace, and once the weight bases are cached no range is taken, so
    # a real-part step after the solve would fail here.
    pairs = [(j, l, orbit) for j, l, orbit in _dims_pairs()
             if j.field != "complex"]
    for j, l, orbit in pairs:
        if not isinstance(orbit, Circle):
            weight_bases(j), weight_bases(l)
    shapes = _record_nullspace_calls(monkeypatch)

    def no_range(a):
        raise AssertionError("range_with_spectrum called by the solve")
    monkeypatch.setattr(numerics, "range_with_spectrum", no_range)
    for j, l, orbit in pairs:
        assert solve_basepoint(j, l, orbit).basis.dtype == np.float64
    assert shapes and all(dtype == np.float64 for _, dtype in shapes)


def test_rank3_tensor_on_the_cone():
    # A (3, 0) tensor, built directly since tensor_irrep stops at rank 2:
    # spin content {0: 5, 1: 9, 2: 5, 3: 1}, so the weight m has
    # n(m) = sum over s >= |m| of those counts, and the cone keeps
    # sum_m n(m)^2 = 20^2 + 2 (15^2 + 6^2 + 1^2) = 924 real solutions.
    t30 = IrrepLabel(LORENTZ, "real", tensor=(3, 0))
    spins = {0: 5, 1: 9, 2: 5, 3: 1}
    assert sum(c * (2 * s + 1) for s, c in spins.items()) == t30.dim
    n = {m: sum(c for s, c in spins.items() if s >= abs(m))
         for m in range(-3, 4)}
    assert sum(c * c for c in n.values()) == 924
    orbit = NullCone()
    space = solve_basepoint(t30, t30, orbit)
    assert space.dimension == 924 and space.basis.dtype == np.float64
    assert space.gap_ratio >= GAP_RATIO
    rng = np.random.default_rng(30)
    elements = (list(reference_sample(orbit, LORENTZ))
                + [stabilizer_draw(orbit, LORENTZ, rng) for _ in range(4)])
    kernels = np.stack(space.matrices())
    for h in elements:
        rho, rho_inv = rep_pair(t30, t30, h)
        moved = rho @ kernels @ rho_inv
        assert np.linalg.norm(moved - kernels, axis=(-2, -1)).max() <= 1e-10


def test_round_off_stack_keeps_its_solution():
    # For o3 0+ / 1+ the r_y rows of the weight-0 block are pure round-off
    # (norm ~1e-16): the rank cut is measured against 1, not against that
    # round-off, so the radial solution survives.  Opposite parities have
    # no solution.
    for field in ("real", "complex"):
        for pj in (1, -1):
            for pl in (1, -1):
                j, l = o3_irrep(0, pj, field), o3_irrep(1, pl, field)
                space = _check(j, l, Sphere(), 1 if pj == pl else 0)
                assert space.gap_ratio >= GAP_RATIO
                for h in reference_sample(Sphere(), "o3"):
                    for k in space.matrices():
                        assert np.linalg.norm(
                            rep_matrices(j, h) @ k
                            @ rep_pair(l, l, h)[1] - k) <= 1e-12


def test_circle_has_no_weight_blocks(monkeypatch):
    # The circle's one block is U = I, and no weight basis is taken.  Its
    # bases span the exact intertwiner spaces: each B B^H is within 2.3e-16
    # of the exact projector, entry by entry, for these pairs and complex
    # O(2) j, l in 1..4 (whose projectors have the entries 0 and 1/2).
    def no_weights(label):
        raise AssertionError(f"weight bases taken for {label} on the circle")
    monkeypatch.setattr(stabilizer_solver, "weight_bases", no_weights)
    pairs = [(so2_irrep(2), so2_irrep(3)),
             (so2_irrep(1, "complex"), so2_irrep(1, "complex")),
             (o2_irrep(2), o2_irrep("0~")),
             (o2_irrep(3, "complex"), o2_irrep(3, "complex"))]
    pairs += [(o2_irrep(a, "complex"), o2_irrep(b, "complex"))
              for a in range(1, 5) for b in range(1, 5)]
    for j, l in pairs:
        space = solve_basepoint(j, l, Circle())
        assert space.basis.dtype == dense_basis(j, l, Circle()).dtype
        error = projector_error(space.basis, circle_projector(j, l))
        assert error <= 2.3e-16, (j, l, error)


def test_generators_lie_outside_the_rotations_about_z():
    # The weight blocks impose the rotations about z (on the circle, where
    # there are none, the identity): no generator the solve stacks is one
    # of them, and SO(2) stacks none.  The choice of generators is made in
    # stabilizer_solver alone, from parameters: it names no group element
    # and no stabilizer sample, and groups defines none.
    labels = {"so2": so2_irrep(1), "o2": o2_irrep(1), "so3": so3_irrep(1),
              "o3": o3_irrep(1, 1), "lorentz": tensor_irrep(1, 0)}
    counts = {}
    for kind, names in groups.ORBIT_GROUPS.items():
        orbit = kind()
        x0 = groups.base_point(orbit).vector
        for group in names:
            params = stabilizer_solver._generators(labels[group],
                                                   labels[group], orbit)
            counts[group, kind.__name__] = len(params)
            for p in params:
                m = groups.matrices(group, p)
                z = np.eye(len(m))[-1]
                about_z = np.linalg.det(m) > 0 and (
                    len(m) == 2 or np.allclose(m @ z, z))
                assert not about_z, (group, type(orbit).__name__, p)
                np.testing.assert_allclose(m @ x0, x0, atol=1e-12)
    assert counts == {("so2", "Circle"): 0, ("o2", "Circle"): 1,
                      ("so3", "Sphere"): 0, ("o3", "Sphere"): 1,
                      ("lorentz", "MassiveHyperboloid"): 1,
                      ("lorentz", "NullCone"): 0}
    names = {n.id if isinstance(n, ast.Name) else n.attr
             for n in ast.walk(ast.parse(inspect.getsource(stabilizer_solver)))
             if isinstance(n, (ast.Name, ast.Attribute))}
    assert not names & {"GroupElement", "stabilizer_sample"}
    body = ast.parse(inspect.getsource(groups)).body
    defined = [n.name for n in body
               if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    defined += [t.id for n in body if isinstance(n, ast.Assign)
                for t in n.targets if isinstance(t, ast.Name)]
    assert not [n for n in defined if "stabilizer" in n.lower()], defined


def test_sphere_and_cone_build_no_stack(monkeypatch):
    # Their stabilizers are generated by the rotations about z (SO(3)), or
    # only those are imposed (the cone): every equal-weight block is free
    # and no nullspace is taken.
    shapes = _record_nullspace_calls(monkeypatch)
    for j, l, orbit, dim in [
            (so3_irrep(2), so3_irrep(3), Sphere(), 5),
            (so3_irrep(4, "complex"), so3_irrep(4, "complex"), Sphere(), 9),
            (tensor_irrep(2, 0), tensor_irrep(2, 0), NullCone(), 70),
            (dirac_irrep(), spinor_vector_irrep(), NullCone(), 24)]:
        assert _check(j, l, orbit, dim).dimension == dim
    assert shapes == []


@pytest.fixture
def cold_caches():
    # The oracle's caches hold the representations of earlier solves: a test
    # that monkeypatches rep_matrices or counts calls starts and ends cold.
    caches = (weight_bases, stabilizer_solver._label_factors,
              stabilizer_solver._stabilizer_generators)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_degenerate_projector_spectrum_raises(monkeypatch, cold_caches):
    # A constant perturbation of rho adds diag(1e-8, 0, 1e-12) to the
    # weight-0 projector of l = 1, diag(0, 1, 0): its spectrum 1, 1e-8,
    # 1e-12 splits at the cut with a ratio of 1e4.
    def fuzzy(label, params):
        return rep_matrices(label, params) + np.diag([1e-8, 0.0, 1e-12])
    monkeypatch.setattr(stabilizer_solver, "rep_matrices", fuzzy)
    one = so3_irrep(1, "complex")
    with pytest.raises(DegenerateSpectrumError, match="projector"):
        solve_basepoint(one, one, Sphere())


def test_degenerate_stack_spectrum_raises(monkeypatch, cold_caches):
    # O(2) j = 1 on the circle: rho(r_y) = diag(1 + 1e-8, -1 + 1e-12) gives
    # the reflection rows diag(1e-8, -2 - 1e-8, -2 + 1e-12, -1e-12), whose
    # spectrum 2, 2, 1e-8, 1e-12 splits at the cut with a ratio of 1e4.
    # The generators' rho is perturbed and their rho^-1 is left exact.
    def fuzzy(j, l, params):
        m, inv = rep_pair(j, l, params)
        m = m.copy()
        reflections = np.asarray(params)[..., 1] < 0
        m[reflections] += np.diag([1e-8, 1e-12])
        return m, inv
    monkeypatch.setattr(stabilizer_solver, "rep_pair", fuzzy)
    one = o2_irrep(1)
    with pytest.raises(DegenerateSpectrumError, match="o2"):
        solve_basepoint(one, one, Circle())


def test_degenerate_generator_images_raise(monkeypatch, cold_caches,
                                          capsys):
    # rho(h) diag(1 + 1e-12, 1 + 1e-8, 1 + 1e-8) for the real O(3) l = 1+
    # label scales its weight-0 image by 1 + 1e-12 and its weight-1 image by
    # 1 + 1e-8 and leaves its weight spaces as they are.  The stack of 1+ /
    # 1+ then moves its weight-0 solution to sigma = 1e-12 and its weight-1
    # solution to 1e-8: a split at the cut with a ratio of 1e4, which the
    # count must reject like the solve.
    target = o3_irrep(1, 1)

    def fuzzy(label, params):
        rho = rep_matrices(label, params)
        return rho @ np.diag([1 + 1e-12, 1 + 1e-8, 1 + 1e-8]) if (
            label == target) else rho

    # The generators' rho is perturbed like the weight rotations' and their
    # rho^-1 is left exact.
    def fuzzy_pair(j, l, params):
        return fuzzy(j, params), rep_pair(j, l, params)[1]
    monkeypatch.setattr(stabilizer_solver, "rep_matrices", fuzzy)
    monkeypatch.setattr(stabilizer_solver, "rep_pair", fuzzy_pair)
    pair = f"for {target} / {target}"
    for solve in (solve_basepoint, oracle_dimension):
        with pytest.raises(DegenerateSpectrumError) as err:
            solve(target, target, Sphere())
        assert pair in str(err.value)
    assert cli.main(["dims", "--group", "o3", "--jmax", "1"]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert pair in json.loads(captured.err)["error"]


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(group=st.sampled_from(("so3", "o3")),
       field=st.sampled_from(("real", "complex")),
       lj=st.integers(0, 32), lk=st.integers(0, 32),
       pj=st.sampled_from((1, -1)), pk=st.sampled_from((1, -1)))
@example(group="o3", field="real", lj=32, lk=32, pj=1, pk=-1)
@example(group="so3", field="complex", lj=32, lk=31, pj=1, pk=1)
def test_count_matches_closed_form_up_to_the_largest_label(group, field, lj,
                                                           lk, pj, pk):
    # Random SO(3) and O(3) pairs with l up to 32, parities included (SO(3)
    # ignores them), in both fields: the oracle's count equals the Schur
    # count.
    if group == "so3":
        j, l = so3_irrep(lj, field), so3_irrep(lk, field)
    else:
        j, l = o3_irrep(lj, pj, field), o3_irrep(lk, pk, field)
    assert oracle_dimension(j, l, Sphere()) == predicted_dimension(
        j, l, Sphere())


def test_tables_evaluate_each_label_once(monkeypatch, cold_caches):
    # From cold caches, the O(3) tables (200 pairs) and the full Lorentz table
    # (8 pairs) evaluate each label once per side and per parameter stack
    # (the weight projectors' rotations, the stacked generators), and build
    # and check the generators once per (orbit, group); a solve that
    # evaluated them per pair would count one call per pair.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            *labels, params = args
            calls[name, *labels, np.asarray(params).tobytes()] += 1
            return fn(*args)
        return wrapper
    for name in ("rep_matrices", "rep_pair"):
        monkeypatch.setattr(stabilizer_solver, name,
                            counted(name, getattr(stabilizer_solver, name)))
    base_point = groups.base_point

    def counted_base_point(orbit):
        calls["generators", orbit] += 1
        return base_point(orbit)
    monkeypatch.setattr(groups, "base_point", counted_base_point)
    cases = (compact_case_grid("o3", 4)
             + lorentz_case_grid(include_spinor_vector=True))
    assert len(cases) == 208
    for j, l, orbit in cases:
        solve_basepoint(j, l, orbit)
    assert max(calls.values()) == 1
    names = Counter(key[0] for key in calls)
    labels = {(j.group, j) for j, _, _ in cases} | {(l.group, l)
                                                    for _, l, _ in cases}
    # o3: 20 labels, each with its weight rotations and one pair
    # evaluation (rho and rho^-1) of its reflection; Lorentz: 4 labels,
    # their weight rotations, plus one pair evaluation of the y rotations of
    # the hyperboloid (the cone stacks none).
    assert len(labels) == 24
    assert names == {"rep_matrices": 20 + 4, "rep_pair": 20 + 4,
                     "generators": 3}


def test_cached_factors_are_read_only(cold_caches):
    one = o3_irrep(1, -1)
    space = solve_basepoint(one, one, Sphere())
    params = stabilizer_solver._generators(one, one, Sphere())
    factors = stabilizer_solver._label_factors(one, params)
    arrays = [a for part in factors[:4] for a in part.values()]
    assert len(arrays) == 4 * 2  # weights 0 and 1 of a real l = 1 label
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    with pytest.raises(TypeError):
        factors[0][0] = np.eye(3)
    # A caller that writes to a returned basis changes no later solve, with
    # or without a stack.
    for j, l, orbit in [(one, one, Sphere()),
                        (so3_irrep(2), so3_irrep(3), Sphere()),
                        (so2_irrep(2), so2_irrep(3), Circle()),
                        (tensor_irrep(1, 0), tensor_irrep(1, 0), NullCone()),
                        (tensor_irrep(1, 0), tensor_irrep(2, 0),
                         MassiveHyperboloid())]:
        space = solve_basepoint(j, l, orbit)
        before = space.basis.copy()
        space.basis[...] = 7.0
        np.testing.assert_array_equal(solve_basepoint(j, l, orbit).basis,
                                      before)


def test_factors_are_shared_across_radius_and_mass(cold_caches):
    # The factors are keyed on the generators, not on the orbit: a sphere
    # of another radius or a hyperboloid of another mass solves from them,
    # out to the ends of float64 (the generators are checked to fix the
    # base point in units of its size).
    for j, l, unit, scaled in [
            (o3_irrep(2, 1), o3_irrep(1, -1), Sphere(),
             (Sphere(2.5), Sphere(1e6), Sphere(1e300), Sphere(1e-300))),
            (tensor_irrep(2, 0), tensor_irrep(1, 0), MassiveHyperboloid(),
             (MassiveHyperboloid(2.0), MassiveHyperboloid(1e300),
              MassiveHyperboloid(1e-300)))]:
        first = solve_basepoint(j, l, unit)
        misses = stabilizer_solver._label_factors.cache_info().misses
        for orbit in scaled:
            again = solve_basepoint(j, l, orbit)
            assert (stabilizer_solver._label_factors.cache_info().misses
                    == misses)
            np.testing.assert_array_equal(again.basis, first.basis)
            assert again.gap_ratio == first.gap_ratio
