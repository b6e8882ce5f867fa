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
from steerkit.irreps import (MAX_L, IrrepError, IrrepLabel, dirac_irrep,
                             o2_irrep, o3_irrep, rep_matrices, rep_pair,
                             so2_irrep, so3_irrep, spinor_vector_irrep,
                             tensor_irrep)
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
            for k in space.basis.T.reshape(-1, j.dim, l.dim):
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
        kernels = space.basis.T.reshape(-1, j.dim, l.dim)
        scales = [max(1.0, np.linalg.norm(k)) for k in kernels]
        hs = [stabilizer_draw(orbit, j.group, rng) for _ in range(20)]
        moved = [steer(k, j, l, hs) for k in kernels]
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
    # A dense stack that comes back (3 elements x 1024 rows, 1024 unknowns),
    # a finite rotation or a stack of R_y(pi) fails here: the one solve is
    # real and has the equal-weight unknowns with R_y(pi) imposed in closed
    # form, n(m)^2 for each weight m > 0 (n read from the projector ranks; a
    # real label keeps m >= 0 only): the quaternionic blocks of X_m, half
    # the 2 n(m)^2 real and imaginary parts.  Its rows are the real and
    # imaginary parts of the ladder rows between adjacent weights, n(a)
    # n(a - 1) for each weight a of the four, +-1/2 and +-3/2.
    sv = spinor_vector_irrep(realified=True)
    shapes = _record_nullspace_calls(monkeypatch)
    space = solve_basepoint(sv, sv, MassiveHyperboloid())
    ranks = {m: u.shape[1] for m, u in weight_bases(sv)[0].items()}
    unknowns = sum(n * n for n in ranks.values())
    assert ranks == {1: 12, 3: 4}
    assert unknowns == 160 < sv.dim ** 2
    rows = 2 * (4 * 12 + 12 * 12 + 12 * 4)
    assert shapes == [((rows, unknowns), np.dtype(np.float64))]
    assert rows == 480 < sv.dim ** 2
    assert space.dimension == 80


def test_stackless_counts_form_no_embedding(monkeypatch):
    # Every pair of the dims tables off the massive hyperboloid builds no
    # ladder rows: the SO(3) table to 8, the O(3) tables to 4 and the O(2)
    # table to 8 (whose reflection is imposed by the adapted weight blocks),
    # the complex SO(2) table to 8 and the cone pairs.  Their counts are read
    # from the dimensions of the weight blocks (U = I on the circle), with no
    # embedding or rows assembled.  On every pair of the dims tables the
    # count is the solve's.
    pairs = _dims_pairs()
    stackless = [(j, l, orbit) for j, l, orbit in pairs
                 if not isinstance(orbit, MassiveHyperboloid)]
    assert len(stackless) == 81 + 200 + 100 + 81 + 3
    dims = {(j, l, orbit): solve_basepoint(j, l, orbit).dimension
            for j, l, orbit in pairs}

    def forbidden(name):
        def call(*args):
            raise AssertionError(f"{name} called by a stackless count")
        return call
    with monkeypatch.context() as patch:
        for name in ("_embedding", "_ladder_rows"):
            patch.setattr(stabilizer_solver, name, forbidden(name))
        for pair in stackless:
            assert oracle_dimension(*pair) == dims[pair], pair
    for pair in pairs:
        assert oracle_dimension(*pair) == dims[pair], pair


def test_counts_form_no_embedding(monkeypatch, capsys):
    # The count never forms the dim_j dim_l embedding, on any orbit: with
    # the embedding's fill raising, every pair of the dims tables still
    # counts (the massive hyperboloid from its ladder rows alone), and so
    # does `dims --group lorentz --full`.
    pairs = _dims_pairs()
    counts = {pair: oracle_dimension(*pair) for pair in pairs}

    def no_embedding(*args):
        raise AssertionError("_embedding called by a count")
    monkeypatch.setattr(stabilizer_solver, "_embedding", no_embedding)
    for pair in pairs:
        assert oracle_dimension(*pair) == counts[pair], pair
    capsys.readouterr()
    assert cli.main(["dims", "--group", "lorentz", "--full"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["all_match"] and len(table["table"]) == 8
    with pytest.raises(AssertionError, match="_embedding called"):
        solve_basepoint(tensor_irrep(1, 0), tensor_irrep(1, 0),
                        MassiveHyperboloid())


def test_count_and_solve_split_every_dims_stack_alike():
    # The count takes the values-only SVD of the ladder rows and the solve
    # the SVD of their R factor with vectors: two routes through LAPACK.  On
    # every pair of the dims tables with ladder rows (the massive
    # hyperboloid's) they cut the spectrum at the same place, and agree to
    # round-off; the count's spectrum is the bits of the values-only SVD of
    # R wherever the solve takes R (m >= 2n).  On the other pairs the count
    # is the solve's too.
    stacked = 0
    for j, l, orbit in _dims_pairs():
        weyl, turn = stabilizer_solver._generators(j, l, orbit)
        if turn is None:
            assert oracle_dimension(j, l, orbit) == solve_basepoint(
                j, l, orbit).dimension, (j, l, orbit)
            continue
        stacked += 1
        stack = stabilizer_solver._ladder_rows(j, l, weyl, turn)
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
    assert stacked == 7


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
    # nullspace, and once the per-label factors (the weight bases, adapted
    # to w where there is one) are cached no range is taken, so a real-part
    # step after the solve would fail here.
    pairs = [(j, l, orbit) for j, l, orbit in _dims_pairs()
             if j.field != "complex"]
    for j, l, orbit in pairs:
        for label in (j, l):
            stabilizer_solver._label_factors(
                label, *stabilizer_solver._generators(j, l, orbit))
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
    kernels = space.basis.T.reshape(-1, t30.dim, t30.dim)
    for h in elements:
        rho, rho_inv = rep_pair(t30, t30, h)
        moved = rho @ kernels @ rho_inv
        assert np.linalg.norm(moved - kernels, axis=(-2, -1)).max() <= 1e-10


def test_round_off_stack_keeps_its_solution():
    # The weight-0 vectors of o3 0 and 1 are radial, and r_y acts on them by
    # +-1 up to round-off: the projectors (1 +- b) / 2 onto its eigenspaces
    # have the spectra {1} and {~1e-16}, and the rank cut is measured
    # against 1, not against that round-off.  So the radial solution
    # survives where the parities match, and opposite parities have none.
    for field in ("real", "complex"):
        for pj in (1, -1):
            for pl in (1, -1):
                j, l = o3_irrep(0, pj, field), o3_irrep(1, pl, field)
                space = _check(j, l, Sphere(), 1 if pj == pl else 0)
                assert space.gap_ratio >= GAP_RATIO
                for h in reference_sample(Sphere(), "o3"):
                    for k in space.basis.T.reshape(-1, j.dim, l.dim):
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
    # there are none, the identity), and the adapted blocks the element w
    # that fixes x0 and turns the rotations about z backwards, w Rz(t) w^-1
    # = Rz(-t): r_y under O(2) and O(3), R_y(pi) on the massive hyperboloid.
    # Only the massive hyperboloid has a turn r for its ladder rows, and it
    # lies outside O(2)_z: it maps z to neither z nor -z.  The choice of
    # these elements is made in stabilizer_solver alone, from parameters: it
    # names no group element and no stabilizer sample, and groups defines
    # none.
    labels = {"so2": so2_irrep(1), "o2": o2_irrep(1), "so3": so3_irrep(1),
              "o3": o3_irrep(1, 1), "lorentz": tensor_irrep(1, 0)}
    found = {}
    for kind, names in groups.ORBIT_GROUPS.items():
        orbit = kind()
        x0 = groups.orbit_vectors(orbit, groups.base_point(orbit))
        for group in names:
            weyl, turn = stabilizer_solver._generators(
                labels[group], labels[group], orbit)
            found[group, kind.__name__] = (weyl is not None, turn is not None)
            for p in (weyl, turn):
                if p is not None:
                    m = groups.matrices(group, p)
                    np.testing.assert_allclose(m @ x0, x0, atol=1e-12)
            if turn is not None:
                assert abs(groups.matrices(group, turn)[-1, -1]) < 1 - 1e-3
            if weyl is None:
                continue
            w = groups.matrices(group, weyl)
            for t in (1.0, np.sqrt(2.0)):
                rz = [groups.matrices(group, (s,) + groups.IDENTITY[group][1:])
                      for s in (t, -t)]
                np.testing.assert_allclose(w @ rz[0] @ np.linalg.inv(w),
                                           rz[1], atol=1e-12)
    assert found == {("so2", "Circle"): (False, False),
                     ("o2", "Circle"): (True, False),
                     ("so3", "Sphere"): (False, False),
                     ("o3", "Sphere"): (True, False),
                     ("lorentz", "MassiveHyperboloid"): (True, True),
                     ("lorentz", "NullCone"): (False, False)}
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
    # Their stabilizers are generated by the rotations about z (SO(3)) and
    # r_y (O(3)), which the adapted weight blocks impose, or only those are
    # imposed (the cone); the circle's by r_y (O(2)): every unknown is free
    # and no nullspace is taken.
    shapes = _record_nullspace_calls(monkeypatch)
    for j, l, orbit, dim in [
            (so3_irrep(2), so3_irrep(3), Sphere(), 5),
            (so3_irrep(4, "complex"), so3_irrep(4, "complex"), Sphere(), 9),
            (o3_irrep(2, 1), o3_irrep(3, -1), Sphere(), 2),
            (o3_irrep(4, -1, "complex"), o3_irrep(4, -1, "complex"),
             Sphere(), 5),
            (o2_irrep(2), o2_irrep(3), Circle(), 2),
            (o2_irrep("0~", "complex"), o2_irrep(3, "complex"), Circle(), 1),
            (tensor_irrep(2, 0), tensor_irrep(2, 0), NullCone(), 70),
            (dirac_irrep(), spinor_vector_irrep(), NullCone(), 24)]:
        assert _check(j, l, orbit, dim).dimension == dim
    assert shapes == []


def test_only_the_massive_hyperboloid_stacks(monkeypatch):
    # Only the massive hyperboloid builds ladder rows, on R_y(pi)-adapted
    # unknowns: 2 sum_a n_j(a) n_l(a - 1) real rows, against dim_j dim_l for
    # the embedding.  The spinor-vector rows are 480 x 160 (embedding
    # 1024 x 160, 320 unknowns without the adaptation), tensor20 112 x 35
    # (256 x 35, 70) and realified Dirac 32 x 16 (64 x 16, 32).  The O(2)
    # and O(3) counts build no rows and no embedding.
    mh = MassiveHyperboloid()
    sv, dirac = spinor_vector_irrep(realified=True), dirac_irrep(realified=True)
    t20 = tensor_irrep(2, 0)
    for j, rows, embedding, dim in [(sv, (480, 160), (1024, 160), 80),
                                    (t20, (112, 35), (256, 35), 14),
                                    (dirac, (32, 16), (64, 16), 16)]:
        weyl, turn = stabilizer_solver._generators(j, j, mh)
        stack = stabilizer_solver._ladder_rows(j, j, weyl, turn)
        embed, _ = stabilizer_solver._embedding(j, j, weyl, turn)
        assert stack.shape == rows and embed.shape == embedding
        assert stack.dtype == embed.dtype == np.float64
        assert oracle_dimension(j, j, mh) == dim
    for j, l, orbit in _dims_pairs():
        turn = stabilizer_solver._generators(j, l, orbit)[1]
        assert (turn is not None) == isinstance(orbit, MassiveHyperboloid)

    def no_rows(*args):
        raise AssertionError("_ladder_rows called by an O(2) or O(3) count")
    monkeypatch.setattr(stabilizer_solver, "_ladder_rows", no_rows)
    cases = compact_case_grid("o3", 4) + compact_case_grid("o2", 8)
    for j, l, orbit in cases:
        assert oracle_dimension(j, l, orbit) == predicted_dimension(j, l,
                                                                    orbit)


def test_ladder_generator_moves_the_weight_by_one():
    # The ladder rows rest on J = rho(r) J_z rho(r)^H, r = R_y(pi / 2),
    # moving each weight by exactly +-1: on every massive label of `dims
    # --group lorentz --full`, U_b^H J U_a vanishes to 1e-13 unless |a - b|
    # = 1, and is far from 0 for every such pair of weights.  With r a
    # rotation about z instead (beta = 0), J is J_z, which moves no weight:
    # the rows vanish, and the count keeps every unknown, more than the
    # closed form on tensor20 and on the spinor-vector (Dirac would show
    # nothing: all its unknowns are free).
    mh = MassiveHyperboloid()
    labels = dict.fromkeys(x for j, l, orbit in lorentz_case_grid(True)
                           if isinstance(orbit, MassiveHyperboloid)
                           for x in (j, l))
    assert len(labels) == 4
    for label in labels:
        turn = stabilizer_solver._generators(label, label, mh)[1]
        bases, gen = stabilizer_solver._generator(label, turn)
        for a, ua in bases.items():
            for b, ub in bases.items():
                size = np.abs(ub.conj().T @ gen @ ua).max()
                if abs(a - b) == 2:
                    assert size > 0.1, (label, a, b)
                else:
                    assert size <= 1e-13, (label, a, b, size)
    about_z = (0.7, 0.0, 0.0, 0.0, 0.0, 0.0)
    for label in (tensor_irrep(2, 0), spinor_vector_irrep(realified=True)):
        weyl = stabilizer_solver._generators(label, label, mh)[0]
        rows = stabilizer_solver._ladder_rows(label, label, weyl, about_z)
        assert np.abs(rows).max() <= 1e-13
        k, kept, _ = numerics.nullity_with_spectrum(rows)
        assert not kept.size
        assert k == stabilizer_solver._unknowns(label, label, weyl,
                                                about_z)[1]
        assert k > predicted_dimension(label, label, mh)


def test_all_free_rows_keep_their_embedding():
    # The realified Dirac pair keeps all 16 of its unknowns: its ladder rows
    # are pure round-off and keep no singular value, so the solve returns
    # the embedding with unit columns, as on the orbits without rows,
    # rather than mixing it by the round-off's singular vectors.
    d = dirac_irrep(realified=True)
    weyl, turn = stabilizer_solver._generators(d, d, MassiveHyperboloid())
    _, kept, dropped = numerics.nullspace_with_spectrum(
        stabilizer_solver._ladder_rows(d, d, weyl, turn))
    assert not kept.size and len(dropped) == 16
    embed, _ = stabilizer_solver._embedding(d, d, weyl, turn)
    expected = embed / np.linalg.norm(embed, axis=0)
    np.testing.assert_array_equal(
        solve_basepoint(d, d, MassiveHyperboloid()).basis, expected)


def _adapted_labels() -> dict:
    """Every label of the dims tables on an orbit with w, mapped to w's
    parameters, and the O(3) labels at the largest l, both fields and
    parities."""
    labels = {}
    for j, l, orbit in _dims_pairs():
        weyl = stabilizer_solver._generators(j, l, orbit)[0]
        if weyl is not None:
            labels.update(dict.fromkeys((j, l), weyl))
    top = [o3_irrep(MAX_L, p, f) for p in (1, -1) for f in ("real", "complex")]
    weyl = stabilizer_solver._generators(top[0], top[0], Sphere())[0]
    return labels | dict.fromkeys(top, weyl)


def test_adapted_bases_meet_their_defining_relations():
    # Each kind of block meets the relation that imposes w by construction,
    # to 1e-14: rho(w) v = +-v on the weight-0 split (and the circle's one
    # block), U_-m = rho(w) U_m for complex labels, rho(w) U_m = conj(U_m)
    # for real integer weights, rho(w) v_2k = conj(v_2k+1) and rho(w) v_2k+1
    # = -conj(v_2k) for the realified spinors.  With the partners of the
    # weight -m blocks the columns form a unitary basis of the label, each
    # a weight vector of the rotations about z, and every spectrum the
    # adaptation takes passes the gap check.
    kinds = Counter()
    for label, weyl in _adapted_labels().items():
        blocks, ladder, gap = stabilizer_solver._label_factors(label, weyl,
                                                               None)
        assert ladder is None and gap >= GAP_RATIO, label
        rho_w = rep_matrices(label, weyl)
        weights = []                       # (columns, twice their weight)
        for (m2, sign), (left, right, _) in blocks.items():
            if m2 == 0:
                kind, (v,) = "+-1", left
                np.testing.assert_allclose(rho_w @ v, sign * v, atol=1e-14)
                weights.append((v, 0))
            elif label.field == "complex":
                kind, (u, v) = "complex", left
                np.testing.assert_allclose(rho_w @ u, v, atol=1e-14)
                weights += [(u, m2), (v, -m2)]
            elif m2 % 2 == 0:
                kind, (v,) = "real", left
                np.testing.assert_allclose(rho_w @ v, v.conj(), atol=1e-14)
                weights += [(v, m2), (v.conj(), -m2)]
            else:
                kind, v = "quaternionic", right[0].conj()
                even, odd = v[:, 0::2], v[:, 1::2]
                np.testing.assert_array_equal(left[0], even)
                np.testing.assert_allclose(rho_w @ even, odd.conj(),
                                           atol=1e-14)
                np.testing.assert_allclose(rho_w @ odd, -even.conj(),
                                           atol=1e-14)
                weights += [(v, m2), (v.conj(), -m2)]
            kinds[kind] += 1
        q = np.hstack([v for v, _ in weights])
        assert q.shape == (label.dim, label.dim), label
        np.testing.assert_allclose(q.conj().T @ q, np.eye(label.dim),
                                   atol=1e-14)
        if label.group in ("o3", "lorentz"):
            angle = np.eye(len(weyl))[0]
            angle[3:] = groups.IDENTITY[label.group][3:]
            rz = rep_matrices(label, angle)
            for v, m2 in weights:
                np.testing.assert_allclose(rz @ v, np.exp(0.5j * m2) * v,
                                           atol=1e-14)
    assert set(kinds) == {"+-1", "complex", "real", "quaternionic"}


@pytest.fixture
def cold_caches():
    # The oracle's caches hold the representations of earlier solves: a test
    # that monkeypatches rep_matrices or counts calls starts and ends cold.
    caches = (weight_bases, stabilizer_solver._label_factors)
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


def test_degenerate_stack_spectrum_raises(monkeypatch, cold_caches, capsys):
    # The ladder images of the Lorentz vector, on the j side only, at the
    # weight 1 rows: 1e-12 added to those of t, the weight-0 vector that w =
    # R_y(pi) fixes and J leaves at rest (its exact image is 0), and those of
    # the weight-1 block scaled by 1 + 1e-7.  The rows of vector / vector
    # then move the spin-0 solution (t t^T) to sigma = 1e-12 and the spin-1
    # solution to about 3e-8: a split at the cut with a ratio of about 3e4,
    # which the count must reject like the solve.  The l side and the weight
    # and w evaluations are left exact.
    target = tensor_irrep(1, 0)
    factors = stabilizer_solver._label_factors

    def fuzzy(label, weyl, turn):
        blocks, ladder, gap = factors(label, weyl, turn)
        if label != target or ladder is None:
            return blocks, ladder, gap
        sizes, rungs = ladder
        rungs = dict(rungs)
        for key, change in [((0, 1), lambda a: a + 1e-12),
                            ((2, 1), lambda a: a * (1 + 1e-7))]:
            rung = dict(rungs[key])
            images, rights = rung[2]
            rung[2] = (change(images), rights)
            rungs[key] = rung
        return blocks, (sizes, rungs), gap
    monkeypatch.setattr(stabilizer_solver, "_label_factors", fuzzy)
    weyl, turn = stabilizer_solver._generators(target, target,
                                               MassiveHyperboloid())
    _, kept, dropped = numerics.nullity_with_spectrum(
        stabilizer_solver._ladder_rows(target, target, weyl, turn))
    assert 1e-8 < kept[-1] < 1e-7 and dropped[0] == pytest.approx(1e-12)
    pair = f"for {target} / {target}"
    for solve in (solve_basepoint, oracle_dimension):
        with pytest.raises(DegenerateSpectrumError) as err:
            solve(target, target, MassiveHyperboloid())
        assert pair in str(err.value)
    assert cli.main(["dims", "--group", "lorentz"]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert pair in json.loads(captured.err)["error"]


def test_degenerate_generator_images_raise(monkeypatch, cold_caches,
                                          capsys):
    # The images of the weight bases under w decide its adaptation.  For
    # O(2) j = 1 on the circle, rho(r_y) = diag(1, -1 + 1e-8) moves the -1
    # eigenspace of w off the kernel of (1 + rho(r_y)) / 2, whose spectrum
    # 1, 5e-9 then keeps both values above the cut: w's eigenspaces add up
    # to three dimensions of a two-dimensional label.  The solve, the count
    # and dims raise, naming the label, rather than guessing.
    target = o2_irrep(1)

    def fuzzy(label, params):
        m = rep_matrices(label, params)
        return m + np.diag([0.0, 1e-8]) if label == target else m
    monkeypatch.setattr(stabilizer_solver, "rep_matrices", fuzzy)
    message = f"{target} adapted to w have 3 dimensions, not 2"
    for solve in (solve_basepoint, oracle_dimension):
        with pytest.raises(DegenerateSpectrumError) as err:
            solve(target, target, Circle())
        assert message in str(err.value)
    assert cli.main(["dims", "--group", "o2", "--jmax", "1"]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert message in json.loads(captured.err)["error"]


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
    # (8 pairs) evaluate each label once per parameter stack (the weight
    # projectors' rotations, w, the ladder's turn); a solve that evaluated
    # them per pair would count one call per pair.  The oracle evaluates
    # representations at stabilizer elements only, through rep_matrices.
    calls = Counter()
    evaluate = stabilizer_solver.rep_matrices

    def counted(label, params):
        calls[label, np.asarray(params).tobytes()] += 1
        return evaluate(label, params)
    monkeypatch.setattr(stabilizer_solver, "rep_matrices", counted)
    cases = (compact_case_grid("o3", 4)
             + lorentz_case_grid(include_spinor_vector=True))
    assert len(cases) == 208
    for j, l, orbit in cases:
        solve_basepoint(j, l, orbit)
    assert max(calls.values()) == 1
    labels = {j for j, _, _ in cases} | {l for _, l, _ in cases}
    # o3: 20 labels, each with its weight rotations and its reflection r_y;
    # Lorentz: 4 labels, each with its weight rotations, R_y(pi) and the
    # turn R_y(pi / 2) of the hyperboloid (the cone imposes neither).
    assert len(labels) == 24
    assert len(calls) == 2 * 20 + 3 * 4
    assert not hasattr(stabilizer_solver, "rep_pair")


def test_cached_factors_are_read_only(cold_caches):
    # o3 1-: weight 0 (odd under r_y) and 1, a left and a right factor each,
    # and no ladder.  tensor20: weight 0 split both ways, 1 and 2, a left
    # and a right factor each, and their ladder images: per block and per
    # row weight a that its terms reach (their own weight, and one above),
    # the left images where the label has the weight a and the right ones
    # where it has a - 1.  The weight-0 blocks reach a = 0 and 1 (two
    # arrays each), the weight-1 block a = -1, 0, 1, 2 (its conjugate terms
    # have the weight -1; two each), and the weight-2 block a = -2, -1, 2, 3
    # (one array at -2 and at 3, two at -1 and at 2): 4 + 4 + 8 + 6.
    one, t20 = o3_irrep(1, -1), tensor_irrep(2, 0)
    for label, orbit, count in [(one, Sphere(), 2 * 2),
                                (t20, MassiveHyperboloid(), 4 * 2 + 22)]:
        solve_basepoint(label, label, orbit)
        weyl, turn = stabilizer_solver._generators(label, label, orbit)
        blocks, ladder, _ = stabilizer_solver._label_factors(label, weyl,
                                                             turn)
        arrays = [a for left, right, _ in blocks.values()
                  for a in left + right]
        if ladder is not None:
            arrays += [a for rung in ladder[1].values()
                       for pair in rung.values() for a in pair
                       if a is not None]
        assert len(arrays) == count
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0
        with pytest.raises(TypeError):
            blocks[0, 1] = blocks[0, -1]
        if ladder is not None:
            for part in (ladder[0], ladder[1], ladder[1][0, 1]):
                with pytest.raises(TypeError):
                    part[0] = None
    # A caller that writes to a returned basis changes no later solve, with
    # or without ladder rows.
    for j, l, orbit in [(one, one, Sphere()),
                        (so3_irrep(2), so3_irrep(3), Sphere()),
                        (so2_irrep(2), so2_irrep(3), Circle()),
                        (tensor_irrep(1, 0), tensor_irrep(1, 0), NullCone()),
                        (tensor_irrep(1, 0), tensor_irrep(2, 0),
                         MassiveHyperboloid()),
                        (dirac_irrep(realified=True),
                         dirac_irrep(realified=True), MassiveHyperboloid())]:
        space = solve_basepoint(j, l, orbit)
        before = space.basis.copy()
        space.basis[...] = 7.0
        np.testing.assert_array_equal(solve_basepoint(j, l, orbit).basis,
                                      before)


def test_factors_are_shared_across_radius_and_mass(cold_caches):
    # The factors are keyed on the generators, not on the orbit: a sphere
    # of another radius or a hyperboloid of another mass solves from them,
    # out to the ends of float64 (the generators are constant tables that fix
    # the base point of every radius and mass).
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
