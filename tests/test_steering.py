import ast
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerkit import analytic_bases as bases
from steerkit import cli, groups, numerics, stabilizer_solver, steering, verify
from steerkit.groups import Circle, MassiveHyperboloid, NullCone, Sphere
from steerkit.irreps import (IrrepError, dirac_irrep, o2_irrep, o3_irrep,
                             rep_matrices, rep_pair, so2_irrep, so3_irrep,
                             spinor_vector_irrep, tensor_irrep)
from steerkit.steering import kernel_at, section_kernels, steer

from group_law import product
from single_views import wigner_D


def test_steer_identity_leaves_kernel():
    k0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    (out,) = steer(k0, so2_irrep(2), so2_irrep(3),
                   [groups.IDENTITY["so2"]])
    np.testing.assert_allclose(out, k0, atol=1e-15)


def test_steer_so2_complex_phase():
    # steering the unit kernel gives exp(i (j - l) phi)
    for j, l in [(2, 5), (0, 3), (4, 4)]:
        phi = 0.77
        out = steer(np.array([[1.0 + 0j]]), so2_irrep(j, "complex"),
                    so2_irrep(l, "complex"), [[phi]])
        assert abs(out[0, 0, 0] - np.exp(1j * (j - l) * phi)) < 1e-14


def test_steer_so2_real_canonical_matrix():
    # the displayed steering of [[1,0],[0,0]]:
    # [[cos j cos l, cos j sin l], [sin j cos l, sin j sin l]] (angles j phi,
    # l phi)
    j, l, phi = 2, 3, 0.6
    (out,) = steer(np.diag([1.0, 0.0]), so2_irrep(j), so2_irrep(l), [[phi]])
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
            a, b = groups.random_params(gname, rng, 2, eta_max=1.0)
            lhs = steer(steer(k0, j, l, [a])[0], j, l, [b])
            rhs = steer(k0, j, l, [product(gname, b, a)])
            assert (np.linalg.norm(lhs - rhs)
                    <= 1e-11 * max(1.0, np.linalg.norm(rhs)))


def test_steer_peak_stays_within_six_chunks_of_its_output():
    # steer evaluates the representations a budget-sized run at a time, so
    # one kernel steered by 50,000 elements holds its output, two chunk
    # buffers and a run with its temporaries, not all n representations.
    rng = np.random.default_rng(37)
    j, l = so3_irrep(2), so3_irrep(3)
    params = groups.random_params("so3", rng, 50_000)
    k0 = rng.normal(size=(j.dim, l.dim))
    tracemalloc.start()
    try:
        out = steer(k0, j, l, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 6 * steering.CHUNK_BYTES


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
    got = kernel_at(elem, (alpha, beta))
    dj = wigner_D(j, alpha, beta, 0.0)
    dl_inv = wigner_D(l, alpha, beta, 0.0).conj().T
    expect = np.outer(dj[:, j - 0], dl_inv[l - 0, :])
    np.testing.assert_allclose(got, expect, atol=1e-13)


def test_kernel_at_is_section_independent():
    # composing the representative with a stabilizer rotation must not move
    # the kernel value: that is exactly the base-point constraint
    theta = 1.2
    for elem in (bases.basis_so3(2, 1)[2], bases.basis_so3(1, 2, "complex")[0]):
        x = (0.8, 0.5)
        rep = groups.section_params(Sphere(), x, "so3")
        moved = product("so3", rep, (theta, 0.0, 0.0))
        (direct,) = steer(elem.base_matrix, elem.j, elem.l, [moved])
        np.testing.assert_allclose(direct, kernel_at(elem, x), atol=1e-12)


def test_steerability_defect_is_small_for_analytic_elements():
    for els in (bases.basis_so3(2, 2), bases.basis_so2(1, 3)):
        assert verify.max_steer_residual(els, els[0].orbit, n_g=5, n_x=5,
                                         seed=11) <= 1e-11


def test_steer_shape_mismatch_rejected():
    # steer takes one kernel: a kernel of another shape and a stack of
    # kernels, of one kernel too, are rejected, naming the expected shape.
    g = [(0.1,)]
    for bad in (np.eye(3), np.zeros((4, 2, 3)), np.zeros(2),
                np.zeros((1, 2, 2)), np.zeros((3, 2, 2)),
                np.zeros((4, 3, 2, 2))):
        with pytest.raises(IrrepError, match=r"\(2, 2\) of one kernel"):
            steer(bad, so2_irrep(1), so2_irrep(1), g + g)
    # One element is a stack of one: a bare parameter vector is rejected.
    with pytest.raises(IrrepError, match="parameter stack"):
        steer(np.eye(2), so2_irrep(1), so2_irrep(1), g[0])


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


#: Points where the coset sections are singular or nearly so: both poles
#: and their neighbours (beta = 0, pi), the rest frame, the backward null
#: direction and the forward null direction at another scale.
SINGULAR_POINTS = {
    Circle: np.array([[0.0], [math.pi]]),
    Sphere: np.array([[0.0, 0.0], [0.3, math.pi], [1.0, 1e-9],
                      [2.0, math.pi - 1e-9]]),
    MassiveHyperboloid: np.array([
        [1.0, 0.0, 0.0, 0.0],
        [math.cosh(1.0), 0.0, 0.0, -math.sinh(1.0)],
        [math.cosh(0.5), 0.0, 0.0, math.sinh(0.5)]]),
    NullCone: np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, -1.0],
                        [2.0, 0.0, 0.0, 2.0]]),
}

#: The parameters of a reflection or parity element of each group that has
#: one.
REFLECTIONS = {"o2": (0.0, -1.0), "o3": (0.0, math.pi, 0.0, -1.0)}

#: One label of every representation family, with the orbit it acts on.
STACK_LABELS = [
    (so2_irrep(0), Circle()), (so2_irrep(3), Circle()),
    (so2_irrep(-2, "complex"), Circle()), (o2_irrep("0~"), Circle()),
    (o2_irrep(0, "complex"), Circle()), (o2_irrep("0~", "complex"), Circle()),
    (o2_irrep(2), Circle()),
    (o2_irrep(3, "complex"), Circle()),
    (so3_irrep(0), Sphere()), (so3_irrep(2), Sphere()),
    (so3_irrep(3, "complex"), Sphere()), (o3_irrep(0, 1), Sphere()),
    (o3_irrep(2, -1), Sphere()), (o3_irrep(1, 1, "complex"), Sphere()),
    (o3_irrep(0, -1, "complex"), Sphere()),
    # Large Wigner tables; the o3 stacks mix parity elements and rotations.
    (so3_irrep(8), Sphere()), (so3_irrep(8, "complex"), Sphere()),
    (so3_irrep(32), Sphere()), (so3_irrep(32, "complex"), Sphere()),
    (o3_irrep(16, 1), Sphere()),
] + [(tensor_irrep(p, q), MassiveHyperboloid())
     for p in range(3) for q in range(3 - p)] + [
    (dirac_irrep(realified=True), MassiveHyperboloid()),
    (spinor_vector_irrep(realified=True), NullCone()),
]


def test_steer_stack_matches_elementwise():
    # The batched representation, section, action and steering stacks must
    # equal the stacks of one element or point row by row, bit for bit,
    # including at the sections' singular points.  The representations
    # carry the label's dtype, and steering a real kernel by them that
    # dtype too, at every stack size.
    rng = np.random.default_rng(11)
    for label, orbit in STACK_LABELS:
        coords = np.concatenate([groups.random_orbit_coords(orbit, rng, 5),
                                 SINGULAR_POINTS[type(orbit)]])
        drawn = groups.random_params(label.group, rng, 6)
        sections = groups.section_params(orbit, coords, label.group)
        params = np.vstack([drawn, [REFLECTIONS.get(label.group, drawn[0])],
                            sections])
        for side in (0, 1):
            rows = rep_pair(label, label, params)[side]
            assert rows.dtype == label.dtype, label
            for row, g in zip(rows, params):
                assert _same_bits(row, rep_pair(label, label, g)[side]), (
                    label, g)
        moved = groups.act_points(label.group, params[:7, None], orbit, coords)
        for p, x in enumerate(coords):
            one = groups.section_params(orbit, x, label.group)
            assert sections[p].tolist() == one.tolist(), (label, x)
            for i, g in enumerate(params[:7]):
                assert moved[i, p].tolist() == groups.act_points(
                    label.group, g, orbit, x).tolist()
        k0 = rng.normal(size=(3, label.dim, label.dim))
        steered = np.stack([steer(k, label, label, params) for k in k0])
        for stack in (steered, steer(k0[0], label, label, params[:0])):
            assert stack.dtype == np.result_type(k0, label.dtype), label
        for i, g in enumerate(params):
            assert _same_bits(steered[:, i], np.stack(
                [steer(k, label, label, [g])[0] for k in k0]))
            # j == l steers through one stack; the pair is the reference.
            rho, rho_inv = rep_pair(label, label, g)
            assert _same_bits(steered[:, i], rho @ k0 @ rho_inv), (label, g)
    # A stack of O(3) elements that mixes parities, against a 1x1 label.
    j, l = o3_irrep(2, 1), o3_irrep(0, 1)
    params = groups.random_params("o3", rng, 12)
    assert len(set(params[:, 3])) == 2
    k0 = rng.normal(size=(4, 2, 5, 1))
    for k in k0[:, 0]:
        steered = steer(k, j, l, params)
        for i, g in enumerate(params):
            assert _same_bits(steered[i], steer(k, j, l, [g])[0])
    # section_kernels steers the whole basis in chunks of stacked sections;
    # each slice must equal the kernel_at reference, also across chunk
    # borders.
    vec, t20 = tensor_irrep(1, 0), tensor_irrep(2, 0)
    sv = spinor_vector_irrep(realified=True)
    evaluated = [
        (bases.basis_so3(2, 1), Sphere()),
        (bases.basis_so3(1, 2, "complex"), Sphere()),
        (bases.basis_o3(2, -1, 1, 1), Sphere()),
        (bases.basis_o2(0, 2, "complex"), Circle()),
        (bases.lorentz_massive_basis(t20, vec), MassiveHyperboloid()),
        (bases.lorentz_massive_basis(dirac_irrep(realified=True),
                                     dirac_irrep(realified=True)),
         MassiveHyperboloid()),
        (bases.lorentz_massive_basis(sv, sv), MassiveHyperboloid()),
        (bases.basis_lorentz_massless(2), NullCone()),
    ]
    for els, orbit in evaluated:
        e0 = els[0]
        per_point = len(els) * e0.j.dim * e0.l.dim * e0.j.dtype.itemsize
        n = steering.chunk_length(per_point) + 3 if e0.j.dim > 8 else 4
        pts = np.concatenate([groups.random_orbit_coords(orbit, rng, n),
                              SINGULAR_POINTS[type(orbit)]])
        values = section_kernels(els, pts)
        assert values.shape == (len(els), len(pts), e0.j.dim, e0.l.dim)
        for b, elem in enumerate(els):
            for p, x in enumerate(pts):
                assert _same_bits(values[b, p], kernel_at(elem, x))
    # An empty basis, or elements that do not share (j, l, orbit), cannot
    # be steered as one stack; tensor(1,1) and tensor(2,0) even share shapes.
    t11 = tensor_irrep(1, 1)
    mixed = [(bases.lorentz_massive_basis(t11, t11)[:1]
              + bases.lorentz_massive_basis(t20, t20)[:1]),
             bases.basis_so3(1, 1) + bases.basis_so3(1, 1, "complex"),
             bases.basis_so3(1, 1) + bases.basis_so3(1, 1, radius=2.0)]
    for bad, x in [([], groups.base_point(Sphere()))] + [
            (els, groups.base_point(els[0].orbit)) for els in mixed]:
        with pytest.raises(IrrepError):
            section_kernels(bad, [x])


def test_section_pieces_stream_the_basis_in_payload_order(monkeypatch):
    # The streamed pieces, concatenated, are the basis at every point in the
    # order [basis][point], bit for bit equal to section_kernels and to
    # kernel_at at every piece border.  Each section's representations
    # are evaluated once per call, however many elements reuse them, no
    # piece exceeds the chunk budget, and each piece is one element's run of
    # points.  The cases cover a partial last piece per element (so3 8/8,
    # spinor-vector, the cone), one basis element with streamed
    # representations (the cone), every point of an element in one piece
    # (complex so3, O(3) parity, the circle) and a representation stack
    # evaluated in several runs (spinor-vector).
    rng = np.random.default_rng(19)
    sv, t20 = spinor_vector_irrep(realified=True), tensor_irrep(2, 0)
    cases = [
        (bases.basis_so3(8, 8), 500),
        (bases.basis_so3(2, 2, "complex"), 1000),
        (bases.basis_o3(2, -1, 1, 1), 300),
        (bases.basis_so2(2, 3), 9000),
        (bases.basis_lorentz_massless(2), 600),
        (bases.lorentz_massive_basis(sv, sv), 150),
    ]
    evaluated = []

    def counted_reps(j, l, params):
        evaluated.append(len(params))
        return rep_pair(j, l, params)

    monkeypatch.setattr(steering, "rep_pair", counted_reps)
    for els, n in cases:
        e0 = els[0]
        orbit, j, l = e0.orbit, e0.j, e0.l
        coords = np.concatenate([groups.random_orbit_coords(orbit, rng, n),
                                 SINGULAR_POINTS[type(orbit)]])
        evaluated.clear()
        pieces = [p.copy() for p in steering.section_pieces(els, coords)]
        assert sum(evaluated) == len(coords), j
        one = j.dtype.itemsize * j.dim * l.dim
        for p in pieces:
            assert p.ndim == 3 and p.shape[1:] == (j.dim, l.dim)
            assert p.flags.c_contiguous
            assert p.nbytes <= max(steering.CHUNK_BYTES, one)
        stream = np.concatenate(pieces)
        shape = (len(els), len(coords), j.dim, l.dim)
        assert stream.shape == (math.prod(shape[:2]),) + shape[2:]
        assert _same_bits(stream.reshape(shape), section_kernels(els, coords))
        borders = np.cumsum([0] + [len(p) for p in pieces])
        assert (borders[:-1] // len(coords)
                == (borders[1:] - 1) // len(coords)).all(), j
        for k in np.unique(np.concatenate([borders[:-1], borders[1:] - 1])):
            b, p = divmod(int(k), len(coords))
            assert _same_bits(stream[k], kernel_at(els[b], coords[p]))


#: Angles at and next to the poles, where the sections switch branches.
POLAR_EDGES = [0.0, 5e-324, 1e-12, 1e-9, 1e-6, math.pi,
               math.nextafter(math.pi, 0.0), math.pi - 1e-12, math.pi - 1e-9,
               math.pi - 1e-6]


def _angles(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _orbit_points(draw, orbit):
    """Canonical coordinates of a point on ``orbit``."""
    alpha = draw(_angles(0.0, 2 * math.pi))
    beta = draw(st.one_of(st.sampled_from(POLAR_EDGES), _angles(0.0, math.pi)))
    if isinstance(orbit, Circle):
        x = [alpha]
    elif isinstance(orbit, Sphere):
        x = [alpha, beta]
    else:
        eta = draw(st.one_of(st.just(0.0), _angles(0.0, 2.0)))
        n = [math.cos(alpha) * math.sin(beta),
             math.sin(alpha) * math.sin(beta), math.cos(beta)]
        x = ([math.cosh(eta)] + [math.sinh(eta) * c for c in n]
             if isinstance(orbit, MassiveHyperboloid)
             else [math.exp(eta) * c for c in [1.0] + n])
    return groups.canonical_coords(orbit, x)[0]


PROPERTY_BASES = [
    bases.basis_so2(2, 3), bases.basis_o2("0~", 1, "complex"),
    bases.basis_so3(2, 1), bases.basis_so3(1, 2, "complex"),
    bases.basis_o3(0, 1, 2, 1), bases.basis_o3(1, -1, 1, -1, "complex"),
    bases.lorentz_massive_basis(tensor_irrep(2, 0), tensor_irrep(1, 0)),
    bases.lorentz_massive_basis(dirac_irrep(realified=True),
                                dirac_irrep(realified=True)),
    bases.lorentz_massive_basis(spinor_vector_irrep(realified=True),
                                spinor_vector_irrep(realified=True)),
    bases.basis_lorentz_massless(1),
]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_kernels_at_matches_kernel_at_on_drawn_stacks(data):
    # Stack identity only: the batched path must reproduce the reference
    # path bit for bit wherever the reference is evaluated, including next
    # to the poles where the steering equation itself loses accuracy.
    els = data.draw(st.sampled_from(PROPERTY_BASES), label="basis")
    orbit, j, l = els[0].orbit, els[0].j, els[0].l
    pts = data.draw(st.lists(_orbit_points(orbit), min_size=1, max_size=24),
                    label="points")
    values = section_kernels(els, pts)
    for b, elem in enumerate(els):
        for p, x in enumerate(pts):
            assert _same_bits(values[b, p], kernel_at(elem, x))
    if j.group == "o3":
        params = data.draw(st.lists(st.tuples(
            _angles(0.0, 2 * math.pi), st.sampled_from(POLAR_EDGES),
            _angles(0.0, 2 * math.pi), st.sampled_from([1.0, -1.0])),
            min_size=1, max_size=12), label="o3 elements")
        for k in values[:, 0]:
            steered = steer(k, j, l, np.array(params))
            for i, g in enumerate(params):
                assert _same_bits(steered[i], steer(k, j, l, [g])[0])


def test_kernel_at_wrong_orbit_rejected():
    # The coordinates of a point of another orbit type have another width.
    with pytest.raises(groups.GroupError, match="1 coordinates"):
        kernel_at(bases.basis_so2(1, 1)[0], (0.1, 0.2))
    with pytest.raises(groups.GroupError, match="4 coordinates"):
        kernel_at(bases.basis_lorentz_massless(1)[0], (0.1, 0.2))


def test_lorentz_steer_matches_covariant_projector():
    # steering the rest-frame transverse projector gives 1 - u u (index
    # lowered), computed here directly from the boosted point
    vec = tensor_irrep(1, 0)
    elem = next(e for e in bases.lorentz_massive_basis(vec, vec)
                if "space" in e.kind)
    rng = np.random.default_rng(3)
    orbit = MassiveHyperboloid()
    for x in groups.random_orbit_coords(orbit, rng, 5, eta_max=2.0):
        u = x  # m = 1
        expect = np.eye(4) - np.outer(u, groups.ETA @ u)
        np.testing.assert_allclose(kernel_at(elem, x), expect, atol=1e-11)


def _whole_basis(k, j, l, params, units, step):
    """Every block of one ``steering._steered_blocks`` call gathered, (n,
    dj, w, dl): the kernels k (dj, w, dl) steered by every element."""
    out, work = (np.empty(step * k.size, k.dtype) for _ in range(2))
    return np.concatenate([b.copy() for b in steering._steered_blocks(
        k, steering._runs(j, l, params, units), step, out, work)])


_sv = spinor_vector_irrep(realified=True)


@pytest.mark.parametrize("els,group", [
    (bases.basis_so3(0, 0), "so3"),
    (bases.basis_o2("0~", 2), "o2"),
    (bases.basis_o2(1, 2), "o2"),
    (bases.basis_o3(1, -1, 2, 1), "o3"),
    (bases.basis_so3(2, 1, "complex"), "so3"),
    (bases.basis_o2(1, 2, "complex"), "o2"),
    (bases.lorentz_massive_basis(_sv, _sv), "lorentz"),
    (bases.basis_lorentz_massless(1), "lorentz"),
    (bases.basis_lorentz_massless(2), "lorentz"),
], ids=["so3 0/0", "o2 0~/2", "o2 1/2", "o3 1-/2+", "so3 complex 2/1",
        "o2 complex 1/2", "spinor-vector", "cone vector", "cone tensor20"])
def test_whole_basis_products_match_per_kernel_steer(els, group):
    # The sweeps' whole-basis products are the per-kernel steer to within a
    # few ulps of |rho_j| |K| |rho_l^-1| per kernel.  Each case steers three
    # stacks of kernels side by side, each by its own 13 elements in one
    # engine call, in units of 6 and blocks of 4, so that the last block of
    # a unit is shorter.  The kernels are the base matrices, a random real
    # stack (also under complex labels) and the basis at a point.  The
    # elements include O(2) and O(3) parity elements.
    rng = np.random.default_rng(23)
    j, l = els[0].j, els[0].l
    dtype = j.dtype
    base = np.stack([e.base_matrix for e in els])
    real = rng.normal(size=base.shape)
    at_x = section_kernels(els, groups.random_orbit_coords(els[0].orbit, rng,
                                                           1))[:, 0]
    params = groups.random_params(group, rng, 3 * 13)
    if group in ("o2", "o3"):
        assert set(params[:, -1]) == {1.0, -1.0}
    stacks = [base, real, at_x]
    k = np.stack([s.transpose(1, 0, 2) for s in stacks]).astype(dtype)
    whole = np.concatenate([_whole_basis(k[s], j, l, params[13 * s:][:13],
                                         units=6, step=4) for s in range(3)])
    rho, rho_inv = rep_pair(j, l, params)
    scale = (numerics.norms(rho)[:, None] * numerics.norms(k.swapaxes(1, 2)
             ).repeat(13, axis=0) * numerics.norms(rho_inv)[:, None])
    for i, g in enumerate(params):
        one = np.stack([steer(s, j, l, [g])[0] for s in stacks[i // 13]])
        err = np.abs(whole[i].swapaxes(0, 1) - one).max(axis=(1, 2))
        assert (err <= 4 * np.finfo(float).eps * scale[i]).all(), (i, err)


@pytest.mark.parametrize("j,orbit", [
    (so3_irrep(2), Sphere()), (so3_irrep(2, "complex"), Sphere()),
    (so3_irrep(8), Sphere()), (so3_irrep(8, "complex"), Sphere()),
    (o3_irrep(16, 1), Sphere()), (tensor_irrep(2, 0), MassiveHyperboloid()),
    (dirac_irrep(realified=True), MassiveHyperboloid()),
], ids=["so3 2", "so3 complex 2", "so3 8", "so3 complex 8", "o3 16+",
        "tensor20", "dirac realified"])
def test_one_kernel_rounds_alike_on_every_path(j, orbit):
    # One kernel steered by the product engine over a run of 30 elements,
    # in blocks of 7, is steer's value bit for bit, and kernel_at's at the
    # points whose sections the elements are.  The kernel is random and
    # dense, so no zero entry hides a difference in the summation order.
    rng = np.random.default_rng(31)
    k = rng.normal(size=(j.dim, j.dim))
    if j.field == "complex":
        k = k + 1j * rng.normal(size=k.shape)
    coords = groups.random_orbit_coords(orbit, rng, 30)
    params = groups.section_params(orbit, coords, j.group)
    out, work = (np.empty(7 * k.size, k.dtype) for _ in range(2))
    engine = np.concatenate([b[:, :, 0].copy() for b in steering._steered_blocks(
        k[:, None], [rep_pair(j, j, params)], 7, out, work)])
    assert _same_bits(engine, steer(k, j, j, params))
    elem = bases.KernelBasisElement(j, j, orbit, "random", k)
    for i, x in enumerate(coords):
        assert _same_bits(engine[i], kernel_at(elem, x)), i


def test_every_steering_path_reaches_the_one_engine(monkeypatch):
    # steer, kernel_at, section_pieces (so section_kernels, sample and
    # basis) and the sweep, on the cone too, steer through _steered_blocks,
    # the only function of the module that multiplies; all but the sweep's
    # whole-basis products reach it through the pieces of _pieces.
    tree = ast.parse(inspect.getsource(steering))
    multiplying = {f.name for f in ast.walk(tree)
                   if isinstance(f, ast.FunctionDef) and any(
                       isinstance(n, ast.Attribute) and n.attr == "matmul"
                       or isinstance(n, ast.MatMult) for n in ast.walk(f))}
    assert multiplying == {"_steered_blocks"}
    callers, engine = [], steering._steered_blocks

    def counted(*args):
        callers.append(inspect.currentframe().f_back.f_code.co_name)
        return engine(*args)

    monkeypatch.setattr(steering, "_steered_blocks", counted)
    so3, cone = bases.basis_so3(1, 1), bases.basis_lorentz_massless(1)
    paths = [
        (lambda: steer(np.eye(3), so3[0].j, so3[0].l, [[0.1, 0.2, 0.3]]),
         {"_pieces"}),
        (lambda: kernel_at(so3[0], (0.1, 0.2)), {"_pieces"}),
        (lambda: list(steering.section_pieces(so3, [[0.1, 0.2]])),
         {"_pieces"}),
        (lambda: verify.max_steer_residual(so3, Sphere(), n_g=2, n_x=2,
                                           seed=0),
         {"_pieces", "max_steer_residual"}),
        (lambda: verify.max_steer_residual(cone, NullCone(), n_g=2, n_x=2,
                                           seed=0),
         {"_pieces", "max_steer_residual"}),
    ]
    for run, expected in paths:
        callers.clear()
        run()
        assert set(callers) == expected, (expected, callers)


def test_every_pair_evaluation_goes_through_rep_pair(monkeypatch):
    # The inverse rule and what a pair shares live in irreps alone: the
    # modules that steer, solve, verify and dump import no private name
    # from it, and steering names no group.  steer, section_pieces (so
    # sample, basis and section_kernels) and the sweep on every orbit each
    # take (rho_j, rho_l^-1) from rep_pair; the oracle takes no inverse,
    # only representations at stabilizer elements.  The CLI imports no
    # private name from groups either.
    def private(module, source):
        tree = ast.parse(inspect.getsource(module))
        names = [a.name for n in ast.walk(tree)
                 if isinstance(n, ast.ImportFrom) and n.module == source
                 for a in n.names if a.name.startswith("_")]
        return names + [
            n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr.startswith("_")
            and isinstance(n.value, ast.Name) and n.value.id == source]
    for module in (steering, stabilizer_solver, verify, cli):
        assert not private(module, "irreps"), module.__name__
    assert not private(cli, "groups")
    tree = ast.parse(inspect.getsource(steering))
    names = {n.id if isinstance(n, ast.Name) else n.attr
             for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute))}
    assert not names & {"SO2", "O2", "SO3", "O3", "LORENTZ"}
    # _runs is the one representation stream of the steering paths.
    assert {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
            and any(isinstance(n, ast.Name) and n.id == "rep_pair"
                    for n in ast.walk(f))} == {"_runs"}
    callers, pair = [], rep_pair

    def counted(j, l, params):
        frame = inspect.currentframe().f_back
        while frame is not None:
            callers.append(frame.f_code.co_name)
            frame = frame.f_back
        return pair(j, l, params)

    monkeypatch.setattr(steering, "rep_pair", counted)
    assert not hasattr(stabilizer_solver, "rep_pair")
    so3, cone = bases.basis_so3(1, 1), bases.basis_lorentz_massless(1)
    paths = [
        (lambda: steer(np.eye(3), so3[0].j, so3[0].l, [[0.1, 0.2, 0.3]]),
         "steer"),
        (lambda: list(steering.section_pieces(so3, [[0.1, 0.2]])), "_pieces"),
        (lambda: verify.max_steer_residual(so3, Sphere(), n_g=2, n_x=2,
                                           seed=0), "max_steer_residual"),
        (lambda: verify.max_steer_residual(cone, NullCone(), n_g=2, n_x=2,
                                           seed=0), "max_steer_residual"),
    ]
    for run, caller in paths:
        callers.clear()
        run()
        assert caller in callers, (caller, callers)
