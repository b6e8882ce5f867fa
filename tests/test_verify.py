import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from steerkit import analytic_bases as bases
from steerkit import groups, steering, verify
from steerkit.analytic_bases import KernelBasisElement
from steerkit.groups import (Circle, GroupError, MassiveHyperboloid, NullCone,
                             Sphere)
from steerkit.irreps import (MAX_L, dirac_irrep, o2_irrep, o3_irrep,
                             rep_pair, so2_irrep, so3_irrep,
                             spinor_vector_irrep, tensor_irrep)
from steerkit.verify import (check_case, check_projectors, compact_case_grid,
                             equivariance_demo, gauge_shift_residual,
                             negative_control_residual, run_suite)


def test_check_case_so2_real_23():
    rep = check_case(so2_irrep(2), so2_irrep(3), Circle())
    assert rep.oracle_dim == rep.predicted_dim == rep.analytic_count == 4
    assert rep.span_angle <= 1e-8
    assert rep.max_steer_residual <= 1e-10
    assert rep.passed


def test_check_case_o2_empty_is_vacuous_pass():
    rep = check_case(o2_irrep(0), o2_irrep("0~"), Circle())
    assert rep.oracle_dim == rep.predicted_dim == rep.analytic_count == 0
    assert rep.passed


def test_check_case_so3_real_22():
    rep = check_case(so3_irrep(2), so3_irrep(2), Sphere())
    assert rep.oracle_dim == rep.predicted_dim == rep.analytic_count == 5
    assert rep.passed


@pytest.mark.parametrize("j,l", [
    (so3_irrep(MAX_L), so3_irrep(MAX_L)),
    (o3_irrep(MAX_L, 1, "complex"), o3_irrep(MAX_L - 1, -1, "complex")),
], ids=["so3 real 32/32", "o3 complex 32+/31-"])
def test_check_case_passes_at_the_largest_label(j, l):
    # The largest SO(3)/O(3) labels that the API accepts keep their counts,
    # spans and steer gate.
    rep = check_case(j, l, Sphere())
    assert rep.oracle_dim == rep.predicted_dim == rep.analytic_count
    assert rep.passed, rep


def _landing(group, orbit, coords, targets):
    """Parameters of elements g, one per point x and target, that move x
    onto a section's singular set: on the circle to the angle t, elsewhere
    to the polar angle t at alpha = 0, by Ry(t - beta) Rz(-alpha); on the
    hyperboloid the target None is the rest frame, by B(-eta n), which
    undoes the section R(alpha, beta, 0) Bz(eta).  O(2) and O(3) also take
    the reflected elements, which land on t, or on the antipode."""
    pairs = []
    for x, p in zip(coords, groups.section_params(orbit, coords, group)):
        for t in targets:
            if isinstance(orbit, Circle):
                pairs += [((t - x[0],), 1.0), ((t + x[0],), -1.0)]
            elif t is None:
                n = x[1:] / np.linalg.norm(x[1:])
                pairs.append(((0.0, 0.0, 0.0, *(-p[5] * n)), 1.0))
            else:
                turn = (0.0, t - p[1], -p[0])
                if group == groups.LORENTZ:
                    turn += (0.0, 0.0, 0.0)
                pairs += [(turn, 1.0), (turn, -1.0)]
    if group in (groups.O2, groups.O3):
        return np.array([g + (sign,) for g, sign in pairs])
    return np.array([g for g, sign in pairs if sign > 0])


@pytest.mark.parametrize("elements", [
    bases.basis_so2(3, 1), bases.basis_o2(2, 1),
    bases.basis_o2(2, "0~", "complex"), bases.basis_so3(2, 1),
    bases.basis_so3(2, 2, "complex"), bases.basis_o3(2, -1, 1, 1),
    bases.lorentz_massive_basis(tensor_irrep(2, 0), tensor_irrep(1, 0)),
    bases.lorentz_massive_basis(dirac_irrep(realified=True),
                                dirac_irrep(realified=True)),
], ids=["so2 3/1", "o2 2/1", "o2 complex 2/0~", "so3 2/1",
        "so3 complex 2/2", "o3 2-/1+", "tensor20/vec", "dirac realified"])
def test_steering_holds_where_g_x_is_on_a_singular_set(elements):
    # K(g.x) from the section at g.x equals rho_j(g) K(x) rho_l(g)^-1 when
    # g.x sits on a section's singular set: at beta = 0 and pi, 1e-9 off a
    # pole, the circle's wrap point and the hyperboloid's rest frame, each
    # g closed-form parameters and g.x the library's own action.
    e0 = elements[0]
    orbit, j, l = e0.orbit, e0.j, e0.l
    poles = [0.0, math.pi, 1e-9, math.pi - 1e-9]
    targets = (poles + [-1e-9] if isinstance(orbit, Circle) else
               poles + [None] if isinstance(orbit, MassiveHyperboloid)
               else poles)
    coords = groups.random_orbit_coords(orbit, np.random.default_rng(41), 3)
    gs = _landing(j.group, orbit, coords, targets)
    xs = np.repeat(coords, len(gs) // len(coords), axis=0)
    moved = groups.act_points(j.group, gs, orbit, xs)
    # Every g.x is within 1e-8 of the z axis, or of the circle's 0 and pi.
    off = (np.abs(np.sin(moved[:, 0])) if isinstance(orbit, Circle) else
           np.sin(moved[:, 1]) if isinstance(orbit, Sphere) else
           np.hypot(moved[:, 1], moved[:, 2]) / moved[:, 0])
    assert (off <= 1e-8).all(), moved
    at_gx = steering.section_kernels(elements, moved)
    at_x = steering.section_kernels(elements, xs)
    for b in range(len(elements)):
        for i, g in enumerate(gs):
            steered = steering.steer(at_x[b, i], j, l, [g])[0]
            scale = max(1.0, np.linalg.norm(at_x[b, i]))
            resid = np.linalg.norm(at_gx[b, i] - steered) / scale
            assert resid <= verify.RESIDUAL_TOL, (e0.kind, moved[i], resid)


def test_check_case_dirac_subset():
    rep = check_case(dirac_irrep(True), dirac_irrep(True),
                     MassiveHyperboloid())
    assert rep.oracle_dim == rep.predicted_dim == 16
    assert rep.analytic_count == 8
    assert rep.containment_residual <= 1e-10
    assert rep.passed


def test_check_case_massless():
    rep = check_case(tensor_irrep(2, 0), tensor_irrep(2, 0), NullCone())
    assert rep.oracle_dim == rep.predicted_dim == 70
    assert rep.analytic_count == 1
    assert rep.passed


def test_projector_report_tolerances():
    res = check_projectors(seed=3)
    assert max(res.values()) <= 1e-11
    # exact traces at the base point
    from steerkit import analytic_bases as bases
    u0 = np.array([1.0, 0, 0, 0])
    assert np.trace(bases.transverse_projector(u0)) == 3.0
    assert abs(np.trace(bases.spin2_projector(u0)) - 5.0) < 1e-14
    n0 = np.array([1.0, 0, 0, 1.0])
    assert np.trace(
        bases.massless_transverse_projector(n0, bases.NBAR0)) == 2.0


def test_gauge_residual():
    assert gauge_shift_residual(seed=5) <= 1e-11


def test_equivariance_demo_identity_and_aligned():
    assert equivariance_demo(1, 1, 64, 0, seed=0) == 0.0
    assert equivariance_demo(1, 1, 64, 9, seed=0) <= 1e-10
    assert equivariance_demo(0, 1, 64, 5, seed=1) <= 1e-10


def test_equivariance_demo_negative_control():
    assert equivariance_demo(1, 1, 64, 9, seed=0, kernel="control") >= 0.05


def test_equivariance_demo_validation():
    with pytest.raises(ValueError):
        equivariance_demo(1, 1, 16, 0)
    with pytest.raises(ValueError):
        equivariance_demo(1, 1, 64, 0, kernel="bogus")


def test_negative_control_is_large():
    assert negative_control_residual(0) >= 0.05


def test_max_steer_residual_detects_non_steerable_kernels():
    # A fixed random base matrix is not stabilizer-invariant, so the kernel
    # at g.x and the steered kernel at x disagree; the stacked check must
    # see that and not compare a stack with itself.  On the null cone the
    # steered kernel is compared with the closed form.
    rng = np.random.default_rng(3)
    vec, t20 = tensor_irrep(1, 0), tensor_irrep(2, 0)
    cases = [
        (so3_irrep(1), so3_irrep(1), Sphere()),
        (o3_irrep(1, 1), o3_irrep(1, -1), Sphere()),
        (vec, vec, MassiveHyperboloid()),
        (vec, vec, NullCone()),
        (t20, t20, NullCone()),
    ]
    for j, l, orbit in cases:
        elem = KernelBasisElement(j, l, orbit, "random",
                                  rng.normal(size=(j.dim, l.dim)))
        assert verify.max_steer_residual([elem], orbit, n_g=4, n_x=3,
                                         seed=5) >= 0.05


def test_compact_case_grid_sizes():
    assert len(compact_case_grid("so2", 2, ("real",))) == 9
    assert len(compact_case_grid("o2", 2, ("real",))) == 16
    assert len(compact_case_grid("o3", 1, ("real",))) == 16


def test_run_suite_passes_and_is_deterministic():
    rep1 = run_suite(seed=11, group="so2")
    rep2 = run_suite(seed=11, group="so2")
    assert rep1["all_passed"]
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    # a different seed still passes but draws different randomness
    rep3 = run_suite(seed=12, group="so2")
    assert rep3["all_passed"]


def test_run_suite_rejects_negative_seed(monkeypatch):
    def no_case(*args, **kwargs):
        raise AssertionError("a case ran before the seed was checked")
    monkeypatch.setattr(verify, "check_case", no_case)
    for group in (None, "so2", "lorentz"):
        with pytest.raises(ValueError, match="seed .* got -1"):
            run_suite(-1, group)


def test_run_suite_lorentz_block():
    rep = run_suite(seed=2, group="lorentz")
    assert rep["all_passed"]
    assert max(rep["projectors"].values()) <= 1e-11
    assert rep["gauge_residual"] <= 1e-11
    json.dumps(rep)  # must be JSON-serializable


def test_sweeps_reject_invalid_caps_and_counts():
    so3 = bases.basis_so3(1, 1)
    t20 = tensor_irrep(2, 0)
    massive = bases.lorentz_massive_basis(t20, t20)
    cone = bases.basis_lorentz_massless(1)
    sweeps = [
        lambda **kw: verify.max_steer_residual(so3, Sphere(), **kw),
        lambda **kw: verify.max_steer_residual(massive, MassiveHyperboloid(),
                                               **kw),
        lambda **kw: verify.max_steer_residual(cone, NullCone(), **kw),
    ]
    for sweep in sweeps:
        for n_g, n_x in ((-1, 3), (3, -1), (-1, 0)):
            with pytest.raises(ValueError, match="draw counts"):
                sweep(n_g=n_g, n_x=n_x, seed=0)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(GroupError, match="eta_max"):
                sweep(n_g=2, n_x=2, seed=0, eta_max=bad)
        # zero counts are a vacuous pass and a zero cap a valid sweep
        assert sweep(n_g=0, n_x=3, seed=0) == sweep(n_g=3, n_x=0, seed=0) == 0.0
        assert sweep(n_g=2, n_x=2, seed=0, eta_max=0.0) <= 1e-10


def _count_calls(monkeypatch, names) -> dict:
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(groups, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(groups, name, counted)
    return counts


@pytest.mark.parametrize("elements", [
    bases.basis_so3(2, 3),
    bases.lorentz_massive_basis(spinor_vector_irrep(True),
                                spinor_vector_irrep(True)),
], ids=["so3 2/3", "spinor-vector"])
def test_sweep_acts_and_sections_once_per_call(elements, monkeypatch):
    # The draws, the action and the coset sections run on whole stacks, so
    # their call counts do not grow with the number of group elements.
    names = ("act_points", "section_params", "random_params",
             "random_orbit_coords")
    orbit = elements[0].orbit
    seen = []
    for n_g in (10, 50):
        counts = _count_calls(monkeypatch, names)
        verify.max_steer_residual(elements, orbit, n_g=n_g, n_x=20, seed=1)
        seen.append(counts)
        monkeypatch.undo()
    assert seen[0] == seen[1]
    assert all(count >= 1 for count in seen[0].values())


@pytest.mark.parametrize("elements", [
    bases.basis_o2(1, 2),
    bases.basis_so3(2, 1),
    bases.lorentz_massive_basis(tensor_irrep(2, 0), tensor_irrep(1, 0)),
    bases.basis_lorentz_massless(2),
], ids=["circle", "sphere", "hyperboloid", "cone"])
def test_sweep_fails_a_basis_with_one_perturbed_base_matrix(elements):
    # One base matrix moved by 1e-8 off the stabilizer constraint, in the
    # middle of the stack the whole-basis products lay side by side, makes
    # the sweep fail; the basis as built passes.
    rng = np.random.default_rng(29)
    orbit, i = elements[0].orbit, len(elements) // 2
    e = elements[i]
    moved = dataclasses.replace(e, base_matrix=e.base_matrix + 1e-8 * rng.normal(
        size=e.base_matrix.shape))
    bad = elements[:i] + [moved] + elements[i + 1:]
    assert verify.max_steer_residual(elements, orbit, n_g=50, n_x=20,
                                     seed=4) <= verify.RESIDUAL_TOL
    assert verify.max_steer_residual(bad, orbit, n_g=50, n_x=20,
                                     seed=4) > 10 * verify.RESIDUAL_TOL


def test_cone_sweep_compares_spin1_sections_with_the_gauge_span(monkeypatch):
    # On the null cone the spin-1 section side may differ from the steered
    # side only by the gauge span at g.x.  Tilting the sweep's sections of
    # the g.x (rows n_x on of its one section_params call) by 1e-3 in beta
    # leaves the steered side and its closed form alone, so only the gauge
    # comparison can see it.
    vec, section = bases.basis_lorentz_massless(1), groups.section_params
    n_g, n_x = 5, 3
    assert verify.max_steer_residual(vec, NullCone(), n_g, n_x,
                                     seed=4) <= verify.RESIDUAL_TOL

    def tilted(orbit, coords, group=None):
        params = section(orbit, coords, group)
        params[n_x:, 1] += 1e-3
        return params

    monkeypatch.setattr(groups, "section_params", tilted)
    assert verify.max_steer_residual(vec, NullCone(), n_g, n_x,
                                     seed=4) >= 1e-4


_SV = spinor_vector_irrep(True)
_SV_BASIS = bases.lorentz_massive_basis(_SV, _SV)


def test_spinor_vector_sweep_evaluates_representations_in_blocks(monkeypatch):
    # The 1000 sections of g.x and the 50 elements are evaluated in blocks
    # whose forward and inverse representations fit the chunk budget
    # together, not in the ~100 fragments of 16 and 4 that a chunk of one
    # element's kernels allows.  Only the last block of each run of points
    # and the 20 points of section_kernels may be short.
    calls = []

    def counted_reps(j, l, params):
        calls.append(len(params))
        return rep_pair(j, l, params)

    monkeypatch.setattr(steering, "rep_pair", counted_reps)
    verify.max_steer_residual(_SV_BASIS, MassiveHyperboloid(), n_g=50,
                              n_x=20, seed=2)
    full = steering.chunk_length(2 * steering._rep_bytes(_SV, _SV))
    assert max(calls) <= full
    assert len([n for n in calls if n < full // 2]) <= 3
    assert len(calls) <= 24


def test_spinor_vector_sweep_peak_stays_within_six_chunks():
    # Three chunk buffers, the kernels at x, the representations of the 50
    # elements and a block of the sections' ones: the traced peak stays
    # within six chunk budgets.
    verify.max_steer_residual(_SV_BASIS, MassiveHyperboloid(), n_g=50,
                              n_x=20, seed=2)
    tracemalloc.start()
    try:
        verify.max_steer_residual(_SV_BASIS, MassiveHyperboloid(), n_g=50,
                                  n_x=20, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * steering.CHUNK_BYTES


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("elements", [
    bases.basis_so3(2, 1),
    bases.basis_o2(1, 2),
    bases.lorentz_massive_basis(tensor_irrep(2, 0), tensor_irrep(1, 0)),
    bases.basis_lorentz_massless(1),
], ids=["sphere", "circle", "hyperboloid", "cone"])
def test_non_finite_base_matrices_fail_the_steer_gate(elements, bad,
                                                      monkeypatch):
    # A residual that is not a number propagates through the running
    # maximum, so a basis whose base matrices are all NaN or inf, or with
    # one such element, fails the steer gate of the sweep and of
    # check_case; skipping NaN read 0.0 for every one of them.
    def poisoned(e):
        return dataclasses.replace(e, base_matrix=np.full_like(e.base_matrix,
                                                               bad))
    orbit, j, l = elements[0].orbit, elements[0].j, elements[0].l
    for basis in ([poisoned(e) for e in elements],
                  elements[:-1] + [poisoned(elements[-1])]):
        with np.errstate(invalid="ignore", over="ignore"):
            residual = verify.max_steer_residual(
                basis, orbit, *verify.SUITE_DRAWS, seed=1)
            assert not residual <= verify.RESIDUAL_TOL
            monkeypatch.setattr(verify.bases, "basis_for",
                                lambda *args, _b=basis: _b)
            report = check_case(j, l, orbit, seed=1)
        assert not report.max_steer_residual <= verify.RESIDUAL_TOL
        assert not report.passed


def _record_rep_calls(monkeypatch) -> list:
    calls = []

    def counted(j, l, params):
        calls.append(len(params))
        return rep_pair(j, l, params)

    monkeypatch.setattr(steering, "rep_pair", counted)
    return calls


@pytest.mark.parametrize("elements", [
    bases.basis_o2(1, 2),
    bases.basis_so3(2, 1, "complex"),
    bases.lorentz_massive_basis(tensor_irrep(2, 0), tensor_irrep(1, 0)),
    bases.basis_lorentz_massless(1),
    bases.basis_lorentz_massless(2),
], ids=["circle", "sphere", "hyperboloid", "cone vector", "cone tensor20"])
def test_suite_draws_evaluate_representations_once(elements, monkeypatch):
    # One rep_pair evaluation covers every representation of a suite-size
    # sweep, on every orbit: the sections of the n_x points, the elements
    # and the sections of the n_g x n_x points g.x.
    calls = _record_rep_calls(monkeypatch)
    n_g, n_x = verify.SUITE_DRAWS
    verify.max_steer_residual(elements, elements[0].orbit, n_g, n_x, seed=6)
    assert calls == [n_x + n_g + n_g * n_x]


@pytest.mark.parametrize("elements,before", [
    (bases.basis_so3(4, 4, "complex"), 5),
    (bases.basis_so3(4, 2, "complex"), 6),
    (bases.basis_so3(2, 3), 4),
    (bases.lorentz_massive_basis(tensor_irrep(2, 0), tensor_irrep(2, 0)), 7),
    (_SV_BASIS, 21),
    (bases.basis_lorentz_massless(1), 3),
    (bases.basis_lorentz_massless(2), 5),
], ids=["so3 complex 4/4", "so3 complex 4/2", "so3 2/3", "tensor20",
        "spinor-vector", "cone vector", "cone tensor20"])
def test_sweep_draws_make_no_more_evaluations(elements, before, monkeypatch):
    # A (50, 20) sweep makes no more rep_pair calls than the sweeps made
    # when the elements, the sections of x and those of g.x were evaluated
    # apart (``before``).
    calls = _record_rep_calls(monkeypatch)
    verify.max_steer_residual(elements, elements[0].orbit, n_g=50, n_x=20,
                              seed=2)
    assert 1 <= len(calls) <= before
