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
from steerkit.irreps import (dirac_irrep, o2_irrep, o3_irrep, so2_irrep,
                             so3_irrep, spinor_vector_irrep, tensor_irrep)
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
    # see that and not compare a stack with itself.
    rng = np.random.default_rng(3)
    cases = [
        (so3_irrep(1), so3_irrep(1), Sphere()),
        (o3_irrep(1, 1), o3_irrep(1, -1), Sphere()),
        (tensor_irrep(1, 0), tensor_irrep(1, 0), MassiveHyperboloid()),
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
        lambda **kw: verify.massless_steer_residual(cone[0], **kw),
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


_SV = spinor_vector_irrep(True)
_SV_BASIS = bases.lorentz_massive_basis(_SV, _SV)


def test_spinor_vector_sweep_evaluates_representations_in_blocks(monkeypatch):
    # The 1000 sections of g.x and the 50 elements are evaluated in blocks
    # whose forward and inverse representations fit the chunk budget
    # together, not in the ~100 fragments of 16 and 4 that a chunk of one
    # element's kernels allows.  Only the last block of each run of points
    # and the 20 points of section_kernels may be short.
    calls, reps = [], steering._reps

    def counted_reps(j, l, params):
        calls.append(len(params))
        return reps(j, l, params)

    monkeypatch.setattr(steering, "_reps", counted_reps)
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
