import json

import numpy as np
import pytest

from steerkit import verify
from steerkit.analytic_bases import KernelBasisElement
from steerkit.groups import Circle, MassiveHyperboloid, NullCone, Sphere
from steerkit.irreps import (dirac_irrep, o2_irrep, o3_irrep, so2_irrep,
                             so3_irrep, tensor_irrep)
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


def test_run_suite_lorentz_block():
    rep = run_suite(seed=2, group="lorentz")
    assert rep["all_passed"]
    assert max(rep["projectors"].values()) <= 1e-11
    assert rep["gauge_residual"] <= 1e-11
    json.dumps(rep)  # must be JSON-serializable
