"""Acceptance suite: one test per criterion, each prints a PASS/FAIL line.

The full grid is SO(2)/O(2) with labels up to 8 and SO(3)/O(3) up to 4 (all
parities), both scalar fields, plus the Lorentz massive blocks (spins 0, 1 in
three tensor placements, 2, 1/2, 3/2) and the massless spin-1/2 transverse
projectors.  Tolerances are fixed here and nowhere else.
"""

import numpy as np

from steerkit import analytic_bases as bases
from steerkit import groups, numerics, stabilizer_solver, verify
from steerkit.cli import main as cli_main
from steerkit.groups import Circle, MassiveHyperboloid, NullCone, Sphere
from steerkit.irreps import (dirac_irrep, so2_irrep, so3_irrep,
                             spinor_vector_irrep, tensor_irrep)

SPAN_TOL = 1e-8
STEER_TOL = 1e-10
PROJECTOR_TOL = 1e-11
DEMO_TOL = 1e-10
CONTROL_MIN = 0.05
ETA_MAX = 2.0

JMAX_2D = 8
JMAX_3D = 4


def _report(num, name, ok):
    print(f"ACCEPTANCE {num}: {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _compact_grid():
    cases = []
    for g, jmax in (("so2", JMAX_2D), ("o2", JMAX_2D),
                    ("so3", JMAX_3D), ("o3", JMAX_3D)):
        cases.extend(verify.compact_case_grid(g, jmax))
    return cases


def _lorentz_cases():
    vec, t20 = tensor_irrep(1, 0), tensor_irrep(2, 0)
    mh = MassiveHyperboloid()
    return [
        (vec, vec, mh), (vec, t20, mh), (t20, vec, mh), (t20, t20, mh),
        (dirac_irrep(True), dirac_irrep(True), mh),
        (spinor_vector_irrep(True), spinor_vector_irrep(True), mh),
        (vec, vec, NullCone()), (t20, t20, NullCone()),
    ]


def test_criterion_1_dimension_table():
    """Oracle dimension == predicted dimension == analytic count, exactly."""
    from steerkit.irreps import o2_irrep, o3_irrep
    bad = []
    counts = {}
    for j, l, orbit in _compact_grid():
        oracle = stabilizer_solver.solve_basepoint(j, l, orbit).dimension
        predicted = stabilizer_solver.predicted_dimension(j, l, orbit)
        analytic = len(bases.basis_for(j, l, orbit))
        counts[(str(j), str(l))] = oracle
        if not oracle == predicted == analytic:
            bad.append((str(j), str(l), oracle, predicted, analytic))
    if bad:
        print(bad[:10])
    # the named closed-form values
    named = (
        counts[(str(so2_irrep(2)), str(so2_irrep(3)))] == 4
        and counts[(str(o2_irrep(0)), str(o2_irrep("0~")))] == 0
        and counts[(str(o2_irrep(3)), str(o2_irrep(5)))] == 2
        and all(counts[(str(so3_irrep(a, f)), str(so3_irrep(b, f)))]
                == 2 * min(a, b) + 1
                for f in ("real", "complex")
                for a in range(JMAX_3D + 1) for b in range(JMAX_3D + 1))
        and counts[(str(o3_irrep(2, 1)), str(o3_irrep(3, 1)))] == 3
    )
    _report(1, "dimension table (compact grid, integer equality)",
            not bad and named)


def test_criterion_2_steerability_residual():
    """Relative steerability defect <= 1e-10 over 50 x 20 random draws."""
    worst = 0.0
    for idx, (j, l, orbit) in enumerate(_compact_grid()):
        els = bases.basis_for(j, l, orbit)
        worst = max(worst, verify.max_steer_residual(
            els, orbit, n_g=50, n_x=20, seed=idx))
        if worst > STEER_TOL:
            print("first failure at", str(j), str(l), worst)
            break
    lorentz_worst = 0.0
    if worst <= STEER_TOL:
        for idx, (j, l, orbit) in enumerate(_lorentz_cases()):
            if j.spinor == "spinor_vector":
                els = bases.lorentz_massive_basis(j, l)
            else:
                els = bases.basis_for(j, l, orbit)
            lorentz_worst = max(lorentz_worst, verify.max_steer_residual(
                els, orbit, n_g=50, n_x=20, seed=1000 + idx,
                eta_max=ETA_MAX))
    ok = worst <= STEER_TOL and lorentz_worst <= STEER_TOL
    print(f"  compact worst {worst:.2e}, lorentz worst {lorentz_worst:.2e}")
    _report(2, "steerability residual <= 1e-10", ok)


def test_criterion_3_span_equivalence():
    """Principal angle between analytic span and oracle nullspace <= 1e-8."""
    worst = 0.0
    for j, l, orbit in _compact_grid():
        space = stabilizer_solver.solve_basepoint(j, l, orbit)
        els = bases.basis_for(j, l, orbit)
        vecs = np.column_stack(
            [e.base_matrix.ravel() for e in els]) if els else \
            np.zeros((j.dim * l.dim, 0))
        span = numerics.orthonormal_columns(vecs.astype(space.basis.dtype))
        angle, mismatch = numerics.principal_angle_distance(span, space.basis)
        assert not mismatch
        worst = max(worst, angle)
    print(f"  worst span angle {worst:.2e}")
    _report(3, "span equivalence <= 1e-8", worst <= SPAN_TOL)


def test_criterion_4_lorentz_projector_algebra():
    """Idempotence, annihilation and trace identities, residuals <= 1e-11."""
    worst = 0.0
    for seed in range(5):
        res = verify.check_projectors(seed=seed, eta_max=ETA_MAX)
        worst = max(worst, max(res.values()))
    print(f"  worst projector residual {worst:.2e}")
    _report(4, "Lorentz projector algebra <= 1e-11", worst <= PROJECTOR_TOL)


def test_criterion_5_massless_gauge_check():
    """Gauge-shifted transverse projectors differ only inside the gauge
    span, 10 random parameters."""
    resid = verify.gauge_shift_residual(seed=0, eta_max=ETA_MAX)
    print(f"  gauge residual {resid:.2e}")
    _report(5, "massless gauge covariance <= 1e-11", resid <= PROJECTOR_TOL)


def test_criterion_6_complex_real_reconciliation():
    """SO(2): the real solver sees half of the doubled complex parameters;
    SO(3): real dimension equals complex dimension."""
    circle, sphere = Circle(), Sphere()
    ok = True
    for j in range(1, JMAX_2D + 1):
        for l in range(1, JMAX_2D + 1):
            real_dim = stabilizer_solver.solve_basepoint(
                so2_irrep(j), so2_irrep(l), circle).dimension
            c_pair = stabilizer_solver.solve_basepoint(
                so2_irrep(j, "complex"), so2_irrep(l, "complex"),
                circle).dimension
            c_anti = stabilizer_solver.solve_basepoint(
                so2_irrep(j, "complex"), so2_irrep(-l, "complex"),
                circle).dimension
            ok = ok and real_dim == 2 * c_pair + 2 * c_anti == 4
    for j in range(JMAX_3D + 1):
        for l in range(JMAX_3D + 1):
            dr = stabilizer_solver.solve_basepoint(
                so3_irrep(j), so3_irrep(l), sphere).dimension
            dc = stabilizer_solver.solve_basepoint(
                so3_irrep(j, "complex"), so3_irrep(l, "complex"),
                sphere).dimension
            ok = ok and dr == dc == 2 * min(j, l) + 1
    _report(6, "complex/real parameter reconciliation", ok)


def test_criterion_7_equivariance_demo():
    """Aligned rotations commute with the discretized convolution to 1e-10
    at N = 256; the non-steerable control does not."""
    worst = 0.0
    for (j, l), steps in (((0, 1), 11), ((1, 1), 7), ((2, 3), 19)):
        worst = max(worst, verify.equivariance_demo(j, l, 256, steps, seed=0))
    control = verify.equivariance_demo(1, 1, 256, 7, seed=0, kernel="control")
    print(f"  aligned worst {worst:.2e}, control {control:.2f}")
    _report(7, "equivariance demo", worst <= DEMO_TOL
            and control >= CONTROL_MIN)


def test_criterion_8_determinism(capsys):
    """`verify --seed S` emits byte-identical reports across two runs."""
    ok = True
    for argv in (["verify", "--seed", "7"],
                 ["verify", "--group", "lorentz", "--seed", "7"]):
        code1 = cli_main(list(argv))
        out1 = capsys.readouterr().out
        code2 = cli_main(list(argv))
        out2 = capsys.readouterr().out
        ok = ok and code1 == code2 == 0 and out1.encode() == out2.encode()
    _report(8, "deterministic verify reports", ok)
