"""Property-check harness.

Binds the numerical oracle, the analytic bases and the steering engine into
per-case pass/fail reports, runs the Lorentz projector identities and the
massless gauge check, and provides a discretized circle-convolution
equivariance demo.  Everything is seeded and deterministic: the same seed
yields a byte-identical report.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import analytic_bases as bases
from . import groups, numerics, stabilizer_solver, steering
from .groups import Circle, MassiveHyperboloid, NullCone, Orbit, Sphere
from .irreps import (COMPLEX, REAL, IrrepLabel, dirac_irrep, o2_irrep,
                     o3_irrep, so2_irrep, so3_irrep, spinor_vector_irrep,
                     tensor_irrep)

SPAN_TOL = 1e-8
RESIDUAL_TOL = 1e-10
PROJECTOR_TOL = 1e-11
INDEPENDENCE_TOL = 1e-8


@dataclass
class CaseReport:
    """Cross-check summary for one (j, l, orbit) case."""

    group: str
    field: str
    j: str
    l: str
    orbit: str
    oracle_dim: int
    predicted_dim: int
    analytic_count: int
    max_steer_residual: float
    independence_ratio: float
    span_angle: Optional[float] = None
    containment_residual: Optional[float] = None
    passed: bool = False


def _orbit_tag(orbit: Orbit) -> str:
    if isinstance(orbit, Circle):
        return f"circle(R={orbit.radius:g})"
    if isinstance(orbit, Sphere):
        return f"sphere(R={orbit.radius:g})"
    if isinstance(orbit, MassiveHyperboloid):
        return f"massive(m={orbit.mass:g})"
    return "nullcone"


def _vec_stack(elements, ambient: int) -> np.ndarray:
    cols = [numerics.vec(e.base_matrix) for e in elements]
    return np.column_stack(cols) if cols else np.zeros((ambient, 0))


def independence_ratio(elements) -> float:
    """min/max eigenvalue ratio of the Gram matrix of the base matrices."""
    if len(elements) < 2:
        return 1.0
    a = _vec_stack(elements, elements[0].j.dim * elements[0].l.dim)
    gram = a.conj().T @ a
    w = np.linalg.eigvalsh(gram.real if not np.iscomplexobj(gram) else gram)
    return float(w[0] / w[-1])


def max_steer_residual(elements, orbit: Orbit, n_g: int, n_x: int,
                       seed: int, eta_max: float = 2.0) -> float:
    """Worst relative steerability defect over random (g, x) draws.

    For each g the kernels at g.x, evaluated through the coset section, are
    compared with the kernels at x steered by g.  On the null cone the
    kernel is well defined only modulo the gauge choice of the auxiliary
    null vector, so the massless cases are dispatched to
    :func:`massless_steer_residual`.
    """
    if not elements:
        return 0.0
    if isinstance(orbit, NullCone):
        return massless_steer_residual(elements[0], n_g, n_x, seed, eta_max)
    rng = np.random.default_rng(seed)
    j, l = elements[0].j, elements[0].l
    xs = [groups.random_orbit_point(orbit, rng, eta_max) for _ in range(n_x)]
    kx = steering.kernels_at(elements, xs)
    # Per-kernel 2-D norms: a norm over axis=(-2, -1) sums in another order.
    scales = [[max(1.0, np.linalg.norm(k)) for k in row] for row in kx]
    worst = 0.0
    for _ in range(n_g):
        g = groups.random_element(j.group, rng, eta_max=eta_max)
        kgx = steering.kernels_at(elements, [groups.act(g, x) for x in xs])
        steered = steering.steer(kx, j, l, g)
        for b, srow in enumerate(scales):
            for p, scale in enumerate(srow):
                resid = np.linalg.norm(kgx[b, p] - steered[b, p]) / scale
                worst = max(worst, resid)
    return float(worst)


def _gauge_span(n: np.ndarray, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the massless gauge span, vectorized: the
    symmetrized ``n (x) e_i`` and ``n (x) n`` with the second index lowered."""
    span = np.column_stack([
        numerics.vec(np.outer(n, groups.ETA @ e1) + np.outer(e1, groups.ETA @ n)),
        numerics.vec(np.outer(n, groups.ETA @ e2) + np.outer(e2, groups.ETA @ n)),
        numerics.vec(np.outer(n, groups.ETA @ n)),
    ])
    return numerics.orthonormal_columns(span)


def massless_steer_residual(elem, n_g: int, n_x: int, seed: int,
                            eta_max: float = 2.0) -> float:
    """Steerability of the massless kernels, modulo the gauge freedom.

    The steered kernel ``rho(g) K(x) rho(g)^-1`` transports the auxiliary
    null vector along with the group element, so it must equal the covariant
    projector built from ``(n(g.x), g . nbar(x))`` exactly; the section value
    at g.x uses the section's own nbar and may differ from the steered one
    only inside the gauge span ``{n e_i + e_i n, n n}``.  Both residuals are
    folded into the returned maximum.
    """
    rng = np.random.default_rng(seed)
    spin = 1 if elem.j.tensor == (1, 0) else 2
    build = (bases.massless_transverse_projector if spin == 1
             else bases.massless_spin2_projector)
    worst = 0.0
    for _ in range(n_x):
        x = groups.random_orbit_point(NullCone(), rng, eta_max)
        lam_x = groups.coset_representative(x, groups.LORENTZ).matrix
        kx = elem.at(x)
        scale = max(1.0, np.linalg.norm(kx))
        for _ in range(n_g):
            g = groups.random_element(groups.LORENTZ, rng, eta_max=eta_max)
            gx = groups.act(g, x)
            steered = steering.steer(kx, elem.j, elem.l, g)
            nbar_t = g.matrix @ (lam_x @ bases.NBAR0)
            direct = build(np.asarray(gx.vector), nbar_t)
            worst = max(worst, np.linalg.norm(steered - direct) / scale)
            if spin == 1:
                # section value vs steered: difference must be pure gauge
                lam_gx = groups.coset_representative(gx, groups.LORENTZ).matrix
                n_new = np.asarray(gx.vector)
                e1, e2 = (lam_gx @ v for v in bases.TRANSVERSE0)
                diff = numerics.vec(elem.at(gx) - steered).reshape(-1, 1)
                if np.linalg.norm(diff) > 1e-12 * scale:
                    worst = max(worst, numerics.projection_residual(
                        diff, _gauge_span(n_new, e1, e2)))
    return float(worst)


def check_case(j: IrrepLabel, l: IrrepLabel, orbit: Orbit, seed: int = 0,
               n_g: int = 6, n_x: int = 4) -> CaseReport:
    """Full cross-check of one case: counts, spans and steerability.

    The analytic count must equal the oracle dimension except for the two
    families where the closed forms cover a proper subspace: the spinor
    blocks (eight quaternion x energy elements out of the quaternionic
    commutant) and the massless kernels (one gauge-fixed projector); those
    are checked by containment instead of span equality.
    """
    space = stabilizer_solver.solve_basepoint(j, l, orbit)
    predicted = stabilizer_solver.predicted_dimension(j, l, orbit)
    elements = bases.basis_for(j, l, orbit)
    report = CaseReport(
        group=j.group, field=j.field, j=str(j), l=str(l),
        orbit=_orbit_tag(orbit), oracle_dim=space.dimension,
        predicted_dim=predicted, analytic_count=len(elements),
        max_steer_residual=max_steer_residual(elements, orbit, n_g, n_x, seed),
        independence_ratio=independence_ratio(elements),
    )
    subset_family = j.spinor is not None or isinstance(orbit, NullCone)
    vecs = _vec_stack(elements, j.dim * l.dim).astype(space.basis.dtype)
    if len(elements) == space.dimension:
        analytic_span = numerics.orthonormal_columns(vecs)
        angle, mismatch = numerics.principal_angle_distance(
            analytic_span, space.basis)
        report.span_angle = angle if not mismatch else math.pi / 2
        span_ok = report.span_angle <= SPAN_TOL
    else:
        report.containment_residual = numerics.projection_residual(
            vecs, space.basis)
        span_ok = (subset_family
                   and report.containment_residual <= SPAN_TOL)
    report.passed = bool(
        space.dimension == predicted
        and span_ok
        and report.max_steer_residual <= RESIDUAL_TOL
        and (len(elements) < 2
             or report.independence_ratio >= INDEPENDENCE_TOL))
    return report


# ---------------------------------------------------------------------------
# case grids

def compact_case_grid(group: str, jmax: int, fields=(REAL, COMPLEX)):
    """All (j, l, orbit) label pairs for one compact group up to jmax."""
    cases = []
    for f in fields:
        if group == groups.SO2:
            labels = [so2_irrep(n, f) for n in range(jmax + 1)]
            orbit = Circle()
        elif group == groups.O2:
            labels = [o2_irrep(0, f), o2_irrep("0~", f)] + [
                o2_irrep(n, f) for n in range(1, jmax + 1)]
            orbit = Circle()
        elif group == groups.SO3:
            labels = [so3_irrep(n, f) for n in range(jmax + 1)]
            orbit = Sphere()
        elif group == groups.O3:
            labels = [o3_irrep(n, p, f) for n in range(jmax + 1)
                      for p in (1, -1)]
            orbit = Sphere()
        else:
            raise ValueError(f"not a compact group: {group}")
        cases.extend((a, b, orbit) for a in labels for b in labels)
    return cases


def lorentz_case_grid(include_spinor_vector: bool = False):
    """Label pairs for the Lorentz orbits used by the verification suite."""
    vec, t20 = tensor_irrep(1, 0), tensor_irrep(2, 0)
    massive = MassiveHyperboloid()
    cases = [
        (vec, vec, massive), (vec, t20, massive), (t20, vec, massive),
        (t20, t20, massive),
        (dirac_irrep(realified=True), dirac_irrep(realified=True), massive),
        (vec, vec, NullCone()), (t20, t20, NullCone()),
    ]
    if include_spinor_vector:
        sv = spinor_vector_irrep(realified=True)
        cases.append((sv, sv, massive))
    return cases


# ---------------------------------------------------------------------------
# Lorentz projector identities and the massless gauge check

def check_projectors(seed: int = 0, eta_max: float = 2.0) -> dict:
    """Residuals of the Lorentz projector identities at a random point.

    Covers idempotence, the annihilation/contraction rules and the traces of
    the massive spin-0/1/2, energy and spin-3/2 projectors and of the
    massless transverse projectors.
    """
    rng = np.random.default_rng(seed)
    x = groups.random_orbit_point(MassiveHyperboloid(), rng, eta_max)
    u = bases.unit_velocity(x)
    d = bases.transverse_projector(u)
    res = {}
    res["massive_delta_idempotent"] = float(np.linalg.norm(d @ d - d))
    res["massive_delta_kills_u"] = float(np.linalg.norm(d @ u))
    res["massive_delta_trace"] = abs(float(np.trace(d)) - 3.0)
    p2 = bases.spin2_projector(u)
    res["massive_spin2_idempotent"] = float(np.linalg.norm(p2 @ p2 - p2))
    res["massive_spin2_trace"] = abs(float(np.trace(p2)) - 5.0)
    pp = bases.energy_projector(u, +1)
    pm = bases.energy_projector(u, -1)
    res["energy_idempotent"] = float(max(np.linalg.norm(pp @ pp - pp),
                                         np.linalg.norm(pm @ pm - pm)))
    res["energy_complementary"] = float(np.linalg.norm(pp + pm - np.eye(4)))
    res["energy_orthogonal"] = float(max(np.linalg.norm(pp @ pm),
                                         np.linalg.norm(pm @ pp)))
    pi = bases.rarita_projector(u)
    res["rarita_idempotent"] = float(np.linalg.norm(pi @ pi - pi))
    pi4 = pi.reshape(4, 4, 4, 4)  # (mu, a, nu, b)
    res["rarita_kills_u"] = float(np.linalg.norm(
        np.einsum("manb,n->mab", pi4, u)))
    gperp = np.einsum("mn,nab->mab", d, bases.GAMMA)
    gperp_low = np.einsum("mn,nab->mab", groups.ETA, gperp)
    res["rarita_gamma_contraction"] = float(np.linalg.norm(
        np.einsum("mca,manb->cnb", gperp_low, pi4)))
    xk = groups.act(groups.random_element(groups.LORENTZ, rng, eta_max),
                    groups.base_point(NullCone()))
    n, nbar = bases.massless_pair(xk)
    dm = bases.massless_transverse_projector(n, nbar)
    res["massless_pairing"] = abs(groups.minkowski(n, nbar) - 1.0)
    res["massless_delta_idempotent"] = float(np.linalg.norm(dm @ dm - dm))
    res["massless_delta_trace"] = abs(float(np.trace(dm)) - 2.0)
    res["massless_delta_kills_n"] = float(np.linalg.norm(dm @ n))
    res["massless_delta_kills_nbar"] = float(np.linalg.norm(dm @ nbar))
    return res


def gauge_shift_residual(seed: int = 0, n_draws: int = 10,
                         eta_max: float = 2.0) -> float:
    """Massless gauge covariance: Delta(nbar') - Delta(nbar) must lie in
    span{n (x) e_i symmetrized, n (x) n} (second index lowered)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_draws):
        lam_el = groups.random_element(groups.LORENTZ, rng, eta_max)
        x = groups.act(lam_el, groups.base_point(NullCone()))
        lam = groups.coset_representative(x, groups.LORENTZ).matrix
        n, nbar = bases.massless_pair(x)
        e1, e2 = (lam @ v for v in bases.TRANSVERSE0)
        a = rng.uniform(-2.0, 2.0, size=2)
        _, nbar_shift = bases.massless_pair(x, gauge=a)
        diff = (bases.massless_transverse_projector(n, nbar_shift)
                - bases.massless_transverse_projector(n, nbar))
        resid = numerics.projection_residual(
            numerics.vec(diff).reshape(-1, 1), _gauge_span(n, e1, e2))
        worst = max(worst, resid)
    return float(worst)


# ---------------------------------------------------------------------------
# equivariance demo on a discretized circle

def _so2_real_rep_batch(j: int, phis: np.ndarray) -> np.ndarray:
    if j == 0:
        return np.ones((len(phis), 1, 1))
    c, s = np.cos(j * phis), np.sin(j * phis)
    return np.stack([np.stack([c, -s], axis=-1),
                     np.stack([s, c], axis=-1)], axis=-2)


def _steerable_angular(j: int, l: int, phis: np.ndarray,
                       coeffs: np.ndarray) -> np.ndarray:
    """Batch-evaluate a fixed combination of the real SO(2) basis."""
    elements = bases.basis_so2(j, l, REAL)
    k0 = sum(c * e.base_matrix for c, e in zip(coeffs, elements))
    rj = _so2_real_rep_batch(j, phis)
    rl_inv = _so2_real_rep_batch(l, -phis)
    return np.einsum("nab,bc,ncd->nad", rj, k0, rl_inv)


def _control_angular(j: int, l: int, phis: np.ndarray) -> np.ndarray:
    """Deliberately non-steerable angular profile (negative control)."""
    dj = 1 if j == 0 else 2
    dl = 1 if l == 0 else 2
    a = np.arange(dj)[None, :, None]
    b = np.arange(dl)[None, None, :]
    return np.cos((j + l + 1) * phis[:, None, None] + 0.7 * a + 1.3 * b) + 0.2


def equivariance_demo(j: int, l: int, grid_size: int, steps: int,
                      seed: int = 0, kernel: str = "steerable") -> float:
    """Relative sup-norm equivariance defect of a discretized convolution.

    A random band-limited feature field on a uniform circle grid is convolved
    (planar differences, restricted to the circle) with a steerable kernel;
    rotating by ``steps`` grid cells before vs after convolving must agree.
    Grid-aligned rotations commute with the discretization exactly, so the
    defect vanishes to rounding for ``kernel="steerable"`` and is O(1) for
    the non-steerable control kernel.
    """
    if grid_size < 32:
        raise ValueError("grid_size must be >= 32")
    if kernel not in ("steerable", "control"):
        raise ValueError("kernel must be 'steerable' or 'control'")
    rng = np.random.default_rng(seed)
    n = grid_size
    phis = 2.0 * math.pi * np.arange(n) / n
    pts = np.stack([np.cos(phis), np.sin(phis)], axis=-1)
    dj = 1 if j == 0 else 2
    dl = 1 if l == 0 else 2

    # band-limited random input field
    n_freq = max(2, n // 8)
    f = np.zeros((n, dl))
    for comp in range(dl):
        amps = rng.normal(size=n_freq + 1)
        phases = rng.uniform(0, 2 * math.pi, size=n_freq + 1)
        for nf in range(n_freq + 1):
            f[:, comp] += amps[nf] * np.cos(nf * phis + phases[nf])

    diff = pts[:, None, :] - pts[None, :, :]          # x_k - y_m
    r = np.linalg.norm(diff, axis=-1)
    ang = np.arctan2(diff[..., 1], diff[..., 0])
    if kernel == "steerable":
        coeffs = rng.normal(size=len(bases.basis_so2(j, l, REAL)))
        kmat = _steerable_angular(j, l, ang.ravel(), coeffs)
    else:
        kmat = _control_angular(j, l, ang.ravel())
    kmat = kmat.reshape(n, n, dj, dl)
    profile = np.where(r > 1e-12, np.exp(-4.0 * (r - 1.0) ** 2), 0.0)
    kmat = kmat * profile[..., None, None]

    def convolve(field):
        return np.einsum("kmab,mb->ka", kmat, field) * (2 * math.pi / n)

    def rotate_field(field, label_j, s_steps):
        rep = _so2_real_rep_batch(label_j, np.array(
            [2 * math.pi * s_steps / n]))[0]
        return np.roll(field, s_steps, axis=0) @ rep.T

    out_then_rot = rotate_field(convolve(f), j, steps)
    rot_then_out = convolve(rotate_field(f, l, steps))
    scale = max(np.abs(out_then_rot).max(), 1e-30)
    return float(np.abs(out_then_rot - rot_then_out).max() / scale)


# ---------------------------------------------------------------------------
# suite

def negative_control_residual(seed: int = 0) -> float:
    """Steerability residual of a non-steerable kernel function.

    Uses a constant (angle-independent) random matrix function on the
    circle, which cannot satisfy the steerability equation for j != l; the
    residual must be far from zero or the steerability checks would pass
    vacuously.
    """
    rng = np.random.default_rng(seed)
    j, l = so2_irrep(1), so2_irrep(2)
    k0 = rng.normal(size=(2, 2))
    scale = max(1.0, np.linalg.norm(k0))
    worst = 0.0
    for _ in range(10):
        g = groups.random_element(groups.SO2, rng)
        steered = steering.steer(k0, j, l, g)
        worst = max(worst, float(np.linalg.norm(k0 - steered) / scale))
    return worst


def run_suite(seed: int = 0, group: Optional[str] = None, jmax_2d: int = 4,
              jmax_3d: int = 2, n_g: int = 5, n_x: int = 3) -> dict:
    """Run the verification suite; deterministic for a fixed seed.

    Returns a JSON-ready dict with one report per case plus the projector,
    gauge, demo and negative-control summaries.
    """
    wanted = [group] if group else [groups.SO2, groups.O2, groups.SO3,
                                    groups.O3, groups.LORENTZ]
    cases = []
    for gname in wanted:
        if gname == groups.LORENTZ:
            cases.extend(lorentz_case_grid())
        elif gname in (groups.SO2, groups.O2):
            cases.extend(compact_case_grid(gname, jmax_2d))
        else:
            cases.extend(compact_case_grid(gname, jmax_3d))
    reports = []
    for idx, (a, b, orbit) in enumerate(cases):
        rep = check_case(a, b, orbit, seed=int(
            np.random.SeedSequence([seed, idx]).generate_state(1)[0]),
            n_g=n_g, n_x=n_x)
        reports.append(asdict(rep))
    out = {
        "seed": seed,
        "cases": reports,
        "negative_control": negative_control_residual(seed),
        "all_passed": all(r["passed"] for r in reports),
    }
    if group is None or group == groups.LORENTZ:
        out["projectors"] = check_projectors(seed)
        out["gauge_residual"] = gauge_shift_residual(seed)
        out["all_passed"] = bool(
            out["all_passed"]
            and max(out["projectors"].values()) <= PROJECTOR_TOL
            and out["gauge_residual"] <= PROJECTOR_TOL)
    if group is None or group == groups.SO2:
        demo = {
            "aligned": equivariance_demo(1, 1, 64, 5, seed=seed),
            "identity": equivariance_demo(1, 1, 64, 0, seed=seed),
            "control": equivariance_demo(1, 1, 64, 5, seed=seed,
                                         kernel="control"),
        }
        out["demo"] = demo
        out["all_passed"] = bool(
            out["all_passed"] and demo["aligned"] <= RESIDUAL_TOL
            and demo["identity"] <= RESIDUAL_TOL and demo["control"] >= 0.05)
    out["negative_control_ok"] = out["negative_control"] >= 0.05
    out["all_passed"] = bool(out["all_passed"] and out["negative_control_ok"])
    return out
