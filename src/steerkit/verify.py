"""Property-check harness.

Binds the numerical oracle, the analytic bases and the steering engine into
per-case pass/fail reports, runs the Lorentz projector identities and the
massless gauge check, and provides a discretized circle-convolution
equivariance demo.  Everything is seeded and deterministic: the same seed
yields a byte-identical report.  The steerability sweeps compare
whole-basis products, which round differently from ``kernel_at``.
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
                     o3_irrep, rep_matrices, so2_irrep, so3_irrep,
                     spinor_vector_irrep, tensor_irrep)

SPAN_TOL = 1e-8
RESIDUAL_TOL = 1e-10
PROJECTOR_TOL = 1e-11
INDEPENDENCE_TOL = 1e-8

#: The suite's fixed configuration: the largest label of each compact group,
#: (n_g, n_x) group and point draws per case, and the gauge-check draws.
SUITE_JMAX = {groups.SO2: 4, groups.O2: 4, groups.SO3: 2, groups.O3: 2}
SUITE_DRAWS, GAUGE_DRAWS = (5, 3), 10


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


def _worst(worst: float, resid: np.ndarray) -> float:
    """Running maximum; like ``max(worst, r)`` per value, NaNs are skipped."""
    return max(worst, float(np.fmax.reduce(resid, axis=None)))


def _require_counts(n_g: int, n_x: int) -> None:
    if min(n_g, n_x) < 0:
        raise ValueError(f"draw counts must be >= 0, got n_g={n_g}, n_x={n_x}")


def max_steer_residual(elements, orbit: Orbit, n_g: int, n_x: int,
                       seed: int, eta_max: float = 2.0) -> float:
    """Worst relative steerability defect over random (g, x) draws.

    For each pair the kernels at g.x, evaluated through the coset section,
    are compared with the kernels at x steered by g.  The points and the
    elements are drawn as stacks, and the action and the coset sections are
    computed once for the whole n_x x n_g grid.  Both sides are whole-basis
    products, the basis at the sections of g.x and the kernels at a block of
    points steered by g, into three buffers allocated once per call.  On the
    null cone the kernel is well defined only modulo the gauge choice of the
    auxiliary null vector, so those cases go to :func:`massless_steer_residual`.
    """
    _require_counts(n_g, n_x)
    if not elements or min(n_g, n_x) < 1:
        return 0.0
    if isinstance(orbit, NullCone):
        return massless_steer_residual(elements[0], n_g, n_x, seed, eta_max)
    rng = np.random.default_rng(seed)
    j, l = elements[0].j, elements[0].l
    coords = groups.random_orbit_coords(orbit, rng, n_x, eta_max)
    gs = groups.random_params(j.group, rng, n_g, eta_max)
    kx = steering.section_kernels(elements, coords)
    scale = np.fmax(1.0, numerics.norms(kx)).T
    kx = np.ascontiguousarray(kx.transpose(2, 1, 0, 3))     # (dj, x, b, dl)
    k0 = np.stack([e.base_matrix for e in elements], axis=1).astype(kx.dtype)
    sections = groups.section_params(
        orbit, groups.act_points(j.group, gs, orbit, coords[:, None]), j.group)
    # The points go in even blocks of x_step and the elements in blocks of
    # g_step, so that the kernels of g_step x x_step pairs fit the budget.
    fit = steering.chunk_length(steering._steered_bytes(j, l, len(elements)))
    x_step = -(-n_x // -(-n_x // fit))
    g_step = min(n_g, fit // x_step)
    out_g, out_s, work = (np.empty(g_step * x_step * k0.size, kx.dtype)
                          for _ in range(3))
    worst = 0.0
    for x in range(0, n_x, x_step):
        xs = slice(x, x + x_step)
        m_x = min(x_step, n_x - x)
        at = sections[xs].swapaxes(0, 1).reshape(-1, sections.shape[-1])
        for by_g, at_gx in zip(
                steering._steered_blocks(kx[None, :, xs], j, l, gs, g_step,
                                         out_g, work),
                steering._steered_blocks(k0[None], j, l, at, g_step * m_x,
                                         out_s, work)):
            # Both as (g, x, row, b, col); sum squares over rows and columns.
            m = len(by_g)
            diff = at_gx.reshape(m, m_x, j.dim, -1, l.dim)
            np.subtract(diff, by_g.reshape(m, j.dim, m_x, -1, l.dim).swapaxes(
                1, 2), out=diff)
            v = diff.view(diff.real.dtype)
            worst = _worst(worst, np.sqrt(np.einsum(
                "...c,...c->...", v, v).sum(axis=2)) / scale[xs])
    return worst


def _gauge_span(n: np.ndarray, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the massless gauge span, vectorized: the
    symmetrized ``n (x) e_i`` and ``n (x) n`` with the second index lowered.
    Stacks of vectors, shape (..., 4), give a stack of bases."""
    def lowered_outer(a, b):
        low = (groups.ETA @ b[..., None])[..., None, :, 0]
        return a[..., :, None] * low

    span = np.stack([
        lowered_outer(n, e1) + lowered_outer(e1, n),
        lowered_outer(n, e2) + lowered_outer(e2, n),
        lowered_outer(n, n),
    ], axis=-1)
    return numerics.orthonormal_columns(span.reshape(span.shape[:-3] + (16, 3)))


def massless_steer_residual(elem, n_g: int, n_x: int, seed: int,
                            eta_max: float = 2.0) -> float:
    """Steerability of the massless kernels, modulo the gauge freedom.

    The steered kernel ``rho(g) K(x) rho(g)^-1`` transports the auxiliary
    null vector along with the group element, so it must equal the covariant
    projector built from ``(n(g.x), g . nbar(x))`` exactly; the section value
    at g.x uses the section's own nbar and may differ from the steered one
    only inside the gauge span ``{n e_i + e_i n, n n}``.  Both residuals are
    folded into the returned maximum.  Each x has its own n_g draws, drawn
    right after the element that places x.  All draws, the action and the
    transported nbar are computed once.  The kernel at x is steered by the
    run of its n_g elements, and the base matrix at the sections of g.x, a
    block of pairs at a time into arrays allocated once per call.
    """
    _require_counts(n_g, n_x)
    if min(n_g, n_x) < 1:
        return 0.0
    rng = np.random.default_rng(seed)
    j, l = elem.j, elem.l
    spin = 1 if j.tensor == (1, 0) else 2
    build = (bases.massless_transverse_projector if spin == 1
             else bases.massless_spin2_projector)
    cone, lorentz = NullCone(), groups.LORENTZ
    draws = groups.random_params(lorentz, rng, n_x * (1 + n_g), eta_max)
    draws = draws.reshape(n_x, 1 + n_g, -1)
    coords = groups.act_points(lorentz, draws[:, 0], cone,
                               groups.base_point(cone).coords)
    gs = draws[:, 1:].reshape(n_x * n_g, -1)
    at = np.repeat(np.arange(n_x), n_g)
    nbar_x = groups.matrices(
        lorentz, groups.section_params(cone, coords)) @ bases.NBAR0
    kx = steering.section_kernels([elem], coords)[0]
    scale = np.fmax(1.0, numerics.norms(kx))[at]
    gx = groups.act_points(lorentz, gs, cone, coords[at])
    nbar_t = (groups.matrices(lorentz, gs) @ nbar_x[at, :, None])[..., 0]
    # A block's kernels, and its forward and inverse reps together, fit.
    step = min(len(gs), steering.chunk_length(2 * steering._rep_bytes(j, l)))
    out, work = (np.empty(step * kx[0].size, kx.dtype) for _ in range(2))
    if spin == 1:
        sections = groups.section_params(cone, gx)
        lam_gx = groups.matrices(lorentz, sections)
        e1, e2 = (lam_gx @ v for v in bases.TRANSVERSE0)
        at_gx = steering._steered_blocks(
            elem.base_matrix[None, :, None].astype(kx.dtype), j, l, sections,
            step, np.empty_like(out), work)
    worst = 0.0
    for i, steered in zip(range(0, len(gs), step), steering._steered_blocks(
            kx[:, :, None], j, l, gs, step, out, work)):
        p = slice(i, i + step)
        steered = steered.reshape(-1, j.dim, l.dim)
        diff = work[:steered.size].reshape(steered.shape)
        worst = _worst(worst, numerics.norms(np.subtract(
            steered, build(gx[p], nbar_t[p]), out=diff)) / scale[p])
        if spin == 1:
            # section value vs steered: difference must be pure gauge
            diff = np.subtract(next(at_gx).reshape(steered.shape), steered,
                               out=diff).reshape(len(diff), -1, 1)
            off = numerics.norms(diff) > 1e-12 * scale[p]
            if off.any():
                worst = _worst(worst, numerics.projection_residual(
                    diff[off], _gauge_span(gx[p][off], e1[p][off],
                                           e2[p][off])))
    return worst


def check_case(j: IrrepLabel, l: IrrepLabel, orbit: Orbit,
               seed: int = 0) -> CaseReport:
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
        max_steer_residual=max_steer_residual(elements, orbit, *SUITE_DRAWS,
                                              seed),
        independence_ratio=independence_ratio(elements),
    )
    subset_family = j.spinor is not None or isinstance(orbit, NullCone)
    vecs = _vec_stack(elements, j.dim * l.dim).astype(space.basis.dtype)
    if len(elements) == space.dimension:
        analytic_span = numerics.orthonormal_columns(vecs)
        report.span_angle, _ = numerics.principal_angle_distance(
            analytic_span, space.basis)
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
    orbit = MassiveHyperboloid()
    x = groups.orbit_points(
        orbit, groups.random_orbit_coords(orbit, rng, 1, eta_max))[0]
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
    cone = NullCone()
    xk = groups.orbit_points(
        cone, groups.random_orbit_coords(cone, rng, 1, eta_max))[0]
    n, nbar = bases.massless_pair(xk)
    dm = bases.massless_transverse_projector(n, nbar)
    res["massless_pairing"] = abs(groups.minkowski(n, nbar) - 1.0)
    res["massless_delta_idempotent"] = float(np.linalg.norm(dm @ dm - dm))
    res["massless_delta_trace"] = abs(float(np.trace(dm)) - 2.0)
    res["massless_delta_kills_n"] = float(np.linalg.norm(dm @ n))
    res["massless_delta_kills_nbar"] = float(np.linalg.norm(dm @ nbar))
    return res


def gauge_shift_residual(seed: int = 0, eta_max: float = 2.0) -> float:
    """Massless gauge covariance: Delta(nbar') - Delta(nbar) must lie in
    span{n (x) e_i symmetrized, n (x) n} (second index lowered)."""
    rng = np.random.default_rng(seed)
    cone, worst = NullCone(), 0.0
    for _ in range(GAUGE_DRAWS):
        x = groups.orbit_points(
            cone, groups.random_orbit_coords(cone, rng, 1, eta_max))[0]
        lam = groups.matrices(groups.LORENTZ,
                              groups.section_params(cone, x.coords))
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

def _steerable_angular(j: int, l: int, phis: np.ndarray,
                       coeffs: np.ndarray) -> np.ndarray:
    """Batch-evaluate a fixed combination of the real SO(2) basis."""
    elements = bases.basis_so2(j, l, REAL)
    k0 = sum(c * e.base_matrix for c, e in zip(coeffs, elements))
    return steering.steer(k0, so2_irrep(j), so2_irrep(l), phis[:, None])


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
        rep = rep_matrices(so2_irrep(label_j), [2 * math.pi * s_steps / n])
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
    params = groups.random_params(groups.SO2, rng, 10)
    steered = steering.steer(k0, j, l, params)
    return float((numerics.norms(k0 - steered) / scale).max())


def run_suite(seed: int = 0, group: Optional[str] = None) -> dict:
    """Run the verification suite; deterministic for a fixed seed.

    Returns a JSON-ready dict with one report per case plus the projector,
    gauge, demo and negative-control summaries.
    """
    if group and group not in groups.GROUPS:
        raise ValueError(f"unknown group {group!r}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    cases = []
    for gname in [group] if group else groups.GROUPS:
        cases.extend(lorentz_case_grid() if gname == groups.LORENTZ
                     else compact_case_grid(gname, SUITE_JMAX[gname]))
    reports = []
    for idx, (a, b, orbit) in enumerate(cases):
        rep = check_case(a, b, orbit, seed=int(
            np.random.SeedSequence([seed, idx]).generate_state(1)[0]))
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
