"""The benchmark's workloads: fixed lists of operations and their checks.

Every operation goes through a public entry point (``cli.main`` or the
public ``verify`` functions) and comes with a check of its output.  The
checks run after the operation returns, outside its timed interval, and
use only public functions.

A workload seed picks the order of the operations in each pass, the
spot-check points and the ``verify`` seeds; the program sees only the
generated arguments.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from steerkit import analytic_bases as bases
from steerkit import cli, steering, verify
from steerkit.groups import MassiveHyperboloid, NullCone, Sphere
from steerkit.irreps import (dirac_irrep, so3_irrep, spinor_vector_irrep,
                             tensor_irrep)

#: Relative agreement required between a dumped kernel value and the scalar
#: reference path ``steering.kernel_at``.
SPOT_TOL = 1e-12
SPOTS_PER_OP = 8
#: The steerability gate of the acceptance sweep.
SWEEP_TOL = 1e-10
SWEEP_DRAWS = (50, 20)  # (n_g, n_x), as in acceptance criterion 2
SWEEP_ETA_MAX = 2.0
SUITE_CASES = 219


@dataclass
class Op:
    """One timed operation.

    ``run`` does the work and returns its output; ``check(output, pass_no)``
    returns a list of problems, empty when the output is right.  ``units``
    is the work the operation counts toward the workload's throughput.
    """

    name: str
    units: int
    run: Callable[[], object]
    check: Callable[[object, int], list]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with its stdout captured: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# grid-sample: `sample` dumps on orbit grids

#: (group, j, l, field, grid, basis size B, payload SHA-256 at the commit
#: that defined the benchmark).  B spans 1-17, the point count N 128-8192
#: and the representation dimension 1-32, so per-point hoisting (gain grows
#: with B) and vectorizing over points (gain grows with N) each have cases
#: that show them and cases that do not.
GRID_CASES = (
    ("so3", "4", "4", "real", "sphere:64x32", 9,
     "11403eedbcc7bef762dce43d45b4aae79543beba00cab9ea51bcddfc2cab083d"),
    ("so3", "8", "8", "real", "sphere:32x16", 17,
     "bb1ea7aa33ae2790046c070b6d03da18beed9375bf26666bfdc89c23d48df334"),
    ("so3", "2", "1", "complex", "sphere:64x32", 3,
     "6bb52da4d302aa5afbc3d0b0ed1e5f6e51d2bd32641c9652c90f6f26d18b13da"),
    ("o3", "3+", "2-", "real", "sphere:64x32", 2,
     "39d3dc5c8cdd9ec9e0f1ec377cc537ea162cb463267cc0fbb9d8e728023d2ced"),
    ("so2", "3", "5", "real", "circle:8192", 4,
     "83fdff07f0c22ebc32e23c6d6447a585722bbe8c9bf43495f3fc805a57f817bd"),
    ("lorentz", "tensor20", "tensor20", "real", "massive:16x8x8:eta=2", 14,
     "59109fcb602e75d280a1a021087b408fd3593f4bbb845e71ffc227cdd044b648"),
    ("lorentz", "dirac", "dirac", "real", "massive:16x8x8:eta=2", 8,
     "32ea95888edbad1b0b27e8375c1f43e7647699c9b5392f8d2e4c1108ae414ca9"),
    ("lorentz", "spinor-vector", "spinor-vector", "real",
     "massive:8x4x4:eta=2", 8,
     "c08d1fe75fc94f484b867c6352a833861349799cc72d09f7b350fb34a9582309"),
    ("lorentz", "tensor20", "tensor20", "real", "cone:16x8x8:eta=2", 1,
     "a7a5520e20b552ca75f6685171b67089781083558d246005bf9d9aae1b11019e"),
)


def grid_points(grid: str) -> int:
    return math.prod(int(n) for n in grid.split(":")[1].split("x"))


def sample_argv(group, j, l, fld, grid, out, seed) -> list[str]:
    return ["sample", "--group", group, "--j", j, "--l", l, "--field", fld,
            "--grid", grid, "--out", out, "--seed", str(seed)]


class _SampleCheck:
    """Checks one `sample` dump: exit code, checksum round trip, manifest
    shape and spot values against the scalar reference path."""

    def __init__(self, case, out: str, seed: int, stats: dict):
        self.group, self.j, self.l, self.field, self.grid, self.size, \
            self.golden = case
        self.out, self.seed, self.stats = out, seed, stats
        self._ref = None

    def _reference(self):
        if self._ref is None:
            j = cli.parse_label(self.group, self.field, self.j)
            l = cli.parse_label(self.group, self.field, self.l)
            spec = cli.parse_grid(self.grid, 1.0, 1.0)
            self._ref = (j, l, bases.basis_for(j, l, spec.orbit),
                         spec.points())
        return self._ref

    def __call__(self, output, pass_no: int) -> list:
        code, stdout = output
        if code != 0:
            return [f"exit code {code}"]
        manifest, values = cli.read_dump(self.out)
        j, l, elements, points = self._reference()
        n = grid_points(self.grid)
        cplx = self.field == "complex"
        problems = []
        want = {"basis_size": self.size, "n_points": n, "dim_j": j.dim,
                "dim_l": l.dim, "complex": cplx,
                "payload_bytes": self.size * n * j.dim * l.dim * 8
                * (2 if cplx else 1),
                "payload_sha256": json.loads(stdout)["payload_sha256"]}
        for key, val in want.items():
            if manifest.get(key) != val:
                problems.append(f"manifest {key}={manifest.get(key)!r}, "
                                f"expected {val!r}")
        if values.shape != (self.size, n, j.dim, l.dim):
            return problems + [f"payload shape {values.shape}"]
        rng = random.Random(f"{self.seed}/{self.grid}/{self.j}/{pass_no}")
        # The first and last grid points (on Lorentz grids the first is the
        # rest frame or apex direction, where the section is singular), then
        # seeded random ones.
        spots = [0, n - 1] + [rng.randrange(n) for _ in range(SPOTS_PER_OP)]
        for p in spots:
            b = rng.randrange(self.size)
            ref = steering.kernel_at(elements[b], points[p])
            err = np.linalg.norm(values[b, p] - ref)
            if not err <= SPOT_TOL * np.linalg.norm(ref):
                problems.append(f"element {b} point {p}: error {err:.3e}")
        self.stats["payload_bytes"][self.out] = manifest["payload_bytes"]
        self.stats["golden_checked"] += 1
        if manifest["payload_sha256"] == self.golden:
            self.stats["golden_matched"] += 1
        return problems


def grid_sample_ops(seed: int, out_dir: str, stats: dict) -> list[Op]:
    stats.update(payload_bytes={}, golden_checked=0, golden_matched=0)
    ops = []
    for idx, case in enumerate(GRID_CASES):
        group, j, l, fld, grid, size, _ = case
        out = os.path.join(out_dir, f"sample{idx}")
        argv = sample_argv(group, j, l, fld, grid, out, seed)
        ops.append(Op(f"sample {group} {j}/{l} {fld} {grid}",
                      size * grid_points(grid),
                      functools.partial(run_cli, argv),
                      _SampleCheck(case, out, seed, stats)))
    return ops


# ---------------------------------------------------------------------------
# oracle-dims: `dims` oracle tables

#: The columns of a `dims` table row that the pinned digest covers.
DIMS_COLUMNS = ("j", "l", "orbit", "predicted", "oracle", "match")

#: (argv after "dims", table rows, SHA-256 of the table's DIMS_COLUMNS at
#: the commit that defined the benchmark).
DIMS_CASES = (
    (("--group", "lorentz", "--full"), 8,
     "c35e17db16e3660bdd934be0bf5e96b7ac802f76f6884dddbeaca09c87f33f13"),
    (("--group", "so3", "--jmax", "8"), 81,
     "ef1c632411447b5c296e85de1deb1e7687b0eccd9bc40dbc76dcd8f75ef2421e"),
    (("--group", "o3", "--jmax", "4"), 100,
     "40f86e3de0ae4281e4ea77cc6f7e96bc8e68fe977aaec0a15a6208dcb11b2b87"),
    (("--group", "so2", "--jmax", "8", "--field", "complex"), 81,
     "10851387d10e4beab84025f0451992a83c3f52c015aa66c48b53a18deb22bc05"),
    (("--group", "o2", "--jmax", "8"), 100,
     "2528661a45eaa8e01236aa3ebe12f74aac8f24b5d13cd11830b5f139b223bcfa"),
)


def table_digest(table: dict) -> str:
    rows = [[row.get(k) for k in DIMS_COLUMNS]
            for row in table.get("table", ())]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _dims_check(rows: int, golden: str):
    def check(output, pass_no: int) -> list:
        code, stdout = output
        if code != 0:
            return [f"exit code {code}"]
        table = json.loads(stdout)
        problems = []
        if table.get("all_match") is not True:
            problems.append("all_match is not true")
        if len(table.get("table", ())) != rows:
            problems.append(f"{len(table.get('table', ()))} rows, "
                            f"expected {rows}")
        if table_digest(table) != golden:
            problems.append("table differs from the pinned table")
        return problems
    return check


def oracle_dims_ops(seed: int, out_dir: str, stats: dict) -> list[Op]:
    return [Op("dims " + " ".join(args), rows,
               functools.partial(run_cli, ["dims", *args]),
               _dims_check(rows, golden))
            for args, rows, golden in DIMS_CASES]


# ---------------------------------------------------------------------------
# verify-sweep: run_suite plus the criterion-2 steerability sweep

def acceptance_lorentz_cases():
    """The eight Lorentz cases of the acceptance sweep."""
    vec, t20 = tensor_irrep(1, 0), tensor_irrep(2, 0)
    dirac, sv = dirac_irrep(True), spinor_vector_irrep(True)
    mh, cone = MassiveHyperboloid(), NullCone()
    return [(vec, vec, mh), (vec, t20, mh), (t20, vec, mh), (t20, t20, mh),
            (dirac, dirac, mh), (sv, sv, mh), (vec, vec, cone),
            (t20, t20, cone)]


def _sub_seed(seed: int, idx: int) -> int:
    return random.Random(f"{seed}/sweep/{idx}").getrandbits(32)


def _sweep(j, l, orbit, seed: int) -> float:
    if j.spinor == "spinor_vector":
        elements = bases.lorentz_massive_basis(j, l)
    else:
        elements = bases.basis_for(j, l, orbit)
    n_g, n_x = SWEEP_DRAWS
    return verify.max_steer_residual(elements, orbit, n_g=n_g, n_x=n_x,
                                     seed=seed, eta_max=SWEEP_ETA_MAX)


def _same_every_pass(first: dict, key, value) -> list:
    if key not in first:
        first[key] = value
    return [] if first[key] == value else ["output differs between passes"]


def _suite_check(first: dict):
    def check(report, pass_no: int) -> list:
        problems = []
        if report.get("all_passed") is not True:
            problems.append("all_passed is not true")
        if len(report.get("cases", ())) != SUITE_CASES:
            problems.append(f"{len(report.get('cases', ()))} cases, "
                            f"expected {SUITE_CASES}")
        text = json.dumps(report, indent=2, sort_keys=True).encode()
        return problems + _same_every_pass(first, "suite", text)
    return check


def _sweep_check(first: dict, key, stats: dict):
    def check(residual, pass_no: int) -> list:
        stats["worst_residual"] = max(stats["worst_residual"], residual)
        problems = _same_every_pass(first, key, residual)
        if not residual <= SWEEP_TOL:
            problems.append(f"residual {residual:.3e} above {SWEEP_TOL:g}")
        return problems
    return check


def verify_sweep_ops(seed: int, out_dir: str, stats: dict) -> list[Op]:
    stats.update(worst_residual=0.0)
    first: dict = {}
    ops = [Op(f"run_suite seed={seed}", SUITE_CASES,
              functools.partial(verify.run_suite, seed), _suite_check(first))]
    sweep = verify.compact_case_grid("so3", 4) + acceptance_lorentz_cases()
    for idx, (j, l, orbit) in enumerate(sweep):
        ops.append(Op(f"sweep {j} / {l} on {type(orbit).__name__}", 1,
                      functools.partial(_sweep, j, l, orbit,
                                        _sub_seed(seed, idx)),
                      _sweep_check(first, idx, stats)))
    return ops


# ---------------------------------------------------------------------------
# registry

# ---------------------------------------------------------------------------
# reference kernels: fixed work that uses numpy but not steerkit
#
# The machine this was built on is shared, and its speed drifts by up to a
# third over seconds to minutes.  A short reference kernel of the same kind
# of work, timed between the ops, tracks that drift; see ``worker.py``.

@functools.cache
def _reference_matrix(rows: int, cols: int) -> np.ndarray:
    return np.random.default_rng(0).standard_normal((rows, cols))


def reference_small_ops() -> None:
    """Interpreter-bound: a Python loop over tiny numpy operations, like
    the per-point representation and steering paths (about 35 ms)."""
    a = _reference_matrix(9, 9)
    for i in range(1000):
        a @ a
        np.kron(a[:3, :3], a[3:6, 3:6])
        np.exp(1j * 0.001 * i)


def reference_svd() -> None:
    """LAPACK-bound: one full SVD of a 384 x 192 matrix, like the oracle
    (about 20 ms)."""
    np.linalg.svd(_reference_matrix(384, 192), full_matrices=True)


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str            # what one unit of throughput is
    throughput: str      # the workload's own name for its throughput
    build: Callable      # (seed, out_dir, stats) -> list[Op]
    setup_op: Callable   # (seed, out_dir) -> None, the first small op
    reference: Callable  # the reference kernel of the same kind of work


def _setup_sample(seed: int, out_dir: str) -> None:
    code, _ = run_cli(sample_argv("so3", "2", "1", "real", "sphere:4x2",
                               os.path.join(out_dir, "setup"), seed))
    if code != 0:
        raise RuntimeError(f"setup sample exited {code}")


def _setup_dims(seed: int, out_dir: str) -> None:
    code, _ = run_cli(["dims", "--group", "so3", "--jmax", "1"])
    if code != 0:
        raise RuntimeError(f"setup dims exited {code}")


def _setup_verify(seed: int, out_dir: str) -> None:
    one = so3_irrep(1)
    if not verify.check_case(one, one, Sphere(), seed=seed).passed:
        raise RuntimeError("setup check_case did not pass")


WORKLOADS = {
    "grid-sample": Workload("grid-sample", "kernel evaluation",
                            "evals_per_s", grid_sample_ops, _setup_sample,
                            reference_small_ops),
    "oracle-dims": Workload("oracle-dims", "oracle solve", "solves_per_s",
                            oracle_dims_ops, _setup_dims, reference_svd),
    "verify-sweep": Workload("verify-sweep", "checked case", "cases_per_s",
                             verify_sweep_ops, _setup_verify,
                             reference_small_ops),
}
