"""Command-line interface and kernel-dump serialization.

Subcommands: ``dims`` (predicted vs oracle dimension tables), ``basis``
(basis matrices at one orbit point), ``verify`` (run the verification suite)
and ``sample`` (evaluate a basis on a grid with ``steering.kernels_at`` and
write a manifest + binary payload).

Dump format, version 1: a JSON manifest ``<out>.json`` describing the case,
grid and conventions plus the SHA-256 of the payload, and a raw
little-endian float64 file ``<out>.bin`` with layout
``[basis_index][grid_point][row][col][re, im]`` (the trailing axis is absent
for real kernels).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import analytic_bases as bases
from . import groups, stabilizer_solver, steering, verify
from .groups import Circle, MassiveHyperboloid, NullCone, Sphere
from .irreps import (COMPLEX, REAL, IrrepLabel, basis_convention,
                     dirac_irrep, o2_irrep, o3_irrep, so2_irrep, so3_irrep,
                     spinor_vector_irrep, tensor_irrep)

FORMAT_VERSION = 1

CONVENTIONS = {
    "euler_order": "zyz",
    "angle_ranges": "alpha,gamma in [0,2pi), beta in [0,pi]",
    "complex_harmonics": "Condon-Shortley, m descending from +l",
    "real_harmonic_order": "(Y_l0, Yc_l1, Ys_l1, ..., Yc_ll, Ys_ll)",
    "gamma_basis": "Weyl, C = i gamma2 gamma0",
    "metric": "diag(1,-1,-1,-1)",
    "vectorization": "row-major",
    "coset_sections": "circle g_phi; sphere g_(alpha,beta,0); "
                      "hyperboloid/cone R(alpha,beta,0) Bz(eta)",
}

_LORENTZ_LABELS = {
    "scalar": lambda: tensor_irrep(0, 0),
    "vector": lambda: tensor_irrep(1, 0),
    "covector": lambda: tensor_irrep(0, 1),
    "tensor20": lambda: tensor_irrep(2, 0),
    "tensor11": lambda: tensor_irrep(1, 1),
    "tensor02": lambda: tensor_irrep(0, 2),
    "dirac": lambda: dirac_irrep(realified=True),
    "spinor-vector": lambda: spinor_vector_irrep(realified=True),
}


class CliError(ValueError):
    pass


def parse_label(group: str, field: str, text: str) -> IrrepLabel:
    text = text.strip()
    if group == "so2":
        return so2_irrep(int(text), field)
    if group == "o2":
        if text in ("0~", "0t"):
            return o2_irrep("0~", field)
        return o2_irrep(int(text), field)
    if group == "so3":
        return so3_irrep(int(text), field)
    if group == "o3":
        if text[-1:] not in ("+", "-"):
            raise CliError("O(3) labels look like '2+' or '2-'")
        return o3_irrep(int(text[:-1]), 1 if text[-1] == "+" else -1, field)
    if group == "lorentz":
        try:
            return _LORENTZ_LABELS[text]()
        except KeyError:
            raise CliError(f"unknown Lorentz label {text!r}; choose from "
                           f"{sorted(_LORENTZ_LABELS)}") from None
    raise CliError(f"unknown group {group!r}")


def _parse_point(orbit, text: str) -> groups.OrbitPoint:
    vals = [float(v) for v in text.split(",")]
    if isinstance(orbit, Circle):
        if len(vals) != 1:
            raise CliError("circle points take one angle")
        return groups.circle_point(vals[0], orbit.radius)
    if isinstance(orbit, Sphere):
        if len(vals) != 2:
            raise CliError("sphere points take alpha,beta")
        return groups.sphere_point(vals[0], vals[1], orbit.radius)
    if len(vals) != 4:
        raise CliError("Lorentz orbit points take an explicit 4-vector")
    if isinstance(orbit, MassiveHyperboloid):
        return groups.massive_point(vals, orbit.mass)
    return groups.cone_point(vals)


GRID_GRAMMAR = ("circle:N | sphere:NAxNB | massive:NAxNBxNE[:eta=H] "
                "| cone:NAxNBxNE[:eta=H]")

#: Largest grid rapidity.  A grid point's time component grows like
#: exp(eta) and the orbit-membership check squares it, which overflows
#: float64 beyond this bound.
MAX_ETA = 0.5 * math.log(sys.float_info.max)


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid on one orbit.

    Circle: N equally spaced angles.  Sphere: N_alpha x N_beta equiangular
    with interior offset beta_k = pi (k + 1/2) / N_beta.  Hyperboloid/cone:
    N_alpha x N_beta x N_eta with eta uniform in [0, eta_max].
    """

    orbit: object
    shape: tuple[int, ...]
    eta_max: float = 0.0

    def __post_init__(self):
        if any(n < 1 for n in self.shape):
            raise CliError("grid resolutions must be >= 1")
        if len(self.shape) == 3 and not 0 < self.eta_max <= MAX_ETA:
            raise CliError(f"eta_max must be in (0, {MAX_ETA:.1f}], "
                           f"got {self.eta_max}")

    def points(self) -> list[groups.OrbitPoint]:
        if isinstance(self.orbit, Circle):
            (n,) = self.shape
            return [groups.circle_point(2 * math.pi * k / n, self.orbit.radius)
                    for k in range(n)]
        if isinstance(self.orbit, Sphere):
            na, nb = self.shape
            return [groups.sphere_point(2 * math.pi * ia / na,
                                        math.pi * (ib + 0.5) / nb,
                                        self.orbit.radius)
                    for ia in range(na) for ib in range(nb)]
        na, nb, ne = self.shape
        etas = np.linspace(0.0, self.eta_max, ne)
        base = groups.base_point(self.orbit)
        pts = []
        for ia in range(na):
            for ib in range(nb):
                rot = groups.so3_element(2 * math.pi * ia / na,
                                         math.pi * (ib + 0.5) / nb, 0.0)
                for eta in etas:
                    g = groups.GroupElement(
                        groups.LORENTZ, rot.params + (0.0, 0.0, float(eta)))
                    pts.append(groups.act(g, base))
        return pts

    def to_dict(self) -> dict:
        d = {"orbit": verify._orbit_tag(self.orbit), "shape": list(self.shape)}
        if self.eta_max:
            d["eta_max"] = self.eta_max
        return d


_GRID_RANK = {"circle": 1, "sphere": 2, "massive": 3, "cone": 3}


def parse_grid(text: str, radius: float, mass: float) -> GridSpec:
    """Parse specs like ``circle:64``, ``sphere:16x8``,
    ``massive:8x4x5:eta=2`` or ``cone:8x4x5:eta=2``."""
    kind, _, rest = text.partition(":")
    res, _, option = rest.partition(":")
    key, _, val = option.partition("=")
    rank = _GRID_RANK.get(kind)
    try:
        shape = tuple(int(v) for v in res.split("x"))
        eta_max = float(val) if option else 1.0
    except ValueError:
        rank = None
    if (rank is None or len(shape) != rank
            or (option and (rank != 3 or key != "eta"))):
        raise CliError(f"bad grid {text!r}; expected {GRID_GRAMMAR}")
    if kind == "circle":
        return GridSpec(Circle(radius), shape)
    if kind == "sphere":
        return GridSpec(Sphere(radius), shape)
    orbit = MassiveHyperboloid(mass) if kind == "massive" else NullCone()
    return GridSpec(orbit, shape, eta_max)


def write_dump(out_path: str, elements, grid: GridSpec, seed: int) -> dict:
    """Write ``<out>.json`` + ``<out>.bin``; returns the manifest."""
    with np.errstate(over="ignore", invalid="ignore"):
        # An overflow is reported once, as the error below.
        values = steering.kernels_at(elements, grid.points())
    if not np.isfinite(values).all():
        raise CliError("kernel values overflow float64 on this grid; "
                       "lower eta_max")
    is_complex = np.iscomplexobj(values)
    if is_complex:
        payload = np.stack([values.real, values.imag], axis=-1)
    else:
        payload = values
    raw = np.ascontiguousarray(payload, dtype="<f8").tobytes()
    digest = hashlib.sha256(raw).hexdigest()
    e0 = elements[0]
    manifest = {
        "format_version": FORMAT_VERSION,
        "group": e0.group,
        "field": e0.j.field,
        "j": str(e0.j),
        "l": str(e0.l),
        "basis_convention_j": basis_convention(e0.j),
        "basis_convention_l": basis_convention(e0.l),
        "basis_kinds": [e.kind for e in elements],
        "basis_size": len(elements),
        "dim_j": e0.j.dim,
        "dim_l": e0.l.dim,
        "grid": grid.to_dict(),
        "n_points": values.shape[1],
        "complex": is_complex,
        "layout": "[basis][point][row][col]" + ("[re,im]" if is_complex else ""),
        "dtype": "<f8",
        "conventions": CONVENTIONS,
        "seed": seed,
        "payload_sha256": digest,
        "payload_bytes": len(raw),
    }
    with open(out_path + ".bin", "wb") as fh:
        fh.write(raw)
    with open(out_path + ".json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def read_dump(out_path: str) -> tuple[dict, np.ndarray]:
    """Read a dump back; validates the version and the payload checksum."""
    with open(out_path + ".json") as fh:
        manifest = json.load(fh)
    if manifest["format_version"] != FORMAT_VERSION:
        raise CliError(f"unsupported format version "
                       f"{manifest['format_version']}")
    with open(out_path + ".bin", "rb") as fh:
        raw = fh.read()
    if hashlib.sha256(raw).hexdigest() != manifest["payload_sha256"]:
        raise CliError("payload checksum mismatch")
    shape = [manifest["basis_size"], manifest["n_points"],
             manifest["dim_j"], manifest["dim_l"]]
    if manifest["complex"]:
        shape.append(2)
    arr = np.frombuffer(raw, dtype="<f8").reshape(shape)
    if manifest["complex"]:
        arr = arr[..., 0] + 1j * arr[..., 1]
    return manifest, arr


# ---------------------------------------------------------------------------
# subcommands

def _default_orbit(group: str, args) -> object:
    if group in ("so2", "o2"):
        return Circle(args.radius)
    if group in ("so3", "o3"):
        return Sphere(args.radius)
    if getattr(args, "orbit", "massive") == "massless":
        return NullCone()
    return MassiveHyperboloid(args.mass)


def _cmd_dims(args) -> int:
    rows = []
    if args.group == "lorentz":
        cases = verify.lorentz_case_grid(include_spinor_vector=args.full)
    else:
        cases = verify.compact_case_grid(args.group, args.jmax, (args.field,))
    for j, l, orbit in cases:
        predicted = stabilizer_solver.predicted_dimension(j, l, orbit)
        oracle = stabilizer_solver.solve_basepoint(j, l, orbit).dimension
        rows.append({"j": str(j), "l": str(l),
                     "orbit": verify._orbit_tag(orbit),
                     "predicted": predicted, "oracle": oracle,
                     "match": predicted == oracle})
    ok = all(r["match"] for r in rows)
    print(json.dumps({"group": args.group, "field": args.field,
                      "table": rows, "all_match": ok},
                     indent=2, sort_keys=True))
    return 0 if ok else 1


def _cmd_basis(args) -> int:
    j = parse_label(args.group, args.field, args.j)
    l = parse_label(args.group, args.field, args.l)
    orbit = _default_orbit(args.group, args)
    elements = bases.basis_for(j, l, orbit)
    x = _parse_point(orbit, args.point)
    out = {"group": args.group, "j": str(j), "l": str(l),
           "point": list(x.coords), "elements": []}
    for e in elements:
        k = e.at(x)
        entry = {"kind": e.kind, "re": np.round(k.real, 15).tolist()}
        if np.iscomplexobj(k):
            entry["im"] = np.round(k.imag, 15).tolist()
        out["elements"].append(entry)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    report = verify.run_suite(seed=args.seed, group=args.group)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["all_passed"] else 1


def _cmd_sample(args) -> int:
    j = parse_label(args.group, args.field, args.j)
    l = parse_label(args.group, args.field, args.l)
    grid = parse_grid(args.grid, args.radius, args.mass)
    elements = bases.basis_for(j, l, grid.orbit)
    if not elements:
        raise CliError(f"the basis for {j} / {l} is empty; nothing to sample")
    manifest = write_dump(args.out, elements, grid, args.seed)
    print(json.dumps({"written": [args.out + ".json", args.out + ".bin"],
                      "basis_size": manifest["basis_size"],
                      "payload_sha256": manifest["payload_sha256"]},
                     indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerkit",
        description="Steerable kernel bases with a numerical oracle")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", choices=(REAL, COMPLEX), default=REAL)
    common.add_argument("--radius", type=float, default=1.0,
                        help="circle/sphere radius")
    common.add_argument("--mass", type=float, default=1.0,
                        help="massive hyperboloid mass")

    p = sub.add_parser("dims", parents=[common],
                       help="predicted vs oracle dimension table")
    p.add_argument("--group", required=True,
                   choices=("so2", "o2", "so3", "o3", "lorentz"))
    p.add_argument("--jmax", type=int, default=4)
    p.add_argument("--full", action="store_true",
                   help="include the spinor-vector case (slow)")
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("basis", parents=[common],
                       help="basis matrices at one orbit point")
    p.add_argument("--group", required=True,
                   choices=("so2", "o2", "so3", "o3", "lorentz"))
    p.add_argument("--j", required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--point", required=True,
                   help="circle: phi; sphere: alpha,beta; Lorentz: 4-vector")
    p.add_argument("--orbit", choices=("massive", "massless"),
                   default="massive")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--group", choices=("so2", "o2", "so3", "o3", "lorentz"))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sample", parents=[common],
                       help="sample a basis on a grid into manifest + payload")
    p.add_argument("--group", required=True,
                   choices=("so2", "o2", "so3", "o3", "lorentz"))
    p.add_argument("--j", required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--grid", required=True, help=GRID_GRAMMAR)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on unknown flags, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, stabilizer_solver.DegenerateSpectrumError,
            OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
