"""Command-line interface and kernel-dump serialization.

Subcommands: ``dims`` (predicted vs oracle dimension tables), ``basis``
(basis matrices at one orbit point), ``verify`` (run the verification suite)
and ``sample`` (evaluate a basis on a grid and write a manifest + binary
payload).

Dump format, version 1: a JSON manifest ``<out>.json`` describing the case,
grid and conventions plus the SHA-256 and the size of the payload, and a
raw little-endian float64 file ``<out>.bin`` with layout
``[basis_index][grid_point][row][col][re, im]`` (the trailing axis is absent
for real kernels).  :func:`write_dump` streams the payload from
``steering.section_pieces``: piece by piece it checks it for overflow,
hashes it and writes it to temporary files beside the output, which replace
the payload and then the manifest only when both are complete, so the
write path holds the representation stacks of the grid and a few chunk
buffers but never the payload.  :func:`read_dump` checks each manifest
field it reads, the payload's size against the manifest and its checksum,
and returns the stored values bit for bit, signed zeros included.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import analytic_bases as bases
from . import groups, stabilizer_solver, steering, verify
from .groups import Circle, MassiveHyperboloid, NullCone, Sphere
from .irreps import (COMPLEX, MAX_L, REAL, IrrepLabel, basis_convention,
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


#: The --j/--l grammar of each compact group: a pattern and its wording.
_LABEL_GRAMMAR = {
    "so2": (r"-?\d+", "an integer n (n >= 0 over the reals)"),
    "o2": (r"\d+|0~|0t", "an integer j >= 0 or '0~'"),
    "so3": (r"\d+", "an integer l >= 0"),
    "o3": (r"\d+[+-]", "an integer l >= 0 and a parity, like '2+' or '2-'"),
}

POINT_GRAMMAR = "circle: phi | sphere: alpha,beta | Lorentz: t,x,y,z"


def _check_field(group: str, field: str) -> None:
    if group == "lorentz" and field == COMPLEX:
        raise CliError("Lorentz labels are real (spinors realified); "
                       "--field complex does not apply")


def parse_label(group: str, field: str, text: str) -> IrrepLabel:
    text = text.strip()
    _check_field(group, field)
    if group == "lorentz":
        try:
            return _LORENTZ_LABELS[text]()
        except KeyError:
            raise CliError(f"unknown Lorentz label {text!r}; choose from "
                           f"{sorted(_LORENTZ_LABELS)}") from None
    if group not in _LABEL_GRAMMAR:
        raise CliError(f"unknown group {group!r}")
    pattern, grammar = _LABEL_GRAMMAR[group]
    if not re.fullmatch(pattern, text):
        raise CliError(f"bad {group} label {text!r}; expected {grammar}")
    if group == "so2":
        return so2_irrep(int(text), field)
    if group == "o2":
        return o2_irrep(text if text in ("0~", "0t") else int(text), field)
    if group == "so3":
        return so3_irrep(int(text), field)
    return o3_irrep(int(text[:-1]), 1 if text[-1] == "+" else -1, field)


def _parse_point(orbit, text: str) -> np.ndarray:
    """The canonical coordinate row of a ``--point`` on ``orbit``."""
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise CliError(f"bad point {text!r}; expected {POINT_GRAMMAR}") from None
    return groups.canonical_coords(orbit, vals)[0]


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

    def points(self) -> np.ndarray:
        """Canonical coordinates of the grid points, shape (n, c)."""
        if isinstance(self.orbit, Circle):
            (n,) = self.shape
            return (2 * math.pi * np.arange(n) / n)[:, None]
        na, nb = self.shape[:2]
        alpha = 2 * math.pi * np.arange(na) / na
        beta = math.pi * (np.arange(nb) + 0.5) / nb
        if isinstance(self.orbit, Sphere):
            return np.stack(np.broadcast_arrays(alpha[:, None], beta[None, :]),
                            -1).reshape(-1, 2)
        # One boost along z per rapidity, rotated to each grid direction.
        ne = self.shape[2]
        params = np.zeros((na, nb, ne, 6))
        params[..., 0] = alpha[:, None, None]
        params[..., 1] = beta[None, :, None]
        params[..., 5] = np.linspace(0.0, self.eta_max, ne)
        return groups.act_points(groups.LORENTZ, params.reshape(-1, 6),
                                 self.orbit, groups.base_point(self.orbit))

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
    """Write ``<out>.json`` + ``<out>.bin``; returns the manifest.

    The payload is streamed: each piece of ``steering.section_pieces`` is
    checked for overflow, hashed and written to a new file beside the
    output, so the payload is never held in memory.  Both files are
    moved into place, payload first, only after the last piece; on any
    error an existing dump is left as it was and no temporary file stays.
    """
    e0 = elements[0]
    if grid.orbit != e0.orbit:
        raise CliError(f"grid on {grid.orbit} does not match the basis on "
                       f"{e0.orbit}")
    staged = {}
    try:
        digest, size = hashlib.sha256(), 0
        # An overflow is reported once, as the error below.
        with np.errstate(over="ignore", invalid="ignore"):
            pieces = steering.section_pieces(elements, grid.points())
            with _create_beside(out_path + ".bin", staged) as fh:
                for piece in pieces:
                    # A C-ordered complex stack viewed as floats is
                    # [re, im]; its min and max are finite only if every
                    # value is (they propagate NaN).
                    floats = piece.astype(piece.dtype.newbyteorder("<"),
                                          copy=False).view("<f8")
                    if not (np.isfinite(floats.min())
                            and np.isfinite(floats.max())):
                        raise CliError("kernel values overflow float64 on "
                                       "this grid; lower eta_max")
                    digest.update(floats)
                    fh.write(floats)
                    size += floats.nbytes
        is_complex = e0.j.dtype.kind == "c"
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
            "n_points": math.prod(grid.shape),
            "complex": is_complex,
            "layout": ("[basis][point][row][col]"
                       + ("[re,im]" if is_complex else "")),
            "dtype": "<f8",
            "conventions": CONVENTIONS,
            "seed": seed,
            "payload_sha256": digest.hexdigest(),
            "payload_bytes": size,
        }
        with _create_beside(out_path + ".json", staged) as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True).encode()
                     + b"\n")
        for path, temp in staged.items():
            os.replace(temp, path)
    finally:
        for temp in staged.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
    return manifest


def _create_beside(path: str, staged: dict):
    """Open a new binary file beside ``path`` under a unique name, created
    with the permissions ``open(path, "wb")`` would give it, and record it
    as ``staged[path]``."""
    temp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    staged[path] = temp
    return open(fd, "wb")


def _manifest_field(manifest: dict, key: str):
    try:
        return manifest[key]
    except KeyError:
        raise CliError(f"the manifest lacks the field {key!r}") from None


def _manifest_count(manifest: dict, key: str) -> int:
    """A shape or size field: a JSON integer >= 0 (not a boolean)."""
    value = _manifest_field(manifest, key)
    if type(value) is not int or value < 0:
        raise CliError(f"the manifest's {key!r} must be an integer >= 0, "
                       f"got {value!r}")
    return value


def read_dump(out_path: str) -> tuple[dict, np.ndarray]:
    """Read a dump back; validates the manifest's fields, the version, the
    payload size and the payload checksum.  The values are exactly the ones
    written, signed zeros included, in a writable array."""
    with open(out_path + ".json") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise CliError("the manifest is not a JSON object")
    version = _manifest_field(manifest, "format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise CliError(f"unsupported format version {version!r}")
    shape = [_manifest_count(manifest, key)
             for key in ("basis_size", "n_points", "dim_j", "dim_l")]
    is_complex = _manifest_field(manifest, "complex")
    if type(is_complex) is not bool:
        raise CliError(f"the manifest's 'complex' must be true or false, "
                       f"got {is_complex!r}")
    if is_complex:
        shape.append(2)
    payload_bytes = _manifest_count(manifest, "payload_bytes")
    checksum = _manifest_field(manifest, "payload_sha256")
    with open(out_path + ".bin", "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != payload_bytes:
            raise CliError(f"payload is {size} bytes but the manifest's "
                           f"payload_bytes is {payload_bytes}")
        if size != 8 * math.prod(shape):
            raise CliError(f"payload is {size} bytes but the manifest's shape "
                           f"{shape} of float64 needs {8 * math.prod(shape)}")
        arr = np.empty(shape, "<f8")
        if fh.readinto(arr) != size:
            raise CliError("payload changed size while it was read")
    if hashlib.sha256(arr).hexdigest() != checksum:
        raise CliError("payload checksum mismatch")
    if is_complex:
        arr = arr.view("<c16")[..., 0]
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
    if args.jmax < 0:
        raise CliError(f"--jmax must be >= 0, got {args.jmax}")
    # The tables hold every pair of labels up to --jmax, built before the
    # first row; SO(3) and O(3) stop there anyway.
    if args.jmax > MAX_L:
        raise CliError(f"--jmax must be at most {MAX_L} (labels "
                       f"0..{MAX_L}), got {args.jmax}")
    _check_field(args.group, args.field)
    rows = []
    if args.group == "lorentz":
        cases = verify.lorentz_case_grid(include_spinor_vector=args.full)
    else:
        cases = verify.compact_case_grid(args.group, args.jmax, (args.field,))
    for j, l, orbit in cases:
        predicted = stabilizer_solver.predicted_dimension(j, l, orbit)
        oracle = stabilizer_solver.oracle_dimension(j, l, orbit)
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
           "point": x.tolist(), "elements": []}
    values = []
    if elements:
        # An overflow is reported once, as the error below.
        with np.errstate(over="ignore", invalid="ignore"):
            values = steering.section_kernels(elements, x[None])[:, 0]
        if not np.isfinite(values).all():
            raise CliError("kernel values overflow float64 at this point")
    for e, k in zip(elements, values):
        entry = {"kind": e.kind, "re": _rounded(k.real).tolist()}
        if np.iscomplexobj(k):
            entry["im"] = _rounded(k.imag).tolist()
        out["elements"].append(entry)
    print(json.dumps(out, indent=2, sort_keys=True, allow_nan=False))
    return 0


def _rounded(a: np.ndarray) -> np.ndarray:
    """``a`` rounded to 15 decimals where |a| < 8.  From 8 up the doubles
    are more than 1e-15 apart and are kept as they are, which the scaling
    by 1e15 would not do (it moves some by an ulp, and overflows)."""
    small = np.abs(a) < 8.0
    return np.where(small, np.round(np.where(small, a, 0.0), 15), a)


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

    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--field", choices=(REAL, COMPLEX), default=REAL)
    orbit = argparse.ArgumentParser(add_help=False, parents=[field])
    orbit.add_argument("--radius", type=float, default=1.0,
                       help="circle/sphere radius")
    orbit.add_argument("--mass", type=float, default=1.0,
                       help="massive hyperboloid mass")

    p = sub.add_parser("dims", parents=[field],
                       help="predicted vs oracle dimension table")
    p.add_argument("--group", required=True, choices=groups.GROUPS)
    p.add_argument("--jmax", type=int, default=4)
    p.add_argument("--full", action="store_true",
                   help="include the spinor-vector case")
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("basis", parents=[orbit],
                       help="basis matrices at one orbit point")
    p.add_argument("--group", required=True, choices=groups.GROUPS)
    p.add_argument("--j", required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--point", required=True, help=POINT_GRAMMAR)
    p.add_argument("--orbit", choices=("massive", "massless"),
                   default="massive")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--group", choices=groups.GROUPS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sample", parents=[orbit],
                       help="sample a basis on a grid into manifest + payload")
    p.add_argument("--group", required=True, choices=groups.GROUPS)
    p.add_argument("--j", required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--grid", required=True, help=GRID_GRAMMAR)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse reads a value that starts with "-" as an option unless it is
    # one number, so "--point -0.5,1.1" goes in as "--point=-0.5,1.1".
    joined = []
    for arg in sys.argv[1:] if argv is None else argv:
        if joined and joined[-1] == "--point":
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    try:
        args = parser.parse_args(joined)
    except SystemExit as exc:
        # argparse exits 2 on unknown flags, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, stabilizer_solver.DegenerateSpectrumError,
            OSError) as exc:
        message = str(exc)
    except MemoryError as exc:
        # numpy names the allocation that failed; a bare MemoryError does not.
        message = f"out of memory: {exc}" if str(exc) else "out of memory"
    print(json.dumps({"error": message}), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
