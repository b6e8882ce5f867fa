import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from steerkit import analytic_bases as bases
from steerkit import cli, groups, steering
from steerkit.cli import main, parse_grid, parse_label, read_dump
from steerkit.groups import Circle, MassiveHyperboloid, NullCone, Sphere


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_so2_contains_the_four_dimensional_case(capsys):
    code, out, _ = run_cli(capsys, "dims", "--group", "so2", "--jmax", "3",
                           "--field", "real")
    assert code == 0
    table = json.loads(out)
    assert table["all_match"]
    entry = next(r for r in table["table"]
                 if r["j"] == "so2[real] n=2" and r["l"] == "so2[real] n=3")
    assert entry["predicted"] == entry["oracle"] == 4


def test_dims_exit_nonzero_never_happens_on_supported_grid(capsys):
    code, out, _ = run_cli(capsys, "dims", "--group", "o3", "--jmax", "2")
    assert code == 0
    assert json.loads(out)["all_match"]


def test_basis_at_base_point_is_canonical(capsys):
    code, out, _ = run_cli(capsys, "basis", "--group", "so2", "--j", "1",
                           "--l", "1", "--point", "0")
    assert code == 0
    data = json.loads(out)
    assert [e["kind"] for e in data["elements"]] == ["E11", "E12", "E21",
                                                     "E22"]
    np.testing.assert_array_equal(data["elements"][0]["re"],
                                  [[1.0, 0.0], [0.0, 0.0]])


def test_basis_complex_output_carries_imaginary_part(capsys):
    code, out, _ = run_cli(capsys, "basis", "--group", "so3", "--field",
                           "complex", "--j", "1", "--l", "1",
                           "--point", "0.3,0.7")
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == 3
    assert "im" in data["elements"][0]


def test_basis_complex_compact_pairs_are_complex(capsys):
    # Every complex compact pair prints "im", 1x1 O(2) pairs included, and
    # kernel_at and section_kernels agree in dtype and bytes.
    labels = {"so2": ("0", "1", "-2"), "o2": ("0", "0~", "1", "2"),
              "so3": ("0", "1", "2"), "o3": ("0+", "0-", "1-", "2+")}
    points = {"so2": groups.circle_point(0.3), "o2": groups.circle_point(0.3),
              "so3": groups.sphere_point(0.4, 1.1),
              "o3": groups.sphere_point(0.4, 1.1)}
    for group, names in labels.items():
        x = points[group]
        for j in names:
            for l in names:
                code, out, _ = run_cli(
                    capsys, "basis", "--group", group, "--field", "complex",
                    "--j", j, "--l", l,
                    "--point", ",".join(map(repr, x.coords)))
                assert code == 0
                printed = json.loads(out)["elements"]
                assert all("im" in e for e in printed), (group, j, l)
                els = bases.basis_for(parse_label(group, "complex", j),
                                      parse_label(group, "complex", l),
                                      x.orbit)
                assert len(printed) == len(els)
                if not els:
                    continue
                values = steering.section_kernels(els, [x.coords])[:, 0]
                assert values.dtype == np.complex128
                for e, k in zip(els, values):
                    ref = steering.kernel_at(e, x)
                    assert ref.dtype == k.dtype
                    assert ref.tobytes() == k.tobytes()
    code, out, _ = run_cli(capsys, "basis", "--group", "o2", "--field",
                           "complex", "--j", "0~", "--l", "0~",
                           "--point", "0.3")
    assert json.loads(out)["elements"] == [
        {"kind": "unit", "re": [[1.0]], "im": [[0.0]]}]


def test_basis_never_calls_kernel_at(monkeypatch, capsys):
    # basis steers the whole basis with one section_kernels call; an empty
    # basis prints an empty list.
    def no_kernel_at(elem, x):
        raise AssertionError("kernel_at called by basis")
    monkeypatch.setattr(steering, "kernel_at", no_kernel_at)
    cases = [("so2", "2", "3", "0.3"), ("o2", "0", "0~", "0.3"),
             ("so3", "2", "1", "0.4,1.1"), ("o3", "1-", "2+", "0.7,1.1"),
             ("lorentz", "dirac", "dirac", "2,1,1,1"),
             ("lorentz", "tensor20", "tensor20", "1,0,0,-1", "--orbit",
              "massless")]
    for group, j, l, point, *extra in cases:
        code, out, err = run_cli(capsys, "basis", "--group", group, "--j", j,
                                 "--l", l, "--point", point, *extra)
        assert code == 0, (group, j, l, err)
        assert (json.loads(out)["elements"] == []) == (group == "o2")


def _strict_json(text: str):
    def reject(name):
        raise AssertionError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_basis_near_the_float64_limit_prints_standard_json(capsys):
    # At this point the spin-0 kernel reaches 1.0e308, finite; rounding to
    # 15 decimals scales by 1e15 and used to turn it into Infinity, with an
    # overflow warning.  A kernel that does overflow (tensor20 at 1e78,
    # about 1e312) is a JSON error.
    argv = ["basis", "--group", "lorentz", "--mass", "1", "--point"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, "1e154,1e154,0,0",
                                 "--j", "vector", "--l", "vector")
        assert code == 0 and not err
        values = np.array([e["re"] for e in _strict_json(out)["elements"]])
        assert np.isfinite(values).all()
        assert 1e308 <= np.abs(values).max() < 1.01e308
        code, out, err = run_cli(capsys, *argv, "1e78,1e78,0,0",
                                 "--j", "tensor20", "--l", "tensor20")
    assert code == 1 and out == ""
    assert "overflow float64" in _strict_json(err)["error"]


def test_basis_at_the_rest_frame_of_any_mass(capsys):
    # Membership is tested in units of the mass, so no mass squares out of
    # range: the rest frame of a huge mass gets the identity section.
    args = ("basis", "--group", "lorentz", "--j", "vector", "--l", "vector")
    runs = [run_cli(capsys, *args, "--mass", m, "--point", f"{m},0,0,0")
            for m in ("1e200", "1")]
    assert [code for code, _, _ in runs] == [0, 0]
    huge, unit = (json.loads(out) for _, out, _ in runs)
    assert huge.pop("point") == [1e200, 0.0, 0.0, 0.0]
    assert unit.pop("point") == [1.0, 0.0, 0.0, 0.0]
    assert huge == unit


def test_verify_is_byte_identical_across_runs(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--group", "o2", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "verify", "--group", "o2", "--seed", "7")
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()


def test_verify_rejects_negative_seed(capsys):
    code, out, err = run_cli(capsys, "verify", "--seed", "-1")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "seed must be a non-negative integer, got -1"}


def test_python_m_steerkit_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-m", "steerkit", "--help"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: steerkit")
    for command in ("dims", "basis", "verify", "sample"):
        assert command in done.stdout


def test_unknown_flag_exits_2(capsys):
    code = main(["dims", "--group", "so2", "--bogus"])
    capsys.readouterr()
    assert code == 2
    # dims always solves on unit orbits and takes no orbit size
    for flag in ("--radius", "--mass"):
        assert main(["dims", "--group", "so3", flag, "2"]) == 2
        capsys.readouterr()


def test_bad_label_reports_json_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "basis", "--group", "lorentz",
                           "--j", "nonsense", "--l", "vector",
                           "--point", "1,0,0,0")
    assert code == 1
    assert "error" in json.loads(err)
    # malformed O(3) labels, including an empty one
    for bad in ("", "+", "1"):
        code, _, err = run_cli(capsys, "basis", "--group", "o3", "--j", bad,
                               "--l", "1+", "--point", "0,0")
        assert code == 1
        assert "'2+' or '2-'" in json.loads(err)["error"]
    # non-integer labels and points name the grammar, not Python's parser
    cases = [
        ("so3", "x", "1", "0,0", "an integer l >= 0"),
        ("so3", "-1", "1", "0,0", "an integer l >= 0"),
        ("o2", "1.5", "1", "0", "an integer j >= 0 or '0~'"),
        ("so2", "n", "1", "0", "an integer n"),
        ("so2", "1", "1", "0,x", cli.POINT_GRAMMAR),
        ("so3", "1", "1", "", cli.POINT_GRAMMAR),
        ("lorentz", "vector", "vector", "1,0,0,x", cli.POINT_GRAMMAR),
    ]
    for group, j, l, point, grammar in cases:
        code, _, err = run_cli(capsys, "basis", "--group", group, "--j", j,
                               "--l", l, "--point", point)
        assert code == 1
        message = json.loads(err)["error"]
        assert grammar in message and "invalid literal" not in message
    # SO(3)/O(3) labels above l = 32 and a negative --jmax are errors, not
    # tracebacks or an empty table that matches vacuously.
    for argv, why in [
            (("sample", "--group", "so3", "--j", "40", "--l", "1", "--grid",
              "sphere:2x2", "--out", "unused"), "0..32"),
            (("basis", "--group", "o3", "--j", "33+", "--l", "1+",
              "--point", "0,0"), "0..32"),
            (("basis", "--group", "so3", "--j", "33", "--l", "1",
              "--point", "0,0"), "0..32"),
            (("dims", "--group", "so3", "--jmax", "33"), "0..32"),
            (("dims", "--group", "so2", "--jmax", "33"), "at most 32"),
            (("dims", "--group", "o2", "--jmax", "33"), "at most 32"),
            (("dims", "--group", "so2", "--jmax", "-1"), "--jmax must be >= 0")]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and not out, argv
        assert why in json.loads(err)["error"], argv
    # The Lorentz labels are real (spinors realified): --field complex is
    # an error for every subcommand that takes it, and nothing is written.
    dump = str(tmp_path / "dump")
    for argv in [("dims", "--group", "lorentz"),
                 ("basis", "--group", "lorentz", "--j", "dirac", "--l",
                  "dirac", "--point", "1,0,0,0"),
                 ("sample", "--group", "lorentz", "--j", "vector", "--l",
                  "vector", "--grid", "massive:2x2x2", "--out", dump)]:
        code, out, err = run_cli(capsys, *argv, "--field", "complex")
        assert code == 1 and not out, argv
        assert "Lorentz labels are real" in json.loads(err)["error"], argv
    assert not list(tmp_path.iterdir())


def test_huge_circle_labels_report_json_error(capsys):
    # A circle label beyond 2**53 is a JSON error with exit 1, not an
    # OverflowError traceback from converting it to float.
    nines = "9" * 400
    for group in ("so2", "o2"):
        code, out, err = run_cli(capsys, "basis", "--group", group, "--j",
                                 nines, "--l", nines, "--point", "0.3")
        assert code == 1 and not out, group
        assert "at most 2**53" in json.loads(err)["error"], group


def test_bad_grid_reports_json_error(tmp_path, capsys):
    # Malformed or out-of-range grids exit 1 with a JSON error that says
    # why, write nothing, and never steer a NaN point as the rest frame.
    out = str(tmp_path / "dump")
    cases = [
        ("circle", [], "expected circle:N"),
        ("sphere", [], "expected circle:N"),
        ("massive", [], "expected circle:N"),
        ("sphere:4", [], "expected circle:N"),
        ("circle:4:eta=1", [], "expected circle:N"),
        ("massive:2x2x2:eta=abc", [], "expected circle:N"),
        ("massive:2x2x2:eta=800", [], "eta_max must be in"),
        ("massive:2x2x2:eta=nan", [], "eta_max must be in"),
        ("cone:2x2x2:eta=inf", [], "eta_max must be in"),
        ("massive:2x2x2:eta=200", [], "overflow float64"),
        ("massive:2x2x2", ["--mass", "nan"], "mass must be positive"),
    ]
    for grid, extra, why in cases:
        code, _, err = run_cli(capsys, "sample", "--group", "lorentz",
                               "--j", "tensor20", "--l", "tensor20",
                               "--grid", grid, "--out", out, *extra)
        assert code == 1, grid
        assert why in json.loads(err)["error"], grid
    code, _, err = run_cli(capsys, "sample", "--group", "so3", "--j", "1",
                           "--l", "1", "--grid", "sphere:2x2", "--radius",
                           "nan", "--out", out)
    assert code == 1
    assert "radius must be positive" in json.loads(err)["error"]
    assert not list(tmp_path.iterdir())


def test_parse_label_variants():
    assert parse_label("o2", "real", "0~").tilde
    assert parse_label("o3", "real", "2-").parity == -1
    assert parse_label("lorentz", "real", "tensor20").tensor == (2, 0)
    with pytest.raises(cli.CliError):
        parse_label("o3", "real", "2")


def test_parse_grid_variants():
    g = parse_grid("circle:8", 1.0, 1.0)
    assert isinstance(g.orbit, Circle) and g.shape == (8,)
    assert len(g.points()) == 8
    g = parse_grid("sphere:4x3", 2.0, 1.0)
    assert isinstance(g.orbit, Sphere) and g.orbit.radius == 2.0
    assert len(g.points()) == 12
    g = parse_grid("massive:3x2x2:eta=1.5", 1.0, 2.0)
    assert isinstance(g.orbit, MassiveHyperboloid) and g.orbit.mass == 2.0
    assert g.eta_max == 1.5 and len(g.points()) == 12
    g = parse_grid("cone:2x2x2", 1.0, 1.0)
    assert isinstance(g.orbit, NullCone)
    with pytest.raises(cli.CliError):
        parse_grid("pyramid:3", 1.0, 1.0)


def test_sample_roundtrip_bit_exact(tmp_path, capsys):
    out = str(tmp_path / "dump")
    code, _, _ = run_cli(capsys, "sample", "--group", "so3", "--j", "1",
                         "--l", "2", "--grid", "sphere:4x3", "--out", out,
                         "--seed", "3")
    assert code == 0
    manifest, arr = read_dump(out)
    assert manifest["basis_size"] == 3
    assert manifest["seed"] == 3
    assert arr.shape == (3, 12, 3, 5)
    # re-evaluate through the same code path: bit-exact agreement
    from steerkit import analytic_bases as bases
    from steerkit.irreps import so3_irrep
    from steerkit.steering import section_kernels
    elements = bases.basis_for(so3_irrep(1), so3_irrep(2), Sphere())
    grid = parse_grid("sphere:4x3", 1.0, 1.0)
    fresh = section_kernels(elements, grid.coords())
    assert np.array_equal(arr, fresh)
    # A grid on another sphere than the basis's is not evaluated.
    with pytest.raises(ValueError):
        cli.write_dump(out, elements, parse_grid("sphere:4x3", 2.0, 1.0), 3)


def test_sample_complex_payload_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "cdump")
    code, _, _ = run_cli(capsys, "sample", "--group", "so2", "--field",
                         "complex", "--j", "2", "--l", "0", "--grid",
                         "circle:6", "--out", out)
    assert code == 0
    manifest, arr = read_dump(out)
    assert manifest["complex"]
    assert arr.dtype.kind == "c"
    x = groups.circle_point(2 * math.pi / 6)
    from steerkit import analytic_bases as bases
    expect = bases.basis_so2(2, 0, "complex")[0].at(x)
    np.testing.assert_array_equal(arr[0, 1], expect)


@pytest.mark.parametrize("key,value", [
    ("payload_bytes", None), ("n_points", None), ("complex", None),
    ("format_version", None), ("basis_size", None), ("payload_sha256", None),
    ("n_points", "12"), ("n_points", 12.0), ("n_points", True),
    ("n_points", -12), ("basis_size", -3), ("dim_j", [3]),
    ("payload_bytes", "2592"), ("complex", 0), ("complex", "false"),
    ("format_version", True), ("format_version", "1")])
def test_read_dump_checks_the_manifest_fields(key, value, tmp_path, capsys):
    # A field that is missing (None here) or of the wrong kind is a CliError
    # that names it, never a KeyError, a repeated string or numpy's
    # ValueError.  Shape and size fields are integers >= 0, not booleans;
    # complex is a boolean.
    out = str(tmp_path / "dump")
    run_cli(capsys, "sample", "--group", "so3", "--j", "1", "--l", "1",
            "--grid", "sphere:4x3", "--out", out)
    manifest = Path(out + ".json")
    good = json.loads(manifest.read_text())
    assert good["n_points"] == 12
    assert good["payload_bytes"] == 3 * 12 * 3 * 3 * 8
    read_dump(out)
    edited = {k: v for k, v in good.items() if k != key}
    if value is not None:
        edited[key] = value
    manifest.write_text(json.dumps(edited))
    with pytest.raises(cli.CliError) as err:
        read_dump(out)
    message = str(err.value)
    assert key in message or "format version" in message
    assert "1212" not in message


def test_dump_rejects_tampering(tmp_path, capsys):
    out = str(tmp_path / "dump")
    run_cli(capsys, "sample", "--group", "so2", "--j", "1", "--l", "1",
            "--grid", "circle:4", "--out", out)
    with open(out + ".bin", "r+b") as fh:
        fh.seek(0)
        fh.write(b"\x01")
    with pytest.raises(cli.CliError):
        read_dump(out)
    # version bump rejection
    manifest = json.load(open(out + ".json"))
    manifest["format_version"] = 99
    json.dump(manifest, open(out + ".json", "w"))
    with pytest.raises(cli.CliError):
        read_dump(out)


def test_complex_roundtrip_keeps_signed_zeros(tmp_path, capsys,
                                              monkeypatch):
    # The values written and read back are the steered doubles, signed
    # zeros included, in a writable array.  The zeros are crafted into the
    # pieces rather than left to the products, whose signs of zero hang on
    # the BLAS kernels.
    from steerkit import steering
    crafted = np.arange(1.0, 325.0).reshape(36, 3, 3) * (0.5 - 0.25j)
    crafted.real[0, 0, 0], crafted.imag[0, 0, 0] = -0.0, 0.0
    crafted.real[5, 1, 2], crafted.imag[5, 1, 2] = 0.0, -0.0
    crafted.real[30, 2, 1], crafted.imag[30, 2, 1] = -0.0, -0.0
    monkeypatch.setattr(steering, "section_pieces",
                        lambda elements, coords: iter([crafted[:20],
                                                       crafted[20:]]))
    out = str(tmp_path / "dump")
    code, _, _ = run_cli(capsys, "sample", "--group", "so3", "--field",
                         "complex", "--j", "1", "--l", "1", "--grid",
                         "sphere:4x3", "--out", out)
    assert code == 0
    with open(out + ".bin", "rb") as fh:
        raw = fh.read()
    assert raw == crafted.astype("<c16").tobytes()
    stored = np.frombuffer(raw, "<f8")
    assert np.flatnonzero(stored == 0).tolist() == [0, 1, 100, 101, 554, 555]
    assert np.flatnonzero(np.signbit(stored) & (stored == 0)).tolist() == [
        0, 101, 554, 555]
    _, arr = read_dump(out)
    assert arr.dtype == np.dtype("<c16") and arr.shape == (3, 12, 3, 3)
    assert arr.tobytes() == raw
    assert arr.flags.writeable


def test_read_dump_checks_the_payload_size(tmp_path, capsys):
    out = str(tmp_path / "dump")
    run_cli(capsys, "sample", "--group", "so3", "--j", "1", "--l", "1",
            "--grid", "sphere:4x3", "--out", out)
    manifest = Path(out + ".json")
    good = json.loads(manifest.read_text())
    size = good["payload_bytes"]
    assert size == 3 * 12 * 3 * 3 * 8
    # The checksum still matches; the size that the manifest states does
    # not, through its shape or through payload_bytes.
    for key, value, needed in [("n_points", 13, 3 * 13 * 3 * 3 * 8),
                               ("payload_bytes", size + 8, size + 8)]:
        manifest.write_text(json.dumps(dict(good, **{key: value})))
        with pytest.raises(cli.CliError) as err:
            read_dump(out)
        assert str(size) in str(err.value) and str(needed) in str(err.value)


def test_failed_sample_leaves_the_existing_dump(tmp_path, capsys):
    # A grid whose kernel values overflow is rejected after steering has
    # begun; the dump already at --out stays byte-identical and no
    # temporary file is left beside it.
    out = str(tmp_path / "dump")
    argv = ["sample", "--group", "lorentz", "--j", "tensor20", "--l",
            "tensor20", "--out", out, "--grid"]
    code, _, _ = run_cli(capsys, *argv, "massive:2x2x2")
    assert code == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["dump.bin", "dump.json"]
    code, _, err = run_cli(capsys, *argv, "massive:2x2x2:eta=200")
    assert code == 1 and "overflow float64" in json.loads(err)["error"]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_memory_error_is_a_json_error(monkeypatch, tmp_path, capsys):
    # A grid too large for memory is a JSON error with exit 1, not a numpy
    # traceback, and leaves no file behind, whether the coordinates or the
    # stream of pieces fail to allocate.  The failures are simulated: the
    # grid of a hundred million points is never built.
    def no_coords(self):
        raise MemoryError("Unable to allocate 149. GiB for an array")
    out = str(tmp_path / "dump")
    argv = ["sample", "--group", "so3", "--j", "1", "--l", "1", "--out", out,
            "--grid"]
    with monkeypatch.context() as patch:
        patch.setattr(cli.GridSpec, "coords", no_coords)
        code, stdout, err = run_cli(capsys, *argv, "sphere:100000x100000")
    assert code == 1 and stdout == ""
    assert json.loads(err) == {
        "error": "out of memory: Unable to allocate 149. GiB for an array"}
    assert list(tmp_path.iterdir()) == []

    pieces = steering.section_pieces

    def one_piece_then_fail(elements, coords):
        yield next(iter(pieces(elements, coords)))
        raise MemoryError
    monkeypatch.setattr(steering, "section_pieces", one_piece_then_fail)
    code, stdout, err = run_cli(capsys, *argv, "sphere:4x3")
    assert code == 1 and stdout == ""
    assert json.loads(err) == {"error": "out of memory"}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid,bound_mb", [("massive:16x8x8:eta=2", 12.0),
                                          ("cone:16x8x8:eta=2", 7.4)])
def test_write_dump_never_holds_the_payload(grid, bound_mb, tmp_path):
    # tensor20 on the massive orbit (14 elements) has a 29.4 MB payload;
    # on the cone (one element) a 2.1 MB one, whose write path holds no
    # representation stack of the whole grid.
    from steerkit import analytic_bases as bases
    t20 = parse_label("lorentz", "real", "tensor20")
    spec = parse_grid(grid, 1.0, 1.0)
    elements = bases.basis_for(t20, t20, spec.orbit)
    out = str(tmp_path / "dump")
    cli.write_dump(out, elements, spec, 0)
    tracemalloc.start()
    try:
        manifest = cli.write_dump(out, elements, spec, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6
    assert manifest["payload_bytes"] == len(elements) * 1024 * 16 * 16 * 8


def test_dims_never_forms_a_basis(monkeypatch, capsys):
    # dims counts the oracle's solutions from the singular values alone:
    # no nullspace basis is taken on any table.
    from steerkit import numerics

    def no_basis(a):
        raise AssertionError("nullspace_with_spectrum called by dims")
    monkeypatch.setattr(numerics, "nullspace_with_spectrum", no_basis)
    for argv in [("--group", "lorentz", "--full"), ("--group", "so3"),
                 ("--group", "o3"), ("--group", "so2"), ("--group", "o2")]:
        code, out, err = run_cli(capsys, "dims", *argv)
        assert code == 0, (argv, err)
        assert json.loads(out)["all_match"] is True, argv


def test_lorentz_dims_table(capsys):
    code, out, _ = run_cli(capsys, "dims", "--group", "lorentz")
    assert code == 0
    data = json.loads(out)
    assert data["all_match"]
    rows = {(r["j"], r["l"], r["orbit"]): r["oracle"] for r in data["table"]}
    assert rows[("lorentz tensor(1, 0)", "lorentz tensor(1, 0)",
                 "massive(m=1)")] == 2


def test_rounding_keeps_values_from_eight_up_and_rounds_below():
    # From 8 up the doubles are more than 1e-15 apart, so rounding to 15
    # decimals is the identity there and basis prints those values as they
    # are; below 8 they are rounded as by np.round.
    rng = np.random.default_rng(31)
    a = rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(0.0, 290.0, 20000)
    big = np.abs(a) >= 8.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = cli._rounded(a)
    assert r[big].tobytes() == a[big].tobytes()
    assert [json.loads(json.dumps(v)) for v in r[big].tolist()] == a[big].tolist()
    assert r[~big].tobytes() == np.round(a[~big], 15).tobytes()
    small = rng.uniform(-8.0, 8.0, 20000)
    assert cli._rounded(small).tobytes() == np.round(small, 15).tobytes()
