import json
import math

import numpy as np
import pytest

from steerkit import cli, groups
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


def test_verify_is_byte_identical_across_runs(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--group", "o2", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "verify", "--group", "o2", "--seed", "7")
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()


def test_unknown_flag_exits_2(capsys):
    code = main(["dims", "--group", "so2", "--bogus"])
    capsys.readouterr()
    assert code == 2


def test_bad_label_reports_json_error(capsys):
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
        assert "error" in json.loads(err)


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
    from steerkit.steering import kernels_at
    elements = bases.basis_for(so3_irrep(1), so3_irrep(2), Sphere())
    grid = parse_grid("sphere:4x3", 1.0, 1.0)
    fresh = kernels_at(elements, grid.points())
    assert np.array_equal(arr, fresh)


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


def test_lorentz_dims_table(capsys):
    code, out, _ = run_cli(capsys, "dims", "--group", "lorentz")
    assert code == 0
    data = json.loads(out)
    assert data["all_match"]
    rows = {(r["j"], r["l"], r["orbit"]): r["oracle"] for r in data["table"]}
    assert rows[("lorentz tensor(1, 0)", "lorentz tensor(1, 0)",
                 "massive(m=1)")] == 2
