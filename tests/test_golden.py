"""Golden SHA-256 digests of ``sample`` payloads, the ``verify`` report, two
``dims`` oracle tables, a steerability sweep, the oracle's bases and the
``basis`` output at single points.

The digests were computed before the grid-steering path was batched; any
change of output bits must be deliberate and come with new digests here.
The three Lorentz ``sample`` payloads, the ``verify`` report and the sweep
were re-pinned once since, when the coset sections and sphere coordinates
began to be computed from the point with atan2 and asinh instead of being
read back from a rotation matrix; CHANGES.md gives the differences.
The five SO(3)/O(3) ``sample`` payloads, the ``verify`` report, the sweep
and the oracle bases were re-pinned once more when the Wigner matrices
began to be read from one table of Fourier coefficients of d^l(beta) per
l and basis, which is closer to the exact D^l from l = 2 up; CHANGES.md
gives the differences and the errors against the 50-digit reference.
The ``verify`` report and the oracle bases were re-pinned once more when
the oracle began to solve per weight block of the rotations about z
instead of through one dense stack, once more when real labels began to
solve in real arithmetic and the demo to steer through ``steer``, and once
more when the hyperboloid's stabilizer sample dropped one of its two y
rotations; CHANGES.md gives the differences.  The ``verify`` report and
the two sweep digests were re-pinned once more when the sweeps began to
steer whole bases per matrix product, which rounds differently from the
per-kernel products in the last bits; CHANGES.md gives the differences
and the accuracy against the exact references.  The ``basis`` digests were
pinned before ``basis`` began to evaluate a whole basis through
``steering.section_kernels`` instead of element by element through
``kernel_at``.  Every digest held, none re-pinned, when ``steer``, the
streamed basis values and the sweeps began to steer through one product
engine, one pair of gemms per element.  The ``verify`` report was
re-pinned once more when the oracle stopped stacking the identity on the
circle, which moved the span angles of the complex O(2) pairs in the last
bit; CHANGES.md gives the differences and the distance of the bases from
the exact projectors.  The ``verify`` report and the first sweep digest
were re-pinned once more when the null cone's sweep joined the one sweep
of every other orbit, drawing its points and elements as they do; only
its cone values moved, and CHANGES.md gives them.  Both digests, the two
sweep digests, the ``sample`` payload digests and the ``basis`` digests
are also recomputed in a process pinned to one BLAS thread.  The oracle
bases and the ``verify`` report were re-pinned once more when the oracle
began to impose the element w that maps the weight m to -m (r_y under O(2)
and O(3), R_y(pi) on the massive hyperboloid) through weight bases adapted
to it; ``UNADAPTED_ORACLE_GOLDEN``, pinned then from the bits before that
change, holds the weight bases and the oracle bases of the pairs that have
no w (SO(2), SO(3), the null cone) to those bits.  The oracle bases and the
``verify`` report were re-pinned once more when the massive hyperboloid's
stabilizer came to be imposed by the ladder rows between adjacent weights
instead of a stacked rotation R_y(sqrt 2), its nullspace refined once, and
the realified Dirac pair, whose rows keep nothing, to return its
embedding; only the massive bases moved, and CHANGES.md gives the
differences.
One small grid per representation branch: real and complex Wigner D, the
O(3) parity factor, SO(2), the Lorentz tensor Kronecker products, the Dirac
spinor rep and the null-cone section.  The sweep digests pin the
verifier's steering path at the benchmark's 50 x 20 draws; the second one,
pinned before the sweeps began to draw and act on whole stacks, covers the
circle and orbits of non-unit size.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile

import pytest

import steerkit
from steerkit import analytic_bases as bases
from steerkit import verify
from steerkit.cli import main
from steerkit.groups import MassiveHyperboloid, NullCone, Sphere
from steerkit.irreps import (dirac_irrep, o3_irrep, so3_irrep,
                             spinor_vector_irrep, tensor_irrep)
from steerkit.stabilizer_solver import solve_basepoint, weight_bases

SAMPLE_GOLDENS = [
    (("so3", "2", "1", "real", "sphere:4x3"),
     "a810aab50fe7c5c93d2114646b120ef4f83223a1e51e624862c09a9625080a43"),
    (("so3", "2", "2", "complex", "sphere:4x3"),
     "6ab2d9ce40420afe63a23f0eef729e18898b4d62dd2bcfafd79853d26723aff5"),
    (("o3", "2-", "1+", "real", "sphere:4x3"),
     "25d45e4da6b03040a1487d622e69573f3cbfec9d5a1187414f340b313d5ec55d"),
    (("so2", "2", "3", "real", "circle:8"),
     "f559c7ccce1b24848069f03ba57f6b44c1afb1b4e74a89ba488b06d770ac301b"),
    (("lorentz", "tensor20", "tensor20", "real", "massive:3x2x2:eta=2"),
     "20651c56851977ba020efc9bef13901fc11587cfdbeb5a339a791487c27cd101"),
    (("lorentz", "dirac", "dirac", "real", "massive:3x2x2:eta=2"),
     "48a83578b00f9b647e6794487907b435fd8f9e875e1b655a0462ff170f35f243"),
    (("lorentz", "tensor20", "tensor20", "real", "cone:3x2x2:eta=2"),
     "8052b88270ed7753874ef7e7bd390587d3dbe76c1b834a801928091c091100d8"),
    # Several chunks, the last one partial: 26 + 26 + 4 and 89 + 39 points.
    (("so3", "8", "8", "real", "sphere:8x7"),
     "fba2665cbcf3d10db90240bd2abcc40fc1abbf293673d67a51425b3275c4939c"),
    (("so3", "4", "4", "complex", "sphere:16x8"),
     "238c35c31c730de5e3b7a65ce4d2f8d61afeb9db6fc93cc125cd30f09d1d12e7"),
]

VERIFY_SEED7_GOLDEN = (
    "9fcc9fd28981371f9d4c19678c685c4729579fdd9b93217be6510ff1b105c3a3")

#: The largest oracle stacks (the spinor-vector pair) and the complex O(3)
#: table, whose stacks are the ones a thin SVD rounds differently.
DIMS_GOLDENS = [
    (("--group", "lorentz", "--full"),
     "af56c8648c01587c9eb458f49c201d11d39f89de3412c00f94dbf972abb95a20"),
    (("--group", "o3", "--jmax", "4", "--field", "complex"),
     "36682cd9cb9ba8c6dbcca180374f6c5c23064a96e953345b1294ccc8779ea653"),
]


#: SHA-256 of the newline-joined reprs of ``verify.max_steer_residual`` at
#: 50 x 20 draws (eta_max 2, seed = case index) for so3 real 2/2, so3
#: complex 4/3, o3 0+/2+ (a 1x1 rep against parity elements), Lorentz
#: tensor20/vector, realified Dirac, realified spinor-vector and the cone
#: vector/vector case.
SWEEP_GOLDEN = (
    "f77cbc5f2ec6ea35de9e00256eff1c3cee9a4084b04ba5ed25b7fd3902444943")

#: The same sweep on the compact circle and on orbits of non-unit size: so2
#: real 2/3 and complex 1/2, o2 real 1/2 and 0~/1 on the circle of radius
#: 0.5, o3 1-/2+ on the sphere of radius 2.5 and tensor20/tensor20 on the
#: mass-2 hyperboloid.
ORBIT_SWEEP_GOLDEN = (
    "10b77d18969618241359798f31bede2aab1c63ebfe703e2a063f7ea31ff2f3b7")

#: SHA-256 of the concatenated ``solve_basepoint(...).basis`` bytes of the
#: realified spinor-vector pair (massive), tensor20/tensor20 on the cone, o3
#: complex 2+/3-, so3 real 4/4 and the realified Dirac pair.  The ``dims``
#: tables pin only the dimensions; this pins the oracle's bits.
ORACLE_GOLDEN = (
    "c6942e89700949b22d725f14444d73939318d7958dc5a26ce1c2198ba435daa6")

#: SHA-256 of the concatenated ``solve_basepoint(...).basis`` bytes of the
#: real SO(3) table to 8, the complex SO(2) table to 8 and the cone pairs of
#: the dims tables (tensor(1,1) / tensor(0,2) included), then of the weight
#: bases (twice the weight, then U_m) of their SO(3) and Lorentz labels.
UNADAPTED_ORACLE_GOLDEN = (
    "4da361f316a0cbb2ffbe06ab5547f4831d12188f4d8acd8a6563b2100bbf4517")

#: SHA-256 of ``basis`` stdout: so3 real 2/1 at both poles (the sections'
#: singular points), complex o3 and so2, the Lorentz vector pair at the
#: rest frame and at a point where its kernels reach 1e308, the Dirac pair
#: at a generic point and tensor20 on the cone at the backward null
#: direction.
BASIS_GOLDENS = [
    (("--group", "so3", "--j", "2", "--l", "1", "--point", "0,0"),
     "bac49dd2b0e522b71adf177078d3c2c2c9fff24bac0dcf9e648c53981cd1430c"),
    (("--group", "so3", "--j", "2", "--l", "1",
      "--point", "0.4,3.141592653589793"),
     "3c4cd72b30e3213b09bd9da0638ed166b527e402cff23e172a439ef2cc4e6a13"),
    (("--group", "o3", "--field", "complex", "--j", "1-", "--l", "2+",
      "--point", "0.7,1.1"),
     "2efb0b54902eb72ba31d8613e5d12c0e1875669a91c82c1cddc1715a1469bad1"),
    (("--group", "so2", "--field", "complex", "--j", "3", "--l", "3",
      "--point", "0.3"),
     "8073754fa8e9c563c279ee4face7fc577ebe025555b314f0d957d98a70196236"),
    (("--group", "lorentz", "--j", "vector", "--l", "vector",
      "--point", "1,0,0,0"),
     "7c4640b9b46c8d3b99e8885d87c47d2465551955c68a1415665196cb3a82d577"),
    (("--group", "lorentz", "--j", "vector", "--l", "vector",
      "--point", "1e154,1e154,0,0"),
     "a68cb25a0a0eba16191c4371f3f69e6b9e76e2df2aabd9d25576f453580fd2de"),
    (("--group", "lorentz", "--j", "dirac", "--l", "dirac",
      "--point", "2,1,1,1"),
     "39ebdb0a4a8d7e30975ad9af3ccf08e444862ead2df0da0da8847637dd8f364b"),
    (("--group", "lorentz", "--j", "tensor20", "--l", "tensor20",
      "--orbit", "massless", "--point", "1,0,0,-1"),
     "0a48580341dcdccc766b5ba836a1beff53626929d559770df793615dc32b66b7"),
]


def _sweep_cases():
    vec, t20 = tensor_irrep(1, 0), tensor_irrep(2, 0)
    dirac, sv = dirac_irrep(realified=True), spinor_vector_irrep(realified=True)
    return [bases.basis_so3(2, 2), bases.basis_so3(4, 3, "complex"),
            bases.basis_o3(0, 1, 2, 1), bases.lorentz_massive_basis(t20, vec),
            bases.lorentz_massive_basis(dirac, dirac),
            bases.lorentz_massive_basis(sv, sv), bases.basis_lorentz_massless(1)]


def _orbit_sweep_cases():
    t20 = tensor_irrep(2, 0)
    return [bases.basis_so2(2, 3, radius=0.5),
            bases.basis_so2(1, 2, "complex", radius=0.5),
            bases.basis_o2(1, 2, radius=0.5),
            bases.basis_o2("0~", 1, radius=0.5),
            bases.basis_o3(1, -1, 2, 1, radius=2.5),
            bases.lorentz_massive_basis(t20, t20, 2.0)]


def _sweep_digest(cases) -> str:
    text = "\n".join(
        repr(verify.max_steer_residual(els, els[0].orbit, n_g=50, n_x=20,
                                       seed=idx, eta_max=2.0))
        for idx, els in enumerate(cases))
    return hashlib.sha256(text.encode()).hexdigest()


def _sample_digest(case, out: str) -> str:
    """SHA-256 of the payload that ``sample`` writes for one case."""
    group, j, l, field, grid = case
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["sample", "--group", group, "--j", j, "--l", l,
                     "--field", field, "--grid", grid, "--out", out])
    assert code == 0
    with open(out + ".bin", "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _stdout_digest(*argv) -> str:
    """SHA-256 of what the CLI prints for one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _basis_digests() -> list:
    return [_stdout_digest("basis", *args) for args, _ in BASIS_GOLDENS]


def _dims_digests() -> list:
    return [_stdout_digest("dims", *args) for args, _ in DIMS_GOLDENS]


def _sample_digests() -> list:
    with tempfile.TemporaryDirectory() as tmp:
        return [_sample_digest(case, os.path.join(tmp, "dump"))
                for case, _ in SAMPLE_GOLDENS]


@pytest.mark.parametrize("case,golden", SAMPLE_GOLDENS,
                         ids=[" ".join(c[:3]) + " " + c[4]
                              for c, _ in SAMPLE_GOLDENS])
def test_sample_payload_matches_golden(case, golden, tmp_path):
    assert _sample_digest(case, str(tmp_path / "dump")) == golden


@pytest.mark.parametrize("args,golden", BASIS_GOLDENS,
                         ids=[" ".join(a[1::2]) for a, _ in BASIS_GOLDENS])
def test_basis_output_matches_golden(args, golden):
    assert _stdout_digest("basis", *args) == golden


def test_verify_seed7_report_matches_golden():
    assert _stdout_digest("verify", "--seed", "7") == VERIFY_SEED7_GOLDEN


@pytest.mark.parametrize("args,golden", DIMS_GOLDENS,
                         ids=[" ".join(a) for a, _ in DIMS_GOLDENS])
def test_dims_table_matches_golden(args, golden):
    assert _stdout_digest("dims", *args) == golden


def test_steer_sweep_matches_golden():
    assert _sweep_digest(_sweep_cases()) == SWEEP_GOLDEN


def test_orbit_steer_sweep_matches_golden():
    assert _sweep_digest(_orbit_sweep_cases()) == ORBIT_SWEEP_GOLDEN


def _oracle_digest() -> str:
    sv, t20 = spinor_vector_irrep(realified=True), tensor_irrep(2, 0)
    dirac = dirac_irrep(realified=True)
    cases = [(sv, sv, MassiveHyperboloid()), (t20, t20, NullCone()),
             (o3_irrep(2, 1, "complex"), o3_irrep(3, -1, "complex"), Sphere()),
             (so3_irrep(4), so3_irrep(4), Sphere()),
             (dirac, dirac, MassiveHyperboloid())]
    digest = hashlib.sha256()
    for j, l, orbit in cases:
        digest.update(solve_basepoint(j, l, orbit).basis.tobytes())
    return digest.hexdigest()


def test_oracle_bases_match_golden():
    assert _oracle_digest() == ORACLE_GOLDEN


def test_unadapted_oracle_bases_match_golden():
    cases = (verify.compact_case_grid("so3", 8, ("real",))
             + verify.compact_case_grid("so2", 8, ("complex",))
             + [c for c in verify.lorentz_case_grid(True)
                if isinstance(c[2], NullCone)]
             + [(tensor_irrep(1, 1), tensor_irrep(0, 2), NullCone())])
    digest = hashlib.sha256()
    for j, l, orbit in cases:
        digest.update(solve_basepoint(j, l, orbit).basis.tobytes())
    for label in dict.fromkeys(x for j, l, _ in cases for x in (j, l)
                               if x.group != "so2"):
        for m2, u in weight_bases(label)[0].items():
            digest.update(str(m2).encode())
            digest.update(u.tobytes())
    assert digest.hexdigest() == UNADAPTED_ORACLE_GOLDEN


def test_goldens_hold_on_one_blas_thread():
    # The oracle bases, the verify report, the steer sweeps, the sample
    # payloads, the basis output and the dims tables (counted by gesdd's
    # own QR step) must not hang on the BLAS thread count: a fresh process
    # pinned to one thread recomputes their digests.
    src = os.path.dirname(os.path.dirname(steerkit.__file__))
    path = [src, os.path.dirname(__file__), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(path))

    def run(*args) -> bytes:
        return subprocess.run([sys.executable, *args], env=env, check=True,
                              capture_output=True).stdout

    digests = run("-c", "import test_golden as t; print(t._oracle_digest(), "
                  "t._sweep_digest(t._sweep_cases()), "
                  "t._sweep_digest(t._orbit_sweep_cases()))")
    assert digests.decode().split() == [ORACLE_GOLDEN, SWEEP_GOLDEN,
                                        ORBIT_SWEEP_GOLDEN]
    digests = run("-c", "import test_golden as t; "
                  "print(*t._sample_digests(), *t._basis_digests(), "
                  "*t._dims_digests())")
    assert digests.decode().split() == [g for _, g in SAMPLE_GOLDENS
                                        + BASIS_GOLDENS + DIMS_GOLDENS]
    report = run("-m", "steerkit.cli", "verify", "--seed", "7")
    assert hashlib.sha256(report).hexdigest() == VERIFY_SEED7_GOLDEN
