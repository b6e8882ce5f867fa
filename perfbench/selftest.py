"""Self-test of the tracer: it must see every call and change no output.

    python3 perfbench/selftest.py

Run from the root of a steerkit checkout.  Each case runs one small
``sample`` untraced and then traced, and requires exact call counts, an
unchanged payload SHA-256 and every rebound attribute restored afterwards.
The counts pin the call structure of the library at the commit that
defined the benchmark (for example, a compact ``rep_inverse`` calls
``rep_matrix``, so one steer makes three representation calls); a change
that batches or hoists those calls changes them.  Exits 0 when every case
passes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer  # noqa: E402
from workloads import run_cli, sample_argv  # noqa: E402

CASES = (
    (("so3", "2", "1", "real", "sphere:4x2"),
     {"groups.coset_representative": 8, "steering.steer": 24,
      "irreps.rep_matrix": 48, "irreps.rep_inverse": 24}),
    (("lorentz", "vector", "vector", "real", "massive:2x2x2"),
     {"groups.act": 8, "steering.steer": 16, "irreps.rep_matrix": 16,
      "irreps.rep_inverse": 16}),
)


def digest(case, out: str, tracer=None) -> str:
    argv = sample_argv(*case, out, 0)
    if tracer is None:
        code, stdout = run_cli(argv)
    else:
        code, stdout = tracer.run_op(0, lambda: run_cli(argv))
    if code != 0:
        raise SystemExit(f"sample {case} exited {code}")
    return json.loads(stdout)["payload_sha256"]


def main() -> int:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out = str(out_dir / "selftest")
    ok = True
    for case, expected in CASES:
        plain = digest(case, out)
        tracer = Tracer()
        traced = digest(case, out, tracer)
        totals = tracer.totals()
        checks = [(f"{name} calls", totals.get(name, (0,))[0], want)
                  for name, want in expected.items()]
        checks.append(("payload sha256 unchanged by tracing", traced, plain))
        checks.append(("attributes restored", tracer.restored(), True))
        for label, got, want in checks:
            passed = got == want
            ok = ok and passed
            print(f"{'PASS' if passed else 'FAIL'} {' '.join(case)}: "
                  f"{label}: {got}" + ("" if passed else f" (want {want})"))
    for suffix in (".json", ".bin"):
        Path(out + suffix).unlink(missing_ok=True)
    print("tracer self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
