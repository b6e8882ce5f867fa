"""The benchmark harness under ``perfbench/`` still runs against the library:
one cheap operation of each workload, after the workload's setup operation,
passes the operation's own check.  The checks read ``GridSpec.points`` and
pass its rows to ``steering.kernel_at``, so a change of the library's API
that breaks the harness fails here."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"

#: One cheap operation of each workload, by the name the harness gives it.
CHEAP_OPS = {
    "grid-sample": "sample so3 2/1 complex sphere:64x32",
    "oracle-dims": "dims --group so2 --jmax 8 --field complex",
    "verify-sweep": "sweep so3[real] l=0 / so3[real] l=0 on Sphere",
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # The module's dataclasses look themselves up in sys.modules.
    saved = sys.modules.get("workloads")
    sys.modules["workloads"] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        if saved is None:
            del sys.modules["workloads"]
        else:
            sys.modules["workloads"] = saved


@pytest.mark.parametrize("name", sorted(CHEAP_OPS))
def test_benchmark_op_passes_its_own_check(workloads, name, tmp_path):
    workload, seed = workloads.WORKLOADS[name], 11
    workload.setup_op(seed, str(tmp_path))
    stats: dict = {}
    (op,) = [op for op in workload.build(seed, str(tmp_path), stats)
             if op.name == CHEAP_OPS[name]]
    assert op.check(op.run(), 0) == []
