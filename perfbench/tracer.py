"""In-memory span tracer for steerkit's layer boundaries.

The package imports many functions by name (``from .irreps import
rep_matrix``), so wrapping ``irreps.rep_matrix`` alone would miss the calls
made through ``steering.rep_matrix``, ``verify.rep_matrix`` and so on.  The
tracer therefore rebinds every module attribute that *is* the traced function
object, in every loaded module, and puts all of them back on ``restore``.
Class attributes (a property, a method) are replaced on the class itself.

Spans are kept in flat arrays (name, start, end, parent, op id) and only
turned into per-function counts and self times, or written out, after the
traced work has finished.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

#: The traced public functions, by layer (the package's module names).  A
#: dotted name is an attribute of a class in that module.
LAYER_FUNCTIONS = {
    "irreps": ("rep_matrix", "rep_inverse", "wigner_small_d"),
    "steering": ("steer", "kernel_at"),
    "groups": ("coset_representative", "act", "random_element",
               "random_orbit_point", "GroupElement.matrix"),
    "numerics": ("nullspace_with_spectrum", "orthonormal_columns",
                 "principal_angle_distance", "projection_residual", "kron"),
    "stabilizer_solver": ("solve_basepoint", "constraint_operator",
                          "predicted_dimension"),
    "analytic_bases": ("basis_for",),
    "verify": ("check_case", "max_steer_residual", "massless_steer_residual",
               "equivariance_demo", "check_projectors",
               "gauge_shift_residual"),
    "cli": ("evaluate_on_grid", "write_dump", "GridSpec.points"),
}

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYER_FUNCTIONS.items()
                     for fn in fns)

OP_SPAN = "op"


class Tracer:
    """Records one span per call of each traced function.

    ``observers`` maps a traced name to ``f(args, kwargs, result)``, called
    after a successful call, for numbers a span cannot carry (input shapes,
    returned spectra).  Build the tracer after ``steerkit`` is imported.
    """

    def __init__(self, observers=None):
        self.names = [OP_SPAN]
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._op = [-1]
        self._observers = dict(observers or {})
        self._patches = self._plan()
        self.missing = [n for n in TRACED_NAMES
                        if n not in {p[3] for p in self._patches}]

    # -- rebinding ---------------------------------------------------------

    def _plan(self):
        """List ``(owner, attribute, original, traced_name, wrapper)``."""
        patches = []
        functions = {}  # id(original) -> (original, wrapper, traced name)
        for mod_name, fns in LAYER_FUNCTIONS.items():
            module = sys.modules.get(f"steerkit.{mod_name}")
            if module is None:
                continue
            for fn in fns:
                name = f"{mod_name}.{fn}"
                owner_name, _, attr = fn.rpartition(".")
                if owner_name:
                    cls = getattr(module, owner_name, None)
                    orig = vars(cls).get(attr) if cls is not None else None
                    if orig is None:
                        continue
                    if isinstance(orig, property):
                        new = property(self._wrap(orig.fget, name), orig.fset,
                                       orig.fdel, orig.__doc__)
                    else:
                        new = self._wrap(orig, name)
                    patches.append((cls, attr, orig, name, new))
                    continue
                orig = getattr(module, attr, None)
                if callable(orig):
                    functions[id(orig)] = (orig, self._wrap(orig, name), name)
        for module in list(sys.modules.values()):
            attrs = getattr(module, "__dict__", None)
            if not isinstance(attrs, dict):
                continue
            for key, val in list(attrs.items()):
                hit = functions.get(id(val))
                if hit is not None and hit[0] is val:
                    patches.append((module, key, val, hit[2], hit[1]))
        return patches

    def install(self) -> None:
        for owner, attr, _, _, new in self._patches:
            setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, orig, _, _ in reversed(self._patches):
            setattr(owner, attr, orig)

    def restored(self) -> bool:
        """True when every rebound attribute holds its original again."""
        return all(vars(owner).get(attr) is orig
                   for owner, attr, orig, _, _ in self._patches)

    def _wrap(self, fn, name: str):
        nid = self._intern(name)
        ids, parents, ops, starts, ends = (self.name_id, self.parent,
                                           self.op_id, self.start, self.end)
        stack, op = self._stack, self._op
        clock = time.perf_counter_ns
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ops.append(op[0])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    # -- op spans ----------------------------------------------------------

    def run_op(self, op_id: int, fn):
        """Run ``fn()`` traced, under a root span for operation ``op_id``."""
        idx = len(self.name_id)
        self.name_id.append(0)
        self.parent.append(-1)
        self.op_id.append(op_id)
        self.end.append(0)
        self._op[0] = op_id
        self._stack.append(idx)
        self.install()
        self.start.append(time.perf_counter_ns())
        try:
            return fn()
        finally:
            self.end[idx] = time.perf_counter_ns()
            self.restore()
            self._stack.pop()
            self._op[0] = -1

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """``{traced name: (calls, self seconds)}`` over all spans.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        n = len(self.name_id)
        start, end, parent = self.start, self.end, self.parent
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            k = self.name_id[i]
            calls[k] += 1
            self_ns[k] += end[i] - start[i] - child[i]
        return {name: (calls[k], self_ns[k] * 1e-9)
                for k, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write the spans as tab-separated text, one span a line."""
        names = self.names
        t0 = self.start[0] if len(self.start) else 0
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.name_id)):
                fh.write(f"{i}\t{names[self.name_id[i]]}\t"
                         f"{self.start[i] - t0}\t{self.end[i] - t0}\t"
                         f"{self.parent[i]}\t{self.op_id[i]}\n")
