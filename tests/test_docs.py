"""The README's library quick tour runs, ``steerkit.__all__`` resolves,
and every name in the README's module map exists, so that removing a name
cannot leave any of them stale; and every library name has a reader."""

import argparse
import ast
import builtins
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import steerkit
from steerkit import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_quick_tour_runs():
    tour = README.read_text().split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S)
    assert block is not None
    exec(compile(block.group(1), f"{README.name} quick tour", "exec"), {})


def test_every_exported_name_resolves():
    names = steerkit.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(steerkit, n)] == []


def _resolves(name: str, namespaces) -> bool:
    """Whether a dotted name is an attribute path from one of the
    namespaces; a dataclass field counts as an attribute of its class."""
    head, *rest = name.split(".")
    for space in namespaces:
        if head not in space:
            continue
        obj = space[head]
        for part in rest:
            fields = getattr(obj, "__dataclass_fields__", {})
            obj = fields[part] if part in fields else getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def test_module_map_names_exist():
    # A backticked identifier in a module-map row is an attribute of some
    # steerkit module, a subcommand, a builtin or a parameter of a function
    # of that row's module.
    modules = {m.name: importlib.import_module(f"steerkit.{m.name}")
               for m in pkgutil.iter_modules(steerkit.__path__)
               if not m.name.startswith("_")}
    namespaces = [{"steerkit": steerkit, **modules}]
    namespaces += [vars(m) for m in modules.values()]
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    rows = [line for line in README.read_text().splitlines()
            if line.startswith("| `steerkit.")]
    assert len(rows) == len(modules)
    stale = []
    for row in rows:
        module = modules[re.match(r"\| `steerkit\.(\w+)`", row).group(1)]
        params = {name for _, f in inspect.getmembers(module, inspect.isfunction)
                  if f.__module__ == module.__name__
                  for name in inspect.signature(f).parameters}
        for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)*)`", row):
            if not (_resolves(name, namespaces) or name in sub.choices
                    or hasattr(builtins, name) or name in params):
                stale.append((module.__name__, name))
    assert stale == []


def _definitions(statement) -> list:
    """The names a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = (statement.targets if isinstance(statement, ast.Assign)
               else [statement.target] if isinstance(statement, ast.AnnAssign)
               else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def _reads(statement) -> set:
    """The names and attribute names a statement loads."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(statement)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def test_every_library_name_has_a_reader():
    # Every module-level name of the library is read elsewhere in it, is
    # exported by steerkit.__all__, or is read by the benchmark harness
    # under perfbench/.  Dunder names are exempt.
    statements = [(path.stem, s)
                  for path in sorted(Path(steerkit.__file__).parent.glob("*.py"))
                  for s in ast.parse(path.read_text()).body]
    reads = [_reads(s) for _, s in statements]
    bench = "\n".join(p.read_text()
                      for p in sorted((ROOT / "perfbench").rglob("*.py")))
    unread = []
    for i, (module, statement) in enumerate(statements):
        for name in _definitions(statement):
            if not (name.startswith("__") and name.endswith("__")
                    or any(name in r for k, r in enumerate(reads) if k != i)
                    or name in steerkit.__all__
                    or re.search(rf"\b{name}\b", bench)):
                unread.append(f"{module}.{name}")
    assert unread == []
