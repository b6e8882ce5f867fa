"""The README's library quick tour runs, and ``steerkit.__all__`` resolves,
so that removing a public name cannot leave either of them stale."""

import re
from pathlib import Path

import steerkit

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour_runs():
    tour = README.read_text().split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S)
    assert block is not None
    exec(compile(block.group(1), f"{README.name} quick tour", "exec"), {})


def test_every_exported_name_resolves():
    names = steerkit.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(steerkit, n)] == []
