"""``repro.core`` builds workloads; it never runs a trial.

Every algorithm in ``repro.core`` either builds a
:class:`~repro.sim.spec.Workload` or states release times on one, and
the front doors run it, judged by the expectation table.  A core module
that imported ``repro.sim.batch`` or the facade could run a trial of its
own, with its own hand-written check.  This test scans the modules'
syntax, so it holds for code no other test reaches.
"""

import ast
from pathlib import Path

import repro

CORE = Path(repro.__file__).resolve().parent / "core"
FORBIDDEN = ("repro.sim.batch", "repro.facade")


def imported_modules(path: Path) -> set[str]:
    """Every module an ``import`` in ``path`` may load: the module
    itself, ``X.name`` for ``from X import name``, and the defining
    module of a name taken from the lazy ``repro`` namespace."""
    package = f"repro.core.{path.stem}".split(".")[:-1]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            found.add(module)
            for alias in node.names:
                found.add(f"{module}.{alias.name}")
                if module == "repro" and alias.name in repro._EXPORTS:
                    found.add("repro" + repro._EXPORTS[alias.name])
    return found


def test_no_core_module_imports_the_batch_module_or_the_facade():
    hits = {
        path.name: sorted(m for m in imported_modules(path) if m.startswith(FORBIDDEN))
        for path in sorted(CORE.glob("*.py"))
    }
    assert {name: mods for name, mods in hits.items() if mods} == {}


def test_the_scan_resolves_relative_imports():
    """The scan itself: a relative import is resolved to its module."""
    probe = CORE / "scheduler.py"
    assert "repro.sim.kernels" in imported_modules(probe)
    assert "repro.core.coloring" in imported_modules(probe)
