"""Every simulator result comes out of the one step loop.

A :class:`~repro.sim.stats.SimulationResult` is assembled only by
:meth:`repro.sim.engine.BatchStepLoop.results`: a router that builds
one itself is running a private step loop, restating the release
gating, idle-gap skip, step caps and blocked counting the loop owns
(DESIGN decision 6).  This test scans the source tree's syntax, so it
holds for code no other test reaches.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


class _ResultSites(ast.NodeVisitor):
    """``module:Qualified.scope`` of every ``SimulationResult(...)`` call."""

    def __init__(self, module: str) -> None:
        self.module, self.scope, self.sites = module, [], []

    def _enter(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if getattr(func, "id", getattr(func, "attr", None)) == "SimulationResult":
            self.sites.append(f"{self.module}:{'.'.join(self.scope)}")
        self.generic_visit(node)


def test_only_the_step_loop_builds_a_simulation_result():
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        visitor = _ResultSites(path.relative_to(SRC.parent).as_posix())
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        sites += visitor.sites
    assert sites == ["repro/sim/engine.py:BatchStepLoop.results"]
