"""Every cross-reference from the code and the documents resolves.

Comments and docstrings under ``src/`` and ``tests/`` cite DESIGN.md's
numbered key design decisions (its section 5) and MODEL.md's numbered
sections.  A citation of a decision or section that was renumbered,
folded or never written sends the reader nowhere, so each cited number
must name an entry that exists.

They, README.md, DESIGN.md, MODEL.md, EXPERIMENTS.md and
``examples/README.md`` also name the package's objects: a Sphinx role
(``:func:`` / ``:class:`` / ``:meth:`` / ``:mod:`` / ``:data:`` /
``:attr:``) with a ``repro.…`` target, or a backticked dotted
``repro.…`` name.  Each must import (the longest importable prefix) and
``getattr`` the rest, so a name that was deleted or moved is caught
where it is still mentioned.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: ``decision N``, ``decisions N-M`` (either dash), ``decisions N and M``.
DECISION = re.compile(r"\bdecisions? (\d+)(?:\s*(?:[–-]|and)\s*(\d+))?")
#: ``MODEL.md section N``, ``MODEL.md §N``.
MODEL_SECTION = re.compile(r"\bMODEL\.md,? (?:section |§ ?)(\d+)")


def _numbered(path: Path, heading: str, item: str) -> set[int]:
    """The numbers of ``item`` lines under the ``heading`` line of
    ``path`` (the whole file when ``heading`` is empty), up to the next
    heading of the same level."""
    text = path.read_text(encoding="utf-8")
    if heading:
        start = text.index(heading)
        end = text.find("\n## ", start + len(heading))
        text = text[start : end if end >= 0 else len(text)]
    return {int(n) for n in re.findall(item, text, flags=re.MULTILINE)}


DECISIONS = _numbered(ROOT / "DESIGN.md", "## 5. Key design decisions", r"^(\d+)\. \*\*")
SECTIONS = _numbered(ROOT / "MODEL.md", "", r"^## (\d+)\. ")


def _prose(path: Path) -> str:
    """The file with each line break (and a comment's ``#`` after it)
    folded to one space, so a citation wrapped across lines reads whole."""
    return re.sub(r"\s*\n\s*(?:#+\s*)?", " ", path.read_text(encoding="utf-8"))


def _citations():
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            text = _prose(path)
            for m in DECISION.finditer(text):
                lo, hi = int(m[1]), int(m[2] or m[1])
                for n in range(lo, hi + 1):
                    yield path.relative_to(ROOT), "decision", n
            for m in MODEL_SECTION.finditer(text):
                yield path.relative_to(ROOT), "MODEL.md section", int(m[1])


CITATIONS = sorted(set(_citations()))


def test_the_documents_number_their_entries():
    assert DECISIONS == set(range(1, max(DECISIONS) + 1))
    assert SECTIONS == set(range(1, max(SECTIONS) + 1))


def test_the_code_cites_both_documents():
    kinds = {kind for _, kind, _ in CITATIONS}
    assert kinds == {"decision", "MODEL.md section"}


@pytest.mark.parametrize("where, kind, number", CITATIONS, ids=str)
def test_every_citation_resolves(where, kind, number):
    known = DECISIONS if kind == "decision" else SECTIONS
    assert number in known, f"{where} cites {kind} {number}, which does not exist"


#: A Sphinx role's ``repro.…`` target (``~`` and a ``title <...>`` skipped).
ROLE = re.compile(r":(?:func|class|meth|mod|data|attr):`(?:[^`<]*<)?~?(repro\.[\w.]+)>?`")
#: A backticked dotted ``repro.…`` name (its last part may be followed
#: by a call, a wildcard or prose).
DOTTED = re.compile(r"`+(repro(?:\.\w+)+)")
DOCUMENTS = ("README.md", "DESIGN.md", "MODEL.md", "EXPERIMENTS.md", "examples/README.md")


def _references():
    paths = [p for top in ("src", "tests") for p in sorted((ROOT / top).rglob("*.py"))]
    for path in paths + [ROOT / doc for doc in DOCUMENTS]:
        text = path.read_text(encoding="utf-8")
        for pattern in (ROLE, DOTTED):
            for m in pattern.finditer(text):
                yield pattern, path.relative_to(ROOT), m[1]


REFERENCES = sorted({(where, name) for _, where, name in _references()})


def _resolves(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True
    return False


def test_the_scan_sees_roles_and_dotted_names():
    patterns = {pattern for pattern, _, _ in _references()}
    assert patterns == {ROLE, DOTTED}
    tops = {where.parts[0] for where, _ in REFERENCES}
    assert {"src", "tests", "README.md", "DESIGN.md"} <= tops


def test_every_named_object_resolves():
    unresolved = [f"{where}: {name}" for where, name in REFERENCES if not _resolves(name)]
    assert unresolved == []
