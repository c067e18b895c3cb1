"""Every cross-reference from the code into the design documents resolves.

Comments and docstrings under ``src/`` and ``tests/`` cite DESIGN.md's
numbered key design decisions (its section 5) and MODEL.md's numbered
sections.  A citation of a decision or section that was renumbered,
folded or never written sends the reader nowhere, so each cited number
must name an entry that exists.
"""

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
