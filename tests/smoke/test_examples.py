"""Every script in ``examples/`` prints its recorded output.

Each case runs one script as a user would (``PYTHONPATH=src python
examples/<name>.py``) and holds it to exit 0 with stdout equal to
``tests/smoke/data/<name>.txt``.  Every script is seeded, so its output
is a golden: a change to a script, or to the simulator under it, that
moves a printed number shows here.  Deselected by default; run with
``pytest -m smoke``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.smoke

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
DATA = Path(__file__).resolve().parent / "data"


def test_every_example_has_a_golden():
    assert sorted(p.stem for p in EXAMPLES) == sorted(
        p.stem for p in DATA.glob("*.txt")
    )


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_prints_its_golden(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA / f"{script.stem}.txt").read_text()
