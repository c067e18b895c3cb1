"""Contract entry point: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1`` from the root of a checkout."""

import sys
from pathlib import Path

# Drop the script directory (it would shadow top-level names with
# perfbench's own modules) and make the ``perfbench`` package importable.
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
