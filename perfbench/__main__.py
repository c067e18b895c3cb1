"""``python -m perfbench`` — the full suite and its helper modes."""

import sys

from perfbench.cli import main

sys.exit(main())
