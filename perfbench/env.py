"""Environment hygiene: pinned variables, paths, machine fingerprint, clean-up.

Everything the benchmark writes lives under ``perfbench/out/`` inside the
checkout (trace files directly, everything else in a per-process run
directory that is deleted at exit), and every tier subprocess it spawns is
registered here so that normal exit, Ctrl-C, SIGTERM and a failed
correctness check all stop it.
"""

from __future__ import annotations

import atexit
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: Pinned for the perfbench process and every tier it spawns, so counts and
#: set iteration orders repeat and BLAS threads cannot oversubscribe the box.
PINNED = {
    "REPRO_FASTPATH": "numpy",
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
}


def pin_environment() -> None:
    """Apply :data:`PINNED`; re-exec once when the hash seed must change.

    ``PYTHONHASHSEED`` is read at interpreter start, so the only way to pin
    it for this process is to start again with it set.
    """
    reexec = os.environ.get("PYTHONHASHSEED") != PINNED["PYTHONHASHSEED"]
    os.environ.update(PINNED)
    if reexec:
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]], os.environ)


def require_repro() -> None:
    """Make ``src/`` importable; exit 2 (no result line) when it is absent."""
    sys.path.insert(0, str(SRC))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def load_benchmark() -> dict:
    """The declared workloads, metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def fingerprint() -> dict:
    """What a reader needs to judge whether two result files are comparable."""
    import numpy

    from repro.sim import fastpath

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    load1 = os.getloadavg()[0]
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fastpath": fastpath.active_backend(),
        "loadavg_1m": round(load1, 2),
        # Another tenant is competing for the cores: timings are suspect.
        "noisy": load1 > nproc(),
    }


# ----------------------------------------------------------------------
# Run directory and clean-up
# ----------------------------------------------------------------------

_run_dir: Path | None = None
_live_tiers: list = []


def run_dir() -> Path:
    """This process's scratch directory (port files, logs, cache dirs)."""
    global _run_dir
    if _run_dir is None:
        _run_dir = OUT / f"run-{os.getpid()}"
        _run_dir.mkdir(parents=True, exist_ok=True)
        atexit.register(_cleanup)
        # SIGTERM becomes a normal exit so ``finally`` blocks and atexit run.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return _run_dir


def child_env() -> dict[str, str]:
    """Environment for tier subprocesses: pinned vars, this checkout's
    ``src/`` first on the path, temp files inside the run directory."""
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(run_dir())
    return env


def register_tier(tier) -> None:
    _live_tiers.append(tier)


def unregister_tier(tier) -> None:
    if tier in _live_tiers:
        _live_tiers.remove(tier)


def _cleanup() -> None:
    for tier in list(_live_tiers):
        tier.kill()
    if _run_dir is not None:
        shutil.rmtree(_run_dir, ignore_errors=True)
