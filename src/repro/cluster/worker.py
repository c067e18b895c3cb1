"""Worker lifecycle: spawn, watch, respawn ``repro serve`` processes.

Each cluster worker is a full :class:`~repro.service.server
.SimulationService` in its own process — spawned as ``python -m repro
serve --port 0 --port-file <f>`` so the OS picks an ephemeral port and
the supervisor reads it back from the (atomically written) port file.

Supervision reuses the :mod:`repro.exec` crash-recovery discipline one
level up the stack: the :class:`~repro.exec.process.ProcessPoolBackend`
restarts crashed *pool workers* under a batch; the
:class:`WorkerSupervisor` restarts crashed *service processes* under
the router, with the same bounded exponential backoff
(``BACKOFF_BASE_S * 2**consecutive_failures``) and the same
:class:`~repro.exec.base.ExecStats` counter vocabulary
(``worker_restarts`` / ``failures``), so ``health`` reads identically
whichever layer recovered.

A respawned worker keeps its ring *slot*: consistent hashing maps keys
to slot indices, not PIDs, so recovery changes no key placement — the
keys simply wait out (or fall back around, see
:meth:`~repro.cluster.hashing.HashRing.node_for`) the restart window.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..cli import COMMANDS
from ..exec.base import ExecStats
from ..service.client import ServiceClient, ServiceConnectionError
from ..service.config import ServiceConfig

__all__ = ["WorkerHandle", "WorkerSupervisor"]

#: Seconds to wait for a spawned worker to publish its port.
SPAWN_TIMEOUT_S = 60.0
#: Seconds between checks for that port.  On a 2-core host one worker
#: started alone publishes it in ~0.25 s; two started together share the
#: cores and take ~0.35-0.45 s.
SPAWN_POLL_S = 0.01
#: Consecutive failed respawns of one slot before giving up on it.
MAX_RESPAWNS = 5
#: Base of the respawn backoff (doubles per consecutive failure).
BACKOFF_BASE_S = 0.25


@dataclass
class WorkerHandle:
    """One live (or respawning) worker slot."""

    slot: int
    process: subprocess.Popen | None = None
    port: int | None = None
    port_file: Path | None = None
    log_file: Path | None = None
    #: Bumped on every respawn; lets the router tell "the worker I
    #: failed against" from "the replacement that since came up".
    generation: int = 0
    consecutive_failures: int = 0
    #: Set when the slot exhausted its respawn budget.
    failed: bool = False

    @property
    def alive(self) -> bool:
        return (
            self.process is not None
            and self.process.poll() is None
            and self.port is not None
        )


def _worker_env() -> dict[str, str]:
    """Child env with this checkout importable regardless of install."""
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else src_root + os.pathsep + existing
    )
    return env


class WorkerSupervisor:
    """Spawns N worker services and keeps them alive.

    Drive it from the router's event loop: :meth:`start` brings every
    slot up (blocking until each publishes its port), :meth:`monitor`
    is a long-running task respawning dead slots with backoff, and
    :meth:`stop` drains the tier (graceful ``shutdown`` op first,
    escalating to terminate/kill).
    """

    def __init__(
        self,
        workers: int,
        *,
        host: str,
        service: ServiceConfig,
        runtime_dir: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need >= 1 worker, got {workers}")
        self.host = host
        #: Template for every worker's ``repro serve`` argv (rendered
        #: from the ``serve`` row of :data:`repro.cli.COMMANDS`); host,
        #: port and port file are the supervisor's to set per slot.
        self.service = service
        self.stats = ExecStats("cluster")
        self.handles: list[WorkerHandle] = [
            WorkerHandle(slot=slot) for slot in range(workers)
        ]
        self._stopping = False
        #: Port files + worker logs live here (a tempdir when unset).
        self.runtime_dir = Path(
            runtime_dir or tempfile.mkdtemp(prefix="repro-cluster-")
        )
        self.runtime_dir.mkdir(parents=True, exist_ok=True)
        #: Signalled whenever any slot changes liveness (respawn done);
        #: the router awaits it while a forward target is down.
        self.changed = asyncio.Event()

    # -- spawning ------------------------------------------------------
    def _command(self, handle: WorkerHandle) -> list[str]:
        config = dataclasses.replace(
            self.service, host=self.host, port=0, port_file=str(handle.port_file)
        )
        argv = [sys.executable, "-m", "repro", "serve"]
        # The row's dests are ServiceConfig's field names; a flag whose
        # value is None stays at its (unset) default.
        for dest, (flag, _) in COMMANDS["serve"].flags.items():
            value = getattr(config, dest)
            if value is not None:
                argv += [flag, str(value)]
        return argv

    async def _spawn(self, handle: WorkerHandle) -> None:
        """(Re)launch one slot and wait for it to publish its port."""
        handle.generation += 1
        handle.port = None
        handle.port_file = (
            self.runtime_dir / f"worker{handle.slot}.g{handle.generation}.port"
        )
        handle.log_file = self.runtime_dir / f"worker{handle.slot}.log"
        with open(handle.log_file, "ab") as log:
            handle.process = subprocess.Popen(
                self._command(handle),
                stdout=log,
                stderr=subprocess.STDOUT,
                env=_worker_env(),
                cwd=str(self.runtime_dir),
            )
        self.stats.counters.bump("submitted")
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while time.monotonic() < deadline:
            if handle.process.poll() is not None:
                raise RuntimeError(
                    f"worker slot {handle.slot} exited rc="
                    f"{handle.process.returncode} during startup "
                    f"(log: {handle.log_file})"
                )
            try:
                text = handle.port_file.read_text().strip()
            except OSError:
                text = ""
            if text:
                handle.port = int(text)
                handle.consecutive_failures = 0
                self.stats.counters.bump("completed")
                return
            await asyncio.sleep(SPAWN_POLL_S)
        raise RuntimeError(
            f"worker slot {handle.slot} did not publish a port within "
            f"{SPAWN_TIMEOUT_S}s (log: {handle.log_file})"
        )

    async def start(self) -> None:
        """Bring every slot up; raises if any fails its first spawn."""
        await asyncio.gather(*(self._spawn(h) for h in self.handles))

    # -- supervision ---------------------------------------------------
    def address(self, slot: int) -> tuple[str, int]:
        handle = self.handles[slot]
        if handle.port is None:
            raise RuntimeError(f"worker slot {slot} has no port (down)")
        return self.host, handle.port

    def live_slots(self) -> list[int]:
        return [h.slot for h in self.handles if h.alive]

    async def monitor(self, poll_s: float = 0.1) -> None:
        """Respawn dead slots until :meth:`stop`; run as a task."""
        while not self._stopping:
            for handle in self.handles:
                if self._stopping or handle.failed or handle.alive:
                    continue
                if handle.process is not None and handle.port is not None:
                    # Died after a healthy startup: a crash, not a
                    # spawn failure.
                    self.stats.counters.bump("worker_restarts")
                handle.port = None
                handle.consecutive_failures += 1
                if handle.consecutive_failures > MAX_RESPAWNS:
                    handle.failed = True
                    self.stats.counters.bump("failures")
                    self.changed.set()
                    continue
                await asyncio.sleep(
                    BACKOFF_BASE_S * 2 ** (handle.consecutive_failures - 1)
                )
                try:
                    await self._spawn(handle)
                    self.stats.counters.bump("retried")
                except RuntimeError:
                    continue  # next pass backs off harder
                self.changed.set()
            await asyncio.sleep(poll_s)

    # -- shutdown ------------------------------------------------------
    async def stop(self, *, grace_s: float = 10.0) -> None:
        """Drain the tier: shutdown op, then terminate, then kill."""
        self._stopping = True

        async def drain(handle: WorkerHandle) -> None:
            if handle.process is None:
                return
            if handle.alive:
                try:
                    async with await ServiceClient.connect(
                        self.host, handle.port
                    ) as client:
                        await client.request(
                            {"op": "shutdown", "id": "cluster-drain"},
                            timeout_s=grace_s,
                        )
                except (OSError, ServiceConnectionError, ValueError):
                    pass  # already dying; escalate below
            try:
                await asyncio.wait_for(
                    asyncio.to_thread(handle.process.wait), grace_s
                )
            except (asyncio.TimeoutError, TimeoutError):
                handle.process.terminate()
                try:
                    await asyncio.wait_for(
                        asyncio.to_thread(handle.process.wait), 2.0
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    handle.process.kill()
                    await asyncio.to_thread(handle.process.wait)

        await asyncio.gather(*(drain(h) for h in self.handles))

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe per-slot + counter view for ``health``/``stats``."""
        return {
            **self.stats.snapshot(),
            "slots": [
                {
                    "slot": h.slot,
                    "alive": h.alive,
                    "port": h.port,
                    "generation": h.generation,
                    "failed": h.failed,
                }
                for h in self.handles
            ],
        }
