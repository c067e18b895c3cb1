"""Served tiers as subprocesses, and the closed-loop load generator.

The server (``repro serve``) and the router (``repro cluster serve``) run
exactly as an operator would start them, with shipped defaults; the
generator is perfbench's own newline-JSON client, so a change to
``repro.service.client`` cannot change the load offered.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from . import env

SPAWN_TIMEOUT_S = 60.0
ROUND_TIMEOUT_S = 120.0


class TierError(RuntimeError):
    pass


class Tier:
    """One ``repro serve`` or ``repro cluster serve`` process group."""

    def __init__(self, kind: str, *, workers: int = 2, cache_dir: Path | None = None):
        self.kind = kind
        rd = env.run_dir()
        tag = f"{kind}-{time.monotonic_ns()}"
        self.log = rd / f"{tag}.log"
        cmd = [sys.executable, "-m", "repro"]
        if kind == "serve":
            self._port_file = rd / f"{tag}.port"
            cmd += ["serve", "--port", "0", "--port-file", str(self._port_file)]
        else:
            self._port_file = None
            cmd += ["cluster", "serve", "--port", "0", "--workers", str(workers)]
            cmd += ["--runtime-dir", str(rd / f"{tag}.rt")]
            cmd += ["--cache-dir", str(cache_dir or rd / f"{tag}.cache")]
        started = time.perf_counter()
        with open(self.log, "wb") as log:
            # Own session: one killpg reaches the router *and* its workers,
            # and a terminal Ctrl-C reaches only perfbench, which then
            # shuts the tier down itself.
            self.proc = subprocess.Popen(
                cmd,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env.child_env(),
                cwd=str(rd),
                start_new_session=True,
            )
        env.register_tier(self)
        try:
            self.port = self._await_port()
        except BaseException:
            self.kill()
            raise
        self.spawn_s = time.perf_counter() - started

    def _await_port(self) -> int:
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            if self._port_file is not None:
                if self._port_file.exists():
                    text = self._port_file.read_text().strip()
                    if text:
                        return int(text)
            else:
                # "repro cluster listening on HOST:PORT (N workers, ...)"
                for line in self.log.read_text().splitlines():
                    if " listening on " in line:
                        return int(line.split(" listening on ")[1].split()[0].rsplit(":", 1)[1])
            time.sleep(0.01)
        raise TierError(
            f"{self.kind} tier did not come up (rc={self.proc.poll()}): "
            + self.log.read_text()[-2000:]
        )

    def _group_pids(self) -> list[int]:
        """Every live process in the tier's process group."""
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            # Fields after the parenthesised command: state ppid pgrp ...
            if int(stat.rsplit(")", 1)[1].split()[2]) == self.proc.pid:
                pids.append(int(entry))
        return pids

    def peak_rss_mb(self) -> float:
        """Sum of the high-water RSS of every process in the tier."""
        total_kb = 0
        for pid in self._group_pids():
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        """Graceful drain (SIGTERM is the tiers' documented drain signal)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        env.unregister_tier(self)


class Generator:
    """Closed loop: each connection sends its next request only after the
    previous reply arrived.  One single-threaded asyncio loop drives every
    connection, inside the perfbench process."""

    def __init__(self, port: int, connections: int) -> None:
        self._loop = asyncio.new_event_loop()
        started = time.perf_counter()
        self._conns = [
            self._loop.run_until_complete(
                asyncio.open_connection("127.0.0.1", port, limit=1 << 20)
            )
            for _ in range(connections)
        ]
        self.connect_ms = (time.perf_counter() - started) * 1000.0 / connections

    def run(self, lines: list[bytes]) -> tuple[list[bytes], list[float], list[float], float]:
        """Send every line once; returns replies, send times and latencies
        (all in line order) and the wall time of the whole round."""
        return self._loop.run_until_complete(
            asyncio.wait_for(self._drive(lines), ROUND_TIMEOUT_S)
        )

    async def _drive(self, lines):
        n = len(lines)
        replies = [b""] * n
        starts = [0.0] * n
        latencies = [0.0] * n
        pending = iter(range(n))  # shared: whichever connection is free takes the next

        async def connection(reader, writer):
            for i in pending:
                starts[i] = t0 = time.perf_counter()
                writer.write(lines[i])
                await writer.drain()
                replies[i] = await reader.readline()
                latencies[i] = time.perf_counter() - t0

        t0 = time.perf_counter()
        await asyncio.gather(*(connection(r, w) for r, w in self._conns))
        return replies, starts, latencies, time.perf_counter() - t0

    def request(self, msg: dict) -> dict:
        """One control op (``stats`` / ``health``) on the first connection."""
        line = json.dumps({"v": 1, **msg}).encode() + b"\n"

        async def exchange():
            reader, writer = self._conns[0]
            writer.write(line)
            await writer.drain()
            return await reader.readline()

        reply = self._loop.run_until_complete(
            asyncio.wait_for(exchange(), ROUND_TIMEOUT_S)
        )
        return json.loads(reply)

    def close(self) -> None:
        for _, writer in self._conns:
            writer.close()
        self._loop.run_until_complete(asyncio.sleep(0))
        self._loop.close()
