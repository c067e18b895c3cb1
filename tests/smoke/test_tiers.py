"""Real tiers through the CLI: ``repro serve`` and ``repro cluster serve``.

Each case launches ``python -m repro <row> --port 0``, reads the port
from the tier's ``... listening on HOST:PORT (`` banner and drives it as
an operator would: hostile lines, a lone client, estimates, then a
concurrent ``repro loadgen --shutdown`` that drains it.  Deselected by
default; run with ``pytest -m smoke``.
"""

import json
import re
import socket
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.service.protocol import MAX_LINE_BYTES

pytestmark = pytest.mark.smoke

WORKLOAD = ["--param", "chains=2", "--param", "depth=5", "--param", "messages=3"]
#: Each tier's argv, and the loadgen flags it is driven with: the
#: cluster gets three compat keys so that both workers see traffic.
TIERS = {
    "serve": (["serve"], []),
    "cluster": (
        ["cluster", "serve", "--workers", "2"],
        ["--simulators", "wormhole,cut_through,store_forward"],
    ),
}
BANNER = re.compile(r"listening on [\d.]+:(\d+) \(")


def wait_for_port(log, proc, timeout_s=60.0):
    """The port named by the tier's listening banner in ``log``."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        match = BANNER.search(log.read_text())
        if match:
            return int(match.group(1))
        assert proc.poll() is None, log.read_text()
        time.sleep(0.1)
    raise AssertionError(f"no listening banner:\n{log.read_text()}")


@pytest.mark.parametrize("tier", list(TIERS))
def test_tier_through_the_cli(tier, tmp_path):
    argv, flags = TIERS[tier]
    log = tmp_path / "tier.log"
    with log.open("w") as sink:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv, "--port", "0",
             "--max-wait-ms", "25"],
            stdout=sink,
            stderr=subprocess.STDOUT,
        )
    try:
        port = wait_for_port(log, proc)

        def loadgen(requests, *extra):
            out = tmp_path / "loadgen.json"
            assert main(
                ["loadgen", "--port", str(port), *WORKLOAD, "--length", "8",
                 *flags, "--requests", str(requests), *extra,
                 "--output", str(out)]
            ) == 0
            report = json.loads(out.read_text())
            assert report["ok"] == requests, report["statuses"]
            assert report["bit_exact"] is True, report["mismatches"]
            return report

        # Hostile lines, each on a throw-away connection: one structured
        # protocol error apiece and nothing else.
        for line in (b"not json\n", b"x" * (2 * MAX_LINE_BYTES) + b"\n"):
            with socket.create_connection(("127.0.0.1", port)) as s:
                s.sendall(line)
                s.shutdown(socket.SHUT_WR)
                while s.recv(65536):
                    pass

        # A lone client is every window's only peer (on the cluster, via
        # the router's one pooled connection): none waits out 25 ms.
        lone = loadgen(16, "--concurrency", "1", "--seed", "1")["server"]
        workers = lone["workers"] if tier == "cluster" else [lone]
        closed_by = [w["batches"]["closed_by"] for w in workers]
        assert sum(c["idle"] for c in closed_by) == 16, closed_by
        assert all(c["timeout"] == 0 for c in closed_by), closed_by

        # Estimates bypass the batcher and, on the cluster, the workers.
        # Counters are cumulative: this leg adds no batch and no forward.
        report = loadgen(24, "--simulators", "wormhole,store_forward",
                         "--mode", "estimate", "--concurrency", "6")
        assert report["client_mean_batch"] == 0.0
        est = report["server"]
        assert est["counters"]["estimated"] == 24
        assert est["batches"]["count"] == lone["batches"]["count"]
        if tier == "cluster":
            assert est["counters"]["forwarded"] == lone["counters"]["forwarded"]

        last = loadgen(32, "--concurrency", "8", "--shutdown")["server"]
        assert last["counters"]["protocol_errors"] == 2
        if tier == "serve":
            assert last["batches"]["mean_occupancy"] > 1
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait(timeout=60)
    text = log.read_text()
    assert " drained: " in text, text
    assert "Unhandled exception" not in text and "Traceback" not in text, text
