"""Checks on the benchmark itself: ``pytest perfbench/tests`` (about a minute).

Not part of the repository's tier-1 suite (``testpaths = ["tests"]``): these
spawn tiers and run the smoke suite twice.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.suite import is_exact, verdict  # noqa: E402
from perfbench.workloads import WORKLOADS as SUITE_WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: The suite runs seven workloads; BENCHMARK.json names the four the driver's
#: run budget fits at a run length that repeats on a shared host.
WORKLOADS = list(SUITE_WORKLOADS)
GATED = [w["name"] for w in BENCH["workloads"]]
END_TO_END = [m["name"] for m in BENCH["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]


def _perfbench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "perfbench", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory) -> list[dict]:
    """Two back-to-back smoke suites (each must finish in < 30 s)."""
    out = tmp_path_factory.mktemp("smoke")
    runs = []
    for i in range(2):
        path = out / f"smoke{i}.json"
        proc = _perfbench("--smoke", "--out", str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        runs.append(json.loads(path.read_text())["workloads"])
    return runs


def test_benchmark_json_matches_the_contract():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCH["paths"] == ["perfbench"]
    assert BENCH["command"][:2] == ["python3", "perfbench/run.py"]
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert len(WORKLOADS) == 7 and 2 <= len(GATED) <= 8 and set(GATED) <= set(WORKLOADS)
    assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128
    names = WORKLOADS + END_TO_END + PER_LAYER
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(n) for n in names)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    # 4 + 22 x workloads runs of (run_seconds + set-up + checks) inside the cap.
    assert (4 + 22 * len(GATED)) * (BENCH["run_seconds"] + 8) <= 3420


def test_every_declared_pair_is_emitted(smoke_runs):
    for results in smoke_runs:
        assert list(results) == WORKLOADS
        for name, entry in results.items():
            assert entry["failed"] == 0, name
            assert list(entry["end_to_end"]) == END_TO_END, name
            assert list(entry["per_layer"]) == PER_LAYER, name
            assert all(v[0] > 0 for v in entry["end_to_end"].values()), name


def test_exact_counts_repeat(smoke_runs):
    first, second = smoke_runs
    checked = 0
    for name in WORKLOADS:
        for metric in PER_LAYER:
            if is_exact(metric):
                assert first[name]["per_layer"][metric] == second[name]["per_layer"][metric], (
                    name, metric,
                )
                checked += first[name]["per_layer"][metric][0] > 0
    assert checked >= 20  # the sweeps really counted something


def test_contract_form_runs_one_workload_alone():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_serial", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--scale", "0.1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == END_TO_END
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    for metric, cell in result["metrics"].items():
        assert set(cell) == {"value", "unit"} and cell["unit"] == units[metric]
        assert cell["value"] > 0


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/ the command
    exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_serial", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts(tmp_path):
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert verdict(steady, [v * 0.8 for v in steady], "lower", 0.10)[0] == "improved"
    assert verdict(steady, [v * 1.2 for v in steady], "lower", 0.10)[0] == "regressed"
    assert verdict(steady, [v * 1.2 for v in steady], "higher", 0.10)[0] == "improved"
    assert verdict(steady, [v * 1.01 for v in steady], "lower", 0.10)[0] == "unchanged"
    noisy = [100.0, 140.0, 70.0, 120.0, 85.0, 130.0, 75.0, 110.0, 95.0, 105.0]
    assert verdict(noisy, [v * 0.97 for v in noisy], "lower", 0.10)[0] == "unresolved"

    def doc(values):
        entry = {"end_to_end": {m: values for m in END_TO_END}, "per_layer": {}}
        return {"workloads": {"sweep_batched": entry}}

    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(doc(steady)))
    new.write_text(json.dumps(doc([v * 1.5 for v in steady])))
    proc = _perfbench("--compare", str(old), str(new))
    # ops_per_s is higher-better (improved); the lower-better ones regressed.
    assert proc.returncode == 1
    assert "regressed" in proc.stdout and "improved" in proc.stdout
    assert sum("sweep_batched" in line for line in proc.stdout.splitlines()) == len(END_TO_END)
