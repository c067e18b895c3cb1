"""Unit tests for the command-line interface."""

import re

import pytest

from repro.cli import COMMANDS, build_parser, main

#: ``vars(build_parser().parse_args([*command]))`` for every bare command
#: (``x`` for a positional), as recorded before the parser became a table.
#: The one intended difference since: ``backend`` on ``serve`` / ``cluster
#: serve`` was ``"thread"``.
SURFACE = {
    "info": {"command": "info"},
    "demo": {"command": "demo", "n": 8, "length": 16, "seed": 0},
    "butterfly": {
        "command": "butterfly",
        "n": 64,
        "q": 4,
        "channels": 2,
        "length": 8,
        "seed": 0,
    },
    "schedule": {
        "command": "schedule",
        "width": 10,
        "depth": 10,
        "messages": 120,
        "length": 10,
        "seed": 0,
    },
    "hard-instance": {
        "command": "hard-instance",
        "congestion": 8,
        "dilation": 15,
        "channels": 1,
        "seed": 0,
    },
    "spacetime": {
        "command": "spacetime",
        "worms": 3,
        "depth": 4,
        "length": 5,
        "channels": 1,
    },
    "profile": {
        "command": "profile",
        "workload": "hard-instance",
        "scenario": None,
        "artifact": None,
        "congestion": 8,
        "dilation": 15,
        "channels": 1,
        "n": 8,
        "length": 0,
        "top": 5,
        "trace": None,
        "seed": 0,
    },
    "sweep": {
        "command": "sweep",
        "workload": "chain-bundle",
        "param": [],
        "simulators": "wormhole,cut_through,store_forward",
        "channels": (1, 2, 4),
        "length": 0,
        "repeats": 1,
        "workers": 0,
        "backend": None,
        "cache_dir": None,
        "force": False,
        "batch_size": "auto",
        "dry_run": False,
        "seed": 0,
    },
    "serve": {
        "command": "serve",
        "host": "127.0.0.1",
        "port": 7654,
        "queue_limit": 64,
        "max_batch": 32,
        "max_wait_ms": 2.0,
        "backend": "inline",
        "workers": 2,
        "batch_timeout_s": None,
        "port_file": None,
    },
    "cluster serve": {
        "command": "cluster",
        "cluster_command": "serve",
        "host": "127.0.0.1",
        "port": 7900,
        "workers": 2,
        "cache_dir": None,
        "queue_limit": 64,
        "max_batch": 32,
        "max_wait_ms": 2.0,
        "backend": "inline",
        "backend_workers": 1,
        "runtime_dir": None,
    },
    "loadgen": {
        "command": "loadgen",
        "host": "127.0.0.1",
        "port": 7654,
        "workload": "chain-bundle",
        "scenario": None,
        "param": [],
        "channels": (1, 2, 4),
        "length": 0,
        "simulators": None,
        "lengths": None,
        "requests": 32,
        "concurrency": 8,
        "rate": 0.0,
        "deadline_ms": None,
        "mode": "exact",
        "no_verify": False,
        "shutdown": False,
        "output": None,
        "seed": 0,
    },
    "scenario list": {"command": "scenario", "scenario_command": "list"},
    "scenario show": {
        "command": "scenario",
        "scenario_command": "show",
        "name": "x",
    },
    "scenario run": {
        "command": "scenario",
        "scenario_command": "run",
        "name": "x",
        "model": None,
        "channels": (1, 2, 4),
        "param": [],
        "seed": 0,
    },
    "fuzz": {
        "command": "fuzz",
        "rounds": 50,
        "seed": 0,
        "families": None,
        "artifact_dir": "fuzz-artifacts",
        "replay": None,
    },
    "experiment": {"command": "experiment", "name": "x"},
    "reproduce": {"command": "reproduce"},
}


#: The batched == serial grid of every lockstep model.  Eight messages a
#: chain at B in {1, 2, 4}: batched rounds read none, some and all of
#: their reserved random priorities (DESIGN decision 23).  The adaptive
#: router needs a mesh.
CHAINS_OF_EIGHT = (
    "--workload chain-bundle --param chains=2 --param depth=5 "
    "--param messages=8 --length 8 --channels 1,2,4"
).split()
BATCH_GRIDS = {
    **dict.fromkeys(
        ("wormhole", "cut_through", "store_forward", "restricted"),
        CHAINS_OF_EIGHT,
    ),
    "adaptive": "--workload mesh-permutation --param k=4 --channels 1,2".split(),
}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["butterfly"])
        assert args.n == 64 and args.channels == 2

    def test_every_row_is_recorded(self):
        assert list(COMMANDS) == list(SURFACE)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_bare_command_parses_to_the_recorded_surface(self, command):
        """Dests, defaults and converted types of every row of the table."""
        argv = command.split() + ["x"] * ("name" in COMMANDS[command].flags)
        got = vars(build_parser().parse_args(argv))
        assert got == SURFACE[command]
        assert [type(v) for v in got.values()] == [
            type(v) for v in SURFACE[command].values()
        ]

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_every_row_renders_its_help(self, command, capsys):
        """argparse interpolates help strings only when it renders them,
        and a row's defaults go through each flag's ``type=`` differently
        on 3.10 and 3.12, so every row's help is rendered for real."""
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), "--help"])
        assert exc.value.code == 0
        assert f"usage: repro {command}" in capsys.readouterr().out

    def test_supervisor_argv_round_trips_through_the_serve_row(self, tmp_path):
        """``WorkerSupervisor._command`` renders the worker template from
        the ``serve`` row's flags, so parsing it back must rebuild the
        template with the supervisor's host / port / port file set."""
        import dataclasses

        from repro.cli import _config
        from repro.cluster.worker import WorkerSupervisor
        from repro.service import ServiceConfig

        template = ServiceConfig(
            queue_limit=7, max_batch=5, max_wait_ms=1.5, backend="process", workers=3
        )
        supervisor = WorkerSupervisor(
            1, host="127.0.0.9", service=template, runtime_dir=str(tmp_path)
        )
        handle = supervisor.handles[0]
        handle.port_file = tmp_path / "worker0.port"
        argv = supervisor._command(handle)
        assert argv[1:3] == ["-m", "repro"]
        # Parsed and rebuilt exactly as `repro serve` does it.
        rebuilt = _config(ServiceConfig, build_parser().parse_args(argv[3:]))
        assert rebuilt == dataclasses.replace(
            template, host="127.0.0.9", port=0, port_file=str(handle.port_file)
        )
        # An unset field stays off the argv instead of rendering "None".
        assert "--batch-timeout-s" not in argv and "None" not in argv


class TestCommands:
    def test_info(self, capsys):
        import repro

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "virtual channels" in out
        # Every entry point it lists resolves on the package.
        listed = re.findall(r"^  - repro\.(.+)$", out, re.M)
        names = [n for entry in listed for n in entry.split(" / ")]
        assert "simulate" in names
        for name in names:
            assert hasattr(repro, name), name

    def test_demo(self, capsys):
        assert main(["demo", "--n", "8", "--length", "8"]) == 0
        out = capsys.readouterr().out
        assert "Bit-reversal" in out
        assert out.count("\n") >= 5

    def test_butterfly(self, capsys):
        assert main(["butterfly", "--n", "16", "--q", "2", "--length", "4"]) == 0
        out = capsys.readouterr().out
        assert "all delivered: True" in out

    def test_schedule(self, capsys):
        assert main(
            ["schedule", "--width", "6", "--depth", "5", "--messages", "40"]
        ) == 0
        out = capsys.readouterr().out
        assert "LLL schedules" in out

    def test_schedule_exits_non_zero_on_a_violation(self, capsys, monkeypatch):
        from repro.fuzz import invariants
        from repro.fuzz.invariants import Violation

        monkeypatch.setattr(
            invariants,
            "check_schedule_bound",
            lambda makespan, **kw: Violation("schedule-upper-bound", "forced"),
        )
        argv = ["schedule", "--width", "6", "--depth", "5", "--messages", "40"]
        with pytest.raises(SystemExit, match="3 expectation"):
            main(argv)
        assert "VIOLATION [schedule-upper-bound] forced" in capsys.readouterr().out

    def test_hard_instance(self, capsys):
        assert main(["hard-instance", "--congestion", "4", "--dilation", "11"]) == 0
        out = capsys.readouterr().out
        assert "Omega bound" in out

    def test_spacetime(self, capsys):
        assert main(["spacetime", "--worms", "2", "--depth", "3"]) == 0
        out = capsys.readouterr().out
        assert "*" in out

    def test_profile_hard_instance(self, capsys):
        assert main(
            ["profile", "--congestion", "4", "--dilation", "7", "--top", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "Theorem 2.2.1 hard instance" in out
        assert "## Hottest edges (flits crossed)" in out
        assert "## Stall attribution" in out
        assert "worst blame chain" in out

    def test_profile_demo_workload(self, capsys):
        assert main(
            ["profile", "--workload", "demo", "--n", "8", "--channels", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "butterfly" in out
        assert "## Throughput" in out

    def test_profile_writes_replayable_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        assert main(
            [
                "profile",
                "--congestion", "4",
                "--dilation", "7",
                "--trace", str(trace_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert str(trace_path) in out
        from repro.telemetry import load_trace, replay_check

        replay_check(load_trace(trace_path))

    def test_sweep_prints_grid_table(self, capsys):
        assert main(
            [
                "sweep",
                "--workload", "chain-bundle",
                "--param", "chains=2",
                "--param", "depth=5",
                "--param", "messages=3",
                "--length", "8",
                "--simulators", "wormhole,store_forward",
                "--channels", "1,2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "sweep: chain-bundle" in out
        assert "wormhole" in out and "store_forward" in out
        assert "4 trials (0 cached, 4 executed)" in out

    def test_sweep_uses_and_reports_cache(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--workload", "chain-bundle",
            "--param", "chains=2",
            "--param", "depth=5",
            "--param", "messages=3",
            "--length", "8",
            "--simulators", "wormhole,cut_through,store_forward",
            "--channels", "1,2",
            "--cache-dir", str(tmp_path),
        ]
        # The entries a worker pool writes serve a serial rerun.
        assert main(argv + ["--workers", "2"]) == 0
        assert "6 trials (0 cached, 6 executed)" in capsys.readouterr().out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "6 trials (6 cached, 0 executed)" in out

    def test_sweep_rejects_unknown_workload(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["sweep", "--workload", "zzz"])

    def test_sweep_rejects_malformed_param(self, capsys):
        # --param is an argparse type=: a usage error on stderr, exit 2.
        with pytest.raises(SystemExit):
            main(["sweep", "--param", "oops"])
        assert "KEY=VAL" in capsys.readouterr().err

    @pytest.mark.parametrize("simulator", list(BATCH_GRIDS))
    def test_sweep_batch_size_matches_serial(self, capsys, simulator):
        grid = BATCH_GRIDS[simulator]
        argv = ["sweep", *grid, "--simulators", simulator, "--repeats", "2"]
        assert main(argv + ["--batch-size", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--batch-size", "4"]) == 0
        batched = capsys.readouterr().out
        # Identical tables either way (the footer's wall time may jitter).
        assert serial.splitlines()[:-1] == batched.splitlines()[:-1]
        trials = 2 * len(grid[grid.index("--channels") + 1].split(","))
        assert f"{trials} trials (0 cached, {trials} executed)" in batched

    def test_sweep_rejects_bad_batch_size(self):
        with pytest.raises(SystemExit, match="batch-size"):
            main(["sweep", "--batch-size", "zero"])
        with pytest.raises(SystemExit, match="batch-size"):
            main(["sweep", "--batch-size", "0"])

    def test_sweep_dry_run_prints_plan_without_executing(self, capsys):
        assert main(
            [
                "sweep",
                "--workload", "chain-bundle",
                "--param", "chains=2",
                "--param", "depth=5",
                "--param", "messages=3",
                "--length", "8",
                "--simulators", "wormhole,store_forward",
                "--channels", "1,2,4",
                "--dry-run",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "sweep plan (dry run" in out
        # Both routers batch now; each model's 3 trials pack into one
        # lockstep batch, labelled per model in the summary.
        assert "lockstep" in out
        assert "wormhole: 1 lockstep batch(es)" in out
        assert "store_forward: 1 lockstep batch(es)" in out
        assert (
            "6 trials: 0 cache hits, 6 to execute in 2 lockstep batch(es) "
            "+ 0 single(s); nothing executed (dry run)" in out
        )
        # No trial ran: no result table, no wall time footer.
        assert "makespan" not in out
        assert "executed)" not in out

    def test_sweep_dry_run_labels_singles_per_model(self, capsys):
        assert main(
            [
                "sweep",
                "--workload", "chain-bundle",
                "--param", "chains=2",
                "--param", "depth=5",
                "--param", "messages=3",
                "--length", "8",
                "--simulators", "restricted,wormhole",
                "--channels", "1,2,4",
                "--batch-size", "2",
                "--dry-run",
            ]
        ) == 0
        out = capsys.readouterr().out
        # Each model's three trials fill one batch of two; the third is
        # that model's single.
        assert "restricted: 1 lockstep batch(es) + 1 single(s)" in out
        assert "wormhole: 1 lockstep batch(es) + 1 single(s)" in out
        assert (
            "6 trials: 0 cache hits, 6 to execute in 2 lockstep batch(es) "
            "+ 2 single(s); nothing executed (dry run)" in out
        )

    def test_sweep_dry_run_sees_cache_hits(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--workload", "chain-bundle",
            "--param", "chains=2",
            "--param", "depth=5",
            "--param", "messages=3",
            "--length", "8",
            "--simulators", "wormhole",
            "--channels", "1,2",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "2 trials: 2 cache hits, 0 to execute" in out
        # --force plans a full re-run even with a warm cache.
        assert main(argv + ["--dry-run", "--force"]) == 0
        out = capsys.readouterr().out
        assert "2 trials: 0 cache hits, 2 to execute" in out

    def test_serve_and_loadgen_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 7654 and args.queue_limit == 64
        assert args.max_batch == 32 and args.max_wait_ms == 2.0
        args = build_parser().parse_args(["loadgen"])
        assert args.requests == 32 and args.concurrency == 8
        assert args.channels == (1, 2, 4) and args.rate == 0.0
        assert args.output is None and args.lengths is None
        assert not args.no_verify and not args.shutdown

    def test_loadgen_rejects_empty_channels(self, capsys):
        with pytest.raises(SystemExit):
            main(["loadgen", "--channels", ","])
        assert "repro loadgen: error: argument --channels" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["sweep", "--channels", "1,x"],
                "repro sweep: error: argument --channels: expected "
                "comma-separated integers",
            ),
            (
                ["sweep", "--channels", ""],
                "repro sweep: error: argument --channels: must name at "
                "least one integer",
            ),
            (
                ["loadgen", "--lengths", "8,x"],
                "repro loadgen: error: argument --lengths: expected "
                "comma-separated integers",
            ),
            (
                ["sweep", "--simulators", "nope"],
                "repro sweep: unknown simulator 'nope'",
            ),
            (
                # A Theorem 2.1.6 schedule is a workload, not a simulator.
                ["sweep", "--simulators", "schedule"],
                "repro sweep: unknown simulator 'schedule'",
            ),
            (
                ["loadgen", "--param", "oops"],
                "repro loadgen: error: argument --param: needs KEY=VAL",
            ),
            (
                ["scenario", "run", "chain-contention", "--param", "oops"],
                "repro scenario run: error: argument --param: needs KEY=VAL",
            ),
            (
                ["sweep", "--param", "nosuch=1", "--channels", "1"],
                "repro sweep: workload 'chain-bundle' cannot be built with "
                "nosuch=1: no parameter named nosuch; parameters: chains, "
                "depth, messages",
            ),
            (
                ["sweep", "--param", "chains=x", "--channels", "1"],
                "repro sweep: workload 'chain-bundle' cannot be built with "
                "chains='x'",
            ),
            (
                ["scenario", "run", "chain-contention", "--param", "nosuch=1"],
                "repro scenario: scenario 'chain-contention' cannot be built "
                "with nosuch=1: no parameter named nosuch; parameters: "
                "chains, depth, messages",
            ),
            (
                ["scenario", "run", "lower-bound-gadget", "--param", "B=2"],
                "repro scenario: --param B names one of the run's own options",
            ),
        ],
        ids=[
            "sweep-channels-not-int",
            "sweep-channels-empty",
            "loadgen-lengths-not-int",
            "sweep-unknown-simulator",
            "sweep-schedule-is-not-a-simulator",
            "loadgen-param-names-its-command",
            "scenario-run-param-names-its-command",
            "sweep-unknown-workload-param",
            "sweep-ill-typed-workload-param",
            "scenario-run-unknown-builder-param",
            "scenario-run-param-shadows-run-option",
        ],
    )
    def test_malformed_list_flag_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code not in (0, None)
        # argparse prints to stderr and exits 2; handlers exit with the text.
        assert message in capsys.readouterr().err + str(exc.value.code)
        if isinstance(exc.value.code, str):
            # What a shell sees: one line naming the command, no traceback.
            assert exc.value.code.startswith(f"repro {argv[0]}: ")
            assert "\n" not in exc.value.code

    def test_loadgen_unreachable_server_is_a_clean_error(self):
        # Port 1 on loopback is never listening; connect fails fast.
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["loadgen", "--port", "1", "--requests", "1"])

    def test_experiment_unknown_name(self):
        with pytest.raises(SystemExit, match="no benchmark"):
            main(["experiment", "zzz"])

    def test_experiment_prints_saved_tables(self, capsys):
        """A previously-generated table prints even without rerunning,
        as long as the bench run itself succeeds."""
        import pathlib

        results = pathlib.Path("benchmarks/results")
        if not (results / "e7_fig2_route.txt").exists():
            pytest.skip("bench results not generated yet")
        assert main(["experiment", "e7"]) == 0
        out = capsys.readouterr().out
        assert "two-pass route" in out

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "info"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "repro" in proc.stdout


class TestScenarioCommand:
    def test_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "lower-bound-gadget" in out
        assert "ring-dateline" in out
        assert "continuous" in out

    def test_show(self, capsys):
        assert main(["scenario", "show", "lower-bound-gadget"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 2.2.1" in out
        assert "C" in out and "D" in out
        assert "expect" in out.lower()

    def test_run_gadget_across_channels(self, capsys):
        assert main(
            [
                "scenario",
                "run",
                "lower-bound-gadget",
                "--channels",
                "1,2",
                "--param",
                "C=6",
                "--param",
                "D=7",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "case:" in out

    def test_run_unknown_scenario(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["scenario", "run", "zzz"])

    def test_run_rejects_undeclared_model(self):
        with pytest.raises(SystemExit, match="does not support model"):
            main(
                ["scenario", "run", "ring-deadlock", "--model", "store_forward"]
            )

    def test_run_bad_param_is_a_clean_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenario", "run", "chain-contention", "--param", "chains"])
        assert "--param" in capsys.readouterr().err

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])


class TestFuzzCommand:
    def test_small_clean_run(self, capsys, tmp_path):
        assert main(
            [
                "fuzz",
                "--rounds",
                "3",
                "--seed",
                "0",
                "--artifact-dir",
                str(tmp_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "all invariants held" in out
        assert list(tmp_path.iterdir()) == []

    def test_family_restriction(self, capsys, tmp_path):
        assert main(
            [
                "fuzz",
                "--rounds",
                "2",
                "--families",
                "ring",
                "--artifact-dir",
                str(tmp_path),
            ]
        ) == 0
        assert "ring=2" in capsys.readouterr().out

    def test_unknown_family_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown fuzz famil"):
            main(["fuzz", "--rounds", "1", "--families", "bogus"])

    def test_replay_missing_artifact_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="artifact"):
            main(["fuzz", "--replay", str(tmp_path / "nope.json")])


class TestScenarioIntegrationFlags:
    def test_loadgen_scenario_default_is_none(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.scenario is None

    def test_loadgen_unknown_scenario_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["loadgen", "--scenario", "zzz", "--requests", "1"])

    def test_profile_scenario_smoke(self, capsys):
        assert main(
            ["profile", "--scenario", "chain-contention", "--channels", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "chain-contention" in out
        assert "Run summary" in out and "Throughput" in out

    def test_profile_scenario_and_artifact_conflict(self, tmp_path):
        with pytest.raises(SystemExit, match="not both"):
            main(
                [
                    "profile",
                    "--scenario",
                    "chain-contention",
                    "--artifact",
                    str(tmp_path / "a.json"),
                ]
            )
