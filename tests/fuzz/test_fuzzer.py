"""The fuzz driver: determinism, clean runs, sabotage, shrink, replay."""

import json
from pathlib import Path

import pytest

from repro.fuzz import fuzzer as fz
from repro.fuzz.fuzzer import (
    FAMILIES,
    generate_case,
    replay_artifact,
    run_case,
    run_fuzz,
    shrink_case,
)
from repro.fuzz.invariants import Violation
from repro.network.graph import NetworkError


class TestGeneration:
    def test_same_seed_and_round_is_identical(self):
        a = generate_case(7, 3)
        b = generate_case(7, 3)
        assert a.family == b.family
        assert a.workload.paths == b.workload.paths
        assert a.workload.default_length == b.workload.default_length
        assert a.sim_seed == b.sim_seed

    def test_rounds_are_independent_of_each_other(self):
        # Spawned SeedSequences: round 5 is the same case whether or not
        # rounds 0..4 were ever generated.
        direct = generate_case(0, 5)
        after_others = [generate_case(0, i) for i in range(6)][5]
        assert direct.workload.paths == after_others.workload.paths
        assert direct.sim_seed == after_others.sim_seed

    def test_all_families_reachable(self):
        seen = {generate_case(0, i).family for i in range(60)}
        assert seen == set(FAMILIES)

    def test_family_restriction(self):
        for i in range(10):
            assert generate_case(3, i, ("ring",)).family == "ring"


class TestCleanRun:
    def test_fifty_rounds_hold_every_invariant(self, fuzz_fifty):
        report = fuzz_fifty.report
        assert report.ok, report.failures
        assert report.checks_run == 50
        assert sum(report.cases_by_family.values()) == 50
        assert list(fuzz_fifty.artifact_dir.iterdir()) == []  # none when clean

    def test_unknown_family_rejected(self, tmp_path):
        with pytest.raises(NetworkError, match="unknown fuzz families"):
            run_fuzz(1, seed=0, families=("bogus",), artifact_dir=str(tmp_path))


def _sabotage(monkeypatch, family="layered"):
    """Make every ``family`` case 'violate' a fabricated invariant.

    Patches the module-level check table (the documented seam), so no
    simulator is touched and the violation is a deterministic function
    of the case shape — exactly what the shrinker needs to chew on.
    """
    real = fz.CASE_CHECKERS[family]

    def checker(case):
        out = list(real(case))
        wl = case.workload
        if len(wl.paths) >= 2 and wl.default_length >= 2:
            out.append(
                Violation(
                    "sabotaged-dominance",
                    f"{len(wl.paths)} paths at L={wl.default_length}",
                    observed=len(wl.paths),
                    bound=1,
                )
            )
        return out

    monkeypatch.setitem(fz.CASE_CHECKERS, family, checker)


class TestSabotage:
    def test_broken_invariant_is_caught_shrunk_and_replayable(
        self, monkeypatch, tmp_path
    ):
        _sabotage(monkeypatch)
        report = run_fuzz(
            10, seed=0, families=("layered",), artifact_dir=str(tmp_path)
        )
        assert not report.ok
        assert len(report.failures) == 10
        payload = report.failures[0]
        assert payload["violations"][0]["invariant"] == "sabotaged-dominance"
        # Shrunk to the boundary the sabotage predicate defines.
        assert len(payload["paths"]) == 2
        assert payload["message_length"] == 2
        # The artifact on disk replays to the same violation.
        path = report.artifact_paths[0]
        violations = replay_artifact(path)
        assert any(v.invariant == "sabotaged-dominance" for v in violations)

    def test_replay_is_clean_after_fix(self, monkeypatch, tmp_path):
        _sabotage(monkeypatch)
        report = run_fuzz(
            3, seed=1, families=("layered",), artifact_dir=str(tmp_path)
        )
        assert not report.ok
        path = report.artifact_paths[0]
        monkeypatch.undo()  # the "fix"
        assert replay_artifact(path) == []


class TestShrinking:
    def test_gadget_family_shrinks_length_only(self, monkeypatch):
        # Dropping hard-instance paths would invalidate the recomputed
        # bound, so the gadget shrinker may only reduce L.
        case = next(
            generate_case(0, i, ("gadget",)) for i in range(20)
        )
        original_paths = [list(p) for p in case.workload.paths]

        def checker(c):
            return [Violation("always", "x")]

        monkeypatch.setitem(fz.CASE_CHECKERS, "gadget", checker)
        shrunk = shrink_case(case, "always")
        assert shrunk.workload.paths == original_paths
        assert shrunk.workload.default_length == int(case.workload.facts["dilation"]) + 1

    def test_shrink_preserves_the_violation(self, monkeypatch):
        case = generate_case(0, 0, ("chain",))

        def checker(c):
            if len(c.workload.paths) >= 3:
                return [Violation("needs-three", "x")]
            return []

        monkeypatch.setitem(fz.CASE_CHECKERS, "chain", checker)
        shrunk = shrink_case(case, "needs-three")
        assert len(shrunk.workload.paths) == 3
        assert run_case(shrunk) != []

    def test_shrink_runs_at_most_SHRINK_PROBES_candidates(self, monkeypatch):
        # 96 paths offer far more single-path drops than the budget; a
        # violation no candidate keeps makes the shrinker try them all.
        from dataclasses import replace

        case = generate_case(0, 0, ("chain",))
        many = [list(p) for p in case.workload.paths] * 96
        case = replace(case, workload=replace(case.workload, paths=many[:96]))
        tried = []

        def still_fails(c, invariant):
            tried.append(len(c.workload.paths))
            return False

        monkeypatch.setattr(fz, "_still_fails", still_fails)
        shrunk = shrink_case(case, "never-reproduced")
        assert len(tried) == fz.SHRINK_PROBES
        assert shrunk is case  # nothing smaller reproduced it

    def test_length_search_ends_when_no_shorter_length_fails(self, monkeypatch):
        # One path skips the path phase; with L = 10 and nothing shorter
        # reproducing, the search halves its cut (4, 2, 1) and stops.  It
        # once re-probed L = 4 until the budget ran out, then spun.
        from dataclasses import replace

        case = generate_case(0, 0, ("chain",))
        wl = replace(case.workload, paths=case.workload.paths[:1], default_length=10)
        case = replace(case, workload=wl)
        tried = []

        def still_fails(c, invariant):
            tried.append(c.workload.default_length)
            return False

        monkeypatch.setattr(fz, "_still_fails", still_fails)
        assert shrink_case(case, "never-reproduced") is case
        assert tried == [6, 8, 9]


class TestArtifacts:
    def test_round_trip_rebuilds_identical_edge_ids(self):
        case = generate_case(2, 0, ("layered",))
        payload = fz.case_to_artifact(case, [], root_seed=2, round_index=0)
        rebuilt = fz.case_from_artifact(payload)
        net, again = case.workload.net, rebuilt.workload.net
        assert again.num_nodes == net.num_nodes
        assert again.num_edges == net.num_edges
        for e in range(net.num_edges):
            assert again.tail(e) == net.tail(e)
            assert again.head(e) == net.head(e)
        assert rebuilt.workload.paths == case.workload.paths
        assert rebuilt.sim_seed == case.sim_seed

    def test_payload_is_json_safe(self):
        case = generate_case(2, 1, ("ring",))
        payload = fz.case_to_artifact(
            case,
            [Violation("x", "d", observed=1, bound=2)],
            root_seed=2,
            round_index=1,
        )
        json.dumps(payload)  # must not raise

    def test_a_dateline_case_keeps_its_vc_classes(self, monkeypatch, tmp_path):
        """A case is its scenario's workload: a ``ring-dateline`` family's
        per-hop VC classes survive case generation and the artifact round
        trip, and the replayed case delivers at ``B = 2`` (without its
        classes the ring deadlocks: ``B = 2 < hops = 4``)."""
        from repro import simulate
        from repro.scenarios import get_scenario

        params = {"B": 2, "n": 5, "hops": 4}
        family = fz.Family("ring-dateline", lambda rng: (params, None, None), 1.0)
        monkeypatch.setitem(fz.FAMILY_TABLE, "dateline", family)
        monkeypatch.setitem(fz.CASE_CHECKERS, "dateline", fz._check_case)
        case = generate_case(0, 0, ("dateline",))
        classes = get_scenario("ring-dateline").build_case(**params).vc_ids
        assert classes is not None and case.workload.vc_ids == classes
        payload = fz.case_to_artifact(case, [], root_seed=0, round_index=0)
        path = tmp_path / "dateline.json"
        path.write_text(json.dumps(payload))
        rebuilt = fz.case_from_artifact(json.loads(path.read_text()))
        assert rebuilt.workload.vc_ids == classes
        assert replay_artifact(str(path)) == []
        assert simulate(rebuilt.workload, B=2, seed=rebuilt.sim_seed).all_delivered

    def test_a_committed_artifact_round_trips_and_replays(self):
        """``data/ring-artifact.json`` is a version-4 artifact of a ring
        case at index priority: read and written back it is the same
        payload, and it replays clean."""
        path = Path(__file__).parent / "data" / "ring-artifact.json"
        payload = json.loads(path.read_text())
        case = fz.case_from_artifact(payload)
        assert case.workload.arbitration == "index"
        again = fz.case_to_artifact(
            case,
            [],
            root_seed=payload["fuzz"]["root_seed"],
            round_index=payload["fuzz"]["round"],
        )
        assert again == payload
        assert replay_artifact(str(path)) == []

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(NetworkError, match="artifact version"):
            replay_artifact(str(path))
