"""Event-trace round-trips and the bit-exact replay check."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from reference_simulator import reference_run  # noqa: E402

from repro import simulate
from repro.network.butterfly import Butterfly
from repro.network.random_networks import chain_bundle, layered_network, random_walk_paths
from repro.routing.paths import paths_from_node_walks
from repro.routing.problems import bit_reversal_permutation
from repro.sim.spec import Workload
from repro.telemetry import (
    TRACE_FORMAT,
    TRACE_VERSION,
    TraceError,
    TraceRecorder,
    load_trace,
    replay_check,
    write_trace,
)


def record_chain(B=1, worms=3, depth=4, L=5, release=None, priority="index"):
    net, walks = chain_bundle(1, depth, worms)
    paths = paths_from_node_walks(net, walks)
    recorder = TraceRecorder()
    res = simulate(
        Workload(net=net, paths=paths, release_times=release),
        B=B, message_length=L, priority=priority, telemetry=[recorder],
    )
    return recorder, res, paths


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        recorder, res, _ = record_chain()
        trace = recorder.to_trace()
        path = recorder.save(tmp_path / "run.jsonl")
        loaded = load_trace(path)
        assert loaded.meta == trace.meta
        assert loaded.end == trace.end
        # Writers may regroup batches; the flat (t, m[, e]) multisets
        # must survive exactly.
        for ev in trace.events:
            orig = np.stack(trace.events[ev])
            back = np.stack(loaded.events[ev])
            assert np.array_equal(
                orig[:, np.lexsort(orig[::-1])], back[:, np.lexsort(back[::-1])]
            )

    def test_header_versioned(self, tmp_path):
        recorder, _, _ = record_chain()
        path = recorder.save(tmp_path / "run.jsonl")
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == TRACE_FORMAT
        assert header["version"] == TRACE_VERSION

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(TraceError, match="not a"):
            load_trace(path)

    def test_malformed_file_is_a_trace_error(self, tmp_path):
        """An old binary ``.npz`` trace and a JSONL trace cut short in
        its header are both refused as traces, not as decoder errors."""
        old = tmp_path / "run.npz"
        np.savez_compressed(old, grant_t=np.arange(64), meta_json=np.arange(8))
        cut = tmp_path / "cut.jsonl"
        full = record_chain()[0].save(tmp_path / "run.jsonl").read_text()
        cut.write_text(full[:40])
        for path in (old, cut):
            with pytest.raises(TraceError, match="not a JSONL trace"):
                load_trace(path)

    def test_rejects_newer_version(self, tmp_path):
        recorder, _, _ = record_chain()
        trace = recorder.to_trace()
        trace.meta["version"] = TRACE_VERSION + 1
        path = write_trace(trace, tmp_path / "future.jsonl")
        with pytest.raises(TraceError, match="newer"):
            load_trace(path)

    def test_rejects_unknown_event(self, tmp_path):
        recorder, _, _ = record_chain()
        path = recorder.save(tmp_path / "run.jsonl")
        lines = path.read_text().splitlines()
        lines.insert(2, json.dumps({"t": 1, "ev": "frobnicate", "m": []}))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="unknown event"):
            load_trace(path)


class TestReplay:
    def test_replay_matches_simulator(self):
        recorder, res, _ = record_chain(worms=3, depth=4, L=5)
        derived = replay_check(recorder.to_trace(), res)
        assert np.array_equal(derived, res.completion_times)

    def test_replay_with_releases_and_random_priority(self):
        release = np.array([0, 3, 7])
        recorder, res, _ = record_chain(
            B=2, worms=3, depth=5, L=4, release=release, priority="random"
        )
        replay_check(recorder.to_trace(), res)

    def test_replay_after_round_trip(self, tmp_path):
        recorder, res, _ = record_chain(B=2, worms=4, depth=3, L=6)
        replay_check(load_trace(recorder.save(tmp_path / "run.jsonl")), res)

    def test_replay_on_butterfly_matches_reference(self):
        """Acceptance: traced butterfly run replays bit-exactly, and the
        whole pipeline agrees with the first-principles flit simulator."""
        bf = Butterfly(8)
        inst = bit_reversal_permutation(8)
        paths = [list(r) for r in bf.path_edges_batch(inst.sources, inst.dests)]
        recorder = TraceRecorder()
        res = simulate(
            (bf, paths), B=2, message_length=6, priority="index",
            telemetry=[recorder],
        )
        derived = replay_check(recorder.to_trace(), res)
        ref = reference_run(paths, L=6, B=2)
        assert np.array_equal(derived, np.asarray(ref))

    def test_replay_on_layered_workload(self):
        rng = np.random.default_rng(7)
        net = layered_network(6, 6, 3, rng)
        walks = random_walk_paths(net, 6, 6, 30, rng)
        paths = paths_from_node_walks(net, walks)
        recorder = TraceRecorder()
        res = simulate(
            (net, paths), B=2, message_length=5, seed=11, telemetry=[recorder],
        )
        replay_check(recorder.to_trace(), res)

    def test_replay_refuses_non_wormhole(self):
        net, walks = chain_bundle(1, 3, 2)
        paths = paths_from_node_walks(net, walks)
        recorder = TraceRecorder()
        simulate(
            (net, paths), model="store_forward", message_length=4,
            telemetry=[recorder],
        )
        with pytest.raises(TraceError, match="wormhole"):
            replay_check(recorder.to_trace())

    def test_replay_detects_tampering(self):
        recorder, res, _ = record_chain(worms=2, depth=3, L=4)
        trace = recorder.to_trace()
        t, m, e = trace.events["grant"]
        trace.events["grant"] = (t[:-1], m[:-1], e[:-1])  # drop a grant
        with pytest.raises(TraceError, match="replay mismatch"):
            replay_check(trace)

    def test_completion_times_include_trivial_messages(self):
        net, walks = chain_bundle(1, 3, 1)
        paths = [paths_from_node_walks(net, walks)[0], []]
        recorder = TraceRecorder()
        res = simulate((net, paths), message_length=4, telemetry=[recorder])
        trace = recorder.to_trace()
        assert np.array_equal(trace.completion_times(), res.completion_times)
        assert np.array_equal(replay_check(trace, res), res.completion_times)
