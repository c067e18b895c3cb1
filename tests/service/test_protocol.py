"""Wire-format tests for :mod:`repro.service.protocol`."""

import pytest

from repro.service.protocol import (
    MODE_ESTIMATE,
    MODE_EXACT,
    PROTOCOL_VERSION,
    RUN_MODES,
    RunRequest,
    UnknownModeError,
    unknown_mode_response,
)
from repro.service.protocol import (
    STATUS_ERROR,
    STATUS_EXPIRED,
    STATUS_OK,
    STATUS_REJECTED,
    ProtocolError,
    UnsupportedVersionError,
    check_version,
    decode_message,
    encode_message,
    error_response,
    expired_response,
    ok_response,
    parse_run_request,
    reject_response,
    unsupported_version_response,
)
from repro.sim.sweep import TrialSpec


def _run_msg(**overrides):
    msg = {
        "op": "run",
        "id": "r1",
        "spec": {
            "workload": "chain-bundle",
            "simulator": "wormhole",
            "B": 2,
            "workload_params": {"chains": 2, "depth": 5, "messages": 3},
            "message_length": 8,
            "repeat": 1,
        },
        "root_seed": 7,
    }
    msg.update(overrides)
    return msg


class TestFraming:
    def test_roundtrip(self):
        msg = {"op": "health", "id": "x", "n": 3}
        line = encode_message(msg)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert decode_message(line) == msg

    def test_rejects_non_json(self):
        with pytest.raises(ProtocolError, match="JSON"):
            decode_message(b"{nope\n")

    def test_rejects_empty_line(self):
        with pytest.raises(ProtocolError, match="empty"):
            decode_message(b"\n")

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="object"):
            decode_message(b"[1, 2]\n")

    def test_rejects_bad_utf8(self):
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_message(b"\xff\xfe\n")

    def test_version_constant(self):
        assert PROTOCOL_VERSION == 1


class TestParseRunRequest:
    def test_valid_request_builds_the_sweep_spec(self):
        req = parse_run_request(_run_msg())
        expected = TrialSpec.make(
            "chain-bundle",
            "wormhole",
            B=2,
            workload_params={"chains": 2, "depth": 5, "messages": 3},
            message_length=8,
            repeat=1,
        )
        assert req.spec == expected
        assert req.id == "r1" and req.root_seed == 7
        assert req.deadline_ms is None

    def test_deadline_parsed(self):
        req = parse_run_request(_run_msg(deadline_ms=250))
        assert req.deadline_ms == 250.0

    @pytest.mark.parametrize(
        "mutate, match",
        [
            ({"spec": None}, "'spec'"),
            ({"spec": {"workload": "zzz"}}, "unknown workload"),
            (
                {"spec": {"workload": "chain-bundle", "simulator": "zzz"}},
                "unknown simulator",
            ),
            (
                {"spec": {"workload": "chain-bundle", "mystery": 1}},
                "unknown spec fields",
            ),
            (
                {"spec": {"workload": "chain-bundle", "B": 0}},
                "invalid spec",
            ),
            (
                {
                    "spec": {
                        "workload": "chain-bundle",
                        "workload_params": {"depth": [1]},
                    }
                },
                "invalid spec",
            ),
            ({"root_seed": "seven"}, "root_seed"),
            ({"root_seed": True}, "root_seed"),
            ({"deadline_ms": -1}, "deadline_ms"),
            ({"deadline_ms": "soon"}, "deadline_ms"),
            ({"id": 42}, "'id'"),
        ],
    )
    def test_malformed_requests(self, mutate, match):
        with pytest.raises(ProtocolError, match=match):
            parse_run_request(_run_msg(**mutate))


class TestResponses:
    def test_ok_response(self):
        resp = ok_response("a", {"makespan": 3}, batched=4, queue_ms=1.5)
        assert resp["status"] == STATUS_OK
        assert resp["batched"] == 4 and resp["queue_ms"] == 1.5
        decode_message(encode_message(resp))  # JSON-safe

    def test_reject_response_carries_retry_after(self):
        resp = reject_response("a", "queue full", retry_after_ms=123.4)
        assert resp["status"] == STATUS_REJECTED
        assert resp["retry_after_ms"] == 123
        assert reject_response("a", "x", retry_after_ms=0)["retry_after_ms"] >= 1

    def test_expired_and_error_responses(self):
        assert expired_response("a", waited_ms=9.0)["status"] == STATUS_EXPIRED
        err = error_response(None, "boom")
        assert err["status"] == STATUS_ERROR and err["id"] == ""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ok_response("a", {"makespan": 3}, batched=1, queue_ms=0.0),
            lambda: reject_response("a", "queue full", retry_after_ms=5),
            lambda: expired_response("a", waited_ms=1.0),
            lambda: error_response("a", "boom"),
        ],
    )
    def test_every_response_is_versioned(self, build):
        assert build()["v"] == PROTOCOL_VERSION


class TestVersioning:
    def test_missing_v_means_version_one(self):
        # Pre-versioning clients never sent ``v``; they stay compatible.
        assert check_version({"op": "health"}) == 1

    def test_current_version_accepted(self):
        assert check_version({"op": "run", "v": PROTOCOL_VERSION}) == 1

    @pytest.mark.parametrize("bad", [0, 2, 99, "1", None])
    def test_unknown_version_raises(self, bad):
        with pytest.raises(UnsupportedVersionError, match="unsupported"):
            check_version({"op": "run", "v": bad})
        try:
            check_version({"v": bad})
        except UnsupportedVersionError as exc:
            assert exc.got == bad

    def test_structured_reject_names_supported_versions(self):
        resp = unsupported_version_response("r9", 42)
        assert resp["status"] == STATUS_ERROR
        assert resp["id"] == "r9"
        assert resp["supported_versions"] == [PROTOCOL_VERSION]
        assert "42" in resp["error"]
        decode_message(encode_message(resp))  # JSON-safe


class TestModes:
    def test_mode_defaults_to_exact(self):
        req = parse_run_request(_run_msg())
        assert req.mode == MODE_EXACT

    def test_mode_estimate_parsed(self):
        req = parse_run_request(_run_msg(mode="estimate"))
        assert req.mode == MODE_ESTIMATE
        assert req.timeout_s is None

    def test_unknown_mode_is_structured(self):
        with pytest.raises(UnknownModeError) as exc_info:
            parse_run_request(_run_msg(mode="turbo"))
        assert exc_info.value.got == "turbo"
        resp = unknown_mode_response("r1", "turbo")
        assert resp["status"] == STATUS_ERROR
        assert resp["supported_modes"] == list(RUN_MODES)
        assert "turbo" in resp["error"]
        decode_message(encode_message(resp))  # JSON-safe

    def test_run_request_round_trips_through_the_wire(self):
        spec = TrialSpec.make(
            "chain-bundle",
            "wormhole",
            B=2,
            workload_params={"chains": 2, "depth": 5, "messages": 3},
            message_length=8,
            repeat=1,
        )
        req = RunRequest(
            id="r7",
            spec=spec,
            root_seed=9,
            deadline_ms=125.0,
            mode=MODE_ESTIMATE,
            timeout_s=2.5,
        )
        wire = req.to_wire()
        assert wire["op"] == "run" and wire["v"] == PROTOCOL_VERSION
        parsed = parse_run_request(decode_message(encode_message(wire)))
        assert parsed.spec == spec
        assert parsed.id == "r7" and parsed.root_seed == 9
        assert parsed.deadline_ms == 125.0
        assert parsed.mode == MODE_ESTIMATE
        assert parsed.timeout_s == 2.5

    def test_to_wire_omits_unset_optionals(self):
        spec = TrialSpec.make("chain-bundle", "wormhole", B=1)
        wire = RunRequest(id="a", spec=spec, root_seed=0).to_wire()
        assert "deadline_ms" not in wire and "timeout_s" not in wire
        assert wire["mode"] == MODE_EXACT

    def test_ok_response_marks_estimates_only(self):
        exact = ok_response("a", {"makespan": 3}, batched=1, queue_ms=0.0)
        assert "mode" not in exact
        est = ok_response(
            "a", {"makespan_upper": 9}, batched=0, queue_ms=0.0,
            mode=MODE_ESTIMATE,
        )
        assert est["mode"] == MODE_ESTIMATE
