"""The newline-delimited-JSON wire protocol of the simulation service.

One request or response per line, UTF-8 JSON, ``\\n``-terminated — the
framing every language can speak with a socket and a JSON parser, and
the one that keeps the asyncio server to ``readline()`` / ``write()``.

The protocol is versioned: every request and response carries
``"v": 1`` (:data:`PROTOCOL_VERSION`).  A request may omit ``v`` —
version-1 clients predate the field — but a request carrying an
*unknown* version is rejected with a structured ``error`` response
naming the supported version, so a future v2 client failing against a
v1 server sees exactly why instead of a confusing spec error.

Requests are ``{"op": ..., "id": ..., "v": 1}`` objects:

``run``
    Execute one trial.  Carries a ``spec`` (the :class:`~repro.sim
    .sweep.TrialSpec` identity fields: ``workload``, ``simulator``,
    ``B``, ``workload_params``, ``sim_params``, ``message_length``,
    ``repeat``), a ``root_seed``, an optional ``deadline_ms`` (maximum
    queueing delay before the request is abandoned), an optional
    ``timeout_s`` (client-side transport patience, echoed so proxies
    can honor it), and a ``mode`` — one of :data:`RUN_MODES`.
    ``"exact"`` (the default) simulates; ``"estimate"`` answers from
    the analytic delay envelope (:mod:`repro.analysis.estimate`)
    without touching the batcher or the queue.  ``mode`` is a
    *request* property, not a spec field: it never enters the trial's
    identity, seed derivation, or cache key.  The exact trial's RNG
    seed derives from ``(spec, root_seed)`` exactly as in
    :func:`repro.sim.sweep.trial_seed`, so a response is bit-identical
    to the same spec run through ``run_sweep`` or a serial
    :class:`~repro.sim.wormhole.WormholeSimulator` replay; estimate
    responses are a pure function of the spec alone and therefore
    bit-stable across replicas.  A request carrying an unknown mode is
    answered with a structured ``error`` response listing
    ``supported_modes``.
``health`` / ``stats``
    Liveness and metrics snapshots (always served, even while draining).
``shutdown``
    Ask the server to drain gracefully: in-flight and queued requests
    finish, new admissions are rejected, then the server exits.

Responses carry ``status``:

``ok``
    ``metrics`` holds the trial metrics (same dict as the sweep path,
    including ``completion_digest``); ``batched`` reports how many
    trials shared the request's lockstep batch and ``queue_ms`` how
    long it waited for admission + batching.
``rejected``
    Admission backpressure (queue full, or draining).  ``error`` names
    the reason and ``retry_after_ms`` hints when to retry — the
    429-style contract.
``deadline_exceeded``
    The request's ``deadline_ms`` elapsed before its batch launched.
``error``
    Malformed request or execution failure; ``error`` has the message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from ..network.errors import NetworkError
from ..sim.spec import TrialSpec

__all__ = [
    "MODE_ESTIMATE",
    "MODE_EXACT",
    "PROTOCOL_VERSION",
    "RUN_MODES",
    "STATUS_ERROR",
    "STATUS_EXPIRED",
    "STATUS_OK",
    "STATUS_REJECTED",
    "ProtocolError",
    "RunRequest",
    "UnknownModeError",
    "UnsupportedVersionError",
    "check_version",
    "decode_message",
    "encode_message",
    "error_response",
    "expired_response",
    "ok_response",
    "parse_run_request",
    "reject_response",
    "spec_payload",
    "unknown_mode_response",
    "unsupported_version_response",
]

PROTOCOL_VERSION = 1

MODE_EXACT = "exact"
MODE_ESTIMATE = "estimate"
#: Execution modes a v1 ``run`` request may carry (the facade's
#: ``simulate(mode=...)`` accepts the same names).
RUN_MODES = (MODE_EXACT, MODE_ESTIMATE)

STATUS_OK = "ok"
STATUS_REJECTED = "rejected"
STATUS_EXPIRED = "deadline_exceeded"
STATUS_ERROR = "error"

#: Ceiling on one encoded message (a line); guards the reader against
#: an endless unterminated line from a confused client.
MAX_LINE_BYTES = 1 << 20


class ProtocolError(ValueError):
    """A line that is not a valid protocol message."""


class UnsupportedVersionError(ProtocolError):
    """A message declaring a protocol version this server cannot speak."""

    def __init__(self, got: Any) -> None:
        super().__init__(
            f"unsupported protocol version {got!r}; this server speaks "
            f"v{PROTOCOL_VERSION}"
        )
        self.got = got


class UnknownModeError(ProtocolError):
    """A ``run`` request carrying a mode this server cannot execute."""

    def __init__(self, got: Any) -> None:
        super().__init__(
            f"unknown mode {got!r}; supported modes: {', '.join(RUN_MODES)}"
        )
        self.got = got


def check_version(msg: dict[str, Any]) -> int:
    """Validate a message's ``v`` field; returns the effective version.

    A missing ``v`` means version 1 (pre-versioning clients); anything
    other than :data:`PROTOCOL_VERSION` raises
    :class:`UnsupportedVersionError`.
    """
    v = msg.get("v", PROTOCOL_VERSION)
    if v != PROTOCOL_VERSION:
        raise UnsupportedVersionError(v)
    return v


def encode_message(msg: dict[str, Any]) -> bytes:
    """One message as a compact, newline-terminated JSON line."""
    return json.dumps(msg, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def decode_message(line: bytes | str) -> dict[str, Any]:
    """Parse one line into a message dict, or raise :class:`ProtocolError`."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"message is not UTF-8: {exc}") from None
    line = line.strip()
    if not line:
        raise ProtocolError("empty message line")
    try:
        msg = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"message is not valid JSON: {exc}") from None
    if not isinstance(msg, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(msg).__name__}"
        )
    return msg


def spec_payload(spec: TrialSpec) -> dict[str, Any]:
    """A :class:`TrialSpec` as the wire-format ``spec`` object."""
    return {
        "workload": spec.workload,
        "simulator": spec.simulator,
        "B": spec.B,
        "workload_params": dict(spec.workload_params),
        "sim_params": dict(spec.sim_params),
        "message_length": spec.message_length,
        "repeat": spec.repeat,
    }


@dataclass(frozen=True)
class RunRequest:
    """A validated ``run`` request, ready for admission.

    This is the *one* run-request schema: the server parses wire
    messages into it, the cluster router re-serializes it with
    :meth:`to_wire` when forwarding to a shard, and the client builds
    it before encoding — nobody re-assembles raw dicts by hand.
    """

    id: str
    spec: TrialSpec
    root_seed: int
    deadline_ms: float | None = None
    mode: str = MODE_EXACT
    #: Client transport patience, echoed end-to-end so a proxy hop can
    #: bound its own wait on the upstream with the client's budget.
    timeout_s: float | None = None

    def to_wire(self) -> dict[str, Any]:
        """The request as a v1 ``run`` message (parse round-trips it)."""
        msg: dict[str, Any] = {
            "v": PROTOCOL_VERSION,
            "op": "run",
            "id": self.id,
            "spec": spec_payload(self.spec),
            "root_seed": int(self.root_seed),
            "mode": self.mode,
        }
        if self.deadline_ms is not None:
            msg["deadline_ms"] = float(self.deadline_ms)
        if self.timeout_s is not None:
            msg["timeout_s"] = float(self.timeout_s)
        return msg


def _require_int(msg: dict, key: str, default: int | None) -> int | None:
    """``msg[key]`` as a JSON integer (``None`` only if that is the default)."""
    value = msg.get(key, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{key!r} must be an integer, got {value!r}")
    return value


def parse_run_request(msg: dict[str, Any]) -> RunRequest:
    """Validate a ``run`` message into a :class:`RunRequest`.

    Raises :class:`ProtocolError` on any malformed field; spec
    validation is delegated to :meth:`TrialSpec.make`, so the service
    and the sweep runner accept exactly the same grid cells.
    """
    req_id = msg.get("id")
    if req_id is None:
        req_id = ""
    if not isinstance(req_id, str):
        raise ProtocolError(f"'id' must be a string, got {req_id!r}")
    spec_dict = msg.get("spec")
    if not isinstance(spec_dict, dict):
        raise ProtocolError("'spec' must be an object with the trial fields")
    unknown = set(spec_dict) - {
        "workload",
        "simulator",
        "B",
        "workload_params",
        "sim_params",
        "message_length",
        "repeat",
    }
    if unknown:
        raise ProtocolError(f"unknown spec fields: {sorted(unknown)}")
    try:
        spec = TrialSpec.make(
            spec_dict.get("workload"),
            spec_dict.get("simulator", "wormhole"),
            B=_require_int(spec_dict, "B", 1),
            workload_params=spec_dict.get("workload_params"),
            sim_params=spec_dict.get("sim_params"),
            message_length=_require_int(spec_dict, "message_length", None),
            repeat=_require_int(spec_dict, "repeat", 0),
        )
    except (NetworkError, TypeError) as exc:
        raise ProtocolError(f"invalid spec: {exc}") from None
    root_seed = _require_int(msg, "root_seed", 0)
    deadline_ms = _optional_number(msg, "deadline_ms")
    timeout_s = _optional_number(msg, "timeout_s")
    mode = msg.get("mode", MODE_EXACT)
    if mode not in RUN_MODES:
        raise UnknownModeError(mode)
    return RunRequest(
        id=req_id,
        spec=spec,
        root_seed=root_seed,
        deadline_ms=deadline_ms,
        mode=mode,
        timeout_s=timeout_s,
    )


def _optional_number(msg: dict[str, Any], key: str) -> float | None:
    value = msg.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{key!r} must be a number, got {value!r}")
    if value < 0:
        raise ProtocolError(f"{key!r} must be >= 0")
    return float(value)


# ----------------------------------------------------------------------
# Response builders
# ----------------------------------------------------------------------


def ok_response(
    req_id: str,
    metrics: dict[str, Any],
    *,
    batched: int,
    queue_ms: float,
    mode: str = MODE_EXACT,
) -> dict[str, Any]:
    out = {
        "v": PROTOCOL_VERSION,
        "id": req_id,
        "status": STATUS_OK,
        "metrics": metrics,
        "batched": int(batched),
        "queue_ms": round(float(queue_ms), 3),
    }
    if mode != MODE_EXACT:
        out["mode"] = mode
    return out


def reject_response(
    req_id: str, reason: str, *, retry_after_ms: float
) -> dict[str, Any]:
    return {
        "v": PROTOCOL_VERSION,
        "id": req_id,
        "status": STATUS_REJECTED,
        "error": reason,
        "retry_after_ms": max(1, round(float(retry_after_ms))),
    }


def expired_response(req_id: str, *, waited_ms: float) -> dict[str, Any]:
    return {
        "v": PROTOCOL_VERSION,
        "id": req_id,
        "status": STATUS_EXPIRED,
        "error": "deadline expired before the request was dispatched",
        "waited_ms": round(float(waited_ms), 3),
    }


def error_response(req_id: str | None, message: str) -> dict[str, Any]:
    return {
        "v": PROTOCOL_VERSION,
        "id": req_id or "",
        "status": STATUS_ERROR,
        "error": message,
    }


def unknown_mode_response(req_id: str | None, got: Any) -> dict[str, Any]:
    """The structured reject for a ``run`` request with an unknown mode."""
    return {
        **error_response(
            req_id,
            f"unknown mode {got!r}; supported modes: {', '.join(RUN_MODES)}",
        ),
        "supported_modes": list(RUN_MODES),
    }


def unsupported_version_response(req_id: str | None, got: Any) -> dict[str, Any]:
    """The structured reject for a message with an unknown ``v``."""
    return {
        **error_response(
            req_id,
            f"unsupported protocol version {got!r}; this server speaks "
            f"v{PROTOCOL_VERSION}",
        ),
        "supported_versions": [PROTOCOL_VERSION],
    }
