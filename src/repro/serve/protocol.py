"""Wire protocol of the independence service: JSON lines over TCP.

One request per line, one response line per request, UTF-8, compact
JSON.  Requests carry an ``op`` naming the endpoint, an optional ``id``
echoed verbatim in the response (clients pipeline by tagging), and
op-specific parameters at the top level::

    {"id": 1, "op": "analyze", "schema": "xmark", "query": "//title",
     "update": "delete //price"}

Responses are ``{"id": ..., "ok": true, ...result}`` on success and
``{"id": ..., "ok": false, "error": {"code": ..., "message": ...}}`` on
failure.  A malformed line is answered with a ``bad-json`` /
``bad-request`` error and the connection stays open -- one broken
client request must not tear down a pipelined stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

#: Maximum accepted request line (guards the reader against a client
#: streaming an unbounded line; generous enough for large matrix grids).
MAX_LINE_BYTES = 4 * 1024 * 1024

# Error codes (stable strings, part of the wire contract).
BAD_JSON = "bad-json"
BAD_REQUEST = "bad-request"
BAD_PARAMS = "bad-params"
UNKNOWN_OP = "unknown-op"
UNKNOWN_SCHEMA = "unknown-schema"
UNKNOWN_DOC = "unknown-doc"
UNKNOWN_VIEW = "unknown-view"
INTERNAL = "internal"

#: Every error code a response may carry, in documentation order.
#: ``docs/PROTOCOL.md`` must mention each one
#: (``tests/docs/test_protocol_doc.py`` enforces it).
ERROR_CODES = (
    BAD_JSON,
    BAD_REQUEST,
    BAD_PARAMS,
    UNKNOWN_OP,
    UNKNOWN_SCHEMA,
    UNKNOWN_DOC,
    UNKNOWN_VIEW,
    INTERNAL,
)

#: Every operation the service understands, in documentation order.
#: This tuple is the single source of truth for the op list: the
#: server's dispatch table and the op sections of ``docs/PROTOCOL.md``
#: are both diffed against it by
#: ``tests/docs/test_protocol_doc.py`` -- the documentation cannot
#: drift from the wire without a test failure.
OPS = (
    "ping",
    "analyze",
    "matrix",
    "schedule",
    "schema.register",
    "schema.evict",
    "schema.list",
    "doc.load",
    "doc.query",
    "doc.unload",
    "view.register",
    "view.result",
    "update.apply",
    "stats",
    "metrics",
    "shutdown",
)


class ProtocolError(Exception):
    """A request the service can answer only with an error response."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class Request:
    """A decoded request line.

    ``trace``, ``timing``, and ``explain`` are the observability
    envelope fields (stripped from ``params`` like ``op``/``id``):
    ``trace`` is a client-supplied trace id propagated through the
    request's spans, ``timing=true`` asks for the per-layer span
    breakdown in the response, and ``explain=true`` asks for the
    request's query plan (the structured decision records of
    :mod:`repro.obs.plan`) in a ``plan`` response field.
    """

    op: str
    params: dict
    id: object = None
    trace: str | None = None
    timing: bool = False
    explain: bool = False


def encode(payload: dict) -> bytes:
    """One compact JSON line, ready for the socket.

    Keys are sorted, so equal payloads encode byte-identically -- the
    property the benchmark gate's cross-mode verdict comparison rests
    on.

    >>> encode({"op": "ping", "id": 1})
    b'{"id":1,"op":"ping"}\\n'
    """
    return (json.dumps(payload, separators=(",", ":"), sort_keys=True)
            + "\n").encode("utf-8")


def decode_request(line: bytes) -> Request:
    """Parse one request line (raises :class:`ProtocolError`)."""
    try:
        payload = json.loads(line)
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(BAD_JSON, f"request is not JSON: {error}") \
            from error
    if not isinstance(payload, dict):
        raise ProtocolError(BAD_REQUEST, "request must be a JSON object")
    op = payload.get("op")
    if not isinstance(op, str) or not op:
        raise ProtocolError(BAD_REQUEST, 'request needs a string "op"')
    trace = payload.get("trace")
    if trace is not None and not isinstance(trace, str):
        raise ProtocolError(BAD_REQUEST, '"trace" must be a string')
    timing = payload.get("timing", False)
    if not isinstance(timing, bool):
        raise ProtocolError(BAD_REQUEST, '"timing" must be a boolean')
    explain = payload.get("explain", False)
    if not isinstance(explain, bool):
        raise ProtocolError(BAD_REQUEST, '"explain" must be a boolean')
    params = {key: value for key, value in payload.items()
              if key not in ("op", "id", "trace", "timing", "explain")}
    return Request(op=op, params=params, id=payload.get("id"),
                   trace=trace, timing=timing, explain=explain)


def ok_response(request_id: object, result: dict) -> bytes:
    """A success line: ``{"id": ..., "ok": true, ...result}``.

    ``result`` keys override the envelope, so a forwarded response
    that already carries ``ok`` passes through unchanged.
    """
    return encode({"id": request_id, "ok": True, **result})


def error_response(request_id: object, code: str, message: str) -> bytes:
    """An error line with the stable ``{code, message}`` shape."""
    return encode({
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    })


def require(params: dict, key: str, kind: type | tuple = str):
    """Fetch a required, typed parameter (raises ``bad-params``)."""
    value = params.get(key)
    if value is None:
        raise ProtocolError(BAD_PARAMS, f"missing parameter {key!r}")
    if not isinstance(value, kind):
        wanted = getattr(kind, "__name__", str(kind))
        raise ProtocolError(
            BAD_PARAMS, f"parameter {key!r} must be {wanted}"
        )
    return value
