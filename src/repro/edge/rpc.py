"""JSON-RPC 2.0 framing for the serving edge.

The edge speaks a strict, bounded subset of JSON-RPC 2.0: every inbound
frame is parsed defensively (size caps, type checks, unknown-method
detection) and every outcome — including overload rejections — is a
*structured* response object encoded through
:func:`repro.obs.export.canonical_json`, so responses are byte-stable
run to run and a malformed or hostile frame can never surface as an
uncaught exception.

Beyond the standard error codes, the edge reserves a small range for
its overload-protection stack (backpressure, rate limiting, deadline
propagation, brownout shedding, circuit breaking); clients key their
retry policy off these codes — only :data:`RETRYABLE_CODES` are worth
retrying, the rest are permanent for the request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from repro.obs.export import canonical_json

JSONRPC_VERSION = "2.0"

# -- standard JSON-RPC 2.0 error codes --------------------------------------
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603

# -- edge overload-protection codes (implementation-defined range) ----------
#: Per-method bulkhead queue is full: explicit backpressure.
OVERLOADED = -32005
#: The request's cost-unit deadline expired before (or while) queued;
#: the work was cancelled, never executed.
DEADLINE_EXCEEDED = -32008
#: Brownout ladder shed this request (level and reason in error.data).
SHED = -32009
#: Per-client token bucket is empty.
RATE_LIMITED = -32029
#: The method's circuit breaker is open (fail-fast).
BREAKER_OPEN = -32042

#: Codes a well-behaved client may retry (with backoff, carrying the
#: original deadline).  Everything else is permanent for the request.
RETRYABLE_CODES = (OVERLOADED, RATE_LIMITED)

ERROR_MESSAGES = {
    PARSE_ERROR: "parse error",
    INVALID_REQUEST: "invalid request",
    METHOD_NOT_FOUND: "method not found",
    INVALID_PARAMS: "invalid params",
    INTERNAL_ERROR: "internal error",
    OVERLOADED: "server overloaded",
    DEADLINE_EXCEEDED: "deadline exceeded",
    SHED: "brownout shed",
    RATE_LIMITED: "rate limited",
    BREAKER_OPEN: "circuit breaker open",
}

#: Hard cap on an inbound frame (bytes of raw text).
MAX_FRAME_BYTES = 64 * 1024
#: Hard cap on the params array length.
MAX_PARAMS = 8

#: Valid id types per the spec (None = notification-style; we answer
#: anyway so the client's accounting stays simple).
_ID_TYPES = (str, int, type(None))


@dataclass
class RpcRequest:
    """One validated inbound request."""

    method: str
    params: list = field(default_factory=list)
    id: Union[str, int, None] = None


class RpcError(Exception):
    """A structured JSON-RPC error (never escapes the edge)."""

    def __init__(self, code: int, message: Optional[str] = None,
                 data: Optional[dict] = None) -> None:
        self.code = code
        self.message = message or ERROR_MESSAGES.get(code, "error")
        self.data = data
        super().__init__(self.message)


def parse_request(raw: str) -> RpcRequest:
    """Parse and validate one raw frame; raises :class:`RpcError`.

    Defensive order matters: size first (so a giant frame is rejected
    before JSON decoding touches it), then JSON validity, then shape.
    """
    if not isinstance(raw, str):
        raise RpcError(PARSE_ERROR, data={"reason": "not text"})
    if len(raw) > MAX_FRAME_BYTES:
        raise RpcError(INVALID_REQUEST,
                       data={"reason": "frame too large",
                             "bytes": len(raw)})
    import json
    try:
        obj = json.loads(raw)
    except (ValueError, RecursionError):
        raise RpcError(PARSE_ERROR) from None
    if not isinstance(obj, dict):
        raise RpcError(INVALID_REQUEST, data={"reason": "not an object"})
    req_id = obj.get("id")
    if not isinstance(req_id, _ID_TYPES) or isinstance(req_id, bool):
        raise RpcError(INVALID_REQUEST, data={"reason": "bad id type"})
    if obj.get("jsonrpc") != JSONRPC_VERSION:
        raise RpcError(INVALID_REQUEST,
                       data={"reason": "bad jsonrpc version"})
    method = obj.get("method")
    if not isinstance(method, str) or not method:
        raise RpcError(INVALID_REQUEST, data={"reason": "bad method"})
    params = obj.get("params", [])
    if not isinstance(params, list):
        raise RpcError(INVALID_REQUEST, data={"reason": "params not a list"})
    if len(params) > MAX_PARAMS:
        raise RpcError(INVALID_PARAMS,
                       data={"reason": "too many params",
                             "count": len(params)})
    return RpcRequest(method=method, params=params, id=req_id)


def success_response(req_id, result) -> dict:
    return {"jsonrpc": JSONRPC_VERSION, "id": req_id, "result": result}


def error_response(req_id, code: int, message: Optional[str] = None,
                   data: Optional[dict] = None) -> dict:
    error = {"code": code,
             "message": message or ERROR_MESSAGES.get(code, "error")}
    if data is not None:
        error["data"] = data
    return {"jsonrpc": JSONRPC_VERSION, "id": req_id, "error": error}


def encode(response: dict) -> str:
    """Canonical single-line encoding (byte-stable run to run)."""
    return canonical_json(response)


def make_request(method: str, params: list, req_id) -> str:
    """Encode one outbound client frame (the load generator's side)."""
    return canonical_json({"jsonrpc": JSONRPC_VERSION, "id": req_id,
                           "method": method, "params": params})


def is_retryable(code: Optional[int]) -> bool:
    return code in RETRYABLE_CODES


def classify(code: Optional[int]) -> Tuple[str, bool]:
    """(status label, counts-toward-goodput) for a response code."""
    if code is None:
        return "served", True
    labels = {
        PARSE_ERROR: "parse_error",
        INVALID_REQUEST: "invalid_request",
        METHOD_NOT_FOUND: "method_not_found",
        INVALID_PARAMS: "invalid_params",
        INTERNAL_ERROR: "internal_error",
        OVERLOADED: "backpressure",
        DEADLINE_EXCEEDED: "deadline_expired",
        SHED: "shed",
        RATE_LIMITED: "rate_limited",
        BREAKER_OPEN: "breaker_open",
    }
    return labels.get(code, "error"), False
