"""Minimal HTTP/1.1 + Server-Sent-Events wire protocol on asyncio streams.

The service speaks plain HTTP so any stdlib client (``http.client``,
``urllib``, ``curl``) can drive it, but the repo takes no web-framework
dependency: this module is the entire wire layer — a strict request parser
with explicit limits (header block, body size, ``Content-Length`` only; a
chunked request body is answered with ``411``), a response writer, and the
SSE event formatter used by the job event stream.

Responses always carry ``Connection: close``: the service's clients are
either one-shot (submit, poll, query) or hold the connection for the
lifetime of an SSE stream, and closing after each exchange keeps the
parser single-shot and the server's connection state trivial.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

#: request parsing limits — generous for spec documents and query images,
#: but bounded so one client cannot balloon server memory
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 32 * 1024 * 1024

REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """An error that maps onto one HTTP response.

    ``code`` is a stable machine-readable identifier carried in the JSON
    body (``{"error": code, "message": ...}``); ``headers`` lets a raiser
    attach response headers (``Retry-After`` for backpressure).
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        headers: Optional[Mapping[str, str]] = None,
        extra: Optional[dict] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.headers = dict(headers or {})
        self.extra = dict(extra or {})

    def body(self) -> dict:
        payload = {"error": self.code, "message": self.message}
        payload.update(self.extra)
        return payload


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    target: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]  # keys lower-cased
    body: bytes = b""
    peer: str = ""
    path_params: Dict[str, str] = field(default_factory=dict)

    def json(self):
        """The body parsed as JSON; raises :class:`HttpError` 400 on garbage.

        Nesting deep enough to exhaust the parser's recursion (a body of
        200 000 ``[``) is garbage too.
        """
        if not self.body:
            raise HttpError(400, "empty_body", "request body must be a JSON object")
        try:
            return json.loads(self.body.decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or JSON, or a 4300+ digit int
            raise HttpError(
                400, "invalid_json", f"request body is not valid JSON: {exc}"
            ) from None
        except RecursionError:
            raise HttpError(
                400, "invalid_json", "request body nests too deeply to parse"
            ) from None

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)


async def read_request(
    reader: asyncio.StreamReader,
    max_header_bytes: int = MAX_HEADER_BYTES,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> Optional[Request]:
    """Parse one HTTP/1.1 request off a stream; ``None`` on a clean EOF.

    Raises :class:`HttpError` on malformed requests (the caller answers
    with the error's status and closes the connection).
    """
    try:
        header_block = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close before a request
        raise HttpError(400, "truncated_request", "connection closed mid-header")
    except asyncio.LimitOverrunError:
        raise HttpError(413, "headers_too_large", "request header block too large")
    if len(header_block) > max_header_bytes:
        raise HttpError(413, "headers_too_large", "request header block too large")

    lines = header_block.decode("latin-1").split("\r\n")
    request_line = lines[0]
    parts = request_line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, "bad_request_line", f"malformed request line {request_line!r}")
    method, target, _version = parts

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, "bad_header", f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(
            411, "length_required", "chunked request bodies are not supported"
        )
    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        bad_length = HttpError(
            400, "bad_content_length", f"Content-Length {length_text[:64]!r}"
        )
        # ASCII digits only: int() would also take "1_0", "+10" and "-1"
        if not (length_text.isascii() and length_text.isdigit()):
            raise bad_length
        try:
            length = int(length_text)
        except ValueError:  # more digits than int() converts
            raise bad_length from None
        if length > max_body_bytes:
            raise HttpError(
                413, "body_too_large", f"request body of {length} bytes exceeds the limit"
            )
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "truncated_body", "connection closed mid-body")

    try:
        split = urlsplit(target)
        query = dict(parse_qsl(split.query, keep_blank_values=True))
    except ValueError as exc:  # e.g. an unclosed IPv6 bracket in the host
        raise HttpError(
            400, "bad_request_line", f"malformed request target {target!r}: {exc}"
        ) from None
    return Request(
        method=method.upper(),
        target=target,
        path=unquote(split.path) or "/",
        query=query,
        headers=headers,
        body=body,
    )


def render_response(
    status: int,
    body: bytes = b"",
    content_type: str = "application/json",
    headers: Optional[Mapping[str, str]] = None,
) -> bytes:
    """Serialise one complete HTTP response (always ``Connection: close``)."""
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    merged = {
        "Content-Type": content_type,
        "Content-Length": str(len(body)),
        "Connection": "close",
    }
    merged.update(headers or {})
    for name, value in merged.items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def json_response(
    status: int, payload, headers: Optional[Mapping[str, str]] = None
) -> bytes:
    """A JSON response body (sorted keys, trailing newline for curl comfort)."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return render_response(status, body, "application/json", headers)


def error_response(error: HttpError) -> bytes:
    return json_response(error.status, error.body(), headers=error.headers)


def sse_headers() -> bytes:
    """The response head opening a Server-Sent-Events stream."""
    return (
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: text/event-stream\r\n"
        "Cache-Control: no-cache\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("latin-1")


def format_sse_event(
    data, event: Optional[str] = None, event_id: Optional[str] = None
) -> bytes:
    """One SSE frame: optional ``id``/``event`` lines plus JSON ``data``."""
    lines = []
    if event_id is not None:
        lines.append(f"id: {event_id}")
    if event is not None:
        lines.append(f"event: {event}")
    text = json.dumps(data, sort_keys=True)
    for chunk in text.splitlines() or [""]:
        lines.append(f"data: {chunk}")
    return ("\n".join(lines) + "\n\n").encode("utf-8")


def parse_deadline_s(request: Request, payload=None) -> Optional[float]:
    """Extract a client deadline (seconds) from header or JSON body.

    Clients propagate their remaining budget via the ``X-Repro-Deadline-S``
    header (one-shot requests) or a ``deadline_s`` body field (submit /
    query payloads; the body wins when both are present).  Returns ``None``
    when the client sent no deadline.
    """
    raw: object = None
    if isinstance(payload, Mapping) and payload.get("deadline_s") is not None:
        raw = payload.get("deadline_s")
    else:
        header = request.header("x-repro-deadline-s")
        if header:
            raw = header
    if raw is None:
        return None
    try:
        deadline_s = float(raw)
    except (TypeError, ValueError):
        raise HttpError(
            400, "bad_deadline", f"deadline_s must be a number of seconds, got {raw!r}"
        ) from None
    if not math.isfinite(deadline_s) or deadline_s <= 0:
        raise HttpError(
            400,
            "bad_deadline",
            f"deadline_s must be a positive finite number, got {deadline_s!r}",
        )
    return deadline_s


def match_path(pattern: str, path: str) -> Optional[Dict[str, str]]:
    """Match ``/v1/jobs/{id}/events``-style patterns; returns the params.

    Segments in braces capture one non-empty path segment; everything else
    must match literally.  Returns ``None`` on a mismatch.
    """
    pattern_parts = pattern.strip("/").split("/")
    path_parts = path.strip("/").split("/")
    if len(pattern_parts) != len(path_parts):
        return None
    params: Dict[str, str] = {}
    for pattern_part, path_part in zip(pattern_parts, path_parts):
        if pattern_part.startswith("{") and pattern_part.endswith("}"):
            if not path_part:
                return None
            params[pattern_part[1:-1]] = path_part
        elif pattern_part != path_part:
            return None
    return params
