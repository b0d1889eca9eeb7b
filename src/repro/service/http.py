"""Minimal HTTP/1.1 framing over asyncio streams.

The daemon deliberately speaks *just enough* HTTP/1.1 with the stdlib
only — request-line + headers + ``Content-Length`` bodies in (a request
that declares ``Transfer-Encoding`` is refused, since its body could
not be framed), fixed-length or chunked responses out, keep-alive
connections — so the service layer stays importable anywhere the
simulator is (the same no-heavy-deps rule as the rest of the repo).
Everything here is plain data and pure functions; the asyncio plumbing
that drives it lives in :mod:`repro.service.server`, and the handlers
it feeds are synchronous
(:meth:`repro.service.daemon.SweepService.dispatch`), which keeps the
whole routing surface unit-testable without a socket.
"""

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

#: Upper bound on one request's head (request line + headers).  This is
#: also the asyncio stream reader limit, so ``readuntil`` enforces it.
MAX_HEAD_BYTES = 64 * 1024
#: Upper bound on one request body (sweep submissions are small JSON).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Reason phrases for every status the service emits.
REASONS = {
    200: "OK",
    202: "Accepted",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class BadRequest(ValueError):
    """The request could not be parsed or failed validation (-> 400)."""


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    target: str                 # raw request target, e.g. /sweeps?x=1
    path: str                   # decoded path component
    query: dict                 # single-valued query parameters
    headers: dict               # lower-cased header names
    body: bytes = b""

    def json(self):
        """The body as a JSON object (``{}`` when empty)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        return payload

    def if_none_match(self):
        """The ``If-None-Match`` validator, or ``None``."""
        return self.headers.get("if-none-match")


@dataclass
class HttpResponse:
    """One response: a fixed body, or a ``stream`` of chunks.

    ``stream``, when set, is shipped with chunked transfer encoding
    (the progress-streaming read path) and ``body`` is ignored.  The
    server drives it from its event loop, so neither method may block:

    * ``pull() -> (bytes, exhausted)`` returns everything not pulled
      before as one chunk (``b""`` when nothing is new); once
      ``exhausted`` is True the stream has ended.
    * ``watch(wake) -> unwatch`` arranges for ``wake()`` to be called,
      from any thread, whenever a pull may return more; ``unwatch()``
      stops it.
    """

    status: int
    body: bytes = b""
    headers: dict = field(default_factory=dict)
    stream: object = None


def json_response(payload, status=200, headers=None):
    """A canonical-JSON response (the service's default shape)."""
    from repro.reporting.payloads import canonical_json_bytes

    merged = {"Content-Type": "application/json; charset=utf-8"}
    if headers:
        merged.update(headers)
    return HttpResponse(status=status, body=canonical_json_bytes(payload),
                        headers=merged)


def error_response(status, message, **extra):
    """A JSON error body: ``{"error": message, ...}``."""
    payload = {"error": message}
    payload.update(extra)
    return json_response(payload, status=status)


def parse_head(head):
    """Parse a request head blob into ``(method, target, headers)``."""
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:          # pragma: no cover - latin-1 total
        raise BadRequest("undecodable request head")
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
        raise BadRequest(f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise BadRequest(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method.upper(), target, headers


async def read_request(reader):
    """Read one request off an asyncio stream.

    Returns ``None`` on a clean EOF between requests (the client hung
    up a keep-alive connection); raises :class:`BadRequest` for
    anything unparsable or over the size limits.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise BadRequest("truncated request head")
    except asyncio.LimitOverrunError:
        raise BadRequest(f"request head over {MAX_HEAD_BYTES} bytes")
    method, target, headers = parse_head(head[:-4])
    if "transfer-encoding" in headers:
        # Only Content-Length frames a body here; reading past an
        # unframed one would parse its bytes as the next request.
        raise BadRequest("Transfer-Encoding request bodies are not "
                         "supported; send Content-Length")
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise BadRequest("malformed Content-Length")
    if length < 0 or length > MAX_BODY_BYTES:
        raise BadRequest(f"request body over {MAX_BODY_BYTES} bytes")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise BadRequest("truncated request body")
    split = urlsplit(target)
    return HttpRequest(
        method=method,
        target=target,
        path=unquote(split.path) or "/",
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


def render_head(response, chunked=False, keep_alive=True):
    """Serialize the status line + headers of ``response``."""
    headers = dict(response.headers)
    if chunked:
        headers["Transfer-Encoding"] = "chunked"
    else:
        headers["Content-Length"] = str(len(response.body))
    headers["Connection"] = "keep-alive" if keep_alive else "close"
    reason = REASONS.get(response.status, "Unknown")
    lines = [f"HTTP/1.1 {response.status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
