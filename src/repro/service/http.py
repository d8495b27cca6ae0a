"""Stdlib HTTP frontend for the partition service.

A thin JSON layer over :class:`~repro.service.core.PartitionService`.
Two interchangeable fronts speak the identical endpoint schema:

* ``front="eventloop"`` (default) — :class:`~repro.service.eventloop.
  EventLoopHTTPServer`, a single-threaded :mod:`selectors` loop
  multiplexing thousands of keep-alive connections with pipelined
  in-flight requests (see :mod:`repro.service.eventloop`);
* ``front="thread"`` — ``http.server.ThreadingHTTPServer``, one thread
  per connection (the original front, kept as the simple fallback).

Both route through :func:`dispatch_request`, so responses are
byte-identical between fronts.  The endpoint schema:

====================  ======  =========================================
path                  method  body / response
====================  ======  =========================================
``/v1/partition``     POST    :class:`PartitionRequest` payload → result
``/v1/refine``        POST    :class:`RefineRequest` payload → result
``/v1/session/open``  POST    ``{graph, n_parts, fitness_kind, seed,
                              ga}`` → result with ``session_id``
``/v1/session/update``  POST  :class:`UpdateRequest` payload → result
``/v1/session/close`` POST    ``{session_id}`` → session summary
``/v1/stats``         GET     service counters (cache, scheduler,
                              sessions, latency percentiles)
``/v1/metrics``       GET     unified :mod:`repro.obs` snapshot — JSON
                              by default; Prometheus text exposition
                              with ``?format=prometheus`` (or an
                              ``Accept: text/plain`` header)
``/v1/healthz``       GET     ``{"ok": true}``
``/v1/admin/ring``    GET     ring descriptor + per-shard health (the
                              probe verdicts); sharded services only
``/v1/admin/ring``    POST    ``{action, n_shards?, shard?}`` — actions
                              ``status`` / ``resize`` / ``add_shard`` /
                              ``remove_shard`` / ``eject`` / ``readmit``
                              (see :meth:`~repro.service.sharding.
                              ShardedPartitionService.ring_admin`)
====================  ======  =========================================

Each front memoises ``/v1/partition`` and ``/v1/refine`` decodes: the
exact body bytes map to the validated request, so a repeat skips the
JSON parse, CSR build and hash and is handed to the service like any
other request (a sharded service may then answer it from its front
result store without a shard hop).  The LRU is bounded by
:data:`DECODE_MEMO_BYTES` (body plus graph arrays per entry); bodies
that fail to decode or validate are never memoised.

Malformed payloads (bad JSON, bad graph bytes, invalid parameters)
answer ``400`` with ``{"error": ...}``; unknown paths ``404``; unknown
sessions ``404``; oversized bodies ``413``.  Library errors never leak
tracebacks to the wire.  ``/v1/admin/ring`` against an unsharded
service answers ``404`` — a bare :class:`PartitionService` has no ring.

Admin example — grow a local fleet from 2 to 4 shards, live::

    curl -s -X POST localhost:8080/v1/admin/ring \\
         -d '{"action": "resize", "n_shards": 4}'
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Sequence

from ..errors import ReproError, ServiceError, ShardDiedError
from .cache import LRUBytesCache, graph_nbytes
from .core import PartitionService
from .models import (
    PartitionRequest,
    RefineRequest,
    UpdateRequest,
    graph_from_wire,
)

__all__ = [
    "DECODE_MEMO_BYTES",
    "PartitionHTTPServer",
    "decode_memo",
    "dispatch_request",
    "make_server",
    "serve",
]

#: request-body ceiling — paper-scale graphs are ~KBs; 64 MiB leaves
#: ample slack for large meshes while bounding a hostile payload
MAX_BODY_BYTES = 64 << 20

#: byte budget of one front's decode memo (bodies plus graph arrays)
DECODE_MEMO_BYTES = 32 << 20

#: POST routes whose bodies the decode memo serves
_MEMO_ROUTES = {
    "/v1/partition": PartitionRequest,
    "/v1/refine": RefineRequest,
}


def decode_memo() -> LRUBytesCache:
    """A fresh decode memo for one front (see the module docstring)."""
    return LRUBytesCache(DECODE_MEMO_BYTES)


def _decode(memo: Optional[LRUBytesCache], path: str, body: bytes):
    """The validated request a ``/v1/partition`` or ``/v1/refine`` body
    names, from the memo when this exact body was decoded before (its
    graph keeps the digest the first submit computes)."""
    cls = _MEMO_ROUTES[path]
    key = (path, body)
    request = None if memo is None else memo.get(key)
    if request is None:
        request = cls.from_payload(_parse_json_body(body))
        if memo is not None:
            extra = getattr(request, "assignment", None)
            memo.put(key, request, len(body) + graph_nbytes(request.graph)
                     + (0 if extra is None else extra.nbytes))
    return request


# ----------------------------------------------------------------------
# shared route dispatch (both fronts)
# ----------------------------------------------------------------------

def _json_response(status: int, payload: dict) -> tuple[int, str, bytes]:
    return status, "application/json", json.dumps(payload).encode()


def _parse_json_body(raw: bytes) -> dict:
    try:
        payload = json.loads(raw.decode() or "{}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _HTTPError(400, f"bad JSON body: {exc}") from exc
    if not isinstance(payload, dict):
        raise _HTTPError(400, "request body must be a JSON object")
    return payload


def dispatch_request(
    service, method: str, target: str, body: bytes = b"", accept: str = "",
    memo: Optional[LRUBytesCache] = None,
) -> tuple[int, str, bytes]:
    """Route one HTTP request → ``(status, content type, body bytes)``.

    The single routing table behind both fronts: ``target`` is the raw
    request target (path plus optional query), ``body`` the already-read
    request body, ``accept`` the Accept header (the ``/v1/metrics``
    content negotiation), ``memo`` the front's decode memo (``None``
    decodes every body afresh).  Every error — malformed payload, library
    error, handler bug — is mapped to a JSON error response here, so
    callers never see an exception and the two fronts answer
    byte-identically.
    """
    from urllib.parse import parse_qs, urlsplit

    parts = urlsplit(target)
    path = parts.path
    try:
        if method == "GET":
            if path == "/v1/healthz":
                return _json_response(200, {"ok": True})
            if path == "/v1/stats":
                return _json_response(200, service.stats())
            if path == "/v1/metrics":
                from ..obs.metrics import render_prometheus

                want_text = (
                    parse_qs(parts.query).get("format", [""])[0]
                    == "prometheus"
                    or (
                        "text/plain" in accept
                        and "application/json" not in accept
                    )
                )
                snapshot = service.metrics()
                if not want_text:
                    return _json_response(200, snapshot)
                return (
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    render_prometheus(snapshot).encode(),
                )
            if path == "/v1/admin/ring":
                if not hasattr(service, "ring_admin"):
                    return _json_response(
                        404,
                        {"error": "ring admin needs a sharded service "
                                  "(serve --shards/--attach-shard)"},
                    )
                return _json_response(200, service.ring_admin("status"))
            return _json_response(404, {"error": f"unknown path {target}"})
        if method != "POST":
            return _json_response(
                501, {"error": f"unsupported method {method!r}"}
            )
        if path in _MEMO_ROUTES:
            result = service.submit(_decode(memo, path, body))
            return _json_response(200, result.to_payload())
        payload = _parse_json_body(body)
        if path == "/v1/session/open":
            # parameter validation (types, ranges, ga overrides)
            # lives in SessionManager.open and answers 400
            result = service.open_session(
                graph_from_wire(_field(payload, "graph")),
                n_parts=_field(payload, "n_parts"),
                fitness_kind=payload.get("fitness_kind", "fitness1"),
                seed=payload.get("seed", 0),
                ga=payload.get("ga"),
            )
            return _json_response(200, result.to_payload())
        if path == "/v1/session/update":
            result = service.update_session(UpdateRequest.from_payload(payload))
            return _json_response(200, result.to_payload())
        if path == "/v1/session/close":
            summary = service.close_session(_field(payload, "session_id"))
            return _json_response(200, summary)
        if path == "/v1/admin/ring":
            # elastic-fleet admin (PR 10): body {"action": ..., "n_shards":
            # ..., "shard": ...} — see ShardedPartitionService.ring_admin.
            # Validation (unknown action, missing operand, attach-mode
            # resize) lives there and answers 400.
            if not hasattr(service, "ring_admin"):
                return _json_response(
                    404,
                    {"error": "ring admin needs a sharded service "
                              "(serve --shards/--attach-shard)"},
                )
            out = service.ring_admin(
                _field(payload, "action"),
                n_shards=payload.get("n_shards"),
                shard=payload.get("shard"),
            )
            return _json_response(200, out)
        return _json_response(404, {"error": f"unknown path {target}"})
    except _HTTPError as exc:
        return _json_response(exc.status, {"error": exc.message})
    except ShardDiedError as exc:
        # a shard crash is the service's fault, not the request's:
        # answer 503 (retryable) so HTTP clients can distinguish
        # "retry me once the shard restarts" from a bad request
        return _json_response(503, {"error": str(exc)})
    except ServiceError as exc:
        status = 404 if "unknown session" in str(exc) else 400
        return _json_response(status, {"error": str(exc)})
    except ReproError as exc:
        return _json_response(400, {"error": str(exc)})
    # repro: allow[BROAD-EXCEPT] — the 500 boundary: a handler bug must
    # answer JSON, not kill the client's connection
    except Exception as exc:  # pragma: no cover - defensive boundary
        return _json_response(500, {"error": f"internal error: {exc}"})


class PartitionHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns a service.

    ``service`` is anything exposing the shared service verbs — a
    :class:`PartitionService` or a digest-sharded
    :class:`~repro.service.sharding.ShardedPartitionService`.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.decode_memo = decode_memo()


class _Handler(BaseHTTPRequestHandler):
    server: PartitionHTTPServer
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging is the service counters' job, not stderr's

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self._send(status, "application/json", body)

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        raw_length = self.headers.get("Content-Length", 0) or 0
        try:
            length = int(raw_length)
        except (TypeError, ValueError):
            raise _HTTPError(
                400, f"bad Content-Length header: {raw_length!r}"
            ) from None
        if length < 0:
            raise _HTTPError(400, f"bad Content-Length header: {length}")
        if length > MAX_BODY_BYTES:
            raise _HTTPError(413, f"request body over {MAX_BODY_BYTES} bytes")
        return self.rfile.read(length) if length else b""

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        try:
            self._send(*dispatch_request(
                self.server.service, "GET", self.path,
                accept=self.headers.get("Accept", "") or "",
            ))
        except BrokenPipeError:  # client went away mid-answer
            pass

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            try:
                body = self._read_body()
            except _HTTPError as exc:
                self._send_json(exc.status, {"error": exc.message})
                return
            self._send(*dispatch_request(
                self.server.service, "POST", self.path, body,
                memo=self.server.decode_memo,
            ))
        except BrokenPipeError:
            pass


class _HTTPError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _field(payload: dict, key: str):
    try:
        return payload[key]
    except KeyError:
        raise _HTTPError(400, f"request payload missing field {key!r}") from None


def make_server(
    host: str = "127.0.0.1",
    port: int = 8157,
    service: Optional[PartitionService] = None,
    shards: int = 0,
    attach_shards: Optional[Sequence[str]] = None,
    front: str = "eventloop",
    **service_kwargs,
):
    """Build (but do not start) a server; ``port=0`` picks a free port.

    ``shards=N`` (N ≥ 1) serves through a digest-sharded
    :class:`~repro.service.sharding.ShardedPartitionService` of N
    worker processes instead of one in-process service;
    ``attach_shards=["host:port", ...]`` builds the same front over
    *remote* socket shards (running ``serve --shard-listen``) instead
    of spawning local workers.  Responses are bit-identical either way.
    These only apply when the server builds its own service — combining
    them with an explicit ``service`` is rejected rather than silently
    ignored.

    ``front`` picks the connection front: ``"eventloop"`` (default, the
    selectors loop with keep-alive and pipelining) or ``"thread"`` (the
    original thread-per-connection server).  Both expose the same
    surface (``server_address``, ``service``, ``serve_forever`` /
    ``shutdown`` / ``server_close``) and byte-identical responses.
    """
    if front not in ("eventloop", "thread"):
        raise ServiceError(
            f"front must be 'eventloop' or 'thread', got {front!r}"
        )
    if service is not None and (shards or attach_shards):
        raise ServiceError(
            "pass either an explicit service or shards/attach_shards, not "
            "both (wrap the service yourself for a custom sharded front)"
        )
    if shards and attach_shards:
        raise ServiceError(
            "pass either shards=N (local workers) or attach_shards "
            "(remote workers), not both"
        )
    if service is None:
        if attach_shards:
            from .sharding import ShardedPartitionService

            service = ShardedPartitionService(
                attach=list(attach_shards), **service_kwargs
            )
        elif shards:
            from .sharding import ShardedPartitionService

            service = ShardedPartitionService(n_shards=shards, **service_kwargs)
        else:
            service = PartitionService(**service_kwargs)
    if front == "thread":
        return PartitionHTTPServer((host, port), service)
    from .eventloop import EventLoopHTTPServer

    return EventLoopHTTPServer((host, port), service)


def serve(
    host: str = "127.0.0.1",
    port: int = 8157,
    service: Optional[PartitionService] = None,
    background: bool = False,
    shards: int = 0,
    attach_shards: Optional[Sequence[str]] = None,
    front: str = "eventloop",
    **service_kwargs,
):
    """Start serving; ``background=True`` serves from a daemon thread
    and returns immediately (used by tests and the smoke benchmark).
    ``shards=N`` enables digest-sharded multi-process serving;
    ``attach_shards`` fronts remote socket shards instead; ``front``
    picks the connection front (see :func:`make_server`)."""
    server = make_server(
        host, port, service, shards=shards, attach_shards=attach_shards,
        front=front, **service_kwargs,
    )
    if background:
        thread = threading.Thread(
            target=server.serve_forever, name="repro-service", daemon=True
        )
        thread.start()
    else:  # pragma: no cover - exercised by the CLI, not the test suite
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.service.close()
            server.server_close()
    return server
