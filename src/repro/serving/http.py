"""The HTTP JSON API: a thin, envelope-faithful skin over the registry.

Stdlib only (:class:`http.server.ThreadingHTTPServer` -- one thread per
connection, which is exactly the concurrency model the
:class:`~repro.serving.registry.ServedSession` locks and the
:class:`~repro.serving.batcher.CoalescingBatcher` are built for).

Routes::

    GET    /healthz                      liveness + session count
    GET    /readyz                       readiness (503 while recovering)
    GET    /stats                        caches, coalescer, per-session stats
    GET    /sessions                     list session descriptions
    POST   /sessions                     create {"name", "attribute", ...}
    DELETE /sessions/<name>              forget a session
    POST   /sessions/<name>/ingest       {"observations": [{...}, ...]}
    GET    /sessions/<name>/estimate     ?spec=...&attribute=...&timeout_ms=...
                                         &mode=batch|delta|auto&wait_version=N
                                         (no mode: batch; long-poll: block
                                         until state_version >= N; 304 +
                                         X-Repro-State-Version on timeout)
    GET    /sessions/<name>/subscribe    Server-Sent Events: one fresh
                                         ``repro.result/v1`` envelope per
                                         state_version bump (?spec, ?attribute,
                                         ?mode, ?from_version, ?max_events,
                                         ?timeout_ms, ?heartbeat_ms)
    POST   /sessions/<name>/query        {"sql", "spec"?, "closed_world"?}
    GET    /sessions/<name>/snapshot     the session-snapshot envelope
    POST   /sessions/<name>/restore      materialize from a snapshot envelope
                                         (the replica push and the public
                                         transfer; replace-if-newer)
    GET    /sessions/<name>/store        stream a persisted session's store
                                         archive (exact Content-Length)
    POST   /sessions/<name>/restore-store  receive a store archive (the
                                         migration transfer; same fence)

Liveness (``/healthz``) answers 200 from the moment the socket is bound
-- it means "the process is up", nothing more.  Readiness (``/readyz``)
answers 503 ``{"status": "recovering"}`` while the registry re-attaches
its stores after a restart and 200 ``{"status": "ready"}`` once every
session is byte-exact; load balancers should route on readiness.

Degradation, not collapse, under adverse conditions:

* ``?timeout_ms=`` on estimate/query puts a deadline on the response --
  expiry is HTTP 504 while the computation finishes in the background
  and still populates the answer cache;
* a full admission gate (``max_inflight``) sheds requests with HTTP 503
  plus a ``Retry-After`` hint instead of letting threads pile up;
* a session whose estimator keeps failing trips its circuit breaker:
  HTTP 503 + ``Retry-After`` for the cooldown, instead of queueing more
  doomed work (health and stats routes are exempt from the gate).

Estimate, query and snapshot responses are the ``repro.result/v1``
payloads of the equivalent :class:`~repro.api.session.OpenWorldSession`
calls, serialized by :func:`dumps_result` -- the same function any
in-process comparison should use, so "byte-identical to the facade" is
checkable with ``cmp`` (the CI serving-smoke job does exactly that).

The wire plumbing -- bounded body reads, query validation, the JSON and
event-stream writers, the exception -> status table -- lives in
:class:`ApiHandler`, which this server's handler and the cluster
router's (:mod:`repro.cluster.router`) both subclass: the two HTTP hops
follow one set of wire rules.

:func:`run_server` is the CLI's entry point: it begins accepting (for
liveness) *before* restoring sessions from ``--state-dir``, prints the
``READY`` line once recovery finished, serves until SIGINT/SIGTERM,
then checkpoints every session in the state dir before exiting.
"""

from __future__ import annotations

import gzip
import json
import math
import signal
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.data.records import Observation
from repro.resilience.admission import (
    AdmissionGate,
    DeadlineExceededError,
    OverloadedError,
)
from repro.resilience.breaker import CircuitOpenError
from repro.resilience.faults import fault_point
from repro.serving.registry import (
    DuplicateSessionError,
    SessionRegistry,
    UnknownSessionError,
)
from repro.storage.transfer import archive_length, iter_archive
from repro.utils.exceptions import InsufficientDataError, ReproError, ValidationError

__all__ = ["ReproServer", "dumps_result", "make_server", "run_server"]

#: Request bodies beyond this are refused (64 MiB of observations is far
#: outside one ingest chunk; it protects the server, not a workload).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Store-archive bodies (a whole session's segment files) get a larger
#: bound than JSON requests.
MAX_STORE_ARCHIVE_BYTES = 4 * 1024 * 1024 * 1024

#: Responses below this are not worth a gzip member's ~20-byte overhead
#: (plus a deflate pass) even when the client advertises gzip.
GZIP_MIN_BYTES = 512

#: Read/write granularity for request bodies and streamed responses.
IO_CHUNK_BYTES = 64 * 1024


def dumps_result(payload: Any) -> bytes:
    """The serving wire format of a result payload (newline-terminated).

    One function, used by the handler *and* by anything comparing served
    bytes against in-process results, so byte-identity is a property of
    the payload alone.
    """
    return (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode("utf-8")


def observations_from_json(items: Any) -> list[Observation]:
    """Decode the ``observations`` array of an ingest body."""
    if not isinstance(items, list):
        raise ValidationError(
            "ingest expects {'observations': [...]}, got "
            f"{type(items).__name__} for the array"
        )
    observations = []
    for index, item in enumerate(items):
        if not isinstance(item, dict):
            raise ValidationError(
                f"observation #{index} must be an object, got {type(item).__name__}"
            )
        unknown = set(item) - {"entity_id", "source_id", "attributes", "sequence"}
        if unknown:
            raise ValidationError(
                f"observation #{index} has unknown fields: {', '.join(sorted(unknown))}"
            )
        sequence = item.get("sequence", -1)
        if type(sequence) is not int:  # bool is an int subclass: refused too
            raise ValidationError(
                f"observation #{index} is malformed: sequence must be an "
                f"integer, got {sequence!r}"
            )
        try:
            observations.append(
                Observation(
                    entity_id=item.get("entity_id", ""),
                    attributes=item.get("attributes", {}),
                    source_id=item.get("source_id", "unknown"),
                    sequence=sequence,
                )
            )
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"observation #{index} is malformed: {exc}") from exc
    return observations


class RouteError(Exception):
    """An HTTP-status-carrying error outside the ReproError taxonomy."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _retry_after_header(seconds: float) -> "tuple[str, str]":
    """``Retry-After`` as HTTP delta-seconds (integer, at least 1)."""
    return ("Retry-After", str(max(1, math.ceil(seconds))))


class _RequestBody:
    """The request body as a file-like that stops at its Content-Length.

    ``left`` counts the bytes not read yet: a response sent while some
    are left closes the connection (see :meth:`ApiHandler._send_head`).
    """

    def __init__(self, rfile: Any, length: int) -> None:
        self._rfile = rfile
        self.left = length

    def read(self, n: int = -1) -> bytes:
        n = self.left if n is None or n < 0 else min(n, self.left)
        if n <= 0:
            return b""
        block = self._rfile.read(min(n, IO_CHUNK_BYTES))
        self.left -= len(block)
        return block


class ApiHandler(BaseHTTPRequestHandler):
    """The HTTP plumbing every hop of the API shares.

    The single server's handler and the cluster router's are sibling
    subclasses: each adds its routes (:meth:`_serve`) and the exception
    types only it raises (:attr:`ERRORS`).  The wire rules live here
    once and never ask which server runs them:

    * a body this process generates is gzipped for clients that accept
      it (:meth:`_send_bytes`); a relayed body goes out exactly as the
      worker encoded it (:meth:`_send_raw`);
    * the connection closes after every status >= 400 and after any
      response whose request body was not read to its end;
    * request bodies are bounded (413) and read in bounded chunks.
    """

    protocol_version = "HTTP/1.1"

    #: Exception types -> HTTP status, first match wins; anything else is
    #: a 500, and a 503 carries the exception's ``Retry-After``.
    #: Subclasses put their own types in front.
    ERRORS: "tuple[tuple[Any, int], ...]" = (
        (DeadlineExceededError, 504),
        ((OverloadedError, CircuitOpenError), 503),
        (ReproError, 400),
    )

    #: Default subscribe keep-alive comment interval.
    HEARTBEAT_MS = 15_000

    #: The current request's body, once a route asked for it.
    _body: "_RequestBody | None" = None

    # Quiet by default: one log line per request at this layer would
    # dominate the serving benchmark's hot loop.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        self._body = None
        try:
            split = urlsplit(self.path)
            parts = [p for p in split.path.split("/") if p]
            query = parse_qs(split.query, keep_blank_values=False)
            self._serve(method, split, parts, query)
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as exc:  # noqa: BLE001 - mapped by ERRORS, else 500
            self._fail(exc)

    def _serve(self, method: str, split: Any, parts: list[str], query: Any) -> None:
        """Answer one parsed request: the subclass's routes."""
        raise NotImplementedError

    def _fail(self, exc: Exception) -> None:
        """Answer a failed request with its status from :attr:`ERRORS`."""
        if isinstance(exc, RouteError):
            status = exc.status
        else:
            status = next(
                (code for types, code in self.ERRORS if isinstance(exc, types)), 500
            )
        if status == 500:
            message = f"internal error: {type(exc).__name__}: {exc}"
        else:
            message = str(exc)
        headers = (
            [_retry_after_header(getattr(exc, "retry_after", 1.0))]
            if status == 503
            else None
        )
        try:
            self._send_json(status, {"error": message}, headers=headers)
        except BrokenPipeError:  # pragma: no cover - client already gone
            pass

    # ------------------------------------------------------------------ #
    # Request bodies
    # ------------------------------------------------------------------ #

    def _request_body(self, limit: int) -> _RequestBody:
        """The body as a reader: 400 on a bad Content-Length, 413 past ``limit``."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise ValidationError(
                "Content-Length header is not an integer"
            ) from None
        if length > limit:
            raise RouteError(413, f"request body exceeds {limit} bytes")
        self._body = _RequestBody(self.rfile, max(length, 0))
        return self._body

    def _read_body(self) -> bytes:
        """The request body exactly as sent (still encoded), bounded."""
        body = self._request_body(MAX_BODY_BYTES)
        chunks: list[bytes] = []
        while body.left > 0:
            block = body.read(IO_CHUNK_BYTES)
            if not block:
                raise ValidationError(
                    "request body ended before Content-Length bytes arrived"
                )
            chunks.append(block)
        return b"".join(chunks)

    def _parse_body(self, raw: bytes) -> dict[str, Any]:
        """A JSON-object body, inflated as its ``Content-Encoding`` says.

        MAX_BODY_BYTES bounds the *inflated* size too: a gzip bomb trips
        the 413 before it can expand further.
        """
        if not raw:
            raise ValidationError("request requires a JSON body")
        encoding = (self.headers.get("Content-Encoding") or "").strip().lower()
        if encoding in ("gzip", "x-gzip"):
            inflater = zlib.decompressobj(16 + zlib.MAX_WBITS)
            try:
                raw = inflater.decompress(raw, MAX_BODY_BYTES + 1)
            except zlib.error as exc:
                raise ValidationError(
                    f"request body is not valid gzip: {exc}"
                ) from exc
            if len(raw) > MAX_BODY_BYTES:
                raise RouteError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        elif encoding not in ("", "identity"):
            raise RouteError(
                415, f"unsupported Content-Encoding {encoding!r} (use gzip)"
            )
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise ValidationError("request body must be a JSON object")
        return body

    def _read_json_body(self) -> dict[str, Any]:
        return self._parse_body(self._read_body())

    def _archive_body(self) -> _RequestBody:
        """The store archive of ``restore-store``, as a bounded reader."""
        body = self._request_body(MAX_STORE_ARCHIVE_BYTES)
        if not body.left:
            raise ValidationError("restore-store requires a store-archive body")
        return body

    # ------------------------------------------------------------------ #
    # Query parameters
    # ------------------------------------------------------------------ #

    @staticmethod
    def _validated_query(query: dict[str, list[str]], allowed: set[str]) -> None:
        unknown = set(query) - allowed
        if unknown:
            raise ValidationError(
                f"unknown query parameters: {', '.join(sorted(unknown))}"
            )

    @staticmethod
    def _single(query: dict[str, list[str]], key: str) -> "str | None":
        values = query.get(key, [])
        if len(values) > 1:
            raise ValidationError(f"query parameter {key!r} given more than once")
        return values[0] if values else None

    def _int_param(
        self, query: dict[str, list[str]], key: str, minimum: int = 0
    ) -> "int | None":
        raw = self._single(query, key)
        if raw is None:
            return None
        try:
            value = int(raw)
        except ValueError:
            raise ValidationError(
                f"{key} must be an integer, got {raw!r}"
            ) from None
        if value < minimum:
            raise ValidationError(f"{key} must be >= {minimum}, got {value}")
        return value

    def _timeout_seconds(self, query: dict[str, list[str]]) -> "float | None":
        """The ``?timeout_ms=`` deadline, as seconds (``None`` = no deadline)."""
        raw = self._single(query, "timeout_ms")
        if raw is None:
            return None
        try:
            millis = int(raw)
        except ValueError:
            raise ValidationError(
                f"timeout_ms must be an integer, got {raw!r}"
            ) from None
        if millis <= 0:
            raise ValidationError(f"timeout_ms must be > 0, got {millis}")
        return millis / 1000.0

    def _subscribe_query(self, query: dict[str, list[str]]) -> tuple:
        """The validated parameters of ``GET .../subscribe``.

        ``(spec, attribute, mode, from_version, max_events, timeout,
        heartbeat)``, the last two in seconds (``timeout`` is ``None``
        for a stream without deadline).
        """
        self._validated_query(
            query,
            {
                "spec",
                "attribute",
                "mode",
                "from_version",
                "max_events",
                "timeout_ms",
                "heartbeat_ms",
            },
        )
        spec = self._single(query, "spec")
        attribute = self._single(query, "attribute")
        mode = self._single(query, "mode")
        from_version = self._int_param(query, "from_version")
        max_events = self._int_param(query, "max_events", minimum=1)
        timeout = self._timeout_seconds(query)
        heartbeat_ms = self._int_param(query, "heartbeat_ms", minimum=1)
        heartbeat = (
            heartbeat_ms if heartbeat_ms is not None else self.HEARTBEAT_MS
        ) / 1000.0
        return spec, attribute, mode, from_version, max_events, timeout, heartbeat

    # ------------------------------------------------------------------ #
    # Responses
    # ------------------------------------------------------------------ #

    def _gzip_accepted(self) -> bool:
        """Did the client's ``Accept-Encoding`` advertise gzip (q > 0)?"""
        accept = self.headers.get("Accept-Encoding") or ""
        for token in accept.split(","):
            name, _, params = token.partition(";")
            if name.strip().lower() not in ("gzip", "x-gzip"):
                continue
            quality = 1.0
            for param in params.split(";"):
                param = param.strip().lower()
                if param.startswith("q="):
                    try:
                        quality = float(param[2:])
                    except ValueError:
                        quality = 0.0
            return quality > 0
        return False

    def _send_json(
        self,
        status: int,
        payload: Any,
        headers: "list[tuple[str, str]] | None" = None,
    ) -> None:
        self._send_bytes(status, dumps_result(payload), headers=headers)

    def _send_bytes(
        self,
        status: int,
        body: bytes,
        headers: "list[tuple[str, str]] | None" = None,
    ) -> None:
        """Send a JSON body this process generated."""
        sent = [("Content-Type", "application/json; charset=utf-8")]
        if len(body) >= GZIP_MIN_BYTES and self._gzip_accepted():
            # mtime=0 keeps the compressed bytes deterministic, so the
            # byte-identity contract holds for gzip-speaking clients too
            # (identical payload -> identical compressed body).
            body = gzip.compress(body, mtime=0)
            sent += [("Content-Encoding", "gzip"), ("Vary", "Accept-Encoding")]
        self._send_raw(status, body, sent + list(headers or ()))

    def _send_raw(
        self, status: int, body: bytes, headers: "list[tuple[str, str]]"
    ) -> None:
        """Send ``body`` exactly as given, under exactly ``headers``."""
        self._send_head(status, headers, len(body))
        for offset in range(0, len(body), IO_CHUNK_BYTES):
            self.wfile.write(body[offset : offset + IO_CHUNK_BYTES])

    def _send_head(
        self, status: int, headers: "list[tuple[str, str]]", length: int
    ) -> None:
        """Status line and headers of a ``length``-byte response.

        The connection closes after every error and after any response
        whose request body was not read to its end.  Unread body bytes
        would be parsed as the next request line, and an error can fire
        before the body was read (unrouted POST, oversized body,
        malformed headers); closing beats draining an arbitrary,
        possibly lying, Content-Length.
        """
        fault_point("http.before_response")
        self.send_response(status)
        for name, value in headers:
            self.send_header(name, value)
        self.send_header("Content-Length", str(length))
        if status >= 400 or self._body_unread():
            self.close_connection = True
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()

    def _body_unread(self) -> bool:
        if self._body is not None:
            return self._body.left > 0
        return (
            self.headers.get("Content-Length") not in (None, "0")
            or "Transfer-Encoding" in self.headers
        )

    def _send_not_ready(self, status: str) -> None:
        """503 ``{"status": ...}`` plus ``Retry-After``: not ready yet."""
        self._send_json(
            503, {"status": status}, headers=[_retry_after_header(1.0)]
        )

    def _start_event_stream(self, version: Any) -> None:
        """The header block of a close-delimited Server-Sent-Events stream."""
        self.close_connection = True
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-store")
        self.send_header("X-Repro-State-Version", str(version))
        self.send_header("Connection", "close")
        self.end_headers()


class ReproServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` carrying the registry as app state."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        registry: SessionRegistry,
        *,
        gate: "AdmissionGate | None" = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.registry = registry
        self.gate = gate


class _Handler(ApiHandler):
    server_version = "repro-serving/1"

    ERRORS = (
        ((UnknownSessionError, InsufficientDataError), 404),
        (DuplicateSessionError, 409),
    ) + ApiHandler.ERRORS

    def _serve(self, method: str, split: Any, parts: list[str], query: Any) -> None:
        handler = self._route(method, parts)
        if handler is None:
            raise RouteError(404, f"no route {method} {split.path}")
        if handler in (self._get_healthz, self._get_readyz):
            # Health probes bypass readiness and admission: liveness
            # must answer while recovering and while shedding load.
            handler(parts, query)
            return
        if not self.server.registry.ready:
            raise OverloadedError(
                "server is recovering (attaching the session stores)",
                retry_after=1.0,
            )
        gate = self.server.gate
        if gate is None or handler is self._get_subscribe:
            # A subscription is a long-lived stream: pinning an
            # admission slot for its lifetime would let a handful of
            # idle subscribers starve the serving path.  Its per-event
            # computations ride the shared cache/batcher like any
            # other read, so only the slot is exempted.
            handler(parts, query)
        else:
            with gate:
                handler(parts, query)

    def _route(self, method: str, parts: list[str]):
        registry_routes = {
            ("GET", ("healthz",)): self._get_healthz,
            ("GET", ("readyz",)): self._get_readyz,
            ("GET", ("stats",)): self._get_stats,
            ("GET", ("sessions",)): self._get_sessions,
            ("POST", ("sessions",)): self._post_sessions,
        }
        key = (method, tuple(parts))
        if key in registry_routes:
            return registry_routes[key]
        if len(parts) == 2 and parts[0] == "sessions" and method == "DELETE":
            return self._delete_session
        if len(parts) == 3 and parts[0] == "sessions":
            action = (method, parts[2])
            session_routes = {
                ("POST", "ingest"): self._post_ingest,
                ("GET", "estimate"): self._get_estimate,
                ("GET", "subscribe"): self._get_subscribe,
                ("POST", "query"): self._post_query,
                ("GET", "snapshot"): self._get_snapshot,
                ("POST", "restore"): self._post_restore,
                ("GET", "store"): self._get_store,
                ("POST", "restore-store"): self._post_restore_store,
            }
            return session_routes.get(action)
        return None

    # ------------------------------------------------------------------ #
    # Registry routes
    # ------------------------------------------------------------------ #

    def _get_healthz(self, parts, query) -> None:
        self._send_json(
            200, {"status": "ok", "sessions": len(self.server.registry)}
        )

    def _get_readyz(self, parts, query) -> None:
        registry = self.server.registry
        if registry.ready:
            self._send_json(
                200, {"status": "ready", "sessions": len(registry)}
            )
        else:
            self._send_not_ready("recovering")

    def _get_stats(self, parts, query) -> None:
        payload = self.server.registry.stats()
        if self.server.gate is not None:
            payload["admission"] = self.server.gate.stats()
        self._send_json(200, payload)

    def _get_sessions(self, parts, query) -> None:
        registry = self.server.registry
        self._send_json(
            200, {"sessions": [served.info() for served in registry.sessions()]}
        )

    def _post_sessions(self, parts, query) -> None:
        body = self._read_json_body()
        unknown = set(body) - {
            "name",
            "attribute",
            "table_name",
            "estimator",
            "count_method",
        }
        if unknown:
            raise ValidationError(
                f"unknown session fields: {', '.join(sorted(unknown))}"
            )
        if "name" not in body or "attribute" not in body:
            raise ValidationError("creating a session requires 'name' and 'attribute'")
        served = self.server.registry.create(
            body["name"],
            body["attribute"],
            table_name=body.get("table_name", "data"),
            estimator=body.get("estimator", "bucket"),
            count_method=body.get("count_method", "chao92"),
        )
        self._send_json(201, served.info())

    def _delete_session(self, parts, query) -> None:
        self.server.registry.remove(parts[1])
        self._send_json(200, {"deleted": parts[1]})

    # ------------------------------------------------------------------ #
    # Session routes
    # ------------------------------------------------------------------ #

    def _post_ingest(self, parts, query) -> None:
        served = self.server.registry.get(parts[1])
        body = self._read_json_body()
        if set(body) != {"observations"}:
            raise ValidationError(
                "ingest expects exactly {'observations': [...]}; got fields "
                f"{', '.join(sorted(body)) or '(none)'}"
            )
        observations = observations_from_json(body["observations"])
        self._send_json(200, served.ingest(observations))

    #: How long a ``?wait_version=`` long-poll parks by default before
    #: answering 304 (overridable per request via ``timeout_ms``).
    WAIT_VERSION_TIMEOUT = 30.0

    def _get_estimate(self, parts, query) -> None:
        """The estimate of one spec, or the list of several (``?spec=`` repeated).

        ``?wait_version=N`` first parks on the session's VersionGate
        (never under its RWLock) until ``state_version`` reaches N: 304
        with the current version on timeout, 404 if the session is
        deleted meanwhile.  A one-spec long-poll's
        ``X-Repro-State-Version`` is the version the read returned with
        the payload (at least N), so the label names the answer's state.
        """
        served = self.server.registry.get(parts[1])
        self._validated_query(
            query, {"spec", "attribute", "timeout_ms", "wait_version", "mode"}
        )
        specs: "list[str | None]" = list(query.get("spec", [])) or [None]
        attribute = self._single(query, "attribute")
        mode = self._single(query, "mode")
        timeout = self._timeout_seconds(query)
        wait_version = self._int_param(query, "wait_version")
        if wait_version is not None:
            reached = served.wait_for_version(
                wait_version,
                timeout if timeout is not None else self.WAIT_VERSION_TIMEOUT,
            )
            if reached is None:
                self._send_raw(
                    304,
                    b"",
                    [("X-Repro-State-Version", str(served.state_version))],
                )
                return
            if reached < wait_version:
                # The gate released us below the target: the session was
                # retired mid-wait.
                raise UnknownSessionError(
                    f"session {parts[1]!r} was removed while waiting for "
                    f"state_version {wait_version}"
                )
        pairs = served.estimate_payloads(specs, attribute, timeout=timeout, mode=mode)
        if len(pairs) > 1:
            self._send_json(200, [payload for _, payload in pairs])
        elif wait_version is None:
            self._send_json(200, pairs[0][1])
        else:
            version, payload = pairs[0]
            self._send_json(200, payload, [("X-Repro-State-Version", str(version))])

    def _get_subscribe(self, parts, query) -> None:
        """Server-Sent Events: push a fresh envelope per version bump.

        Framing (one event per ``state_version`` reached)::

            id: <state_version>
            event: estimate
            data: <line 1 of the result body>
            data: ...
            <blank line>

        Joining the ``data:`` values with a newline reconstructs the
        exact bytes ``GET .../estimate`` would serve at that version --
        the byte-identity contract, extended to the push path (the push
        also warms the answer cache, so followers polling the same
        version hit).  Each event is one read of the served session,
        whose ``(state_version, payload)`` pair gives ``id`` and
        ``data`` alike.  Versions may coalesce under write pressure:
        only the latest state is pushed, ``id`` values are strictly
        increasing, and a reconnecting client resumes with
        ``?from_version=<last id + 1>``.
        """
        served = self.server.registry.get(parts[1])
        spec, attribute, mode, from_version, max_events, timeout, heartbeat = (
            self._subscribe_query(query)
        )
        deadline = time.monotonic() + timeout if timeout is not None else None

        if from_version is not None and from_version > served.state_version:
            # Resuming ahead of the current state: park until it arrives
            # (or the stream deadline passes) before sending headers, so
            # validation errors can still surface as clean 4xx responses.
            first_wait = heartbeat if deadline is None else min(
                heartbeat, max(0.0, deadline - time.monotonic())
            )
            served.wait_for_version(from_version, first_wait)

        # Read the first (version, payload) pair *before* the stream
        # headers go out: a bad spec / attribute / mode fails the request
        # with a regular JSON error instead of dying mid-stream.
        [(version, payload)] = served.estimate_payloads(
            [spec], attribute, timeout=timeout, mode=mode
        )

        self._start_event_stream(version)
        served.subscriber_started()
        disconnected = False
        pushed = 0
        last = None
        try:
            while True:
                if from_version is None or version >= from_version:
                    if last is None or version > last:
                        self._write_event(version, dumps_result(payload))
                        served.subscriber_pushed()
                        pushed += 1
                        last = version
                        if max_events is not None and pushed >= max_events:
                            return
                wait_floor = (last if last is not None else version) + 1
                if last is None and from_version is not None:
                    wait_floor = max(wait_floor, from_version)
                while True:
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        return
                    slice_timeout = (
                        heartbeat
                        if remaining is None
                        else min(heartbeat, remaining)
                    )
                    reached = served.wait_for_version(wait_floor, slice_timeout)
                    if reached is None:
                        # Idle heartbeat: also our liveness probe -- a
                        # dead client surfaces as BrokenPipeError here,
                        # releasing the wait slot and the thread.
                        self.wfile.write(b": keepalive\n\n")
                        self.wfile.flush()
                        continue
                    if reached < wait_floor:
                        return  # session retired; end the stream cleanly
                    break
                # No compute deadline mid-stream: a 504 cannot be sent
                # once the event-stream headers are out.
                [(version, payload)] = served.estimate_payloads(
                    [spec], attribute, mode=mode
                )
        except (BrokenPipeError, ConnectionResetError):
            disconnected = True
        except ReproError:
            # Mid-stream failure (estimator error, breaker open): the
            # status line is long gone, so end the stream; the client
            # reconnects from its last id and sees the real error then.
            pass
        finally:
            served.subscriber_finished(disconnected=disconnected)

    def _write_event(self, version: int, body: bytes) -> None:
        """One SSE frame whose ``data:`` lines carry the result body."""
        lines = body.decode("utf-8").split("\n")
        frame = "".join(
            [f"id: {version}\n", "event: estimate\n"]
            + [f"data: {line}\n" for line in lines]
            + ["\n"]
        )
        self.wfile.write(frame.encode("utf-8"))
        self.wfile.flush()

    def _post_query(self, parts, query) -> None:
        served = self.server.registry.get(parts[1])
        self._validated_query(query, {"timeout_ms"})
        body = self._read_json_body()
        unknown = set(body) - {"sql", "spec", "closed_world"}
        if unknown:
            raise ValidationError(f"unknown query fields: {', '.join(sorted(unknown))}")
        closed_world = body.get("closed_world", False)
        if not isinstance(closed_world, bool):
            raise ValidationError("'closed_world' must be a JSON boolean")
        payload = served.query_payload(
            body.get("sql", ""),
            spec=body.get("spec"),
            closed_world=closed_world,
            timeout=self._timeout_seconds(query),
        )
        self._send_json(200, payload)

    def _get_snapshot(self, parts, query) -> None:
        served = self.server.registry.get(parts[1])
        self._send_json(200, served.snapshot_payload())

    def _post_restore(self, parts, query) -> None:
        # The receiving half of a replica push: the body is a
        # session-snapshot envelope, the response reports the
        # state_version this worker now holds (the fence).
        body = self._read_json_body()
        served = self.server.registry.restore_session(parts[1], body)
        self._send_json(200, served.info())

    def _get_store(self, parts, query) -> None:
        # The sending half of a migration: the body is the raw
        # store archive (header line + file contents), streamed with an
        # exact Content-Length so the receiver knows when it has it all.
        # The session's write lock is held for the whole send; the
        # migration protocol has quiesced the session already.
        served = self.server.registry.get(parts[1])
        with served.store_archive() as (header, files, version):
            self._send_head(
                200,
                [
                    ("Content-Type", "application/octet-stream"),
                    ("X-Repro-State-Version", str(version)),
                ],
                archive_length(header, files),
            )
            try:
                for chunk in iter_archive(header, files):
                    self.wfile.write(chunk)
            except BrokenPipeError:
                self.close_connection = True

    def _post_restore_store(self, parts, query) -> None:
        # The receiving half of a migration; same fence
        # contract as /restore, but the body is the raw store archive.
        body = self._archive_body()
        served = self.server.registry.restore_store(parts[1], body.read)
        self._send_json(200, served.info())


# ---------------------------------------------------------------------- #
# Server lifecycle
# ---------------------------------------------------------------------- #


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    registry: "SessionRegistry | None" = None,
    backend: "str | None" = None,
    workers: "int | None" = None,
    cache_entries: "int | None" = None,
    state_dir: "str | None" = None,
    wal_fsync: "str | None" = None,
    max_inflight: "int | None" = None,
    defer_restore: bool = False,
) -> ReproServer:
    """Build a bound (not yet serving) server; restores ``state_dir``.

    ``port=0`` binds an ephemeral port (tests and the benchmark use
    this); the bound address is ``server.server_address``.

    Without a ``registry`` the function builds one from the remaining
    options: ``state_dir`` makes it persistent (one disk store per
    session under ``<state_dir>/store/``, ``wal_fsync`` picks the
    durability policy of their segment logs) and restores it.  A caller-supplied registry is served as
    it was constructed, so it cannot be combined with ``state_dir``.

    ``max_inflight`` arms the admission gate; ``defer_restore=True``
    skips the restore (and marks the registry as recovering) so
    :func:`run_server` can accept liveness probes while attaching --
    callers using it must invoke ``registry.load_state()`` themselves.
    """
    if registry is not None and state_dir:
        raise ValidationError(
            "state_dir configures the registry make_server builds; pass "
            "SessionRegistry(state_dir=...) as the registry instead"
        )
    if registry is None:
        kwargs: dict[str, Any] = {"backend": backend, "workers": workers}
        if cache_entries is not None:
            kwargs["cache_entries"] = cache_entries
        if state_dir:
            kwargs["state_dir"] = state_dir
        if wal_fsync is not None:
            kwargs["wal_fsync"] = wal_fsync
        registry = SessionRegistry(**kwargs)
    gate = AdmissionGate(max_inflight) if max_inflight is not None else None
    server = ReproServer((host, port), registry, gate=gate)
    if state_dir:
        if defer_restore:
            registry._set_phase("recovering")
        else:
            restored = registry.load_state()
            if restored:
                print(f"restored {len(restored)} session(s): {', '.join(restored)}")
    return server


def run_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    backend: "str | None" = None,
    workers: "int | None" = None,
    cache_entries: "int | None" = None,
    state_dir: "str | None" = None,
    wal_fsync: "str | None" = None,
    max_inflight: "int | None" = None,
) -> int:
    """Serve until SIGINT/SIGTERM, then checkpoint sessions in the state dir.

    The serve loop runs on a daemon thread while the main thread waits on
    the shutdown latch -- signal handlers run on the main thread, and
    ``HTTPServer.shutdown`` must not be called from the thread running
    ``serve_forever``.

    Ordering after a restart: the socket starts accepting *first* (so
    ``/healthz`` answers and ``/readyz`` reports 503 "recovering"), then
    the state dir's stores are re-attached and checked, and
    only then is the ``READY http://host:port`` line printed -- wrappers
    (the CI smoke job, the benchmark) that wait for it never see a
    partially recovered registry.
    """
    server = make_server(
        host,
        port,
        backend=backend,
        workers=workers,
        cache_entries=cache_entries,
        state_dir=state_dir,
        wal_fsync=wal_fsync,
        max_inflight=max_inflight,
        defer_restore=True,
    )
    stop = threading.Event()
    previous_handlers = {}

    def request_shutdown(signum: int, frame: Any) -> None:
        stop.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        previous_handlers[signum] = signal.signal(signum, request_shutdown)
    serve_thread = threading.Thread(
        target=server.serve_forever, name="repro-serving", daemon=True
    )
    serve_thread.start()
    if state_dir:
        restored = server.registry.load_state()
        if restored:
            print(f"restored {len(restored)} session(s): {', '.join(restored)}")
    bound_host, bound_port = server.server_address[:2]
    print(f"READY http://{bound_host}:{bound_port}", flush=True)
    try:
        stop.wait()
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
        server.shutdown()
        serve_thread.join()
        server.server_close()
        if state_dir:
            target = server.registry.save_state()
            print(f"saved {len(server.registry)} session(s) to {target}", flush=True)
    return 0
