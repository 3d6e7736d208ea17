"""Keep-alive HTTP clients: request/response timing and an SSE reader.

Every connection is one :class:`http.client.HTTPConnection` reused for
all of its requests, as a real client library would.  Times are
``time.monotonic_ns()`` values, the same clock the server-side tracer
uses, so client and server spans can be lined up.
"""

from __future__ import annotations

import gzip
import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass
from urllib.parse import urlsplit

#: Socket timeout of every client connection (a fresh bucket answer
#: takes well under a second; a stuck server fails the run instead).
TIMEOUT = 60.0


@dataclass
class Reply:
    status: int
    body: bytes
    headers: dict
    sent_ns: int
    done_ns: int
    port: int

    @property
    def ms(self) -> float:
        return (self.done_ns - self.sent_ns) / 1e6

    def json(self):
        return json.loads(self.body)


class Connection:
    """One keep-alive connection.

    ``gzip=True`` sends ``Accept-Encoding: gzip`` (as ``requests`` does)
    and inflates gzip replies; otherwise no ``Accept-Encoding`` header is
    sent at all (as urllib does not).
    """

    def __init__(self, base: str, *, gzip: bool = False):
        split = urlsplit(base)
        self._host, self._port = split.hostname, split.port
        self._gzip = gzip
        self._conn: "http.client.HTTPConnection | None" = None
        self.port = 0

    def _connect(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self._host, self._port, timeout=TIMEOUT)
            self._conn.connect()
            self.port = self._conn.sock.getsockname()[1]
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def request(self, method: str, path: str, body=None) -> Reply:
        """Send one request; a broken connection is closed and re-raised."""
        payload = None
        if body is not None:
            payload = body if isinstance(body, bytes) else json.dumps(body).encode()
        conn = self._connect()
        sent = time.monotonic_ns()
        try:
            conn.putrequest(method, path, skip_accept_encoding=True)
            if self._gzip:
                conn.putheader("Accept-Encoding", "gzip")
            if payload is not None:
                conn.putheader("Content-Type", "application/json")
                conn.putheader("Content-Length", str(len(payload)))
            conn.endheaders(payload)
            response = conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        done = time.monotonic_ns()
        headers = {key.lower(): value for key, value in response.getheaders()}
        if headers.get("content-encoding") == "gzip":
            data = gzip.decompress(data)
        if headers.get("connection", "").lower() == "close":
            self.close()
        return Reply(response.status, data, headers, sent, done, self.port)


def request_json(base: str, method: str, path: str, body=None):
    """A one-off request on a fresh connection; returns the decoded reply."""
    conn = Connection(base)
    try:
        reply = conn.request(method, path, body)
    finally:
        conn.close()
    if reply.status >= 300:
        raise RuntimeError(f"{method} {path} -> {reply.status}: {reply.body[:200]!r}")
    return reply.json() if reply.body else None


class Subscriber:
    """Reads one SSE stream on its own thread.

    ``events`` collects ``(arrival_ns, id, body)``; joining an event's
    ``data:`` lines with newlines rebuilds the bytes ``GET .../estimate``
    serves at that ``id``.
    """

    def __init__(self, base: str, path: str) -> None:
        split = urlsplit(base)
        self._conn = http.client.HTTPConnection(split.hostname, split.port, timeout=TIMEOUT)
        self._path = path
        self.events: list[tuple[int, int, bytes]] = []
        self.error: "BaseException | None" = None
        self._arrived = threading.Condition()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        try:
            self._conn.request("GET", self._path)
            response = self._conn.getresponse()
            if response.status != 200:
                raise RuntimeError(f"subscribe -> {response.status}")
            event_id, data = None, []
            while True:
                raw = response.readline()
                if not raw:
                    return
                line = raw.decode("utf-8").rstrip("\n")
                if line.startswith("id: "):
                    event_id = int(line[4:])
                elif line.startswith("data:"):
                    data.append(line[6:] if line.startswith("data: ") else line[5:])
                elif line == "" and event_id is not None:
                    body = "\n".join(data).encode("utf-8")
                    with self._arrived:
                        self.events.append((time.monotonic_ns(), event_id, body))
                        self._arrived.notify_all()
                    event_id, data = None, []
        except (OSError, http.client.HTTPException, RuntimeError) as exc:
            self.error = exc
        finally:
            with self._arrived:
                self._arrived.notify_all()

    def wait_for(self, version: int, timeout: float) -> bool:
        """Block until an event with ``id >= version`` arrived."""
        deadline = time.monotonic() + timeout
        with self._arrived:
            while not (self.events and self.events[-1][1] >= version):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self.error is not None or not self._thread.is_alive():
                    return False
                self._arrived.wait(remaining)
            return True

    def close(self) -> None:
        sock = self._conn.sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._conn.close()
        self._thread.join(timeout=10)
