"""The three client-path workloads and the checks each run must pass.

Each workload boots real ``repro.cli`` server processes, drives them over
keep-alive connections from this one process (at most two connections
at a time), and records every reply.  After the measured window the
replies are checked byte for byte against :class:`data.Oracle`, and the
server is SIGKILLed and restarted to time recovery and check durability.

* ``warm-read``  -- direct ``serve`` (memory store, no state dir); two
  connections in a closed loop of 3 ``GET .../estimate`` : 1
  ``POST .../query`` at a fixed ``state_version``; one asks for gzip.
* ``ingest-fresh`` -- direct ``serve --state-dir`` (memory store, JSON
  WAL, ``--wal-fsync batch``); a writer loops ingest -> fresh
  ``GET .../estimate`` while a reader polls the estimate.
* ``cluster-push`` -- ``cluster --workers 2 --replicas 2 --store disk``;
  a writer loops 50-row ingest -> ``GET .../estimate?wait_version=``
  through the router while one SSE subscriber (``?mode=delta``) listens.
"""

from __future__ import annotations

import bisect
import collections
import http.client
import json
import shutil
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from client import Connection, Reply, Subscriber, request_json
from data import ATTRIBUTE, SQL, Chunks, Oracle, Population
from procs import Server

#: Setups per measured run; the median is reported as ``setup_s``.
SETUPS = 3

#: SIGKILL + restart cycles when ``recover_s`` is measured (the median).
RECOVERIES = 9


@dataclass
class Settings:
    root: Path
    seed: int
    seconds: float
    work: Path


class Tally:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._lock = threading.Lock()

    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, why: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(why)

    def check(self, condition: bool, why: str) -> bool:
        """One verification op: counts as attempted, and failed if false."""
        self.attempt()
        return self.expect(condition, why)

    def expect(self, condition: bool, why: str) -> bool:
        """A check on an op already counted: fails it if false."""
        if not condition:
            self.fail(why)
        return condition


@dataclass
class Measurement:
    """Everything one measured window produced."""

    workload: str
    record: dict
    setup_s: list = field(default_factory=list)
    answer_ms: list = field(default_factory=list)
    answers: int = 0
    post_ms: list = field(default_factory=list)
    acks: int = 0
    push_ms: list = field(default_factory=list)
    recover_s: list = field(default_factory=list)
    rss_mb: float = 0.0
    window: tuple = (0, 0)
    counts: dict = field(default_factory=dict)
    front_ops: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)

    @property
    def window_s(self) -> float:
        return (self.window[1] - self.window[0]) / 1e9


@dataclass
class Tenant:
    """One served session: its seeded data, seed ingests and oracle."""

    name: str
    population: Population
    seed_chunks: list
    oracle: "Oracle | None" = None
    acked: list = field(default_factory=list)  # (chunk, ack reply), commit order
    bodies: dict = field(default_factory=lambda: collections.defaultdict(list))
    final: dict = field(default_factory=dict)  # path -> the oracle's last bytes

    @property
    def path(self) -> str:
        return f"/sessions/{self.name}"


def stats_counts(base: str) -> dict:
    """Counters of ``/stats`` (a single server's or the cluster router's)."""
    stats = request_json(base, "GET", "/stats")
    servers = [w for w in stats.get("workers", {}).values() if "answer_cache" in w]
    if "answer_cache" in stats:
        servers.append(stats)
    counts = {"hits": 0, "misses": 0, "computed": 0, "coalesced": 0}
    for block in servers:
        for key in ("hits", "misses"):
            counts[key] += block["answer_cache"][key]
        for key in ("computed", "coalesced"):
            counts[key] += block["coalescer"][key]
    sessions = stats.get("sessions", [])
    counts["ingests"] = sum(s["ingest_requests"] for s in sessions)
    counts["pushed"] = sum(s["subscribers"]["pushed"] for s in sessions)
    counts["replica_pushes"] = stats.get("router", {}).get("replica_pushes", 0)
    return counts


def run_threads(target, count: int) -> None:
    """Run ``target(index)`` on ``count`` threads and wait for all of them."""
    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def collect_spans(server: Server, directory: Path, timeout: float = 20.0) -> list:
    """Make every server process dump its spans; returns the dumps."""
    for stale in directory.glob("spans-*.json"):
        stale.unlink()
    pids = server.signal_all(signal.SIGUSR1)
    deadline = time.monotonic() + timeout
    paths = [directory / f"spans-{pid}.json" for pid in pids]
    while not all(path.exists() for path in paths):
        if time.monotonic() > deadline:
            raise RuntimeError(f"span dumps missing from {directory}")
        time.sleep(0.05)
    return [json.loads(path.read_text()) for path in paths]


class Workload:
    """Boot, populate, drive, verify, recover: the shape of every run."""

    name = ""
    estimator = "bucket"
    sessions = 1
    n_entities, n_sources, per_source = 160, 12, 36
    seed_rows = 0  # 0 = the seed goes in one ingest
    #: Versions per session whose served bytes are checked against the
    #: oracle, besides the last (each check costs one oracle estimate).
    sampled_versions = 6

    def __init__(self, settings: Settings) -> None:
        self.settings = settings
        self.tenants = []
        for index in range(self.sessions):
            population = Population(
                settings.seed, f"s{index}", self.n_entities, self.n_sources
            )
            mentions = population.seed_mentions(self.per_source)
            rows = self.seed_rows or len(mentions)
            chunks = [mentions[i : i + rows] for i in range(0, len(mentions), rows)]
            self.tenants.append(Tenant(f"bench{index}", population, chunks))

    # -- per-workload hooks ---------------------------------------------

    def server_args(self, state: Path) -> list[str]:
        raise NotImplementedError

    def drive(self, server: Server, m: Measurement) -> None:
        raise NotImplementedError

    def record(self) -> dict:
        raise NotImplementedError

    def settle(self, server: Server) -> None:
        """Wait for background work a restart starts (none by default)."""

    # -- shared machinery -------------------------------------------------

    def boot(self, label: str, trace_dir: "Path | None") -> "tuple[Server, Path, float]":
        """Spawn -> READY -> sessions created -> seeds ingested."""
        state = self.settings.work / label
        shutil.rmtree(state, ignore_errors=True)
        state.mkdir(parents=True)
        started = time.monotonic()
        server = Server(self.settings.root, self.server_args(state), trace_dir=trace_dir)
        try:
            for tenant in self.tenants:
                request_json(
                    server.base,
                    "POST",
                    "/sessions",
                    {"name": tenant.name, "attribute": ATTRIBUTE, "estimator": self.estimator},
                )
                for chunk in tenant.seed_chunks:
                    request_json(
                        server.base, "POST", f"{tenant.path}/ingest", {"observations": chunk}
                    )
        except BaseException:
            server.kill()
            raise
        return server, state, time.monotonic() - started

    def measure(self, *, setups: int, recoveries: int, trace_dir: "Path | None") -> Measurement:
        m = Measurement(self.name, self.record())
        for tenant in self.tenants:
            tenant.oracle = Oracle(self.estimator)
            for chunk in tenant.seed_chunks:
                tenant.oracle.ingest(chunk)
            tenant.acked.clear()
            tenant.bodies.clear()
            tenant.final.clear()
        server = None
        try:
            for index in range(setups):
                server, state, seconds = self.boot(f"state-{index}", trace_dir)
                m.setup_s.append(seconds)
                if index < setups - 1:
                    server.kill()
                    server = None
            self.drive(server, m)
            after = stats_counts(server.base)
            m.counts = {key: after[key] - m.counts[key] for key in after}
            m.rss_mb = server.peak_rss_mb()
            if trace_dir is not None:
                m.spans = collect_spans(server, trace_dir)
            for tenant in self.tenants:
                self.check_replay(m, tenant)
            for attempt in range(recoveries):
                server.kill()
                server = Server(self.settings.root, self.server_args(state))
                m.recover_s.append(server.ready_s)
                if "--state-dir" in self.server_args(state):
                    self.settle(server)
                    self.check_durable(server, m, full=attempt == recoveries - 1)
        finally:
            if server is not None:
                server.kill()
        return m

    def window(self, server: Server, m: Measurement) -> "tuple[int, int]":
        """Open the measured window: ``/stats`` now, then ``(start, end)``."""
        m.counts = stats_counts(server.base)
        start = time.monotonic_ns()
        return start, start + int(self.settings.seconds * 1e9)

    def send(self, conn: Connection, m: Measurement, method: str, path: str, body=None):
        """One counted request; ``None`` (and a failure) unless it was 2xx."""
        m.tally.attempt()
        try:
            reply = conn.request(method, path, body)
        except (OSError, http.client.HTTPException) as exc:
            m.tally.fail(f"{method} {path}: {type(exc).__name__}: {exc}")
            return None
        if not 200 <= reply.status < 300:
            m.tally.fail(f"{method} {path} -> {reply.status}: {reply.body[:120]!r}")
            return None
        return reply

    def sampled(self, versions) -> set:
        """Up to ``sampled_versions`` evenly spread versions, plus the last."""
        ordered = sorted(set(versions))
        if not ordered:
            return set()
        count = self.sampled_versions
        step = max(1, len(ordered) // max(1, count))
        return set(ordered[step // 2 :: step][:count] + [ordered[-1]])

    def check_replay(self, m: Measurement, tenant: Tenant) -> None:
        """Replay the acked chunks; check every ack and the sampled bodies.

        ``tenant.bodies`` maps a ``state_version`` to the estimate bodies
        served at it; those at the sampled versions must equal the
        oracle's at that version.
        """
        if not tenant.acked:
            return
        oracle = tenant.oracle
        wanted = self.sampled(tenant.bodies)
        for index, (chunk, reply) in enumerate(tenant.acked, 1):
            expected = oracle.ingest(chunk)
            expected.update(session=tenant.name, ingested=len(chunk))
            m.tally.expect(
                reply.json() == expected,
                f"ingest ack {reply.body[:120]!r} != facade {expected}",
            )
            if oracle.version in wanted and index < len(tenant.acked):
                truth = oracle.estimate_bytes()
                for body in tenant.bodies[oracle.version]:
                    m.tally.expect(body == truth, f"estimate at v{oracle.version} != facade")
        # The last acked state: checked here, and again after each restart.
        tenant.final = {
            f"{tenant.path}/estimate": oracle.estimate_bytes(),
            f"{tenant.path}/snapshot": oracle.snapshot_bytes(),
        }
        for body in tenant.bodies[oracle.version]:
            m.tally.expect(
                body == tenant.final[f"{tenant.path}/estimate"],
                f"estimate at v{oracle.version} != facade",
            )

    def check_durable(self, server: Server, m: Measurement, *, full: bool) -> None:
        """The restarted server holds exactly the last acked state.

        Every restart must report the acked versions; ``full`` also
        compares the estimate and snapshot bytes with the facade's.
        """
        listed = request_json(server.base, "GET", "/sessions")["sessions"]
        conn = Connection(server.base)
        try:
            for tenant in self.tenants:
                versions = [s["state_version"] for s in listed if s["session"] == tenant.name]
                m.tally.check(
                    versions == [tenant.oracle.version],
                    f"recovered {tenant.name} at {versions}, acked {tenant.oracle.version}",
                )
                if not full:
                    continue
                for path, truth in tenant.final.items():
                    reply = self.send(conn, m, "GET", path)
                    if reply is not None:
                        m.tally.expect(reply.body == truth, f"recovered {path} != facade")
        finally:
            conn.close()


class WarmRead(Workload):
    name = "warm-read"

    def server_args(self, state):
        return ["serve", "--port", "0"]

    def record(self):
        return {"store": "memory", "state_dir": False, "wal_fsync": None, "rate_per_s": None}

    def drive(self, server, m):
        tenant = self.tenants[0]
        expected = {
            "GET": tenant.oracle.estimate_bytes(),
            "POST": tenant.oracle.query_bytes(),
        }
        plan = 3 * [("GET", f"{tenant.path}/estimate", None)] + [
            ("POST", f"{tenant.path}/query", {"sql": SQL})
        ]
        conns = [Connection(server.base, gzip=True), Connection(server.base)]
        for conn in conns:  # warm-up: fills the answer cache, not counted
            for method, path, body in plan * 2:
                conn.request(method, path, body)
        replies: list[list[tuple[str, Reply]]] = [[], []]
        start, end = self.window(server, m)

        def loop(index: int) -> None:
            while time.monotonic_ns() < end:
                for method, path, body in plan:
                    reply = self.send(conns[index], m, method, path, body)
                    if reply is not None:
                        replies[index].append((method, reply))

        run_threads(loop, 2)
        m.window = (start, time.monotonic_ns())
        for conn in conns:
            conn.close()
        for method, reply in replies[0] + replies[1]:
            m.tally.expect(reply.body == expected[method], f"warm {method} body != facade")
            m.answer_ms.append(reply.ms)
            if method == "POST":
                m.post_ms.append(reply.ms)
            m.front_ops.append((reply.port, reply.sent_ns, reply.done_ns))
        m.answers = len(m.answer_ms)


class IngestFresh(Workload):
    """Twenty-four sessions, written round-robin.

    The bucket estimator's cost depends strongly on the data, so one
    population per run would make the fresh-answer time swing with the
    seed; 24 independently seeded sessions average that out.
    """

    name = "ingest-fresh"
    sessions = 24
    sampled_versions = 0
    chunk_rows = 4

    def server_args(self, state):
        return ["serve", "--port", "0", "--state-dir", str(state)]

    def record(self):
        return {
            "store": "memory",
            "state_dir": True,
            "wal_fsync": "batch",
            "rate_per_s": None,
            "sessions": self.sessions,
        }

    def drive(self, server, m):
        streams = [
            Chunks(
                t.population,
                self.chunk_rows,
                pool=sorted({item["entity_id"] for item in t.seed_chunks[0]}),
            )
            for t in self.tenants
        ]
        writer, reader = Connection(server.base), Connection(server.base)
        last = [0]  # the tenant the writer wrote last
        seen = [len(t.seed_chunks) for t in self.tenants]

        def write(turn: int, timed: bool) -> None:
            index = turn % len(self.tenants)
            tenant, chunk = self.tenants[index], streams[index].next()
            ack = self.send(writer, m, "POST", f"{tenant.path}/ingest", {"observations": chunk})
            if ack is None:
                return
            tenant.acked.append((chunk, ack))
            last[0] = index
            fresh = self.send(writer, m, "GET", f"{tenant.path}/estimate")
            if fresh is None:
                return
            tenant.bodies[ack.json()["state_version"]].append(fresh.body)
            if timed:
                m.post_ms.append(ack.ms)
                m.answer_ms.append(fresh.ms)
                m.front_ops += [ack, fresh]

        def poll(timed: bool) -> None:
            index = last[0]
            tenant = self.tenants[index]
            path = f"{tenant.path}/estimate?wait_version={seen[index]}"
            reply = self.send(reader, m, "GET", path)
            if reply is None:
                return
            seen[index] = int(reply.headers["x-repro-state-version"])
            tenant.bodies[seen[index]].append(reply.body)
            if timed:
                m.front_ops.append(reply)

        for turn in range(2):  # warm-up, not counted
            write(turn, False)
            poll(False)
        start, end = self.window(server, m)

        def loop(index: int) -> None:
            turn = 2
            while time.monotonic_ns() < end:
                if index == 0:
                    write(turn, True)
                else:
                    poll(True)
                turn += 1

        run_threads(loop, 2)
        m.window = (start, time.monotonic_ns())
        writer.close()
        reader.close()
        m.acks = len(m.post_ms)
        m.answers = len(m.answer_ms)
        m.front_ops = [(r.port, r.sent_ns, r.done_ns) for r in m.front_ops]


class ClusterPush(Workload):
    """A writer that reads its writes back through the router, plus a push.

    The writer runs a closed loop: a 50-row ingest, then
    ``GET .../estimate?wait_version=<acked>`` on the same keep-alive
    connection (the fresh answer as a polling client gets it).  One SSE
    subscriber (``?mode=delta``) listens on the other connection; its
    push lag is timed from each ingest's send.  An open loop at a rate
    well under capacity gives acks of a few ms whose medians and tails
    move by 15-65% from run to run on a 2-CPU host (replica pushes and
    the delayed-ACK state of the connection decide them), which no bound
    can gate; the closed loop keeps every request on the path it tests.
    """

    name = "cluster-push"
    estimator = "frequency"
    n_entities, n_sources, per_source = 2_500, 100, 1_000
    seed_rows = 10_000
    chunk_rows = 50

    def server_args(self, state):
        return [
            "cluster", "--port", "0", "--workers", "2", "--replicas", "2",
            "--store", "disk", "--state-dir", str(state),
        ]

    def record(self):
        return {
            "store": "disk",
            "state_dir": True,
            "wal_fsync": "batch",
            "rate_per_s": None,
            "workers": 2,
            "replicas": 2,
        }

    def settle(self, server):
        """Wait for the replica push the router schedules at boot.

        Reads racing that push can hit a ``DiskStore`` attached lazily on
        another thread and fail with HTTP 500 (its name dictionaries are
        decoded without a lock), so the checks start once it is done.
        """
        deadline = time.monotonic() + 30
        while stats_counts(server.base)["replica_pushes"] < 1:
            if time.monotonic() > deadline:
                raise RuntimeError("the boot-time replica push never finished")
            time.sleep(0.05)

    def drive(self, server, m):
        tenant = self.tenants[0]
        chunks = Chunks(tenant.population, self.chunk_rows)
        subscriber = Subscriber(
            server.base, f"{tenant.path}/subscribe?mode=delta&heartbeat_ms=1000"
        )
        conn = Connection(server.base)
        sent: list = []  # (ingest sent_ns, acked state_version), timed cycles
        last_read = [None]

        def cycle(timed: bool) -> None:
            chunk = chunks.next()
            ack = self.send(conn, m, "POST", f"{tenant.path}/ingest", {"observations": chunk})
            if ack is None:
                return
            tenant.acked.append((chunk, ack))
            version = ack.json()["state_version"]
            fresh = self.send(conn, m, "GET", f"{tenant.path}/estimate?wait_version={version}")
            if fresh is None:
                return
            # One writer: the state the read waited for is the state it got.
            tenant.bodies[version].append(fresh.body)
            last_read[0] = fresh.body
            if timed:
                sent.append((ack.sent_ns, version))
                m.post_ms.append(ack.ms)
                m.answer_ms.append(fresh.ms)
                m.front_ops += [ack, fresh]

        final = len(tenant.seed_chunks)
        try:
            m.tally.check(subscriber.wait_for(final, 30), "no initial SSE event")
            for _ in range(3):  # warm-up, not counted
                cycle(False)
            start, end = self.window(server, m)
            while time.monotonic_ns() < end:
                cycle(True)
            m.window = (start, time.monotonic_ns())
            if tenant.acked:
                final = tenant.acked[-1][1].json()["state_version"]
            m.tally.check(subscriber.wait_for(final, 30), f"no SSE event for v{final}")
        finally:
            conn.close()
            subscriber.close()
        events = list(subscriber.events)
        ids = [event_id for _, event_id, _ in events]
        for began, version in sent:
            index = bisect.bisect_left(ids, version)
            if m.tally.expect(index < len(ids), f"no SSE event reached v{version}"):
                m.push_ms.append((events[index][0] - began) / 1e6)
        m.acks = len(m.post_ms)
        m.answers = len(m.answer_ms)
        m.front_ops = [(r.port, r.sent_ns, r.done_ns) for r in m.front_ops]
        for _, event_id, body in events:
            tenant.bodies[event_id].append(body)
        if events:
            # Push = poll: the last event's data lines are the GET bytes.
            m.tally.expect(
                ids[-1] == final and events[-1][2] == last_read[0],
                f"SSE event v{ids[-1]} != polled GET at v{final}",
            )


WORKLOADS = {w.name: w for w in (WarmRead, IngestFresh, ClusterPush)}
