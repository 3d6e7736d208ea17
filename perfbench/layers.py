"""Per-layer metrics from the tracer's span dumps and ``/stats`` deltas.

A layer's self time is its spans' duration minus the part covered by
their child spans (same process, same thread).  Every ``*_ms`` layer
metric is the layer's summed self time over the measured window divided
by the number of client operations in that window, so on a workload
whose requests each cross every layer once the layer times plus
``wire_ms`` add up to the client's latency.

Router->worker spans are not linked (the program carries no request id
across the hop), so worker-side time in ``cluster-push`` is attributed
per client op, not per request tree.
"""

from __future__ import annotations

import bisect
import collections

from stats import median, ratio

#: Per-layer time metric -> the span groups whose self time it sums.
SELF_TIME = {
    "http.self_ms": ("http.handler",),
    "serialize.ms": ("serialize",),
    "cache.get_ms": ("cache.get",),
    "batcher.wait_ms": ("batcher",),
    "lock.read_wait_ms": ("lock.read_wait",),
    "lock.write_wait_ms": ("lock.write_wait",),
    "registry.ingest_ms": ("registry.ingest",),
    "registry.read_ms": ("registry.read",),
    "session.ingest_ms": ("session.ingest",),
    "session.estimate_ms": ("session.estimate",),
    "session.query_ms": ("session.query",),
    "estimator.bucket_ms": ("estimator.bucket",),
    "estimator.frequency_ms": ("estimator.frequency",),
    "query.execute_ms": ("query.execute",),
    "wal.append_ms": ("wal.append", "wal.encode"),
    "storage.append_ms": ("storage.append",),
    "router.self_ms": ("router.handler",),
    "router.forward_ms": ("router.forward", "router.upstream@forward"),
    "router.replicate_ms": ("router.replicate", "router.upstream@replicate"),
}

ROOTS = ("http.handler", "router.handler")


def _group(span: list, by_id: dict) -> str:
    name = span[0]
    if name == "router.upstream":
        parent = by_id.get(span[4])
        under = "replicate" if parent is not None and parent[0] == "router.replicate" else "forward"
        return f"{name}@{under}"
    return name


def layer_metrics(dumps: list, window: tuple, front_ops: list, acks: int, front: str) -> dict:
    """Span-derived per-layer metrics of one traced window.

    ``front_ops`` are the client's ``(local_port, sent_ns, done_ns)``
    operations; ``front`` names the root span of the process they talked
    to (``http.handler`` direct, ``router.handler`` through the router).
    """
    start, end = window
    self_ns: dict = collections.Counter()
    calls: dict = collections.Counter()
    sizes: dict = collections.Counter()
    handler_ms: list = []
    roots_by_port: dict = collections.defaultdict(list)
    for dump in dumps:
        spans = dump["spans"]
        by_id = {span[3]: span for span in spans}
        covered: dict = collections.Counter()
        for span in spans:
            if span[4]:
                covered[span[4]] += span[2] - span[1]
        for span in spans:
            name, began, ended, span_id, _, note = span
            if not start <= began <= end:
                continue
            if name in ROOTS:
                if "/subscribe" in (note[2] or ""):
                    continue  # a stream lasting the whole window
                if name == "http.handler":
                    handler_ms.append((ended - began) / 1e6)
                if name == front:
                    roots_by_port[note[0]].append((began, ended))
            group = _group(span, by_id)
            self_ns[group] += ended - began - covered[span_id]
            calls[group] += 1
            if name in ("serialize", "wal.encode", "storage.append"):
                sizes[name] += note
            elif name == "router.upstream" and note[1].endswith("/restore"):
                sizes["replica"] += note[2]
    ops = len(front_ops)
    out = {
        metric: ratio(sum(self_ns[g] for g in groups) / 1e6, ops)
        for metric, groups in SELF_TIME.items()
    }
    wire = []
    for roots in roots_by_port.values():
        roots.sort()
    for port, sent, done in front_ops:
        roots = roots_by_port.get(port, [])
        index = bisect.bisect_left(roots, (sent, 0))
        # The handler may return just after the client has the reply, so
        # only its start is bounded by the client's send and receipt.
        if index < len(roots) and roots[index][0] <= done:
            began, ended = roots[index]
            wire.append(((done - sent) - (ended - began)) / 1e6)
    out["http.handler_ms"] = median(handler_ms) if handler_ms else 0.0
    out["wire_ms"] = median(wire) if wire else 0.0
    out["wire.matched_share"] = ratio(len(wire), ops)
    out["serialize.bytes"] = ratio(sizes["serialize"], calls["serialize"])
    out["serialize.calls_per_request"] = ratio(calls["serialize"], ops)
    out["wal.bytes_per_ack"] = ratio(sizes["wal.encode"], acks)
    out["storage.bytes_per_ack"] = ratio(sizes["storage.append"], acks)
    out["router.replica_bytes_per_ack"] = ratio(sizes["replica"], acks)
    out["spans.dropped"] = sum(dump.get("dropped", 0) for dump in dumps)
    return out


def stats_metrics(counts: dict) -> dict:
    """The counter-derived (untraced) per-layer metrics of one window."""
    acks = counts.get("ingests", 0)
    return {
        "cache.hit_ratio": ratio(counts["hits"], counts["hits"] + counts["misses"]),
        "batcher.coalesced_share": ratio(
            counts["coalesced"], counts["computed"] + counts["coalesced"]
        ),
        "router.replica_pushes_per_ack": ratio(counts["replica_pushes"], acks),
        "sse.events_per_ack": ratio(counts["pushed"], acks),
    }
