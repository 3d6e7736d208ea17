"""Out-of-tree span tracer for the repro server processes.

Python's ``site`` module imports ``sitecustomize`` at interpreter start
when it is on ``sys.path``.  The benchmark puts this directory on
``PYTHONPATH`` of the server processes it spawns (``repro.cli serve`` /
``repro.cli cluster``; fleet workers inherit the environment) and names
an output directory in ``PERFBENCH_SPANS_DIR``.  Without that variable
this module does nothing.

When active it installs an import hook (a ``sys.meta_path`` finder) that
patches the public entry points of the serving, core, query, resilience,
storage and cluster modules right after each module executes.  No file
of the program changes.

Spans are kept in memory as ``[name, start_ns, end_ns, id, parent_id,
extra]`` lists.  The parent is the innermost open span of the same
thread (a per-thread stack), so a request's spans hang under the root
span opened by ``handle_one_request``.  The root starts when the request
line has arrived (``parse_request``), not while a keep-alive connection
idles.  Spans of one process are written to ``spans-<pid>.json`` at exit
(including the SIGTERM shutdown of fleet workers) and whenever the
process receives SIGUSR1.  Router->worker spans are not linked: that
needs a request id carried over the hop, which the program lacks.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import importlib.machinery
import itertools
import json
import os
import signal
import sys
import threading
import time

#: Spans beyond this many per process are counted but not kept.
SPAN_LIMIT = 400_000


class Tracer:
    """Span store of one process plus the wrappers that feed it."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: list = []
        self.dropped = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._dump_lock = threading.Lock()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _record(self, span: list) -> None:
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append(span)
        else:
            self.dropped += 1

    def wrap(self, fn, name: str, extra=None):
        """``fn`` timed as span ``name``; ``extra(args, result)`` annotates it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.monotonic_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic_ns()
                stack.pop()
                note = extra(args, result) if extra is not None else None
                self._record([name, start, end, span_id, parent, note])

        return traced

    def wrap_handler(self, cls, name: str) -> None:
        """Root span per request of a ``BaseHTTPRequestHandler`` subclass."""
        handle_one_request = cls.handle_one_request
        parse_request = cls.parse_request
        tracer = self

        def traced_handle(handler):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            stack.append(span_id)
            handler._perfbench_start = None
            try:
                handle_one_request(handler)
            finally:
                end = time.monotonic_ns()
                stack.pop()
                start = handler.__dict__.pop("_perfbench_start", None)
                if start is not None:
                    note = [
                        handler.client_address[1],
                        getattr(handler, "command", None),
                        getattr(handler, "path", None),
                    ]
                    tracer._record([name, start, end, span_id, 0, note])

        def traced_parse(handler):
            handler._perfbench_start = time.monotonic_ns()
            return parse_request(handler)

        cls.handle_one_request = traced_handle
        cls.parse_request = traced_parse

    def dump(self) -> None:
        """Write every span kept so far (atomically replacing older dumps)."""
        with self._dump_lock:
            path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
            payload = {
                "pid": os.getpid(),
                "argv": sys.argv,
                "dropped": self.dropped,
                "spans": list(self.spans),
            }
            scratch = path + ".tmp"
            with open(scratch, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(scratch, path)


def _size(_args, result):
    return len(result) if result is not None else 0


def _frame_size(args, _result):
    return len(args[1])


def _upstream(args, _result):
    method, path = args[1], args[2]
    body = args[3] if len(args) > 3 else None
    return [method, path, len(body) if isinstance(body, (bytes, bytearray)) else 0]


def _patches(tracer: Tracer) -> dict:
    """Module name -> function patching that module after it executed."""
    wrap = tracer.wrap

    def methods(cls, name, *attrs):
        for attr in attrs:
            setattr(cls, attr, wrap(getattr(cls, attr), name))

    def http(module):
        tracer.wrap_handler(module._Handler, "http.handler")
        module.dumps_result = wrap(module.dumps_result, "serialize", _size)

    def cache(module):
        methods(module.EstimateCache, "cache.get", "get")

    def batcher(module):
        methods(module.CoalescingBatcher, "batcher", "execute_many")

    def locks(module):
        methods(module.RWLock, "lock.read_wait", "acquire_read")
        methods(module.RWLock, "lock.write_wait", "acquire_write")

    def registry(module):
        methods(module.ServedSession, "registry.ingest", "ingest")
        methods(module.ServedSession, "registry.read", "estimate_payloads", "query_payload")

    def session(module):
        methods(module.OpenWorldSession, "session.ingest", "ingest")
        methods(module.OpenWorldSession, "session.estimate", "estimate")
        methods(module.OpenWorldSession, "session.query", "query")

    def bucket(module):
        methods(module.BucketEstimator, "estimator.bucket", "estimate", "begin", "update")

    def frequency(module):
        methods(module.FrequencyEstimator, "estimator.frequency", "estimate", "begin", "update")

    def executor(module):
        methods(module.OpenWorldExecutor, "query.execute", "execute")

    def wal(module):
        methods(module.WriteAheadLog, "wal.append", "append")
        module._encode = wrap(module._encode, "wal.encode", _size)

    def segments(module):
        module.SegmentLog.append = wrap(
            module.SegmentLog.append, "storage.append", _frame_size
        )

    def fleet(module):
        module.worker_request = wrap(module.worker_request, "router.upstream", _upstream)

    def router(module):
        tracer.wrap_handler(module._RouterHandler, "router.handler")
        methods(module.ClusterRouter, "router.forward", "forward")
        methods(module.ClusterRouter, "router.replicate", "replicate_now")

    return {
        "repro.serving.http": http,
        "repro.serving.cache": cache,
        "repro.serving.batcher": batcher,
        "repro.serving.locks": locks,
        "repro.serving.registry": registry,
        "repro.api.session": session,
        "repro.core.bucket": bucket,
        "repro.core.frequency": frequency,
        "repro.query.executor": executor,
        "repro.resilience.wal": wal,
        "repro.storage.segments": segments,
        "repro.cluster.fleet": fleet,
        "repro.cluster.router": router,
    }


class _PatchingFinder(importlib.abc.MetaPathFinder):
    """Finds the patched modules normally, then patches them after exec."""

    def __init__(self, patches: dict) -> None:
        self._patches = patches

    def find_spec(self, fullname, path, target=None):
        patch = self._patches.get(fullname)
        if patch is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def _install(out_dir: str) -> Tracer:
    tracer = Tracer(out_dir)
    sys.meta_path.insert(0, _PatchingFinder(_patches(tracer)))
    atexit.register(tracer.dump)
    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.dump())
    return tracer


if os.environ.get("PERFBENCH_SPANS_DIR"):
    TRACER = _install(os.environ["PERFBENCH_SPANS_DIR"])
