"""Live session migration: quiesce -> archive -> transfer -> fence -> resume.

Moving a session between workers is how the cluster rebalances when the
ring changes and how a worker is drained for a rolling restart.  Every
worker persists its sessions in disk stores, so a migration always
streams the store itself.  The protocol is deliberately tiny, because
every hard part is delegated to an invariant that already exists:

1. **Quiesce** (caller's job -- the router marks the session migrating
   *before* calling :func:`migrate_session`): no new request reaches
   either copy, and in-flight requests have drained.  Clients see HTTP
   503 + ``Retry-After`` for the migration window, never a hang and
   never a stale answer.
2. **Archive**: ``GET /sessions/<name>/store`` on the source seals the
   active segment and streams the store's files (manifest last) behind
   a one-line header, and reports the archived ``state_version`` in its
   ``X-Repro-State-Version`` response header.  Under quiesce that *is*
   the session's one true version.
3. **Transfer**: ``POST /sessions/<name>/restore-store`` on the
   destination, streamed without buffering.  Restore is
   replace-if-newer and version-reporting (see
   :meth:`~repro.serving.registry.SessionRegistry.restore_store`), so
   re-sending the same archive is a no-op that reports the same
   version -- the step is idempotent.
4. **Fence**: the destination's reported ``state_version`` must equal
   the archive's.  Equality proves the destination holds exactly the
   transferred state -- not an older stray copy, not a newer one from a
   racing writer (impossible under quiesce, but the fence turns
   "impossible" into "checked").  On mismatch the source keeps the
   session and the caller aborts: at most one copy is ever routable.
5. **Resume** (caller's job): only *after* the fence holds is the
   source copy deleted and the routing table flipped.  A crash anywhere
   earlier leaves the source authoritative; a crash between transfer
   and delete leaves two copies **at the same version**, which the
   router's startup reconciliation resolves by keeping the
   ring-placement copy -- either choice is byte-identical, which is the
   precise sense in which the transfer is exactly-once.

The two ``cluster.*`` fault points make the window SIGKILL-testable
exactly like the storage points: ``cluster.before_transfer`` crashes after
quiesce with zero copies moved, ``cluster.before_resume`` crashes with
two fenced copies and no delete.

:func:`fetch_snapshot` serves the other way a session moves: the
router's replica push (``POST /sessions/<name>/restore``).
"""

from __future__ import annotations

import json
from typing import Any

from repro.cluster.fleet import worker_request, worker_stream
from repro.resilience.faults import fault_point
from repro.utils.exceptions import ReproError

__all__ = ["MigrationError", "fetch_snapshot", "migrate_session"]


class MigrationError(ReproError):
    """A migration step failed; the source copy remains authoritative."""


def fetch_snapshot(base: str, name: str, *, timeout: float = 60.0) -> dict[str, Any]:
    """The session-snapshot envelope of ``name`` on the worker at ``base``."""
    status, payload, _ = worker_request(
        base, "GET", f"/sessions/{name}/snapshot", timeout=timeout
    )
    if status != 200:
        raise MigrationError(
            f"snapshot of {name!r} on {base} failed with HTTP {status}: "
            f"{payload[:200]!r}"
        )
    return json.loads(payload)


def _transfer_store(
    name: str, source_base: str, dest_base: str, *, timeout: float
) -> int:
    """The streamed store-archive transfer; returns the fenced version."""
    status, response, connection = worker_stream(
        source_base, "GET", f"/sessions/{name}/store", timeout=timeout
    )
    try:
        if status != 200:
            raise MigrationError(
                f"store archive of {name!r} on {source_base} failed with "
                f"HTTP {status}: {response.read()[:200]!r}"
            )
        length = int(response.headers.get("Content-Length") or 0)
        if length <= 0:
            raise MigrationError(
                f"store archive of {name!r} on {source_base} came without "
                "a Content-Length"
            )
        # The archive's version, which the destination must report back;
        # the archive itself streams through unread.
        reported = response.headers.get("X-Repro-State-Version")
        try:
            version = int(reported)
        except (TypeError, ValueError):
            raise MigrationError(
                f"store archive of {name!r} on {source_base} came with "
                f"X-Repro-State-Version {reported!r}, not an integer"
            ) from None
        fault_point("cluster.before_transfer")
        status, payload, _ = worker_request(
            dest_base,
            "POST",
            f"/sessions/{name}/restore-store",
            response,
            headers={
                "Content-Type": "application/octet-stream",
                "Content-Length": str(length),
            },
            timeout=timeout,
        )
    finally:
        connection.close()
    try:
        restored = json.loads(payload) if payload else {}
    except json.JSONDecodeError:
        restored = {}
    if status not in (200, 201):
        raise MigrationError(
            f"store restore of {name!r} on {dest_base} failed with HTTP "
            f"{status}: {restored or payload[:200]!r}"
        )
    _check_fence(name, dest_base, restored, version)
    return version


def _check_fence(
    name: str, dest_base: str, restored: "dict[str, Any]", version: int
) -> None:
    fenced = int(restored.get("state_version", -1))
    if fenced != version:
        raise MigrationError(
            f"migration fence failed for {name!r}: transferred "
            f"state_version {version} but {dest_base} reports {fenced}; "
            "the source copy remains authoritative"
        )


def migrate_session(
    name: str,
    source_base: str,
    dest_base: str,
    *,
    keep_source: bool = False,
    timeout: float = 60.0,
) -> dict[str, Any]:
    """Move ``name`` from the source worker to the destination worker.

    The caller must have quiesced the session first (no requests are
    reaching either worker for it).  ``keep_source=True`` skips the
    delete -- used when the source copy should live on as a read
    replica.  Returns a summary with the fenced ``state_version``.

    The session moves as a streamed store archive (sealed segment
    files + manifest -- no JSON re-encode of the sample), fenced on the
    exact transferred version.
    """
    version = _transfer_store(name, source_base, dest_base, timeout=timeout)
    fault_point("cluster.before_resume")
    if not keep_source:
        status, payload, _ = worker_request(
            source_base, "DELETE", f"/sessions/{name}", timeout=timeout
        )
        # 404 = already deleted by an earlier attempt of this same
        # migration; the retry protocol tolerates it.
        if status not in (200, 404):
            raise MigrationError(
                f"post-fence delete of {name!r} on {source_base} failed "
                f"with HTTP {status}: {payload[:200]!r}"
            )
    return {
        "session": name,
        "from": source_base,
        "to": dest_base,
        "state_version": version,
        "kept_source": keep_source,
    }
