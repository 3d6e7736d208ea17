"""``repro.cluster``: consistent-hash router + shared-nothing worker fleet.

The cluster layer scales :mod:`repro.serving` horizontally without
changing its API: a router process consistent-hashes session names onto
N serve workers (each a complete single-server stack with its own
state-dir shard of session stores and its own answer cache), proxies the single-server
HTTP/JSON API byte-for-byte, fans estimate reads out over version-fresh
replicas, and live-migrates sessions for rebalancing and rolling
restarts.  See DESIGN.md's "Cluster architecture" section for the
placement and fencing arguments.
"""

from repro.cluster.fleet import Fleet, Worker, WorkerUnavailableError
from repro.cluster.hashring import DEFAULT_VNODES, HashRing, hash_key
from repro.cluster.migration import MigrationError, fetch_snapshot, migrate_session
from repro.cluster.router import ClusterRouter, RouterServer, SessionMigratingError

__all__ = [
    "DEFAULT_VNODES",
    "ClusterRouter",
    "Fleet",
    "HashRing",
    "MigrationError",
    "RouterServer",
    "SessionMigratingError",
    "Worker",
    "WorkerUnavailableError",
    "fetch_snapshot",
    "hash_key",
    "migrate_session",
]
