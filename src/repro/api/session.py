"""The stateful open-world session: incremental ingestion, estimation, queries.

:class:`OpenWorldSession` is the one entry point that ties the library
together for streaming use.  Instead of rebuilding the
:class:`~repro.data.sample.ObservedSample` from the full observation stream
every time an estimate is needed (O(n) per prefix, O(n²) over a replay),
the session *maintains* the integrated state under appends:

* per-entity observation counts and first-seen fused values,
* per-source contribution sizes,
* the frequency histogram ``{j: f_j}`` backing
  :class:`~repro.core.fstatistics.FrequencyStatistics`,

so :meth:`ingest` costs O(chunk) and :meth:`estimate` / :meth:`query` reuse
cached snapshots.  Ingesting a stream in chunks is **bit-identical** to
integrating it in one shot (same entity order, same counts, same source
sizes) -- the invariant the progressive replay harness and the parity tests
rely on.

:meth:`snapshot` / :meth:`restore` serialize the session state through the
shared result-schema envelope, enabling replay, migration between workers,
and crash recovery.

Concurrency contract (relied on by :mod:`repro.serving`):

* every ingest that commits observations bumps the monotonic
  :attr:`state_version` **atomically** with the invalidation of the sample
  and database caches and the advance of the delta state, once a delta
  read opened it (one internal lock covers all three), so a reader that
  observes version ``v`` and then reads a cache never sees state from a
  later version filed under ``v``;
* concurrent *readers* (``estimate``/``query``/``sample``/``snapshot``) are
  safe against each other -- cache rebuilds are idempotent and
  last-writer-wins;
* a reader concurrent with an *ingest* is not defined here: writers need
  exclusion against readers, which :class:`repro.serving.registry.
  ServedSession` provides with a reader/writer lock around this class.
"""

from __future__ import annotations

import threading
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.api.specs import EstimatorSpec, incremental_estimators
from repro.core.estimator import Estimate, SumEstimator
from repro.core.fstatistics import FrequencyStatistics
from repro.core.incremental import IncrementalSampleState
from repro.data.progressive import IntegrationState
from repro.data.records import Observation
from repro.data.sample import ObservedSample
from repro.query.database import Database
from repro.query.executor import ClosedWorldExecutor, OpenWorldExecutor, QueryResult
from repro.storage.store import MemoryStore
from repro.utils.exceptions import InsufficientDataError, ValidationError
from repro.utils.lru import LRUCache
from repro.utils.serialization import envelope, unwrap

__all__ = ["OpenWorldSession", "SessionSnapshot", "DEFAULT_ESTIMATOR_CACHE_SIZE"]

#: Bound of the per-session built-estimator cache.  Specs are user input
#: (CLI flags, HTTP query parameters), so the cache must not grow with the
#: number of distinct specs a long-lived server has ever seen.
DEFAULT_ESTIMATOR_CACHE_SIZE = 32

#: Estimate modes accepted by :meth:`OpenWorldSession.estimate`.
ESTIMATE_MODES = ("batch", "delta", "auto")


def check_estimate_mode(mode: "str | None") -> None:
    """Raise :class:`ValidationError` unless ``mode`` is ``None`` or a known mode."""
    if mode is not None and mode not in ESTIMATE_MODES:
        raise ValidationError(
            f"unknown estimate mode {mode!r}; expected one of "
            f"{', '.join(ESTIMATE_MODES)}"
        )


def _parallel_overrides(
    backend: str | None, workers: int | None
) -> dict[str, Any]:
    """Spec parameter overrides implied by estimate()'s backend/workers."""
    overrides: dict[str, Any] = {}
    if backend is not None:
        overrides["backend"] = backend
    if workers is not None:
        overrides["workers"] = workers
    return overrides


@dataclass(frozen=True)
class SessionSnapshot:
    """Serializable state of an :class:`OpenWorldSession` at one instant.

    Attributes
    ----------
    attribute:
        The session's aggregated attribute.
    table_name:
        Name under which :meth:`OpenWorldSession.query` exposes the sample.
    estimator:
        Canonical default estimator spec string.
    count_method:
        COUNT-query correction method ("chao92" or "monte-carlo").
    counts:
        Per-entity observation counts, in first-seen order.
    values:
        Per-entity fused attribute values, same order as ``counts``.
    seed_source_sizes:
        Contribution sizes adopted wholesale (e.g. via
        :meth:`OpenWorldSession.from_sample`) whose source ids are unknown.
    source_sizes:
        Contribution sizes of the sources seen by :meth:`ingest`, keyed by
        source id so a restored session can continue their streams.
    n_ingested:
        Number of observations ingested so far.
    state_version:
        The session's :attr:`OpenWorldSession.state_version` at snapshot
        time.  Restoring preserves it, so a server restarted from snapshots
        resumes with the version numbers its clients (and any
        version-keyed caches) already hold.
    """

    attribute: str
    table_name: str
    estimator: str
    count_method: str
    counts: dict[str, int]
    values: dict[str, dict[str, float]]
    seed_source_sizes: tuple[int, ...]
    source_sizes: dict[str, int]
    n_ingested: int
    state_version: int

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON representation under the shared result envelope."""
        return envelope(
            "session-snapshot",
            {
                "attribute": self.attribute,
                "table_name": self.table_name,
                "estimator": self.estimator,
                "count_method": self.count_method,
                "counts": self.counts,
                "values": self.values,
                "seed_source_sizes": list(self.seed_source_sizes),
                "source_sizes": self.source_sizes,
                "n_ingested": self.n_ingested,
                "state_version": self.state_version,
            },
        )

    @classmethod
    def from_dict(cls, payload: "dict[str, Any]") -> "SessionSnapshot":
        """Rebuild a snapshot serialized with :meth:`to_dict`.

        Raises :class:`ValidationError` for any body :meth:`to_dict`
        cannot write: another field set, a field of the wrong type, a
        count below 1, ``values`` not keyed by exactly the counted
        entities (in their order) or without a float for the session
        attribute, or source sizes that are negative or do not sum to
        the counts.
        """
        body = unwrap(payload, "session-snapshot")
        expected = set(cls.__dataclass_fields__)
        if set(body) != expected:
            raise ValidationError(
                "a session snapshot carries exactly the fields "
                f"{', '.join(sorted(expected))}; got {', '.join(sorted(body))}"
            )
        for name in ("attribute", "table_name", "estimator", "count_method"):
            if not isinstance(body[name], str):
                raise ValidationError(f"snapshot field {name!r} must be a string")
        counts = _checked_mapping(body, "counts", minimum=1)
        sizes = _checked_mapping(body, "source_sizes", minimum=0)
        seed_sizes = body["seed_source_sizes"]
        if not isinstance(seed_sizes, list) or not all(
            type(size) is int and size >= 0 for size in seed_sizes
        ):
            raise ValidationError(
                "snapshot field 'seed_source_sizes' must be a list of "
                "non-negative integers"
            )
        if sum(seed_sizes) + sum(sizes.values()) != sum(counts.values()):
            raise ValidationError(
                "snapshot source sizes must sum to the sum of counts "
                f"({sum(seed_sizes) + sum(sizes.values())} != "
                f"{sum(counts.values())})"
            )
        for name in ("n_ingested", "state_version"):
            if type(body[name]) is not int or body[name] < 0:
                raise ValidationError(
                    f"snapshot field {name!r} must be a non-negative integer"
                )
        attribute = body["attribute"]
        values = body["values"]
        if not isinstance(values, dict) or list(values) != list(counts):
            raise ValidationError(
                "snapshot values must be keyed by exactly the counted "
                "entities, in their order"
            )
        for entity, entry in values.items():
            if (
                not isinstance(entry, dict)
                or attribute not in entry
                or not all(isinstance(value, float) for value in entry.values())
            ):
                raise ValidationError(
                    f"snapshot values of entity {entity!r} must map attribute "
                    f"names to floats, {attribute!r} included"
                )
        return cls(
            attribute=attribute,
            table_name=body["table_name"],
            estimator=body["estimator"],
            count_method=body["count_method"],
            counts=counts,
            values=values,
            seed_source_sizes=tuple(seed_sizes),
            source_sizes=sizes,
            n_ingested=body["n_ingested"],
            state_version=body["state_version"],
        )


def _checked_mapping(body: "dict[str, Any]", name: str, *, minimum: int) -> "dict[str, int]":
    """``body[name]`` as a mapping of names to integers of at least ``minimum``."""
    mapping = body[name]
    if not isinstance(mapping, dict) or not all(
        type(value) is int and value >= minimum for value in mapping.values()
    ):
        raise ValidationError(
            f"snapshot field {name!r} must map names to integers of at "
            f"least {minimum}"
        )
    return mapping


class OpenWorldSession:
    """Stateful facade over integration, estimation and open-world querying.

    Parameters
    ----------
    attribute:
        The numeric attribute the session aggregates (fused on first sight
        during ingestion, exactly like the batch integration of simulated
        streams).
    table_name:
        Table name used by :meth:`query` (default ``"data"``).
    estimator:
        Default estimator spec (string or :class:`EstimatorSpec`) or an
        already-built :class:`SumEstimator`; individual calls can override
        it via their ``spec`` argument.
    count_method:
        Correction method for COUNT queries ("chao92" or "monte-carlo").
    store:
        Session state store.  Defaults to an in-memory
        :class:`~repro.storage.store.MemoryStore`; pass a
        :class:`~repro.storage.store.DiskStore` to persist every ingest
        chunk in the append-only segment log, whose seals write the
        aggregate state as a checkpoint, so a restart re-attaches in
        O(1) instead of replaying or parsing the whole sample.  Every
        read surface is byte-identical across stores.

    Example
    -------
    >>> session = OpenWorldSession("employees")
    >>> session.ingest(observations)          # incremental, O(chunk)
    >>> session.estimate().corrected          # SUM(employees), corrected
    >>> session.query("SELECT AVG(employees) FROM data WHERE employees > 10")
    """

    def __init__(
        self,
        attribute: str,
        *,
        table_name: str = "data",
        estimator: "str | EstimatorSpec | SumEstimator" = "bucket",
        count_method: str = "chao92",
        store: "Any | None" = None,
    ) -> None:
        if not attribute or not isinstance(attribute, str):
            raise ValidationError("attribute must be a non-empty string")
        self._attribute = attribute
        self._table_name = table_name
        self._count_method = count_method
        if isinstance(estimator, SumEstimator):
            self._default_spec: EstimatorSpec | None = None
            self._default_estimator: SumEstimator | None = estimator
        else:
            self._default_spec = EstimatorSpec.of(estimator)
            self._default_estimator = None
        # The store maintains the integration state (shared implementation
        # with the progressive replay; see repro.data.progressive and
        # repro.storage.store).
        self._store = store if store is not None else MemoryStore()
        self._store.bind_config(
            {
                "attribute": self._attribute,
                "table_name": self._table_name,
                "estimator": (
                    self._default_spec.to_string()
                    if self._default_spec is not None
                    else estimator
                ),
                "count_method": self._count_method,
            }
        )
        self._seed_source_sizes: tuple[int, ...] = ()
        self._n_ingested = 0
        # Caches, invalidated on ingest.  The mutation lock makes the
        # invalidation atomic with the state_version bump (see the module
        # docstring's concurrency contract).
        self._sample_cache: ObservedSample | None = None
        self._database_cache: Database | None = None
        self._estimator_cache = LRUCache(DEFAULT_ESTIMATOR_CACHE_SIZE)
        self._state_version = 0
        self._mutation_lock = threading.Lock()
        # The one incremental state every delta read shares: opened by the
        # first delta read, then advanced by every ingest atomically with
        # the version bump.
        self._delta_state: IncrementalSampleState | None = None
        # Raw spec string -> canonical spec string.  Push-driven estimates
        # resolve the same spec once per state_version bump, so the parse
        # must not ride on the per-answer cost of the delta path.
        self._spec_string_cache = LRUCache(DEFAULT_ESTIMATOR_CACHE_SIZE)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_sample(
        cls, sample: ObservedSample, attribute: str | None = None, **kwargs: Any
    ) -> "OpenWorldSession":
        """Adopt an already-integrated :class:`ObservedSample` as session state.

        This is how batch pipelines (CSV integration with value fusion, the
        dataset generators) hand off to a session; further :meth:`ingest`
        calls keep appending incrementally on top.
        """
        if attribute is None:
            attrs = sample.attributes
            if len(attrs) != 1:
                raise ValidationError(
                    "attribute is required when the sample carries "
                    f"{len(attrs)} attributes"
                )
            attribute = attrs[0]
        session = cls(attribute, **kwargs)
        seed_sizes = tuple(sample.source_sizes)
        session._store.load_state(
            counts=sample.counts,
            values=sample.values_by_entity(),
            per_source={},
            frequencies=sample.frequency_counts(),
            n=sample.n,
            seed_source_sizes=seed_sizes,
            n_ingested=0,
            state_version=0,
        )
        session._seed_source_sizes = seed_sizes
        return session

    @classmethod
    def attach(cls, store: Any) -> "OpenWorldSession":
        """Re-open the session persisted in ``store`` without replaying it.

        The store carries the full config (attribute, table name,
        estimator spec, count method) and the recovered counters, so
        attach is O(1): the expensive dict materialization is deferred
        until the first read or ingest.  This is what makes restarting a
        disk-backed server milliseconds instead of seconds.
        """
        config = store.attached_config()
        if config is None:
            raise ValidationError(
                "the store holds no session state to attach; create the "
                "session with OpenWorldSession(..., store=store) instead"
            )
        session = cls(
            config["attribute"],
            table_name=config["table_name"],
            estimator=config["estimator"],
            count_method=config["count_method"],
            store=store,
        )
        counters = store.recovered_counters()
        session._n_ingested = int(counters["n_ingested"])
        session._state_version = int(counters["state_version"])
        session._seed_source_sizes = tuple(store.seed_source_sizes)
        return session

    # ------------------------------------------------------------------ #
    # State inspection
    # ------------------------------------------------------------------ #

    @property
    def _state(self) -> IntegrationState:
        # Kept as a property so the disk store can defer its O(c) dict
        # materialization until the first code path that actually needs
        # the dicts touches it.
        return self._store.state

    @property
    def store(self) -> Any:
        """The session's state store (memory by default)."""
        return self._store

    @property
    def attribute(self) -> str:
        """The session's aggregated attribute."""
        return self._attribute

    @property
    def table_name(self) -> str:
        """Name of the table :meth:`query` exposes."""
        return self._table_name

    @property
    def default_spec(self) -> EstimatorSpec | None:
        """The default estimator spec (``None`` if an instance was given)."""
        return self._default_spec

    @property
    def n(self) -> int:
        """Total number of observations (with duplicates) integrated."""
        return self._store.n

    @property
    def c(self) -> int:
        """Number of unique entities observed."""
        return self._store.c

    @property
    def n_ingested(self) -> int:
        """Observations consumed by :meth:`ingest` (excludes seeded state)."""
        return self._n_ingested

    @property
    def count_method(self) -> str:
        """COUNT-query correction method ("chao92" or "monte-carlo")."""
        return self._count_method

    @property
    def state_version(self) -> int:
        """Monotonic counter bumped by every ingest that commits observations.

        Two reads of the session surface (``sample``/``estimate``/``query``
        results, snapshots) taken at the same version are guaranteed to
        describe identical state -- the invariant the serving layer's
        version-keyed :class:`~repro.serving.cache.EstimateCache` builds on.
        """
        return self._state_version

    def estimator_cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters of the bounded built-estimator cache."""
        return self._estimator_cache.stats()

    @property
    def source_sizes(self) -> tuple[int, ...]:
        """Per-source contribution sizes (seeded sizes first)."""
        return self._seed_source_sizes + tuple(self._state.per_source.values())

    @property
    def n_sources(self) -> int:
        """``len(source_sizes)`` without forcing a disk store to materialize."""
        return len(self._seed_source_sizes) + self._store.n_sources

    def __len__(self) -> int:
        return self._store.c

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def ingest(self, observations: "Iterable[Observation] | Observation") -> int:
        """Integrate a chunk of observations incrementally; returns the count.

        Maintains counts, first-seen fused values, per-source sizes and the
        frequency histogram in O(chunk).  Chunked ingestion is bit-identical
        to one-shot integration of the concatenated stream.

        The chunk is ingested atomically: it is validated in full before any
        session state changes, so a bad observation raises
        :class:`~repro.utils.exceptions.ValidationError` and leaves the
        session exactly as it was.
        """
        if isinstance(observations, Observation):
            chunk: Sequence[Observation] = (observations,)
        elif isinstance(observations, (list, tuple)):
            chunk = observations
        else:
            chunk = list(observations)
        # Validation pass, which also digests the chunk for the delta
        # state *before* the store mutates the membership dict: the digest
        # mirrors the integration rule exactly (first occurrence appends
        # with the fused value, every repeat re-observes).  Only
        # first-seen observations carry the fused value, so those are the
        # ones whose attribute must be readable.
        attribute = self._attribute
        state_values = self._state.values
        appended: list[tuple[str, float]] = []
        reobserved: list[str] = []
        chunk_first: set[str] = set()
        for obs in chunk:
            if not isinstance(obs, Observation):
                raise ValidationError(
                    f"ingest expects Observation objects, got {type(obs).__name__}"
                )
            entity = obs.entity_id
            if entity not in state_values and entity not in chunk_first:
                chunk_first.add(entity)
                try:
                    value = float(obs.value(attribute))
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValidationError(
                        f"observation of entity {entity!r} does not carry a "
                        f"numeric attribute {attribute!r}"
                    ) from exc
                appended.append((entity, value))
            else:
                reobserved.append(entity)
        if chunk:
            # Commit pass: cannot fail on session state.  A disk store
            # makes the chunk durable (names + segment frame) before
            # integrating it -- its internal ordering, see
            # repro.storage.store.
            self._store.apply_chunk(
                chunk,
                attribute,
                self._state_version + 1,
                self._n_ingested + len(chunk),
            )
            # Atomic with respect to readers: nobody can observe the new
            # state_version while a stale sample/database cache is still
            # installed (or vice versa), and an open delta state never
            # lags the version it describes.
            with self._mutation_lock:
                self._n_ingested += len(chunk)
                self._sample_cache = None
                self._database_cache = None
                self._state_version += 1
                if self._delta_state is not None:
                    self._delta_state.apply(appended, reobserved)
        return len(chunk)

    # ------------------------------------------------------------------ #
    # Snapshots of the integrated state
    # ------------------------------------------------------------------ #

    def sample(self) -> ObservedSample:
        """The integrated :class:`ObservedSample` of everything seen so far.

        Cached between ingests; ``ObservedSample`` copies its inputs, so the
        returned snapshot is immune to further session activity.
        """
        if not self._state.counts:
            raise InsufficientDataError("the session has not ingested any observations")
        if self._sample_cache is None:
            self._sample_cache = ObservedSample(
                self._state.counts, self._state.values, source_sizes=self.source_sizes
            )
        return self._sample_cache

    def statistics(self) -> FrequencyStatistics:
        """Frequency statistics from the incrementally maintained histogram.

        O(distinct frequencies), without re-scanning the per-entity counts.
        """
        if not self._state.frequencies:
            raise InsufficientDataError("the session has not ingested any observations")
        return FrequencyStatistics(self._state.frequencies)

    # ------------------------------------------------------------------ #
    # Estimation and querying
    # ------------------------------------------------------------------ #

    def estimate(
        self,
        attribute: str | None = None,
        spec: "str | EstimatorSpec | SumEstimator | None" = None,
        *,
        backend: str | None = None,
        workers: int | None = None,
        mode: str | None = None,
    ) -> Estimate:
        """Estimate the unknown-unknowns impact on ``SUM(attribute)``.

        ``attribute`` defaults to the session attribute; ``spec`` defaults
        to the session's default estimator.  ``backend``/``workers`` are
        passed through to the estimator spec (overriding its ``backend`` /
        ``workers`` parameters) so callers can shard e.g. the Monte-Carlo
        grid search without rebuilding the spec string; estimators whose
        spec declares no such parameters ignore them.

        ``mode`` selects the estimation path:

        * ``None`` / ``"batch"`` -- recompute over the full sample (the
          parity oracle; always available).
        * ``"delta"`` -- require the incremental path: the estimator reads
          the session's one :class:`~repro.core.incremental.
          IncrementalSampleState`, which the first delta read opens from
          the current sample and every later ingest advances in
          O(|chunk|).  Raises :class:`ValidationError` (listing the
          update-capable estimators) when the estimator does not support
          updates or ``attribute`` is not the maintained session
          attribute -- there is no silent fallback.
        * ``"auto"`` -- the incremental path when available, batch
          otherwise.

        Both paths return byte-identical results; delta mode is purely a
        cost optimization.
        """
        check_estimate_mode(mode)
        estimator = self._resolve_estimator(
            spec, overrides=_parallel_overrides(backend, workers)
        )
        target = attribute or self._attribute
        if mode == "delta":
            self._require_delta_capable(estimator, target)
        if (
            mode in ("delta", "auto")
            and target == self._attribute
            and estimator.supports_updates
        ):
            return estimator.update(self._open_delta_state(estimator))
        return estimator.estimate(self.sample(), target)

    def validate_delta(
        self,
        spec: "str | EstimatorSpec | SumEstimator | None" = None,
        attribute: str | None = None,
    ) -> None:
        """Raise :class:`ValidationError` unless ``mode="delta"`` would work.

        The serving layer calls this *before* consulting its payload cache,
        so a warm cache can never mask a capability error.
        """
        estimator = self._resolve_estimator(spec)
        self._require_delta_capable(estimator, attribute or self._attribute)

    def _require_delta_capable(self, estimator: SumEstimator, target: str) -> None:
        if not estimator.supports_updates:
            raise ValidationError(
                f"estimator {estimator.name!r} does not support delta "
                "(incremental) estimation; update-capable estimators: "
                f"{', '.join(incremental_estimators())}"
            )
        if target != self._attribute:
            raise ValidationError(
                "delta estimation is maintained for the session attribute "
                f"{self._attribute!r} only; use batch mode for attribute "
                f"{target!r}"
            )

    def _canonical_spec_string(self, spec: str) -> str:
        return self._spec_string_cache.get_or_create(
            spec, lambda: EstimatorSpec.of(spec).to_string()
        )

    def _open_delta_state(self, estimator: SumEstimator) -> IncrementalSampleState:
        """The session's delta state, opened from the current sample once.

        No ingest runs concurrently (see the concurrency contract), so
        the state adopts exactly the current version; from then on
        :meth:`ingest` advances it.
        """
        state = self._delta_state
        if state is None:
            with self._mutation_lock:
                state = self._delta_state
                if state is None:
                    state = estimator.begin(self.sample(), self._attribute)
                    self._delta_state = state
        return state

    def query(
        self,
        sql: str,
        *,
        spec: "str | EstimatorSpec | SumEstimator | None" = None,
        closed_world: bool = False,
    ) -> QueryResult:
        """Run an aggregate query over the integrated state.

        Open-world (estimator-corrected) by default; ``closed_world=True``
        returns the classical answer instead.
        """
        database = self._database()
        if closed_world:
            return ClosedWorldExecutor(database).execute(sql)
        executor = OpenWorldExecutor(
            database,
            sum_estimator=self._resolve_estimator(spec),
            count_method=self._count_method,
        )
        return executor.execute(sql)

    def _database(self) -> Database:
        if self._database_cache is None:
            database = Database()
            database.add_sample(self._table_name, self.sample())
            self._database_cache = database
        return self._database_cache

    def _resolve_estimator(
        self,
        spec: "str | EstimatorSpec | SumEstimator | None",
        overrides: "dict[str, Any] | None" = None,
    ) -> SumEstimator:
        if spec is None:
            if self._default_estimator is not None:
                if overrides:
                    raise ValidationError(
                        "backend/workers overrides require a spec-configured "
                        "estimator; this session was constructed with an "
                        "already-built estimator instance"
                    )
                return self._default_estimator
            spec = self._default_spec
        if isinstance(spec, SumEstimator):
            if overrides:
                raise ValidationError(
                    "backend/workers overrides cannot be applied to an "
                    "already-built estimator instance; pass a spec instead"
                )
            return spec
        if isinstance(spec, str) and not overrides:
            # Hot path: estimators resolved by spec string (the HTTP and
            # subscription surfaces) skip the parse once the canonical
            # form is memoized; the build still happens at most once.
            canonical = self._canonical_spec_string(spec)
            return self._estimator_cache.get_or_create(
                canonical, lambda: EstimatorSpec.of(canonical).build()
            )
        parsed = EstimatorSpec.of(spec)
        if overrides:
            supported = parsed.supported_params()
            parsed = parsed.with_params(
                **{key: value for key, value in overrides.items() if key in supported}
            )
        # Bounded LRU: a long-lived server accepting arbitrary specs must
        # not grow this cache without bound.  Building the same spec twice
        # yields equivalent estimators, so the benign get_or_create race is
        # harmless.
        return self._estimator_cache.get_or_create(parsed.to_string(), parsed.build)

    # ------------------------------------------------------------------ #
    # Snapshot / restore
    # ------------------------------------------------------------------ #

    def snapshot(self) -> SessionSnapshot:
        """Serializable copy of the full session state (for replay/recovery)."""
        if self._default_spec is None:
            raise ValidationError(
                "cannot snapshot a session configured with an estimator "
                "instance; construct it with a spec string instead"
            )
        return SessionSnapshot(
            attribute=self._attribute,
            table_name=self._table_name,
            estimator=self._default_spec.to_string(),
            count_method=self._count_method,
            counts=dict(self._state.counts),
            values={eid: dict(vals) for eid, vals in self._state.values.items()},
            seed_source_sizes=self._seed_source_sizes,
            source_sizes=dict(self._state.per_source),
            n_ingested=self._n_ingested,
            state_version=self._state_version,
        )

    @classmethod
    def restore(
        cls,
        snapshot: "SessionSnapshot | dict[str, Any]",
        *,
        store: "Any | None" = None,
    ) -> "OpenWorldSession":
        """Rebuild a session from :meth:`snapshot` output (object or dict).

        The restored session continues exactly where the original stood:
        further ingests from an already-seen source id keep extending that
        source's contribution, so a snapshot/restore cycle in the middle of
        a stream replay stays bit-identical to an uninterrupted run.

        ``store`` seeds a fresh store (disk or memory) with the snapshot
        state; subsequent restarts can then skip the snapshot entirely
        and :meth:`attach` the store directly.
        """
        if isinstance(snapshot, dict):
            snapshot = SessionSnapshot.from_dict(snapshot)
        session = cls(
            snapshot.attribute,
            table_name=snapshot.table_name,
            estimator=snapshot.estimator,
            count_method=snapshot.count_method,
            store=store,
        )
        counts = dict(snapshot.counts)
        session._store.load_state(
            counts=counts,
            values={eid: dict(vals) for eid, vals in snapshot.values.items()},
            per_source=dict(snapshot.source_sizes),
            frequencies=dict(Counter(counts.values())),
            n=sum(counts.values()),
            seed_source_sizes=tuple(snapshot.seed_source_sizes),
            n_ingested=int(snapshot.n_ingested),
            state_version=int(snapshot.state_version),
        )
        session._seed_source_sizes = tuple(snapshot.seed_source_sizes)
        session._n_ingested = int(snapshot.n_ingested)
        session._state_version = int(snapshot.state_version)
        return session

    def close(self) -> None:
        """Release store resources (file handles); memory is a no-op."""
        self._store.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OpenWorldSession(attribute={self._attribute!r}, n={self.n}, "
            f"c={self.c}, sources={len(self.source_sizes)})"
        )
