"""repro: Estimating the Impact of Unknown Unknowns on Aggregate Query Results.

A from-scratch Python reproduction of Chung, Mortensen, Binnig and Kraska
(SIGMOD 2016).  The library estimates how much the entities that *no* data
source ever observed ("unknown unknowns") change the answer of an aggregate
query over an integrated data set, using only the overlap structure of the
sources.

Quickstart
----------
The one-stop entry point is the :class:`OpenWorldSession`: feed it
per-source observations incrementally, then ask for corrected estimates or
run open-world aggregate queries against the maintained state.

>>> from repro import Observation, OpenWorldSession
>>> session = OpenWorldSession("employees")
>>> session.ingest(
...     Observation(entity_id=name, source_id=src, attributes={"employees": size})
...     for src, name, size in [
...         ("web-list", "acme", 120.0), ("web-list", "globex", 45.0),
...         ("news", "acme", 120.0), ("crowd", "initech", 80.0),
...     ]
... )
4
>>> estimate = session.estimate()               # default spec: "bucket"
>>> estimate.observed <= estimate.corrected
True
>>> estimate = session.estimate(spec="bucket/monte-carlo?seed=3")
>>> session.query("SELECT AVG(employees) FROM data").aggregate
'AVG'

Estimators are named by composable spec strings
(``"bucket(equiwidth:8)/monte-carlo?seed=3&engine=vectorized"``); every
result object serializes through one versioned JSON contract
(``estimate.to_dict()`` / ``repro.api.from_dict``).

Package layout
--------------
* :mod:`repro.api` -- the unified facade: estimator specs, the stateful
  :class:`OpenWorldSession` (incremental ingest, snapshot/restore), and the
  serializable result model.
* :mod:`repro.core` -- the estimators (naive, frequency, bucket, Monte-Carlo),
  the SUM upper bound and the COUNT/AVG/MIN/MAX extensions.
* :mod:`repro.data` -- the data-integration substrate (sources, cleaning,
  lineage, the observed sample).
* :mod:`repro.parallel` -- execution backends (serial, process pool)
  sharding the Monte-Carlo grid and the progressive replays, with
  bit-identical results everywhere.
* :mod:`repro.query` -- a small aggregate-query engine with closed-world and
  open-world (estimator-corrected) execution.
* :mod:`repro.serving` -- the concurrent query-serving layer
  (``python -m repro.cli serve``): named sessions behind reader/writer
  locks, version-keyed estimate caching, request coalescing, and an HTTP
  JSON API whose responses are byte-identical to the in-process facade.
* :mod:`repro.simulation` -- the multi-source sampling simulator used by the
  synthetic experiments.
* :mod:`repro.datasets` -- synthetic stand-ins for the paper's crowdsourced
  data sets.
* :mod:`repro.evaluation` -- progressive replay harness, metrics, and one
  experiment driver per figure/table of the paper.
"""

from repro.api import (
    EstimatorSpec,
    OpenWorldSession,
    SessionSnapshot,
    available_estimators,
    build_estimator,
    describe_estimators,
    incremental_estimators,
    register_estimator,
)

from repro.core import (
    BucketEstimator,
    DynamicBucketing,
    EquiHeightBucketing,
    EquiWidthBucketing,
    Estimate,
    FrequencyEstimator,
    FrequencyStatistics,
    MonteCarloConfig,
    MonteCarloEstimator,
    NaiveEstimator,
    SumEstimator,
    chao92_estimate,
    estimate_avg,
    estimate_count,
    estimate_max,
    estimate_min,
    estimate_sum,
    sum_upper_bound,
)
from repro.data import (
    DataSource,
    Entity,
    IntegrationPipeline,
    Observation,
    ObservedSample,
    integrate,
)
from repro.parallel import (
    BACKENDS,
    ExecutionBackend,
    ParallelExecutionError,
    get_backend,
    set_default_backend,
)
from repro.query import ClosedWorldExecutor, Database, OpenWorldExecutor, Table, parse_query
from repro.utils.exceptions import (
    EstimationError,
    InsufficientDataError,
    QueryError,
    ReproError,
    ValidationError,
)

__version__ = "1.3.0"

__all__ = [
    # api
    "EstimatorSpec",
    "OpenWorldSession",
    "SessionSnapshot",
    "available_estimators",
    "build_estimator",
    "describe_estimators",
    "incremental_estimators",
    "register_estimator",
    # core
    "BucketEstimator",
    "DynamicBucketing",
    "EquiHeightBucketing",
    "EquiWidthBucketing",
    "Estimate",
    "FrequencyEstimator",
    "FrequencyStatistics",
    "MonteCarloConfig",
    "MonteCarloEstimator",
    "NaiveEstimator",
    "SumEstimator",
    "chao92_estimate",
    "estimate_avg",
    "estimate_count",
    "estimate_max",
    "estimate_min",
    "estimate_sum",
    "sum_upper_bound",
    # parallel
    "BACKENDS",
    "ExecutionBackend",
    "ParallelExecutionError",
    "get_backend",
    "set_default_backend",
    # data
    "DataSource",
    "Entity",
    "IntegrationPipeline",
    "Observation",
    "ObservedSample",
    "integrate",
    # query
    "ClosedWorldExecutor",
    "Database",
    "OpenWorldExecutor",
    "Table",
    "parse_query",
    # errors
    "EstimationError",
    "InsufficientDataError",
    "QueryError",
    "ReproError",
    "ValidationError",
    "__version__",
]
