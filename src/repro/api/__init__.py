"""repro.api: the unified session facade of the library.

Three pieces, designed to be used together:

* **Estimator specs** (:mod:`repro.api.specs`) -- a decorator-based plugin
  registry plus a parseable mini-language for composite estimators, e.g.
  ``"bucket(equiwidth:8)/monte-carlo?seed=3&engine=vectorized"``.  The CLI,
  the executors, the progressive runner and the benchmarks all accept these
  specs uniformly.
* **Sessions** (:mod:`repro.api.session`) -- :class:`OpenWorldSession`
  maintains the integrated sample incrementally under ``ingest`` and serves
  ``estimate``/``query`` from cached state, with ``snapshot``/``restore``
  for replay and recovery.
* **Results** (:mod:`repro.api.results`) -- every result object serializes
  through one versioned JSON envelope (``to_dict``/``from_dict``).
"""

from repro.api.results import RESULT_SCHEMA, from_dict, result_kinds, to_dict
from repro.api.session import OpenWorldSession, SessionSnapshot
from repro.api.specs import (
    ComponentSpec,
    EstimatorDefinition,
    EstimatorSpec,
    ParamSpec,
    available_estimators,
    build_estimator,
    describe_estimators,
    incremental_estimators,
    register_estimator,
)

__all__ = [
    # specs
    "ComponentSpec",
    "EstimatorDefinition",
    "EstimatorSpec",
    "ParamSpec",
    "available_estimators",
    "build_estimator",
    "describe_estimators",
    "incremental_estimators",
    "register_estimator",
    # session
    "OpenWorldSession",
    "SessionSnapshot",
    # results
    "RESULT_SCHEMA",
    "to_dict",
    "from_dict",
    "result_kinds",
]
