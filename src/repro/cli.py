"""Command-line interface for the unknown-unknowns estimators.

Six subcommands cover the common workflows::

    python -m repro.cli estimate  mentions.csv --attribute employees
    python -m repro.cli query     mentions.csv --attribute gdp \
                                  --sql "SELECT SUM(gdp) FROM data WHERE gdp > 100"
    python -m repro.cli dataset   us-tech-employment --step 50
    python -m repro.cli experiment figure6 --repetitions 50 --backend process
    python -m repro.cli serve     --port 8080 --state-dir ./state
    python -m repro.cli cluster   --workers 3 --replicas 2 --state-dir ./state

``estimate`` and ``query`` read a CSV of per-source mentions
(``entity_id, source_id, <attribute>`` -- see :mod:`repro.data.io`);
``dataset`` replays one of the built-in crowd-data stand-ins; ``experiment``
runs one of the registered figure/table experiments
(:mod:`repro.evaluation.harness`) -- its repetition cells fan out over the
``--backend``/``--workers`` execution backend with rows bit-identical to a
serial run, and ``--describe`` prints the experiment's parameter spec.
``serve`` runs the concurrent HTTP JSON API (:mod:`repro.serving`): named
sessions behind reader/writer locks, version-keyed estimate caching,
request coalescing, and graceful SIGINT/SIGTERM shutdown that snapshots
every session to ``--state-dir`` and restores them on restart.  Clients
can *poll* (``GET .../estimate``, optionally parked until a target
``?wait_version=`` is published) or *subscribe* (``GET .../subscribe``,
Server-Sent Events: one ``repro.result/v1`` envelope pushed per
``state_version`` bump, byte-identical to the equivalent polled GET);
``?mode=delta`` requires the incremental estimation path (O(|delta|)
per fresh answer for update-capable estimators, same bytes as batch).
``cluster`` runs the same API behind a consistent-hash router over N
shared-nothing serve workers (:mod:`repro.cluster`) with live session
migration for rebalancing and rolling restarts; subscriptions relay
through the router and transparently re-attach across migration.

Estimators are given as **estimator specs** (see :mod:`repro.api.specs`):
any registered name (``bucket``, ``monte-carlo``, ...) or a composite
string such as ``"bucket(equiwidth:8)/monte-carlo?seed=3"``.  The
``--format json`` flag emits the shared versioned result schema
(:mod:`repro.api.results`) instead of a formatted table, so downstream
tooling never has to scrape the tables.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from repro.api.session import OpenWorldSession
from repro.api.specs import EstimatorSpec, available_estimators
from repro.parallel.backends import BACKENDS
from repro.data.integration import IntegrationPipeline
from repro.data.io import read_sources_csv, write_estimates_csv
from repro.evaluation.harness import (
    describe_experiment,
    list_experiments,
    run_experiment,
)
from repro.datasets.registry import available_datasets, load_dataset
from repro.evaluation.reporting import format_result_table, format_series
from repro.evaluation.runner import ProgressiveRunner
from repro.utils.exceptions import ReproError, ValidationError


def _estimator_spec(text: str) -> str:
    """argparse type: validate an estimator spec, return it unchanged."""
    try:
        EstimatorSpec.parse(text).build()
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Estimate the impact of unknown unknowns on aggregate query results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    spec_help = (
        "estimator spec: one of %s, or a composite string such as "
        "'bucket(equiwidth:8)/monte-carlo?seed=3'"
    ) % ", ".join(available_estimators())

    estimate = sub.add_parser(
        "estimate", help="estimate corrected aggregates from a CSV of per-source mentions"
    )
    estimate.add_argument("csv", help="CSV with entity_id, source_id and the attribute column")
    estimate.add_argument("--attribute", required=True, help="numeric attribute to aggregate")
    estimate.add_argument(
        "--estimator",
        default="bucket",
        type=_estimator_spec,
        help=f"{spec_help} (default: bucket)",
    )
    estimate.add_argument("--output", help="optional CSV file for the result row")
    _add_engine_option(estimate)
    _add_parallel_options(estimate)
    _add_format_option(estimate)

    query = sub.add_parser(
        "query", help="run an open-world aggregate query over a CSV of mentions"
    )
    query.add_argument("csv", help="CSV with entity_id, source_id and attribute columns")
    query.add_argument("--attribute", required=True, help="attribute used for integration")
    query.add_argument("--sql", required=True, help="query, e.g. 'SELECT SUM(x) FROM data'")
    query.add_argument(
        "--estimator",
        default="bucket",
        type=_estimator_spec,
        help=f"{spec_help} (used by the open-world executor)",
    )
    query.add_argument(
        "--closed-world",
        action="store_true",
        help=(
            "also print the classical closed-world answer (with --format "
            "json it is already the 'observed' field of the payload, so "
            "this flag adds nothing there)"
        ),
    )
    _add_engine_option(query)
    _add_parallel_options(query)
    _add_format_option(query)

    dataset = sub.add_parser(
        "dataset", help="replay one of the built-in crowd-data stand-ins"
    )
    dataset.add_argument("name", choices=available_datasets())
    dataset.add_argument("--seed", type=int, default=None, help="generator seed")
    dataset.add_argument("--step", type=int, default=None, help="prefix step for the replay")
    dataset.add_argument(
        "--estimators",
        nargs="+",
        default=["naive", "frequency", "bucket"],
        type=_estimator_spec,
        help=f"estimators to replay; each is an {spec_help}",
    )
    dataset.add_argument("--output", help="optional CSV file for the series")
    _add_engine_option(dataset)
    _add_parallel_options(dataset)
    _add_format_option(dataset)

    experiment = sub.add_parser(
        "experiment", help="run one of the registered figure/table experiments"
    )
    experiment.add_argument(
        "name",
        choices=list_experiments(),
        metavar="name",
        help=f"experiment name: one of {', '.join(list_experiments())}",
    )
    experiment.add_argument(
        "--seed", type=int, default=None, help="override the experiment's default seed"
    )
    experiment.add_argument(
        "--repetitions",
        type=int,
        default=None,
        help="repetition count for the repeated experiments (paper scale: 50)",
    )
    experiment.add_argument(
        "--n-points",
        dest="n_points",
        type=int,
        default=None,
        help="number of prefix points along a replay",
    )
    experiment.add_argument(
        "--estimators",
        nargs="+",
        default=None,
        type=_estimator_spec,
        help=f"override the evaluated estimator set; each is an {spec_help}",
    )
    experiment.add_argument(
        "--set",
        dest="extra_params",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="additional experiment parameter (repeatable); see --describe "
        "for the declared parameters",
    )
    experiment.add_argument(
        "--describe",
        action="store_true",
        help="print the experiment's summary and parameter spec as JSON and exit",
    )
    experiment.add_argument("--output", help="optional CSV file for the rows")
    _add_parallel_options(experiment)
    _add_format_option(experiment)

    serve = sub.add_parser(
        "serve", help="serve sessions over the concurrent HTTP JSON API"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8080, help="bind port; 0 picks an ephemeral port"
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        help=(
            "directory for session persistence: every session keeps its "
            "observations in a columnar segment log there, whose seals "
            "write a checkpoint of the aggregate state; re-attached on "
            "startup and sealed on graceful shutdown (default: sessions "
            "live in memory only)"
        ),
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=None,
        help="LRU bound of the version-keyed answer cache (default: 1024 entries)",
    )
    serve.add_argument(
        "--wal-fsync",
        choices=("always", "batch", "never"),
        default="batch",
        help=(
            "fsync policy of the appends to the session segment logs under "
            "--state-dir: 'always' survives power loss, 'batch' (default) "
            "fsyncs every 32 appends, 'never' flushes appends to the OS "
            "only -- all three survive SIGKILL; seals (checkpoints) and "
            "manifests are fsynced under every policy"
        ),
    )
    serve.add_argument(
        "--store",
        choices=("memory", "disk"),
        default=None,
        help=(
            "selects nothing: --state-dir alone decides where sessions live. "
            "'disk' requires --state-dir and 'memory' refuses it"
        ),
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help=(
            "admission bound on concurrently executing requests; beyond it "
            "requests are shed with 503 + Retry-After (default: unbounded)"
        ),
    )
    _add_parallel_options(serve)

    cluster = sub.add_parser(
        "cluster",
        help="serve sessions through a consistent-hash router over N workers",
    )
    cluster.add_argument(
        "--host", default="127.0.0.1", help="router bind address (default: 127.0.0.1)"
    )
    cluster.add_argument(
        "--port",
        type=int,
        default=8080,
        help="router bind port; 0 picks an ephemeral port",
    )
    cluster.add_argument(
        "--workers",
        type=int,
        default=2,
        help="serve-worker count; session names consistent-hash across them "
        "(default: 2)",
    )
    cluster.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="copies per session: 1 = primary only, R > 1 adds R-1 read "
        "replicas that estimate reads round-robin over (default: 1)",
    )
    cluster.add_argument(
        "--state-dir",
        default=None,
        help=(
            "directory for the per-worker state shards "
            "(<state-dir>/<worker>/); omitted = a throwaway temp dir"
        ),
    )
    cluster.add_argument(
        "--cache-size",
        type=int,
        default=None,
        help="per-worker LRU bound of the version-keyed answer cache",
    )
    cluster.add_argument(
        "--wal-fsync",
        choices=("always", "batch", "never"),
        default="batch",
        help="fsync policy of the appends to each worker's session segment "
        "logs; seals and manifests are fsynced under every policy (see "
        "'serve --wal-fsync')",
    )
    cluster.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="per-worker admission bound (503 + Retry-After beyond it)",
    )
    cluster.add_argument(
        "--backend",
        default=None,
        choices=list(BACKENDS),
        help="execution backend *inside* each worker (default: serial -- "
        "the cluster parallelizes across workers instead)",
    )
    cluster.add_argument(
        "--store",
        choices=("memory", "disk"),
        default=None,
        help="selects nothing: every worker keeps its sessions in segment "
        "logs under its state shard, so 'memory' is refused",
    )

    return parser


def _add_engine_option(subparser: argparse.ArgumentParser) -> None:
    """Expose the Monte-Carlo simulation engine escape hatch."""
    subparser.add_argument(
        "--engine",
        default=None,
        choices=["vectorized", "loop"],
        help=(
            "Monte-Carlo simulation engine: the batched Gumbel top-k engine "
            "(default) or the legacy per-draw loop (parity oracle; see "
            "DESIGN.md).  Fills the 'engine' spec parameter when the spec "
            "does not set it; ignored by non-simulation estimators."
        ),
    )


def _add_parallel_options(subparser: argparse.ArgumentParser) -> None:
    """Expose the execution-backend selection (repro.parallel)."""
    subparser.add_argument(
        "--backend",
        default=None,
        choices=list(BACKENDS),
        help=(
            "execution backend for the parallelizable work: the Monte-Carlo "
            "grid rows of 'estimate'/'query' specs, or the (prefix x "
            "estimator) cells of a 'dataset' replay.  Results are "
            "bit-identical across backends and worker counts."
        ),
    )
    subparser.add_argument(
        "--workers",
        default=None,
        type=int,
        help="worker count for --backend (default: all CPUs)",
    )


def _add_format_option(subparser: argparse.ArgumentParser) -> None:
    """Expose the output format switch."""
    subparser.add_argument(
        "--format",
        default="table",
        choices=["table", "json"],
        help=(
            "output format: a human-readable table (default) or the "
            "versioned JSON result schema (repro.api.results)"
        ),
    )


def _resolve_spec(
    text: str,
    engine: str | None,
    backend: str | None = None,
    workers: int | None = None,
) -> EstimatorSpec:
    """Parse a spec and fill the --engine/--backend/--workers defaults.

    The flags only fill parameters the spec does not already set (and are
    silently ignored by components that declare no such parameter), so an
    explicit ``?backend=...`` in the spec always wins.
    """
    spec = EstimatorSpec.parse(text)
    defaults = {}
    if engine is not None:
        defaults["engine"] = engine
    if backend is not None:
        defaults["backend"] = backend
    if workers is not None:
        defaults["workers"] = workers
    if defaults:
        spec = spec.with_default_params(**defaults)
    return spec


def _session_from_csv(args: argparse.Namespace) -> OpenWorldSession:
    """Integrate the mentions CSV and adopt it as session state."""
    registry = read_sources_csv(args.csv, args.attribute)
    result = IntegrationPipeline(args.attribute).run(registry)
    return OpenWorldSession.from_sample(
        result.sample,
        args.attribute,
        estimator=_resolve_spec(args.estimator, args.engine, args.backend, args.workers),
    )


# ---------------------------------------------------------------------- #
# Subcommand implementations
# ---------------------------------------------------------------------- #


def _cmd_estimate(args: argparse.Namespace) -> int:
    session = _session_from_csv(args)
    estimate = session.estimate()
    summary = session.sample().summary()
    rows = [
        {
            "estimator": estimate.estimator,
            "observed": estimate.observed,
            "corrected": estimate.corrected,
            "delta": estimate.delta,
            "count_estimate": estimate.count_estimate,
            "coverage": estimate.coverage,
            "n": summary.n,
            "c": summary.c,
            "f1": summary.f1,
            "reliable": estimate.reliable,
        }
    ]
    if args.format == "json":
        print(json.dumps(estimate.to_dict(), indent=2, allow_nan=False))
    else:
        print(format_result_table(f"SUM({args.attribute}) with unknown unknowns", rows))
    if args.output:
        write_estimates_csv(args.output, rows)
        if args.format != "json":
            print(f"\nwrote {args.output}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    session = _session_from_csv(args)
    answer = session.query(args.sql)
    if args.format == "json":
        # The closed-world answer is the 'observed' field of the payload;
        # --closed-world therefore needs no extra output here.
        print(json.dumps(answer.to_dict(), indent=2, allow_nan=False))
        return 0
    rows = [
        {
            "aggregate": answer.aggregate,
            "observed": answer.observed,
            "corrected": answer.corrected,
            "delta": answer.delta,
            "matching_rows": answer.matching_rows,
            "trusted": answer.trusted if answer.trusted is not None else "",
        }
    ]
    print(format_result_table(args.sql, rows))
    if args.closed_world:
        closed = session.query(args.sql, closed_world=True)
        print(f"\nclosed-world answer: {closed.observed:,.4g}")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    dataset = load_dataset(args.name, **kwargs)
    # --backend/--workers shard the replay's (prefix x estimator) cells at
    # the runner level; the estimator specs themselves stay serial inside
    # each cell so worker processes never nest their own pools.
    specs = [_resolve_spec(text, args.engine) for text in args.estimators]
    runner = ProgressiveRunner(
        {text: spec for text, spec in zip(args.estimators, specs)},
        backend=args.backend,
        n_workers=args.workers,
    )
    step = args.step or max(1, dataset.total_observations // 10)
    result = runner.run(dataset, step=step)
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2, allow_nan=False))
        return 0
    print(f"{dataset.description}  ({dataset.query})")
    print(format_series(result))
    if args.output:
        rows = []
        for index, size in enumerate(result.sample_sizes):
            row = {"n_answers": size, "observed": result.observed[index]}
            for name, series in result.series.items():
                row[name] = series.estimates[index]
            if result.ground_truth is not None:
                row["ground_truth"] = result.ground_truth
            rows.append(row)
        write_estimates_csv(args.output, rows)
        print(f"\nwrote {args.output}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.describe:
        print(json.dumps(describe_experiment(args.name), indent=2))
        return 0
    params: dict[str, object] = {
        "seed": args.seed,
        "repetitions": args.repetitions,
        "n_points": args.n_points,
    }
    for item in args.extra_params:
        key, sep, value = item.partition("=")
        key = key.strip().lower().replace("-", "_")
        if not sep or not key or not value.strip():
            raise ValidationError(
                f"malformed --set parameter {item!r}; expected KEY=VALUE"
            )
        params[key] = value.strip()
    result = run_experiment(
        args.name,
        backend=args.backend,
        workers=args.workers,
        estimators=args.estimators,
        **{key: value for key, value in params.items() if value is not None},
    )
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2, allow_nan=False))
    else:
        print(format_result_table(f"[{result.experiment}] {result.description}", result.rows))
    if args.output:
        write_estimates_csv(args.output, result.rows)
        if args.format != "json":
            print(f"\nwrote {args.output}")
    return 0


def _check_store_flag(store: "str | None", *, persisted: bool) -> None:
    """Refuse a ``--store`` that contradicts where sessions actually live."""
    if store == "memory" and persisted:
        raise ValidationError(
            "--store memory: persisted sessions always live in segment logs"
        )
    if store == "disk" and not persisted:
        raise ValidationError("--store disk requires --state-dir")


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here: the serving stack is only needed by this subcommand,
    # and the other subcommands must keep working even if an embedding
    # strips the http.server module.
    from repro.serving.http import run_server

    _check_store_flag(args.store, persisted=args.state_dir is not None)
    return run_server(
        args.host,
        args.port,
        backend=args.backend,
        workers=args.workers,
        cache_entries=args.cache_size,
        state_dir=args.state_dir,
        wal_fsync=args.wal_fsync,
        max_inflight=args.max_inflight,
    )


def _cmd_cluster(args: argparse.Namespace) -> int:
    # Imported here for the same reason as _cmd_serve: the cluster stack
    # is only needed by this subcommand.
    from repro.cluster.run import run_cluster

    _check_store_flag(args.store, persisted=True)
    return run_cluster(
        args.host,
        args.port,
        workers=args.workers,
        replicas=args.replicas,
        state_dir=args.state_dir,
        wal_fsync=args.wal_fsync,
        cache_entries=args.cache_size,
        max_inflight=args.max_inflight,
        backend=args.backend,
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "estimate": _cmd_estimate,
        "query": _cmd_query,
        "dataset": _cmd_dataset,
        "experiment": _cmd_experiment,
        "serve": _cmd_serve,
        "cluster": _cmd_cluster,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
