#!/usr/bin/env python3
"""The client-path benchmark: one workload per run, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workload warm-read --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics (median of three set-ups,
then the measured window, then one SIGKILL + restart durability check).
``--trace 1`` measures the same window twice, untraced (then nine
SIGKILL + restart recoveries) and with the out-of-tree span tracer
(``perfbench/trace``) loaded into every server process, and reports the
per-layer metrics.  Every run checks the
served bytes against the in-process facade; the last line of standard
output is the JSON result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    print(
        "perfbench: run from the repository root (src/repro/ not found here)",
        file=sys.stderr,
    )
    raise SystemExit(2)
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

from layers import SELF_TIME, layer_metrics, stats_metrics  # noqa: E402
from stats import median, ratio, tail  # noqa: E402
from workloads import RECOVERIES, SETUPS, WORKLOADS, Measurement, Settings  # noqa: E402

#: What each end-to-end metric is called on each workload.
ALIASES = {
    "warm-read": {"answer": "read", "answers_per_s": "read_rps", "post": "query"},
    "ingest-fresh": {
        "answer": "fresh_estimate",
        "answers_per_s": "fresh_answers_per_s",
        "post": "ingest_ack",
    },
    "cluster-push": {
        "answer": "routed_fresh_read",
        "answers_per_s": "routed_fresh_reads_per_s",
        "post": "ingest_ack",
    },
}


def end_to_end(m: Measurement, lines: list) -> dict:
    alias = ALIASES[m.workload]
    metrics = {
        "setup_s": (median(m.setup_s), "s"),
        "answers_per_s": (ratio(m.answers, m.window_s), "1/s"),
        "server_rss_mb": (m.rss_mb, "MB"),
    }
    lines.append(f"setup_s: {metrics['setup_s'][0]:.4f} s (median of {len(m.setup_s)})")
    for key, values in (("answer", m.answer_ms), ("post", m.post_ms)):
        pct, value = tail(values)
        metrics[f"{key}_p50_ms"] = (median(values), "ms")
        metrics[f"{key}_tail_ms"] = (value, "ms")
        lines.append(
            f"{key} = {alias[key]}: p50 {median(values):.3f} ms, "
            f"p{pct:g} {value:.3f} ms (tail_ms), n={len(values)}"
        )
    lines.append(
        f"answers_per_s = {alias['answers_per_s']}: {metrics['answers_per_s'][0]:.3f}/s"
        f" over {m.window_s:.2f} s"
    )
    lines.append(f"server_rss_mb: {m.rss_mb:.1f} MB peak, summed over server processes")
    return metrics


def per_layer(untraced: Measurement, traced: Measurement, lines: list) -> dict:
    front = "router.handler" if untraced.workload == "cluster-push" else "http.handler"
    values = layer_metrics(
        traced.spans, traced.window, traced.front_ops, traced.acks, front
    )
    values.update(stats_metrics(untraced.counts))
    values["recover_s"] = median(untraced.recover_s)
    lines.append(f"recover_s: {values['recover_s']:.4f} s (median of {len(untraced.recover_s)})")
    pushes = untraced.push_ms
    values["push_lag_p50_ms"] = median(pushes) if pushes else 0.0
    values["push_lag_tail_ms"] = tail(pushes)[1] if pushes else 0.0
    values["untraced.answer_p50_ms"] = median(untraced.answer_ms)
    values["traced.answer_p50_ms"] = median(traced.answer_ms)
    values["trace.overhead_ms"] = values["traced.answer_p50_ms"] - values["untraced.answer_p50_ms"]
    failed = untraced.tally.failed + traced.tally.failed
    values["failed_share"] = ratio(failed, untraced.tally.attempted + traced.tally.attempted)
    # Replication runs beside the request path, so it is left out of the sum.
    on_path = sum(values[name] for name in SELF_TIME if name != "router.replicate_ms")
    lines.append(
        f"layers over {len(traced.front_ops)} client ops: self times per op"
        f" {on_path:.3f} ms + wire_ms {values['wire_ms']:.3f} ms"
        f" = {on_path + values['wire_ms']:.3f} ms"
        f" vs traced answer p50 {values['traced.answer_p50_ms']:.3f} ms"
    )
    lines.append(
        "router->worker spans are not linked (no request id crosses the hop);"
        " worker time is attributed per client op"
    )
    lines.append(f"stats deltas (untraced window): {untraced.counts}")
    return {name: (value, _unit(name)) for name, value in values.items()}


def _unit(name: str) -> str:
    if name.endswith("_ms") or name == "serialize.ms":
        return "ms"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    settings = Settings(ROOT, args.seed, args.seconds, work)
    workload = WORKLOADS[args.workload](settings)
    lines: list = []
    try:
        if args.trace:
            untraced = workload.measure(setups=1, recoveries=RECOVERIES, trace_dir=None)
            spans_dir = work / "spans"
            spans_dir.mkdir()
            traced = workload.measure(setups=1, recoveries=0, trace_dir=spans_dir)
            runs = [untraced, traced]
            metrics = per_layer(untraced, traced, lines)
        else:
            measured = workload.measure(setups=SETUPS, recoveries=1, trace_dir=None)
            runs = [measured]
            metrics = end_to_end(measured, lines)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(m.tally.attempted for m in runs)
    failed = sum(m.tally.failed for m in runs)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **runs[0].record,
    }
    print(f"record: {json.dumps(record)}")
    for line in lines:
        print(line)
    print(f"failed_share: {ratio(failed, attempted):.6f} ({failed} of {attempted})")
    for m in runs:
        for problem in m.tally.problems:
            print(f"problem: {problem}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
