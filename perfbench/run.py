#!/usr/bin/env python3
"""The repo benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload analytic-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs the workload for half the time untraced and half
with a span wrapper around each layer's entry point (perfbench/spans.py),
and reports the per-layer metrics plus the tracing overhead.  Either
way every result is checked (perfbench/workloads.py), outside the
timed region, and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The workloads, their sizes and the metric predictions are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

from workloads import OUT, WORKLOADS, HostSpeed  # no program import yet

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run; ``setup_s`` counts their median.
SETUPS = 5
#: Fresh interpreters that import the program; ``setup_s`` counts
#: their median.
IMPORTS = 5


def import_seconds(speed: HostSpeed) -> tuple[float, float]:
    """Median time for a fresh interpreter to import the program.

    As (wall clock, at the reference speed).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    walls, refs = [], []
    for _ in range(IMPORTS):
        factor = speed.sample()
        began = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro, repro.serve, repro.txn"],
            cwd=ROOT,
            env=env,
            check=True,
        )
        wall = time.perf_counter() - began
        walls.append(wall)
        refs.append(wall * factor)
    return statistics.median(walls), statistics.median(refs)


def percentile(samples: list[float], q: float) -> float | None:
    """The q-quantile, or None unless >= 10 samples lie beyond it."""
    if len(samples) * (1.0 - q) < 10:
        return None
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def per(value: float, base: float) -> float:
    return value / base if base else 0.0


def query_p50(read_ms: list[float], type_ms: dict) -> float | None:
    """The median read latency.

    Where a workload sends a few fixed query types (``type_ms``), their
    latencies form one cluster per type and the overall median falls in
    a gap between two clusters; the geometric mean of the per-type
    medians sits inside the clusters instead.
    """
    if not type_ms:
        return percentile(read_ms, 0.50)
    if min(len(ms) for ms in type_ms.values()) < 10:
        return None
    return statistics.geometric_mean(statistics.median(ms) for ms in type_ms.values())


def end_to_end(workload, phase, setup_s: float, setup_wall_s: float):
    """(gated, printed-only, sample counts); metrics as name -> (value, unit).

    ``query_tail_ms`` is the read-latency percentile ``workload.tail``:
    the highest one the workload's runs leave 10 samples beyond.  The
    gated wall times are taken at the reference speed (``*_at_ref``,
    see workloads.HostSpeed); the same metrics as measured on the
    wall clock are printed beside them.
    """
    gated = {
        "setup_s": (setup_s, "s"),
        "qps_at_ref": (phase.ops / phase.ref_seconds, "1/s"),
        "query_p50_ms_at_ref": (
            query_p50(phase.read_ref_ms, phase.type_ref_ms),
            "ms",
        ),
        "query_tail_ms_at_ref": (
            percentile(phase.read_ref_ms, workload.tail),
            "ms",
        ),
        "page_ios_per_query": (per(phase.io_pages, phase.io_queries), "pages"),
        "peak_rss_mb": (phase.rss_mb, "MB"),
    }
    extra = {
        "setup_wall_s": (setup_wall_s, "s"),
        "qps": (phase.ops / phase.seconds, "1/s"),
        "query_p50_ms": (query_p50(phase.read_ms, phase.type_ms), "ms"),
        "query_tail_ms": (percentile(phase.read_ms, workload.tail), "ms"),
        "host_speed": (statistics.mean(phase.host_factors), "ratio"),
        "query_p90_ms": (percentile(phase.read_ms, 0.90), "ms"),
        "query_p99_ms": (percentile(phase.read_ms, 0.99), "ms"),
        "write_p50_ms": (percentile(phase.write_ms, 0.50), "ms"),
        "write_p90_ms": (percentile(phase.write_ms, 0.90), "ms"),
        "batch_p50_ms": (percentile(phase.batch_ms, 0.50), "ms"),
    }
    samples = {
        "query": len(phase.read_ms),
        "write": len(phase.write_ms),
        "batch": len(phase.batch_ms),
    }
    return gated, extra, samples


def per_layer(phase, plain, summary) -> dict:
    """Per-layer metrics of the traced phase, as name -> (value, unit)."""
    ops = phase.ops
    writes = phase.writes
    ms = summary.self_ms
    calls = summary.calls.get
    counts = summary.counts.get
    io = phase.after.io - phase.before.io
    before, after = phase.before.cache, phase.after.cache
    hits = after.hits - before.hits
    misses = after.misses - before.misses
    shared_hits = after.shared_hits - before.shared_hits
    shared_built = after.shared_materializations - before.shared_materializations
    metrics = {
        "sql.parse.calls_per_op": (per(calls("sql.parse", 0), ops), "count"),
        "sql.parse.self_ms_per_op": (per(ms("sql.parse"), ops), "ms"),
        "sql.to_sql.calls_per_op": (per(calls("sql.to_sql", 0), ops), "count"),
        "sql.to_sql.self_ms_per_op": (per(ms("sql.to_sql"), ops), "ms"),
        "core.prepare_query.self_ms_per_op": (
            per(ms("core.prepare_query"), ops),
            "ms",
        ),
        "core.nest_g.self_ms_per_op": (per(ms("core.nest_g"), ops), "ms"),
        "core.nest_g.temps_per_op": (per(counts("core.nest_g", 0), ops), "count"),
        "analysis.verify.self_ms_per_op": (per(ms("analysis.verify"), ops), "ms"),
        "analysis.verify_single_level.calls_per_op": (
            per(calls("analysis.verify_single_level", 0), ops),
            "count",
        ),
        "analysis.verify_single_level.self_ms_per_op": (
            per(ms("analysis.verify_single_level"), ops),
            "ms",
        ),
        "optimizer.temp_build.calls_per_op": (
            per(calls("optimizer.temp_build", 0), ops),
            "count",
        ),
        "optimizer.temp_build.self_ms_per_op": (
            per(ms("optimizer.temp_build"), ops),
            "ms",
        ),
        "optimizer.final.self_ms_per_op": (per(ms("optimizer.final"), ops), "ms"),
        "optimizer.temp_rows_per_result_row": (
            per(counts("optimizer.temp_build", 0), phase.result_rows),
            "ratio",
        ),
        "engine.nested_iteration.calls_per_op": (
            per(calls("engine.nested_iteration", 0), ops),
            "count",
        ),
        "engine.nested_iteration.self_ms_per_op": (
            per(ms("engine.nested_iteration"), ops),
            "ms",
        ),
        "storage.get_page.calls_per_op": (
            per(calls("storage.get_page", 0), ops),
            "count",
        ),
        "storage.get_page.self_ms_per_op": (per(ms("storage.get_page"), ops), "ms"),
        "storage.append_rows.calls_per_op": (
            per(calls("storage.append_rows", 0), ops),
            "count",
        ),
        "storage.append_rows.self_ms_per_op": (
            per(ms("storage.append_rows"), ops),
            "ms",
        ),
        "storage.buffer.hit_ratio": (
            per(io.buffer_hits, io.buffer_hits + io.page_reads),
            "ratio",
        ),
        "storage.page_reads_per_op": (per(io.page_reads, ops), "pages"),
        "storage.page_writes_per_op": (per(io.page_writes, ops), "pages"),
        "serve.normalize.self_ms_per_op": (per(ms("serve.normalize"), ops), "ms"),
        "serve.cache.hit_ratio": (per(hits, hits + misses), "ratio"),
        "serve.build_plan.calls_per_op": (
            per(calls("serve.build_plan", 0), ops),
            "count",
        ),
        "serve.build_plan.self_ms_per_op": (per(ms("serve.build_plan"), ops), "ms"),
        "serve.replay.self_ms_per_op": (per(ms("serve.replay"), ops), "ms"),
        "serve.sharing.hit_ratio": (
            per(shared_hits, shared_hits + shared_built),
            "ratio",
        ),
        "serve.executemany.self_ms_per_vector": (
            per(ms("serve.executemany"), counts("serve.executemany", 0)),
            "ms",
        ),
        "serve.memo_flushes_per_write": (
            per(after.memo_flushes - before.memo_flushes, writes),
            "count",
        ),
        "txn.commit.self_ms_per_write": (per(ms("txn.commit"), writes), "ms"),
        "txn.wal.bytes_per_row": (
            per(phase.after.wal_bytes - phase.before.wal_bytes, writes),
            "B",
        ),
        "txn.wal.flushes_per_write": (
            per(phase.after.wal_flushes - phase.before.wal_flushes, writes),
            "count",
        ),
        "catalog.read_lock.wait_ms_per_op": (
            per(ms("catalog.read_lock"), ops),
            "ms",
        ),
        "catalog.write_lock.wait_ms_per_write": (
            per(ms("catalog.write_lock"), writes),
            "ms",
        ),
        "trace.layer_coverage": (summary.coverage, "ratio"),
        "trace.qps_ratio": (
            per(phase.ops / phase.ref_seconds, plain.ops / plain.ref_seconds),
            "ratio",
        ),
    }
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (compiles the bytecode the timed imports load)
    import repro.serve  # noqa: F401
    import repro.txn  # noqa: F401

    workload = WORKLOADS[args.workload]()
    if args.trace:
        workload.setup(args.seed)
    else:
        speed = HostSpeed()
        walls, refs = [], []
        for _ in range(SETUPS):
            gc.collect()
            factor = speed.sample()
            began = time.perf_counter()
            workload.setup(args.seed)
            wall = time.perf_counter() - began
            walls.append(wall)
            refs.append(wall * factor)
        import_wall, import_ref = import_seconds(speed)
        setup_wall_s = import_wall + statistics.median(walls)
        setup_s = import_ref + statistics.median(refs)

    if args.trace:
        from spans import Tracer

        plain = workload.run(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            phase = workload.run(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        phases = [plain, phase]
    else:
        phase = workload.run(args.seconds)
        phases = [phase]

    failures = workload.check()
    for message in (failures[:10] + workload.errors)[:15]:
        print(f"perfbench: FAILED: {message}", file=sys.stderr)
    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases) + len(failures)

    print(f"workload {workload.name}, seed {args.seed}: {workload.why}")
    print(f"  {workload.describe()}")
    print(f"  {'fail_ratio':<44} {per(failed, attempted):.4f} ratio")
    print(f"  ops {attempted}, failed {failed}")
    if args.trace:
        summary = tracer.summarize()
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload.name}-seed{args.seed}.tsv.gz"
        tracer.write(spans)
        print(f"  {tracer.span_count()} spans over {summary.operations} ops -> {spans}")
        reported = per_layer(phase, plain, summary)
        shown = reported
        if summary.coverage < 0.9:
            print(
                f"perfbench: layer self times cover only "
                f"{summary.coverage:.1%} of operation time",
                file=sys.stderr,
            )
    else:
        reported, extra, samples = end_to_end(workload, phase, setup_s, setup_wall_s)
        shown = {**reported, **extra}
        print(f"  samples {samples}")
    for name, (value, unit) in shown.items():
        text = "n/a (too few samples)" if value is None else f"{value:.4f}"
        print(f"  {name:<44} {text} {unit}")
    missing = [name for name, (value, _) in reported.items() if value is None]
    if missing:
        print(f"perfbench: too few samples for {missing}", file=sys.stderr)
        return 3

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in reported.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
