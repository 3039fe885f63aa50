"""Wall-clock benchmark: compiled vs interpreted, merge vs hash.

Unlike the rest of the benchmark suite, which reports the simulator's
page-I/O counters, this harness times real executions of the Figure-1
workloads (Type-N, Type-J, Type-JA) under every engine configuration:

* nested iteration with the expression compiler disabled (the
  interpreted baseline),
* nested iteration with compiled predicates/projections (the default),
* the transformed plan under each join method (merge, nested, hash),
  once on the compiled row engine (``transform[merge]``) and once on
  the vectorized columnar engine (``transform[merge|vectorized]``).

Every leg runs cold (buffer flushed, counters zeroed) ``--repeats``
times and keeps the fastest run, timed in the calling thread's CPU time
(``time.thread_time``): the legs run in one thread, and CPU time does
not count the stretches a busy host spends running other processes,
which wall time does.  The interpreted and compiled nested-iteration
legs alternate, one repeat each in turn, so a slow phase of the host
falls on both.  Results land in ``BENCH_PR2.json``
at the repo root as a list of ``{workload, op, rows, seconds, pages}``
records, so the headline claims — compiled beats interpreted, hash
beats merge on unsorted inputs — are regenerable from one command:

    PYTHONPATH=src python benchmarks/bench_wallclock.py

Row/vectorized legs of one join method must also charge **identical
page I/O** — batch execution is a CPU-side change and may not move the
paper-facing cost model (the scaling curve lives in
``benchmarks/bench_vectorized.py`` / ``BENCH_PR6.json``).

``--smoke`` runs a reduced matrix (the two nested-iteration legs) and
exits non-zero if compilation fails to pay for itself on any workload;
CI runs it as a perf regression gate.  ``--smoke --engine vectorized``
additionally runs the hash-join transform leg on both engines and
fails on any row/vectorized disagreement in rows or page I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
import time
from collections import Counter

from repro.bench.harness import MeasuredRun, measure
from repro.engine.compile import interpreted_only
from repro.workloads.generators import (
    GENERATED_J_QUERY,
    GENERATED_JA_QUERY,
    GENERATED_N_QUERY,
    PartsSupplySpec,
    build_parts_supply,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_PR2.json"

#: The Figure-1 synthetic instances (same specs as bench_figure1.py).
#: ``check`` is the cross-leg agreement discipline; every workload now
#: requires bag (multiset) agreement — the type-J fan-out is fixed by
#: the rowid-based ``dedupe_outer`` rewrite (see DESIGN.md).
WORKLOADS = [
    {
        "name": "figure1-type-n",
        "query": GENERATED_N_QUERY,
        "spec": PartsSupplySpec(
            num_parts=150, num_supply=4000, rows_per_page=10,
            buffer_pages=6, seed=11,
        ),
        "dedupe_inner": True,
        "check": "bag",
    },
    {
        "name": "figure1-type-j",
        "query": GENERATED_J_QUERY,
        "spec": PartsSupplySpec(
            num_parts=100, num_supply=600, rows_per_page=10,
            buffer_pages=6, seed=12,
        ),
        "dedupe_inner": False,
        # A paper-literal type-J plan fans out outer rows that match
        # several inner rows (35 baseline rows vs 40 transformed); the
        # rowid fix-up restores nested-iteration multiplicities, so
        # every leg must now agree as a bag.  See DESIGN.md.
        "dedupe_outer": True,
        "check": "bag",
    },
    {
        "name": "figure1-type-ja",
        "query": GENERATED_JA_QUERY,
        "spec": PartsSupplySpec(
            num_parts=100, num_supply=600, rows_per_page=10,
            buffer_pages=6, seed=13,
        ),
        "dedupe_inner": False,
        "check": "bag",
    },
]

JOIN_METHODS = ("merge", "nested", "hash")


def cpu_timed(run) -> MeasuredRun:
    """One run, its ``seconds`` taken in this thread's CPU time."""
    start = time.thread_time()
    result = run()
    return dataclasses.replace(result, seconds=time.thread_time() - start)


def best_of(repeats: int, run) -> MeasuredRun:
    """Fastest of ``repeats`` cold runs (rows/pages are identical)."""
    runs = [cpu_timed(run) for _ in range(repeats)]
    return min(runs, key=lambda r: r.seconds)


def interpreted_and_compiled(repeats: int, run) -> tuple[MeasuredRun, MeasuredRun]:
    """Fastest interpreted and fastest compiled run, the repeats alternating."""
    slow: list[MeasuredRun] = []
    fast: list[MeasuredRun] = []
    for _ in range(repeats):
        with interpreted_only():
            slow.append(cpu_timed(run))
        fast.append(cpu_timed(run))
    return min(slow, key=lambda r: r.seconds), min(fast, key=lambda r: r.seconds)


def measure_workload(
    workload: dict, repeats: int, smoke: bool, engine: str = "row"
) -> list[dict]:
    catalog = build_parts_supply(workload["spec"])
    query = workload["query"]
    dedupe = workload["dedupe_inner"]
    dedupe_outer = workload.get("dedupe_outer", False)

    def transform_leg(join_method: str, engine: str) -> MeasuredRun:
        return best_of(
            repeats,
            lambda: measure(
                catalog, query, "transform",
                join_method=join_method, dedupe_inner=dedupe,
                dedupe_outer=dedupe_outer, engine=engine,
            ),
        )

    def nested_leg() -> MeasuredRun:
        return measure(catalog, query, "nested_iteration", dedupe_inner=dedupe)

    legs: dict[str, MeasuredRun] = {}
    (
        legs["nested_iteration[interpreted]"],
        legs["nested_iteration[compiled]"],
    ) = interpreted_and_compiled(repeats, nested_leg)
    if not smoke:
        for join_method in JOIN_METHODS:
            legs[f"transform[{join_method}]"] = transform_leg(
                join_method, "row"
            )
            legs[f"transform[{join_method}|vectorized]"] = transform_leg(
                join_method, "vectorized"
            )
    elif engine == "vectorized":
        legs["transform[hash]"] = transform_leg("hash", "row")
        legs["transform[hash|vectorized]"] = transform_leg(
            "hash", "vectorized"
        )

    check_agreement(workload, legs)
    check_page_identity(workload, legs)

    return [
        {
            "workload": workload["name"],
            "op": op,
            "rows": len(run.rows),
            "seconds": round(run.seconds, 6),
            "pages": run.page_ios,
        }
        for op, run in legs.items()
    ]


def check_agreement(workload: dict, legs: dict[str, MeasuredRun]) -> None:
    """A benchmark must never time a wrong answer."""
    reference = legs["nested_iteration[compiled]"]
    for op, run in legs.items():
        if workload["check"] == "set":
            agree = set(run.rows) == set(reference.rows)
        else:
            agree = Counter(run.rows) == Counter(reference.rows)
        if not agree:
            raise AssertionError(
                f"{workload['name']}: {op} disagrees with the baseline"
            )


def check_page_identity(workload: dict, legs: dict[str, MeasuredRun]) -> None:
    """Row/vectorized legs of one join method must charge the same I/O."""
    for op, run in legs.items():
        if not op.endswith("|vectorized]"):
            continue
        row_op = op.replace("|vectorized]", "]")
        if run.page_ios != legs[row_op].page_ios:
            raise AssertionError(
                f"{workload['name']}: {op} charges {run.page_ios} page "
                f"I/Os but {row_op} charges {legs[row_op].page_ios}"
            )


def speedup(records: list[dict], workload: str, slow_op: str, fast_op: str):
    by_op = {r["op"]: r for r in records if r["workload"] == workload}
    return by_op[slow_op]["seconds"] / max(by_op[fast_op]["seconds"], 1e-9)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_wallclock.py",
        description="Time nested iteration and transformed plans "
        "under every engine configuration.",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="cold runs per leg, fastest thread CPU time kept (default 3)",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help=f"result file (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="nested-iteration legs only; fail if compiled is slower "
        "than interpreted on any workload; skip writing the result file",
    )
    parser.add_argument(
        "--engine", choices=("row", "vectorized"), default="row",
        help="with --smoke, 'vectorized' adds the hash-join transform "
        "leg on both engines and checks rows + page I/O agree",
    )
    args = parser.parse_args(argv)

    records: list[dict] = []
    for workload in WORKLOADS:
        records.extend(
            measure_workload(workload, args.repeats, args.smoke, args.engine)
        )
        compiled_gain = speedup(
            records, workload["name"],
            "nested_iteration[interpreted]", "nested_iteration[compiled]",
        )
        print(f"{workload['name']}: compiled speedup {compiled_gain:.2f}x")

    failures = []
    for workload in WORKLOADS:
        gain = speedup(
            records, workload["name"],
            "nested_iteration[interpreted]", "nested_iteration[compiled]",
        )
        if gain < 1.0:
            failures.append(
                f"{workload['name']}: compiled slower than interpreted "
                f"({gain:.2f}x)"
            )

    if args.smoke:
        for line in failures:
            print(f"FAIL {line}", file=sys.stderr)
        print("perf smoke " + ("FAILED" if failures else "passed"))
        return 1 if failures else 0

    args.output.write_text(json.dumps(records, indent=2) + "\n")
    print(f"[{len(records)} records written to {args.output}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
