"""Partition-parallel physical operators (the ``parallelism=N`` path).

Drop-in counterparts of the single-pass operators in
:mod:`repro.engine.operators` / :mod:`repro.engine.vectorized` that
scatter disjoint page shards of their input across the shared exchange
pool (:mod:`repro.engine.exchange`) and gather results in shard order.

**The page-I/O identity invariant.**  Every operator here preserves the
serial engines' page-I/O *totals* exactly, by construction:

* inputs are sharded at page granularity
  (:meth:`Relation.iter_partition_batches`) — the shards are disjoint
  and their union is the serial scan, so the reads across all workers
  sum to the serial schedule no matter how threads interleave;
* these are all single-pass operators — no worker ever re-reads a page
  within its pass, so eviction pressure cannot multiply reads the way
  it can for rescanning operators (nested-loop join and external sort
  therefore stay serial);
* workers return plain in-memory row batches; the output heap is
  materialized *serially* on the gathering thread, in shard order, so
  the output row stream — and hence page fill, page count, and write
  totals — is bit-identical to the serial operator's.

Row order is preserved under the default ``"range"`` partition scheme:
shard 0's pages precede shard 1's in scan order, so the ordered gather
reproduces the serial output sequence, not merely the same bag.  The
aggregate's merge step additionally relies on this to keep
first-appearance group order global (see
:func:`parallel_group_aggregate`).

Speedup comes from overlapping the simulated disk reads
(:class:`DiskManager` sleeps outside all locks), not from the
GIL-bound Python work — the same mechanism that scales the serving
layer's inter-query throughput, applied inside one query.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from functools import partial
from itertools import chain

from repro.engine.aggregate import AggSpec, apply_specs
from repro.engine.compile import try_compile_scalar
from repro.engine.exchange import run_tasks
from repro.engine.expression import EvalContext, eval_scalar
from repro.engine.operators import JoinMode, _row_predicate
from repro.engine.relation import Relation
from repro.engine.schema import RowSchema
from repro.engine.vectorized import _batch_mask, _batch_scalar, _columns, _rows
from repro.errors import ExecutionError
from repro.sql.ast import Expr
from repro.storage.buffer import BufferPool

__all__ = [
    "DEFAULT_PARALLEL_THRESHOLD",
    "parallel_distinct",
    "parallel_group_aggregate",
    "parallel_hash_join",
    "parallel_restrict_project",
]

#: Inputs below this row count run the serial operator even under
#: ``parallelism > 1``: the exchange's dispatch overhead exceeds any
#: I/O overlap on small inputs, and correctness is identical either
#: way.  Benchmarks and the difftest's parallel legs override it.
DEFAULT_PARALLEL_THRESHOLD = 2048


def _batch_processor(
    schema: RowSchema,
    predicate: Expr | None,
    projections: Sequence[tuple[Expr, str | None, str]] | None,
    engine: str,
) -> Callable[[list[tuple]], list[tuple]]:
    """A pure ``batch -> output rows`` function for restrict/project.

    Mirrors the serial operators exactly: the ``"vectorized"`` engine
    evaluates mask/scalar batch kernels (with the same per-expression
    scalar fallbacks), anything else evaluates the row engine's
    compiled-or-interpreted closures.  The returned function is
    stateless, so one instance is safely shared by every worker.
    """
    if engine == "vectorized":
        mask_fn = None if predicate is None else _batch_mask(predicate, schema)
        evaluators = (
            None
            if projections is None
            else [_batch_scalar(expr, schema) for expr, _, _ in projections]
        )

        def process(batch: list[tuple]) -> list[tuple]:
            if not batch:
                return []
            cols = _columns(batch, len(schema))
            if mask_fn is None:
                sel: list[int] | None = None
                count = len(batch)
            else:
                mask = mask_fn(cols, batch)
                sel = [i for i, value in enumerate(mask) if value is True]
                if not sel:
                    return []
                count = len(sel)
            if evaluators is None:
                return batch if sel is None else [batch[i] for i in sel]
            out_cols = [fn(cols, batch, sel) for fn in evaluators]
            return _rows(out_cols, count)

        return process

    keep = _row_predicate(predicate, schema)
    if projections is None:
        compute: Callable[[tuple], tuple] | None = None
    else:
        compiled_items = [
            try_compile_scalar(expr, schema) for expr, _, _ in projections
        ]
        if all(fn is not None for fn in compiled_items):

            def compute(row: tuple) -> tuple:
                return tuple(fn(row, None) for fn in compiled_items)

        else:

            def compute(row: tuple) -> tuple:
                context = EvalContext(row, schema)
                return tuple(
                    eval_scalar(expr, context) for expr, _, _ in projections
                )

    def process(batch: list[tuple]) -> list[tuple]:
        if keep is not None:
            batch = [row for row in batch if keep(row) is True]
        if compute is None:
            return batch
        return [compute(row) for row in batch]

    return process


def parallel_restrict_project(
    source: Relation,
    buffer: BufferPool,
    predicate: Expr | None = None,
    projections: Sequence[tuple[Expr, str | None, str]] | None = None,
    name: str | None = None,
    rows_per_page: int | None = None,
    *,
    parallelism: int = 2,
    engine: str = "row",
) -> Relation:
    """Partition-parallel selection + projection.

    Same contract as :func:`repro.engine.operators.restrict_project`
    (and its vectorized counterpart, chosen by ``engine``): workers
    filter and project disjoint page shards, the gather concatenates
    their outputs in shard order, and the result heap is materialized
    serially — identical rows, row order, pages, and I/O totals.
    """
    source_schema = source.schema
    if projections is None:
        out_schema = source_schema
    else:
        out_schema = RowSchema((qual, col) for _, qual, col in projections)
    process = _batch_processor(source_schema, predicate, projections, engine)
    nparts = source.partition_count(parallelism)

    def work(index: int) -> list[list[tuple]]:
        out: list[list[tuple]] = []
        for batch in source.iter_partition_batches(index, nparts):
            rows = process(batch)
            if rows:
                out.append(rows)
        return out

    shards = run_tasks(
        [partial(work, index) for index in range(nparts)], width=parallelism
    )
    return Relation.materialize(
        out_schema,
        chain.from_iterable(chain.from_iterable(shards)),
        buffer,
        rows_per_page=rows_per_page,
        name=name,
    )


def parallel_hash_join(
    left: Relation,
    right: Relation,
    buffer: BufferPool,
    left_key: Sequence[int],
    right_key: Sequence[int],
    mode: JoinMode = "inner",
    name: str | None = None,
    null_safe: bool = False,
    residual: Callable[[tuple], object] | None = None,
    *,
    parallelism: int = 2,
) -> Relation:
    """Shared-build, partitioned-probe hash equi join.

    Build follows :func:`repro.engine.operators.hash_join` to the
    letter (read once, duplicate chains in insertion order, NULL keys
    skipped unless ``null_safe``) and runs serially on the calling
    thread — one build, read-only afterwards, so workers probe it
    without any synchronization.  The probe side is sharded; each
    worker emits matches in its shard's scan order and the ordered
    gather restores the serial probe order, so output rows, NULL
    padding under ``mode="left"``, and in-join ``residual`` semantics
    are all exactly the serial operator's.

    (A partitioned build with per-worker tables merged was the
    alternative; the shared build wins here because the probe side is
    the large input in every plan this executor produces, and merging
    duplicate chains across worker tables would have to re-sort them
    into insertion order to keep output order deterministic.)
    """
    out_schema = left.schema + right.schema
    right_nulls = (None,) * len(right.schema)
    build_key = list(right_key)
    probe_key = list(left_key)

    table: dict[tuple, list[tuple]] = {}
    for build_batch in right.iter_batches():
        for row in build_batch:
            if not null_safe and any(row[i] is None for i in build_key):
                continue
            table.setdefault(tuple(row[i] for i in build_key), []).append(row)

    nparts = left.partition_count(parallelism)
    left_outer = mode == "left"

    def probe(index: int) -> list[list[tuple]]:
        get = table.get
        out: list[list[tuple]] = []
        for batch in left.iter_partition_batches(index, nparts):
            chunk: list[tuple] = []
            append = chunk.append
            for left_row in batch:
                matched = False
                if null_safe or not any(
                    left_row[i] is None for i in probe_key
                ):
                    key = tuple(left_row[i] for i in probe_key)
                    bucket = get(key)
                    if bucket is not None:
                        for right_row in bucket:
                            combined = left_row + right_row
                            if (
                                residual is not None
                                and residual(combined) is not True
                            ):
                                continue
                            matched = True
                            append(combined)
                if left_outer and not matched:
                    append(left_row + right_nulls)
            if chunk:
                out.append(chunk)
        return out

    shards = run_tasks(
        [partial(probe, index) for index in range(nparts)],
        width=parallelism,
    )
    return Relation.materialize(
        out_schema,
        chain.from_iterable(chain.from_iterable(shards)),
        buffer,
        name=name,
    )


def parallel_group_aggregate(
    source: Relation,
    buffer: BufferPool,
    group_columns: Sequence[int],
    specs: Sequence[AggSpec],
    out_names: Sequence[tuple[str | None, str]],
    name: str | None = None,
    always_emit: bool = False,
    *,
    parallelism: int = 2,
) -> Relation:
    """Partition-parallel grouped aggregation: partial, merge, finalize.

    Workers build per-shard ``group key -> row list`` partials; the
    gather merges them *in shard order* and finalizes each group with
    the shared :func:`~repro.engine.aggregate.apply_specs` — the same
    code path every serial aggregate uses, so 3VL and NULL semantics
    (SUM over an empty group is NULL, COUNT is 0, ``always_emit`` for
    the empty scalar aggregate) are inherited, not reimplemented.

    Two order guarantees make this a drop-in for both serial shapes:

    * merging shards in range order makes the merged dict's insertion
      order the *global* first-appearance order (a key's first global
      appearance lies in the earliest shard containing it), matching
      the hash aggregates exactly;
    * each key's row list concatenates shard sublists in range order,
      i.e. scan order — so order-sensitive finalization sees the serial
      row sequence, and over key-sorted input first-appearance order
      *is* sorted order, matching the streaming sorted aggregate too.
    """
    expected = len(group_columns) + len(specs)
    if len(out_names) != expected:
        raise ExecutionError(
            f"group_aggregate needs {expected} output names, got {len(out_names)}"
        )
    out_schema = RowSchema(out_names)
    group_cols = list(group_columns)
    agg_specs = list(specs)
    nparts = source.partition_count(parallelism)

    if not group_cols:

        def collect(index: int) -> list[tuple]:
            rows: list[tuple] = []
            for batch in source.iter_partition_batches(index, nparts):
                rows.extend(batch)
            return rows

        parts = run_tasks(
            [partial(collect, index) for index in range(nparts)],
            width=parallelism,
        )
        all_rows = [row for part in parts for row in part]
        output: list[tuple] = []
        if all_rows or always_emit:
            output = [tuple(apply_specs(all_rows, agg_specs))]
        return Relation.materialize(out_schema, output, buffer, name=name)

    def build(index: int) -> dict[tuple, list[tuple]]:
        groups: dict[tuple, list[tuple]] = {}
        setdefault = groups.setdefault
        for batch in source.iter_partition_batches(index, nparts):
            for row in batch:
                setdefault(tuple(row[i] for i in group_cols), []).append(row)
        return groups

    parts = run_tasks(
        [partial(build, index) for index in range(nparts)], width=parallelism
    )
    merged: dict[tuple, list[tuple]] = {}
    for part in parts:
        for key, rows in part.items():
            existing = merged.get(key)
            if existing is None:
                merged[key] = rows
            else:
                existing.extend(rows)
    output = [
        key + tuple(apply_specs(rows, agg_specs))
        for key, rows in merged.items()
    ]
    return Relation.materialize(out_schema, output, buffer, name=name)


def parallel_distinct(
    source: Relation,
    buffer: BufferPool,
    name: str | None = None,
    *,
    parallelism: int = 2,
) -> Relation:
    """Partition-parallel duplicate elimination, first occurrence kept.

    Workers dedupe within their shard (preserving shard scan order);
    the gather re-checks against a global seen-set in shard order, so
    the survivors are exactly the serial operator's: the first global
    occurrence of each distinct row, in scan order.
    """
    nparts = source.partition_count(parallelism)

    def dedupe(index: int) -> list[list[tuple]]:
        local_seen: set[tuple] = set()
        out: list[list[tuple]] = []
        for batch in source.iter_partition_batches(index, nparts):
            rows = [row for row in dict.fromkeys(batch) if row not in local_seen]
            local_seen.update(rows)
            if rows:
                out.append(rows)
        return out

    parts = run_tasks(
        [partial(dedupe, index) for index in range(nparts)], width=parallelism
    )
    seen: set[tuple] = set()

    def batches() -> Iterator[list[tuple]]:
        for part in parts:
            for batch in part:
                rows = [row for row in batch if row not in seen]
                seen.update(rows)
                if rows:
                    yield rows

    return Relation.materialize(
        source.schema, chain.from_iterable(batches()), buffer, name=name
    )
