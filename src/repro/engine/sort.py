"""External (B-1)-way merge sort.

The paper (section 7, quoting Kim's notation): "When it is necessary to
sort a relation, a (B-1)-way multi-way merge sort is used, which
requires 2·P·log_{B-1}(P) page I/O's to sort a relation R."

This module implements that sort for real: run formation fills the B
buffer pages, each merge pass combines up to B-1 runs, and every page
touched flows through the buffer pool so the measured I/O can be
compared against the model's ``2·P·log`` term.  An optional
``unique=True`` removes duplicate rows while sorting — the paper's
"sorting it and removing duplicates" step in building ``Rt2``/``Rt3``.

Order is defined once, by :func:`_orderable`.  Where a run's values
make it provably the same order, the sort compares the raw values with
a C-level key instead (see DESIGN.md, "Native sort order").
"""

from __future__ import annotations

import heapq
import operator
from collections.abc import Callable, Iterator, Sequence

from repro.engine.relation import Relation, temp_rows_per_page
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile


def sort_key(row: tuple, key_columns: Sequence[int]) -> tuple:
    """Total-order sort key: chosen columns first, whole row as tiebreak.

    NULL sorts before every value (an arbitrary but consistent choice),
    and the wrapper keeps Python from comparing None with ints.  Each
    value is wrapped once; the key columns reuse the row's wrappers.
    """
    whole = tuple(map(_orderable, row))
    return tuple([whole[i] for i in key_columns]) + whole


def _orderable(value: object) -> tuple:
    # Exact-type checks first: they cover nearly every value.  They are
    # False for bool (a subclass of int), which keeps its own branch.
    kind = type(value)
    if kind is int or kind is float:
        return (1, value, "")
    if kind is str:
        return (2, 0, value)
    if value is None:
        return (0, 0, "")
    if isinstance(value, bool):
        return (1, int(value), "")
    if isinstance(value, (int, float)):
        return (1, value, "")
    return (2, 0, str(value))


#: The native-order classes.  Values of one class compare with ``==``
#: exactly as their ``_orderable`` keys do (``1 == 1.0 == True``), and
#: with ``<`` wherever ``<`` does not raise; across classes ``<`` raises
#: (``None < 1``, ``1 < "a"``).  Exact types only: subclasses, dates and
#: Decimals order differently under ``_orderable``.
_NUMBER_TYPES = frozenset({int, float, bool})
_NATIVE_CLASSES = (_NUMBER_TYPES, frozenset({str}), frozenset({type(None)}))
NATIVE_TYPES = frozenset().union(*_NATIVE_CLASSES)


def native_class(types: set[type]) -> frozenset[type] | None:
    """The native-order class holding every type in ``types``, if any."""
    for native in _NATIVE_CLASSES:
        if types <= native:
            return native
    return None


def _native_key(
    key_columns: Sequence[int], width: int
) -> Callable[[tuple], object] | None:
    """The raw-value counterpart of :func:`sort_key` (None: the row itself).

    A row of one column with no key columns is already its own key, and
    ``itemgetter`` of one index would return a bare value, which cannot
    stand in for a tuple (``None < None`` raises; ``(None,) < (None,)``
    does not).
    """
    columns = (*key_columns, *range(width))
    return operator.itemgetter(*columns) if len(columns) > 1 else None


def external_sort(
    source: Relation,
    key_columns: Sequence[int],
    buffer: BufferPool,
    unique: bool = False,
    name: str | None = None,
) -> Relation:
    """Sort a relation by the given columns into a new heap-backed relation.

    Args:
        source: the input (heap-backed or in-memory).
        key_columns: tuple positions forming the (major) sort key.
        buffer: the buffer pool; its capacity is the paper's ``B``.
        unique: drop duplicate *rows* while sorting (sort-based
            duplicate elimination, as the paper's temp-table builds use).
        name: optional name for the output relation.
    """
    rows_per_page = (
        source.heap.rows_per_page
        if source.heap is not None
        else temp_rows_per_page(len(source.schema))
    )
    run_rows = max(1, buffer.capacity * rows_per_page)
    key = list(key_columns)
    width = len(source.schema)

    def wrapped(row: tuple) -> tuple:
        return sort_key(row, key)

    native = _native_key(key, width)
    runs, all_native = _form_runs(
        source, wrapped, native, width, run_rows, rows_per_page, buffer, unique
    )
    merge_key = native if all_native else wrapped
    result_heap = _merge_runs(runs, merge_key, rows_per_page, buffer, unique, name)
    return Relation(source.schema, heap=result_heap, name=name)


def _form_runs(
    source: Relation,
    wrapped: Callable[[tuple], tuple],
    native: Callable[[tuple], object] | None,
    width: int,
    run_rows: int,
    rows_per_page: int,
    buffer: BufferPool,
    unique: bool,
) -> tuple[list[HeapFile], bool]:
    """Scan the input, producing sorted runs of at most ``run_rows`` rows.

    Each run sorts with the ``native`` key when each of its columns holds
    one native-order class, else with ``wrapped``; both give the same
    permutation.  Also returns whether the union of the runs' column
    types is still one class per column, so the merge may compare the
    runs' rows natively too.
    """
    runs: list[HeapFile] = []
    chunk: list[tuple] = []
    seen: list[set[type]] | None = [set() for _ in range(width)]

    def emit() -> None:
        nonlocal seen
        if not chunk:
            return
        types = _column_types(chunk, width)
        if types is not None and all(map(native_class, types)):
            chunk.sort(key=native)
        else:
            chunk.sort(key=wrapped)
        if types is None:
            seen = None
        elif seen is not None:
            for union, column in zip(seen, types):
                union |= column
        rows: Iterator[tuple] | list[tuple] = chunk
        if unique:
            rows = _dedup_sorted(iter(chunk))
        run = HeapFile(buffer, rows_per_page=rows_per_page, name="sort-run")
        run.extend(rows)
        run.flush()
        runs.append(run)
        chunk.clear()

    for row in source:
        chunk.append(row)
        if len(chunk) >= run_rows:
            emit()
    emit()
    return runs, seen is not None and all(map(native_class, seen))


def _column_types(chunk: list[tuple], width: int) -> list[set[type]] | None:
    """Each column's set of value types; None if a row is not ``width`` wide."""
    try:
        types = [set(map(type, column)) for column in zip(*chunk, strict=True)]
    except ValueError:
        return None
    return types if len(types) == width else None


def _merge_runs(
    runs: list[HeapFile],
    key: Callable[[tuple], object] | None,
    rows_per_page: int,
    buffer: BufferPool,
    unique: bool,
    name: str | None,
) -> HeapFile:
    """(B-1)-way merge passes until a single run remains."""
    fan_in = max(2, buffer.capacity - 1)

    if not runs:
        return HeapFile(buffer, rows_per_page=rows_per_page, name=name)

    while len(runs) > 1:
        next_runs: list[HeapFile] = []
        for start in range(0, len(runs), fan_in):
            group = runs[start : start + fan_in]
            if len(group) == 1:
                next_runs.append(group[0])
                continue
            merged_iter = heapq.merge(*(run.scan() for run in group), key=key)
            rows: Iterator[tuple] = merged_iter
            if unique:
                rows = _dedup_sorted(rows)
            merged = HeapFile(buffer, rows_per_page=rows_per_page, name="sort-run")
            merged.extend(rows)
            merged.flush()
            for run in group:
                run.truncate()
            next_runs.append(merged)
        runs = next_runs

    result = runs[0]
    result.name = name
    return result


def _dedup_sorted(rows: Iterator[tuple]) -> Iterator[tuple]:
    """Drop consecutive duplicate rows from a sorted stream."""
    previous: tuple | None = None
    for row in rows:
        if row != previous:
            yield row
        previous = row


def sort_cost_model(pages: int, buffer_pages: int) -> float:
    """The paper's analytic sort cost: ``2·P·log_{B-1}(P)`` page I/Os.

    Continuous logarithm, as the paper's section 7.4 arithmetic implies
    (see DESIGN.md, "Cost-model logarithms").  Returns 0 for relations
    of one page or fewer.
    """
    import math

    if pages <= 1:
        return 0.0
    base = max(2, buffer_pages - 1)
    return 2.0 * pages * math.log(pages, base)
