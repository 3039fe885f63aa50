"""The native-order keys must reproduce the ``_orderable`` order exactly.

``external_sort`` and the merge operators compare raw values with C-level
keys where the value types allow it.  The reference implementations
below are the ``_orderable``-keyed originals: every value wrapped, every
comparison made on the wrappers.  Each case runs the operator and its
reference on identical fresh storage and requires the same output rows
(compared by ``repr``, so ``1``, ``1.0`` and ``True`` must also agree in
type and position), the same rows on every page, the same page reads,
writes and buffer hits, and the same row count.
"""

from __future__ import annotations

import bisect
import datetime
import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.sort as sort_module
from repro.engine.operators import merge_join
from repro.engine.relation import Relation, temp_rows_per_page
from repro.engine.schema import RowSchema
from repro.engine.sort import _orderable, external_sort
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heap import HeapFile

# -- the _orderable-keyed reference ------------------------------------------


def reference_sort_key(row, key_columns):
    whole = tuple(map(_orderable, row))
    return tuple([whole[i] for i in key_columns]) + whole


def reference_dedup(rows):
    previous = None
    for row in rows:
        if row != previous:
            yield row
        previous = row


def reference_external_sort(source, key_columns, buffer, unique=False):
    rows_per_page = (
        source.heap.rows_per_page
        if source.heap is not None
        else temp_rows_per_page(len(source.schema))
    )
    run_rows = max(1, buffer.capacity * rows_per_page)
    key = list(key_columns)

    def sort_key(row):
        return reference_sort_key(row, key)

    runs, chunk = [], []

    def emit():
        if not chunk:
            return
        chunk.sort(key=sort_key)
        run = HeapFile(buffer, rows_per_page=rows_per_page, name="sort-run")
        run.extend(reference_dedup(iter(chunk)) if unique else chunk)
        run.flush()
        runs.append(run)
        chunk.clear()

    for row in source:
        chunk.append(row)
        if len(chunk) >= run_rows:
            emit()
    emit()

    fan_in = max(2, buffer.capacity - 1)
    if not runs:
        runs = [HeapFile(buffer, rows_per_page=rows_per_page)]
    while len(runs) > 1:
        next_runs = []
        for start in range(0, len(runs), fan_in):
            group = runs[start : start + fan_in]
            if len(group) == 1:
                next_runs.append(group[0])
                continue
            rows = heapq.merge(*(run.scan() for run in group), key=sort_key)
            merged = HeapFile(buffer, rows_per_page=rows_per_page, name="sort-run")
            merged.extend(reference_dedup(rows) if unique else rows)
            merged.flush()
            for run in group:
                run.truncate()
            next_runs.append(merged)
        runs = next_runs
    return Relation(source.schema, heap=runs[0])


def reference_group_iterator(rows, key_columns, keep_nulls):
    current_key, group = None, []
    for row in rows:
        if not keep_nulls and any(row[i] is None for i in key_columns):
            continue
        key = tuple(_orderable(row[i]) for i in key_columns)
        if key != current_key:
            if current_key is not None:
                yield current_key, group
            current_key, group = key, []
        group.append(row)
    if current_key is not None:
        yield current_key, group


def reference_equi_join(left, right, left_key, right_key, mode, null_safe):
    right_nulls = (None,) * len(right.schema)
    groups = reference_group_iterator(iter(right), right_key, null_safe)
    current_key, current_group, exhausted = None, [], False
    for left_row in left:
        if not null_safe and any(left_row[i] is None for i in left_key):
            if mode == "left":
                yield left_row + right_nulls
            continue
        key = tuple(_orderable(left_row[i]) for i in left_key)
        while not exhausted and (current_key is None or current_key < key):
            try:
                current_key, current_group = next(groups)
            except StopIteration:
                exhausted, current_group = True, []
        matched = False
        if not exhausted and current_key == key:
            for right_row in current_group:
                matched = True
                yield left_row + right_row
        if mode == "left" and not matched:
            yield left_row + right_nulls


def reference_theta_join(left, right, left_key, right_key, op, mode):
    right_nulls = (None,) * len(right.schema)
    right_rows = [row for row in right if row[right_key] is not None]
    keys = [_orderable(row[right_key]) for row in right_rows]
    for left_row in left:
        value = left_row[left_key]
        if value is None:
            if mode == "left":
                yield left_row + right_nulls
            continue
        key = _orderable(value)
        lo, hi = bisect.bisect_left(keys, key), bisect.bisect_right(keys, key)
        matches = {
            "<": right_rows[:lo],
            "<=": right_rows[:hi],
            ">": right_rows[hi:],
            ">=": right_rows[lo:],
            "<>": right_rows[:lo] + right_rows[hi:],
        }[op]
        for right_row in matches:
            yield left_row + right_row
        if mode == "left" and not matches:
            yield left_row + right_nulls


def reference_merge_join(left, right, buffer, left_key, right_key, op, mode, null_safe):
    if op == "=":
        rows = reference_equi_join(left, right, left_key, right_key, mode, null_safe)
    else:
        rows = reference_theta_join(left, right, left_key[0], right_key[0], op, mode)
    return Relation.materialize(left.schema + right.schema, rows, buffer)


# -- harness -----------------------------------------------------------------


def schema(width, prefix="C"):
    return RowSchema([(None, f"{prefix}{i}") for i in range(width)])


def observe(operation, tables, buffer_pages, rows_per_page):
    """Run ``operation`` on fresh storage; everything it can be judged by."""
    disk = DiskManager()
    buffer = BufferPool(disk, capacity=buffer_pages)
    inputs = [
        Relation.materialize(
            schema(width, prefix), rows, buffer, rows_per_page=rows_per_page
        )
        for prefix, (width, rows) in zip("LR", tables)
    ]
    buffer.flush_all()
    buffer.evict_all()
    before = buffer.stats()
    result = operation(buffer, *inputs)
    after = buffer.stats()
    io = (
        after.page_reads - before.page_reads,
        after.page_writes - before.page_writes,
        after.buffer_hits - before.buffer_hits,
    )
    pages = [list(page) for page in result.heap.scan_pages()]
    return repr(pages), io, result.num_rows, len(result.heap.page_ids)


def assert_same(operation, reference, tables, buffer_pages, rows_per_page):
    got = observe(operation, tables, buffer_pages, rows_per_page)
    want = observe(reference, tables, buffer_pages, rows_per_page)
    assert got == want


# -- value strategies ----------------------------------------------------------

NUMBERS = st.one_of(
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, 2.5, -1.5]),
    st.floats(allow_nan=False, width=16),
)
STRINGS = st.text(alphabet="ab1-", max_size=3)
DATES = st.dates(datetime.date(2019, 12, 30), datetime.date(2020, 1, 3))
DATE_STRINGS = st.sampled_from(["2019-12-31", "2020-01-01", "2020-01-02"])

#: One pool per kind of column.  The first three are native-order
#: classes; the rest are ANY columns that need the ``_orderable`` keys.
COLUMN_KINDS = {
    "number": NUMBERS,
    "string": STRINGS,
    "null": st.none(),
    "number-or-null": st.one_of(st.none(), NUMBERS),
    "int-or-str": st.one_of(st.integers(-2, 2), STRINGS),
    "date-or-str": st.one_of(DATES, DATE_STRINGS),
    "anything": st.one_of(st.none(), NUMBERS, STRINGS, DATES),
}
NATIVE_KINDS = ["number", "string", "null"]
KINDS = sorted(COLUMN_KINDS)


@st.composite
def tables(draw, width=None, max_rows=40, kinds=None):
    """A table whose columns each draw from one kind of pool.

    Sometimes native-order rows come first and rows of the drawn kinds
    follow, so early runs sort natively and a later one may not.
    """
    width = width or draw(st.integers(1, 3))
    kinds = kinds or [draw(st.sampled_from(KINDS)) for _ in range(width)]
    if draw(st.booleans()):
        head_kinds = [draw(st.sampled_from(NATIVE_KINDS)) for _ in range(width)]
        head = draw(
            st.lists(
                st.tuples(*[COLUMN_KINDS[k] for k in head_kinds]),
                max_size=max_rows,
            )
        )
    else:
        head = []
    tail = draw(
        st.lists(st.tuples(*[COLUMN_KINDS[k] for k in kinds]), max_size=max_rows)
    )
    return width, head + tail


@st.composite
def sort_cases(draw):
    width, rows = draw(tables())
    key = draw(st.lists(st.integers(0, width - 1), max_size=3))
    return (width, rows), key


POOLS = st.integers(min_value=3, max_value=8)
PAGES = st.integers(min_value=1, max_value=4)


# -- external sort -------------------------------------------------------------


class TestExternalSortMatchesReference:
    @given(
        case=sort_cases(),
        buffer_pages=POOLS,
        rows_per_page=PAGES,
        unique=st.booleans(),
    )
    @settings(max_examples=250, deadline=None)
    def test_same_pages_io_and_order(self, case, buffer_pages, rows_per_page, unique):
        table, key = case
        assert_same(
            lambda buffer, source: external_sort(source, key, buffer, unique=unique),
            lambda buffer, source: reference_external_sort(
                source, key, buffer, unique=unique
            ),
            [table],
            buffer_pages,
            rows_per_page,
        )

    @given(
        buffer_pages=POOLS,
        rows_per_page=PAGES,
        runs=st.integers(1, 3),
        tail=st.lists(
            st.tuples(st.one_of(NUMBERS, STRINGS, st.none(), DATES)),
            min_size=1,
            max_size=8,
        ),
        unique=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_native_runs_then_a_mixed_last_run(
        self, buffer_pages, rows_per_page, runs, tail, unique
    ):
        # Whole runs of numbers, then a last run that mixes classes: the
        # first runs sort natively and the merge falls back.
        run_rows = buffer_pages * rows_per_page
        head = [((i * 7919) % 13 - 6 + (i % 2) * 0.5,) for i in range(runs * run_rows)]
        tail = tail[:run_rows]
        assert_same(
            lambda buffer, source: external_sort(source, [0], buffer, unique=unique),
            lambda buffer, source: reference_external_sort(
                source, [0], buffer, unique=unique
            ),
            [(1, head + tail)],
            buffer_pages,
            rows_per_page,
        )

    def test_ties_keep_input_order(self):
        rows = [(1, "x"), (True, "x"), (1.0, "x"), (0, "y"), (-0.0, "y"), (False, "y")]
        for key in ([0], [], [1, 0]):
            assert_same(
                lambda buffer, source: external_sort(source, key, buffer),
                lambda buffer, source: reference_external_sort(source, key, buffer),
                [(2, rows * 5)],
                3,
                2,
            )

    def test_native_runs_skip_the_wrapped_key(self, monkeypatch):
        calls = []
        original = sort_module.sort_key

        def counting(row, key_columns):
            calls.append(row)
            return original(row, key_columns)

        monkeypatch.setattr(sort_module, "sort_key", counting)
        homogeneous = [(i % 7, str(i % 3), None) for i in range(60)]
        sort = lambda buffer, source: external_sort(source, [1], buffer)  # noqa: E731
        # 8 frames x 2 rows a page: runs of 16 rows, one 7-way merge pass.
        observe(sort, [(3, homogeneous)], 8, 2)
        assert calls == []

        observe(sort, [(3, homogeneous + [("late", 0, None)])], 8, 2)
        # Only the last run (13 rows) and the merge pass (61) wrap rows.
        assert len(calls) == 13 + 61


# -- merge joins ---------------------------------------------------------------


@st.composite
def join_cases(draw):
    key_width = draw(st.integers(1, 2))
    # Both sides' columns usually share kinds, as joined columns do.
    kinds = [draw(st.sampled_from(KINDS)) for _ in range(key_width + 1)]
    shared = draw(st.booleans())
    left = draw(tables(key_width + 1, 20, kinds if shared else None))
    right = draw(tables(key_width + 1, 20, kinds if shared else None))
    return left, right, list(range(key_width))


def joined(key, join):
    """Sort both inputs on ``key`` (with the reference sort), then join."""

    def operation(buffer, left, right):
        return join(
            buffer,
            reference_external_sort(left, key, buffer),
            reference_external_sort(right, key, buffer),
        )

    return operation


class TestMergeJoinsMatchReference:
    @given(
        case=join_cases(),
        mode=st.sampled_from(["inner", "left"]),
        null_safe=st.booleans(),
        buffer_pages=POOLS,
        rows_per_page=PAGES,
    )
    @settings(max_examples=250, deadline=None)
    def test_equi_join(self, case, mode, null_safe, buffer_pages, rows_per_page):
        left, right, key = case
        assert_same(
            joined(
                key,
                lambda buffer, l, r: merge_join(
                    l, r, buffer, key, key, mode=mode, null_safe=null_safe
                ),
            ),
            joined(
                key,
                lambda buffer, l, r: reference_merge_join(
                    l, r, buffer, key, key, "=", mode, null_safe
                ),
            ),
            [left, right],
            buffer_pages,
            rows_per_page,
        )

    @given(
        left=tables(width=2, max_rows=20),
        right=tables(width=2, max_rows=20),
        op=st.sampled_from(["<", "<=", ">", ">=", "<>"]),
        mode=st.sampled_from(["inner", "left"]),
        buffer_pages=POOLS,
        rows_per_page=PAGES,
    )
    @settings(max_examples=250, deadline=None)
    def test_theta_join(self, left, right, op, mode, buffer_pages, rows_per_page):
        assert_same(
            joined(
                [0],
                lambda buffer, l, r: merge_join(
                    l, r, buffer, [0], [0], op=op, mode=mode
                ),
            ),
            joined(
                [0],
                lambda buffer, l, r: reference_merge_join(
                    l, r, buffer, [0], [0], op, mode, False
                ),
            ),
            [left, right],
            buffer_pages,
            rows_per_page,
        )

    def test_date_after_native_keys_switches_to_orderable(self):
        # The date equals its ISO string under _orderable but not under
        # ==; it arrives after native keys were already compared.
        left = [(1, "l1"), (2, "l2"), ("2020-01-01", "l3"), ("2020-01-01", "l4")]
        right = [
            (1, "r1"),
            (2, "r2"),
            ("2020-01-01", "r3"),
            (datetime.date(2020, 1, 1), "r4"),
        ]
        for mode in ("inner", "left"):
            assert_same(
                joined(
                    [0],
                    lambda buffer, l, r: merge_join(l, r, buffer, [0], [0], mode=mode),
                ),
                joined(
                    [0],
                    lambda buffer, l, r: reference_merge_join(
                        l, r, buffer, [0], [0], "=", mode, False
                    ),
                ),
                [(2, left), (2, right)],
                4,
                2,
            )
