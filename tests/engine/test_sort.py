"""Tests for the (B-1)-way external merge sort, incl. I/O accounting."""

import datetime
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.relation import Relation
from repro.engine.schema import RowSchema
from repro.engine.sort import _orderable, external_sort, sort_cost_model, sort_key
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager


def make_env(buffer_pages=4):
    disk = DiskManager()
    return disk, BufferPool(disk, capacity=buffer_pages)


def heap_relation(rows, buffer, rows_per_page=4, ncols=1):
    schema = RowSchema([(None, f"C{i}") for i in range(ncols)])
    return Relation.materialize(schema, rows, buffer, rows_per_page=rows_per_page)


class TestSortKey:
    def test_orders_by_key_columns_first(self):
        rows = [(2, "b"), (1, "z"), (2, "a")]
        ordered = sorted(rows, key=lambda r: sort_key(r, [0]))
        assert ordered == [(1, "z"), (2, "a"), (2, "b")]

    def test_null_sorts_first(self):
        rows = [(1,), (None,), (0,)]
        ordered = sorted(rows, key=lambda r: sort_key(r, [0]))
        assert ordered == [(None,), (0,), (1,)]

    def test_mixed_int_float(self):
        rows = [(1.5,), (1,), (2,)]
        ordered = sorted(rows, key=lambda r: sort_key(r, [0]))
        assert ordered == [(1,), (1.5,), (2,)]


class TestExternalSort:
    def test_empty_input(self):
        _, buffer = make_env()
        source = heap_relation([], buffer)
        result = external_sort(source, [0], buffer)
        assert result.to_list() == []
        assert result.num_pages == 0

    def test_single_page(self):
        _, buffer = make_env()
        source = heap_relation([(3,), (1,), (2,)], buffer)
        result = external_sort(source, [0], buffer)
        assert result.to_list() == [(1,), (2,), (3,)]

    def test_multi_run_merge(self):
        _, buffer = make_env(buffer_pages=2)
        values = list(range(100))
        random.Random(7).shuffle(values)
        source = heap_relation([(v,) for v in values], buffer, rows_per_page=3)
        result = external_sort(source, [0], buffer)
        assert result.to_list() == [(v,) for v in range(100)]

    def test_unique_removes_duplicate_rows(self):
        _, buffer = make_env()
        source = heap_relation([(2,), (1,), (2,), (1,), (1,)], buffer)
        result = external_sort(source, [0], buffer, unique=True)
        assert result.to_list() == [(1,), (2,)]

    def test_unique_keeps_distinct_rows_with_equal_keys(self):
        _, buffer = make_env()
        schema_rows = [(1, "a"), (1, "b"), (1, "a")]
        source = heap_relation(schema_rows, buffer, ncols=2)
        result = external_sort(source, [0], buffer, unique=True)
        assert result.to_list() == [(1, "a"), (1, "b")]

    def test_sort_on_second_column(self):
        _, buffer = make_env()
        source = heap_relation([(1, 9), (2, 3), (3, 5)], buffer, ncols=2)
        result = external_sort(source, [1], buffer)
        assert [r[1] for r in result.to_list()] == [3, 5, 9]

    def test_sorts_in_memory_source(self):
        _, buffer = make_env()
        schema = RowSchema([(None, "A")])
        source = Relation.from_rows(schema, [(3,), (1,)])
        result = external_sort(source, [0], buffer)
        assert result.to_list() == [(1,), (3,)]
        assert result.is_heap_backed

    def test_io_within_model_bound(self):
        """Measured sort I/O stays within the 2·P·(passes+1) envelope."""
        disk, buffer = make_env(buffer_pages=3)
        values = list(range(240))
        random.Random(3).shuffle(values)
        source = heap_relation([(v,) for v in values], buffer, rows_per_page=4)
        pages = source.num_pages  # 60
        buffer.evict_all()
        disk.reset_stats()

        external_sort(source, [0], buffer)

        runs0 = math.ceil(pages / buffer.capacity)
        passes = math.ceil(math.log(runs0, buffer.capacity - 1)) if runs0 > 1 else 0
        budget = 2 * pages * (passes + 1) + 2 * pages  # generous slack
        stats = disk.stats()
        assert stats.page_ios <= budget
        # And it is at least one full read+write of the input.
        assert stats.page_reads >= pages
        assert stats.page_writes >= pages

    def test_cost_model_matches_paper_formula(self):
        # 2 * P * log_{B-1}(P), continuous log.
        assert sort_cost_model(50, 6) == pytest.approx(
            2 * 50 * math.log(50, 5)
        )
        assert sort_cost_model(1, 6) == 0.0
        assert sort_cost_model(0, 6) == 0.0


class TestSortProperties:
    @given(
        values=st.lists(
            st.tuples(st.integers(-50, 50), st.integers(-3, 3)), max_size=120
        ),
        buffer_pages=st.integers(min_value=2, max_value=5),
        rows_per_page=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_sorted_and_permutation(self, values, buffer_pages, rows_per_page):
        disk, buffer = make_env(buffer_pages)
        schema = RowSchema([(None, "A"), (None, "B")])
        source = Relation.materialize(
            schema, values, buffer, rows_per_page=rows_per_page
        )
        result = external_sort(source, [0], buffer).to_list()
        assert sorted(values, key=lambda r: sort_key(r, [0])) == result

    @given(
        values=st.lists(st.integers(0, 9), max_size=80),
        buffer_pages=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_unique_equals_set(self, values, buffer_pages):
        disk, buffer = make_env(buffer_pages)
        source = heap_relation([(v,) for v in values], buffer, rows_per_page=2)
        result = external_sort(source, [0], buffer, unique=True).to_list()
        assert result == [(v,) for v in sorted(set(values))]


def reference_orderable(value):
    """The original ``_orderable``: the isinstance chain for every value."""
    if value is None:
        return (0, 0, "")
    if isinstance(value, bool):
        return (1, int(value), "")
    if isinstance(value, (int, float)):
        return (1, value, "")
    return (2, 0, str(value))


def reference_sort_key(row, key_columns):
    """The original ``sort_key``: each key column wrapped a second time."""
    return tuple(reference_orderable(row[i]) for i in key_columns) + tuple(
        reference_orderable(v) for v in row
    )


def reference_dedup(rows):
    out = []
    for row in rows:
        if not out or row != out[-1]:
            out.append(row)
    return out


mixed_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.integers(),
    st.floats(allow_nan=False),
    st.sampled_from([0.0, 1.0, -1.0, 2.5]),
    st.text(max_size=4),
    st.dates(),
)


@st.composite
def mixed_rows_and_key(draw):
    width = draw(st.integers(min_value=1, max_value=4))
    rows = draw(
        st.lists(
            st.tuples(*[mixed_values] * width), max_size=60
        )
    )
    key = draw(
        st.lists(st.integers(min_value=0, max_value=width - 1), max_size=3)
    )
    return width, rows, key


class TestSortKeyMatchesReference:
    """The once-per-value key must equal the original formulation.

    Keys are compared by ``repr`` so that ``1``, ``1.0`` and ``True``
    (equal under ``==``) must also agree in type.
    """

    @given(value=mixed_values)
    @settings(max_examples=300, deadline=None)
    def test_orderable_identical(self, value):
        # Merge join, grouping, nested iteration and index keys all
        # call _orderable directly.
        assert repr(_orderable(value)) == repr(reference_orderable(value))

    def test_orderable_subclasses_take_the_isinstance_path(self):
        class Small(int):
            pass

        for value in (True, False, Small(3), datetime.date(2020, 1, 2)):
            assert repr(_orderable(value)) == repr(reference_orderable(value))

    @given(case=mixed_rows_and_key())
    @settings(max_examples=200, deadline=None)
    def test_sort_key_identical(self, case):
        _width, rows, key = case
        for row in rows:
            assert repr(sort_key(row, key)) == repr(reference_sort_key(row, key))

    @given(
        case=mixed_rows_and_key(),
        buffer_pages=st.integers(min_value=2, max_value=4),
        rows_per_page=st.integers(min_value=1, max_value=4),
        unique=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_external_sort_order_identical(
        self, case, buffer_pages, rows_per_page, unique
    ):
        width, rows, key = case
        disk, buffer = make_env(buffer_pages)
        source = heap_relation(rows, buffer, rows_per_page, ncols=width)
        result = external_sort(source, key, buffer, unique=unique).to_list()
        expected = sorted(rows, key=lambda r: reference_sort_key(r, key))
        if unique:
            expected = reference_dedup(expected)
        assert repr(result) == repr(expected)
