"""Unit and property tests for heap files."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heap import HeapFile


def make_heap(rows_per_page=4, buffer_pages=4):
    disk = DiskManager()
    pool = BufferPool(disk, capacity=buffer_pages)
    return disk, pool, HeapFile(pool, rows_per_page=rows_per_page, name="T")


class TestHeapFile:
    def test_empty_heap(self):
        _, _, heap = make_heap()
        assert heap.num_pages == 0
        assert heap.num_rows == 0
        assert list(heap.scan()) == []

    def test_append_and_scan_preserves_order(self):
        _, _, heap = make_heap(rows_per_page=3)
        rows = [(i,) for i in range(10)]
        heap.extend(rows)
        assert list(heap.scan()) == rows

    def test_page_count_matches_ceiling_division(self):
        _, _, heap = make_heap(rows_per_page=4)
        heap.extend((i,) for i in range(10))
        assert heap.num_pages == 3  # ceil(10/4)
        assert heap.num_rows == 10

    def test_exact_page_boundary(self):
        _, _, heap = make_heap(rows_per_page=4)
        heap.extend((i,) for i in range(8))
        assert heap.num_pages == 2

    def test_scan_pages_groups_by_page(self):
        _, _, heap = make_heap(rows_per_page=4)
        heap.extend((i,) for i in range(6))
        pages = list(heap.scan_pages())
        assert [len(p) for p in pages] == [4, 2]

    def test_truncate_frees_pages(self):
        disk, _, heap = make_heap(rows_per_page=2)
        heap.extend((i,) for i in range(6))
        heap.truncate()
        assert heap.num_pages == 0
        assert heap.num_rows == 0
        assert disk.num_pages == 0

    def test_scan_costs_one_read_per_page_when_cold(self):
        disk, pool, heap = make_heap(rows_per_page=2, buffer_pages=4)
        heap.extend((i,) for i in range(8))  # 4 pages
        heap.flush()
        pool.evict_all()
        disk.reset_stats()
        list(heap.scan())
        assert disk.page_reads == 4

    def test_flush_writes_each_page_once(self):
        disk, _, heap = make_heap(rows_per_page=2, buffer_pages=8)
        heap.extend((i,) for i in range(8))  # 4 pages
        heap.flush()
        assert disk.page_writes == 4

    def test_append_after_scan(self):
        _, _, heap = make_heap(rows_per_page=2)
        heap.append_rows([(1,)])
        assert list(heap.scan()) == [(1,)]
        heap.append_rows([(2,), (3,)])
        assert list(heap.scan()) == [(1,), (2,), (3,)]


class TestHeapProperties:
    @given(
        rows=st.lists(st.tuples(st.integers(), st.integers()), max_size=200),
        rows_per_page=st.integers(min_value=1, max_value=7),
        buffer_pages=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_any_geometry(self, rows, rows_per_page, buffer_pages):
        """Whatever the page/buffer geometry, scan returns what was appended."""
        disk = DiskManager()
        pool = BufferPool(disk, capacity=buffer_pages)
        heap = HeapFile(pool, rows_per_page=rows_per_page)
        heap.extend(rows)
        assert list(heap.scan()) == rows
        expected_pages = (len(rows) + rows_per_page - 1) // rows_per_page
        assert heap.num_pages == expected_pages

    @given(
        n=st.integers(min_value=0, max_value=100),
        rows_per_page=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_cold_scan_reads_exactly_num_pages(self, n, rows_per_page):
        """A cold sequential scan costs exactly Pk page reads."""
        disk = DiskManager()
        pool = BufferPool(disk, capacity=2)
        heap = HeapFile(pool, rows_per_page=rows_per_page)
        heap.extend((i,) for i in range(n))
        heap.flush()
        pool.evict_all()
        disk.reset_stats()
        assert len(list(heap.scan())) == n
        assert disk.page_reads == heap.num_pages


class _SourceError(Exception):
    pass


def _failing_rows(count):
    """Yield ``count`` rows, then raise like a failing expression would."""
    yield from ((i,) for i in range(count))
    raise _SourceError("row source failed")


class TestFailedMaterialization:
    def test_failed_extends_release_the_write_cursor(self):
        """A row source that raises must not leave its tail page pinned.

        Each failed extend used to keep one frame pinned, so a handful
        of failed temp builds exhausted a small pool for good.
        """
        disk = DiskManager()
        pool = BufferPool(disk, capacity=4)
        for attempt in range(6):
            heap = HeapFile(pool, rows_per_page=3)
            with pytest.raises(_SourceError):
                heap.extend(_failing_rows(attempt + 1))
            # The rows produced before the error are kept and counted.
            assert heap.num_rows == attempt + 1
            assert not pool._pinned
        heap = HeapFile(pool, rows_per_page=3)
        heap.extend((i,) for i in range(10))
        heap.flush()
        assert list(heap.scan()) == [(i,) for i in range(10)]
        assert not pool._pinned


def reference_append(heap, row):
    """The former per-row ``HeapFile.append``: a pinned pool lookup of
    the tail for every tuple, a new page when the tail is full."""
    if heap.page_ids:
        tail = heap.buffer.get_page(heap.page_ids[-1], pin=True)
        if heap._tail_page is not None and heap._tail_page is not tail:
            heap._unpin_tail()
        heap._tail_page = tail
        if not tail.is_full:
            tail.append(row)
            heap._num_rows += 1
            return
    tail = heap._new_tail()
    tail.append(row)
    heap._num_rows += 1


def reference_extend(heap, rows):
    for row in rows:
        reference_append(heap, row)
    heap.close_writes()


class TestWritePathMatchesPerRowAppend:
    """``extend`` fills pages in slices but must do the I/O the per-row
    loop did: same reads, same writes, same page layout."""

    @staticmethod
    def write(extend, source_rows, source_rpp, target_rpp, buffer_pages, cuts):
        disk = DiskManager()
        pool = BufferPool(disk, capacity=buffer_pages)
        source = HeapFile(pool, rows_per_page=source_rpp, name="S")
        source.extend(source_rows)
        source.flush()
        pool.evict_all()
        disk.reset_stats()
        target = HeapFile(pool, rows_per_page=target_rpp, name="T")
        # Each call scans the source through the same pool, so source
        # faults interleave with tail allocations and cursor re-opens.
        for lo, hi in zip([0, *cuts], [*cuts, len(source_rows)]):
            extend(
                target,
                (row + (i,) for i, row in enumerate(source.scan()) if lo <= i < hi),
            )
        target.flush()
        io = (disk.page_reads, disk.page_writes)
        layout = [disk.read_page(page_id).rows for page_id in target.page_ids]
        return io, layout, target.num_rows

    @given(
        n=st.integers(min_value=0, max_value=80),
        source_rpp=st.integers(min_value=1, max_value=7),
        target_rpp=st.integers(min_value=1, max_value=7),
        buffer_pages=st.integers(min_value=2, max_value=5),
        cuts=st.lists(st.integers(min_value=0, max_value=80), max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_io_and_layout_as_per_row_loop(
        self, n, source_rpp, target_rpp, buffer_pages, cuts
    ):
        rows = [(i, i % 3) for i in range(n)]
        cuts = sorted(min(cut, n) for cut in cuts)
        args = (rows, source_rpp, target_rpp, buffer_pages, cuts)
        expected = self.write(reference_extend, *args)
        actual = self.write(HeapFile.extend, *args)
        assert actual == expected
