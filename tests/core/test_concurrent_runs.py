"""Uncached runs from many threads on one catalog.

``Database.query`` / ``run`` plan each query and execute it in a
private session overlay, so concurrent runs never see, collide with or
drop each other's temp tables.  Every thread's result bag must equal
serial execution, and afterwards the shared catalog holds no temps and
the buffer pool no pinned frames.
"""

import threading
from collections import Counter

import pytest

from repro.api import Database

#: type-N, type-J, type-JA, type-A (a temp built during NEST-G), and
#: an aggregated root whose dedupe-outer fix-up stages a temp.
QUERIES = (
    "SELECT PNUM FROM PARTS WHERE PNUM IN "
    "(SELECT PNUM FROM SUPPLY WHERE QUAN > 2)",
    "SELECT PNUM, QOH FROM PARTS WHERE QOH IN "
    "(SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
    "SELECT PNUM FROM PARTS WHERE QOH = "
    "(SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM "
    "AND QUAN > 2)",
    "SELECT PNUM FROM PARTS WHERE QOH < "
    "(SELECT MAX(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM IN "
    "(SELECT PNUM FROM PARTS WHERE QOH = "
    "(SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)))",
    "SELECT COUNT(PNUM) FROM PARTS WHERE PNUM IN "
    "(SELECT PNUM FROM SUPPLY WHERE SUPPLY.QUAN = PARTS.QOH)",
)


def seed_db(**kwargs):
    # A pool far smaller than the temps: concurrent runs evict each
    # other's pages, so a shared temp namespace would fail loudly.
    db = Database(
        buffer_pages=16, dedupe_inner=True, dedupe_outer=True, **kwargs
    )
    db.create_table("PARTS", ["PNUM", "QOH"], rows_per_page=8)
    db.create_table(
        "SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "text")], rows_per_page=8
    )
    db.insert("PARTS", [(i % 90, i % 5) for i in range(120)])
    db.insert(
        "SUPPLY",
        [(i % 60, i % 6, "1979-06-0%d" % (1 + i % 9)) for i in range(300)],
    )
    return db


def hammer(db, threads: int, rounds: int, method: str = "auto"):
    """Each thread runs ``rounds`` queries; every bag must match serial."""
    expected = {
        sql: Counter(db.query(sql, method=method).rows) for sql in QUERIES
    }
    failures: list[BaseException] = []
    mismatches: list[str] = []
    start = threading.Barrier(threads, timeout=30)

    def worker(index: int) -> None:
        try:
            start.wait()
            for step in range(rounds):
                sql = QUERIES[(index + step) % len(QUERIES)]
                got = Counter(db.query(sql, method=method).rows)
                if got != expected[sql]:
                    mismatches.append(sql)
        except BaseException as error:  # surfaced in the main thread
            failures.append(error)

    workers = [
        threading.Thread(target=worker, args=(i,)) for i in range(threads)
    ]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    if failures:
        raise failures[0]
    assert not mismatches, f"{len(mismatches)} wrong: {mismatches[0]}"


def assert_clean(db) -> None:
    temps = [name for name in db.tables() if db.catalog.get(name).is_temp]
    assert temps == []
    assert not db.buffer._pinned


@pytest.mark.parametrize("method", ["auto", "transform"])
def test_eight_threads_match_serial(method):
    db = seed_db()
    hammer(db, threads=8, rounds=len(QUERIES) * 2, method=method)
    assert_clean(db)


def test_vectorized_parallel_engine_threads_match_serial():
    db = seed_db(engine="vectorized", parallelism=2, parallel_threshold=0)
    hammer(db, threads=8, rounds=len(QUERIES))
    assert_clean(db)


def test_explain_beside_running_queries():
    db = seed_db()
    sql = QUERIES[3]
    plan_text = db.explain(sql)
    failures: list[BaseException] = []
    stop = threading.Event()

    def runner() -> None:
        try:
            while not stop.is_set():
                db.query(sql)
        except BaseException as error:
            failures.append(error)

    thread = threading.Thread(target=runner)
    thread.start()
    try:
        explained = [db.explain(sql) for _ in range(15)]
    finally:
        stop.set()
        thread.join()
    if failures:
        raise failures[0]
    # Temp names are fresh per call; the plan's shape is not.
    assert {len(text.splitlines()) for text in explained} == {
        len(plan_text.splitlines())
    }
    assert_clean(db)


@pytest.mark.stress
def test_uncached_hammer_stress():
    db = seed_db()
    hammer(db, threads=8, rounds=len(QUERIES) * 4)
    assert_clean(db)
