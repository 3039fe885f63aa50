"""The three workloads: set-up, the timed closed loop, and the checks.

Each workload drives the program only through ``repro.Database`` and
the prepared statements it returns.  Every engine setting keeps its
``Database`` default except ``buffer_pages`` and the two SQL-semantics
fix-ups, ``dedupe_inner=True, dedupe_outer=True``.

A workload object is set up once (:meth:`setup`), may run several timed
phases (:meth:`run`), and is checked once at the end (:meth:`check`),
outside every timed region.  :meth:`check` returns one message per
failed operation; a wrong result counts like an error.
"""

from __future__ import annotations

import os
import pathlib
import random
import resource
import threading
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

import queries as Q

perf = time.perf_counter
#: Where a run writes its span traces and temporary files.
OUT = pathlib.Path(__file__).resolve().parent.parent / ".perfbench_out"


@dataclass
class Counters:
    """Run-wide program counters read between operations."""

    io: object
    cache: object
    wal_bytes: int
    wal_flushes: int

    @classmethod
    def read(cls, db) -> "Counters":
        return cls(db.io_stats(), db.cache_stats(), db.wal.size, db.wal.flush_count)


def _reference_loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


class HostSpeed:
    """How fast the host runs this thread, sampled between operations.

    On a shared host the same code runs up to ~1.5x slower while other
    tenants load the hardware, in phases that last from under a second
    to minutes, and every wall time of a run follows.  At most every
    ``EVERY`` seconds, between two operations, the client runs a fixed
    pure-Python loop and times it in thread CPU time, so that waiting
    for the GIL does not count.  ``factor`` is ``NOMINAL_MS`` over that
    time: a time measured while the factor holds, multiplied by it, is
    the time at the reference speed.  The host's slowdown cancels; the
    program's own cost does not, since the loop is the benchmark's.
    """

    EVERY = 0.05
    LOOP = 13000
    #: About the loop's time on an unloaded core of the 2 GHz x86-64 VM
    #: the benchmark was tuned on; it only sets the scale.
    NOMINAL_MS = 1.0

    def __init__(self) -> None:
        _reference_loop(self.LOOP)  # specialise the bytecode first
        self.factor = 1.0
        self.factors: list[float] = []
        #: Wall time between samples, scaled by the factor in force.
        self.ref_seconds = 0.0
        self._mark = None

    def tick(self) -> None:
        """Sample, unless the last sample is more recent than ``EVERY``."""
        now = perf()
        if self._mark is not None:
            if now - self._mark < self.EVERY:
                return
            self.ref_seconds += (now - self._mark) * self.factor
        self.sample()
        self._mark = perf()

    def sample(self) -> float:
        """Time the reference loop now; the new ``factor``."""
        began = time.thread_time()
        _reference_loop(self.LOOP)
        ms = (time.thread_time() - began) * 1000.0
        if ms > 0:
            self.factor = self.NOMINAL_MS / ms
        self.factors.append(self.factor)
        return self.factor

    def stop(self) -> None:
        if self._mark is not None:
            self.ref_seconds += (perf() - self._mark) * self.factor
        self._mark = None


@dataclass
class Phase:
    """What one timed loop did.

    ``*_ref_*`` fields hold the same times at the reference speed
    (:class:`HostSpeed`).
    """

    seconds: float = 0.0
    ref_seconds: float = 0.0
    ops: int = 0
    failed: int = 0
    read_ms: list[float] = field(default_factory=list)
    read_ref_ms: list[float] = field(default_factory=list)
    #: Read latencies by query type, on workloads with fixed types.
    type_ms: dict[str, list[float]] = field(default_factory=dict)
    type_ref_ms: dict[str, list[float]] = field(default_factory=dict)
    #: Every ``HostSpeed.factor`` sampled during the loop.
    host_factors: list[float] = field(default_factory=list)
    write_ms: list[float] = field(default_factory=list)
    batch_ms: list[float] = field(default_factory=list)
    #: Result sets returned (an executemany call returns one per vector).
    queries: int = 0
    result_rows: int = 0
    writes: int = 0
    #: Sum of the per-query ``RunReport.io`` page I/O.
    report_ios: int = 0
    #: Run-wide page I/O and query count that ``page_ios_per_query``
    #: is taken from (see each workload's ``run``).
    io_pages: int = 0
    io_queries: int = 0
    before: Counters | None = None
    after: Counters | None = None
    #: Peak RSS once ``Workload.rss_after`` operations are done.
    rss_mb: float | None = None

    def add_read(self, ms: float, factor: float, label: str | None = None) -> None:
        self.read_ms.append(ms)
        self.read_ref_ms.append(ms * factor)
        if label is not None:
            self.type_ms.setdefault(label, []).append(ms)
            self.type_ref_ms.setdefault(label, []).append(ms * factor)

    def add_speed(self, speed: HostSpeed) -> None:
        """Take in the samples of a client's stopped ``speed``."""
        self.host_factors += speed.factors
        self.ref_seconds += speed.ref_seconds

    def finish(self, db, start: float) -> None:
        self.seconds = perf() - start
        self.after = Counters.read(db)
        if self.rss_mb is None:
            self.rss_mb = peak_rss_mb()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _database(buffer_pages: int):
    from repro import Database

    return Database(buffer_pages=buffer_pages, dedupe_inner=True, dedupe_outer=True)


def _load(db, parts: list[tuple], supply: list[tuple], rows_per_page: int) -> None:
    db.create_table(
        "PARTS", ["PNUM", "QOH"], primary_key=["PNUM"], rows_per_page=rows_per_page
    )
    db.create_table(
        "SUPPLY",
        ["PNUM", "QUAN", ("SHIPDATE", "date")],
        rows_per_page=rows_per_page,
    )
    db.insert("PARTS", parts)
    db.insert("SUPPLY", supply)


def _bag(rows) -> Counter:
    from repro.difftest.normalize import normalize_rows

    return normalize_rows(rows)


def _digest(bag: Counter) -> int:
    """An order-independent fingerprint of a result bag."""
    return hash(frozenset(bag.items()))


def _oracle(db):
    """A SQLite mirror of ``db``'s tables, indexed for correlated probes."""
    from repro.difftest.oracle import SQLiteOracle

    oracle = SQLiteOracle(db.catalog)
    oracle.connection.execute('CREATE INDEX "SUPPLY_PNUM" ON "SUPPLY" ("PNUM")')
    return oracle


def _oracle_bag(oracle, sql: str, cache: dict) -> Counter:
    """SQLite's answer to ``sql``; the oracle gets a parsed statement."""
    from repro import parse

    if sql not in cache:
        cache[sql] = _bag(oracle.run(parse(sql)))
    return cache[sql]


def _note_error(errors: list[str], what: str) -> None:
    if len(errors) < 5:
        errors.append(f"{what}\n{traceback.format_exc(limit=3)}")


def _operation(tracer, kind: str):
    """The root span of one operation, when the run is traced."""
    return nullcontext() if tracer is None else tracer.operation(kind)


class Workload:
    """Sizes and set-up shared by the three workloads."""

    name = ""
    why = ""
    parts_rows = 0
    supply_rows = 0
    rows_per_page = 0
    buffer_pages = 0
    clients = 1
    #: Percentile reported as ``query_tail_ms``.
    tail = 0.90
    #: ``peak_rss_mb`` is read after this many operations, a fixed
    #: amount of work: temp pages leak on the simulated disk, so a
    #: reading at the end of the run would grow with the run's speed.
    rss_after = 100

    def describe(self) -> str:
        pages = -(-self.parts_rows // self.rows_per_page) - (
            -self.supply_rows // self.rows_per_page
        )
        return (
            f"PARTS {self.parts_rows} + SUPPLY {self.supply_rows} rows at "
            f"{self.rows_per_page} rows/page = {pages} pages, "
            f"{self.buffer_pages}-frame pool, {self.clients} closed-loop client(s)"
        )

    def _build(self, seed: int):
        """A fresh database loaded with this seed's PARTS/SUPPLY rows."""
        self.parts, self.supply = Q.parts_supply_rows(
            random.Random(seed), self.parts_rows, self.supply_rows
        )
        self.db = _database(self.buffer_pages)
        _load(self.db, self.parts, self.supply, self.rows_per_page)
        self.errors: list[str] = []
        return self.db


class AnalyticCold(Workload):
    """Figure-1 queries round-robin on cold caches, data ~16x the pool."""

    name = "analytic-cold"
    why = (
        "Figure-1 N/J/JA queries on cold caches, data 16x the pool: executor "
        "kernels and the storage simulation do the work, planning <1%"
    )
    parts_rows = 1000
    supply_rows = 20000
    rows_per_page = 20
    buffer_pages = 64
    # A run gives 70-130 queries.  With the four query types round-robin,
    # p50 and p75 fall between two types' clusters; p80 lies inside the
    # slowest one.
    tail = 0.80
    rss_after = 40

    def setup(self, seed: int) -> None:
        # Write the loaded pages out once, so the run's page I/O is the
        # queries' own.
        self._build(seed).cold_cache()
        #: label -> first result bag; label -> page I/O of every run
        self.first: dict[str, Counter] = {}
        self.ios: dict[str, list[int]] = {label: [] for label, _ in Q.FIGURE1}
        self.wrong = 0
        self.io_mismatch = 0

    def run(self, seconds: float, tracer=None) -> Phase:
        """Whole rounds of the four queries until ``seconds`` have passed.

        The cache is emptied before each query, outside the timed
        region.  Whole rounds keep ``page_ios_per_query`` independent of
        how many rounds fit in the run.
        """
        db = self.db
        phase = Phase(before=Counters.read(db))
        speed = HostSpeed()
        start = perf()
        deadline = start + seconds
        while True:
            for label, sql in Q.FIGURE1:
                db.cold_cache()
                speed.tick()
                phase.ops += 1
                try:
                    with _operation(tracer, "query"):
                        began = perf()
                        report = db.run(sql, method="transform")
                        elapsed = (perf() - began) * 1000.0
                    phase.add_read(elapsed, speed.factor, label)
                except Exception:
                    phase.failed += 1
                    _note_error(self.errors, f"{label} failed")
                    continue
                self._record(label, report, phase)
                if phase.ops == self.rss_after:
                    phase.rss_mb = peak_rss_mb()
            if perf() >= deadline:
                break
        speed.stop()
        phase.add_speed(speed)
        phase.finish(db, start)
        phase.io_pages = (phase.after.io - phase.before.io).page_ios
        phase.io_queries = phase.queries
        if phase.io_pages != phase.report_ios:
            self.io_mismatch += 1
        return phase

    def _record(self, label: str, report, phase: Phase) -> None:
        rows = report.result.rows
        phase.queries += 1
        phase.result_rows += len(rows)
        phase.report_ios += report.io.page_ios
        self.ios[label].append(report.io.page_ios)
        bag = _bag(rows)
        if label not in self.first:
            self.first[label] = bag
        elif bag != self.first[label]:
            self.wrong += 1

    def check(self) -> list[str]:
        failures = [f"{self.wrong} repeat(s) returned different rows"] * self.wrong
        oracle = _oracle(self.db)
        try:
            for label, sql in Q.FIGURE1:
                if label in self.first:
                    if self.first[label] != _oracle_bag(oracle, sql, {}):
                        failures += [f"{label}: rows differ from SQLite"] * len(
                            self.ios[label]
                        )
        finally:
            oracle.close()
        for label, ios in self.ios.items():
            if len(set(ios)) > 1:
                failures.append(f"{label}: page I/O not repeatable: {sorted(set(ios))}")
        if self.io_mismatch:
            failures.append("summed RunReport.io differs from the io_stats() delta")
        return failures


class AdhocSmall(Workload):
    """Never-repeating nested queries, uncached, on data that fits."""

    name = "adhoc-small"
    why = (
        "never-repeating nested queries of every class, uncached, on 50 rows "
        "that fit the pool: parse, rewrite, NEST-G and verification do half the work"
    )
    parts_rows = 10
    supply_rows = 40
    rows_per_page = 10
    buffer_pages = 64
    tail = 0.99
    rss_after = 1000
    #: ``page_ios_per_query`` is taken over this fixed prefix of the
    #: seeded stream, so it repeats exactly for a seed however many
    #: queries the run completes.
    IO_WINDOW = 1000
    #: Queries re-run after the loop to show their page I/O repeats.
    REPEAT_SAMPLE = 50
    WARMUP = 20

    def setup(self, seed: int) -> None:
        db = self._build(seed)
        self.stream = Q.AdhocQueries(seed)
        for _ in range(self.WARMUP):
            db.run(self.stream.next()[1], method="auto")
        #: (sql, result rows, page I/O) of every completed query.
        self.log: list[tuple[str, list[tuple], int]] = []
        self.io_mismatch = 0

    def run(self, seconds: float, tracer=None) -> Phase:
        """Uncached ``auto`` queries from the stream until time is up.

        ``Database.run(sql, method="auto")`` is the call behind
        ``Database.query(sql)``; it also returns the per-query report
        whose page I/O the checks compare with the run-wide counters.
        """
        db = self.db
        phase = Phase(before=Counters.read(db))
        speed = HostSpeed()
        window = None
        start = perf()
        deadline = start + seconds
        while perf() < deadline:
            kind, sql = self.stream.next()
            speed.tick()
            phase.ops += 1
            try:
                with _operation(tracer, "query"):
                    began = perf()
                    report = db.run(sql, method="auto")
                    elapsed = (perf() - began) * 1000.0
                phase.add_read(elapsed, speed.factor)
            except Exception:
                phase.failed += 1
                _note_error(self.errors, f"{kind}: {sql}")
                continue
            rows = report.result.rows
            phase.queries += 1
            phase.result_rows += len(rows)
            phase.report_ios += report.io.page_ios
            self.log.append((sql, rows, report.io.page_ios))
            if phase.queries == self.IO_WINDOW:
                window = db.io_stats() - phase.before.io
            if phase.ops == self.rss_after:
                phase.rss_mb = peak_rss_mb()
        speed.stop()
        phase.add_speed(speed)
        phase.finish(db, start)
        total = (phase.after.io - phase.before.io).page_ios
        if total != phase.report_ios:
            self.io_mismatch += 1
        if window is None:
            phase.io_pages, phase.io_queries = total, phase.queries
        else:
            phase.io_pages, phase.io_queries = window.page_ios, self.IO_WINDOW
        return phase

    def check(self) -> list[str]:
        failures = []
        for sql, _rows, pages in self.log[: self.REPEAT_SAMPLE]:
            again = self.db.run(sql, method="auto").io.page_ios
            if again != pages:
                failures.append(f"page I/O not repeatable ({pages} then {again}): {sql}")
        oracle = _oracle(self.db)
        try:
            for sql, rows, _pages in self.log:
                if _bag(rows) != _oracle_bag(oracle, sql, {}):
                    failures.append(f"rows differ from SQLite: {sql}")
        finally:
            oracle.close()
        if self.io_mismatch:
            failures.append("summed RunReport.io differs from the io_stats() delta")
        return failures


class _Client:
    """One serving client: its own seeded op stream and statements."""

    def __init__(self, db, seed: int, index: int) -> None:
        self.db = db
        self.rng = random.Random(seed * 1000 + index)
        self.mix = Q.Deck(self.rng, Q.SERVING_MIX)
        self.shapes = Q.Deck(self.rng, zip(Q.read_shapes(), Q.SHAPE_COUNTS))
        self.prepared = [db.prepare(Q.marker(t)) for t in Q.READ_TEMPLATES]
        self.batch = self.prepared[Q.READ_TEMPLATES.index(Q.BATCH_TEMPLATE)]

    def warm_up(self) -> None:
        for statement in self.prepared:
            statement.execute((Q.CUTOFFS[0],))
        self.batch.executemany([(d,) for d in Q.BATCH_DATES[: Q.BATCH_SIZE]])

    def shape(self) -> tuple[int, str]:
        template, date = self.shapes.draw()
        return template, date or self.rng.choice(Q.CUTOFFS)


class ServingMixed(Workload):
    """Two clients on the serving paths, with autocommit inserts."""

    name = "serving-mixed"
    why = (
        "2 clients, 70% cached / 15% prepared / 5% executemany reads, 10% "
        "inserts: plan cache, sharing, batching, MVCC, WAL commits and lock "
        "contention"
    )
    parts_rows = 300
    supply_rows = 3000
    rows_per_page = 20
    buffer_pages = 256
    clients = 2

    def setup(self, seed: int) -> None:
        db = self._build(seed)
        for template in Q.READ_TEMPLATES:
            for date in Q.CUTOFFS:
                db.execute_cached(Q.literal(template, date))
        self.client_list = [_Client(db, seed, i) for i in range(self.clients)]
        for client in self.client_list:
            client.warm_up()
        self._lock = threading.Lock()
        #: Inserts begun / acknowledged so far (commit-count window).
        self.started = 0
        self.acked = 0
        #: (lo, hi, [(sql, result rows), ...]) per read; the read must
        #: match the committed state after some k in [lo, hi] inserts.
        self.reads: list[tuple[int, int, list[tuple[str, list]]]] = []
        self.inserted: list[tuple] = []

    def run(self, seconds: float, tracer=None) -> Phase:
        """Both clients in closed loops until ``seconds`` have passed."""
        db = self.db
        phase = Phase(before=Counters.read(db))
        start = perf()
        deadline = start + seconds
        self.done = 0
        self.rss_mb = None
        results = [Phase() for _ in self.client_list]
        threads = [
            threading.Thread(
                target=self._loop,
                args=(client, deadline, result, tracer),
                name=f"perfbench-client-{i}",
            )
            for i, (client, result) in enumerate(zip(self.client_list, results))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a serving client did not finish")
        phase.rss_mb = self.rss_mb
        phase.finish(db, start)
        for result in results:
            for name in (
                "ops", "failed", "queries", "result_rows", "writes", "report_ios",
            ):
                setattr(phase, name, getattr(phase, name) + getattr(result, name))
            phase.read_ms += result.read_ms
            phase.read_ref_ms += result.read_ref_ms
            phase.write_ms += result.write_ms
            phase.batch_ms += result.batch_ms
            phase.host_factors += result.host_factors
        # The clients ran side by side: the loop's time at the reference
        # speed is their mean.
        phase.ref_seconds = sum(r.ref_seconds for r in results) / len(results)
        phase.io_pages = (phase.after.io - phase.before.io).page_ios
        phase.io_queries = phase.queries
        return phase

    def _window(self) -> int:
        with self._lock:
            return self.acked

    def _loop(self, client: _Client, deadline: float, phase: Phase, tracer) -> None:
        client.speed = HostSpeed()
        while perf() < deadline:
            kind = client.mix.draw()
            client.speed.tick()
            phase.ops += 1
            try:
                with _operation(tracer, kind):
                    getattr(self, "_" + kind)(client, phase)
            except Exception:
                phase.failed += 1
                _note_error(self.errors, f"{kind} failed")
            with self._lock:
                self.done += 1
                if self.done == self.rss_after:
                    self.rss_mb = peak_rss_mb()
        client.speed.stop()
        phase.add_speed(client.speed)

    def _read(self, phase: Phase, run, sqls: list[str]) -> float:
        """Run a read, log it with its commit window; its latency in ms."""
        lo = self._window()
        began = perf()
        reports = run()
        elapsed = (perf() - began) * 1000.0
        with self._lock:
            hi = self.started
        # Keep the rows; check() digests them after the loop, so no
        # checking work falls inside the timed region.
        results = [(sql, report.result.rows) for sql, report in zip(sqls, reports)]
        with self._lock:
            self.reads.append((lo, hi, results))
        for report in reports:
            phase.queries += 1
            phase.result_rows += len(report.result.rows)
            phase.report_ios += report.io.page_ios
        return elapsed

    def _cached(self, client: _Client, phase: Phase) -> None:
        template, date = client.shape()
        sql = Q.literal(Q.READ_TEMPLATES[template], date)
        phase.add_read(
            self._read(phase, lambda: [self.db.execute_cached(sql)], [sql]),
            client.speed.factor,
        )

    def _prepared(self, client: _Client, phase: Phase) -> None:
        template, date = client.shape()
        statement = client.prepared[template]
        sql = Q.literal(Q.READ_TEMPLATES[template], date)
        phase.add_read(
            self._read(phase, lambda: [statement.execute((date,))], [sql]),
            client.speed.factor,
        )

    def _batch(self, client: _Client, phase: Phase) -> None:
        dates = client.rng.sample(Q.BATCH_DATES, Q.BATCH_SIZE)
        sqls = [Q.literal(Q.BATCH_TEMPLATE, d) for d in dates]
        phase.batch_ms.append(
            self._read(
                phase, lambda: client.batch.executemany([(d,) for d in dates]), sqls
            )
        )

    def _insert(self, client: _Client, phase: Phase) -> None:
        rng = client.rng
        row = (rng.randint(1, self.parts_rows), rng.randint(1, 9), rng.choice(Q.DATES))
        with self._lock:
            self.started += 1
        began = perf()
        self.db.insert("SUPPLY", [row])
        phase.write_ms.append((perf() - began) * 1000.0)
        with self._lock:
            self.acked += 1
            self.inserted.append(row)
        phase.writes += 1

    # -- checks --------------------------------------------------------------

    def check(self) -> list[str]:
        failures = self._check_durability()
        committed = self._commit_order()
        if Counter(committed) != Counter(self.inserted):
            failures.append("WAL insert records differ from the acknowledged inserts")
        failures += self._check_reads(committed)
        return failures

    def _commit_order(self) -> list[tuple]:
        """Inserted SUPPLY rows in commit order, from the WAL."""
        records = self.db.wal.records()
        committed = {r.txid for r in records if r.type == "commit"}
        rows = [
            tuple(row)
            for record in records
            if record.type == "insert"
            and record.txid in committed
            and record.payload["table"] == "SUPPLY"
            for row in record.payload["rows"]
        ]
        return rows[len(self.supply) :]  # the load committed first

    def _check_durability(self) -> list[str]:
        """Recover a database from the WAL bytes; every ack must be there."""
        from repro.txn import recover

        OUT.mkdir(exist_ok=True)
        path = OUT / f"wal-{os.getpid()}.log"
        path.write_bytes(self.db.wal.snapshot_bytes())
        try:
            recovered = recover(
                path,
                buffer_pages=self.buffer_pages,
                dedupe_inner=True,
                dedupe_outer=True,
            )
            rows = recovered.query("SELECT PNUM, QUAN, SHIPDATE FROM SUPPLY").rows
        finally:
            path.unlink()
        missing = Counter(self.supply + self.inserted) - Counter(map(tuple, rows))
        return [
            f"acknowledged insert {row} lost on recovery"
            for row, count in missing.items()
            for _ in range(count)
        ]

    def _check_reads(self, committed: list[tuple]) -> list[str]:
        """Replay the commits into a SQLite shadow; match each read's window."""
        oracle = _oracle(self.db)
        connection = oracle.connection
        try:
            connection.execute('DELETE FROM "SUPPLY"')
            connection.executemany('INSERT INTO "SUPPLY" VALUES (?, ?, ?)', self.supply)
            pending = sorted(
                (lo, hi, [(sql, _digest(_bag(rows))) for sql, rows in results])
                for lo, hi, results in self.reads
            )
            active: list[tuple[int, int, list]] = []
            failures = []
            position = 0

            def unmatched(read) -> str:
                lo, hi, results = read
                return (
                    f"read matches no committed state in [{lo}, {hi}]: "
                    f"{results[0][0]}"
                )

            for k in range(len(committed) + 1):
                if k:
                    connection.execute(
                        'INSERT INTO "SUPPLY" VALUES (?, ?, ?)', committed[k - 1]
                    )
                while position < len(pending) and pending[position][0] <= k:
                    active.append(pending[position])
                    position += 1
                answers: dict[str, Counter] = {}  # SQLite's, at state k
                still = []
                for read in active:
                    lo, hi, results = read
                    if all(
                        digest == _digest(_oracle_bag(oracle, sql, answers))
                        for sql, digest in results
                    ):
                        continue
                    if hi <= k:
                        failures.append(unmatched(read))
                    else:
                        still.append(read)
                active = still
            # A window reaching past the last commit (an insert that began
            # but never committed) has now seen every state it can match.
            failures += [unmatched(read) for read in active + pending[position:]]
            return failures
        finally:
            oracle.close()


WORKLOADS = {w.name: w for w in (AnalyticCold, AdhocSmall, ServingMixed)}
