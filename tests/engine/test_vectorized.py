"""The columnar batch engine: operator equivalence, residual
decomposition, 3VL edge cases, and the engine toggle.

The row interpreter is the semantics oracle: every batch operator must
produce the row operator's exact output relation (bag *and* page
count), and whole queries must agree across
interpreted / vectorized / SQLite — the difftest's engine-leg contract,
pinned here on hand-picked NULL-heavy edges.
"""

from collections import Counter

import pytest

from repro.catalog.schema import schema
from repro.core.pipeline import Engine
from repro.difftest.normalize import normalize_rows
from repro.difftest.oracle import SQLiteOracle
from repro.engine.aggregate import AggSpec
from repro.engine.compile import interpreted_only
from repro.engine.operators import (
    _row_predicate,
    hash_distinct,
    hash_group_aggregate,
    hash_join,
    restrict_project,
)
from repro.engine.relation import Relation
from repro.engine.schema import RowSchema
from repro.engine.vectorized import (
    vectorized_distinct,
    vectorized_group_aggregate,
    vectorized_hash_join,
    vectorized_restrict_project,
)
from repro.sql.ast import And, ColumnRef, Comparison, Literal
from repro.sql.parser import parse
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.workloads.paper_data import fresh_catalog


def make_buffer(capacity=16):
    return BufferPool(DiskManager(), capacity=capacity)


def rel(buffer, qualifier, columns, rows, rows_per_page=4):
    sch = RowSchema([(qualifier, c) for c in columns])
    return Relation.materialize(sch, rows, buffer, rows_per_page=rows_per_page)


LEFT_ROWS = [(1, 10), (2, None), (None, 30), (2, 21), (5, None), (None, None)]
RIGHT_ROWS = [(2, 20), (None, 99), (2, 21), (7, None), (1, 10), (None, None)]


def same_relation(vec: Relation, row: Relation) -> None:
    """Bag-equal rows and identical page geometry."""
    assert Counter(vec.to_list()) == Counter(row.to_list())
    assert vec.num_pages == row.num_pages


class TestOperatorEquivalence:
    """Each batch operator against its row counterpart, NULLs included."""

    def test_restrict_project(self):
        buffer = make_buffer()
        source = rel(buffer, "T", ["A", "B"], LEFT_ROWS)
        predicate = parse("SELECT T.A FROM T WHERE T.A < 5").where
        projections = [
            (ColumnRef("T", "B"), "T", "B"),
            (ColumnRef("T", "A"), "T", "A"),
        ]
        vec = vectorized_restrict_project(
            rel(buffer, "T", ["A", "B"], LEFT_ROWS), buffer,
            predicate=predicate, projections=projections,
        )
        row = restrict_project(
            source, buffer, predicate=predicate, projections=projections
        )
        same_relation(vec, row)

    def test_restrict_project_interpreted_fallback(self):
        """Under interpreted_only every expression takes the scalar path."""
        buffer = make_buffer()
        predicate = parse("SELECT T.A FROM T WHERE T.B >= 10").where
        with interpreted_only():
            vec = vectorized_restrict_project(
                rel(buffer, "T", ["A", "B"], LEFT_ROWS), buffer,
                predicate=predicate,
            )
        row = restrict_project(
            rel(buffer, "T", ["A", "B"], LEFT_ROWS), buffer,
            predicate=predicate,
        )
        same_relation(vec, row)

    @pytest.mark.parametrize("mode", ["inner", "left"])
    @pytest.mark.parametrize("null_safe", [False, True])
    def test_hash_join_modes(self, mode, null_safe):
        buffer = make_buffer()
        left = rel(buffer, "L", ["K", "V"], LEFT_ROWS)
        right = rel(buffer, "R", ["K", "W"], RIGHT_ROWS)
        vec = vectorized_hash_join(
            left, right, buffer, [0], [0], mode=mode, null_safe=null_safe
        )
        row = hash_join(
            left, right, buffer, [0], [0], mode=mode, null_safe=null_safe
        )
        same_relation(vec, row)

    def test_hash_join_null_key_matches_only_null_safe(self):
        """NULL keys: invisible under ``=``, one group under ``<=>``."""
        buffer = make_buffer()
        left = rel(buffer, "L", ["K"], [(None,), (1,)])
        right = rel(buffer, "R", ["K"], [(None,), (1,)])
        plain = vectorized_hash_join(left, right, buffer, [0], [0])
        assert plain.to_list() == [(1, 1)]
        safe = vectorized_hash_join(
            left, right, buffer, [0], [0], null_safe=True
        )
        assert Counter(safe.to_list()) == Counter([(None, None), (1, 1)])

    def test_distinct(self):
        buffer = make_buffer()
        rows = [(1, 1), (2, 2), (1, 1), (None, None), (2, 2), (None, None)]
        vec = vectorized_distinct(rel(buffer, "T", ["A", "B"], rows), buffer)
        row = hash_distinct(rel(buffer, "T", ["A", "B"], rows), buffer)
        same_relation(vec, row)
        # First occurrence kept, input order preserved.
        assert vec.to_list() == [(1, 1), (2, 2), (None, None)]

    @pytest.mark.parametrize("distinct", [False, True])
    def test_group_aggregate(self, distinct):
        buffer = make_buffer()
        rows = [(1, 5), (2, None), (1, 5), (None, 7), (2, 3), (None, None)]
        specs = [
            AggSpec("COUNT", None),
            AggSpec("COUNT", 1, distinct=distinct),
            AggSpec("SUM", 1, distinct=distinct),
            AggSpec("MIN", 1),
            AggSpec("AVG", 1),
        ]
        names = [(None, c) for c in ["K", "C", "CD", "S", "M", "A"]]
        vec = vectorized_group_aggregate(
            rel(buffer, "T", ["K", "V"], rows), buffer, [0], specs, names
        )
        row = hash_group_aggregate(
            rel(buffer, "T", ["K", "V"], rows), buffer, [0], specs, names
        )
        same_relation(vec, row)
        # Emission order is first appearance, like the row operator.
        assert [r[0] for r in vec.to_list()] == [r[0] for r in row.to_list()]

    def test_ungrouped_aggregate_of_empty_input(self):
        """SQL scalar-aggregate row: COUNT is 0, SUM/MIN/AVG are NULL."""
        buffer = make_buffer()
        specs = [AggSpec("COUNT", 0), AggSpec("SUM", 0), AggSpec("MIN", 0)]
        names = [(None, c) for c in ["C", "S", "M"]]
        vec = vectorized_group_aggregate(
            rel(buffer, "T", ["V"], []), buffer, [], specs, names,
            always_emit=True,
        )
        assert vec.to_list() == [(0, None, None)]


def column(schema: RowSchema, index: int) -> ColumnRef:
    qualifier, name = schema.fields[index]
    return ColumnRef(qualifier, name)


class _Residual:
    """A combined-row callable carrying its source expression — the
    shape :meth:`SingleLevelExecutor._residual_callable` produces."""

    def __init__(self, expr, schema):
        self.expr = expr
        self.schema = schema
        self._check = _row_predicate(expr, schema)

    def __call__(self, combined):
        return self._check(combined)


class TestResidualDecomposition:
    """The vectorized join's conjunct classification: every decomposed
    form must match the row join evaluating the full residual per
    candidate row."""

    def setup_method(self):
        self.buffer = make_buffer()
        self.left = rel(self.buffer, "L", ["K", "V"], LEFT_ROWS)
        self.right = rel(self.buffer, "R", ["K", "W"], RIGHT_ROWS)
        self.schema = self.left.schema + self.right.schema

    def _check(self, expr, mode="inner", null_safe=False):
        residual = _Residual(expr, self.schema)
        vec = vectorized_hash_join(
            self.left, self.right, self.buffer, [0], [0],
            mode=mode, null_safe=null_safe, residual=residual,
        )
        row = hash_join(
            self.left, self.right, self.buffer, [0], [0],
            mode=mode, null_safe=null_safe, residual=residual,
        )
        same_relation(vec, row)
        return vec

    def test_cross_side_equality_folds_into_key(self):
        # L.V = R.W: rows with NULL on either side never match.
        expr = Comparison(column(self.schema, 1), "=", column(self.schema, 3))
        self._check(expr)

    def test_null_safe_equality_fold_matches_nulls(self):
        # L.V <=> R.W: NULL pairs *do* match; mixed NULL/value do not.
        expr = Comparison(
            column(self.schema, 1), "=", column(self.schema, 3),
            null_safe=True,
        )
        self._check(expr)
        # On data where a key-matching pair is NULL/NULL in V/W, the
        # <=> fold must admit it into the composite hash key.
        left = rel(self.buffer, "L", ["K", "V"], [(2, None), (2, 7)])
        right = rel(self.buffer, "R", ["K", "W"], [(2, None), (2, 8)])
        residual = _Residual(expr, self.schema)
        vec = vectorized_hash_join(
            left, right, self.buffer, [0], [0], residual=residual
        )
        row = hash_join(
            left, right, self.buffer, [0], [0], residual=residual
        )
        same_relation(vec, row)
        assert (2, None, 2, None) in vec.to_list()

    def test_one_sided_conjuncts_push_to_build_and_probe(self):
        expr = And((
            Comparison(column(self.schema, 1), ">", Literal(5)),   # left-only
            Comparison(column(self.schema, 3), "<", Literal(50)),  # right-only
        ))
        self._check(expr)

    def test_mixed_decomposition_with_leftover(self):
        # Fold + pushdown + a non-foldable cross-side comparison.
        expr = And((
            Comparison(column(self.schema, 1), "=", column(self.schema, 3)),
            Comparison(column(self.schema, 0), ">=", Literal(0)),
            Comparison(column(self.schema, 0), "<=", column(self.schema, 3)),
        ))
        self._check(expr)

    @pytest.mark.parametrize("null_safe", [False, True])
    def test_left_outer_pads_when_residual_fails(self, null_safe):
        # A left row whose matches all flunk the residual is padded.
        expr = Comparison(column(self.schema, 3), ">", Literal(98))
        vec = self._check(expr, mode="left", null_safe=null_safe)
        padded = [r for r in vec.to_list() if r[2] is None and r[3] is None]
        assert padded  # unmatched lefts survive with NULL right side

    def test_interpreted_mode_skips_decomposition(self):
        # Same answers with the compiler (and decomposition) disabled.
        expr = And((
            Comparison(column(self.schema, 1), "=", column(self.schema, 3)),
            Comparison(column(self.schema, 1), ">", Literal(0)),
        ))
        with interpreted_only():
            self._check(expr)


def _catalog_with_nulls():
    catalog = fresh_catalog()
    catalog.create_table(schema("T", "A", "B"))
    catalog.create_table(schema("U", "A", "C"))
    catalog.insert(
        "T", [(0, 1), (1, None), (None, 2), (2, 2), (3, None), (None, None)]
    )
    catalog.insert(
        "U", [(0, 0), (1, None), (None, 1), (2, 0), (2, None), (None, None)]
    )
    return catalog


#: NULL-heavy probes for the three-valued-logic edges the batch kernels
#: must reproduce exactly (satellite: 3VL edge-case coverage).
THREE_VL_QUERIES = [
    # NULL join keys under = (never match) vs <=> (match each other).
    "SELECT T.A, U.C FROM T, U WHERE T.A = U.A",
    "SELECT T.A, U.C FROM T, U WHERE T.A <=> U.A",
    # SUM over an empty/all-NULL group is NULL (equals nothing);
    # COUNT over the same group is 0 (a perfectly matchable value).
    "SELECT T.A FROM T WHERE "
    "T.B = (SELECT SUM(U.C) FROM U WHERE U.A = T.A)",
    "SELECT T.A FROM T WHERE "
    "(SELECT COUNT(U.C) FROM U WHERE U.A = T.A) = 0",
    # Quantifiers under exact counting: empty sets satisfy ALL,
    # NULL comparisons poison ANY/ALL the SQL way.
    "SELECT T.A FROM T WHERE T.B > ALL (SELECT U.C FROM U WHERE U.A = T.A)",
    "SELECT T.A FROM T WHERE T.B = ANY (SELECT U.C FROM U WHERE U.A = T.A)",
    "SELECT T.A FROM T WHERE T.B <> ALL (SELECT U.C FROM U)",
]


class TestThreeValuedLogic:
    """Interpreted row engine, vectorized engine, and SQLite must agree
    on every 3VL edge (the difftest engine-leg contract, pinned)."""

    @pytest.mark.parametrize("sql", THREE_VL_QUERIES)
    def test_engines_agree_with_sqlite(self, sql):
        select = parse(sql)
        catalog = _catalog_with_nulls()
        with SQLiteOracle(catalog) as oracle:
            expected = normalize_rows(oracle.run(select))

        legs = {}
        for leg, engine, compiled in (
            ("interpreted", "row", False),
            ("compiled", "row", True),
            ("vectorized", "vectorized", True),
        ):
            runner = Engine(
                catalog, join_method="hash", dedupe_inner=True,
                dedupe_outer=True, engine=engine,
            )
            if compiled:
                report = runner.run(select, method="transform")
            else:
                with interpreted_only():
                    report = runner.run(select, method="transform")
            legs[leg] = (
                normalize_rows(report.result.rows), report.io.page_ios
            )

        for leg, (bag, _) in legs.items():
            assert bag == expected, f"{leg} disagrees with sqlite: {sql}"
        # Page I/O identity across engine legs (cold-cache equivalent:
        # all three legs start from the same warmed state in turn).
        assert len({pages for _, pages in legs.values()}) <= 2

    def test_sum_empty_group_is_null_count_is_zero(self):
        catalog = _catalog_with_nulls()
        engine = Engine(catalog, join_method="hash", engine="vectorized")
        report = engine.run(
            "SELECT T.A FROM T WHERE "
            "(SELECT COUNT(U.C) FROM U WHERE U.A = T.A) = 0",
            method="transform",
        )
        # COUNT(U.C) skips NULL C: T.A=1 pairs only with U(1, NULL), so
        # its count is 0, same as T.A=3 (no partner) and the NULL T.A
        # rows (NULL = U.A matches nothing).  T.A=0 and T.A=2 each have
        # a non-NULL C partner.
        assert Counter(report.result.rows) == Counter(
            [(1,), (3,), (None,), (None,)]
        )


class TestEngineToggle:
    """engine="vectorized" flows through Engine, the plan cache, and
    prepared statements, and is part of the plan-cache key."""

    def test_engine_validates(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            Engine(_catalog_with_nulls(), engine="columnar")

    def test_engine_config_separates_cache_keys(self):
        catalog = _catalog_with_nulls()
        row = Engine(catalog, engine="row")
        vec = Engine(catalog, engine="vectorized")
        assert row.config != vec.config

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_database_facade_and_prepared_statements(self, engine):
        from repro.api import Database

        db = Database(engine=engine)
        db.create_table("T", ["A", "B"])
        db.insert("T", [(1, 10), (2, None), (None, 3), (2, 20)])
        expected = Counter([(1,), (2,), (2,)])

        result = db.query("SELECT T.A FROM T WHERE T.A >= 1")
        assert Counter(result.rows) == expected

        stmt = db.prepare("SELECT T.A FROM T WHERE T.A >= ?")
        assert Counter(stmt.execute((1,)).result.rows) == expected

        cached = db.execute_cached("SELECT T.A FROM T WHERE T.A >= 1")
        assert Counter(cached.result.rows) == expected

    def test_row_and_vectorized_same_rows_and_page_ios(self):
        from repro.bench.harness import measure
        from repro.workloads.generators import (
            GENERATED_JA_QUERY,
            PartsSupplySpec,
            build_parts_supply,
        )

        catalog = build_parts_supply(
            PartsSupplySpec(
                num_parts=40, num_supply=300, rows_per_page=8,
                buffer_pages=6, seed=3,
            )
        )
        runs = {
            engine: measure(
                catalog, GENERATED_JA_QUERY, "transform",
                join_method="hash", engine=engine,
            )
            for engine in ("row", "vectorized")
        }
        assert Counter(runs["row"].rows) == Counter(runs["vectorized"].rows)
        assert runs["row"].page_ios == runs["vectorized"].page_ios
