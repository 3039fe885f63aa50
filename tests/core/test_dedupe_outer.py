"""Tests for the rowid-based outer dedup (the modern type-J fix).

The paper's NEST-N-J follows Kim's Lemma 1, a *set*-semantics statement:
an outer tuple matching several inner tuples is emitted several times.
Modern optimizers unnest IN-subqueries as semijoins instead.  The
``dedupe_outer`` option reproduces that: DISTINCT over the outer rows'
implicit rowids collapses the fan-out back to one output per outer
tuple, preserving multiplicities even for value-identical outer rows.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import schema
from repro.core.pipeline import Engine
from repro.errors import TransformError
from repro.workloads.paper_data import (
    TYPE_J_QUERY,
    fresh_catalog,
    load_supplier_parts,
)


def tu_catalog(t_rows, u_rows):
    catalog = fresh_catalog()
    catalog.create_table(schema("T", "A", "V"), rows_per_page=2)
    catalog.create_table(schema("U", "B", "W"), rows_per_page=2)
    catalog.insert("T", t_rows)
    catalog.insert("U", u_rows)
    return catalog


class TestDedupeOuter:
    def test_type_j_multiplicities_restored(self):
        catalog = load_supplier_parts()
        engine = Engine(catalog, dedupe_outer=True)
        ni = engine.run(TYPE_J_QUERY, method="nested_iteration")
        tr = engine.run(TYPE_J_QUERY, method="transform")
        assert Counter(tr.result.rows) == Counter(ni.result.rows)

    def test_without_fix_multiplicities_inflate(self):
        catalog = load_supplier_parts()
        engine = Engine(catalog, dedupe_outer=False)
        ni = engine.run(TYPE_J_QUERY, method="nested_iteration")
        tr = engine.run(TYPE_J_QUERY, method="transform")
        assert len(tr.result.rows) > len(ni.result.rows)

    def test_value_identical_outer_rows_stay_distinct(self):
        """Two identical outer tuples both match: two output rows, not
        one (plain DISTINCT would collapse them) and not six (the raw
        join would fan each out three ways)."""
        catalog = tu_catalog([(1, 0), (1, 0)], [(1, 0), (1, 1), (1, 2)])
        engine = Engine(catalog, dedupe_outer=True)
        sql = "SELECT A FROM T WHERE A IN (SELECT B FROM U)"
        ni = engine.run(sql, method="nested_iteration")
        tr = engine.run(sql, method="transform")
        assert ni.result.rows == [(1,), (1,)]
        assert Counter(tr.result.rows) == Counter(ni.result.rows)

    def test_correlated_type_j(self):
        catalog = tu_catalog(
            [(1, 5), (2, 5), (3, 9)],
            [(1, 5), (1, 5), (2, 5), (3, 0)],
        )
        engine = Engine(catalog, dedupe_outer=True)
        sql = "SELECT A FROM T WHERE V IN (SELECT W FROM U WHERE U.B = T.A)"
        ni = engine.run(sql, method="nested_iteration")
        tr = engine.run(sql, method="transform")
        assert Counter(tr.result.rows) == Counter(ni.result.rows)

    def test_no_rewrite_when_no_fanout_merge(self):
        """Type-JA plans join a grouped temp (one row per key): no
        fan-out, no rewrite, identical results."""
        catalog = tu_catalog([(1, 2)], [(1, 5), (1, 7)])
        engine = Engine(catalog, dedupe_outer=True)
        sql = "SELECT A FROM T WHERE V = (SELECT COUNT(W) FROM U WHERE U.B = T.A)"
        report = engine.run(sql, method="transform")
        assert report.canonical_sql is not None
        assert "#RID" not in report.canonical_sql
        assert report.result.rows == [(1,)]

    def test_aggregated_root_count(self):
        """Pre-aggregation dedup: COUNT over the outer relation must not
        be inflated by the join fan-out."""
        catalog = tu_catalog([(1, 0), (2, 0), (9, 0)], [(1, 0), (1, 1), (2, 0)])
        engine = Engine(catalog, dedupe_outer=True)
        sql = "SELECT COUNT(*) FROM T WHERE A IN (SELECT B FROM U)"
        ni = engine.run(sql, method="nested_iteration")
        tr = engine.run(sql, method="transform")
        assert ni.result.rows == [(2,)]
        assert tr.result.rows == [(2,)]

    def test_aggregated_root_without_fix_inflates(self):
        catalog = tu_catalog([(1, 0), (2, 0)], [(1, 0), (1, 1), (2, 0)])
        engine = Engine(catalog, dedupe_outer=False)
        sql = "SELECT COUNT(*) FROM T WHERE A IN (SELECT B FROM U)"
        tr = engine.run(sql, method="transform")
        assert tr.result.rows == [(3,)]  # inflated: 2 matches + 1

    def test_aggregated_root_group_by(self):
        catalog = tu_catalog(
            [(1, 5), (1, 6), (2, 7), (3, 0)],
            [(1, 0), (1, 1), (2, 0)],
        )
        engine = Engine(catalog, dedupe_outer=True)
        sql = (
            "SELECT A, COUNT(*), SUM(V) FROM T "
            "WHERE A IN (SELECT B FROM U) GROUP BY A"
        )
        ni = engine.run(sql, method="nested_iteration")
        tr = engine.run(sql, method="transform")
        assert Counter(tr.result.rows) == Counter(ni.result.rows)
        assert Counter(ni.result.rows) == Counter([(1, 2, 11), (2, 1, 7)])

    def test_aggregated_root_multi_table_rejected(self):
        catalog = tu_catalog([(1, 0)], [(1, 0)])
        from repro.catalog.schema import schema as make_schema

        catalog.create_table(make_schema("W2", "C"))
        catalog.insert("W2", [(1,)])
        engine = Engine(catalog, dedupe_outer=True)
        with pytest.raises(TransformError):
            engine.run(
                "SELECT COUNT(*) FROM T, W2 WHERE T.A = W2.C AND "
                "T.A IN (SELECT B FROM U)",
                method="transform",
            )

    def test_aggregated_root_served_from_cache(self):
        """The staging temp is one more plan temp, so the aggregated
        fix-up is cacheable like any other transformed plan."""
        from repro import Database, parse
        from repro.difftest.oracle import SQLiteOracle

        db = Database(dedupe_outer=True)
        db.create_table("T", ["A", "V"])
        db.create_table("U", ["B", "W"])
        db.insert("T", [(1, 5), (1, 6), (2, 7), (3, 0)])
        db.insert("U", [(1, 0), (1, 1), (2, 0)])
        sql = (
            "SELECT A, COUNT(*), SUM(V) FROM T "
            "WHERE A IN (SELECT B FROM U) GROUP BY A"
        )
        first = db.execute_cached(sql, method="transform")
        second = db.execute_cached(sql, method="transform")
        assert len(db.plan_cache) == 1
        assert db.cache_stats().hits == 1
        assert second.method == "cached-transform"
        uncached = db.run(sql, method="transform")
        with SQLiteOracle(db.catalog) as oracle:
            oracle_rows = oracle.run(parse(sql))
        want = Counter(uncached.result.rows)
        assert want == Counter([(1, 2, 11), (2, 1, 7)])
        assert Counter(first.result.rows) == want
        assert Counter(second.result.rows) == want
        assert Counter(oracle_rows) == want

    def test_facade_exposes_option(self):
        from repro import Database

        db = Database(dedupe_outer=True)
        db.create_table("T", ["A"])
        db.create_table("U", ["B"])
        db.insert("T", [(1,)])
        db.insert("U", [(1,), (1,)])
        result = db.query(
            "SELECT A FROM T WHERE A IN (SELECT B FROM U)", method="transform"
        )
        assert result.rows == [(1,)]


class TestDedupeOuterProperty:
    @given(
        t_rows=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8
        ),
        u_rows=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=10
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_correlated_in_equivalence(self, t_rows, u_rows):
        catalog = tu_catalog(t_rows, u_rows)
        engine = Engine(catalog, dedupe_outer=True)
        sql = "SELECT A, V FROM T WHERE V IN (SELECT W FROM U WHERE U.B = T.A)"
        ni = engine.run(sql, method="nested_iteration")
        tr = engine.run(sql, method="transform")
        assert Counter(tr.result.rows) == Counter(ni.result.rows)
