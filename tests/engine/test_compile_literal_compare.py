"""Compiled comparisons against a literal, and ``<=>``, cell by cell.

A comparison with an int, float or str literal on either side compiles to
a closure that tests the other value's exact type once.  Every cell of
the grid below (column value x literal x operator x side) must give the
result of :func:`~repro.engine.expression.compare_values`, or raise the
same :class:`ExecutionError` with the same message.
"""

from __future__ import annotations

import itertools

import pytest

from repro.engine.compile import compile_predicate
from repro.engine.expression import compare_values, null_safe_equal
from repro.engine.schema import RowSchema
from repro.errors import ExecutionError
from repro.sql.ast import ColumnRef, Comparison, Literal

SCHEMA = RowSchema([("T", "A"), ("T", "B")])
COLUMN = ColumnRef("T", "A")

VALUES = [None, True, False, 0, 1, -1, 2, 0.0, -0.0, 1.0, 2.5, "", "a", "b", "1"]
LITERALS = [0, 1, -1, 0.0, -0.0, 1.0, 2.5, "", "a", "b", "1"]
OPERATORS = ["=", "<>", "<", "<=", ">", ">="]


def outcome(call):
    """The result, or the error class and message, of one evaluation."""
    try:
        return ("value", repr(call()))
    except ExecutionError as error:
        return ("error", str(error))
    except TypeError as error:
        return ("type-error", str(error))


@pytest.mark.parametrize("op", OPERATORS)
@pytest.mark.parametrize("literal_left", [False, True])
def test_grid_matches_compare_values(op, literal_left):
    for value, literal in itertools.product(VALUES, LITERALS):
        if literal_left:
            expr = Comparison(Literal(literal), op, COLUMN)
            expected = outcome(lambda: compare_values(op, literal, value))
        else:
            expr = Comparison(COLUMN, op, Literal(literal))
            expected = outcome(lambda: compare_values(op, value, literal))
        fn = compile_predicate(expr, SCHEMA)
        got = outcome(lambda: fn((value, None), None))
        assert got == expected, (value, op, literal, literal_left)


@pytest.mark.parametrize("literal_left", [False, True])
def test_null_safe_grid_matches_reference(literal_left):
    for value, literal in itertools.product(VALUES, LITERALS + [None]):
        if literal_left:
            expr = Comparison(Literal(literal), "=", COLUMN, null_safe=True)
            expected = outcome(lambda: null_safe_equal(literal, value))
        else:
            expr = Comparison(COLUMN, "=", Literal(literal), null_safe=True)
            expected = outcome(lambda: null_safe_equal(value, literal))
        fn = compile_predicate(expr, SCHEMA)
        assert outcome(lambda: fn((value, None), None)) == expected


def test_null_safe_columns_match_reference():
    expr = Comparison(COLUMN, "=", ColumnRef("T", "B"), null_safe=True)
    fn = compile_predicate(expr, SCHEMA)
    for left, right in itertools.product(VALUES, repeat=2):
        expected = outcome(lambda: null_safe_equal(left, right))
        assert outcome(lambda: fn((left, right), None)) == expected


@pytest.mark.parametrize(
    "value, literal",
    [(True, 1), (False, 0.0), (1, True), ("1", 1), (1, "1"), (2.5, "a")],
)
def test_mismatches_raise_the_interpreters_error(value, literal):
    fn = compile_predicate(Comparison(COLUMN, "<", Literal(literal)), SCHEMA)
    with pytest.raises(ExecutionError, match="type mismatch"):
        fn((value, None), None)


def test_null_against_a_literal_is_unknown():
    for literal, op in itertools.product(LITERALS, OPERATORS):
        fn = compile_predicate(Comparison(COLUMN, op, Literal(literal)), SCHEMA)
        assert fn((None, None), None) is None
        fn = compile_predicate(Comparison(Literal(literal), op, COLUMN), SCHEMA)
        assert fn((None, None), None) is None
