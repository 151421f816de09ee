"""Tests for volcano operators, expressions and the bitonic sorting network."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel import DataType, Table, make_schema
from repro.exceptions import QueryError
from repro.stores.relational.expressions import (
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Literal,
    and_,
    column,
    compare,
    literal,
    not_,
    or_,
    split_conjunction,
)
from repro.stores.relational.operators import (
    AggregateSpec,
    Filter,
    GroupByAggregate,
    HashJoin,
    Limit,
    Project,
    Sort,
    SortMergeJoin,
    TableScan,
    TopK,
    bitonic_sort,
)

ROWS = [
    {"pid": 1, "age": 72, "ward": "icu", "cost": 100.0},
    {"pid": 2, "age": 35, "ward": "general", "cost": 20.0},
    {"pid": 3, "age": 85, "ward": "icu", "cost": 250.0},
    {"pid": 4, "age": 51, "ward": "recovery", "cost": 80.0},
]
SCHEMA = make_schema(("pid", DataType.INT), ("age", DataType.INT),
                     ("ward", DataType.STRING), ("cost", DataType.FLOAT))


def scan(rows=ROWS, schema=SCHEMA):
    """A leaf operator over dict rows, as positional rows of ``schema``."""
    return TableScan.of(Table.from_dicts(rows, schema))


def run(operator):
    """Execute an operator; its rows as dicts keyed by its output schema."""
    return Table(operator.schema, operator.execute()).to_dicts()


class TestExpressions:
    def test_comparison_and_boolean(self):
        predicate = and_(compare("age", ">", 40), compare("ward", "=", "icu"))
        assert predicate.evaluate(ROWS[0])
        assert not predicate.evaluate(ROWS[1])

    def test_or_and_not(self):
        predicate = or_(compare("age", "<", 40), not_(compare("ward", "=", "icu")))
        assert predicate.evaluate(ROWS[1])
        assert not predicate.evaluate(ROWS[0])

    def test_null_comparison_is_false(self):
        assert not compare("age", ">", 10).evaluate({"age": None})

    def test_referenced_columns(self):
        predicate = and_(compare("age", ">", 40), compare("cost", "<", 200))
        assert predicate.referenced_columns() == {"age", "cost"}

    def test_split_conjunction(self):
        predicate = and_(compare("a", "=", 1), compare("b", "=", 2), compare("c", "=", 3))
        assert len(split_conjunction(predicate)) == 3

    def test_unknown_operator_rejected(self):
        with pytest.raises(QueryError):
            compare("a", "~", 1)

    def test_selectivity_bounds(self):
        predicate = or_(compare("a", "=", 1), compare("b", ">", 2))
        assert 0.0 < predicate.estimated_selectivity() <= 1.0

    def test_unknown_column_raises(self):
        with pytest.raises(QueryError):
            column("missing").evaluate({"a": 1})

    def test_literal_str(self):
        assert str(literal("x")) == "'x'"


# -- compiled expressions vs the dict-row reference ---------------------------------------

EXPR_SCHEMA = make_schema(("a", DataType.INT), ("b", DataType.FLOAT),
                          ("s", DataType.STRING))
_values = st.one_of(st.none(), st.integers(-20, 20),
                    st.floats(-1e3, 1e3, allow_nan=False), st.booleans(),
                    st.sampled_from(["", "x", "yz"]))
# ``zz`` is not in the schema: evaluating it must raise QueryError per row.
_leaves = st.one_of(st.sampled_from(["a", "b", "s", "zz"]).map(ColumnRef),
                    _values.map(Literal))


def _extend(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        st.builds(lambda op, lr: Comparison(op, *lr),
                  st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), pairs),
        st.builds(lambda op, lr: Arithmetic(op, *lr),
                  st.sampled_from(["+", "-", "*", "/", "%"]), pairs),
        st.builds(lambda op, xs: BooleanOp(op, tuple(xs)), st.sampled_from(["and", "or"]),
                  st.lists(children, min_size=2, max_size=3)),
        children.map(lambda x: BooleanOp("not", (x,))),
        st.builds(lambda x, vs: InList(x, tuple(vs)), children,
                  st.lists(_values, max_size=3)),
        st.builds(IsNull, children, st.booleans()),
    )


_expressions = st.recursive(_leaves, _extend, max_leaves=8)
_expr_rows = st.tuples(st.one_of(st.none(), st.integers(-20, 20)),
                       st.one_of(st.none(), st.integers(-20, 20),
                                 st.floats(-1e3, 1e3, allow_nan=False)),
                       st.one_of(st.none(), st.sampled_from(["", "x", "yz"])))


def _outcome(fn):
    """What a call returns (value and exact type) or which error it raises."""
    try:
        value = fn()
    except QueryError as exc:
        return ("QueryError", str(exc))
    except TypeError:
        return ("TypeError", None)
    return ("value", type(value), value)


class TestCompiledExpressions:
    @settings(max_examples=400, deadline=None)
    @given(_expressions, st.lists(_expr_rows, max_size=6))
    def test_compiled_matches_evaluate(self, expression, rows):
        compiled = expression.compile(EXPR_SCHEMA)  # never raises
        for row in rows:
            as_dict = dict(zip(EXPR_SCHEMA.names, row))
            assert _outcome(lambda: compiled(row)) == \
                _outcome(lambda: expression.evaluate(as_dict))

    def test_unknown_column_raises_only_per_row(self):
        predicate = Filter(scan([]), compare("nope", ">", 1))
        assert predicate.execute() == []
        with pytest.raises(QueryError, match="unknown column 'nope'"):
            Filter(scan(), compare("nope", ">", 1)).execute()

    def test_short_circuit_skips_the_failing_operand(self):
        unknown = compare("nope", ">", 1)
        row = (1, 72, "icu", 100.0)
        assert and_(compare("age", "<", 0), unknown).compile(SCHEMA)(row) is False
        assert or_(compare("age", ">", 0), unknown).compile(SCHEMA)(row) is True

    def test_null_and_divide_by_zero_arithmetic_is_null(self):
        divide = Arithmetic("/", ColumnRef("cost"), Literal(0))
        assert divide.compile(SCHEMA)((1, 72, "icu", 100.0)) is None
        assert divide.compile(SCHEMA)((1, 72, "icu", None)) is None


class TestOperators:
    def test_filter(self):
        result = run(Filter(scan(), compare("ward", "=", "icu")))
        assert [r["pid"] for r in result] == [1, 3]

    def test_project_unknown_column(self):
        with pytest.raises(QueryError):
            Project(scan(), ["nope"]).execute()

    def test_limit_and_sort(self):
        result = run(Limit(Sort(scan(), ["age"], descending=True), 2))
        assert [r["age"] for r in result] == [85, 72]

    def test_top_k_equivalent_to_sort_limit(self):
        top = run(TopK(scan(), "cost", 2))
        assert [r["pid"] for r in top] == [3, 1]

    def test_hash_join_inner(self):
        right = scan([{"pid": 1, "payer": "a"}, {"pid": 3, "payer": "b"}],
                     make_schema(("pid", DataType.INT), ("payer", DataType.STRING)))
        result = run(HashJoin(scan(), right, "pid", "pid"))
        assert {r["pid"] for r in result} == {1, 3}
        assert all("payer" in r for r in result)

    def test_hash_join_left_keeps_unmatched(self):
        right = scan([{"pid": 1, "payer": "a"}],
                     make_schema(("pid", DataType.INT), ("payer", DataType.STRING)))
        result = run(HashJoin(scan(), right, "pid", "pid", how="left"))
        assert len(result) == 4
        assert any(r["payer"] is None for r in result)

    def test_sort_merge_join_matches_hash_join(self):
        right_rows = [{"pid": p, "extra": p * 10} for p in (1, 2, 3, 3)]
        right_schema = make_schema(("pid", DataType.INT), ("extra", DataType.INT))
        hash_rows = run(HashJoin(scan(), scan(right_rows, right_schema), "pid", "pid"))
        merge_rows = run(SortMergeJoin(scan(), scan(right_rows, right_schema),
                                       "pid", "pid"))
        key = lambda r: (r["pid"], r.get("extra"))
        assert sorted(hash_rows, key=key) == sorted(merge_rows, key=key)

    def test_group_by_aggregate(self):
        result = run(GroupByAggregate(
            scan(), ["ward"],
            [AggregateSpec("count", None, "n"), AggregateSpec("avg", "cost", "avg_cost")],
        ))
        by_ward = {r["ward"]: r for r in result}
        assert by_ward["icu"]["n"] == 2
        assert by_ward["icu"]["avg_cost"] == pytest.approx(175.0)

    def test_global_aggregate_on_empty_input(self):
        result = run(GroupByAggregate(scan([]), [],
                                      [AggregateSpec("count", None, "n")]))
        assert result == [{"n": 0}]

    def test_invalid_aggregate_function(self):
        with pytest.raises(QueryError):
            AggregateSpec("median", "cost", "m")


class TestBitonicSort:
    def test_sorts_non_power_of_two(self):
        values, stats = bitonic_sort([5, 1, 9, 3, 7, 2])
        assert values == [1, 2, 3, 5, 7, 9]
        assert stats.n_padded == 8

    def test_descending(self):
        values, _ = bitonic_sort([4, 1, 3], descending=True)
        assert values == [4, 3, 1]

    def test_key_function(self):
        values, _ = bitonic_sort(ROWS, key=lambda r: r["age"])
        assert [r["age"] for r in values] == [35, 51, 72, 85]

    def test_empty_and_singleton(self):
        assert bitonic_sort([])[0] == []
        assert bitonic_sort([42])[0] == [42]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), max_size=120))
    def test_property_matches_builtin_sort(self, values):
        result, stats = bitonic_sort(values)
        assert result == sorted(values)
        if len(values) > 1:
            assert stats.comparisons > 0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2,
                    max_size=64))
    def test_property_stage_count_is_log_squared(self, values):
        _, stats = bitonic_sort(values)
        n = stats.n_padded
        log_n = n.bit_length() - 1
        assert stats.stages == log_n * (log_n + 1) // 2
