"""Tests for the relational engine: SQL, planning, indexes and execution."""

from __future__ import annotations

import pytest

from repro.datamodel import DataType, Table, make_schema
from repro.exceptions import QueryError, StorageError
from repro.stores.base import Capability
from repro.stores.relational import RelationalEngine, parse_select
from repro.stores.relational.planner import (
    AggregatePlan,
    FilterPlan,
    JoinPlan,
    build_plan,
)
from repro.stores.relational.storage import HeapStorage


class TestSqlParser:
    def test_simple_select(self):
        statement = parse_select("SELECT a, b FROM t WHERE a > 5 ORDER BY b DESC LIMIT 3")
        assert statement.table == "t"
        assert [i.column for i in statement.items] == ["a", "b"]
        assert statement.order_by == "b" and statement.order_descending
        assert statement.limit == 3

    def test_star_select(self):
        assert parse_select("SELECT * FROM t").select_star

    def test_join_clause(self):
        statement = parse_select(
            "SELECT a FROM t JOIN u ON t.id = u.id WHERE u.x = 'y'")
        assert statement.joins[0].table == "u"
        assert statement.joins[0].left_key == "t.id"

    def test_aggregates_and_group_by(self):
        statement = parse_select(
            "SELECT customer, sum(amount) AS total FROM txns GROUP BY customer")
        assert statement.items[1].aggregate == "sum"
        assert statement.items[1].output_name == "total"
        assert statement.group_by == ["customer"]

    def test_in_and_is_null(self):
        statement = parse_select(
            "SELECT a FROM t WHERE a IN (1, 2, 3) AND b IS NOT NULL")
        assert statement.where is not None

    def test_string_literal_with_quote(self):
        statement = parse_select("SELECT a FROM t WHERE name = 'o''brien'")
        assert "o'brien" in str(statement.where)

    def test_syntax_error(self):
        with pytest.raises(QueryError):
            parse_select("SELECT FROM t")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(QueryError):
            parse_select("SELECT a FROM t garbage garbage")


class TestPlanner:
    def test_plan_shape_for_join_query(self):
        plan = build_plan(parse_select(
            "SELECT a FROM t JOIN u ON t.id = u.id WHERE t.a > 1 ORDER BY a"))
        kinds = [type(node).__name__ for node in plan.walk()]
        assert "SortPlan" in kinds and "FilterPlan" in kinds and "JoinPlan" in kinds

    def test_aggregate_plan(self):
        plan = build_plan(parse_select(
            "SELECT region, count(*) AS n FROM t GROUP BY region"))
        aggregate_nodes = [n for n in plan.walk() if isinstance(n, AggregatePlan)]
        assert aggregate_nodes and aggregate_nodes[0].group_by == ("region",)

    def test_render_is_multiline(self):
        plan = build_plan(parse_select("SELECT a FROM t WHERE a = 1"))
        assert len(plan.render().splitlines()) >= 2


class TestHeapStorage:
    def test_pages_fill_and_grow(self):
        heap = HeapStorage(make_schema(("a", DataType.INT)), page_capacity=4)
        heap.insert_many([(i,) for i in range(10)])
        assert heap.num_pages == 3
        assert heap.num_rows == 10
        assert list(heap.scan()) == [(i,) for i in range(10)]

    def test_fetch_by_rid(self):
        heap = HeapStorage(make_schema(("a", DataType.INT)), page_capacity=2)
        rid = heap.insert((7,))
        assert heap.fetch(*rid) == (7,)

    def test_invalid_rid(self):
        heap = HeapStorage(make_schema(("a", DataType.INT)))
        with pytest.raises(StorageError):
            heap.fetch(3, 0)


class TestEngine:
    def test_capabilities(self, relational_engine: RelationalEngine):
        assert relational_engine.supports(Capability.JOIN)
        assert not relational_engine.supports(Capability.TEXT_SEARCH)

    def test_duplicate_table_rejected(self, relational_engine: RelationalEngine):
        with pytest.raises(StorageError):
            relational_engine.create_table("patients", relational_engine.table_schema("patients"))

    def test_filter_and_order(self, relational_engine: RelationalEngine):
        result = relational_engine.execute_sql(
            "SELECT pid, age FROM patients WHERE age > 60 ORDER BY age DESC")
        assert result.column("age") == [85, 72, 64]

    def test_aggregate_sql(self, relational_engine: RelationalEngine):
        result = relational_engine.execute_sql(
            "SELECT count(*) AS n, avg(age) AS mean_age FROM patients")
        assert result.to_dicts()[0]["n"] == 5

    def test_join_sql(self, relational_engine: RelationalEngine):
        visits = Table.from_dicts([
            {"pid": 1, "ward": "icu"}, {"pid": 1, "ward": "recovery"},
            {"pid": 3, "ward": "icu"},
        ])
        relational_engine.load_table("visits", visits)
        result = relational_engine.execute_sql(
            "SELECT name, ward FROM patients JOIN visits ON patients.pid = visits.pid")
        assert result.num_rows == 3

    def test_index_lookup(self, relational_engine: RelationalEngine):
        relational_engine.create_index("patients", "pid", kind="hash")
        result = relational_engine.index_lookup("patients", "pid", 3)
        assert result.column("name") == ["alan"]

    @pytest.mark.parametrize("kind", ["hash", "sorted"])
    def test_index_lookup_of_incomparable_key_finds_nothing(
            self, relational_engine: RelationalEngine, kind: str):
        # "3" equals no INT key: the seek answers like a scan would.
        relational_engine.create_index("patients", "pid", kind=kind)
        assert relational_engine.index_lookup("patients", "pid", "3").num_rows == 0
        assert relational_engine.index_lookup("patients", "pid", 3).num_rows == 1

    def test_range_lookup_requires_sorted_index(self, relational_engine: RelationalEngine):
        with pytest.raises(StorageError):
            relational_engine.range_lookup("patients", "age", 50, 80)
        relational_engine.create_index("patients", "age", kind="sorted")
        result = relational_engine.range_lookup("patients", "age", 50, 80)
        assert sorted(result.column("age")) == [51, 64, 72]

    def test_top_k(self, relational_engine: RelationalEngine):
        result = relational_engine.top_k("patients", "score", 2)
        assert result.column("score") == [0.9, 0.7]

    def test_missing_table_raises(self, relational_engine: RelationalEngine):
        with pytest.raises(StorageError):
            relational_engine.scan("nope")

    def test_metrics_recorded(self, relational_engine: RelationalEngine):
        relational_engine.scan("patients")
        operations = [m.operation for m in relational_engine.metrics.records]
        assert "scan" in operations

    def test_operation_log_keeps_only_recent_records(
            self, relational_engine: RelationalEngine):
        from repro.core import PolystorePlusPlus
        from repro.stores.base import MAX_OPERATION_RECORDS

        relational_engine.create_index("patients", "pid", kind="hash")
        start = relational_engine.metrics.recorded
        extra = 10
        for i in range(MAX_OPERATION_RECORDS + extra):
            relational_engine.index_lookup("patients", "pid", i % 5)
        metrics = relational_engine.metrics
        assert metrics.recorded == start + MAX_OPERATION_RECORDS + extra
        assert len(metrics) == len(metrics.records) == MAX_OPERATION_RECORDS
        assert all(r.operation == "index_seek" for r in metrics.records)
        system = PolystorePlusPlus()
        system.register_engine(relational_engine)
        assert system.recalibrate_cost_model() == 1  # index_seek fitted

    def test_empty_result_keeps_schema(self, relational_engine: RelationalEngine):
        result = relational_engine.execute_sql("SELECT pid FROM patients WHERE age > 200")
        assert result.num_rows == 0
