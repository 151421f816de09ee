"""Result schemas follow from the inputs, never from which rows matched.

Every operator kind is run over generated data (FLOAT columns holding ints,
floats and NULLs; NULL strings) with a generated key range that may match
all, some or none of the rows, through three paths: a single-node dataflow
program, the same program over a 4-shard engine, and ``execute_sql``.  Each
result must carry the schema derived from the declared table schemas.

The compiler's join-reorder pass may swap the sides of an inner join by
estimated cardinality, which reorders the join's columns; join results are
therefore compared as a column -> type mapping.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DataflowProgram, col, dataset
from repro.core import build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.ir.nodes import Operator
from repro.middleware.adapters.base import apply_predicate
from repro.stores import RelationalEngine

INT, FLOAT, STRING = DataType.INT, DataType.FLOAT, DataType.STRING

PATIENTS = make_schema(("pid", INT), ("score", FLOAT), ("name", STRING))
VISITS = make_schema(("pid", INT), ("ward", STRING), ("cost", FLOAT))

#: Output schema of each operator kind over ``PATIENTS`` (and ``VISITS``).
EXPECTED = {
    "filter": PATIENTS,
    "project": make_schema(("name", STRING), ("pid", INT)),
    "aggregate": make_schema(("name", STRING), ("n", INT), ("total", FLOAT),
                             ("lo", FLOAT), ("hi", INT), ("mean", FLOAT)),
    "join": make_schema(("pid", INT), ("score", FLOAT), ("name", STRING),
                        ("ward", STRING), ("cost", FLOAT)),
    "sort": PATIENTS,
    "limit": PATIENTS,
    "top_k": PATIENTS,
}

SQL = {
    "filter": "SELECT * FROM patients WHERE {where}",
    "project": "SELECT name, pid FROM patients WHERE {where}",
    "aggregate": ("SELECT name, COUNT(*) AS n, SUM(score) AS total, "
                  "MIN(score) AS lo, MAX(pid) AS hi, AVG(score) AS mean "
                  "FROM patients WHERE {where} GROUP BY name"),
    "join": ("SELECT * FROM patients JOIN visits ON patients.pid = visits.pid "
             "WHERE {where}"),
    "sort": "SELECT * FROM patients WHERE {where} ORDER BY score",
    "limit": "SELECT * FROM patients WHERE {where} LIMIT 2",
    "top_k": "SELECT * FROM patients WHERE {where} ORDER BY score DESC LIMIT 2",
}

_score = st.one_of(st.none(), st.integers(-5, 5),
                   st.floats(-5, 5, allow_nan=False))
_name = st.one_of(st.none(), st.sampled_from(["ada", "bo", "cy"]))
_patients = st.lists(st.tuples(st.integers(0, 20), _score, _name), max_size=10)
_visits = st.lists(st.tuples(st.integers(0, 20), _name, _score), max_size=10)


def _program(db: str, kind: str, low: int, high: int) -> DataflowProgram:
    base = dataset(db).table("patients").filter(
        (col("pid") >= low) & (col("pid") <= high))
    if kind == "filter":
        result = base
    elif kind == "project":
        result = base.project("name", "pid")
    elif kind == "aggregate":
        result = base.aggregate(["name"], n=("count", None), total=("sum", "score"),
                                lo=("min", "score"), hi=("max", "pid"),
                                mean=("avg", "score"))
    elif kind == "join":
        result = base.join(dataset(db).table("visits"), on="pid")
    elif kind == "sort":
        result = base.sort("score")
    elif kind == "limit":
        result = base.limit(2)
    else:
        result = base.top_k("score", 2)
    program = DataflowProgram(f"{kind}-{db}")
    program.output("result", result)
    return program


def _typed(schema) -> dict[str, DataType]:
    return {column.name: column.dtype for column in schema}


def _check(schema, kind: str, path: str) -> None:
    expected = EXPECTED[kind]
    if kind == "join":
        assert _typed(schema) == _typed(expected), (path, kind)
    else:
        assert schema == expected, (path, kind)


def _systems(patients: list[tuple], visits: list[tuple]):
    single = RelationalEngine("single")
    single.load_table("patients", Table(PATIENTS, patients))
    single.load_table("visits", Table(VISITS, visits))
    sharded_system = build_cpu_polystore([])
    sharded = sharded_system.register_sharded_engine("sharded", RelationalEngine, 4)
    sharded.load_table("patients", Table(PATIENTS, patients), shard_key="pid")
    sharded.load_table("visits", Table(VISITS, visits), shard_key="pid")
    return single, build_cpu_polystore([single]), sharded_system


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(patients=_patients, visits=_visits, low=st.integers(-1, 21),
       width=st.integers(-1, 21))
def test_result_schema_is_independent_of_the_data(patients, visits, low, width):
    high = low + width
    engine, single_system, sharded_system = _systems(patients, visits)
    where = f"pid >= {low} AND pid <= {high}"
    for kind in EXPECTED:
        single = single_system.execute(_program("single", kind, low, high))
        _check(single.output("result").schema, kind, "single-node")
        sharded = sharded_system.execute(_program("sharded", kind, low, high))
        _check(sharded.output("result").schema, kind, "4-shard")
        _check(engine.execute_sql(SQL[kind].format(where=where)).schema, kind,
               "execute_sql")


def test_count_is_int_whether_or_not_any_row_matches():
    engine = RelationalEngine("db")
    engine.load_table("t", Table(PATIENTS, [(1, 0.5, "ada"), (20, 2.0, "bo")]))
    query = "SELECT pid, COUNT(*) AS n FROM t WHERE pid > {} GROUP BY pid"
    for threshold in (10, 100):  # one row matches, then none
        assert engine.execute_sql(query.format(threshold)).schema == \
            make_schema(("pid", INT), ("n", INT))
    assert engine.execute_sql("SELECT MIN(score) AS lo FROM t").schema == \
        make_schema(("lo", FLOAT))


def test_apply_predicate_keeps_the_table_schema():
    """The repro: score came back int or string depending on the match."""
    table = Table(make_schema(("pid", INT), ("score", FLOAT)),
                  [(1, None), (2, 3), (3, 2.5)])
    for pid in (1, 2, 3, 4):
        node = Operator("scan", {"predicate": col("pid").eq(pid)})
        result = apply_predicate(table, node)
        assert result.schema == table.schema
        assert len(result) == (1 if pid <= 3 else 0)
