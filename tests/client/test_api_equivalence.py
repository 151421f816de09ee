"""SQL-leaf vs structured-dataset equivalence: fingerprints, IR, plan cache, outputs.

For each example pipeline, the build that reads through SQL text
(``dataset(e).sql(...)``) and the equivalent build from structured
``Dataset`` combinators must produce the same fingerprint (so they share one
plan-cache entry), lower to the identical optimized IR, and return identical
results under both the accelerated ``polystore++`` mode and a baseline mode.

The workload builders' fingerprints are also pinned to golden values, so a
change to SQL parsing or lowering that would move a plan-cache key or the IR
cannot pass unnoticed.
"""

from __future__ import annotations

import math

import pytest

from repro import DataflowProgram, col, compile_natural_language, dataset
from repro.core import build_accelerated_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.stores import (
    KeyValueEngine,
    MLEngine,
    RelationalEngine,
    TimeseriesEngine,
)
from repro.workloads import (
    build_admission_history_program,
    build_mimic_program,
    build_recommendation_program,
    build_snorkel_program,
    build_top_spenders_program,
    generate_recommendation,
    load_recommendation,
)


# -- pipeline pairs ---------------------------------------------------------------------


def quickstart_pair() -> tuple[DataflowProgram, DataflowProgram]:
    """The quickstart pipeline: SQL aggregate + session features -> train."""
    sessions = dataset("telemetry").timeseries("sessions/").named("sessions")
    spend = dataset("ordersdb").sql(
        "SELECT customer_id, sum(amount) AS total_spend, count(*) AS n_orders, "
        "max(returned) AS any_return FROM orders GROUP BY customer_id").named("spend")
    features = spend.join(sessions, left_key="customer_id",
                          right_key="pid").named("features")
    from_sql = DataflowProgram("quickstart")
    from_sql.output("return_model", features.train(
        label_column="any_return", model_name="return_model", epochs=2, engine="ml"))

    spend = (dataset("ordersdb").table("orders")
             .aggregate(["customer_id"],
                        total_spend=("sum", "amount"),
                        n_orders=("count", None),
                        any_return=("max", "returned"))
             .named("spend"))
    sessions = dataset("telemetry").timeseries("sessions/").named("sessions")
    features = spend.join(sessions, left_key="customer_id",
                          right_key="pid").named("features")
    model = features.train(label_column="any_return", model_name="return_model",
                           epochs=2, engine="ml")
    structured = DataflowProgram("quickstart")
    structured.output("return_model", model)
    return from_sql, structured


def recommendation_pair() -> tuple[DataflowProgram, DataflowProgram]:
    """The Figure 1 recommendation pipeline across three stores."""
    from_sql = build_recommendation_program(epochs=2)

    spend = (dataset("sales-db").table("transactions")
             .aggregate(["customer_id"],
                        total_spend=("sum", "amount"), n_orders=("count", None))
             .named("spend"))
    profiles = dataset("profiles").kv(key_prefix="customer/").named("profiles")
    engagement = dataset("clickstream").timeseries("clicks/").named("engagement")
    behaviour = spend.join(engagement, left_key="customer_id",
                           right_key="pid").named("behaviour")
    features = behaviour.join(profiles, left_key="customer_id",
                              right_key="customer_id").named("features")
    model = features.train(label_column="converted", model_name="offer_model",
                           epochs=2, engine="reco-ml")
    structured = DataflowProgram("next-best-offer")
    structured.output("offer_model", model)
    return from_sql, structured


def top_spenders_pair() -> tuple[DataflowProgram, DataflowProgram]:
    """The reporting query: top-k customers by total spend."""
    from_sql = build_top_spenders_program(5)

    top = (dataset("sales-db").table("transactions")
           .aggregate(["customer_id"], total_spend=("sum", "amount"))
           .sort("total_spend", descending=True)
           .limit(5))
    structured = DataflowProgram("top-spenders")
    structured.output("top", top)
    return from_sql, structured


def mimic_pair() -> tuple[DataflowProgram, DataflowProgram]:
    """The Figure 2 ICU-stay pipeline (relational + stream + text -> train)."""
    from_sql = build_mimic_program(min_age=40, epochs=2)

    admissions = (dataset("clinical-db")
                  .table("admissions")
                  .filter(col("age") >= 40)
                  .project("pid", "age", "num_procedures", "prior_admissions",
                           "long_stay")
                  .named("admissions"))
    vitals = dataset("monitors").timeseries("hr/").named("vitals")
    notes = (dataset("notes-db").text()
             .keyword_features(["sepsis", "ventilator", "stable"],
                               doc_prefix="note/", id_column="pid")
             .named("note_features"))
    clinical = admissions.join(vitals, on="pid").named("clinical")
    features = clinical.join(notes, on="pid").named("features")
    model = features.train(label_column="long_stay", model_name="stay_model",
                           hidden_dims=(32, 16), epochs=2, engine="dnn-engine")
    structured = DataflowProgram("mimic-icu-stay")
    structured.output("stay_model", model)
    return from_sql, structured


# -- deployments ------------------------------------------------------------------------


@pytest.fixture
def quickstart_system():
    relational = RelationalEngine("ordersdb")
    schema = make_schema(("order_id", DataType.INT), ("customer_id", DataType.INT),
                         ("amount", DataType.FLOAT), ("returned", DataType.INT))
    relational.load_table("orders", Table(schema, [
        (i, i % 40, (i % 37) * 3.5, int((i % 37) * 3.5 > 90)) for i in range(400)
    ]))
    timeseries = TimeseriesEngine("telemetry")
    for customer in range(40):
        timeseries.append_many(
            f"sessions/{customer}",
            [(float(day), float((customer + day) % 10)) for day in range(10)])
    return build_accelerated_polystore([relational, timeseries, MLEngine("ml")])


@pytest.fixture
def recommendation_system():
    dataset_ = generate_recommendation(80, seed=7)
    relational = RelationalEngine("sales-db")
    keyvalue = KeyValueEngine("profiles")
    timeseries = TimeseriesEngine("clickstream")
    load_recommendation(dataset_, relational=relational, keyvalue=keyvalue,
                        timeseries=timeseries)
    return build_accelerated_polystore([relational, keyvalue, timeseries,
                                        MLEngine("reco-ml")])


PAIRS = {
    "quickstart": quickstart_pair,
    "recommendation": recommendation_pair,
    "top_spenders": top_spenders_pair,
    "mimic": mimic_pair,
}


def _system_for(name: str, request) -> object:
    if name == "quickstart":
        return request.getfixturevalue("quickstart_system")
    if name == "mimic":
        return request.getfixturevalue("mimic_accelerated_system")
    return request.getfixturevalue("recommendation_system")


def _comparable(value) -> object:
    """Canonical form of an output for equality checks."""
    if isinstance(value, Table):
        return sorted(tuple(sorted(row.items())) for row in value.to_dicts())
    if isinstance(value, dict) and "metrics" in value:
        return value["metrics"]
    return value


# -- the equivalence contract -----------------------------------------------------------


GOLDEN_FINGERPRINTS = {
    "mimic": (build_mimic_program,
              "fe01473181f89323c4ba7af923cb512559d6d6b2cb885d2fe33d9a8959574270"),
    "recommendation": (
        build_recommendation_program,
        "555e13900589355efb0b140bdce6617cc358309e972a90595bcaba5f60e2a360"),
    "top_spenders": (
        build_top_spenders_program,
        "c0aeca662d535a4ddfdd9b2162c5ec4601bc52e4d5dfe77759db98b237d9def8"),
    "admission_history": (
        lambda: build_admission_history_program(3),
        "f05ca4fad7652b8d6ba83716447636ead454bd7653ca2fbd6c7dd64f8c6bcfa5"),
    "snorkel": (build_snorkel_program,
                "39649e88b9c38737a532ba2044af333cb25853a68cd6572433d65bb0218ddfc9"),
    "nl_predict_stay": (
        lambda: compile_natural_language("will the patient have a long stay"),
        "189a8b5f78e9f5aafaf2065c29c9b56afc4bcd05373fb9953c38b314cd67b745"),
    "nl_recommend": (
        lambda: compile_natural_language("recommend a product"),
        "8b232c003a0a4d6d4ffa9699f1e35236b8c386ae6d9ef45cc0d49361dcae7a22"),
    "nl_patient_history": (
        lambda: compile_natural_language("admission history of patient 4"),
        "c8fc9bcf3711e63601bd544e396a890776add4db0cd3314051ac58fe33dd9107"),
    "nl_top_customers": (
        lambda: compile_natural_language("top 5 customers"),
        "f962cdde92558ea50e9fa4f037c4045decbf2aab5cf853a9932f94c33888e0bb"),
}


@pytest.mark.parametrize("builder", sorted(GOLDEN_FINGERPRINTS))
def test_builder_fingerprints_are_golden(builder):
    build, expected = GOLDEN_FINGERPRINTS[builder]
    assert build().fingerprint() == expected


@pytest.mark.parametrize("pipeline", sorted(PAIRS))
def test_fingerprints_match(pipeline):
    from_sql, structured = PAIRS[pipeline]()
    assert from_sql.fingerprint() == structured.fingerprint()


@pytest.mark.parametrize("pipeline", sorted(PAIRS))
def test_optimized_ir_is_identical(pipeline, request):
    from_sql, structured = PAIRS[pipeline]()
    system = _system_for(pipeline, request)
    sql_graph = system.compile(from_sql).graph
    structured_graph = system.compile(structured).graph
    assert sql_graph.render() == structured_graph.render()


@pytest.mark.parametrize("pipeline", sorted(PAIRS))
def test_programs_share_one_plan_cache_entry(pipeline, request):
    from_sql, structured = PAIRS[pipeline]()
    system = _system_for(pipeline, request)
    with system.session(name="equivalence") as session:
        first = session.prepare(from_sql)
        second = session.prepare(structured)
        assert first.fingerprint == second.fingerprint
        stats = session.stats()["plan_cache"]
        assert stats["size"] == 1 and stats["hits"] == 1


@pytest.mark.parametrize("pipeline", sorted(PAIRS))
@pytest.mark.parametrize("mode", ["polystore++", "cpu_polystore"])
def test_outputs_identical_across_apis(pipeline, mode, request):
    from_sql, structured = PAIRS[pipeline]()
    system = _system_for(pipeline, request)
    sql_result = system.execute(from_sql, mode=mode)
    structured_result = system.execute(structured, mode=mode)
    assert list(sql_result.outputs) == list(structured_result.outputs)
    for name in sql_result.outputs:
        sql_value = _comparable(sql_result.output(name))
        structured_value = _comparable(structured_result.output(name))
        if isinstance(sql_value, dict):  # model metrics
            for metric, value in sql_value.items():
                assert math.isclose(value, structured_value[metric], rel_tol=1e-9), metric
        else:
            assert sql_value == structured_value
