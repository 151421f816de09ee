"""Tests for the EIDE program model and the natural-language frontend."""

from __future__ import annotations

import pytest

from repro.eide import (
    DataflowProgram,
    Param,
    compile_natural_language,
    dataset,
    recognize_intent,
)
from repro.exceptions import CompilationError


def _build_demo(name: str = "demo") -> DataflowProgram:
    a = dataset("db").sql("SELECT x FROM t").named("a")
    b = dataset().timeseries("hr/").named("b")
    program = DataflowProgram(name)
    program.output("c", a.join(b, on="x"))
    return program


def _kinds(program: DataflowProgram) -> list[str]:
    (_, root), = program.output_items()
    return [node.kind for node in root.walk()]


class TestFreezeAndFingerprint:
    def test_fingerprint_stable_across_rebuilds(self):
        assert _build_demo().fingerprint() == _build_demo().fingerprint()

    def test_fingerprint_sensitive_to_structure(self):
        base = _build_demo().fingerprint()
        assert _build_demo("demo2").fingerprint() != base
        changed_sql = DataflowProgram("demo")
        changed_sql.output("c", dataset("db").sql("SELECT y FROM t").named("a").join(
            dataset().timeseries("hr/"), on="x"))
        assert changed_sql.fingerprint() != base

    def test_python_callables_hash_by_identity(self):
        def transform(table):
            return table

        def udf_program(fn) -> DataflowProgram:
            program = DataflowProgram("py")
            program.output("t", dataset("db").table("t").apply(fn))
            return program

        one, again = udf_program(transform), udf_program(transform)
        other = udf_program(lambda table: table)
        assert one.fingerprint() == again.fingerprint()
        assert one.fingerprint() != other.fingerprint()

    def test_freeze_blocks_mutation(self):
        program = _build_demo().freeze()
        assert program.frozen
        with pytest.raises(CompilationError):
            program.output("late", dataset("db").sql("SELECT x FROM t"))

    def test_declared_params_found_in_nested_values(self):
        program = DataflowProgram("parametrized")
        program.output("b", dataset("ts").timeseries(
            "hr/", end=Param("end", default=None)))
        program.output("k", dataset("kv").kv([Param("key")]))
        declared = program.declared_params()
        assert set(declared) == {"end", "key"}
        assert declared["end"].has_default and not declared["key"].has_default


class TestProgramModel:
    def test_fluent_builder_and_dependencies(self):
        a = dataset("db").sql("SELECT x FROM t")
        b = dataset().timeseries("hr/")
        c = a.join(b, on="x")
        program = DataflowProgram("demo")
        program.output("d", c.train(label_column="y", model_name="d"))
        assert len(program) == 5  # scan, project, ts_summarize, join, train
        assert c.node.inputs == (a.node, b.node)
        assert program.outputs == ["d"]
        assert set(_kinds(program)) == {"scan", "project", "ts_summarize", "join",
                                        "train"}

    def test_unknown_dependency_rejected(self):
        with pytest.raises(CompilationError):
            dataset("db").table("t").join("ghost", on="x")

    def test_join_requires_keys(self):
        a = dataset("db").sql("SELECT x FROM t")
        b = dataset("db").sql("SELECT x FROM u")
        with pytest.raises(CompilationError):
            a.join(b)

    def test_kv_lookup_requires_keys_or_prefix(self):
        with pytest.raises(CompilationError):
            dataset("kv").kv()

    def test_output_requires_known_fragment(self):
        program = DataflowProgram("demo")
        with pytest.raises(CompilationError):
            program.output("nope", "a")


class TestNaturalLanguage:
    def test_recognize_icu_stay_intent(self):
        intent = recognize_intent(
            "Will patients have a long stay at the hospital when they exit the ICU?")
        assert intent.name == "predict_stay"

    def test_recognize_history_with_patient_slot(self):
        intent = recognize_intent("Show the admission history of patient 42")
        assert intent.name == "patient_history"
        assert intent.slots["patient_id"] == "42"

    def test_recognize_top_customers_with_number(self):
        intent = recognize_intent("Who are the top 25 customers by spend?")
        assert intent.name == "top_customers"
        assert intent.slots["number"] == "25"

    def test_unknown_text_raises(self):
        with pytest.raises(CompilationError):
            recognize_intent("please water the office plants")

    def test_compile_predict_stay_program_shape(self):
        program = compile_natural_language(
            "Will patients have a long stay at the hospital (> 5 days)?")
        assert {"train", "scan", "ts_summarize"} <= set(_kinds(program))
        assert program.outputs == ["model"]

    def test_compile_history_embeds_patient_id(self):
        program = compile_natural_language("admission history of patient 7",
                                           relational_engine="db1")
        (_, root), = program.output_items()
        predicate = next(n for n in root.walk() if n.kind == "filter").params["predicate"]
        assert (predicate.left.name, predicate.op, predicate.right.value) == ("pid", "=", 7)
        assert {node.engine for node in root.walk()} == {"db1"}

    @pytest.mark.parametrize("slot", ["pid", "abc"])
    def test_compile_history_rejects_non_integer_patient_id(self, slot):
        # The slot is spliced into SQL; a word there would parse as a column
        # reference (``pid = pid`` matches every admission).
        with pytest.raises(CompilationError, match="patient id"):
            compile_natural_language(f"admission history of patient {slot}")

    def test_compile_history_numeric_patient_id_keeps_sql_tree(self):
        program = compile_natural_language("admission history of patient 4")
        expected = DataflowProgram("nl-patient-history")
        expected.output("history", dataset("relational").sql(
            "SELECT pid, admit_date, diagnosis FROM admissions WHERE pid = 4 "
            "ORDER BY admit_date"))
        assert program.fingerprint() == expected.fingerprint()

    def test_compile_top_customers_limit(self):
        program = compile_natural_language("top 3 customers this quarter")
        (_, root), = program.output_items()
        assert root.kind == "limit" and root.params["n"] == 3

    def test_compile_recommendation(self):
        program = compile_natural_language("recommend the next best offer for users")
        assert "kv_get" in _kinds(program)
