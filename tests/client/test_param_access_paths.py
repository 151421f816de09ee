"""Randomized differential test: ``Param``-bound reads vs literals vs plain scans.

A prepared program compiles ``filter(col(k) == Param(...))`` once; at bind
time the session derives the leaf's access path from the bound value, so a
scalar binding seeks an index, routes to the owning shard and gives KV,
timeseries and text reads their explicit key hints — exactly what the same
program written with a literal compiles to.  Every binding must therefore
give the same rows *and* dtypes three ways:

* the ``Param``-bound prepared program,
* the program with the value written as a literal, and
* a read with no access path at all (no index, or pushdown disabled so the
  filter runs after a full read).

Bindings cover the scalar forms the seek accepts (``5``, ``5.0``, ``True``,
which equals ``1``), the forms
it must refuse and leave a scan (``None``, ``[5]``), a string that equals no
integer key (``"5"``), a key absent from the data and an argument-less run
that binds the ``Param`` default.
"""

from __future__ import annotations

import random

import pytest

from repro import DataflowProgram, Param, dataset
from repro.compiler.pipeline import CompilerOptions
from repro.core import build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.eide import col
from repro.stores import KeyValueEngine, RelationalEngine, TextEngine, TimeseriesEngine

NUM_SHARDS = 4
SEEDS = [3, 17, 41]
ABSENT = 10**6
BINDINGS = [5, 5.0, True, None, "5", [5], ABSENT]
DEFAULT = 7
NO_PUSHDOWN = CompilerOptions(pushdown=False)


def _shape(table: Table, *, ordered: bool = True):
    """Column names, dtypes and rows — everything two results must share."""
    rows = [tuple(row) for row in table.rows]
    if not ordered:
        rows.sort(key=repr)
    return list(zip(table.schema.names, table.schema.dtypes)), rows


def _program(source, predicate) -> DataflowProgram:
    program = DataflowProgram("keyed")
    program.output("rows", source.filter(predicate))
    return program


def _contacts(engine, action):
    before = [shard.metrics.recorded for shard in engine.shards]
    result = action()
    after = [shard.metrics.recorded for shard in engine.shards]
    return [i for i, (a, b) in enumerate(zip(after, before)) if a > b], result


def _differential(system, source, column, *, baseline_source=None,
                  baseline_options=None, residual=None, ordered=True,
                  bindings=BINDINGS + ["<default>"]):
    """Run every binding three ways and assert the results agree.

    Returns the Param-bound results by binding, for count assertions.
    """
    def predicate(value):
        equality = col(column) == value
        return equality if residual is None else equality & residual

    session = system.session()
    prepared = session.prepare(
        _program(source, predicate(Param(column, default=DEFAULT))))
    baseline = baseline_source if baseline_source is not None else source
    results = {}
    for value in bindings:
        literal = DEFAULT if value == "<default>" else value
        bound = (prepared.run() if value == "<default>"
                 else prepared.run(**{column: value}))
        expected = system.execute(_program(source, predicate(literal)))
        plain = system.execute(_program(baseline, predicate(literal)),
                               options=baseline_options)
        got = _shape(bound.output("rows"), ordered=ordered)
        assert got == _shape(expected.output("rows"), ordered=ordered), value
        assert got == _shape(plain.output("rows"), ordered=ordered), value
        results[repr(value)] = bound
    session.close()
    return results


def _read_kinds(result) -> list[str]:
    return [r.kind for r in result.report.records
            if r.kind in ("scan", "index_seek")]


@pytest.fixture(params=SEEDS)
def rng(request):
    return random.Random(request.param)


def _patient_rows(rng: random.Random) -> list[tuple]:
    rows = [(rng.randrange(12), rng.randrange(4), round(rng.random(), 3),
             f"p{rng.randrange(100)}") for _ in range(rng.randrange(60, 120))]
    rows.append((5, 1, 0.5, "p5"))  # the key every scalar binding hits
    rng.shuffle(rows)
    return rows


SCHEMA = make_schema(("pid", DataType.INT), ("grp", DataType.INT),
                     ("score", DataType.FLOAT), ("name", DataType.STRING))


class TestRelational:
    @pytest.mark.parametrize("index_kind", ["hash", "sorted"])
    def test_single_node_index(self, rng, index_kind):
        system = build_cpu_polystore([])
        rows = _patient_rows(rng)
        indexed = system.register_engine(RelationalEngine("indexed"))
        indexed.load_table("patients", Table(SCHEMA, rows))
        indexed.create_index("patients", "pid", kind=index_kind)
        plain = system.register_engine(RelationalEngine("plain"))
        plain.load_table("patients", Table(SCHEMA, rows))
        residual = col("score") >= round(rng.random() / 2, 2)

        results = _differential(
            system, dataset("indexed").table("patients"), "pid",
            baseline_source=dataset("plain").table("patients"),
            residual=residual)

        # Scalar bindings seek the index, whatever their numeric type; the
        # non-scalar ones stay the scan the literal compiles to.
        for value in ("5", "5.0", "True", "'5'", repr(ABSENT), "'<default>'"):
            assert _read_kinds(results[value]) == ["index_seek"], value
        for value in ("None", "[5]"):
            assert _read_kinds(results[value]) == ["scan"], value
        before = indexed.metrics.recorded
        session = system.session()
        session.prepare(_program(dataset("indexed").table("patients"),
                                 col("pid") == Param("pid"))).run(pid=5)
        session.close()
        operations = [r.operation for r in indexed.metrics.records]
        assert indexed.metrics.recorded == before + 1
        assert operations[-1] == "index_seek"

    @pytest.mark.parametrize("seek_column", ["pid", "grp"])
    def test_sharded_seek(self, rng, seek_column):
        system = build_cpu_polystore([])
        rows = _patient_rows(rng)
        sharded = system.register_sharded_engine("shards", RelationalEngine,
                                                 NUM_SHARDS)
        sharded.load_table("patients", Table(SCHEMA, rows), shard_key="pid")
        sharded.create_index("patients", seek_column)
        plain = system.register_engine(RelationalEngine("plain"))
        plain.load_table("patients", Table(SCHEMA, rows))

        results = _differential(
            system, dataset("shards").table("patients"), seek_column,
            baseline_source=dataset("plain").table("patients"), ordered=False)
        assert _read_kinds(results["5"]) == ["index_seek"]
        assert _read_kinds(results["None"]) == ["scan"]

        session = system.session()
        prepared = session.prepare(_program(dataset("shards").table("patients"),
                                            col(seek_column) == Param("key")))
        contacted, result = _contacts(sharded, lambda: prepared.run(key=5))
        session.close()
        assert _read_kinds(result) == ["index_seek"]
        if seek_column == "pid":  # the shard key: only its owner answers
            assert contacted == [sharded.partitioner.shard_for(5)]
        else:
            assert contacted == list(range(NUM_SHARDS))


def _profiles(rng: random.Random):
    system = build_cpu_polystore([])
    engine = system.register_sharded_engine("profiles", KeyValueEngine, NUM_SHARDS)
    for uid in rng.sample(range(40), 20) + [5, DEFAULT]:
        engine.put(f"user/{uid}", {"uid": uid, "tier": rng.randrange(3)})
    return system, engine, dataset("profiles").kv(key_prefix="user/")


class TestKeyedReads:
    def test_kv_get(self, rng):
        system, engine, source = _profiles(rng)
        results = _differential(system, source, "key",
                                baseline_options=NO_PUSHDOWN, ordered=False)
        self._assert_routed(system, engine, source, "key", "user/5")
        assert len(results["5"].output("rows")) == 1

    def test_kv_get_absent_key_keeps_value_columns(self, rng):
        # A hint naming only absent keys reads nothing; the empty result
        # still has the value columns a later projection or join needs.
        system, _, source = _profiles(rng)

        def tier_of(value) -> DataflowProgram:
            program = DataflowProgram("tier")
            program.output("tier", source.filter(col("key") == value).project(["tier"]))
            return program

        session = system.session()
        tiers = session.prepare(tier_of(Param("uid"))).run(uid=ABSENT).output("tier")
        session.close()
        full_read = system.execute(tier_of(ABSENT), options=NO_PUSHDOWN).output("tier")
        assert len(tiers) == 0
        assert "tier" in tiers.schema.names
        assert _shape(tiers) == _shape(full_read)

    def test_ts_summarize(self, rng):
        system = build_cpu_polystore([])
        engine = system.register_sharded_engine("monitors", TimeseriesEngine,
                                                NUM_SHARDS)
        for pid in rng.sample(range(40), 20) + [5, DEFAULT]:
            engine.append_many(f"hr/{pid}", [(float(t), float(rng.randrange(50, 120)))
                                             for t in range(rng.randrange(1, 6))])
        source = dataset("monitors").timeseries("hr/")
        results = _differential(system, source, "pid",
                                baseline_options=NO_PUSHDOWN, ordered=False)
        self._assert_routed(system, engine, source, "pid", "hr/5")
        assert len(results["5"].output("rows")) == 1

    def test_keyword_features(self, rng):
        system = build_cpu_polystore([])
        engine = system.register_sharded_engine("notes", TextEngine, NUM_SHARDS)
        for pid in rng.sample(range(40), 20) + [5, DEFAULT]:
            words = rng.choice(["sepsis fever", "stable recovery", "sepsis"])
            engine.add_document(f"note/{pid}", f"patient note {words}")
        source = (dataset("notes").text()
                  .keyword_features(["sepsis"], doc_prefix="note/", id_column="pid"))
        results = _differential(system, source, "pid",
                                baseline_options=NO_PUSHDOWN, ordered=False)
        self._assert_routed(system, engine, source, "pid", "note/5")
        assert len(results["5"].output("rows")) == 1

    @pytest.mark.parametrize("entities", ["named", "none"])
    def test_keyword_features_non_numeric_ids(self, rng, entities):
        # Entity ids that are not integers (or no documents under the
        # prefix at all) type the id column STRING, hit or miss.
        system = build_cpu_polystore([])
        engine = system.register_sharded_engine("notes", TextEngine, NUM_SHARDS)
        engine.add_document("other/5", "sepsis")
        if entities == "named":
            for name in rng.sample(["ann", "bob", "cy", "dee", "eve"], 4) + ["5x"]:
                engine.add_document(f"note/{name}", f"note {rng.choice(['sepsis', 'ok'])}")
        source = (dataset("notes").text()
                  .keyword_features(["sepsis"], doc_prefix="note/", id_column="pid"))
        _differential(system, source, "pid", bindings=BINDINGS + ["5x", "<default>"],
                      baseline_options=NO_PUSHDOWN, ordered=False)

    @staticmethod
    def _assert_routed(system, engine, source, column, owner_key):
        session = system.session()
        prepared = session.prepare(_program(source, col(column) == Param(column)))
        contacted, _ = _contacts(engine, lambda: prepared.run(**{column: 5}))
        session.close()
        assert contacted == [engine.partitioner.shard_for(owner_key)]
