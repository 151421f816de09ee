"""Span recorder that wraps the library's layer boundaries from outside.

Nothing in ``src/`` is edited.  :class:`Tracer.install` replaces the
functions listed in :func:`_targets` (public ones, plus three server
methods where a request crosses threads) on their classes and modules with
thin wrappers; :meth:`Tracer.uninstall` puts the originals back.  Each wrapped
call records one :class:`Span` (name, layer, start, end, parent, thread,
operation id) in memory.  A ``contextvars`` variable carries the current
span, and ``ThreadPoolExecutor.submit`` is wrapped to copy the caller's
context, so work the engine hands to pool threads still parents under the
span that dispatched it.

Self time is a span's duration minus the part its child spans cover.  When
children run in parallel on several threads, each instant is shared equally
among the innermost spans active at that instant, so the self times of one
operation always add up to its duration; coverage is reported separately
(see :func:`layer_metrics`).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterator

_current: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "perfbench_span", default=None)
_ids = itertools.count(1)

#: Span keys that always start a tree: the server reaches them through its
#: event loop or its worker pool, never from the span that is current there.
_ROOT_KEYS = frozenset({"serve.server"})


class Span:
    """One recorded call.  ``key`` names the metric its self time feeds."""

    __slots__ = ("sid", "parent", "op", "key", "name", "thread", "start", "end",
                 "attrs")

    def __init__(self, key: str, name: str, parent: "Span | None") -> None:
        self.sid = next(_ids)
        self.parent = parent.sid if parent is not None else None
        self.op = parent.op if parent is not None else None
        self.key = key
        self.name = name
        self.thread = threading.get_ident()
        self.start = time.perf_counter()
        self.end = self.start
        self.attrs: dict[str, Any] = {}

    @property
    def layer(self) -> str:
        return self.key.split(".", 1)[0]

    def to_json(self) -> dict[str, Any]:
        return {"id": self.sid, "parent": self.parent, "op": self.op,
                "layer": self.layer, "key": self.key, "name": self.name,
                "thread": self.thread, "start": self.start, "end": self.end,
                "attrs": {k: v for k, v in self.attrs.items()
                          if isinstance(v, (int, float, str, bool))}}


# -- what each wrapped call records beyond its span --------------------------------------

def _rows(value: Any) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _on_executor(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    report = result[1]
    records = report.records
    span.attrs.update(
        operators=len(records),
        cached=sum(1 for r in records if r.cached),
        offloaded=sum(1 for r in records if r.offloaded and not r.cached),
        # Simulated device time is its own series: never added to host time.
        offload_sim_s=sum(r.simulated_time_s for r in records
                          if r.offloaded and not r.cached),
        flops=sum(int(r.details.get("flops", 0)) for r in records
                  if r.offloaded and not r.cached))


def _on_predicate(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs.update(rows_in=_rows(args[0]), rows_out=_rows(result))


def _on_scatter(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    times = (result.details.get("shard_times_s") if result is not None
             else None) or []
    mean = sum(times) / len(times) if times else 0.0
    if mean > 0:
        span.attrs["skew"] = max(times) / mean


def _on_migrate(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    report = result[1]
    span.attrs.update(bytes=report.payload_bytes, sim_s=report.total_s)


def _on_refresh(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs.update(kind=result.kind, delta_rows=result.delta_rows)


def _on_append(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["entries"] = len(result.entries)


def _on_served(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    # args[1] is the request message (a dict) or the server's request record.
    target = args[1]
    span.attrs["request_id"] = (target.get("id") if isinstance(target, dict)
                                else target.id)


def _on_cache_get(counters: dict, args: tuple, result: Any) -> None:
    counters["plan_cache.hits" if result is not None else "plan_cache.misses"] += 1


def _on_client_request(counters: dict, args: tuple, result: Any) -> None:
    span = _current.get()
    if span is not None and span.key == "serve.rtt":
        span.attrs["request_id"] = args[1].get("id")


def _on_frame(counters: dict, args: tuple, result: Any) -> None:
    counters["serve.wire_bytes"] += len(result)


def _on_wal_record(counters: dict, args: tuple, result: Any) -> None:
    counters["durability.wal_bytes"] += len(result)


def _on_fsync(counters: dict, args: tuple, result: Any) -> None:
    counters["durability.fsyncs"] += 1


def _targets() -> tuple[list[tuple], list[tuple]]:
    """``(spans, counters)``: what :meth:`Tracer.install` wraps.

    A span target is ``(owner, attribute, metric key, on_result)``; a
    counter target is ``(owner, attribute, on_result)`` and records no span.
    """
    from repro.client.cache import PlanCache
    from repro.client.session import PreparedProgram
    from repro.cluster import scatter, sharded
    from repro.compiler.pipeline import Compiler
    from repro.datamodel.schema import Schema
    from repro.datamodel.table import Table
    from repro.durability import wal
    from repro.durability.manager import EngineStore
    from repro.middleware.adapters import base as adapter_base
    from repro.middleware.adapters import nosql_adapters, relational_adapter
    from repro.middleware.executor.scheduler import Executor
    from repro.middleware.migration.migrator import DataMigrator
    from repro.serve import client as serve_client
    from repro.serve import server as serve_server
    from repro.stores import MLEngine, RelationalEngine, TimeseriesEngine
    from repro.stores.changelog import ChangeLog
    from repro.stores.relational.operators import PhysicalOperator
    from repro.views.registry import ViewRegistry
    from repro.views.view import MaterializedView

    spans: list[tuple] = [
        (serve_client.TcpClient, "execute", "serve.rtt", None),
        # Server-side handling outside the served PreparedProgram.run: the
        # loop thread's dispatch and reply, the worker's slot checkout.
        (serve_server.PolystoreServer, "_handle_message", "serve.server",
         _on_served),
        (serve_server.PolystoreServer, "_run_request", "serve.server",
         _on_served),
        (serve_server.PolystoreServer, "_on_complete", "serve.server",
         _on_served),
        (PreparedProgram, "run", "client.run", None),
        (Compiler, "compile", "compiler.compile", None),
        (Executor, "execute", "executor.self", _on_executor),
        (scatter.ScatterGather, "execute", "cluster.scatter_self", _on_scatter),
        (scatter, "combine_partial_aggregates", "cluster.merge", None),
        (scatter, "concat_tables", "cluster.merge", None),
        (sharded, "concat_tables", "cluster.merge", None),
        (DataMigrator, "migrate", "migration.self", _on_migrate),
        (MaterializedView, "refresh", "views.refresh_self", _on_refresh),
        (ViewRegistry, "serve", "views.read", None),
        (ChangeLog, "append", "changelog.append", _on_append),
        (wal.WalWriter, "append", "durability.wal_append", None),
        (EngineStore, "checkpoint", "durability.checkpoint", None),
        (Table, "to_dicts", "datamodel.to_dicts", None),
        (Table, "from_dicts", "datamodel.from_dicts", None),
        (Schema, "infer", "datamodel.schema_infer", None),
        (PhysicalOperator, "execute", "stores.relational_kernel", None),
        (TimeseriesEngine, "summarize", "stores.timeseries", None),
        (MLEngine, "train_classifier", "stores.ml", None),
        (MLEngine, "train_logistic", "stores.ml", None),
    ]
    for name in ("scan", "snapshot_scan", "execute_plan", "index_lookup"):
        spans.append((RelationalEngine, name, "stores.relational_read", None))
    for name in ("insert", "update_rows", "delete_rows"):
        spans.append((RelationalEngine, name, "stores.relational_write", None))
    for module in (adapter_base, relational_adapter, nosql_adapters):
        spans.append((module, "apply_predicate", "adapters.predicate",
                      _on_predicate))
    pending = list(adapter_base.Adapter.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "execute" in vars(cls):
            spans.append((cls, "execute", "adapters.self", None))
    counters: list[tuple] = [
        (serve_client.TcpClient, "request", _on_client_request),
        (PlanCache, "get", _on_cache_get),
        (serve_client, "encode_frame", _on_frame),
        (serve_server, "encode_frame", _on_frame),
        (wal, "encode_record", _on_wal_record),
        (os, "fsync", _on_fsync),
    ]
    return spans, counters


def _raw(owner: Any, attribute: str) -> tuple[Any, bool]:
    """The attribute as stored on ``owner`` and whether it is its own."""
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attribute in vars(klass):
                return vars(klass)[attribute], klass is owner
        raise AttributeError(f"{owner.__name__} has no {attribute!r}")
    return getattr(owner, attribute), True


def _rewrap(raw: Any, make: Callable[[Callable], Callable]) -> Any:
    if isinstance(raw, classmethod):
        return classmethod(make(raw.__func__))
    if isinstance(raw, staticmethod):
        return staticmethod(make(raw.__func__))
    return make(raw)


class Tracer:
    """Installs the wrappers and keeps every span and counter in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: phase ("setup" or "timed") -> counter name -> count.
        self.counters: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self.phase = "setup"
        self._saved: list[tuple[Any, str, Any, bool]] = []

    # -- install / uninstall ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        spans, counters = _targets()
        for owner, attribute, key, on_result in spans:
            self._patch(owner, attribute,
                        lambda fn, k=key, h=on_result: self._span_wrapper(fn, k, h))
        for owner, attribute, on_result in counters:
            self._patch(owner, attribute,
                        lambda fn, h=on_result: self._counter_wrapper(fn, h))
        original_submit = ThreadPoolExecutor.submit

        @functools.wraps(original_submit)
        def submit(pool, fn, /, *args, **kwargs):
            return original_submit(pool, contextvars.copy_context().run, fn,
                                   *args, **kwargs)

        self._saved.append((ThreadPoolExecutor, "submit", original_submit, True))
        ThreadPoolExecutor.submit = submit

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, raw, own = self._saved.pop()
            if own:
                setattr(owner, attribute, raw)
            else:
                delattr(owner, attribute)

    def _patch(self, owner: Any, attribute: str,
               make: Callable[[Callable], Callable]) -> None:
        raw, own = _raw(owner, attribute)
        self._saved.append((owner, attribute, raw, own))
        setattr(owner, attribute, _rewrap(raw, make))

    def _span_wrapper(self, fn: Callable, key: str,
                      on_result: Callable | None) -> Callable:
        spans = self.spans
        name = getattr(fn, "__qualname__", key)
        tracer = self

        root = key in _ROOT_KEYS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(key, name, None if root else _current.get())
            span.attrs["phase"] = tracer.phase
            token = _current.set(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                _current.reset(token)
                spans.append(span)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        return wrapper

    def _counter_wrapper(self, fn: Callable, on_result: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(tracer.counters[tracer.phase], args, result)
            return result

        return wrapper

    # -- benchmark operations --------------------------------------------------------

    @contextlib.contextmanager
    def op(self) -> Iterator[Span]:
        """Root span around one timed benchmark operation."""
        span = Span("bench.self", "op", None)
        span.op = span.sid
        span.attrs["phase"] = "timed"
        token = _current.set(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            _current.reset(token)
            self.spans.append(span)

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")


# -- attribution ---------------------------------------------------------------------

def _link_served(spans: list[Span]) -> int:
    """Join each server-side tree to the TCP call that caused it.

    The server handles a request on its event loop and worker threads, so
    no context flows from the client span; the request id in the message
    links them.  Returns how many timed-phase server spans found no call.
    """
    calls = {span.attrs["request_id"]: span for span in spans
             if span.key == "serve.rtt" and span.op is not None
             and "request_id" in span.attrs}
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    unmatched = 0
    for served in spans:
        if served.key != "serve.server" or served.attrs["phase"] != "timed":
            continue
        call = calls.get(served.attrs.get("request_id"))
        if call is None:
            unmatched += 1
            continue
        served.parent = call.sid
        stack = [served]
        while stack:
            span = stack.pop()
            span.op = call.op
            stack.extend(children.get(span.sid, ()))
    return unmatched


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self seconds per span id, sharing parallel instants equally.

    Spans are clipped to their operation's root span: a server worker that
    replied and then waited for the GIL while the client went on has no
    share in that operation after it ended.
    """
    by_op: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.op is not None:
            by_op[span.op].append(span)
    result: dict[int, float] = defaultdict(float)
    for op, group in by_op.items():
        by_sid = {s.sid: s for s in group}
        root = by_sid.get(op)
        low, high = ((root.start, root.end) if root is not None
                     else (float("-inf"), float("inf")))
        events = sorted([(min(max(s.start, low), high), 1, s) for s in group]
                        + [(min(max(s.end, low), high), 0, s) for s in group],
                        key=lambda e: (e[0], e[1]))
        active_children: dict[int, int] = {}
        leaves: set[Span] = set()
        previous = None
        for instant, is_start, span in events:
            if leaves and previous is not None and instant > previous:
                share = (instant - previous) / len(leaves)
                for leaf in leaves:
                    result[leaf.sid] += share
            previous = instant
            parent = span.parent
            if is_start:
                active_children[span.sid] = 0
                leaves.add(span)
                if parent in active_children:
                    active_children[parent] += 1
                    leaves.discard(by_sid[parent])
            else:
                active_children.pop(span.sid, None)
                leaves.discard(span)
                if parent in active_children:
                    active_children[parent] -= 1
                    if active_children[parent] == 0:
                        leaves.add(by_sid[parent])
    return result


# -- per-layer metrics ---------------------------------------------------------------

#: Every per-layer metric, with its unit, in report order.  A workload that
#: does not load a layer reports 0 for it.  ``sim_s`` marks simulated device
#: or network seconds, a series apart from measured host time.
PER_LAYER: list[tuple[str, str]] = [
    ("serve.self_ms", "ms"), ("serve.server_ms", "ms"),
    ("serve.wire_bytes_per_req", "B"), ("serve.unmatched_spans", "count"),
    ("client.run_self_us", "us"), ("client.plan_cache_hit_ratio", "ratio"),
    ("compiler.compile_calls", "count"), ("compiler.compile_ms", "ms"),
    ("executor.self_ms", "ms"), ("executor.operators_per_run", "count"),
    ("executor.cached_ratio", "ratio"),
    ("adapters.self_ms", "ms"), ("adapters.predicate_ms", "ms"),
    ("adapters.rows_examined_per_row_returned", "ratio"),
    ("stores.relational_read_ms", "ms"), ("stores.relational_kernel_ms", "ms"),
    ("stores.relational_write_ms", "ms"),
    ("stores.timeseries_ms", "ms"), ("stores.ml_ms", "ms"),
    ("cluster.scatter_self_ms", "ms"), ("cluster.merge_ms", "ms"),
    ("cluster.shard_skew", "ratio"),
    ("migration.ms", "ms"), ("migration.bytes_per_run", "B"),
    ("migration.simulated_s", "sim_s"),
    ("accelerators.offloaded_ops_per_run", "count"),
    ("accelerators.simulated_s", "sim_s"),
    ("accelerators.gemm_flops_per_run", "count"),
    ("views.refresh_self_ms", "ms"), ("views.delta_rows_per_refresh", "count"),
    ("views.incremental_ratio", "ratio"), ("views.read_ms", "ms"),
    ("changelog.append_us", "us"), ("changelog.entries_per_write", "count"),
    ("durability.wal_append_us", "us"), ("durability.fsyncs_per_write", "count"),
    ("durability.checkpoint_ms", "ms"), ("durability.checkpoints", "count"),
    ("durability.wal_bytes_per_user_byte", "ratio"),
    ("durability.replayed_records", "count"),
    ("datamodel.to_dicts_ms", "ms"), ("datamodel.from_dicts_ms", "ms"),
    ("datamodel.schema_infer_calls", "count"),
    ("bench.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"), ("trace.layer_sum_ms", "ms"),
    ("trace.e2e_p50_ms", "ms"), ("trace.outer_share", "ratio"),
    ("trace.spans_per_op", "count"),
]

#: Span keys whose self time is reported as a per-operation ``<key>_ms``.
_PER_OP_MS = {
    "serve.rtt": "serve.self_ms", "serve.server": "serve.server_ms",
    "executor.self": "executor.self_ms",
    "adapters.self": "adapters.self_ms", "adapters.predicate": "adapters.predicate_ms",
    "stores.relational_read": "stores.relational_read_ms",
    "stores.relational_kernel": "stores.relational_kernel_ms",
    "stores.relational_write": "stores.relational_write_ms",
    "stores.timeseries": "stores.timeseries_ms", "stores.ml": "stores.ml_ms",
    "cluster.scatter_self": "cluster.scatter_self_ms",
    "cluster.merge": "cluster.merge_ms", "migration.self": "migration.ms",
    "datamodel.to_dicts": "datamodel.to_dicts_ms",
    "datamodel.from_dicts": "datamodel.from_dicts_ms",
    "bench.self": "bench.self_ms",
}


#: The outermost wrappers: their self time is what no inner layer claims.
_OUTER = ("bench.self", "serve.rtt", "client.run")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 4:
        return min(values), max(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from the spans of the timed phase.

    Per-operation ``_ms`` metrics average each layer's self time over the
    traced operations whose duration lies between the first and third
    quartile, so together they describe the typical operation.  Self times
    share out every instant of an operation, so their sum is the operation's
    duration by construction; what the wrappers cover shows instead in
    ``trace.layer_sum_ms`` (the sum without ``bench.self``, time no wrapper
    covers) and ``trace.outer_share`` (the part only the outermost wrappers
    claim).  Per-call (``_us``, ``views.*_ms``,
    ``durability.checkpoint_ms``) and count metrics cover every traced call.
    ``extra`` carries what the workload measured itself (simulated time
    never enters a host-time metric).
    """
    spans = tracer.spans
    unmatched = _link_served(spans)
    selfs = self_times(spans)
    ops = [s for s in spans if s.key == "bench.self" and s.parent is None]
    n_ops = len(ops)
    values = {name: 0.0 for name, _ in PER_LAYER}
    values["serve.unmatched_spans"] = unmatched
    if not ops:
        values.update(extra)
        return values
    durations = [s.end - s.start for s in ops]
    low, high = _quartiles(durations)
    band = {s.sid for s in ops if low <= s.end - s.start <= high}
    per_key: dict[str, float] = defaultdict(float)
    timed = [s for s in spans if s.op is not None]
    for span in timed:
        if span.op in band:
            per_key[span.key] += selfs.get(span.sid, 0.0)
    for key, name in _PER_OP_MS.items():
        values[name] = per_key.get(key, 0.0) / len(band) * 1e3
    total = sum(per_key.values())
    values["trace.layer_sum_ms"] = (total - per_key["bench.self"]) / len(band) * 1e3
    values["trace.outer_share"] = _ratio(sum(per_key[key] for key in _OUTER), total)
    values["trace.e2e_p50_ms"] = statistics.median(durations) * 1e3
    values["trace.spans_per_op"] = len(timed) / n_ops

    by_key: dict[str, list[Span]] = defaultdict(list)
    for span in timed:
        by_key[span.key].append(span)

    def self_sum(key: str) -> float:
        return sum(selfs.get(s.sid, 0.0) for s in by_key[key])

    def attr_sum(key: str, attr: str) -> float:
        return sum(s.attrs.get(attr, 0) for s in by_key[key])

    timed_counts = tracer.counters["timed"]
    setup_counts = tracer.counters["setup"]
    values["serve.wire_bytes_per_req"] = _ratio(
        timed_counts["serve.wire_bytes"], len(by_key["serve.rtt"]))
    values["client.run_self_us"] = _ratio(self_sum("client.run"),
                                          len(by_key["client.run"])) * 1e6
    hits = setup_counts["plan_cache.hits"] + timed_counts["plan_cache.hits"]
    misses = setup_counts["plan_cache.misses"] + timed_counts["plan_cache.misses"]
    values["client.plan_cache_hit_ratio"] = _ratio(hits, hits + misses)
    # A served program compiles on a server worker outside any operation,
    # so compiles are counted by phase rather than by operation.
    compiles = [s for s in spans if s.key == "compiler.compile"]
    values["compiler.compile_calls"] = sum(
        1 for s in compiles if s.attrs["phase"] == "timed")
    values["compiler.compile_ms"] = sum(
        s.end - s.start for s in compiles if s.attrs["phase"] == "setup") * 1e3
    operators = attr_sum("executor.self", "operators")
    values["executor.operators_per_run"] = _ratio(operators,
                                                  len(by_key["executor.self"]))
    values["executor.cached_ratio"] = _ratio(attr_sum("executor.self", "cached"),
                                             operators)
    values["adapters.rows_examined_per_row_returned"] = _ratio(
        attr_sum("adapters.predicate", "rows_in"),
        attr_sum("adapters.predicate", "rows_out"))
    skews = [s.attrs["skew"] for s in by_key["cluster.scatter_self"]
             if "skew" in s.attrs]
    values["cluster.shard_skew"] = statistics.median(skews) if skews else 0.0
    values["migration.bytes_per_run"] = attr_sum("migration.self", "bytes") / n_ops
    values["migration.simulated_s"] = attr_sum("migration.self", "sim_s") / n_ops
    values["accelerators.offloaded_ops_per_run"] = attr_sum(
        "executor.self", "offloaded") / n_ops
    values["accelerators.simulated_s"] = attr_sum("executor.self",
                                                  "offload_sim_s") / n_ops
    values["accelerators.gemm_flops_per_run"] = attr_sum("executor.self",
                                                         "flops") / n_ops
    refreshes = by_key["views.refresh_self"]
    values["views.refresh_self_ms"] = _ratio(self_sum("views.refresh_self"),
                                             len(refreshes)) * 1e3
    values["views.delta_rows_per_refresh"] = _ratio(
        attr_sum("views.refresh_self", "delta_rows"), len(refreshes))
    values["views.incremental_ratio"] = _ratio(
        sum(1 for s in refreshes if s.attrs.get("kind") == "incremental"),
        len(refreshes))
    values["views.read_ms"] = _ratio(self_sum("views.read"),
                                     len(by_key["views.read"])) * 1e3
    write_ids = {s.sid for s in by_key["stores.relational_write"]}
    writes = sum(1 for s in by_key["stores.relational_write"]
                 if s.parent not in write_ids)
    values["changelog.append_us"] = _ratio(self_sum("changelog.append"),
                                           len(by_key["changelog.append"])) * 1e6
    values["changelog.entries_per_write"] = _ratio(
        attr_sum("changelog.append", "entries"), writes)
    values["durability.wal_append_us"] = _ratio(
        self_sum("durability.wal_append"),
        len(by_key["durability.wal_append"])) * 1e6
    values["durability.fsyncs_per_write"] = _ratio(
        timed_counts["durability.fsyncs"], writes)
    checkpoints = by_key["durability.checkpoint"]
    values["durability.checkpoint_ms"] = _ratio(
        sum(s.end - s.start for s in checkpoints), len(checkpoints)) * 1e3
    values["durability.wal_bytes_per_user_byte"] = _ratio(
        timed_counts["durability.wal_bytes"], extra.pop("user_bytes", 0))
    values["datamodel.schema_infer_calls"] = len(
        by_key["datamodel.schema_infer"]) / n_ops
    values.update(extra)
    return values
