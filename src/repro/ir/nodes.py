"""Intermediate-representation nodes.

The paper's compiler chapter (§IV-B-1) calls for a *hierarchical* IR: a
control-level graph whose nodes each carry a data-flow description of one
operator.  Here every node is an :class:`Operator` — a typed, parameterized
unit of work bound (eventually) to an engine or accelerator — and the
:class:`~repro.ir.graph.IRGraph` holds the data-flow edges between them.

A deliberately generic node shape (kind + params + annotations) keeps the
optimization passes uniform: passes match on ``kind`` and rewrite ``params``
without needing one class per operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import IRError

#: Operator kinds understood by the compiler, adapters and cost models.
OPERATOR_KINDS = frozenset({
    # relational
    "scan", "index_seek", "filter", "project", "join", "aggregate", "sort",
    "limit", "top_k",
    # key/value
    "kv_get", "kv_range",
    # timeseries
    "ts_range", "window_aggregate", "ts_summarize",
    # graph
    "graph_match", "shortest_path", "neighborhood", "graph_nodes",
    # text
    "text_search", "keyword_features",
    # array / ML
    "matmul", "gemv", "train", "predict", "kmeans", "feature_matrix",
    # data movement and glue
    "migrate", "materialize", "union", "python_udf",
    # materialized-view reads (served by the view registry, not an engine)
    "view_read",
})

#: Kinds that are candidates for accelerator offload (paper §III-A).
ACCELERABLE_KINDS = frozenset({
    "sort", "filter", "project", "window_aggregate", "matmul", "gemv",
    "train", "predict", "migrate",
})

_MISSING = object()


@dataclass(frozen=True)
class Param:
    """A runtime-bound placeholder inside an operator's parameters.

    Prepared programs (``Session.prepare``) compile once with the placeholder
    in place and substitute the bound value on every
    :meth:`~repro.client.PreparedProgram.run` call, like a prepared
    statement's ``?`` markers.  Placeholders may appear anywhere in a
    dataset node's ``params`` except inside SQL text (SQL is parsed when
    the dataset is built).
    """

    name: str
    default: Any = _MISSING

    @property
    def has_default(self) -> bool:
        """Whether the placeholder carries a fallback value."""
        return self.default is not _MISSING

    def __repr__(self) -> str:  # stable across runs, used by fingerprints
        if self.has_default:
            return f"Param({self.name!r}, default={self.default!r})"
        return f"Param({self.name!r})"


def canonical_value(value: Any) -> str:
    """A deterministic string form of an operator parameter value.

    Containers are recursed; dictionaries are key-sorted.  Callables (the
    ``python_udf`` operator's functions) are identified *by identity*, not by
    content — two distinct function objects never collide, so a plan cached
    for one can never be replayed for the other.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_value(v) for v in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(canonical_value(v) for v in value)) + "}"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: repr(kv[0]))
        return "{" + ",".join(f"{canonical_value(k)}:{canonical_value(v)}"
                              for k, v in items) + "}"
    if isinstance(value, Param):
        return repr(value)
    if callable(value):
        module = getattr(value, "__module__", "?")
        qualname = getattr(value, "__qualname__", type(value).__name__)
        return f"<callable {module}.{qualname}@{id(value):x}>"
    return f"<{type(value).__name__}:{value!r}>"


@dataclass
class Operator:
    """One IR node: a unit of work with data-flow inputs.

    Attributes:
        op_id: Unique node identifier, assigned by the owning
            :class:`~repro.ir.graph.IRGraph` on :meth:`~IRGraph.add` (each
            graph numbers its own operators, so ids are deterministic per
            graph and independent of any global state).
        kind: Operator kind, one of :data:`OPERATOR_KINDS`.
        params: Operator-specific parameters (table names, predicates,
            hyper-parameters, ...).
        inputs: ``op_id``\\ s of producer nodes whose outputs this node reads.
        engine: Name of the engine the node is bound to (``None`` until
            placement decides).
        accelerator: Name of the accelerator chosen by the offload planner
            (``None`` when the operator runs on the host engine).
        annotations: Optimizer annotations such as estimated cardinality,
            estimated bytes, selectivity and data model.
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    inputs: list[str] = field(default_factory=list)
    engine: str | None = None
    accelerator: str | None = None
    annotations: dict[str, Any] = field(default_factory=dict)
    op_id: str = ""

    def __post_init__(self) -> None:
        if self.kind not in OPERATOR_KINDS:
            raise IRError(f"unknown operator kind {self.kind!r}")

    # -- annotation helpers -----------------------------------------------------------

    @property
    def estimated_rows(self) -> int:
        """Estimated output cardinality (0 when unknown)."""
        return int(self.annotations.get("estimated_rows", 0))

    @estimated_rows.setter
    def estimated_rows(self, value: int) -> None:
        self.annotations["estimated_rows"] = int(value)

    @property
    def estimated_bytes(self) -> int:
        """Estimated output size in bytes (0 when unknown)."""
        return int(self.annotations.get("estimated_bytes", 0))

    @estimated_bytes.setter
    def estimated_bytes(self, value: int) -> None:
        self.annotations["estimated_bytes"] = int(value)

    @property
    def is_accelerable(self) -> bool:
        """Whether this operator kind is an offload candidate."""
        return self.kind in ACCELERABLE_KINDS

    def describe(self) -> str:
        """One-line rendering used by plan dumps and the executor log."""
        target = self.accelerator or self.engine or "?"
        interesting = {k: v for k, v in self.params.items()
                       if isinstance(v, (str, int, float, bool))}
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(interesting.items()))
        return f"{self.op_id} [{self.kind} @ {target}] ({params})"

    def copy(self) -> "Operator":
        """A deep-enough copy for pass rewrites (new params/annotations dicts)."""
        return Operator(
            kind=self.kind,
            params=dict(self.params),
            inputs=list(self.inputs),
            engine=self.engine,
            accelerator=self.accelerator,
            annotations=dict(self.annotations),
            op_id=self.op_id,
        )
