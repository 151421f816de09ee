"""Volcano-style physical operators for the relational engine.

Each operator is an iterator over positional rows (tuples) and carries the
:class:`~repro.datamodel.schema.Schema` of those rows, derived from its
inputs when it is built: filter, sort, limit and top-k keep their child's
schema, projection takes a subset, a join is its left side plus the right
columns the left lacks, and an aggregate is its group columns plus one
column per aggregate typed by :meth:`AggregateSpec.dtype`.  So the schema of
a result never depends on which rows happened to match.  Predicates compile
once per operator into closures over row positions
(:meth:`~repro.stores.relational.expressions.Expression.compile`).

The set matches the operators the paper lists as what SQL queries are
lowered to (§III-A-1): projection, hash, sort, group-by and join, plus
scans, filters and limits.

The sort operator has two implementations: the engine's native CPU sort
(Timsort) and a software model of a *bitonic sorting network*, the algorithm
the paper calls out as inherently pipeline-parallel and therefore a natural
FPGA offload target.  The bitonic implementation counts its compare-exchange
stages so the FPGA simulator can map them onto pipeline cycles.
"""

from __future__ import annotations

import abc
import heapq
from dataclasses import dataclass
from itertools import islice
from operator import add, itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.datamodel.schema import Column, DataType, Schema
from repro.datamodel.table import Row, Table
from repro.exceptions import QueryError
from repro.stores.relational.expressions import Expression


class PhysicalOperator(abc.ABC):
    """Base class for iterator-model physical operators.

    ``schema`` describes every row the operator yields.
    """

    schema: Schema

    @abc.abstractmethod
    def __iter__(self) -> Iterator[Row]:
        """Yield output rows."""

    def execute(self) -> list[Row]:
        """Materialize all output rows."""
        return list(self)

    def to_table(self) -> Table:
        """Materialize the output as a :class:`Table` of this operator's schema."""
        return Table(self.schema, self.execute())


class TableScan(PhysicalOperator):
    """Full sequential scan over positional rows of ``schema`` (shared, not copied).

    ``rows`` is iterated once per pass, so a one-shot iterable (a heap scan
    generator) makes a one-pass operator.
    """

    def __init__(self, schema: Schema, rows: Iterable[Row]) -> None:
        self.schema = schema
        self._rows = rows

    @classmethod
    def of(cls, table: Table) -> "TableScan":
        """A scan over a materialized table."""
        return cls(table.schema, table.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)


class Filter(PhysicalOperator):
    """Emit only rows satisfying a predicate expression."""

    def __init__(self, child: PhysicalOperator, predicate: Expression) -> None:
        self._child = child
        self.schema = child.schema
        self._test = predicate.compile(child.schema)

    def __iter__(self) -> Iterator[Row]:
        return filter(self._test, self._child)


class Project(PhysicalOperator):
    """Keep only the named columns, in the given order.

    A name the child lacks raises :class:`QueryError` once a row reaches it,
    like an unknown column in a predicate; its output column is typed as an
    all-NULL column would be inferred (nullable STRING).
    """

    def __init__(self, child: PhysicalOperator, columns: Sequence[str]) -> None:
        self._child = child
        names = list(dict.fromkeys(columns))
        self.schema = Schema(_column_or_null(child.schema, name) for name in names)
        missing = [name for name in names if name not in child.schema]
        if not missing:
            self._pick = row_getter(child.schema, names)
            return
        message = f"projection references unknown column {missing[0]!r}"

        def unknown(row: Row) -> Row:
            raise QueryError(message)
        self._pick = unknown

    def __iter__(self) -> Iterator[Row]:
        return map(self._pick, self._child)


class Limit(PhysicalOperator):
    """Emit at most ``n`` rows."""

    def __init__(self, child: PhysicalOperator, n: int) -> None:
        if n < 0:
            raise QueryError("LIMIT must be non-negative")
        self._child = child
        self.schema = child.schema
        self._n = n

    def __iter__(self) -> Iterator[Row]:
        return islice(self._child, self._n)


class Sort(PhysicalOperator):
    """In-memory sort by one or more columns (CPU Timsort path).

    ``None`` sorts first (last when descending); a column the child lacks
    reads as ``None``.
    """

    def __init__(self, child: PhysicalOperator, by: Sequence[str], *,
                 descending: bool = False) -> None:
        self._child = child
        self.schema = child.schema
        self._key = _sort_key([_position(child.schema, name) for name in by])
        self._descending = descending

    def __iter__(self) -> Iterator[Row]:
        rows = list(self._child)
        rows.sort(key=self._key, reverse=self._descending)
        return iter(rows)


def _join_schema(left: Schema, right: Schema) -> tuple[Schema, Callable[[Row], Row]]:
    """Join output schema (left, then right columns the left lacks) and the
    getter of those right columns."""
    extra = [column for column in right if column.name not in left]
    return Schema(list(left) + extra), row_getter(right, [c.name for c in extra])


class HashJoin(PhysicalOperator):
    """Equi-join using an in-memory hash table built on the right input.

    NULL keys never match, and a key column a side lacks reads as NULL.
    """

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 left_key: str, right_key: str, *, how: str = "inner") -> None:
        if how not in ("inner", "left"):
            raise QueryError(f"unsupported join type {how!r}")
        self._left = left
        self._right = right
        self._left_key = _position(left.schema, left_key)
        self._right_key = _position(right.schema, right_key)
        self._how = how
        self.schema, self._extra = _join_schema(left.schema, right.schema)

    def __iter__(self) -> Iterator[Row]:
        buckets: dict[Any, list[Row]] = {}
        right_key, extra = self._right_key, self._extra
        if right_key is not None:
            for row in self._right:
                key = row[right_key]
                if key is not None:
                    buckets.setdefault(key, []).append(extra(row))
        left_key = self._left_key
        padding = (None,) * (len(self.schema) - len(self._left.schema))
        keep_unmatched = self._how == "left"
        for left_row in self._left:
            key = left_row[left_key] if left_key is not None else None
            matches = buckets.get(key) if key is not None else None
            if matches:
                for right_part in matches:
                    yield left_row + right_part
            elif keep_unmatched:
                yield left_row + padding


class SortMergeJoin(PhysicalOperator):
    """Equi-join by sorting both inputs on the key and merging.

    This is the join used in the paper's §III walk-through (Admission ⋈
    Patients sorted on admission date), where the sort phase is the offload
    candidate.
    """

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 left_key: str, right_key: str) -> None:
        self._left = left
        self._right = right
        self._left_key = _position(left.schema, left_key)
        self._right_key = _position(right.schema, right_key)
        self.schema, self._extra = _join_schema(left.schema, right.schema)

    def __iter__(self) -> Iterator[Row]:
        lk, rk, extra = self._left_key, self._right_key, self._extra
        if lk is None or rk is None:
            return
        left_rows = sorted((r for r in self._left if r[lk] is not None),
                           key=itemgetter(lk))
        right_rows = sorted((r for r in self._right if r[rk] is not None),
                            key=itemgetter(rk))
        i = j = 0
        while i < len(left_rows) and j < len(right_rows):
            lkey = left_rows[i][lk]
            rkey = right_rows[j][rk]
            if lkey < rkey:
                i += 1
            elif lkey > rkey:
                j += 1
            else:
                j_end = j
                while j_end < len(right_rows) and right_rows[j_end][rk] == lkey:
                    j_end += 1
                i_end = i
                while i_end < len(left_rows) and left_rows[i_end][lk] == lkey:
                    i_end += 1
                right_parts = [extra(row) for row in right_rows[j:j_end]]
                for left_row in left_rows[i:i_end]:
                    for right_part in right_parts:
                        yield left_row + right_part
                i, j = i_end, j_end


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate to compute: ``function(column) AS alias``."""

    function: str
    column: str | None
    alias: str

    _SUPPORTED = ("count", "sum", "avg", "min", "max")

    def __post_init__(self) -> None:
        if self.function not in self._SUPPORTED:
            raise QueryError(f"unsupported aggregate function {self.function!r}")
        if self.function != "count" and self.column is None:
            raise QueryError(f"aggregate {self.function!r} requires a column")

    def dtype(self, schema: Schema) -> DataType:
        """The output column's type over an input of ``schema``.

        count → INT, avg → FLOAT, sum over BOOL → INT (Python and SQL both
        sum booleans to integers), otherwise the source column's type.  A
        source column the input lacks only ever aggregates NULLs (FLOAT).
        """
        if self.function == "count":
            return DataType.INT
        if self.function == "avg" or self.column not in schema:
            return DataType.FLOAT
        source = schema[self.column].dtype
        if self.function == "sum" and source is DataType.BOOL:
            return DataType.INT
        return source


class GroupByAggregate(PhysicalOperator):
    """Hash group-by with the standard SQL aggregates.

    Groups come out in first-seen order.  With no group columns the input
    is one group, so an empty input still yields one row.  A group column
    the child lacks reads as NULL.
    """

    def __init__(self, child: PhysicalOperator, group_by: Sequence[str],
                 aggregates: Sequence[AggregateSpec]) -> None:
        self._child = child
        schema = child.schema
        self._group_by = list(group_by)
        self._key = row_getter(schema, group_by)
        self._aggregators = [_aggregator(spec, schema) for spec in aggregates]
        self.schema = Schema(
            [_column_or_null(schema, name) for name in group_by]
            + [Column(spec.alias, spec.dtype(schema)) for spec in aggregates])

    def __iter__(self) -> Iterator[Row]:
        if not self._group_by:
            groups: dict[Row, list[Row]] = {(): list(self._child)}
        else:
            groups = {}
            key_of = self._key
            for row in self._child:
                key = key_of(row)
                members = groups.get(key)
                if members is None:
                    groups[key] = [row]
                else:
                    members.append(row)
        if not self._aggregators:
            return iter(groups)
        columns = [list(map(aggregate, groups.values())) for aggregate in self._aggregators]
        return map(add, groups, zip(*columns))


class TopK(PhysicalOperator):
    """Heap-based top-k by a column, equivalent to ORDER BY ... LIMIT k.

    Rows whose ``by`` value is NULL never qualify.
    """

    def __init__(self, child: PhysicalOperator, by: str, k: int, *,
                 descending: bool = True) -> None:
        if k < 0:
            raise QueryError("k must be non-negative")
        self._child = child
        self.schema = child.schema
        self._by = _position(child.schema, by)
        self._k = k
        self._descending = descending

    def __iter__(self) -> Iterator[Row]:
        by = self._by
        if by is None or self._k == 0:
            return iter(())
        rows = [r for r in self._child if r[by] is not None]
        select = heapq.nlargest if self._descending else heapq.nsmallest
        return iter(select(self._k, rows, key=itemgetter(by)))


def _aggregator(spec: AggregateSpec, schema: Schema) -> Callable[[list[Row]], Any]:
    """``spec`` as a function of one group's rows, for inputs of ``schema``.

    NULLs are skipped; sum/avg/min/max over no non-NULL value are NULL.
    """
    if spec.column is None:
        return len  # count(*)
    if spec.column not in schema:  # only NULLs to aggregate
        return (lambda rows: 0) if spec.function == "count" else (lambda rows: None)
    value_of = itemgetter(schema.index_of(spec.column))
    if spec.function == "count":
        return lambda rows: len([v for v in map(value_of, rows) if v is not None])
    reduce = _REDUCERS[spec.function]

    def aggregate(rows: list[Row]) -> Any:
        values = [v for v in map(value_of, rows) if v is not None]
        return reduce(values) if values else None
    return aggregate


_REDUCERS: dict[str, Callable[[list[Any]], Any]] = {
    "sum": sum,
    "avg": lambda values: sum(values) / len(values),
    "min": min,
    "max": max,
}


def _position(schema: Schema, name: str) -> int | None:
    """Position of ``name`` in ``schema``, ``None`` when absent (reads as NULL)."""
    return schema.index_of(name) if name in schema else None


def _column_or_null(schema: Schema, name: str) -> Column:
    """The input's column, or the nullable STRING an all-NULL column infers to."""
    return schema[name] if name in schema else Column(name, DataType.STRING)


def row_getter(schema: Schema, names: Sequence[str]) -> Callable[[Row], Row]:
    """A function from a row of ``schema`` to the tuple of the named columns'
    values; a name the schema lacks reads as NULL."""
    positions = [_position(schema, name) for name in names]
    if None in positions:
        return lambda row: tuple(None if p is None else row[p] for p in positions)
    if len(positions) == 1:
        (only,) = positions
        return lambda row: (row[only],)
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


def _sort_key(positions: Sequence[int | None]) -> Callable[[Row], tuple]:
    if len(positions) == 1 and positions[0] is not None:
        (only,) = positions
        return lambda row: (row[only] is not None, row[only])

    def key(row: Row) -> tuple:
        return tuple((row[p] is not None, row[p]) if p is not None else (False, None)
                     for p in positions)
    return key


# -- bitonic sorting network ----------------------------------------------------------------


@dataclass
class BitonicSortStats:
    """Work counters produced by :func:`bitonic_sort`.

    Attributes:
        n_padded: Input size after padding to the next power of two.
        stages: Number of compare-exchange stages (the pipeline depth an FPGA
            implementation would instantiate).
        comparisons: Total compare-exchange operations performed.
    """

    n_padded: int
    stages: int
    comparisons: int


def bitonic_sort(values: Sequence[Any], *, key: Callable[[Any], Any] | None = None,
                 descending: bool = False) -> tuple[list[Any], BitonicSortStats]:
    """Sort ``values`` with a bitonic sorting network.

    The network's structure (log^2 n stages of n/2 independent compare-exchange
    operations) is what makes it attractive for FPGA pipelining; the returned
    statistics let the accelerator simulator translate the same work into
    pipeline cycles.
    """
    items = list(values)
    n = len(items)
    if n <= 1:
        return items, BitonicSortStats(n_padded=n, stages=0, comparisons=0)
    key_fn = key if key is not None else (lambda x: x)

    size = 1
    while size < n:
        size *= 2
    sentinel = object()
    padded: list[Any] = items + [sentinel] * (size - n)

    def rank(item: Any) -> tuple[int, Any]:
        # Sentinels sort after every real value so padding never interleaves.
        if item is sentinel:
            return (1, 0)
        return (0, key_fn(item))

    comparisons = 0
    stages = 0
    k = 2
    while k <= size:
        j = k // 2
        while j >= 1:
            stages += 1
            for i in range(size):
                partner = i ^ j
                if partner > i:
                    ascending = (i & k) == 0
                    comparisons += 1
                    a, b = padded[i], padded[partner]
                    swap = rank(a) > rank(b) if ascending else rank(a) < rank(b)
                    if swap:
                        padded[i], padded[partner] = b, a
            j //= 2
        k *= 2

    result = [item for item in padded if item is not sentinel]
    if descending:
        result.reverse()
    return result, BitonicSortStats(n_padded=size, stages=stages, comparisons=comparisons)
