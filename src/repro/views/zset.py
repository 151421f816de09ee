"""Z-sets: the weighted-record algebra incremental maintenance computes in.

A Z-set (DBSP's generalized multiset) maps records to integer weights: a
weight of ``+2`` means the record appears twice, ``-1`` cancels one earlier
appearance, and a record whose weights sum to zero is *annihilated* —
physically removed, exactly as if it was never inserted.  Both base-table
deltas and operator outputs are Z-sets, which is what makes the delta
operators composable: addition is associative and commutative, so batches
may be applied in any order and still converge to the same state.

Records are row dictionaries; they are *frozen* to sorted item tuples for
hashing, and thawed back on the way out.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

#: A hashable row: ``((column, value), ...)`` sorted by column name.
FrozenRow = tuple


def freeze_row(row: dict[str, Any]) -> FrozenRow:
    """A hashable, order-independent form of a row dictionary."""
    return tuple(sorted(row.items()))


def thaw_row(frozen: FrozenRow) -> dict[str, Any]:
    """The row dictionary back from its frozen form."""
    return dict(frozen)


class ZSet:
    """A mapping of frozen records to non-zero integer weights."""

    __slots__ = ("_weights",)

    def __init__(self) -> None:
        self._weights: dict[FrozenRow, int] = {}

    # -- construction -------------------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[dict[str, Any]], weight: int = 1) -> "ZSet":
        """A Z-set with ``weight`` per row (rows may repeat)."""
        zset = cls()
        for row in rows:
            zset.add(freeze_row(row), weight)
        return zset

    # -- algebra ------------------------------------------------------------------------

    def add(self, frozen: FrozenRow, weight: int) -> None:
        """Sum ``weight`` into a record, annihilating at zero."""
        if weight == 0:
            return
        total = self._weights.get(frozen, 0) + weight
        if total == 0:
            self._weights.pop(frozen, None)
        else:
            self._weights[frozen] = total

    def update(self, other: "ZSet") -> None:
        """Sum another Z-set into this one (in-place addition)."""
        for frozen, weight in other._weights.items():
            self.add(frozen, weight)

    def negated(self) -> "ZSet":
        """A new Z-set with every weight negated."""
        out = ZSet()
        out._weights = {frozen: -weight for frozen, weight in self._weights.items()}
        return out

    @staticmethod
    def diff(new: "ZSet", old: "ZSet") -> "ZSet":
        """``new - old``: the delta that turns ``old`` into ``new``."""
        out = ZSet()
        for frozen, weight in new._weights.items():
            out.add(frozen, weight - old.weight(frozen))
        for frozen, weight in old._weights.items():
            if frozen not in new._weights:
                out.add(frozen, -weight)
        return out

    # -- access -------------------------------------------------------------------------

    def weight(self, frozen: FrozenRow) -> int:
        """The weight of one record (0 when absent)."""
        return self._weights.get(frozen, 0)

    def items(self) -> Iterator[tuple[FrozenRow, int]]:
        """``(frozen_row, weight)`` pairs (weights never zero)."""
        return iter(self._weights.items())

    def to_rows(self) -> list[dict[str, Any]]:
        """Rows with multiplicity expanded; raises on negative weights.

        A negative weight surviving in a *state* Z-set means more deletions
        than insertions were observed for a record — the delta stream and
        the base diverged, and the caller must resync from the base data.
        """
        rows: list[dict[str, Any]] = []
        for frozen, weight in self._weights.items():
            if weight < 0:
                raise ValueError(
                    f"record {dict(frozen)!r} has negative weight {weight}; "
                    f"delta state diverged from the base data"
                )
            rows.extend(thaw_row(frozen) for _ in range(weight))
        return rows

    @property
    def is_empty(self) -> bool:
        """Whether no record has a non-zero weight."""
        return not self._weights

    @property
    def total_weight(self) -> int:
        """Sum of absolute weights (the delta's size in rows)."""
        return sum(abs(w) for w in self._weights.values())

    def __len__(self) -> int:
        return len(self._weights)

    def __repr__(self) -> str:
        return f"ZSet(records={len(self._weights)}, rows={self.total_weight})"
