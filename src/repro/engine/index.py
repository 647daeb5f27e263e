"""Hash indexes over relations.

The paper's constraint engine "maximally leverages the use of indices and
other optimizations provided by the DBMS".  Our substrate provides composite
hash indexes that map a tuple of attribute values to the set of tuple ids
holding those values.  Indexes are maintained incrementally by the owning
:class:`~repro.engine.relation.Relation` on every insert, delete and update.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Set, Tuple


class HashIndex:
    """A composite hash index over one or more attributes of a relation."""

    def __init__(self, attributes: Iterable[str]):
        self.attributes: Tuple[str, ...] = tuple(attributes)
        if not self.attributes:
            raise ValueError("an index needs at least one attribute")
        self._buckets: Dict[Tuple[Any, ...], Set[int]] = {}

    # -- keys -----------------------------------------------------------------

    def key_for(self, row: Dict[str, Any]) -> Tuple[Any, ...]:
        """Extract the index key for ``row``."""
        return tuple(row.get(attr) for attr in self.attributes)

    # -- maintenance -----------------------------------------------------------

    def add(self, tid: int, row: Dict[str, Any]) -> None:
        """Register tuple ``tid`` with values taken from ``row``."""
        self._buckets.setdefault(self.key_for(row), set()).add(tid)

    def remove(self, tid: int, row: Dict[str, Any]) -> None:
        """Unregister tuple ``tid`` whose values are in ``row``."""
        key = self.key_for(row)
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        bucket.discard(tid)
        if not bucket:
            del self._buckets[key]

    def update(self, tid: int, old_row: Dict[str, Any], new_row: Dict[str, Any]) -> None:
        """Move tuple ``tid`` from its old key to its new key if it changed."""
        old_key = self.key_for(old_row)
        new_key = self.key_for(new_row)
        if old_key == new_key:
            return
        self.remove(tid, old_row)
        self.add(tid, new_row)

    def copy(self) -> "HashIndex":
        """An independent copy holding the same entries."""
        clone = HashIndex(self.attributes)
        clone._buckets = {key: set(tids) for key, tids in self._buckets.items()}
        return clone

    def clear(self) -> None:
        """Drop all entries."""
        self._buckets.clear()

    def rebuild(self, rows: Iterable[Tuple[int, Dict[str, Any]]]) -> None:
        """Rebuild the index from scratch from ``(tid, row)`` pairs."""
        self.clear()
        for tid, row in rows:
            self.add(tid, row)

    # -- lookups ---------------------------------------------------------------

    def lookup(self, *values: Any) -> Set[int]:
        """Return the tuple ids whose indexed attributes equal ``values``."""
        if len(values) != len(self.attributes):
            raise ValueError(
                f"index on {self.attributes} expects {len(self.attributes)} values, "
                f"got {len(values)}"
            )
        return set(self._buckets.get(tuple(values), set()))

    def lookup_key(self, key: Tuple[Any, ...]) -> Set[int]:
        """Return the tuple ids stored under the exact ``key``."""
        return set(self._buckets.get(key, set()))

    def groups(self) -> Iterator[Tuple[Tuple[Any, ...], Set[int]]]:
        """Iterate over ``(key, tids)`` pairs — useful for group-by style scans."""
        for key, tids in self._buckets.items():
            yield key, set(tids)

    def keys(self) -> List[Tuple[Any, ...]]:
        """Return all distinct keys present in the index."""
        return list(self._buckets.keys())

    def __len__(self) -> int:
        return len(self._buckets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashIndex(attributes={self.attributes}, distinct_keys={len(self)})"
