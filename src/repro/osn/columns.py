"""Growable columnar primitives backing the OSN entity stores.

The columnar refactor replaces per-object dataclasses and dict-of-dict
containers with struct-of-arrays storage: one NumPy array per attribute,
rows addressed by dense integer ids.  Three primitives carry the whole
scheme:

* :class:`TypedVector` — an amortised-O(1) append-only vector over a
  NumPy array with geometric growth, the building block for every
  column.
* :class:`StringInterner` — a bidirectional string <-> small-int code
  dictionary so categorical columns (country, cohort, town) store int
  codes instead of Python strings.
* :class:`ColumnIndex` — a lazily compiled inverted index over an id
  column: one sort of packed ``(key, row)`` int64 keys groups equal
  keys into contiguous runs in arrival order, so "all rows for key k"
  becomes one slice.  Rows appended after compilation form a *tail*;
  the first query that sees a tail row puts it into a per-key bucket,
  once, and the index recompiles only when the tail outgrows the
  compiled prefix.

The id and time columns these index are int32: every user id, page id
and minute timestamp fits in 32 bits.  :func:`as_int32` and
:func:`check_int32` reject an out-of-range value with
:class:`~repro.util.validation.ValidationError` before anything is
written, where a plain NumPy store would wrap it silently.

All three are deterministic by construction: sorts of distinct packed
keys (so the order of equal keys never depends on the sort algorithm),
insertion-order code assignment, and no hashing of anything but Python
ints.  :func:`sorted_unique` is the one dedup the compiled structures
and the Figure 5 unions share: a sort and an adjacent-difference mask.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.util.validation import ValidationError

__all__ = [
    "TypedVector",
    "StringInterner",
    "ColumnIndex",
    "as_int32",
    "check_int32",
    "sorted_unique",
]

_MIN_CAPACITY = 16

_INT32_MIN = -(2**31)
_INT32_MAX = 2**31 - 1

# Rows per pass when ColumnIndex.compile fills its sort keys and scans
# them for run boundaries, so neither pass needs a full-length temporary.
_COMPILE_CHUNK = 1 << 16


def check_int32(value: int, what: str) -> None:
    """Reject a scalar bound for an int32 column that would wrap there."""
    if not _INT32_MIN <= value <= _INT32_MAX:
        raise ValidationError(f"{what} {value} does not fit in 32 bits")


def as_int32(values, what: str) -> np.ndarray:
    """``values`` as an int32 array, rejecting any element that would wrap.

    An int32 array is returned as it is, without a copy.  Anything but
    integers is rejected too, where a cast would round a float, parse a
    string or count a bool as 1.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.int32 and values.ndim == 1:
        return values
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError(f"{what}s must form a flat sequence")
    if arr.shape[0] == 0:
        return np.empty(0, dtype=np.int32)
    if arr.dtype.kind not in "iu":
        raise ValidationError(f"{what}s must be integers, not {arr.dtype}")
    if arr.min() < _INT32_MIN or arr.max() > _INT32_MAX:
        wide = (arr < _INT32_MIN) | (arr > _INT32_MAX)
        raise ValidationError(f"{what} {int(arr[wide][0])} does not fit in 32 bits")
    return arr.astype(np.int32)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D integer array, as ``np.unique``.

    One sort and an adjacent-difference mask.  NumPy 2.x routes 1-D
    integer ``np.unique`` through a hash table: on a 2-vCPU VM (NumPy
    2.4) it took 5x as long as this on 660k page ids and 70x on 700k
    packed edge keys.
    """
    if values.shape[0] == 0:
        return values.copy()
    ordered = np.sort(values)
    keep = np.empty(ordered.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


class TypedVector:
    """Append-only growable vector over a NumPy array.

    ``values()`` returns a zero-copy view of the live prefix; callers
    must not hold it across subsequent appends (growth may reallocate).
    """

    __slots__ = ("_data", "_n")

    def __init__(self, dtype, capacity: int = _MIN_CAPACITY) -> None:
        self._data = np.empty(max(int(capacity), _MIN_CAPACITY), dtype=dtype)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    @property
    def dtype(self):
        return self._data.dtype

    def reserve(self, extra: int) -> None:
        """Ensure capacity for ``extra`` more elements without realloc."""
        need = self._n + int(extra)
        if need <= self._data.shape[0]:
            return
        capacity = max(need, 2 * self._data.shape[0])
        grown = np.empty(capacity, dtype=self._data.dtype)
        grown[: self._n] = self._data[: self._n]
        self._data = grown

    def append(self, value) -> None:
        if self._n == self._data.shape[0]:
            self.reserve(1)
        self._data[self._n] = value
        self._n += 1

    def extend(self, values) -> None:
        arr = np.asarray(values, dtype=self._data.dtype)
        k = arr.shape[0]
        if k == 0:
            return
        self.reserve(k)
        self._data[self._n : self._n + k] = arr
        self._n += k

    def extend_full(self, count: int, value) -> None:
        """Append ``count`` copies of ``value`` (no temporary array)."""
        count = int(count)
        if count <= 0:
            return
        self.reserve(count)
        self._data[self._n : self._n + count] = value
        self._n += count

    def values(self) -> np.ndarray:
        """Zero-copy view of the live prefix (invalidated by growth)."""
        return self._data[: self._n]

    def __getitem__(self, idx):
        return self._data[: self._n][idx]

    def __setitem__(self, idx, value) -> None:
        self._data[: self._n][idx] = value


class StringInterner:
    """Bidirectional string <-> dense int code dictionary.

    Codes are assigned in first-seen order, so a deterministic stream of
    strings yields a deterministic code table.
    """

    __slots__ = ("_codes", "_strings")

    def __init__(self) -> None:
        self._codes: Dict[str, int] = {}
        self._strings: List[str] = []

    def __len__(self) -> int:
        return len(self._strings)

    def code(self, value: str) -> int:
        """Intern ``value``, returning its (possibly new) code."""
        code = self._codes.get(value)
        if code is None:
            code = len(self._strings)
            self._codes[value] = code
            self._strings.append(value)
        return code

    def lookup(self, value: str) -> Optional[int]:
        """Code for ``value`` if already interned, else ``None``."""
        return self._codes.get(value)

    def value(self, code: int) -> str:
        return self._strings[int(code)]

    def codes_for(self, values) -> np.ndarray:
        """Vector of codes for an iterable of strings (interning new ones)."""
        code = self.code
        return np.fromiter((code(v) for v in values), dtype=np.int64)


class ColumnIndex:
    """Lazily compiled inverted index over an int32 id column.

    ``compile(keys)`` sorts one int64 per row, the key in the high half
    and the row number in the low half.  Rows are distinct, so the sort
    order is unique: rows sharing a key form one contiguous run of the
    permutation, in arrival order, exactly as a stable argsort of the
    keys would put them.  ``lookup`` then returns the run as a slice of
    global row positions (ascending, i.e. arrival order).  Rows appended
    after compilation form a tail that is grouped *incrementally* into a
    per-key position dict the first time a query observes it — each
    appended row is bucketed exactly once, so a long query/append
    interleaving (the simulation phase) costs O(appends) total instead
    of an O(tail) rescan per query.  :meth:`ensure` recompiles when the
    tail outgrows the compiled prefix so run lookups stay amortised
    O(log u + run).

    The row permutation ``_order`` is int32, 4 bytes per indexed row, so
    a column indexes at most ``2**31 - 1`` rows.  The per-key tables,
    ``_unique`` and ``_starts``, stay int64: scalar lookups binary-search
    ``_unique`` with a Python int, which NumPy does several times faster
    on an int64 array than on an int32 one.
    """

    __slots__ = (
        "_order",
        "_unique",
        "_starts",
        "_compiled_n",
        "_tail_map",
        "_scanned_n",
    )

    def __init__(self) -> None:
        self._order: Optional[np.ndarray] = None
        self._unique: Optional[np.ndarray] = None
        self._starts: Optional[np.ndarray] = None
        self._compiled_n = 0
        self._tail_map: Dict[int, List[int]] = {}
        self._scanned_n = 0

    def compile(self, keys: np.ndarray) -> None:
        """(Re)build the index over the full int32 column ``keys``.

        The compile holds 8 bytes per row for the packed keys and 4 for
        ``_order``: the packed array is filled and scanned in chunks and
        sorted and decoded in place.  ``_order`` is allocated before the
        scratch, so the freed scratch is not left between kept arrays.
        """
        keys = as_int32(keys, "index key")
        n = int(keys.shape[0])
        if n > _INT32_MAX:
            raise ValidationError(f"{n} rows do not fit a 32-bit index")
        order = np.empty(n, dtype=np.int32)
        # (key << 32) + row: a signed key keeps its order in the high
        # half, and the row, in [0, 2**31), fills the low half
        packed = np.empty(n, dtype=np.int64)
        for start in range(0, n, _COMPILE_CHUNK):
            stop = min(start + _COMPILE_CHUNK, n)
            chunk = packed[start:stop]
            chunk[:] = keys[start:stop]
            chunk <<= 32
            chunk += np.arange(start, stop, dtype=np.int64)
        packed.sort()
        # the low halves are the rows; narrowing keeps exactly those bits
        np.copyto(order, packed, casting="unsafe")
        self._order = order
        packed >>= 32
        # run boundaries: the rows where the sorted key changes
        bounds = [np.zeros(min(n, 1), dtype=np.int64)]
        for start in range(1, n, _COMPILE_CHUNK):
            stop = min(start + _COMPILE_CHUNK, n)
            change = packed[start:stop] != packed[start - 1 : stop - 1]
            bounds.append(np.flatnonzero(change) + start)
        starts = np.concatenate(bounds)
        self._unique = packed[starts]
        self._starts = np.append(starts, n)
        self._compiled_n = n
        self._tail_map = {}
        self._scanned_n = n

    def ensure(self, keys: np.ndarray) -> None:
        """Compile or recompile as needed; bucket any unseen tail rows.

        The tail is every row appended since the last compile.  A tail
        larger than the compiled prefix triggers a recompile (emptying
        the tail map); otherwise rows appended since the last query are
        grouped into the per-key tail map, each exactly once.
        """
        n = keys.shape[0]
        if self._order is None or n - self._compiled_n > max(1024, self._compiled_n):
            self.compile(keys)
            return
        start = self._scanned_n
        if n > start:
            tail_map = self._tail_map
            for offset, key in enumerate(keys[start:n].tolist()):
                bucket = tail_map.get(key)
                if bucket is None:
                    tail_map[key] = [start + offset]
                else:
                    bucket.append(start + offset)
            self._scanned_n = n

    def compiled_positions(self, key: int) -> np.ndarray:
        """Global row positions for ``key`` in the compiled prefix.

        Ascending (arrival) order.  Empty array when the key is absent.
        ``compile``/``ensure`` must have run first.
        """
        unique = self._unique
        i = int(unique.searchsorted(key))
        if i == unique.shape[0] or unique[i] != key:
            return _EMPTY_POSITIONS
        # equal keys sort by row, so the run is in arrival order already
        return self._order[self._starts[i] : self._starts[i + 1]]

    def positions(self, key: int, keys: np.ndarray) -> np.ndarray:
        """All global row positions for ``key`` (compiled run + tail map)."""
        self.ensure(keys)
        run = self.compiled_positions(key)
        bucket = self._tail_map.get(key)
        if bucket is None:
            return run
        tail_hits = np.asarray(bucket, dtype=np.int32)
        if run.shape[0] == 0:
            return tail_hits
        return np.concatenate([run, tail_hits])

    def last_positions(self, query: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Newest global row position per key in ``query`` (-1 if absent).

        One vectorised searchsorted over the compiled runs plus a dict
        probe per tail-resident key — the batch twin of taking
        ``positions(k)[-1]`` for each key.
        """
        self.ensure(keys)
        unique = self._unique
        if unique.shape[0] == 0:
            result = np.full(query.shape[0], -1, dtype=np.int32)
        else:
            slots = unique.searchsorted(query)
            slots[slots == unique.shape[0]] = 0
            present = unique[slots] == query
            # last row of each compiled run (runs are in arrival order)
            result = np.where(present, self._order[self._starts[slots + 1] - 1], -1)
        tail_map = self._tail_map
        if tail_map:
            for i, key in enumerate(query.tolist()):
                bucket = tail_map.get(key)
                if bucket is not None:
                    result[i] = bucket[-1]
        return result

    def count(self, key: int, keys: np.ndarray) -> int:
        """Number of rows holding ``key`` (cheaper than materialising)."""
        self.ensure(keys)
        unique = self._unique
        i = int(unique.searchsorted(key))
        n = 0
        if i < unique.shape[0] and unique[i] == key:
            n = int(self._starts[i + 1] - self._starts[i])
        bucket = self._tail_map.get(key)
        if bucket is not None:
            n += len(bucket)
        return n


_EMPTY_POSITIONS = np.empty(0, dtype=np.int32)
