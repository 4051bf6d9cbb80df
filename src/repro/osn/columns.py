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
  column.  A compile sorts nothing: it takes a prefix of the column
  and records its key range, and the rows after it form a *tail* that
  the first query to see a row puts into a per-key bucket, once.  Only
  a query for a key inside the prefix's range groups the prefix into
  runs of equal keys in arrival order, so "all rows for key k" becomes
  one slice.  A non-decreasing prefix is its own order and needs no
  sort; any other prefix is grouped by one sort of packed
  ``(key, row)`` int64 keys.  The index recompiles only when the tail
  outgrows the compiled prefix.

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
:func:`pack_pairs` and :func:`unpack_low` are the one ``(high, low)``
int64 packing the graph's compile and :func:`sort_segments` share.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.validation import ValidationError

__all__ = [
    "TypedVector",
    "StringInterner",
    "ColumnIndex",
    "as_int32",
    "check_int32",
    "pack_pairs",
    "sort_segments",
    "sorted_unique",
    "unpack_low",
]

_MIN_CAPACITY = 16

_INT32_MIN = -(2**31)
_INT32_MAX = 2**31 - 1

# Rows per pass when a column is scanned (a ColumnIndex's descent scan,
# sort-key fill and run boundaries, the like log's chronology check), so
# no pass needs a full-length temporary.
_COMPILE_CHUNK = 1 << 16

# The fewest rows a ColumnIndex leaves in its tail buckets before it
# recompiles: a tail may grow to max(_MIN_TAIL, prefix) rows.
_MIN_TAIL = 1024


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


# An ordered pair of int32 values packs into one int64 as
# (high << 32) + (low + 2**31).  The bias puts low in [0, 2**32), so the
# packed keys sort exactly as the (high, low) pairs do, negative values
# included.
_PACK_SHIFT = np.int64(32)
_PACK_BIAS = np.int64(2**31)
_SIGN_BIT = np.int32(-(2**31))


def pack_pairs(out: np.ndarray, high: np.ndarray, low: np.ndarray) -> None:
    """Fill the int64 array ``out`` with the packed ``(high, low)`` pairs.

    ``high`` must fit in 32 signed bits, so ``out >> 32`` gives it back.
    """
    out[:] = high
    out <<= _PACK_SHIFT
    out += low
    out += _PACK_BIAS


def unpack_low(packed: np.ndarray, out: np.ndarray) -> None:
    """Write the ``low`` half of packed pairs into the int32 array ``out``.

    Narrowing keeps the low 32 bits, ``low + 2**31`` modulo ``2**32``;
    flipping the sign bit takes the bias back off.
    """
    np.copyto(out, packed, casting="unsafe")
    out ^= _SIGN_BIT


def sort_segments(values: np.ndarray, offsets: np.ndarray) -> None:
    """Sort each segment ``values[offsets[i]:offsets[i + 1]]`` in place.

    ``values`` is an int32 column and ``offsets`` its ascending segment
    bounds, first 0 and last ``len(values)``.  One sort of packed
    ``(segment, value)`` keys sorts every segment; it holds 16 bytes
    per value while it runs, so callers pass bounded chunks.
    """
    segments = np.repeat(
        np.arange(offsets.shape[0] - 1, dtype=np.int64), np.diff(offsets)
    )
    packed = np.empty(values.shape[0], dtype=np.int64)
    pack_pairs(packed, segments, values)
    del segments
    packed.sort()
    unpack_low(packed, values)


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lengths)])``."""
    heads = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(
        starts - heads, lengths
    )


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

    ``compile(keys)`` sorts nothing.  It takes the column's longest
    non-decreasing prefix when the rows after it fit in a tail (at most
    ``max(_MIN_TAIL, prefix)`` rows, the rule :meth:`ensure` recompiles
    by), or else the whole column, and records the prefix's lowest and
    highest key.  A query for a key outside that range reads only the
    tail buckets.  The first query for a key inside it groups the prefix
    into runs of equal keys: ``_unique`` holds each run's key and
    ``_starts`` its first row in key order.  A non-decreasing prefix is
    its own order, so its run of rows is ``arange(start, stop)``; any
    other prefix sorts one int64 per row, the key in the high half and
    the row number in the low half, and keeps the row permutation
    ``_order``.  Rows are distinct, so that sort order is unique: rows
    sharing a key form one contiguous run, in arrival order, exactly as
    a stable argsort of the keys would put them.

    Rows after the prefix form a tail that is grouped *incrementally*
    into a per-key position dict the first time a query observes it —
    each appended row is bucketed exactly once, so a long query/append
    interleaving (the simulation phase) costs O(appends) total instead
    of an O(tail) rescan per query.  :meth:`ensure` recompiles when the
    tail outgrows the compiled prefix, and the recompile defers again.

    ``_order`` is int32, 4 bytes per indexed row, so a column indexes at
    most ``2**31 - 1`` rows.  The per-key tables, ``_unique`` and
    ``_starts``, stay int64: scalar lookups binary-search ``_unique``
    with a Python int, which NumPy does several times faster on an int64
    array than on an int32 one.
    """

    __slots__ = (
        "_order",
        "_unique",
        "_starts",
        "_prefix_sorted",
        "_key_range",
        "_compiled_n",
        "_tail_map",
        "_scanned_n",
    )

    def __init__(self) -> None:
        self._order: Optional[np.ndarray] = None
        self._unique: Optional[np.ndarray] = None
        self._starts: Optional[np.ndarray] = None
        self._prefix_sorted = False
        # lowest and highest key of the compiled prefix; None until the
        # first compile, (0, -1) for an empty prefix
        self._key_range: Optional[Tuple[int, int]] = None
        self._compiled_n = 0
        self._tail_map: Dict[int, List[int]] = {}
        self._scanned_n = 0

    def compile(self, keys: np.ndarray) -> None:
        """(Re)compile over the full int32 column ``keys``, deferring the runs.

        Allocates nothing per row: the descent scan reads the column in
        chunks, and the rows after the prefix are left for :meth:`ensure`
        to bucket.
        """
        keys = as_int32(keys, "index key")
        n = int(keys.shape[0])
        if n > _INT32_MAX:
            raise ValidationError(f"{n} rows do not fit a 32-bit index")
        prefix = _ascending_prefix(keys)
        self._prefix_sorted = n - prefix <= max(_MIN_TAIL, prefix)
        if not self._prefix_sorted:
            prefix = n
            self._key_range = (int(keys.min()), int(keys.max()))
        elif prefix:
            self._key_range = (int(keys[0]), int(keys[prefix - 1]))
        else:
            self._key_range = (0, -1)
        self._order = self._unique = self._starts = None
        self._compiled_n = prefix
        self._tail_map = {}
        self._scanned_n = prefix

    def ensure(self, keys: np.ndarray) -> None:
        """Compile or recompile as needed; bucket any unseen tail rows.

        The tail is every row after the compiled prefix.  A tail larger
        than the prefix triggers a recompile (emptying the tail map);
        rows not yet seen by a query are then grouped into the per-key
        tail map, each exactly once.
        """
        n = keys.shape[0]
        tail = n - self._compiled_n
        if self._key_range is None or tail > max(_MIN_TAIL, self._compiled_n):
            self.compile(keys)
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

    def _build_runs(self, keys: np.ndarray) -> None:
        """Group the compiled prefix of ``keys`` into runs of equal keys.

        An unsorted prefix holds 12 bytes per row while this runs: 8 for
        the packed keys, filled in chunks and sorted and decoded in
        place, and 4 for ``_order``, which is allocated before the
        scratch so the freed scratch is not left between kept arrays.
        """
        n = self._compiled_n
        if self._prefix_sorted:
            ordered = keys[:n]
        else:
            order = np.empty(n, dtype=np.int32)
            # (key << 32) + row: a signed key keeps its order in the high
            # half, and the row, in [0, 2**31), fills the low half
            ordered = np.empty(n, dtype=np.int64)
            for start in range(0, n, _COMPILE_CHUNK):
                stop = min(start + _COMPILE_CHUNK, n)
                chunk = ordered[start:stop]
                chunk[:] = keys[start:stop]
                chunk <<= 32
                chunk += np.arange(start, stop, dtype=np.int64)
            ordered.sort()
            # the low halves are the rows; narrowing keeps exactly those bits
            np.copyto(order, ordered, casting="unsafe")
            self._order = order
            ordered >>= 32
        # run boundaries: the rows where the ordered key changes
        bounds = [np.zeros(min(n, 1), dtype=np.int64)]
        for start in range(1, n, _COMPILE_CHUNK):
            stop = min(start + _COMPILE_CHUNK, n)
            change = ordered[start:stop] != ordered[start - 1 : stop - 1]
            bounds.append(np.flatnonzero(change) + start)
        starts = np.concatenate(bounds)
        self._unique = ordered[starts].astype(np.int64, copy=False)
        self._starts = np.append(starts, n)

    def _run(self, key: int, keys: np.ndarray) -> Optional[Tuple[int, int]]:
        """``(start, stop)`` of ``key``'s run in key order, or ``None``.

        Only a key inside the prefix's range builds the runs.
        """
        low, high = self._key_range
        if not low <= key <= high:
            return None
        if self._unique is None:
            self._build_runs(keys)
        # the highest key has a run, so a key in range finds a slot
        i = int(self._unique.searchsorted(key))
        if self._unique[i] != key:
            return None
        return int(self._starts[i]), int(self._starts[i + 1])

    def positions(self, key: int, keys: np.ndarray) -> np.ndarray:
        """All global row positions for ``key``, ascending (arrival order).

        The compiled run, then the tail bucket.  Empty when the key is
        absent.
        """
        self.ensure(keys)
        run = self._run(key, keys)
        if run is None:
            hits = _EMPTY_POSITIONS
        elif self._order is None:
            hits = np.arange(*run, dtype=np.int32)
        else:
            # equal keys sort by row, so the run is in arrival order already
            hits = self._order[run[0] : run[1]]
        bucket = self._tail_map.get(key)
        if bucket is None:
            return hits
        tail_hits = np.asarray(bucket, dtype=np.int32)
        if hits.shape[0] == 0:
            return tail_hits
        return np.concatenate([hits, tail_hits])

    def count(self, key: int, keys: np.ndarray) -> int:
        """Number of rows holding ``key`` (cheaper than materialising)."""
        self.ensure(keys)
        run = self._run(key, keys)
        n = 0 if run is None else run[1] - run[0]
        bucket = self._tail_map.get(key)
        if bucket is not None:
            n += len(bucket)
        return n

    def _runs_many(
        self, keys: np.ndarray, column: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, List[Sequence[int]]]:
        """Each key's run ``(starts, stops)`` in key order and tail bucket.

        The many-key twin of :meth:`_run`: one ``searchsorted`` of the
        keys inside the prefix's range over the run table.  An absent
        key gets an empty run and an empty bucket.
        """
        self.ensure(column)
        starts = np.zeros(keys.shape[0], dtype=np.int64)
        stops = np.zeros(keys.shape[0], dtype=np.int64)
        low, high = self._key_range
        in_range = (keys >= low) & (keys <= high)
        if in_range.any():
            if self._unique is None:
                self._build_runs(column)
            wanted = keys[in_range]
            # the highest key has a run, so every key in range finds a slot
            slot = self._unique.searchsorted(wanted)
            hit = self._unique[slot] == wanted
            starts[in_range] = np.where(hit, self._starts[slot], 0)
            stops[in_range] = np.where(hit, self._starts[slot + 1], 0)
        tail_map = self._tail_map
        buckets = [tail_map.get(key, ()) for key in keys.tolist()]
        return starts, stops, buckets

    def counts_many(self, keys, column: np.ndarray) -> np.ndarray:
        """``count(k)`` for every key of ``keys``, as an int64 array."""
        starts, stops, buckets = self._runs_many(np.asarray(keys, dtype=np.int64), column)
        return stops - starts + np.fromiter(map(len, buckets), np.int64, len(buckets))

    def positions_many(self, keys, column: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The stacked positions of many keys, with their segment offsets.

        ``positions[offsets[i]:offsets[i + 1]]`` equals
        ``positions(keys[i])``: the compiled run, then the tail bucket.
        The runs are gathered with one vectorised pass and the buckets
        with another, so the cost is per row, not per key.  Its
        temporaries hold about 40 bytes per returned row; callers pass
        bounded batches of keys.
        """
        starts, stops, buckets = self._runs_many(np.asarray(keys, dtype=np.int64), column)
        run_lengths = stops - starts
        tail_lengths = np.fromiter(map(len, buckets), np.int64, len(buckets))
        offsets = np.zeros(run_lengths.shape[0] + 1, dtype=np.int64)
        np.cumsum(run_lengths + tail_lengths, out=offsets[1:])
        positions = np.empty(int(offsets[-1]), dtype=np.int32)
        # each key's run fills the head of its segment
        rows = _concat_ranges(starts, run_lengths)
        if self._order is not None:
            rows = self._order[rows]
        positions[_concat_ranges(offsets[:-1], run_lengths)] = rows
        # and its tail bucket the rest
        tail_rows = np.fromiter(
            chain.from_iterable(buckets), np.int32, int(tail_lengths.sum())
        )
        positions[_concat_ranges(offsets[:-1] + run_lengths, tail_lengths)] = tail_rows
        return positions, offsets


def _ascending_prefix(keys: np.ndarray) -> int:
    """Length of the longest non-decreasing prefix of ``keys``."""
    n = keys.shape[0]
    for start in range(1, n, _COMPILE_CHUNK):
        stop = min(start + _COMPILE_CHUNK, n)
        descents = keys[start:stop] < keys[start - 1 : stop - 1]
        if descents.any():
            return start + int(descents.argmax())
    return n


_EMPTY_POSITIONS = np.empty(0, dtype=np.int32)
