"""Pins for the sorts that compile the like log's indexes and the graph.

A ``ColumnIndex`` groups its compiled prefix into runs only for a query
inside the prefix's key range: a non-decreasing prefix is its own order,
and any other is sorted as packed int64 keys in place.
``FriendshipGraph._compile`` and ``sorted_unique`` sort packed keys too.
The reference classes keep the algorithms these replaced inside the
test: a stable argsort for the index, a ``lexsort`` build for the CSR
adjacency and ``np.unique`` for the dedup.  The negative-endpoint class
pins the graph over the whole int32 range against a plain set model,
and the scratch class pins the tracemalloc peak of each compile and of
the queries that group an index.
"""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.osn import columns
from repro.osn.columns import ColumnIndex, sorted_unique
from repro.osn.graph import FriendshipGraph
from repro.util.rng import RngStream

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1

int32s = st.integers(INT32_MIN, INT32_MAX)


# -- negative endpoints ---------------------------------------------------------

BOUNDARY_IDS = [INT32_MIN, -5, -3, -1, 0, 1, INT32_MAX]
BOUNDARY_EDGES = [
    (-5, -3),
    (INT32_MIN, -1),
    (-1, 0),
    (0, 1),
    (INT32_MIN, INT32_MAX),
    (1, INT32_MAX),
    (-1, 1),
    (-3, INT32_MAX),
]


def adjacency(edges):
    friends = {}
    for a, b in edges:
        friends.setdefault(a, set()).add(b)
        friends.setdefault(b, set()).add(a)
    return friends


def add_one_by_one(graph, edges):
    for a, b in edges:
        graph.add_friendship(b, a)


def add_as_arrays(graph, edges):
    graph.add_friendship_arrays(
        np.array([b for _, b in edges]), np.array([a for a, _ in edges])
    )


class TestNegativeEndpoints:
    @pytest.mark.parametrize("write", [add_one_by_one, add_as_arrays])
    def test_compiled_graph_matches_set_model(self, write):
        graph = FriendshipGraph()
        graph.add_user(0)
        write(graph, BOUNDARY_EDGES)
        # a second pass adds nothing: every edge is already there
        write(graph, BOUNDARY_EDGES)
        # edges() compiles, so every query below reads the CSR form
        pairs = list(graph.edges())
        assert pairs == sorted({(min(a, b), max(a, b)) for a, b in BOUNDARY_EDGES})
        model = adjacency(BOUNDARY_EDGES)
        assert graph.edge_count == len(BOUNDARY_EDGES)
        assert graph.node_count == len(model)
        assert graph._c_nodes.tolist() == sorted(model)
        for user in BOUNDARY_IDS:
            assert graph.neighbors(user) == model[user]
            assert graph.degree(user) == len(model[user])
        for a, b in itertools.product(BOUNDARY_IDS, repeat=2):
            assert graph.are_friends(a, b) == (b in model[a]), (a, b)

    def test_removal_keeps_the_rest(self):
        graph = FriendshipGraph()
        add_as_arrays(graph, BOUNDARY_EDGES)
        graph.remove_user(-1)
        left = [edge for edge in BOUNDARY_EDGES if -1 not in edge]
        assert list(graph.edges()) == sorted((min(a, b), max(a, b)) for a, b in left)
        assert -1 not in graph
        assert graph.neighbors(INT32_MIN) == {INT32_MAX}


# -- the replaced algorithms as references --------------------------------------


def reference_index(keys):
    """The stable-argsort compile: permutation, run keys and run starts."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    change = np.ones(keys.shape[0], dtype=bool)
    change[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(change)
    return order, sorted_keys[starts].astype(np.int64), np.append(starts, keys.shape[0])


@st.composite
def key_columns(draw):
    """int32 columns with repeated keys: drawn, presorted, reversed, or a
    sorted prefix followed by up to ``max(1024, prefix)`` drawn rows."""
    pool = draw(st.lists(int32s, min_size=1, max_size=6))
    key = st.one_of(st.sampled_from(pool), int32s)
    keys = draw(st.lists(key, max_size=120))
    shape = draw(st.sampled_from(["drawn", "sorted", "reversed", "sorted prefix"]))
    if shape == "sorted prefix":
        keys.sort()
        tail_cap = max(1024, len(keys))
        keys += draw(st.lists(key, max_size=tail_cap))
    elif shape != "drawn":
        keys.sort(reverse=shape == "reversed")
    return np.array(keys, dtype=np.int32)


def compiled_prefix(keys, min_tail):
    """Rows a compile takes: the longest non-decreasing prefix if the rest
    fits in a tail of ``max(min_tail, prefix)`` rows, else every row."""
    descents = np.flatnonzero(keys[1:] < keys[:-1])
    prefix = int(descents[0]) + 1 if descents.shape[0] else keys.shape[0]
    if keys.shape[0] - prefix <= max(min_tail, prefix):
        return prefix
    return keys.shape[0]


def absent_inside(unique):
    """A key strictly between two present keys, or ``None`` if none is free."""
    gaps = np.flatnonzero(np.diff(unique) > 1)
    return int(unique[gaps[0]]) + 1 if gaps.shape[0] else None


def holds_no_row_array(index):
    return index._order is None and index._unique is None and index._starts is None


class TestIndexMatchesStableArgsort:
    @settings(max_examples=150, deadline=None)
    @given(
        keys=key_columns(),
        chunk=st.sampled_from([1, 3, 1 << 16]),
        min_tail=st.sampled_from([0, 1024]),
        absent=int32s,
    )
    def test_compiled_index(self, keys, chunk, min_tail, absent):
        order, unique, starts = reference_index(keys)
        runs = {
            key: order[lo:hi]
            for key, lo, hi in zip(unique.tolist(), starts[:-1], starts[1:])
        }
        prefix = compiled_prefix(keys, min_tail)
        compiled = keys[:prefix]
        low, high = (int(compiled.min()), int(compiled.max())) if prefix else (0, -1)
        outside = high + 1 if high < INT32_MAX else low - 1
        queries = [*runs, absent, outside]
        inside = absent_inside(unique)
        if inside is not None and low <= inside <= high:
            queries.append(inside)
        # every key outside the prefix's range first: they read only the tail
        queries.sort(key=lambda key: low <= key <= high)
        with mock.patch.object(columns, "_COMPILE_CHUNK", chunk), mock.patch.object(
            columns, "_MIN_TAIL", min_tail
        ):
            index = ColumnIndex()
            index.compile(keys)
            assert index._compiled_n == prefix
            for key in queries:
                if not low <= key <= high:
                    assert holds_no_row_array(index), key
                run = runs.get(key, order[:0])
                np.testing.assert_array_equal(index.positions(key, keys), run)
                assert index.count(key, keys) == run.shape[0]
        if not prefix:
            assert holds_no_row_array(index)
            return
        prefix_order, prefix_unique, prefix_starts = reference_index(compiled)
        assert index._unique.dtype == np.int64
        assert index._starts.dtype == np.int64
        np.testing.assert_array_equal(index._unique, prefix_unique)
        np.testing.assert_array_equal(index._starts, prefix_starts)
        if index._prefix_sorted:
            # a non-decreasing prefix is its own order
            assert index._order is None
        else:
            assert index._order.dtype == np.int32
            np.testing.assert_array_equal(index._order, prefix_order)


def reference_csr(a, b, explicit):
    """The lexsort build: dedup'd (lo, hi) pairs, nodes, offsets and neighbors."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
    pair_lo, pair_hi = pairs[:, 0], pairs[:, 1]
    nodes = np.unique(np.concatenate([explicit, pair_lo, pair_hi]))
    u = np.concatenate([pair_lo, pair_hi])
    v = np.concatenate([pair_hi, pair_lo])
    order = np.lexsort((v, u))
    us = u[order]
    return {
        "_c_pair_lo": pair_lo,
        "_c_pair_hi": pair_hi,
        "_c_nodes": nodes,
        "_c_neighbors": v[order],
        "_c_off_lo": us.searchsorted(nodes, side="left"),
        "_c_off_hi": us.searchsorted(nodes, side="right"),
    }


@st.composite
def edge_lists(draw):
    """Endpoints from a small int32 pool, so edges repeat and share nodes."""
    pool = draw(st.lists(int32s, min_size=2, max_size=12, unique=True))
    ends = st.sampled_from(pool)
    edges = draw(st.lists(st.tuples(ends, ends).filter(lambda e: e[0] != e[1]), max_size=60))
    explicit = draw(st.lists(st.one_of(ends, int32s), max_size=8))
    return edges, explicit


class TestCsrMatchesLexsort:
    @settings(max_examples=150, deadline=None)
    @given(drawn=edge_lists())
    def test_compiled_csr(self, drawn):
        edges, explicit = drawn
        a = np.array([e[0] for e in edges], dtype=np.int32)
        b = np.array([e[1] for e in edges], dtype=np.int32)
        graph = FriendshipGraph()
        graph.add_users_bulk(np.array(explicit, dtype=np.int32))
        graph.add_friendship_arrays(a, b)
        graph._compile()
        expected = reference_csr(a, b, np.array(explicit, dtype=np.int32))
        for name, want in expected.items():
            got = getattr(graph, name)
            np.testing.assert_array_equal(got, want, err_msg=name)
        for name in ("_c_pair_lo", "_c_pair_hi", "_c_neighbors"):
            assert getattr(graph, name).dtype == np.int32, name
        for name in ("_c_nodes", "_c_off_lo", "_c_off_hi"):
            assert getattr(graph, name).dtype == np.int64, name
        assert graph.edge_count == expected["_c_pair_lo"].shape[0]


class TestSortedUniqueMatchesNpUnique:
    @settings(max_examples=200, deadline=None)
    @given(
        values=arrays(
            dtype=st.sampled_from([np.int8, np.uint16, np.int32, np.int64]),
            shape=st.integers(0, 80),
        )
    )
    def test_values_and_dtype(self, values):
        got = sorted_unique(values)
        want = np.unique(values)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert not np.shares_memory(got, values)


# -- scratch memory ----------------------------------------------------------------


def traced_peak(compile_step) -> int:
    tracemalloc.start()
    try:
        compile_step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def page_keys():
    """1M page ids in no order, as the world build leaves the page column."""
    generator = RngStream(20140312, "index keys").generator
    return generator.integers(9_000_000, 9_002_000, 1_000_000, dtype=np.int32)


class TestCompileScratch:
    """The tracemalloc peak of each compile and first query, outputs included.

    ``_order`` alone is 4 bytes per row, an index's run tables 16 bytes
    per distinct key and the compiled graph 16 bytes per distinct edge
    plus its node tables.
    """

    def test_index_compile_under_12_75_bytes_per_row(self):
        keys = page_keys()
        index = ColumnIndex()

        def compile_and_query():
            index.compile(keys)
            # a key inside the range sorts the unsorted column
            index.positions(9_001_000, keys)

        peak = traced_peak(compile_and_query)
        assert index._order is not None
        assert peak / keys.shape[0] < 12.75

    def test_query_outside_the_range_under_1_byte_per_row(self):
        keys = page_keys()
        index = ColumnIndex()

        def compile_and_query():
            index.compile(keys)
            assert index.positions(9_002_000, keys).shape[0] == 0

        peak = traced_peak(compile_and_query)
        assert holds_no_row_array(index)
        assert peak / keys.shape[0] < 1

    def test_sorted_column_with_a_tail_under_2_bytes_per_row(self):
        generator = RngStream(20140312, "user keys").generator
        users = generator.integers(1_000_000, 1_013_000, 1_000_000, dtype=np.int32)
        users.sort()
        tail = generator.integers(1_000_000, 1_013_000, 20_000, dtype=np.int32)
        keys = np.concatenate([users, tail])
        index = ColumnIndex()
        compile_peak = traced_peak(lambda: index.compile(keys))
        # bucket the tail first: its per-key lists hold Python ints, about
        # 100 bytes per tail row, and are not the prefix's arrays measured here
        index.ensure(keys)
        query_peak = traced_peak(lambda: index.positions(1_006_500, keys))
        assert index._compiled_n == users.shape[0]
        assert index._order is None
        assert index._unique.shape[0] == 13_000
        assert max(compile_peak, query_peak) / keys.shape[0] < 2

    def test_graph_compile_under_35_bytes_per_edge(self):
        generator = RngStream(20140312, "edges").generator
        a = generator.integers(1_000_000, 1_013_000, 300_000, dtype=np.int32)
        b = generator.integers(1_000_000, 1_013_000, 300_000, dtype=np.int32)
        loops = a == b
        graph = FriendshipGraph()
        # the raw columns as a write leaves them, before any compile
        graph._edge_a.extend(a[~loops])
        graph._edge_b.extend(b[~loops])
        peak = traced_peak(graph._compile)
        assert graph.edge_count > 290_000
        assert peak / graph.edge_count < 35
