"""Pins for the sorts that compile the like log's indexes and the graph.

``ColumnIndex.compile``, ``FriendshipGraph._compile`` and
``sorted_unique`` each sort packed int64 keys in place.  The reference
classes keep the algorithms these replaced inside the test: a stable
argsort for the index, a ``lexsort`` build for the CSR adjacency and
``np.unique`` for the dedup.  The negative-endpoint class pins the
graph over the whole int32 range against a plain set model, and the
scratch class pins the tracemalloc peak of each compile.
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
    """int32 columns with repeated keys, drawn, presorted or reversed."""
    pool = draw(st.lists(int32s, min_size=1, max_size=6))
    keys = draw(st.lists(st.one_of(st.sampled_from(pool), int32s), max_size=120))
    shape = draw(st.sampled_from(["drawn", "sorted", "reversed"]))
    if shape != "drawn":
        keys.sort(reverse=shape == "reversed")
    return np.array(keys, dtype=np.int32)


class TestIndexMatchesStableArgsort:
    @settings(max_examples=150, deadline=None)
    @given(keys=key_columns(), chunk=st.sampled_from([1, 3, 1 << 16]), absent=int32s)
    def test_compiled_index(self, keys, chunk, absent):
        with mock.patch.object(columns, "_COMPILE_CHUNK", chunk):
            index = ColumnIndex()
            index.compile(keys)
        order, unique, starts = reference_index(keys)
        assert index._order.dtype == np.int32
        assert index._unique.dtype == np.int64
        assert index._starts.dtype == np.int64
        np.testing.assert_array_equal(index._order, order)
        np.testing.assert_array_equal(index._unique, unique)
        np.testing.assert_array_equal(index._starts, starts)
        runs = {
            key: order[lo:hi]
            for key, lo, hi in zip(unique.tolist(), starts[:-1], starts[1:])
        }
        for key in [*runs, absent]:
            run = runs.get(key, order[:0])
            np.testing.assert_array_equal(index.positions(key, keys), run)
            assert index.count(key, keys) == run.shape[0]
        query = np.array([*runs, absent], dtype=np.int64)
        expected = [runs[key][-1] if key in runs else -1 for key in query.tolist()]
        assert index.last_positions(query, keys).tolist() == expected


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


class TestCompileScratch:
    """The tracemalloc peak of each compile, its outputs included.

    ``_order`` alone is 4 bytes per row and the compiled graph 16 bytes
    per distinct edge plus its node tables.
    """

    def test_index_compile_under_12_75_bytes_per_row(self):
        generator = RngStream(20140312, "index keys").generator
        keys = generator.integers(9_000_000, 9_002_000, 1_000_000, dtype=np.int32)
        index = ColumnIndex()
        peak = traced_peak(lambda: index.compile(keys))
        assert peak / keys.shape[0] < 12.75

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
