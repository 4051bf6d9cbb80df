"""The friendship graph.

Facebook friendships are bidirectional, so the graph is undirected.
Storage is columnar: edges land in append-only int32 endpoint arrays and
are lazily *compiled* into a CSR adjacency (sorted node array + offsets +
neighbor array), so "friends of u" is one slice instead of a dict-of-set
walk.  Every per-edge array, raw or compiled, is int32; an endpoint
outside int32 is rejected with :class:`ValidationError` before any
column grows.  The per-node tables (node array, offsets) stay int64, as
:class:`repro.osn.columns.ColumnIndex`'s per-key tables do, because a
scalar lookup binary-searches the node array with a Python int.
The graph is write-then-read: writes (edges, nodes, removals for account
terminations) only append, and the first query after them compiles
everything in one vectorised pass.  A study wires its whole world
before it reads a friend list, so it compiles once.  Analyses that need
richer graph algorithms export to :mod:`networkx` via
:meth:`FriendshipGraph.to_networkx`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Set, Tuple

import numpy as np

from repro.osn.columns import (
    TypedVector,
    as_int32,
    check_int32,
    pack_pairs,
    sorted_unique,
    unpack_low,
)
from repro.osn.ids import UserId
from repro.util.validation import ValidationError, require

if TYPE_CHECKING:  # pragma: no cover - networkx loads on first export
    import networkx as nx

_EMPTY_I32 = np.empty(0, dtype=np.int32)
_EMPTY_I64 = np.empty(0, dtype=np.int64)

# Edges sort as packed (u, v) int64 keys (columns.pack_pairs), so one
# int64 sort serves both the edge dedup and the CSR build.
_PACK_SHIFT = np.int64(32)


def _dedup_pairs(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct undirected edges among ``(a, b)``, as sorted (lo, hi) arrays."""
    packed = np.empty(a.shape[0], dtype=np.int64)
    pack_pairs(packed, np.minimum(a, b), np.maximum(a, b))
    packed = sorted_unique(packed)
    pair_hi = np.empty(packed.shape[0], dtype=np.int32)
    unpack_low(packed, pair_hi)
    packed >>= _PACK_SHIFT
    return packed.astype(np.int32), pair_hi


def _csr_neighbors(
    pair_lo: np.ndarray, pair_hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Both directions of every edge sorted by (source, neighbor).

    Returns the sorted sources as int64 and the neighbors as int32,
    decoded from one in-place sort of the packed directed pairs.  The
    kept neighbor array is allocated before the scratch, so the freed
    scratch is not left between kept arrays.
    """
    m = pair_lo.shape[0]
    neighbors = np.empty(2 * m, dtype=np.int32)
    packed = np.empty(2 * m, dtype=np.int64)
    pack_pairs(packed[:m], pair_lo, pair_hi)
    pack_pairs(packed[m:], pair_hi, pair_lo)
    packed.sort()
    unpack_low(packed, neighbors)
    packed >>= _PACK_SHIFT
    return packed, neighbors


class FriendshipGraph:
    """Undirected friendship graph over user ids.

    >>> g = FriendshipGraph()
    >>> g.add_friendship(1, 2)
    >>> g.are_friends(2, 1)
    True
    >>> g.degree(1)
    1
    """

    def __init__(self) -> None:
        # raw append-only columns (the write log)
        self._edge_a = TypedVector(np.int32)
        self._edge_b = TypedVector(np.int32)
        self._explicit_nodes = TypedVector(np.int32)
        # removals: (user, node_watermark, edge_watermark) — only rows
        # appended *before* the watermarks are affected, so a re-added
        # account starts clean.
        self._removals: List[Tuple[int, int, int]] = []
        # compiled CSR state (valid for the first _compiled_* rows)
        self._c_nodes = _EMPTY_I64
        self._c_off_lo = _EMPTY_I64
        self._c_off_hi = _EMPTY_I64
        self._c_neighbors = _EMPTY_I32
        self._c_pair_lo = _EMPTY_I32
        self._c_pair_hi = _EMPTY_I32
        self._compiled_edges_n = 0
        self._compiled_nodes_n = 0
        self._compiled_removals_n = 0

    # -- compiled-state helpers ---------------------------------------------

    def _compiled_slot(self, user_id: int) -> int:
        """Index of ``user_id`` in the compiled node array, or -1."""
        nodes = self._c_nodes
        i = int(nodes.searchsorted(user_id))
        if i < nodes.shape[0] and nodes[i] == user_id:
            return i
        return -1

    def _compiled_neighbors(self, user_id: int) -> np.ndarray:
        slot = self._compiled_slot(user_id)
        if slot < 0:
            return _EMPTY_I32
        return self._c_neighbors[self._c_off_lo[slot] : self._c_off_hi[slot]]

    def _compile(self) -> None:
        """Fold raw columns and removals into fresh CSR state.

        Every query calls this first; it returns at once unless a write
        or a removal landed since the last compile.
        """
        n_edges = len(self._edge_a)
        n_nodes = len(self._explicit_nodes)
        n_removals = len(self._removals)
        if (
            self._compiled_edges_n == n_edges
            and self._compiled_nodes_n == n_nodes
            and self._compiled_removals_n == n_removals
        ):
            return
        a = self._edge_a.values()
        b = self._edge_b.values()
        explicit = self._explicit_nodes.values()
        if self._removals:
            edge_keep = np.ones(n_edges, dtype=bool)
            node_keep = np.ones(n_nodes, dtype=bool)
            # Group removals by watermark: a sweep's terminations all share
            # one watermark, so the usual case is a single isin() pass.
            by_marks: Dict[Tuple[int, int], List[int]] = {}
            for user, node_mark, edge_mark in self._removals:
                by_marks.setdefault((node_mark, edge_mark), []).append(user)
            for (node_mark, edge_mark), users in by_marks.items():
                gone = np.asarray(users, dtype=np.int64)
                if edge_mark:
                    sl = slice(0, edge_mark)
                    hit = np.isin(a[sl], gone) | np.isin(b[sl], gone)
                    edge_keep[sl] &= ~hit
                if node_mark:
                    sl = slice(0, node_mark)
                    node_keep[sl] &= ~np.isin(explicit[sl], gone)
            a = a[edge_keep]
            b = b[edge_keep]
            explicit = explicit[node_keep]
        pair_lo, pair_hi = _dedup_pairs(a, b)
        # node universe: explicitly added nodes plus surviving endpoints
        nodes = sorted_unique(np.concatenate([explicit, pair_lo, pair_hi])).astype(np.int64)
        # CSR over both edge directions, neighbors sorted per node
        sources, self._c_neighbors = _csr_neighbors(pair_lo, pair_hi)
        self._c_off_lo = sources.searchsorted(nodes, side="left")
        self._c_off_hi = sources.searchsorted(nodes, side="right")
        self._c_nodes = nodes
        self._c_pair_lo = pair_lo
        self._c_pair_hi = pair_hi
        self._compiled_edges_n = n_edges
        self._compiled_nodes_n = n_nodes
        self._compiled_removals_n = n_removals

    # -- mutation -----------------------------------------------------------------
    #
    # Writes only append to the raw columns; the first query after them
    # compiles.  A duplicate edge or node costs one raw row until then.

    def add_user(self, user_id: UserId) -> None:
        """Ensure a node exists for ``user_id`` (no-op if present)."""
        user_id = int(user_id)
        check_int32(user_id, "user id")
        self._explicit_nodes.append(user_id)

    def add_users_bulk(self, user_ids) -> None:
        """Ensure nodes exist for a batch of user ids."""
        self._explicit_nodes.extend(as_int32(user_ids, "user id"))

    def add_friendship(self, a: UserId, b: UserId) -> None:
        """Create the undirected edge (a, b).  Idempotent; self-loops rejected."""
        require(a != b, "a user cannot befriend themselves")
        a, b = int(a), int(b)
        check_int32(a, "friendship endpoint")
        check_int32(b, "friendship endpoint")
        self._edge_a.append(a)
        self._edge_b.append(b)

    def add_friendship_arrays(self, a, b) -> None:
        """Add the undirected edges ``(a[i], b[i])``.

        Behaviour per pair matches :meth:`add_friendship` (idempotent,
        self-loops rejected), and so does the cost: one append per
        column, no compile.  A batch with endpoint columns of different
        lengths, a self-loop or an endpoint outside int32 is rejected
        whole, before any edge is added.
        """
        a = as_int32(a, "friendship endpoint")
        b = as_int32(b, "friendship endpoint")
        if a.shape != b.shape:
            raise ValidationError(f"{a.shape[0]} edge sources for {b.shape[0]} targets")
        if bool(np.any(a == b)):
            raise ValidationError("a user cannot befriend themselves")
        self._edge_a.extend(a)
        self._edge_b.extend(b)

    def remove_user(self, user_id: UserId) -> None:
        """Remove a node and all incident edges (platform account deletion)."""
        self._removals.append(
            (int(user_id), len(self._explicit_nodes), len(self._edge_a))
        )

    def write_marks(self) -> Tuple[int, int, int]:
        """Rows written so far: edges, nodes and removals (each only grows)."""
        return len(self._edge_a), len(self._explicit_nodes), len(self._removals)

    # -- queries ------------------------------------------------------------------

    def __contains__(self, user_id: UserId) -> bool:
        self._compile()
        return self._compiled_slot(int(user_id)) >= 0

    @property
    def node_count(self) -> int:
        """Number of users in the graph."""
        self._compile()
        return int(self._c_nodes.shape[0])

    @property
    def edge_count(self) -> int:
        """Number of friendships."""
        self._compile()
        return int(self._c_pair_lo.shape[0])

    def neighbor_array(self, user_id: UserId) -> np.ndarray:
        """The friends of ``user_id`` as a fresh ascending int32 array."""
        self._compile()
        return self._compiled_neighbors(int(user_id)).copy()

    def neighbor_slices(
        self, user_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The compiled neighbor column and each user's slice of it.

        ``neighbors[starts[i]:stops[i]]`` are the friends of
        ``user_ids[i]``, ascending; an unknown user gets an empty slice.
        One ``searchsorted`` finds every slice.  The column is the
        graph's own and the next compile replaces it, so callers copy
        what they keep.
        """
        self._compile()
        nodes = self._c_nodes
        starts = np.zeros(user_ids.shape[0], dtype=np.int64)
        stops = np.zeros(user_ids.shape[0], dtype=np.int64)
        slot = nodes.searchsorted(user_ids)
        known = slot < nodes.shape[0]
        known[known] = nodes[slot[known]] == user_ids[known]
        starts[known] = self._c_off_lo[slot[known]]
        stops[known] = self._c_off_hi[slot[known]]
        return self._c_neighbors, starts, stops

    def neighbors(self, user_id: UserId) -> Set[UserId]:
        """The friend set of ``user_id`` (empty for unknown users)."""
        self._compile()
        # repro-lint: allow-DET003 membership/len only; ordered reads go through neighbor_array
        return set(self._compiled_neighbors(int(user_id)).tolist())

    def degree(self, user_id: UserId) -> int:
        """Friend count of ``user_id``."""
        self._compile()
        return int(self._compiled_neighbors(int(user_id)).shape[0])

    def are_friends(self, a: UserId, b: UserId) -> bool:
        """Whether the edge (a, b) exists."""
        self._compile()
        a, b = int(a), int(b)
        compiled = self._compiled_neighbors(a)
        i = int(compiled.searchsorted(b))
        return i < compiled.shape[0] and bool(compiled[i] == b)

    def two_hop_neighbors(self, user_id: UserId) -> Set[UserId]:
        """Users exactly two hops away (friends-of-friends, minus friends/self)."""
        direct = self.neighbors(user_id)
        # repro-lint: allow-DET003 consumers take len()/membership; never serialized unsorted
        two_hop: Set[UserId] = set()
        for friend in direct:
            two_hop.update(self.neighbors(friend))
        two_hop -= direct
        two_hop.discard(int(user_id))
        return two_hop

    def edges(self) -> Iterator[Tuple[UserId, UserId]]:
        """Iterate each undirected edge once, as sorted (min, max) pairs."""
        self._compile()
        yield from zip(self._c_pair_lo.tolist(), self._c_pair_hi.tolist())

    def edges_within(self, users: Iterable[UserId]) -> Iterator[Tuple[UserId, UserId]]:
        """Edges whose both endpoints are in ``users``, in sorted-node order."""
        self._compile()
        user_set = {int(u) for u in users}
        for node in sorted(user_set):
            for other in self._compiled_neighbors(node).tolist():
                if other in user_set and node < other:
                    yield (node, other)

    def mutual_friend_pairs(
        self, users: Iterable[UserId]
    ) -> Iterator[Tuple[UserId, UserId]]:
        """Pairs of distinct ``users`` connected through at least one mutual friend.

        This is the paper's "2-hop friendship relation" between likers: the
        intermediate friend may be anyone on the platform, not only a liker.
        Direct friends that also share a mutual friend are still yielded;
        callers subtract direct edges if they want the strictly-indirect set.
        """
        self._compile()
        user_list = sorted({int(u) for u in users})
        neighbor_sets = {
            u: set(self._compiled_neighbors(u).tolist())  # repro-lint: allow-DET003 values consumed via set intersection truthiness only
            for u in user_list
        }
        for i, a in enumerate(user_list):
            a_neighbors = neighbor_sets[a]
            if not a_neighbors:
                continue
            for b in user_list[i + 1 :]:
                if a_neighbors & neighbor_sets[b]:
                    yield (a, b)

    def to_networkx(self, users: Iterable[UserId] = None) -> nx.Graph:
        """Export (optionally the subgraph induced by ``users``) to networkx."""
        import networkx as nx

        graph = nx.Graph()
        if users is None:
            # _compile() folds any pending appends, so the compiled node
            # array is the complete node universe here.
            self._compile()
            graph.add_nodes_from(self._c_nodes.tolist())
            graph.add_edges_from(self.edges())
        else:
            user_set = set(users)
            graph.add_nodes_from(user_set)
            graph.add_edges_from(self.edges_within(user_set))
        return graph
