"""One columnar read of the crawlable profile fields of many users.

The platform API's five profile endpoints answer from a
:class:`ProfileRead`.  Inside :meth:`repro.osn.api.PlatformAPI.crawl_scope`
one read covers every user a crawl loop will request, so a request costs
a table lookup; a request made outside any scope reads its one user the
same way.  The read is raw: the API applies the visibility masks, which
:class:`repro.osn.privacy.PrivacyPolicy` defines once over columns.

Rows follow the ids the read was given.  Three column groups each cost
one vectorised pass:

* on construction, the profile columns: existence and termination, the
  two visibility masks and the public demographics;
* on the first friend request, each user's slice of the friendship
  graph's compiled CSR and the declared friend count (the graph compiles
  here if a write landed since its last compile);
* on the first like request, the like counts through one many-key
  lookup on the like log's user index, and then the sorted liked pages
  in chunks of about 64k page ids, one chunk held at a time.

A read that serves only profiles (the termination recheck) therefore
compiles neither the graph nor the like index.  Each list an endpoint
returns is a fresh int32 array.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.osn import columns
from repro.osn.columns import sort_segments

if TYPE_CHECKING:  # pragma: no cover - hints only; the network imports this lazily
    from repro.osn.network import SocialNetwork

__all__ = ["ProfileRead"]


class ProfileRead:
    """The crawlable fields of ``user_ids``, read column by column.

    ``row_of`` maps each id to its row; the per-row columns the
    endpoints test (``alive``, ``friends_visible``, ``likes_visible``)
    and the public demographics are Python lists, so an endpoint call
    reads one element of each.  An unknown id reads as a terminated
    account.
    """

    __slots__ = (
        "_network",
        "_ids",
        "_rows",
        "row_of",
        "alive",
        "friends_visible",
        "likes_visible",
        "genders",
        "brackets",
        "countries",
        "_neighbors",
        "_friend_starts",
        "_friend_stops",
        "_declared_friends",
        "_like_bounds",
        "_removed",
        "_declared_likes",
        "_chunk_start",
        "_chunk_stop",
        "_chunk_pages",
        "_chunk_offsets",
    )

    def __init__(self, network: "SocialNetwork", user_ids: Sequence[int]) -> None:
        ids = np.asarray(user_ids, dtype=np.int64).reshape(-1)
        profiles = network.profiles
        rows = ids - profiles.id_base
        known = (rows >= 0) & (rows < profiles.count)
        # an unknown id reads row 0 and counts as terminated, so no
        # endpoint shows its columns
        rows[~known] = 0
        self._network = network
        self._ids = ids
        self._rows = rows
        self.row_of = dict(zip(ids.tolist(), range(ids.shape[0])))
        if profiles.count:
            alive = known & profiles.alive_mask()[rows]
            public = profiles.friend_list_public_mask()[rows]
            self.genders, self.brackets, self.countries = profiles.demographics(
                rows + profiles.id_base
            )
        else:
            alive, public = known, False
            self.genders = self.brackets = self.countries = [None] * ids.shape[0]
        policy = network.privacy
        self.alive = alive.tolist()
        self.friends_visible = policy.friend_lists_visible(public, ~alive).tolist()
        self.likes_visible = policy.page_likes_visible(~alive).tolist()
        self._neighbors: Optional[np.ndarray] = None
        self._like_bounds: Optional[np.ndarray] = None
        self._chunk_start = self._chunk_stop = 0

    # -- friends ------------------------------------------------------------

    def _read_friends(self) -> None:
        neighbors, starts, stops = self._network.graph.neighbor_slices(self._ids)
        background = self._network.profiles.background_friend_counts()
        declared = stops - starts
        if self._network.profiles.count:
            declared += background[self._rows]
        self._neighbors = neighbors
        self._friend_starts = starts.tolist()
        self._friend_stops = stops.tolist()
        self._declared_friends = declared.tolist()

    def friend_list(self, row: int) -> np.ndarray:
        """Row ``row``'s friends, ascending."""
        if self._neighbors is None:
            self._read_friends()
        return self._neighbors[self._friend_starts[row] : self._friend_stops[row]].copy()

    def declared_friend_count(self, row: int) -> int:
        """Graph degree plus background (unmodelled) friends."""
        if self._neighbors is None:
            self._read_friends()
        return self._declared_friends[row]

    # -- likes --------------------------------------------------------------

    def _read_like_counts(self) -> None:
        likes = self._network.likes
        events = likes.user_event_counts(self._ids)
        removed = np.fromiter(
            map(likes.user_removal_count, self._ids.tolist()),
            np.int64,
            self._ids.shape[0],
        )
        declared = events - removed
        if self._network.profiles.count:
            declared += self._network.profiles.background_like_counts()[self._rows]
        bounds = np.zeros(events.shape[0] + 1, dtype=np.int64)
        np.cumsum(events, out=bounds[1:])
        self._like_bounds = bounds
        self._removed = (removed > 0).tolist()
        self._declared_likes = declared.tolist()

    def declared_like_count(self, row: int) -> int:
        """Current explicit likes plus background (out-of-universe) likes."""
        if self._like_bounds is None:
            self._read_like_counts()
        return self._declared_likes[row]

    def liked_pages(self, row: int) -> np.ndarray:
        """Row ``row``'s currently liked pages, ascending.

        Read with the rows after it, as one chunk of at most
        ``_COMPILE_CHUNK`` like events (or this row alone if it has
        more): one many-key lookup, one gather and one segment sort.
        A user with removals has their current set replayed from the
        like log instead (:meth:`SocialNetwork.user_liked_page_ids`).
        """
        if self._like_bounds is None:
            self._read_like_counts()
        if self._removed[row]:
            current = self._network.user_liked_page_ids(int(self._ids[row]))
            return np.array(sorted(current), dtype=np.int32)
        if not self._chunk_start <= row < self._chunk_stop:
            self._read_page_chunk(row)
        offsets = self._chunk_offsets
        at = row - self._chunk_start
        return self._chunk_pages[offsets[at] : offsets[at + 1]].copy()

    def _read_page_chunk(self, row: int) -> None:
        bounds = self._like_bounds
        limit = bounds[row] + columns._COMPILE_CHUNK
        stop = max(row + 1, int(bounds.searchsorted(limit, side="right")) - 1)
        pages, offsets = self._network.likes.user_page_ids_many(self._ids[row:stop])
        sort_segments(pages, offsets)
        self._chunk_start, self._chunk_stop = row, stop
        self._chunk_pages = pages
        self._chunk_offsets: List[int] = offsets.tolist()
