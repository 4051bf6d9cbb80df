"""Timestamped like events.

The temporal analysis (paper Figure 2) and the burst-based detection rules
need *when* each like landed, not just the final liker set, so the network
records every like as an immutable event in arrival order.

Storage is columnar: the log is three parallel growable int32 columns —
``user_id``, ``page_id``, ``time`` — appended in arrival order, 12 bytes
per event, plus two lazily compiled
:class:`repro.osn.columns.ColumnIndex` inverted indexes (per page and
per user).  Ids and minute timestamps all fit in 32 bits; a write whose
id or time does not, or whose user and page columns differ in length,
is rejected whole with :class:`ValidationError` before any column
grows.  An index sorts only the rows a query reaches.  The world build
writes each cohort user by user, so its rows are already in user order
and the user index keeps 16 bytes per distinct user and nothing per
event.  The honeypot pages are created after the build, so every page
query reads only the per-key buckets of the rows after it, and the page
index holds nothing per build event.  :class:`LikeEvent` objects are
materialised only on read.  At paper scale the write path sees ~1.2M
events, nearly all through :meth:`LikeLog.record_arrays`, which lands a
whole cohort's likes with one validation and one append per column; the
scalar :meth:`LikeLog.record` takes ad and farm deliveries one like at
a time.  A write below the log's newest time is checked for per-page
chronology by a chunked scan of the time column, not through an index.

Removals are kept as a side list of :class:`LikeRemovalEvent` records
tagged with the like-event count at removal time (their *sequence
position*), plus counting dicts per page, per user, and per (page, user)
pair — enough to answer "does u currently like p" and to replay a page's
current liker list exactly as the old list-of-likers implementation did,
without ever storing a mutable per-page list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.osn import columns
from repro.osn.columns import ColumnIndex, TypedVector, as_int32, check_int32
from repro.osn.ids import PageId, UserId
from repro.util.validation import ValidationError, require


@dataclass(frozen=True, slots=True)
class LikeEvent:
    """A user liking a page at a simulated time."""

    user_id: UserId
    page_id: PageId
    time: int

    def __post_init__(self) -> None:
        require(self.time >= 0, "like time must be >= 0")


@dataclass(frozen=True, slots=True)
class LikeRemovalEvent:
    """A like disappearing from a page (platform purge or user unlike).

    The paper's future work calls for "longer observation of removed
    likes"; removals happen when enforcement terminates an account and
    purges its engagement.
    """

    user_id: UserId
    page_id: PageId
    time: int

    def __post_init__(self) -> None:
        require(self.time >= 0, "removal time must be >= 0")


class LikeLog:
    """Append-only columnar log of like events with lazy per-page and
    per-user indexes.

    Events for a given page are guaranteed to be in non-decreasing time
    order because the event engine delivers them chronologically; the log
    enforces this invariant defensively.
    """

    def __init__(self) -> None:
        self._users = TypedVector(np.int32)
        self._pages = TypedVector(np.int32)
        self._times = TypedVector(np.int32)
        self._page_index = ColumnIndex()
        self._user_index = ColumnIndex()
        self._max_time = -1
        self._removals: List[LikeRemovalEvent] = []
        self._removal_seqs: List[int] = []
        self._removal_pair_counts: Dict[Tuple[int, int], int] = {}
        self._user_removal_counts: Dict[int, int] = {}
        self._page_removal_counts: Dict[int, int] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def record(self, event: LikeEvent) -> None:
        """Append ``event``; rejects out-of-order times for the same page."""
        time = event.time
        check_int32(event.user_id, "user id")
        check_int32(event.page_id, "page id")
        check_int32(time, "like time")
        self._check_chronology([event.page_id], time)
        self._users.append(event.user_id)
        self._pages.append(event.page_id)
        self._times.append(time)
        self._count += 1
        if time > self._max_time:
            self._max_time = time

    def record_arrays(
        self, user_ids: np.ndarray, page_ids: np.ndarray, time: int
    ) -> None:
        """Append aligned ``(user, page)`` event columns, all at ``time``.

        The production bulk path: one call lands every like a world
        generator cohort produced (organic users, farm accounts, click
        workers).  A batch applies in full or not at all: a negative
        time, an id or time outside int32, a page holding a later event,
        and columns of different lengths are each refused before any
        column grows.  One column append lands the whole cohort.
        """
        if len(user_ids) != len(page_ids):
            raise ValidationError(
                f"{len(user_ids)} user ids do not align with {len(page_ids)} page ids"
            )
        k = len(page_ids)
        if k == 0:
            return
        require(time >= 0, "like time must be >= 0")
        check_int32(time, "like time")
        users = as_int32(user_ids, "user id")
        pages = as_int32(page_ids, "page id")
        self._check_chronology(pages, time)
        self._pages.extend(pages)
        self._users.extend(users)
        self._times.extend_full(k, time)
        self._count += k
        if time > self._max_time:
            self._max_time = time

    def _check_chronology(self, pages, time: int) -> None:
        """Refuse a write at ``time`` to a page holding a later event.

        A write at or after the log's newest time passes at once.  Below
        it, the time column is scanned a chunk at a time for the rows
        later than the write, and the write is refused if any page in
        ``pages`` is among those rows' pages.  Per-page times never
        decrease, so this is exactly "the page's newest event is later".
        """
        if time >= self._max_time:
            return
        times = self._times.values()
        log_pages = self._pages.values()
        chunk = columns._COMPILE_CHUNK
        for start in range(0, times.shape[0], chunk):
            later = times[start : start + chunk] > time
            if later.any() and np.isin(pages, log_pages[start : start + chunk][later]).any():
                raise ValidationError(
                    "like events for a page must arrive in chronological order"
                )

    # -- columnar reads ------------------------------------------------------

    def page_event_positions(self, page_id: PageId) -> np.ndarray:
        """Global event positions for ``page_id``, in arrival order."""
        return self._page_index.positions(int(page_id), self._pages.values())

    def user_event_positions(self, user_id: UserId) -> np.ndarray:
        """Global event positions for ``user_id``, in arrival order."""
        return self._user_index.positions(int(user_id), self._users.values())

    def page_user_ids_array(self, page_id: PageId) -> np.ndarray:
        """User-id column slice of ``page_id``'s events, arrival order."""
        return self._users.values()[self.page_event_positions(page_id)]

    def user_page_ids_array(self, user_id: UserId) -> np.ndarray:
        """Page-id column slice of ``user_id``'s events, arrival order."""
        return self._pages.values()[self.user_event_positions(user_id)]

    def user_page_ids_many(self, user_ids) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked page-id column slices of many users, with their offsets.

        ``pages[offsets[i]:offsets[i + 1]]`` equals
        ``user_page_ids_array(user_ids[i])``: one many-key lookup on the
        user index (:meth:`ColumnIndex.positions_many`) and one gather.
        """
        positions, offsets = self._user_index.positions_many(
            user_ids, self._users.values()
        )
        return self._pages.values()[positions], offsets

    def user_event_counts(self, user_ids) -> np.ndarray:
        """``user_event_count`` of many users, as an int64 array."""
        return self._user_index.counts_many(user_ids, self._users.values())

    def page_event_count(self, page_id: PageId) -> int:
        """Number of like events ever recorded on ``page_id``."""
        return self._page_index.count(int(page_id), self._pages.values())

    def user_event_count(self, user_id: UserId) -> int:
        """Number of like events ever recorded by ``user_id``."""
        return self._user_index.count(int(user_id), self._users.values())

    def pair_count(self, page_id: PageId, user_id: UserId) -> int:
        """How many times ``user_id`` has liked ``page_id`` (re-likes count)."""
        positions = self.page_event_positions(page_id)
        if positions.shape[0] == 0:
            return 0
        return int(
            np.count_nonzero(self._users.values()[positions] == int(user_id))
        )

    def for_page(self, page_id: PageId) -> Tuple[LikeEvent, ...]:
        """All like events on ``page_id``, oldest first."""
        positions = self.page_event_positions(page_id)
        users = self._users.values()[positions]
        times = self._times.values()[positions]
        page_id = PageId(int(page_id))
        return tuple(
            LikeEvent(user_id=UserId(int(u)), page_id=page_id, time=int(t))
            for u, t in zip(users, times)
        )

    def for_user(self, user_id: UserId) -> Tuple[LikeEvent, ...]:
        """All like events by ``user_id``, in arrival order."""
        positions = self.user_event_positions(user_id)
        pages = self._pages.values()[positions]
        times = self._times.values()[positions]
        user_id = UserId(int(user_id))
        return tuple(
            LikeEvent(user_id=user_id, page_id=PageId(int(p)), time=int(t))
            for p, t in zip(pages, times)
        )

    def page_like_times(self, page_id: PageId) -> List[int]:
        """Just the timestamps of likes on ``page_id`` (for time-series work)."""
        positions = self.page_event_positions(page_id)
        return self._times.values()[positions].tolist()

    # -- removals ------------------------------------------------------------

    def record_removal(self, event: LikeRemovalEvent) -> None:
        """Append a like-removal event (historical likes stay in the log)."""
        self._removals.append(event)
        self._removal_seqs.append(self._count)
        pair = (int(event.page_id), int(event.user_id))
        self._removal_pair_counts[pair] = self._removal_pair_counts.get(pair, 0) + 1
        self._user_removal_counts[int(event.user_id)] = (
            self._user_removal_counts.get(int(event.user_id), 0) + 1
        )
        self._page_removal_counts[int(event.page_id)] = (
            self._page_removal_counts.get(int(event.page_id), 0) + 1
        )

    def record_removals(
        self, user_id: UserId, page_ids: Sequence[PageId], time: int
    ) -> None:
        """Record one removal per page for ``user_id``, all at ``time``.

        The batch twin of :meth:`record_removal` for account purges:
        produces exactly the same removal records (same order, same
        sequence positions — no like events land in between) with one
        pass over the counter dicts.
        """
        uid = int(user_id)
        k = 0
        seq = self._count
        pair_counts = self._removal_pair_counts
        page_counts = self._page_removal_counts
        for page_id in page_ids:
            self._removals.append(
                LikeRemovalEvent(user_id=user_id, page_id=page_id, time=time)
            )
            self._removal_seqs.append(seq)
            pid = int(page_id)
            pair_counts[(pid, uid)] = pair_counts.get((pid, uid), 0) + 1
            page_counts[pid] = page_counts.get(pid, 0) + 1
            k += 1
        if k:
            self._user_removal_counts[uid] = (
                self._user_removal_counts.get(uid, 0) + k
            )

    def removals_for_user(self, user_id: UserId) -> List[LikeRemovalEvent]:
        """All removal events affecting ``user_id``'s likes, in arrival order."""
        return [event for event in self._removals if event.user_id == user_id]

    def removal_records_for_page(
        self, page_id: PageId
    ) -> List[Tuple[int, LikeRemovalEvent]]:
        """``(sequence, event)`` pairs for ``page_id``'s removals.

        The sequence is the number of like events recorded when the
        removal landed — enough to interleave removals with the event
        columns when replaying a page's current liker list.
        """
        return [
            (seq, event)
            for seq, event in zip(self._removal_seqs, self._removals)
            if event.page_id == page_id
        ]

    def removal_pair_count(self, page_id: PageId, user_id: UserId) -> int:
        """How many times a like of ``page_id`` by ``user_id`` was removed."""
        return self._removal_pair_counts.get((int(page_id), int(user_id)), 0)

    def user_removal_count(self, user_id: UserId) -> int:
        """Total removals of likes made by ``user_id``."""
        return self._user_removal_counts.get(int(user_id), 0)

    def page_removal_count(self, page_id: PageId) -> int:
        """Total removals of likes on ``page_id``."""
        return self._page_removal_counts.get(int(page_id), 0)

    @property
    def removal_count(self) -> int:
        """Total like removals recorded."""
        return len(self._removals)
