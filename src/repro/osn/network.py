"""The :class:`SocialNetwork` facade.

A single object owning users, pages, friendships, and the like log.  All
mutation goes through it so invariants (id uniqueness, like idempotence,
termination side effects) are enforced in one place.  Higher layers — the ad
platform, like farms, honeypot crawler — only talk to this facade.

Since the columnar refactor the facade holds no per-user Python objects:
profiles live in a :class:`repro.osn.profilestore.ProfileStore`
(struct-of-arrays, lazy views), likes in the columnar
:class:`repro.osn.events.LikeLog`, and friendships in the CSR
:class:`repro.osn.graph.FriendshipGraph`.  Current liker membership is
derived from the like log (event counts minus removal counts); pages that
receive *scalar* likes during simulation additionally materialise a
per-page liker set as an O(1) idempotence check — the incremental-monitor
path — while the bulk generator paths never build per-page sets at all.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.osn.events import LikeEvent, LikeLog, LikeRemovalEvent
from repro.osn.graph import FriendshipGraph
from repro.osn.ids import IdAllocator, PageId, UserId
from repro.osn.page import CATEGORY_HONEYPOT, Page
from repro.osn.privacy import PrivacyPolicy
from repro.osn.profile import Gender, UserProfile
from repro.osn.profilestore import ProfileStore, ProfileView
from repro.util.validation import ValidationError, require

_USER_ID_BASE = 1_000_000
_PAGE_ID_BASE = 9_000_000


# repro-lint: allow-CKPT001 the world is rebuilt from the seed at _build(); page/like mutations are re-derived by deterministic replay, and barrier equality of the engine+monitor state proves the rebuild
class SocialNetwork:
    """In-memory simulated social network.

    >>> net = SocialNetwork()
    >>> alice = net.create_user(gender=Gender.FEMALE, age=30, country="US")
    >>> page = net.create_page("Example")
    >>> net.like_page(alice.user_id, page.page_id, time=0)
    True
    >>> net.page_liker_ids(page.page_id) == [alice.user_id]
    True
    """

    def __init__(self) -> None:
        self.profiles = ProfileStore(_USER_ID_BASE)
        self._pages: Dict[PageId, Page] = {}
        self.graph = FriendshipGraph()
        self.likes = LikeLog()
        self.privacy = PrivacyPolicy()
        self._page_ids = IdAllocator(_PAGE_ID_BASE)
        # Lazily materialised per-page liker sets: only pages hit by the
        # scalar like path (ad deliveries onto the handful of honeypot
        # pages) pay for one; the generators' bulk writes never do.
        self._liker_sets: Dict[PageId, Set[UserId]] = {}
        # Per-page replay memo: (event_count, removal_count) -> liker list.
        self._replay_cache: Dict[int, Tuple] = {}

    # -- users --------------------------------------------------------------------

    def create_user(
        self,
        gender: Gender,
        age: int,
        country: str,
        friend_list_public: bool = True,
        searchable: bool = True,
        cohort: str = "organic",
        created_at: int = 0,
    ) -> UserProfile:
        """Create and register a new user account."""
        user_id = self.profiles.add(
            gender=gender,
            age=age,
            country=country,
            friend_list_public=friend_list_public,
            searchable=searchable,
            cohort=cohort,
            created_at=created_at,
        )
        self.graph.add_user(user_id)
        return self.profiles.view(user_id)

    def create_users_bulk(
        self,
        count: int,
        *,
        gender_codes,
        ages,
        countries,
        friend_list_public,
        searchable,
        cohort: str,
        created_at: int = 0,
    ) -> List[UserId]:
        """Create ``count`` accounts in one columnar append.

        The batch counterpart of :meth:`create_user` for the world
        generators: demographics arrive as arrays (or scalars to
        broadcast), the cohort and creation time are per-batch.  Returns
        the new user ids in creation order.
        """
        user_ids = self.profiles.add_many(
            count,
            gender_codes=gender_codes,
            ages=ages,
            countries=countries,
            friend_list_public=friend_list_public,
            searchable=searchable,
            cohort=cohort,
            created_at=created_at,
        )
        self.graph.add_users_bulk(user_ids)
        return user_ids

    def user(self, user_id: UserId) -> UserProfile:
        """Look up a user; raises ``KeyError`` for unknown ids."""
        return self.profiles.view(user_id)

    def has_user(self, user_id: UserId) -> bool:
        """Whether ``user_id`` is a registered account (terminated or not)."""
        return self.profiles.has(user_id)

    @property
    def user_count(self) -> int:
        """Number of registered accounts, including terminated ones."""
        return self.profiles.count

    def all_users(self) -> Iterable[UserProfile]:
        """Iterate every registered account."""
        return self.profiles.iter_views()

    def users_in_cohort(self, cohort: str) -> List[UserProfile]:
        """All users with the given ground-truth cohort label."""
        code = self.profiles.cohort_code_of(cohort)
        if code is None:
            return []
        rows = np.flatnonzero(self.profiles.cohort_codes() == code)
        base = self.profiles.id_base
        return [self.profiles.view(base + row) for row in rows.tolist()]

    # -- pages --------------------------------------------------------------------

    def create_page(
        self,
        name: str,
        description: str = "",
        owner_id: Optional[UserId] = None,
        category: str = "normal",
        created_at: int = 0,
    ) -> Page:
        """Create and register a new page."""
        if owner_id is not None:
            require(self.has_user(owner_id), f"unknown page owner {owner_id}")
        page_id = PageId(self._page_ids.allocate())
        page = Page(
            page_id=page_id,
            name=name,
            description=description,
            owner_id=owner_id,
            category=category,
            created_at=created_at,
        )
        self._pages[page_id] = page
        return page

    def page(self, page_id: PageId) -> Page:
        """Look up a page; raises ``KeyError`` for unknown ids."""
        return self._pages[page_id]

    @property
    def page_count(self) -> int:
        """Number of registered pages."""
        return len(self._pages)

    def all_pages(self) -> Iterable[Page]:
        """Iterate every registered page."""
        return self._pages.values()

    def honeypot_pages(self) -> List[Page]:
        """All pages flagged as study honeypots."""
        return [p for p in self._pages.values() if p.category == CATEGORY_HONEYPOT]

    # -- friendships --------------------------------------------------------------

    def add_friendship(self, a: UserId, b: UserId) -> None:
        """Create a bidirectional friendship between two live accounts."""
        require(self.has_user(a), f"unknown user {a}")
        require(self.has_user(b), f"unknown user {b}")
        require(not self.profiles.is_terminated(a), f"user {a} is terminated")
        require(not self.profiles.is_terminated(b), f"user {b} is terminated")
        self.graph.add_friendship(a, b)

    def add_friendships_arrays(self, a, b) -> None:
        """Create the friendships ``(a[i], b[i])``.

        The batch counterpart of :meth:`add_friendship`, and the one
        every wiring step uses: edges are idempotent, and a batch with
        endpoint columns of different lengths, a self-loop or an endpoint
        that is not a live account is refused whole, before any edge is
        added.  Validation is one masked comparison per endpoint and the
        graph only appends, so a batch costs no compile.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        self._validate_live_users(np.concatenate([a, b]))
        self.graph.add_friendship_arrays(a, b)

    def _validate_live_users(self, user_ids: np.ndarray) -> None:
        """Every id must name a registered, non-terminated account."""
        rows = user_ids - self.profiles.id_base
        unknown = (rows < 0) | (rows >= self.profiles.count)
        if bool(np.any(unknown)):
            # report the smallest offending id, as a sorted-unique scan would
            raise ValidationError(f"unknown user {int(user_ids[unknown].min())}")
        terminated = ~self.profiles.alive_mask()[rows]
        if bool(np.any(terminated)):
            raise ValidationError(f"user {int(user_ids[terminated].min())} is terminated")

    def friend_count(self, user_id: UserId) -> int:
        """Ground-truth friend count (the crawler sees this only if public)."""
        return self.graph.degree(user_id)

    def declared_friend_count(self, user_id: UserId) -> int:
        """Explicit graph degree plus background (unmodelled) friends.

        This is the number a crawler reading a public friend list would
        count; see :attr:`repro.osn.profile.UserProfile.background_friend_count`.
        A one-user :class:`~repro.osn.profileread.ProfileRead`.
        """
        from repro.osn.profileread import ProfileRead  # the read takes a network

        self.profiles.row_of(user_id)  # KeyError for an unknown id
        return ProfileRead(self, [user_id]).declared_friend_count(0)

    # -- likes --------------------------------------------------------------------

    def _liker_set(self, page_id: PageId) -> Set[UserId]:
        """Materialise (once) the current-liker membership set for a page."""
        likers = self._liker_sets.get(page_id)
        if likers is None:
            # repro-lint: allow-DET003 membership/len only; ordered reads go through page_liker_ids
            likers = set(self._current_likers(page_id))
            self._liker_sets[page_id] = likers
        return likers

    def _current_likers(self, page_id: PageId) -> List[UserId]:
        """Current likers of ``page_id`` in arrival order."""
        removal_count = self.likes.page_removal_count(page_id)
        if removal_count == 0:
            # no removals: every event is a distinct current like
            return self.likes.page_user_ids_array(page_id).tolist()
        # Replays are cached per page and invalidated by any new like or
        # removal (the counts key); the observers re-read popular pages
        # many times between mutations.
        key = (self.likes.page_event_count(page_id), removal_count)
        cached = self._replay_cache.get(int(page_id))
        if cached is not None and cached[0] == key:
            return list(cached[1])
        likers = self._replay_likers(page_id)
        self._replay_cache[int(page_id)] = (key, likers)
        return list(likers)

    def _replay_likers(self, page_id: PageId) -> List[UserId]:
        """Replay like and removal events into the current liker list.

        Removals carry the like-event count at removal time, so they
        interleave exactly where they happened; each removes the *first*
        occurrence, matching the old mutable-list implementation (a
        re-like after a removal rejoins at the end of the list).
        """
        positions = self.likes.page_event_positions(page_id)
        users = self.likes.page_user_ids_array(page_id)
        removals = self.likes.removal_records_for_page(page_id)
        likers: List[UserId] = []
        next_removal = 0
        for position, user_id in zip(positions.tolist(), users.tolist()):
            while (
                next_removal < len(removals)
                and removals[next_removal][0] <= position
            ):
                likers.remove(removals[next_removal][1].user_id)
                next_removal += 1
            likers.append(user_id)
        for _, event in removals[next_removal:]:
            likers.remove(event.user_id)
        return likers

    def _currently_likes(self, user_id: UserId, page_id: PageId) -> bool:
        """Membership check without materialising a liker set."""
        likers = self._liker_sets.get(page_id)
        if likers is not None:
            return user_id in likers
        count = self.likes.pair_count(page_id, user_id)
        if count == 0:
            return False
        return count > self.likes.removal_pair_count(page_id, user_id)

    def like_page(self, user_id: UserId, page_id: PageId, time: int) -> bool:
        """Record ``user_id`` liking ``page_id`` at ``time``.

        Returns True if the like was new, False if the user already liked the
        page (likes are idempotent, as on the platform).  Terminated accounts
        cannot like.
        """
        if not self.has_user(user_id):
            raise ValidationError(f"unknown user {user_id}")
        if page_id not in self._pages:
            raise ValidationError(f"unknown page {page_id}")
        if self.profiles.is_terminated(user_id):
            raise ValidationError(f"terminated user {user_id} cannot like")
        likers = self._liker_set(page_id)
        if user_id in likers:
            return False
        self.likes.record(LikeEvent(user_id=user_id, page_id=page_id, time=time))
        likers.add(user_id)
        return True

    def like_pages_fresh_many(
        self, user_ids: Sequence[UserId], pages, counts, time: int
    ) -> int:
        """Record a whole cohort's fresh likes in one columnar append.

        ``pages`` is one page-id column holding each user's pages in turn:
        the first ``counts[0]`` belong to ``user_ids[0]``, the next
        ``counts[1]`` to ``user_ids[1]``, and so on — the layout
        :meth:`PageUniverse.sample_likes_many` returns.  The caller
        guarantees each user's pages hold no duplicates and no
        already-liked page (world builders sample each liked set without
        replacement from disjoint segments), so the per-page idempotence
        probe of :meth:`like_page` is skipped.  Events land user-by-user
        in caller order, so every like query answers as after a
        :meth:`like_page` loop over the same pairs — but users, pages, and
        validation each cost one vectorised pass.  Counts that do not
        split ``pages`` among ``user_ids``, an unknown or terminated user,
        an unknown page, and a time the log refuses are all refused before
        anything is written.  Returns the number of likes recorded.
        """
        users = np.asarray(user_ids, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        pages = np.asarray(pages, dtype=np.int64)
        if counts.shape != users.shape:
            raise ValidationError(f"{counts.size} like counts for {users.size} users")
        if bool(np.any(counts < 0)):
            raise ValidationError(f"negative like count {int(counts.min())}")
        total = int(counts.sum())
        if total != pages.shape[0]:
            raise ValidationError(
                f"like counts sum to {total}, but {pages.shape[0]} pages were given"
            )
        if users.shape[0] == 0:
            return 0
        self._validate_live_users(users)
        if total == 0:
            return 0
        rows = pages - _PAGE_ID_BASE
        known = (rows >= 0) & (rows < len(self._pages))
        if not bool(np.all(known)):
            raise ValidationError(f"unknown page {int(pages[~known][0])}")
        user_column = np.repeat(users, counts)
        self.likes.record_arrays(user_column, pages, time)
        if self._liker_sets:
            for user_id, page_id in zip(user_column.tolist(), pages.tolist()):
                likers = self._liker_sets.get(page_id)
                if likers is not None:
                    likers.add(user_id)
        return total

    def page_liker_ids(self, page_id: PageId) -> List[UserId]:
        """Likers of ``page_id`` in arrival order (terminated accounts included).

        The paper observed likes as they arrived and later noted which liker
        accounts had been terminated, so the historical record is preserved.
        """
        if page_id not in self._pages:
            raise ValidationError(f"unknown page {page_id}")
        return self._current_likers(page_id)

    def page_like_count(self, page_id: PageId) -> int:
        """Current number of likes on ``page_id``."""
        require(page_id in self._pages, f"unknown page {page_id}")
        return self.likes.page_event_count(page_id) - self.likes.page_removal_count(
            page_id
        )

    def user_liked_page_ids(self, user_id: UserId) -> Set[PageId]:
        """The set of pages ``user_id`` likes (ground truth)."""
        require(self.has_user(user_id), f"unknown user {user_id}")
        pages = self.likes.user_page_ids_array(user_id)
        if self.likes.user_removal_count(user_id) == 0:
            # repro-lint: allow-DET003 defensive copy; PlatformAPI.get_page_likes sorts before serializing
            return set(pages.tolist())
        liked = Counter(pages.tolist())
        for event in self.likes.removals_for_user(user_id):
            liked[event.page_id] -= 1
        # repro-lint: allow-DET003 defensive copy; PlatformAPI.get_page_likes sorts before serializing
        return {page_id for page_id, count in liked.items() if count > 0}

    def user_like_count(self, user_id: UserId) -> int:
        """How many pages ``user_id`` likes inside the simulated universe."""
        require(self.has_user(user_id), f"unknown user {user_id}")
        return self.likes.user_event_count(user_id) - self.likes.user_removal_count(
            user_id
        )

    def declared_like_count(self, user_id: UserId) -> int:
        """Explicit likes plus background (out-of-universe) likes.

        This is the total a crawler reading the profile's like list reports;
        see :attr:`repro.osn.profile.UserProfile.background_like_count`.
        A one-user :class:`~repro.osn.profileread.ProfileRead`.
        """
        from repro.osn.profileread import ProfileRead  # the read takes a network

        self.profiles.row_of(user_id)  # KeyError for an unknown id
        return ProfileRead(self, [user_id]).declared_like_count(0)

    def remove_like(self, user_id: UserId, page_id: PageId, time: int) -> bool:
        """Remove a like from a page's *current* liker list.

        Historical like events stay in the log; a removal event is recorded
        so observers can measure disappearing likes (the paper's future-work
        item).  Returns False when no current like existed.
        """
        require(self.has_user(user_id), f"unknown user {user_id}")
        require(page_id in self._pages, f"unknown page {page_id}")
        if not self._currently_likes(user_id, page_id):
            return False
        likers = self._liker_sets.get(page_id)
        if likers is not None:
            likers.discard(user_id)
        self.likes.record_removal(
            LikeRemovalEvent(user_id=user_id, page_id=page_id, time=time)
        )
        return True

    def write_marks(self) -> Tuple[int, ...]:
        """Counts that every write to users, likes or friendships advances.

        Like events, like removals, the graph's edge, node and removal
        rows (a termination appends a removal row) and accounts; equal
        marks mean none of those changed in between.
        """
        return (
            len(self.likes),
            self.likes.removal_count,
            *self.graph.write_marks(),
            self.profiles.count,
        )

    # -- enforcement --------------------------------------------------------------

    def terminate_account(
        self, user_id: UserId, time: int, purge_likes: bool = False
    ) -> None:
        """Platform enforcement removes an account.

        The profile is flagged (not deleted) so analyses can count
        terminations; friendships are severed; historical like events remain
        in the log, matching how the paper could still attribute past likes
        to terminated accounts.  With ``purge_likes`` the platform also
        strips the account's likes from every page's current liker list —
        the mechanism behind likes that silently disappear from pages.
        """
        require(self.has_user(user_id), f"unknown user {user_id}")
        require(
            not self.profiles.is_terminated(user_id),
            f"user {user_id} already terminated",
        )
        if purge_likes:
            # Bulk twin of looping remove_like: every page here is a
            # current like by construction, so the membership probe is
            # skipped and the removal records land in one batch (same
            # order, same sequence positions).
            purged = sorted(self.user_liked_page_ids(user_id))
            for page_id in purged:
                likers = self._liker_sets.get(page_id)
                if likers is not None:
                    likers.discard(user_id)
            self.likes.record_removals(user_id, purged, time)
        self.profiles.terminate(user_id, time)
        self.graph.remove_user(user_id)
        self.graph.add_user(user_id)  # keep the node, drop the edges
