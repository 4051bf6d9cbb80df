"""Scalar-vs-bulk equivalence for the OSN write paths.

The bulk APIs (`like_pages_bulk`, `like_page_many`, `add_friendships_bulk`,
`LikeLog.record_many`) exist purely for speed; their contract is that final
network state is identical to looping the scalar calls in the same order.
These tests pin that contract at the unit level and end-to-end: a seeded
small study must produce the identical dataset whether the generators write
through the bulk fast path or through per-item scalar calls.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.osn.universe as universe_module
from repro.osn import columns
from repro.honeypot.study import HoneypotStudy, StudyConfig
from repro.osn.events import LikeEvent, LikeLog
from repro.osn.network import SocialNetwork
from repro.osn.profile import Gender
from repro.osn.universe import (
    CLICKWORKER_MIX,
    FARM_MIX,
    ORGANIC_MIX,
    SHARED_SPAM_KEY,
    STEALTH_FARM_MIX,
    PageUniverse,
)
from repro.util.rng import RngStream
from repro.util.validation import ValidationError


def _network_with(n_users: int, n_pages: int) -> tuple:
    network = SocialNetwork()
    users = [
        network.create_user(gender=Gender.FEMALE, age=30, country="US").user_id
        for _ in range(n_users)
    ]
    pages = [network.create_page(f"p{i}").page_id for i in range(n_pages)]
    return network, users, pages


def _like_state(network: SocialNetwork, users, pages) -> tuple:
    return (
        [network.page_liker_ids(p) for p in pages],
        [sorted(network.user_liked_page_ids(u)) for u in users],
        [network.likes.for_page(p) for p in pages],
        [network.likes.for_user(u) for u in users],
        len(network.likes),
    )


class TestLikePagesBulk:
    def test_matches_scalar_loop(self):
        scalar_net, users, pages = _network_with(3, 10)
        bulk_net, bulk_users, bulk_pages = _network_with(3, 10)
        batches = [pages[0:6], pages[3:9], pages[2:10:2]]
        for user_id, batch in zip(users, batches):
            for page_id in batch:
                scalar_net.like_page(user_id, page_id, time=4)
        for user_id, batch in zip(bulk_users, batches):
            bulk_net.like_pages_bulk(user_id, batch, time=4)
        assert _like_state(scalar_net, users, pages) == _like_state(
            bulk_net, bulk_users, bulk_pages
        )

    def test_skips_duplicates_and_already_liked(self):
        network, (alice, *_), pages = _network_with(1, 4)
        network.like_page(alice, pages[0], time=0)
        added = network.like_pages_bulk(
            alice, [pages[0], pages[1], pages[1], pages[2]], time=1
        )
        assert added == 2
        assert sorted(network.user_liked_page_ids(alice)) == sorted(pages[:3])
        # the pre-existing like kept its original timestamp
        assert network.likes.for_page(pages[0])[0].time == 0

    def test_rejects_unknown_page_and_bad_time(self):
        network, (alice, *_), pages = _network_with(1, 2)
        with pytest.raises(ValidationError):
            network.like_pages_bulk(alice, [pages[0], 424242], time=0)
        with pytest.raises(ValidationError):
            network.like_pages_bulk(alice, pages, time=-1)

    def test_failed_batch_applies_nothing(self):
        # A rejected batch must not leave the liker sets and the like log
        # disagreeing: either every valid page before the bad one is fully
        # recorded, or none is.  We guarantee the stronger form — nothing.
        network, (alice, *_), pages = _network_with(1, 3)
        with pytest.raises(ValidationError):
            network.like_pages_bulk(alice, [pages[0], 424242, pages[1]], time=0)
        assert network.user_liked_page_ids(alice) == set()
        assert all(network.page_liker_ids(p) == [] for p in pages)
        assert len(network.likes) == 0

    def test_rejects_terminated_user(self):
        network, (alice, *_), pages = _network_with(1, 2)
        network.terminate_account(alice, time=5)
        with pytest.raises(ValidationError):
            network.like_pages_bulk(alice, pages, time=6)

    def test_like_page_many_matches_scalar(self):
        scalar_net, users, pages = _network_with(2, 5)
        bulk_net, bulk_users, bulk_pages = _network_with(2, 5)
        events = [
            (0, 0, 1), (1, 0, 1), (0, 1, 2), (0, 0, 3),  # last is a repeat
        ]
        for u, p, t in events:
            scalar_net.like_page(users[u], pages[p], time=t)
        added = bulk_net.like_page_many(
            LikeEvent(user_id=bulk_users[u], page_id=bulk_pages[p], time=t)
            for u, p, t in events
        )
        assert added == 3
        assert _like_state(scalar_net, users, pages) == _like_state(
            bulk_net, bulk_users, bulk_pages
        )


class TestRecordMany:
    def test_matches_scalar_records(self):
        scalar_log, bulk_log = LikeLog(), LikeLog()
        for page_id in (10, 11, 12):
            scalar_log.record(LikeEvent(user_id=1, page_id=page_id, time=2))
        bulk_log.record_many(1, [10, 11, 12], 2)
        for page_id in (10, 11, 12):
            assert scalar_log.for_page(page_id) == bulk_log.for_page(page_id)
        assert scalar_log.for_user(1) == bulk_log.for_user(1)
        assert len(scalar_log) == len(bulk_log) == 3

    def test_rejects_out_of_order_and_negative_time(self):
        log = LikeLog()
        log.record_many(1, [10], 5)
        with pytest.raises(ValidationError):
            log.record_many(2, [10], 4)
        with pytest.raises(ValidationError):
            log.record_many(2, [11], -1)

    def test_failed_batch_leaves_log_untouched(self):
        log = LikeLog()
        log.record_many(1, [10], 5)
        with pytest.raises(ValidationError):
            # page 11 would be fine; page 10 violates chronology
            log.record_many(2, [11, 10], 4)
        assert log.for_page(11) == ()
        assert log.for_user(2) == ()
        assert len(log) == 1


class TestRecordArrays:
    """The cohort-wide columnar append is state-identical to scalar records."""

    def test_matches_scalar_records(self):
        scalar_log, bulk_log = LikeLog(), LikeLog()
        users = np.array([7, 7, 8, 9, 9, 9], dtype=np.int64)
        pages = np.array([10, 11, 10, 12, 11, 13], dtype=np.int64)
        for user_id, page_id in zip(users.tolist(), pages.tolist()):
            scalar_log.record(LikeEvent(user_id=user_id, page_id=page_id, time=3))
        bulk_log.record_arrays(users, pages, 3)
        for page_id in (10, 11, 12, 13):
            assert scalar_log.for_page(page_id) == bulk_log.for_page(page_id)
        for user_id in (7, 8, 9):
            assert scalar_log.for_user(user_id) == bulk_log.for_user(user_id)
        assert len(scalar_log) == len(bulk_log) == 6

    def test_out_of_order_batch_raises_and_applies_nothing(self):
        log = LikeLog()
        log.record(LikeEvent(user_id=1, page_id=10, time=5))
        with pytest.raises(ValidationError):
            # page 11 would be fine; page 10 violates per-page chronology
            log.record_arrays(
                np.array([2, 2], dtype=np.int64),
                np.array([11, 10], dtype=np.int64),
                4,
            )
        assert log.for_page(11) == ()
        assert log.for_user(2) == ()
        assert len(log) == 1

    def test_equal_time_batch_accepted_below_high_water_mark(self):
        # time == a page's newest event is chronological; the vectorised
        # slow-path check (time < _max_time) must not over-reject it.
        log = LikeLog()
        log.record(LikeEvent(user_id=1, page_id=10, time=4))
        log.record(LikeEvent(user_id=1, page_id=12, time=9))
        log.record_arrays(
            np.array([2, 2], dtype=np.int64),
            np.array([10, 11], dtype=np.int64),
            4,
        )
        assert len(log) == 4
        assert [e.user_id for e in log.for_page(10)] == [1, 2]

    def test_misaligned_columns_raise_and_apply_nothing(self):
        log = LikeLog()
        log.record(LikeEvent(user_id=1, page_id=10, time=5))
        columns_before = (len(log), len(log._users), len(log._pages), len(log._times))
        with pytest.raises(ValidationError, match="3 user ids do not align with 2 page ids"):
            log.record_arrays(np.array([1, 2, 3]), np.array([10, 11]), 0)
        with pytest.raises(ValidationError, match="1 user ids do not align with 0 page ids"):
            log.record_arrays(np.array([2]), np.array([], dtype=np.int64), 6)
        assert (len(log), len(log._users), len(log._pages), len(log._times)) == columns_before
        assert log.for_user(3) == ()

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_refusals_hold_in_any_scan_chunk(self, chunk):
        # the chronology check scans the time column in chunks
        with mock.patch.object(columns, "_COMPILE_CHUNK", chunk):
            self.test_out_of_order_batch_raises_and_applies_nothing()
            self.test_equal_time_batch_accepted_below_high_water_mark()
            self.test_misaligned_columns_raise_and_apply_nothing()


class TestProfileStoreViews:
    """ProfileView reads are equivalent to the written attributes/columns."""

    def test_views_match_writes_and_columns(self):
        network = SocialNetwork()
        specs = [
            (Gender.FEMALE, 19, "US", True, "organic"),
            (Gender.MALE, 44, "IN", False, "clickworker"),
            (Gender.MALE, 31, "EG", True, "farm:X"),
            (Gender.FEMALE, 67, "US", False, "organic"),
        ]
        ids = [
            network.create_user(
                gender=g, age=a, country=c, friend_list_public=p, cohort=coh
            ).user_id
            for g, a, c, p, coh in specs
        ]
        for user_id, (g, a, c, p, coh) in zip(ids, specs):
            view = network.user(user_id)
            assert (view.gender, view.age, view.country) == (g, a, c)
            assert view.friend_list_public is p
            assert view.cohort == coh
            assert view.terminated_at is None and not view.is_terminated
        # object identity: the store caches one view per row
        assert network.user(ids[0]) is network.user(ids[0])
        # column reads agree with per-view reads
        store = network.profiles
        assert store.ages().tolist() == [a for _, a, _, _, _ in specs]
        assert [store.strings.value(c) for c in store.country_codes()] == [
            c for _, _, c, _, _ in specs
        ]
        assert store.friend_list_public_mask().tolist() == [
            p for _, _, _, p, _ in specs
        ]

    def test_termination_and_background_counts_round_trip(self):
        network = SocialNetwork()
        user = network.create_user(gender=Gender.MALE, age=25, country="TR")
        user.background_friend_count = 321
        user.background_like_count = 55
        assert user.background_friend_count == 321
        assert user.background_like_count == 55
        network.terminate_account(user.user_id, time=17)
        assert user.is_terminated
        assert user.terminated_at == 17
        assert network.profiles.alive_mask().tolist() == [False]


class TestFriendshipGraphCSR:
    """CSR graph queries match a plain dict-of-sets reference."""

    def _reference(self, edges):
        ref = {}
        for a, b in edges:
            ref.setdefault(a, set()).add(b)
            ref.setdefault(b, set()).add(a)
        return ref

    def test_queries_match_reference(self):
        network, users, _ = _network_with(40, 1)
        generator = np.random.default_rng(4821)
        pairs = set()
        while len(pairs) < 120:
            a, b = generator.integers(0, len(users), size=2).tolist()
            if a != b:
                pairs.add((min(a, b), max(a, b)))
        pairs = sorted(pairs)
        edges = [(users[a], users[b]) for a, b in pairs]
        # half through the array fast path (compiled core), half through
        # scalar adds (overlay) — queries must merge both
        half = len(edges) // 2
        network.add_friendships_arrays(
            np.array([a for a, _ in edges[:half]], dtype=np.int64),
            np.array([b for _, b in edges[:half]], dtype=np.int64),
        )
        for a, b in edges[half:]:
            network.add_friendship(a, b)
        ref = self._reference(edges)
        graph = network.graph
        assert graph.edge_count == len(edges)
        for user_id in users:
            assert graph.neighbors(user_id) == ref.get(user_id, set())
            assert graph.degree(user_id) == len(ref.get(user_id, set()))
        for a, b in edges[:20]:
            assert graph.are_friends(a, b) and graph.are_friends(b, a)
        subset = users[:15]
        expected_within = {
            (min(a, b), max(a, b))
            for a, b in edges
            if a in set(subset) and b in set(subset)
        }
        got_within = {
            (min(int(a), int(b)), max(int(a), int(b)))
            for a, b in graph.edges_within(subset)
        }
        assert got_within == expected_within
        probe = users[0]
        expected_two_hop = set()
        for n in ref.get(probe, set()):
            expected_two_hop |= ref.get(n, set())
        expected_two_hop -= ref.get(probe, set())
        expected_two_hop -= {probe}
        assert graph.two_hop_neighbors(probe) == expected_two_hop


def _test_universe() -> PageUniverse:
    base = 9_500_000
    return PageUniverse(
        global_pages=range(base, base + 40),
        regional_pages={
            "US": range(base + 40, base + 70),
            "IN": range(base + 70, base + 90),
        },
        spam_segments={
            SHARED_SPAM_KEY: range(base + 90, base + 110),
            "clickworker": range(base + 110, base + 125),
        },
        popularity_exponent=0.9,
    )


def _assert_matches_scalar(universe, seed, totals, mix, countries, spam_key):
    """The reference is one `sample_likes_array` call per user, in order."""
    batched_rng = RngStream(seed, "t")
    pages, counts = universe.sample_likes_many(
        batched_rng, totals, mix, countries, spam_key=spam_key
    )
    scalar_rng = RngStream(seed, "t")
    scalar = [
        universe.sample_likes_array(scalar_rng, total, mix, country, spam_key=spam_key)
        for total, country in zip(totals, countries)
    ]
    assert pages.dtype == np.int64
    assert counts.dtype == np.int64
    assert counts.tolist() == [arr.shape[0] for arr in scalar]
    expected = np.concatenate([np.empty(0, dtype=np.int64), *scalar])
    np.testing.assert_array_equal(pages, expected)
    assert (
        batched_rng.generator.bit_generator.state
        == scalar_rng.generator.bit_generator.state
    )


ALL_MIXES = [ORGANIC_MIX, CLICKWORKER_MIX, FARM_MIX, STEALTH_FARM_MIX]


@st.composite
def cohorts(draw):
    """0-60 users: totals past every segment size (125 pages in all),
    often repeated so groups stack, and "FR", which has no regional
    segment."""
    pool = draw(st.lists(st.integers(0, 140), min_size=1, max_size=4))
    n = draw(st.integers(0, 60))
    totals = draw(
        st.lists(
            st.one_of(st.sampled_from(pool), st.integers(0, 140)),
            min_size=n,
            max_size=n,
        )
    )
    countries = draw(
        st.lists(st.sampled_from(["US", "IN", "FR"]), min_size=n, max_size=n)
    )
    return totals, countries


class TestBatchedSamplerEquivalence:
    """sample_likes_many is draw-for-draw identical to the scalar loop."""

    CASES = [
        (ORGANIC_MIX, None),
        (CLICKWORKER_MIX, "clickworker"),
    ]

    @pytest.mark.parametrize("mix,spam_key", CASES)
    def test_bit_identical_to_scalar_loop(self, mix, spam_key):
        totals = [0, 3, 17, 30, 8, 1, 25, 12]
        countries = ["US", "IN", "US", "FR", "IN", "US", "FR", "IN"]
        _assert_matches_scalar(_test_universe(), 777, totals, mix, countries, spam_key)

    def test_chunk_boundaries_do_not_change_draws(self, monkeypatch):
        # Force many tiny chunks: per-user plans must split the uniform
        # blocks exactly where the one-big-block path would.
        universe = _test_universe()
        totals = [12, 30, 5, 22, 9, 18]
        countries = ["US", "IN", "FR", "US", "IN", "US"]
        unchunked = universe.sample_likes_many(
            RngStream(31, "c"), totals, CLICKWORKER_MIX, countries,
            spam_key="clickworker",
        )
        monkeypatch.setattr(universe_module, "_DRAW_CHUNK", 64)
        chunked = universe.sample_likes_many(
            RngStream(31, "c"), totals, CLICKWORKER_MIX, countries,
            spam_key="clickworker",
        )
        for got, expected in zip(chunked, unchunked):
            assert np.array_equal(got, expected)

    @settings(max_examples=200, deadline=None)
    @given(
        cohort=cohorts(),
        mix=st.sampled_from(ALL_MIXES),
        spam_key=st.sampled_from([None, "clickworker", "nosuchfarm"]),
        chunk=st.sampled_from([1, 7, 64, 2**18]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cohorts_match_scalar_loop(self, cohort, mix, spam_key, chunk, seed):
        totals, countries = cohort
        with mock.patch.object(universe_module, "_DRAW_CHUNK", chunk):
            _assert_matches_scalar(
                _test_universe(), seed, totals, mix, countries, spam_key
            )

    def test_rejects_negative_total_and_misaligned_countries(self):
        universe = _test_universe()
        rng = RngStream(5, "r")
        state = rng.generator.bit_generator.state
        with pytest.raises(ValidationError):
            universe.sample_likes_many(rng, [3, -1], ORGANIC_MIX, ["US", "IN"])
        with pytest.raises(ValidationError):
            universe.sample_likes_many(rng, [3, 4], ORGANIC_MIX, ["US"])
        assert rng.generator.bit_generator.state == state


class TestLikePagesFreshMany:
    """The cohort write refuses counts that do not split its page column."""

    def _network(self):
        network, users, pages = _network_with(3, 4)
        network.like_pages_fresh_many(
            users[:2], np.array(pages[:3]), np.array([2, 1]), time=0
        )
        # a scalar like materialises the page's liker set
        network.like_page(users[2], pages[3], time=1)
        return network, users, pages

    def test_splits_the_column_by_counts(self):
        network, users, pages = self._network()
        assert network.likes.user_page_ids_array(users[0]).tolist() == pages[:2]
        assert network.likes.user_page_ids_array(users[1]).tolist() == [pages[2]]
        assert network.likes.user_event_positions(users[1]).tolist() == [2]

    def test_updates_materialised_liker_sets(self):
        network, users, pages = self._network()
        added = network.like_pages_fresh_many(
            users[:2], np.array([pages[3], pages[0]]), np.array([1, 1]), time=2
        )
        assert added == 2
        assert network._liker_sets[pages[3]] == {users[2], users[0]}
        assert network.page_liker_ids(pages[3]) == [users[2], users[0]]
        assert network.page_liker_ids(pages[0]) == [users[0], users[1]]

    @pytest.mark.parametrize(
        "page_rows,counts",
        [
            pytest.param([3, 0], [1, 1], id="three-users-two-counts"),
            pytest.param([3, 0, 1], [1, 1, 2], id="counts-sum-past-pages"),
            pytest.param([3, 0, 1], [1, 1, 0], id="counts-sum-short-of-pages"),
            pytest.param([3, 0, 1], [2, -1, 2], id="negative-count"),
        ],
    )
    def test_misaligned_write_changes_nothing(self, page_rows, counts):
        network, users, pages = self._network()
        before = len(network.likes)
        likers = set(network._liker_sets[pages[3]])
        with pytest.raises(ValidationError):
            network.like_pages_fresh_many(
                users,
                np.array([pages[row] for row in page_rows]),
                np.array(counts),
                time=2,
            )
        assert len(network.likes) == before
        assert network._liker_sets[pages[3]] == likers
        assert network.page_liker_ids(pages[3]) == [users[2]]


class TestAddFriendshipsBulk:
    def test_matches_scalar_loop(self):
        scalar_net, users, _ = _network_with(6, 1)
        bulk_net, bulk_users, _ = _network_with(6, 1)
        pairs = [(0, 1), (1, 2), (0, 1), (3, 4), (2, 0)]
        for a, b in pairs:
            scalar_net.add_friendship(users[a], users[b])
        added = bulk_net.add_friendships_bulk(
            (bulk_users[a], bulk_users[b]) for a, b in pairs
        )
        assert added == 4  # one duplicate pair
        assert scalar_net.graph.edge_count == bulk_net.graph.edge_count
        # both networks allocate identical user ids, so edges compare directly
        for user_id in users:
            assert scalar_net.graph.neighbors(user_id) == bulk_net.graph.neighbors(
                user_id
            )

    def test_rejects_self_loops_and_unknown_users(self):
        network, users, _ = _network_with(2, 1)
        with pytest.raises(ValidationError):
            network.add_friendships_bulk([(users[0], users[0])])
        with pytest.raises(ValidationError):
            network.add_friendships_bulk([(users[0], 999999)])

    def test_failed_batch_adds_no_edges(self):
        network, users, _ = _network_with(3, 1)
        with pytest.raises(ValidationError):
            network.add_friendships_bulk(
                [(users[0], users[1]), (users[2], users[2])]
            )
        assert network.graph.edge_count == 0
        assert all(network.graph.neighbors(u) == set() for u in users)


def _scalar_like_pages_bulk(self, user_id, page_ids, time):
    """The pre-batching write path: one `like_page` call per page."""
    added = 0
    for page_id in page_ids:
        if self.like_page(user_id, page_id, time):
            added += 1
    return added


def _scalar_add_friendships_bulk(self, pairs):
    before = self.graph.edge_count
    for a, b in pairs:
        self.add_friendship(a, b)
    return self.graph.edge_count - before


def _scalar_like_pages_fresh(self, user_id, page_ids, time):
    """The pre-columnar fresh path: one `like_page` call per page."""
    added = 0
    for page_id in np.asarray(page_ids, dtype=np.int64).tolist():
        if self.like_page(user_id, page_id, time):
            added += 1
    return added


def _scalar_like_pages_fresh_many(self, user_ids, pages, counts, time):
    """The pre-cohort-batching path: one `like_pages_fresh` per user.

    Splits the page column at the counts' running sums and dispatches
    through ``self`` so the (also monkeypatched) per-user scalar
    fallback runs underneath — the study then writes every like through
    `like_page`, the fully scalar path.
    """
    assert len(counts) == len(user_ids)
    total = 0
    for user_id, user_pages in zip(user_ids, np.split(pages, np.cumsum(counts)[:-1])):
        total += self.like_pages_fresh(user_id, user_pages, time)
    return total


def _scalar_add_friendships_arrays(self, a, b):
    before = self.graph.edge_count
    for x, y in zip(np.asarray(a).tolist(), np.asarray(b).tolist()):
        self.add_friendship(x, y)
    return self.graph.edge_count - before


def _study_fingerprint(config: StudyConfig) -> dict:
    artifacts = HoneypotStudy(config).run()
    network = artifacts.network
    return {
        "like_counts": {
            campaign_id: record.total_likes
            for campaign_id, record in artifacts.dataset.campaigns.items()
        },
        "liker_ids": {
            campaign_id: sorted(obs.user_id for obs in record.observations)
            for campaign_id, record in artifacts.dataset.campaigns.items()
        },
        "edge_count": network.graph.edge_count,
        "like_events": len(network.likes),
        "baseline_ids": sorted(record.user_id for record in artifacts.dataset.baseline),
    }


class TestSeededStudyEquivalence:
    """A seeded small study is identical via the scalar and bulk write paths."""

    def test_dataset_identical(self, monkeypatch):
        config = StudyConfig.small(seed=991)
        bulk = _study_fingerprint(config)
        # Swap out every batch/columnar write entry point the generators
        # use — cohort-wide like appends, per-user fresh likes, and array
        # edge wiring all collapse to per-item scalar calls.
        monkeypatch.setattr(SocialNetwork, "like_pages_bulk", _scalar_like_pages_bulk)
        monkeypatch.setattr(
            SocialNetwork, "add_friendships_bulk", _scalar_add_friendships_bulk
        )
        monkeypatch.setattr(
            SocialNetwork, "like_pages_fresh", _scalar_like_pages_fresh
        )
        monkeypatch.setattr(
            SocialNetwork, "like_pages_fresh_many", _scalar_like_pages_fresh_many
        )
        monkeypatch.setattr(
            SocialNetwork, "add_friendships_arrays", _scalar_add_friendships_arrays
        )
        scalar = _study_fingerprint(config)
        assert scalar == bulk
