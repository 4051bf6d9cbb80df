"""Scalar-vs-batch equivalence for the OSN write paths.

The batch write paths production runs (`SocialNetwork.like_pages_fresh_many`
over `LikeLog.record_arrays`, and `SocialNetwork.add_friendships_arrays`)
exist purely for speed; their contract is that final network state is
identical to looping the scalar calls (`like_page`, `LikeLog.record`,
`add_friendship`) in the same order, and that a refused batch writes
nothing.  These tests pin that contract at the unit level and end-to-end:
a seeded small study must produce the identical dataset whether the
generators write through the batch paths or through per-item scalar calls.
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
from tests.osn.test_cohort_passes import swap_in_scalar_references


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

    def test_negative_time_raises_and_applies_nothing(self):
        log = LikeLog()
        log.record(LikeEvent(user_id=1, page_id=10, time=5))
        with pytest.raises(ValidationError, match="like time must be >= 0"):
            log.record_arrays(
                np.array([2, 2], dtype=np.int64),
                np.array([11, 12], dtype=np.int64),
                -1,
            )
        assert log.for_user(2) == ()
        assert len(log) == 1

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
            self.test_negative_time_raises_and_applies_nothing()
            self.test_equal_time_batch_accepted_below_high_water_mark()
            self.test_misaligned_columns_raise_and_apply_nothing()


def _log_state(log: LikeLog, users, pages) -> tuple:
    return (
        [log.for_page(p) for p in pages],
        [log.for_user(u) for u in users],
        [log.page_like_times(p) for p in pages],
        len(log),
    )


class TestRecordMany:
    """Many `record_arrays` batches into one log, read between batches,
    land like a scalar `record` loop over the same events."""

    # (users, pages, time) in arrival order; the second time-4 batch
    # repeats page 10's newest time
    BATCHES = [
        ([1, 1, 2], [10, 11, 12], 2),
        ([3], [10], 4),
        ([1, 4, 4, 2], [13, 10, 12, 11], 4),
        ([5, 5], [11, 14], 7),
    ]
    USERS = (1, 2, 3, 4, 5, 6)
    PAGES = (10, 11, 12, 13, 14)

    @staticmethod
    def _append(log, users, pages, time):
        log.record_arrays(
            np.array(users, dtype=np.int64), np.array(pages, dtype=np.int64), time
        )

    def test_matches_scalar_records(self):
        scalar_log, batch_log = LikeLog(), LikeLog()
        for users, pages, time in self.BATCHES:
            for user_id, page_id in zip(users, pages):
                scalar_log.record(LikeEvent(user_id=user_id, page_id=page_id, time=time))
            self._append(batch_log, users, pages, time)
            # the reads build the lazy indexes the next batch extends
            assert _log_state(batch_log, self.USERS, self.PAGES) == _log_state(
                scalar_log, self.USERS, self.PAGES
            )

    def test_failed_batch_leaves_log_untouched(self):
        log = LikeLog()
        for batch in self.BATCHES:
            self._append(log, *batch)
        before = _log_state(log, self.USERS, self.PAGES)
        with pytest.raises(ValidationError):
            # page 14 would be fine at time 5; page 11 holds a time-7 event
            self._append(log, [6, 6], [14, 11], 5)
        assert _log_state(log, self.USERS, self.PAGES) == before
        # the refused batch left nothing behind that the next one trips on
        self._append(log, [6, 6], [14, 11], 7)
        assert log.for_user(6) == (
            LikeEvent(user_id=6, page_id=14, time=7),
            LikeEvent(user_id=6, page_id=11, time=7),
        )
        assert len(log) == before[-1] + 2


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
        # half through the array path, half through scalar adds: both
        # only append, and the first query compiles them together
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
    """The cohort write lands like a `like_page` loop, or not at all."""

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

    def test_matches_like_page_loop(self):
        scalar_net, users, pages = _network_with(3, 10)
        cohort_net, _, _ = _network_with(3, 10)
        # both networks allocate identical ids; a scalar like on each
        # materialises a liker set the cohort write must extend
        for network in (scalar_net, cohort_net):
            network.like_page(users[2], pages[1], time=1)
        batches = [pages[0:6], pages[3:9], pages[2:10:2]]
        for user_id, batch in zip(users, batches):
            for page_id in batch:
                assert scalar_net.like_page(user_id, page_id, time=4)
        added = cohort_net.like_pages_fresh_many(
            users, np.concatenate(batches), [len(b) for b in batches], time=4
        )
        assert added == sum(len(b) for b in batches)
        assert _like_state(cohort_net, users, pages) == _like_state(
            scalar_net, users, pages
        )
        assert not cohort_net.like_page(users[0], pages[1], time=5)

    @pytest.mark.parametrize(
        "page_rows,counts,time,user",
        [
            pytest.param([3, 0], [1, 1], 2, None, id="three-users-two-counts"),
            pytest.param([3, 0, 1], [1, 1, 2], 2, None, id="counts-sum-past-pages"),
            pytest.param([3, 0, 1], [1, 1, 0], 2, None, id="short-counts-sum"),
            pytest.param([3, 0, 1], [2, -1, 2], 2, None, id="negative-count"),
            pytest.param([3, 424242, 1], [1, 1, 1], 2, None, id="unknown-page"),
            pytest.param([3, 0, 1], [1, 1, 1], -1, None, id="time-below-zero"),
            pytest.param([3, 0, 1], [1, 1, 1], 2**31, None, id="int32-overflow-time"),
            pytest.param([3, 0, 1], [1, 1, 1], 2, "unknown", id="user-unknown"),
            pytest.param([3, 0, 1], [1, 1, 1], 2, "terminated", id="terminated-user"),
        ],
    )
    def test_misaligned_write_changes_nothing(self, page_rows, counts, time, user):
        # without the spoiled part, the write [3, 0, 1] / [1, 1, 1] at
        # time 2 is valid: every (user, page) pair is fresh
        network, users, pages = self._network()
        if user == "unknown":
            users = [users[0], 999_999, users[2]]
        elif user == "terminated":
            network.terminate_account(users[1], time=2)
        before = len(network.likes)
        likers = set(network._liker_sets[pages[3]])
        # a row past the four pages is a page id no page has
        page_ids = [pages[row] if row < len(pages) else row for row in page_rows]
        with pytest.raises(ValidationError):
            network.like_pages_fresh_many(
                users, np.array(page_ids), np.array(counts), time=time
            )
        assert len(network.likes) == before
        assert network._liker_sets[pages[3]] == likers
        assert network.page_liker_ids(pages[3]) == [users[2]]


def _add_pairs(network: SocialNetwork, pairs) -> None:
    network.add_friendships_arrays(
        np.array([a for a, _ in pairs], dtype=np.int64),
        np.array([b for _, b in pairs], dtype=np.int64),
    )


class TestAddFriendshipsBulk:
    """The batch friendship write, `add_friendships_arrays`."""

    def test_matches_scalar_loop(self):
        scalar_net, users, _ = _network_with(6, 1)
        bulk_net, bulk_users, _ = _network_with(6, 1)
        pairs = [(0, 1), (1, 2), (0, 1), (3, 4), (2, 0)]
        for a, b in pairs:
            scalar_net.add_friendship(users[a], users[b])
        _add_pairs(bulk_net, [(bulk_users[a], bulk_users[b]) for a, b in pairs])
        assert bulk_net.graph.edge_count == 4  # one duplicate pair
        assert scalar_net.graph.edge_count == bulk_net.graph.edge_count
        # both networks allocate identical user ids, so edges compare directly
        for user_id in users:
            assert scalar_net.graph.neighbors(user_id) == bulk_net.graph.neighbors(
                user_id
            )

    def test_rejects_self_loops_and_unknown_users(self):
        network, users, _ = _network_with(2, 1)
        with pytest.raises(ValidationError):
            _add_pairs(network, [(users[0], users[0])])
        with pytest.raises(ValidationError):
            _add_pairs(network, [(users[0], 999999)])

    def test_failed_batch_adds_no_edges(self):
        network, users, _ = _network_with(3, 1)
        with pytest.raises(ValidationError):
            _add_pairs(network, [(users[0], users[1]), (users[2], users[2])])
        with pytest.raises(ValidationError):
            _add_pairs(network, [(users[0], users[1]), (users[2], 999999)])
        assert network.graph.edge_count == 0
        assert all(network.graph.neighbors(u) == set() for u in users)


def _scalar_like_pages_fresh_many(self, user_ids, pages, counts, time):
    """The pre-batching path: one `like_page` call per (user, page)."""
    users = np.repeat(np.asarray(user_ids, dtype=np.int64), counts)
    added = 0
    for user_id, page_id in zip(users.tolist(), np.asarray(pages).tolist()):
        if self.like_page(user_id, page_id, time):
            added += 1
    return added


def _scalar_add_friendships_arrays(self, a, b):
    """The pre-batching path: one `add_friendship` call per pair."""
    for x, y in zip(np.asarray(a).tolist(), np.asarray(b).tolist()):
        self.add_friendship(x, y)


def _study_fingerprint(config: StudyConfig, path) -> dict:
    artifacts = HoneypotStudy(config).run()
    network = artifacts.network
    artifacts.dataset.to_jsonl(path)
    return {
        "dataset_bytes": path.read_bytes(),
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
    """A seeded small study is identical via the scalar and batch write paths."""

    def test_dataset_identical(self, monkeypatch, tmp_path):
        config = StudyConfig.small(seed=991)
        bulk = _study_fingerprint(config, tmp_path / "bulk.jsonl")
        # Swap out both batch write entry points the generators use —
        # cohort-wide like appends and array edge wiring collapse to
        # per-item `like_page` and `add_friendship` calls — and every
        # columnar cohort pass for the per-account loop it replaced.
        monkeypatch.setattr(
            SocialNetwork, "like_pages_fresh_many", _scalar_like_pages_fresh_many
        )
        monkeypatch.setattr(
            SocialNetwork, "add_friendships_arrays", _scalar_add_friendships_arrays
        )
        swap_in_scalar_references(monkeypatch)
        scalar = _study_fingerprint(config, tmp_path / "scalar.jsonl")
        assert scalar == bulk
