"""The crawl scope: every profile endpoint answered from one columnar read.

``PlatformAPI.crawl_scope`` reads the crawlable fields of many users at
once (``repro.osn.profileread``), and a request outside any scope reads
its one user the same way.  These tests pin the scoped answers against
one-user answers and against ground truth computed here from the
network's own records, the many-key index lookup and the segment sort
the read rests on, the scope's guards (a write inside it, an exception
through it, nesting, a barrier), and that each crawl loop of the small
study runs inside exactly one scope.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.honeypot.crawler import ProfileCrawler
from repro.honeypot.study import HoneypotStudy, StudyConfig
from repro.osn.api import CrawlScopeError, PlatformAPI, PublicProfile
from repro.osn import columns
from repro.osn.columns import ColumnIndex, sort_segments
from repro.osn.events import LikeLog
from repro.osn.faults import FaultProfile, FaultyPlatformAPI
from repro.osn.graph import FriendshipGraph
from repro.osn.network import SocialNetwork
from repro.osn.population import PopulationConfig, WorldBuilder
from repro.osn.profile import Gender
from repro.osn.resilient import ResilientAPI, RetryPolicy
from repro.util.rng import RngStream

ENDPOINTS = (
    "get_profile",
    "get_friend_list",
    "get_declared_friend_count",
    "get_page_likes",
    "get_declared_like_count",
)

UNKNOWN = 424242


def crawled_world():
    """A small world holding one user of every case the read must answer."""
    network = SocialNetwork()
    WorldBuilder(PopulationConfig.small()).build(network, RngStream(5, "world"))
    profiles = network.profiles
    users = profiles.user_ids().tolist()
    degree = {u: network.graph.degree(u) for u in users}
    public = profiles.friend_list_public_mask()
    befriended = [u for u in users if degree[u] > 0]
    cases = {
        "public": next(u for u in befriended if public[u - profiles.id_base]),
        "private": next(u for u in befriended if not public[u - profiles.id_base]),
    }
    rest = [u for u in befriended if u not in cases.values()]
    cases["purged"], cases["terminated"], cases["unliker"], cases["late"] = rest[:4]
    for user_id in cases.values():
        network.user(user_id).background_friend_count = 7
        network.user(user_id).background_like_count = 11
    # likes after the build land in the user index's tail
    page = network.create_page("honeypot").page_id
    for time, user_id in enumerate(users[::9] + [cases["late"], cases["unliker"]]):
        network.like_page(user_id, page, time=10 + time)
    # an unlike, an unlike then a re-like, and a purged and a kept termination
    first, second = sorted(network.user_liked_page_ids(cases["unliker"]))[:2]
    network.remove_like(cases["unliker"], first, time=50)
    network.remove_like(cases["unliker"], second, time=51)
    network.like_page(cases["unliker"], second, time=52)
    network.terminate_account(cases["purged"], time=60, purge_likes=True)
    network.terminate_account(cases["terminated"], time=61, purge_likes=False)
    cases["unknown"] = UNKNOWN
    return network, cases


def ground_truth(network, user_id):
    """Every endpoint's answer, from the network's records, not the read."""
    if not network.has_user(user_id) or network.user(user_id).is_terminated:
        return dict.fromkeys(ENDPOINTS)
    profile = network.user(user_id)
    friends = sorted(network.graph.neighbors(user_id))
    liked = Counter(event.page_id for event in network.likes.for_user(user_id))
    liked.subtract(Counter(e.page_id for e in network.likes.removals_for_user(user_id)))
    pages = sorted(page for page, count in liked.items() if count > 0)
    visible = profile.friend_list_public
    return {
        "get_profile": PublicProfile(
            user_id=user_id,
            gender=profile.gender.value,
            age_bracket=profile.age_bracket,
            country=profile.country,
            friend_list_public=visible,
        ),
        "get_friend_list": friends if visible else None,
        "get_declared_friend_count": (
            len(friends) + profile.background_friend_count if visible else None
        ),
        "get_page_likes": pages,
        "get_declared_like_count": len(pages) + profile.background_like_count,
    }


def answers(api, user_id):
    """Every endpoint's answer; int32 arrays become lists so they compare."""
    result = {}
    for name in ENDPOINTS:
        value = getattr(api, name)(user_id)
        if isinstance(value, np.ndarray):
            assert value.dtype == np.int32, name
            value = value.tolist()
        result[name] = value
    return result


class TestScopedReads:
    @pytest.fixture(scope="class")
    def world(self):
        return crawled_world()

    def test_cases_are_what_they_claim(self, world):
        network, cases = world
        assert network.likes.user_removal_count(cases["unliker"]) == 2
        assert network.likes.user_removal_count(cases["purged"]) > 0
        assert network.likes.user_removal_count(cases["terminated"]) == 0
        assert not network.user(cases["private"]).friend_list_public
        assert not network.has_user(cases["unknown"])
        # the late likes sit in the user index's tail buckets
        api = PlatformAPI(network)
        api.get_page_likes(cases["late"])
        index = network.likes._user_index
        assert index._prefix_sorted and cases["late"] in index._tail_map

    @pytest.mark.parametrize(
        "case", ["public", "private", "purged", "terminated", "unliker", "late", "unknown"]
    )
    def test_scoped_equals_one_user_equals_truth(self, world, case):
        network, cases = world
        user_id = cases[case]
        truth = ground_truth(network, user_id)
        one_user = answers(PlatformAPI(network), user_id)
        api = PlatformAPI(network)
        everyone = network.profiles.user_ids().tolist() + [UNKNOWN]
        with api.crawl_scope(everyone):
            scoped = answers(api, user_id)
        assert scoped == one_user == truth
        assert api.stats.as_dict() == PlatformAPI(network).stats.as_dict() | {
            "profile": 1, "friend_list": 2, "page_likes": 2
        }

    def test_every_user_in_one_scope(self, world):
        network, _ = world
        everyone = network.profiles.user_ids().tolist()
        api = PlatformAPI(network)
        with api.crawl_scope(everyone[::-1]):
            scoped = [answers(api, user_id) for user_id in everyone]
        assert scoped == [ground_truth(network, user_id) for user_id in everyone]
        assert api.stats.total == 5 * len(everyone)

    def test_page_chunks_stay_bounded(self, world, monkeypatch):
        network, _ = world
        monkeypatch.setattr(columns, "_COMPILE_CHUNK", 300)
        chunks = []
        real = LikeLog.user_page_ids_many

        def recorded(self, user_ids):
            pages, offsets = real(self, user_ids)
            chunks.append((len(user_ids), pages.shape[0]))
            return pages, offsets

        monkeypatch.setattr(LikeLog, "user_page_ids_many", recorded)
        everyone = network.profiles.user_ids().tolist()
        api = PlatformAPI(network)
        with api.crawl_scope(everyone):
            pages = [api.get_page_likes(user_id) for user_id in everyone]
        assert [None if ids is None else ids.tolist() for ids in pages] == [
            ground_truth(network, user_id)["get_page_likes"] for user_id in everyone
        ]
        # read in order, every user is read once, in chunks of at most
        # 300 page ids unless one user holds more
        assert len(chunks) > 10
        assert sum(users for users, _ in chunks) == len(everyone)
        assert all(users == 1 or ids <= 300 for users, ids in chunks)

    @pytest.mark.parametrize(
        "name, case", [("get_friend_list", "public"), ("get_page_likes", "late")]
    )
    def test_lists_are_fresh_arrays(self, world, name, case):
        network, cases = world
        api = PlatformAPI(network)
        user_id = cases[case]
        with api.crawl_scope([user_id]):
            first = getattr(api, name)(user_id)
            assert first.size and first.base is None and first.flags.writeable
            first[:] = -1
            assert getattr(api, name)(user_id).min() > 0

    def test_a_user_outside_the_scope_reads_alone(self, world):
        network, cases = world
        api = PlatformAPI(network)
        with api.crawl_scope([cases["public"]]):
            assert answers(api, cases["late"]) == ground_truth(network, cases["late"])


class TestManyKeyLookup:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_prefix=st.integers(0, 3000),
        n_tail=st.integers(0, 1500),
        sorted_prefix=st.booleans(),
        n_keys=st.integers(0, 50),
        warm=st.booleans(),
    )
    def test_equals_stacked_scalar_positions(
        self, seed, n_prefix, n_tail, sorted_prefix, n_keys, warm
    ):
        gen = RngStream(seed).generator
        prefix = gen.integers(-40, 40, n_prefix).astype(np.int32)
        if sorted_prefix:
            prefix.sort()
        column = np.concatenate([prefix, gen.integers(-50, 50, n_tail).astype(np.int32)])
        index = ColumnIndex()
        index.ensure(prefix)
        if warm:
            index.positions(0, prefix)
        keys = gen.integers(-60, 60, n_keys)
        positions, offsets = index.positions_many(keys, column)
        assert positions.dtype == np.int32 and offsets[0] == 0
        assert offsets[-1] == positions.shape[0]
        for i, key in enumerate(keys.tolist()):
            stacked = positions[offsets[i] : offsets[i + 1]].tolist()
            assert stacked == index.positions(key, column).tolist()
            assert stacked == np.flatnonzero(column == key).tolist()
        assert index.counts_many(keys, column).tolist() == [
            index.count(key, column) for key in keys.tolist()
        ]


class TestSegmentSort:
    @settings(max_examples=80, deadline=None)
    @given(
        segments=st.lists(
            st.lists(st.integers(-(2**31), 2**31 - 1), max_size=30), max_size=30
        )
    )
    def test_equals_per_segment_sort(self, segments):
        values = np.array([v for segment in segments for v in segment], dtype=np.int32)
        offsets = np.zeros(len(segments) + 1, dtype=np.int64)
        np.cumsum([len(segment) for segment in segments], out=offsets[1:])
        sort_segments(values, offsets)
        assert [
            values[offsets[i] : offsets[i + 1]].tolist() for i in range(len(segments))
        ] == [sorted(segment) for segment in segments]


class TestNeighborSlices:
    def test_slices_equal_neighbor_arrays(self):
        network, _ = crawled_world()
        graph = network.graph
        ids = np.array(network.profiles.user_ids().tolist() + [UNKNOWN, -3], dtype=np.int64)
        neighbors, starts, stops = graph.neighbor_slices(ids)
        for user_id, start, stop in zip(ids.tolist(), starts.tolist(), stops.tolist()):
            assert neighbors[start:stop].tolist() == graph.neighbor_array(user_id).tolist()

    def test_empty_graph(self):
        neighbors, starts, stops = FriendshipGraph().neighbor_slices(np.array([1, 2]))
        assert neighbors.size == 0
        assert starts.tolist() == stops.tolist() == [0, 0]


def small_network():
    network = SocialNetwork()
    users = [
        network.create_user(gender=Gender.FEMALE, age=22, country="US").user_id
        for _ in range(4)
    ]
    network.add_friendship(users[0], users[1])
    page = network.create_page("P").page_id
    network.like_page(users[0], page, time=0)
    return network, users, page


WRITES = {
    "like": lambda net, users, page: net.like_page(users[2], page, time=1),
    "unlike": lambda net, users, page: net.remove_like(users[0], page, time=1),
    "friendship": lambda net, users, page: net.add_friendship(users[2], users[3]),
    "account": lambda net, users, page: net.create_user(
        gender=Gender.MALE, age=30, country="IN"
    ),
    "termination": lambda net, users, page: net.terminate_account(users[3], time=1),
}


class TestScopeGuards:
    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_a_write_inside_raises_on_exit(self, write):
        network, users, page = small_network()
        api = PlatformAPI(network)
        with pytest.raises(CrawlScopeError, match="written inside"):
            with api.crawl_scope(users):
                api.get_page_likes(users[0])
                WRITES[write](network, users, page)
        assert not api.in_crawl_scope

    def test_an_exception_drops_the_read_and_goes_through(self):
        network, users, page = small_network()
        api = PlatformAPI(network)

        class Boom(Exception):
            pass

        with pytest.raises(Boom):
            with api.crawl_scope(users):
                WRITES["like"](network, users, page)  # the write check must not mask it
                raise Boom()
        assert not api.in_crawl_scope
        with api.crawl_scope(users):
            assert api.get_page_likes(users[2]).tolist() == [int(page)]

    def test_scopes_do_not_nest(self):
        network, users, _ = small_network()
        api = PlatformAPI(network)
        with api.crawl_scope(users[:2]):
            with pytest.raises(CrawlScopeError, match="nest"):
                with api.crawl_scope(users):
                    pass
            assert api.in_crawl_scope
            assert api.get_friend_list(users[0]).tolist() == [users[1]]
        assert not api.in_crawl_scope

    def test_a_barrier_refuses_an_open_scope(self):
        study = HoneypotStudy(StudyConfig.small(seed=3))
        components = study.build_world()
        some = components.network.profiles.user_ids()[:5].tolist()
        with components.api.crawl_scope(some):
            with pytest.raises(CrawlScopeError, match="collect barrier"):
                study._checkpoint(None, components, "collect")
        study._checkpoint(None, components, "collect")


def fault_stack(network, seed):
    api = PlatformAPI(network)
    faulty = FaultyPlatformAPI(api, FaultProfile.default(), RngStream(seed, "faults"))
    return api, ResilientAPI(faulty, RetryPolicy(), RngStream(seed, "backoff"))


class TestFaultStackForwarding:
    def test_opening_a_scope_draws_charges_and_trips_nothing(self):
        network, cases = crawled_world()
        api, resilient = fault_stack(network, 9)
        before = resilient.state_dict(), resilient._inner._rng.state_dict()
        with resilient.crawl_scope(sorted(v for v in cases.values())):
            assert api.in_crawl_scope
            assert (resilient.state_dict(), resilient._inner._rng.state_dict()) == before
            assert api.stats.total == 0
        assert resilient._breakers == {}

    def test_same_draws_retries_and_answers_inside_a_scope(self):
        network, cases = crawled_world()
        users = network.profiles.user_ids().tolist()[:300] + [UNKNOWN]
        plain_api, plain = fault_stack(network, 4)
        scoped_api, scoped = fault_stack(network, 4)

        def crawl(endpoints):
            out = []
            for user_id in users:
                for name in ENDPOINTS:
                    try:
                        value = getattr(endpoints, name)(user_id)
                    except Exception as fault:  # noqa: BLE001 - compared by type
                        value = type(fault).__name__
                    out.append(value.tolist() if isinstance(value, np.ndarray) else value)
            return out

        expected = crawl(plain)
        with scoped.crawl_scope(users):
            assert crawl(scoped) == expected
        assert scoped_api.stats == plain_api.stats
        assert scoped_api.stats.retries > 0 and scoped_api.stats.truncated > 0
        assert scoped.state_dict() == plain.state_dict()


def test_each_crawl_call_opens_one_scope(monkeypatch):
    events = []
    real_scope = PlatformAPI.crawl_scope

    def counted_scope(self, user_ids):
        events.append("scope")
        return real_scope(self, user_ids)

    monkeypatch.setattr(PlatformAPI, "crawl_scope", counted_scope)
    for name in ("crawl_likers", "crawl_baseline", "recheck_terminations"):
        real = getattr(ProfileCrawler, name)

        def counted_call(self, *args, _name=name, _real=real, **kwargs):
            events.append(_name)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(ProfileCrawler, name, counted_call)
    artifacts = HoneypotStudy(StudyConfig.small()).run()
    calls = [event for event in events if event != "scope"]
    assert events == [item for call in calls for item in (call, "scope")]
    assert calls.count("crawl_likers") == calls.count("crawl_baseline") == 1
    assert calls.count("recheck_terminations") == len(artifacts.monitors)


def test_removed_like_counts_equal_the_removal_scan(small_artifacts):
    likes = small_artifacts.network.likes
    counts = {
        campaign_id: record.removed_like_count
        for campaign_id, record in small_artifacts.dataset.campaigns.items()
    }
    assert counts == {
        campaign_id: len(likes.removal_records_for_page(page_id))
        for campaign_id, page_id in small_artifacts.page_ids.items()
    }
    assert sum(counts.values()) > 0
