"""Tests for repro.honeypot.crawler."""

import pytest

from repro.honeypot.crawler import ProfileCrawler
from repro.osn.api import PlatformAPI
from repro.osn.faults import EndpointUnavailable, FaultProfile, FaultyPlatformAPI
from repro.osn.network import SocialNetwork
from repro.osn.profile import Gender
from repro.util.rng import RngStream


@pytest.fixture()
def net():
    network = SocialNetwork()
    return network


def make_user(net, public=True, **kwargs):
    defaults = dict(gender=Gender.FEMALE, age=22, country="US",
                    friend_list_public=public)
    defaults.update(kwargs)
    return net.create_user(**defaults)


class TestCrawlLiker:
    def test_public_profile_fully_crawled(self, net):
        user = make_user(net, public=True)
        friend = make_user(net)
        net.add_friendship(user.user_id, friend.user_id)
        user.background_friend_count = 10
        page = net.create_page("P")
        net.like_page(user.user_id, page.page_id, time=0)
        user.background_like_count = 99

        record = ProfileCrawler(net).crawl_liker(user.user_id, ["C1"])
        assert record.friend_list_public
        assert record.visible_friend_ids.tolist() == [friend.user_id]
        assert record.declared_friend_count == 11
        assert record.liked_page_ids.tolist() == [page.page_id]
        assert record.declared_like_count == 100
        assert record.campaign_ids == ["C1"]
        assert record.gender == "F"
        assert record.age_bracket == "18-24"

    def test_private_friend_list_censored(self, net):
        user = make_user(net, public=False)
        friend = make_user(net)
        net.add_friendship(user.user_id, friend.user_id)
        record = ProfileCrawler(net).crawl_liker(user.user_id, [])
        assert not record.friend_list_public
        assert record.visible_friend_ids.tolist() == []
        assert record.declared_friend_count is None
        # demographics still available via the insights reports
        assert record.country == "US"

    def test_page_likes_still_visible_when_friends_private(self, net):
        user = make_user(net, public=False)
        page = net.create_page("P")
        net.like_page(user.user_id, page.page_id, time=0)
        record = ProfileCrawler(net).crawl_liker(user.user_id, [])
        assert record.liked_page_ids.tolist() == [page.page_id]

    def test_crawl_likers_batch(self, net):
        users = [make_user(net) for _ in range(3)]
        mapping = {u.user_id: ["C1"] for u in users}
        records = ProfileCrawler(net).crawl_likers(mapping)
        assert set(records) == {u.user_id for u in users}


class TestBaseline:
    def test_baseline_only_searchable(self, net):
        for _ in range(20):
            make_user(net, searchable=True)
        hidden = make_user(net, searchable=False)
        records = ProfileCrawler(net).crawl_baseline(RngStream(1), 20)
        assert hidden.user_id not in {r.user_id for r in records}
        assert len(records) == 20

    def test_baseline_caps_at_directory_size(self, net):
        for _ in range(5):
            make_user(net)
        records = ProfileCrawler(net).crawl_baseline(RngStream(1), 100)
        assert len(records) == 5


class TestTerminationRecheck:
    def test_only_terminated_reported(self, net):
        alive = make_user(net)
        dead = make_user(net)
        net.terminate_account(dead.user_id, time=5)
        crawler = ProfileCrawler(net)
        result = crawler.recheck_terminations([alive.user_id, dead.user_id])
        assert result == [dead.user_id]


class BrokenEndpointsAPI:
    """A real PlatformAPI with selected endpoints permanently failing."""

    def __init__(self, network, broken=()):
        self._inner = PlatformAPI(network)
        self._broken = set(broken)

    def __getattr__(self, name):
        if name in self._broken:
            def fail(*args, **kwargs):
                raise EndpointUnavailable(name)
            return fail
        return getattr(self._inner, name)


class TestGracefulDegradation:
    def test_complete_crawl_is_marked_complete(self, net):
        user = make_user(net)
        record = ProfileCrawler(net).crawl_liker(user.user_id, ["C1"])
        assert record.crawl_status == "complete"
        assert record.failed_fields == []
        assert record.has_friend_data and record.has_like_data

    def test_failed_friend_endpoints_yield_partial_record(self, net):
        user = make_user(net, public=True)
        friend = make_user(net)
        net.add_friendship(user.user_id, friend.user_id)
        page = net.create_page("P")
        net.like_page(user.user_id, page.page_id, time=0)
        api = BrokenEndpointsAPI(
            net, broken={"get_friend_list", "get_declared_friend_count"}
        )
        record = ProfileCrawler(net, api=api).crawl_liker(user.user_id, ["C1"])
        assert record.crawl_status == "partial"
        assert record.failed_fields == ["friends"]
        assert not record.has_friend_data
        assert not record.friend_list_public  # unknown, not claimed public
        assert record.visible_friend_ids.tolist() == []
        assert record.declared_friend_count is None
        # the like crawl still succeeded
        assert record.has_like_data
        assert record.liked_page_ids.tolist() == [page.page_id]
        # demographics always survive: they come from the insights view
        assert record.gender == "F" and record.country == "US"

    def test_all_user_endpoints_failing_still_yields_a_record(self, net):
        user = make_user(net)
        api = FaultyPlatformAPI(
            PlatformAPI(net),
            FaultProfile(profile_permafail_rate=1.0),
            RngStream(3, "faults"),
        )
        record = ProfileCrawler(net, api=api).crawl_liker(user.user_id, ["C1"])
        assert record.crawl_status == "partial"
        assert record.failed_fields == ["friends", "likes"]
        assert record.campaign_ids == ["C1"]
        assert record.age_bracket == "18-24"

    def test_baseline_drops_uncrawlable_users(self, net):
        for _ in range(10):
            make_user(net)
        api = BrokenEndpointsAPI(net, broken={"get_declared_like_count"})
        records = ProfileCrawler(net, api=api).crawl_baseline(RngStream(1), 10)
        assert records == []  # dropped, not recorded as fake zeros

    def test_recheck_counts_unreachable_profiles_as_alive(self, net):
        dead = make_user(net)
        net.terminate_account(dead.user_id, time=5)
        api = BrokenEndpointsAPI(net, broken={"get_profile"})
        crawler = ProfileCrawler(net, api=api)
        # even a genuinely dead profile is not reported when the crawl
        # itself fails: the terminated count stays a lower bound
        assert crawler.recheck_terminations([dead.user_id]) == []

    def test_insights_accessor_is_the_ground_truth_exemption(self, net):
        user = make_user(net)
        crawler = ProfileCrawler(net)
        genders, brackets, countries = crawler.insights_demographics([user.user_id])
        assert countries == ["US"]
        assert genders == [Gender.FEMALE.value]
        assert brackets == ["18-24"]
        # a private, terminated account keeps its insights demographics
        hidden = make_user(net, public=False, gender=Gender.MALE, age=40, country="IN")
        net.terminate_account(hidden.user_id, time=5)
        assert crawler.insights_demographics([hidden.user_id]) == (["M"], ["35-44"], ["IN"])
        with pytest.raises(KeyError):
            crawler.insights_demographics([424242])
