"""Tests for repro.osn.api."""

import pytest

from repro.osn.api import PlatformAPI, RequestBudgetExceeded
from repro.osn.network import SocialNetwork
from repro.osn.profile import Gender
from repro.util.validation import ValidationError


@pytest.fixture()
def world():
    net = SocialNetwork()
    public = net.create_user(gender=Gender.FEMALE, age=22, country="US",
                             friend_list_public=True)
    private = net.create_user(gender=Gender.MALE, age=40, country="IN",
                              friend_list_public=False)
    net.add_friendship(public.user_id, private.user_id)
    public.background_friend_count = 10
    page = net.create_page("P", description="d")
    net.like_page(public.user_id, page.page_id, time=0)
    public.background_like_count = 5
    return net, public, private, page


class TestProfileEndpoints:
    def test_get_profile_public_fields(self, world):
        net, public, _, _ = world
        api = PlatformAPI(net)
        view = api.get_profile(public.user_id)
        assert view.gender == "F"
        assert view.age_bracket == "18-24"
        assert view.country == "US"
        assert view.friend_list_public

    def test_terminated_profile_gone(self, world):
        net, public, _, _ = world
        net.terminate_account(public.user_id, time=5)
        api = PlatformAPI(net)
        assert api.get_profile(public.user_id) is None

    def test_unknown_user_none(self, world):
        net, _, _, _ = world
        assert PlatformAPI(net).get_profile(424242) is None

    def test_friend_list_respects_privacy(self, world):
        net, public, private, _ = world
        api = PlatformAPI(net)
        assert api.get_friend_list(public.user_id).tolist() == [int(private.user_id)]
        assert api.get_friend_list(private.user_id) is None

    def test_declared_friend_count(self, world):
        net, public, private, _ = world
        api = PlatformAPI(net)
        assert api.get_declared_friend_count(public.user_id) == 11
        assert api.get_declared_friend_count(private.user_id) is None

    def test_declared_counts_unknown_user_none(self, world):
        # consistent with every sibling endpoint: unknown -> None, not raise
        net, _, _, _ = world
        api = PlatformAPI(net)
        assert api.get_declared_friend_count(424242) is None
        assert api.get_declared_like_count(424242) is None

    def test_declared_counts_are_charged(self, world):
        # the count lives on the friend-list/likes pages, so reading it
        # costs a request of that kind — even for unknown users
        net, public, _, _ = world
        api = PlatformAPI(net)
        api.get_declared_friend_count(public.user_id)
        api.get_declared_like_count(public.user_id)
        api.get_declared_friend_count(424242)
        assert api.stats.friend_list == 2
        assert api.stats.page_likes == 1
        assert api.stats.total == 3

    def test_declared_counts_respect_budget(self, world):
        net, public, _, _ = world
        api = PlatformAPI(net, max_requests=1)
        api.get_declared_like_count(public.user_id)
        with pytest.raises(RequestBudgetExceeded):
            api.get_declared_friend_count(public.user_id)

    def test_page_likes_and_count(self, world):
        net, public, _, page = world
        api = PlatformAPI(net)
        assert api.get_page_likes(public.user_id).tolist() == [int(page.page_id)]
        assert api.get_declared_like_count(public.user_id) == 6

    def test_terminated_likes_gone(self, world):
        net, public, _, _ = world
        net.terminate_account(public.user_id, time=5)
        api = PlatformAPI(net)
        assert api.get_page_likes(public.user_id) is None
        assert api.get_declared_like_count(public.user_id) is None


class TestPageEndpoint:
    def test_page_view(self, world):
        net, public, _, page = world
        view = PlatformAPI(net).get_page(page.page_id)
        assert view.like_count == 1
        assert view.liker_ids == (int(public.user_id),)
        assert view.description == "d"

    def test_page_reflects_removals(self, world):
        net, public, _, page = world
        net.remove_like(public.user_id, page.page_id, time=9)
        view = PlatformAPI(net).get_page(page.page_id)
        assert view.like_count == 0


class TestBudgetAndStats:
    def test_stats_count_by_kind(self, world):
        net, public, _, page = world
        api = PlatformAPI(net)
        api.get_profile(public.user_id)
        api.get_friend_list(public.user_id)
        api.get_page_likes(public.user_id)
        api.get_page(page.page_id)
        assert api.stats.profile == 1
        assert api.stats.friend_list == 1
        assert api.stats.page_likes == 1
        assert api.stats.page == 1
        assert api.stats.total == 4

    def test_budget_enforced(self, world):
        net, public, _, _ = world
        api = PlatformAPI(net, max_requests=2)
        api.get_profile(public.user_id)
        api.get_profile(public.user_id)
        with pytest.raises(RequestBudgetExceeded):
            api.get_profile(public.user_id)

    def test_invalid_budget(self, world):
        net, _, _, _ = world
        with pytest.raises(ValidationError):
            PlatformAPI(net, max_requests=0)

    def test_study_reports_crawl_volume(self, small_artifacts):
        stats = small_artifacts.api.stats
        dataset = small_artifacts.dataset
        likers = len(dataset.likers)
        # one charge per call: the liker crawl reads a friend list, a
        # friend count, a like list and a like count per liker, the
        # baseline one like count per sampled user, the recheck one
        # profile per distinct observed liker of each campaign, and the
        # monitors one page per snapshot or missed poll
        assert stats.friend_list == 2 * likers
        assert stats.page_likes == 2 * likers + len(dataset.baseline)
        assert stats.profile == sum(
            len(set(record.liker_ids)) for record in dataset.campaigns.values()
        )
        assert stats.page == sum(
            len(monitor.snapshots) + monitor.missed_polls
            for monitor in small_artifacts.monitors.values()
        )
        assert stats.page > 500
        assert stats.total > 1000
