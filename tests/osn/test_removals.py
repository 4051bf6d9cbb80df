"""Tests for like removal and enforcement purges."""

import pytest

from repro.osn.network import SocialNetwork
from repro.osn.profile import Gender
from repro.osn.termination import TerminationPolicy, TerminationSweep
from repro.util.rng import RngStream


@pytest.fixture()
def world():
    net = SocialNetwork()
    page = net.create_page("P", category="honeypot")
    users = []
    for i in range(5):
        user = net.create_user(gender=Gender.MALE, age=20, country="US",
                               cohort="farm:X")
        net.like_page(user.user_id, page.page_id, time=i * 100)
        users.append(user)
    return net, page, users


class TestRemoveLike:
    def test_removes_from_current_lists(self, world):
        net, page, users = world
        assert net.remove_like(users[0].user_id, page.page_id, time=1000)
        assert net.page_like_count(page.page_id) == 4
        assert page.page_id not in net.user_liked_page_ids(users[0].user_id)

    def test_history_preserved(self, world):
        net, page, users = world
        net.remove_like(users[0].user_id, page.page_id, time=1000)
        historical = [e.user_id for e in net.likes.for_page(page.page_id)]
        assert users[0].user_id in historical

    def test_removal_event_recorded(self, world):
        net, page, users = world
        net.remove_like(users[0].user_id, page.page_id, time=1000)
        removals = [event for _, event in net.likes.removal_records_for_page(page.page_id)]
        assert len(removals) == 1
        assert removals[0].user_id == users[0].user_id
        assert removals[0].time == 1000

    def test_removing_nonexistent_like_returns_false(self, world):
        net, page, _ = world
        other = net.create_user(gender=Gender.FEMALE, age=30, country="US")
        assert not net.remove_like(other.user_id, page.page_id, time=5)
        assert net.likes.removal_count == 0

    def test_can_relike_after_removal(self, world):
        net, page, users = world
        net.remove_like(users[0].user_id, page.page_id, time=1000)
        assert net.like_page(users[0].user_id, page.page_id, time=2000)
        assert net.page_like_count(page.page_id) == 5


class TestTerminationPurge:
    def test_purge_strips_likes(self, world):
        net, page, users = world
        net.terminate_account(users[0].user_id, time=500, purge_likes=True)
        assert net.page_like_count(page.page_id) == 4
        assert len(net.likes.removal_records_for_page(page.page_id)) == 1

    def test_no_purge_keeps_likes(self, world):
        net, page, users = world
        net.terminate_account(users[0].user_id, time=500, purge_likes=False)
        assert net.page_like_count(page.page_id) == 5

    def test_sweep_purges_when_policy_says_so(self, world):
        net, page, _ = world
        policy = TerminationPolicy(base_rates={"farm:X": 1.0}, purge_likes=True)
        TerminationSweep(policy).run(net, [page.page_id], RngStream(1), time=10_000)
        assert net.page_like_count(page.page_id) == 0
        assert len(net.likes.removal_records_for_page(page.page_id)) == 5

    def test_sweep_respects_purge_off(self, world):
        net, page, _ = world
        policy = TerminationPolicy(base_rates={"farm:X": 1.0}, purge_likes=False)
        TerminationSweep(policy).run(net, [page.page_id], RngStream(1), time=10_000)
        assert net.page_like_count(page.page_id) == 5


class TestStudyRemovalAudit:
    def test_removed_counts_recorded(self, small_dataset):
        removed = {
            campaign_id: record.removed_like_count
            for campaign_id, record in small_dataset.campaigns.items()
        }
        # every terminated liker's honeypot like was purged
        for campaign_id, record in small_dataset.campaigns.items():
            assert removed[campaign_id] >= len(record.terminated_liker_ids)

    def test_burst_farms_lose_more_likes(self, small_dataset):
        from repro.analysis.summary import removed_likes_by_campaign
        removed = removed_likes_by_campaign(small_dataset)
        burst_total = sum(
            removed[c] for c in ("SF-ALL", "SF-USA", "AL-ALL", "AL-USA", "MS-USA")
        )
        assert burst_total > removed["BL-USA"]
