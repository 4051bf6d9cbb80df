"""Tests for repro.osn.faults (deterministic fault injection)."""

import pytest

from repro.osn.api import PlatformAPI
from repro.osn.faults import (
    CrawlTimeout,
    FaultProfile,
    FaultyPlatformAPI,
    RateLimited,
    TransientError,
    TruncatedResponse,
)
from repro.osn.network import SocialNetwork
from repro.osn.profile import Gender
from repro.util.rng import RngStream
from repro.util.validation import ValidationError


@pytest.fixture()
def world():
    net = SocialNetwork()
    user = net.create_user(gender=Gender.FEMALE, age=22, country="US",
                           friend_list_public=True)
    friends = [net.create_user(gender=Gender.MALE, age=30, country="US")
               for _ in range(4)]
    for friend in friends:
        net.add_friendship(user.user_id, friend.user_id)
    page = net.create_page("P", description="d")
    for liker in [user] + friends:
        net.like_page(liker.user_id, page.page_id, time=0)
    return net, user, page


def wrap(net, profile, seed=7):
    return FaultyPlatformAPI(PlatformAPI(net), profile, RngStream(seed, "faults"))


class TestFaultProfile:
    def test_rates_validated(self):
        with pytest.raises(ValidationError):
            FaultProfile(transient_error_rate=-0.1)
        with pytest.raises(ValidationError):
            FaultProfile(transient_error_rate=0.6, rate_limit_rate=0.6)
        with pytest.raises(ValidationError):
            FaultProfile(retry_after_range=(0, 5))
        with pytest.raises(ValidationError):
            FaultProfile(truncation_keep_fraction=1.0)

    def test_null_detection(self):
        assert FaultProfile.none().is_null
        assert not FaultProfile.default().is_null
        assert not FaultProfile(profile_permafail_rate=0.5).is_null


class TestNullProfilePassThrough:
    def test_results_identical_and_no_rng_consumed(self, world):
        net, user, page = world
        rng = RngStream(7, "faults")
        api = FaultyPlatformAPI(PlatformAPI(net), FaultProfile.none(), rng)
        plain = PlatformAPI(net)
        for _ in range(20):
            assert api.get_profile(user.user_id) == plain.get_profile(user.user_id)
            assert api.get_friend_list(user.user_id).tolist() == plain.get_friend_list(user.user_id).tolist()
            assert api.get_page(page.page_id) == plain.get_page(page.page_id)
        # the stream was never touched: its next draw equals a fresh stream's
        assert rng.random() == RngStream(7, "faults").random()
        assert api.stats.faults_injected == 0


class TestInjection:
    def test_certain_transient_error(self, world):
        net, user, _ = world
        api = wrap(net, FaultProfile(transient_error_rate=1.0))
        with pytest.raises(TransientError):
            api.get_profile(user.user_id)
        assert api.stats.transient_errors == 1

    def test_certain_rate_limit_carries_hint(self, world):
        net, user, _ = world
        api = wrap(net, FaultProfile(rate_limit_rate=1.0, retry_after_range=(3, 9)))
        with pytest.raises(RateLimited) as info:
            api.get_friend_list(user.user_id)
        assert 3 <= info.value.retry_after <= 9
        assert api.stats.rate_limited == 1

    def test_certain_timeout(self, world):
        net, user, _ = world
        api = wrap(net, FaultProfile(timeout_rate=1.0))
        with pytest.raises(CrawlTimeout):
            api.get_page_likes(user.user_id)
        assert api.stats.timeouts == 1

    def test_truncation_on_page_keeps_count_cuts_likers(self, world):
        net, _, page = world
        api = wrap(net, FaultProfile(truncation_rate=1.0,
                                     truncation_keep_fraction=0.5))
        with pytest.raises(TruncatedResponse) as info:
            api.get_page(page.page_id)
        partial = info.value.partial
        assert partial.like_count == 5  # the counter survives pagination
        assert len(partial.liker_ids) == 2  # floor(5 * 0.5)
        full = PlatformAPI(net).get_page(page.page_id)
        assert partial.liker_ids == full.liker_ids[:2]  # a prefix, not a shuffle
        assert api.stats.truncated == 1

    def test_truncation_on_friend_list_is_prefix(self, world):
        net, user, _ = world
        api = wrap(net, FaultProfile(truncation_rate=1.0,
                                     truncation_keep_fraction=0.5))
        full = PlatformAPI(net).get_friend_list(user.user_id)
        with pytest.raises(TruncatedResponse) as info:
            api.get_friend_list(user.user_id)
        assert info.value.partial.tolist() == full[:2].tolist()

    def test_truncation_band_is_success_on_scalar_endpoints(self, world):
        net, user, _ = world
        api = wrap(net, FaultProfile(truncation_rate=1.0))
        # scalar endpoint: the truncation band resolves to a clean response
        assert api.get_declared_friend_count(user.user_id) == 4

    def test_faulted_requests_still_charged(self, world):
        net, user, _ = world
        api = wrap(net, FaultProfile(transient_error_rate=1.0))
        for _ in range(3):
            with pytest.raises(TransientError):
                api.get_profile(user.user_id)
        assert api.stats.profile == 3

    def test_same_seed_same_fault_sequence(self, world):
        net, user, page = world

        def fault_kinds(seed):
            api = wrap(net, FaultProfile.default(), seed=seed)
            kinds = []
            for _ in range(200):
                try:
                    api.get_page(page.page_id)
                    kinds.append("ok")
                except Exception as fault:  # noqa: BLE001 - recording kind
                    kinds.append(type(fault).__name__)
            return kinds

        assert fault_kinds(11) == fault_kinds(11)
        assert fault_kinds(11) != fault_kinds(12)


class TestPermanentFailures:
    def test_permafailed_user_fails_every_time_on_every_user_endpoint(self, world):
        net, user, page = world
        api = wrap(net, FaultProfile(profile_permafail_rate=1.0))
        for _ in range(5):
            with pytest.raises(TransientError):
                api.get_profile(user.user_id)
            with pytest.raises(TransientError):
                api.get_friend_list(user.user_id)
            with pytest.raises(TransientError):
                api.get_declared_like_count(user.user_id)
        # pages are the study's own property: polling never permafails
        assert api.get_page(page.page_id).like_count == 5

    def test_permafail_subset_is_stable(self, world):
        net, _, _ = world
        users = [net.create_user(gender=Gender.MALE, age=25, country="US")
                 for _ in range(100)]
        profile = FaultProfile(profile_permafail_rate=0.3)
        api = wrap(net, profile, seed=3)

        def broken():
            out = set()
            for u in users:
                try:
                    api.get_profile(u.user_id)
                except TransientError:
                    out.add(int(u.user_id))
            return out

        first = broken()
        assert first == broken()  # retrying cannot revive a dead profile
        assert 10 < len(first) < 50  # roughly the configured rate
