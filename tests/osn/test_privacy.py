"""Tests for repro.osn.privacy and repro.osn.directory."""

import pytest

from repro.osn.directory import PublicDirectory
from repro.osn.network import SocialNetwork
from repro.osn.privacy import PrivacyPolicy
from repro.osn.profile import Gender, UserProfile
from repro.util.rng import RngStream
from repro.util.validation import ValidationError


def profile(**kwargs):
    defaults = dict(user_id=1, gender=Gender.FEMALE, age=30, country="US")
    defaults.update(kwargs)
    return UserProfile(**defaults)


class TestPrivacyPolicy:
    def test_public_friend_list_visible(self):
        policy = PrivacyPolicy()
        assert policy.can_view_friend_list(profile(friend_list_public=True))

    def test_private_friend_list_hidden(self):
        policy = PrivacyPolicy()
        assert not policy.can_view_friend_list(profile(friend_list_public=False))

    def test_terminated_profile_hidden(self):
        policy = PrivacyPolicy()
        locked = profile(friend_list_public=True, terminated_at=10)
        assert not policy.can_view_friend_list(locked)
        assert not policy.can_view_page_likes(locked)

    def test_page_likes_public_for_live_accounts(self):
        policy = PrivacyPolicy()
        assert policy.can_view_page_likes(profile(friend_list_public=False))


class TestPublicDirectory:
    def make_network(self):
        net = SocialNetwork()
        listed = [
            net.create_user(gender=Gender.MALE, age=30, country="US", searchable=True)
            for _ in range(10)
        ]
        net.create_user(gender=Gender.MALE, age=30, country="US", searchable=False)
        return net, listed

    def test_only_searchable_listed(self):
        net, listed = self.make_network()
        directory = PublicDirectory(net)
        assert directory.searchable_user_ids() == sorted(p.user_id for p in listed)

    def test_terminated_removed(self):
        net, listed = self.make_network()
        net.terminate_account(listed[0].user_id, time=0)
        directory = PublicDirectory(net)
        assert listed[0].user_id not in directory.searchable_user_ids()

    def test_sample_distinct(self):
        net, _ = self.make_network()
        sample = PublicDirectory(net).sample_users(RngStream(1), 5)
        assert len(sample) == len(set(sample)) == 5

    def test_sample_too_large(self):
        net, _ = self.make_network()
        with pytest.raises(ValidationError):
            PublicDirectory(net).sample_users(RngStream(1), 11)
