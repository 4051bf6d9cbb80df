"""Tests for repro.farms.accounts and repro.farms.base."""

import numpy as np
import pytest

from repro.farms.accounts import FakeAccountFactory, FarmAccountConfig
from repro.farms.base import (
    REGION_USA,
    REGION_WORLDWIDE,
    FarmOrder,
    OrderStatus,
)
from repro.osn.network import SocialNetwork
from repro.osn.population import PopulationConfig, WorldBuilder
from repro.osn.profile import Gender
from repro.util.distributions import Categorical, LogNormalCount
from repro.util.validation import ValidationError


@pytest.fixture()
def factory(rng):
    net = SocialNetwork()
    world = WorldBuilder(PopulationConfig.small()).build(net, rng.child("w"))
    return net, FakeAccountFactory(net, world.universe)


def young_config(**kwargs):
    defaults = dict(
        gender_female_share=0.3,
        age=Categorical({"13-17": 1.0}),
    )
    defaults.update(kwargs)
    return FarmAccountConfig(**defaults)


class TestFarmOrder:
    def test_valid(self):
        order = FarmOrder(
            farm_name="X", page_id=1, target_likes=1000,
            region=REGION_USA, price=50.0, promised_days=3,
        )
        assert order.status == OrderStatus.PLACED
        assert not order.is_inactive

    def test_record_delivery_completes(self):
        order = FarmOrder(
            farm_name="X", page_id=1, target_likes=10,
            region=REGION_USA, price=5.0, promised_days=3,
        )
        order.scheduled_likes = 2
        order.record_delivery()
        assert order.status == OrderStatus.PLACED
        order.record_delivery()
        assert order.status == OrderStatus.COMPLETED

    def test_unknown_region_rejected(self):
        with pytest.raises(ValidationError):
            FarmOrder(farm_name="X", page_id=1, target_likes=10,
                      region="Mars", price=5.0, promised_days=3)


class TestFarmAccountConfig:
    def test_fixed_country_overrides(self, rng):
        config = young_config(fixed_country="TR")
        assert config.country_for_region(REGION_USA, rng, 1) == ["TR"]
        assert config.country_for_region(REGION_WORLDWIDE, rng, 3) == ["TR"] * 3

    def test_usa_region_honoured(self, rng):
        config = young_config()
        countries = set(config.country_for_region(REGION_USA, rng, 100))
        assert "US" in countries
        us_share = config.country_for_region(REGION_USA, rng, 200).count("US") / 200
        assert us_share > 0.8

    def test_ignoring_targeting_uses_worldwide(self, rng):
        config = young_config(honors_targeting=False)
        countries = config.country_for_region(REGION_USA, rng, 300)
        assert len(set(countries)) > 3  # spread over the worldwide mix

    def test_invalid_gender_share(self):
        with pytest.raises(ValidationError):
            young_config(gender_female_share=2.0)


class TestFakeAccountFactory:
    def test_cohort_label(self, factory, rng):
        net, fac = factory
        accounts = fac.create_accounts("Brand.com", young_config(), REGION_USA, 10, rng)
        assert all(net.user(a).cohort == "farm:Brand.com" for a in accounts)
        assert all(net.user(a).is_farm_account for a in accounts)

    def test_count_zero(self, factory, rng):
        net, fac = factory
        assert fac.create_accounts("B", young_config(), REGION_USA, 0, rng) == []

    def test_gender_share(self, factory, rng):
        net, fac = factory
        config = young_config(gender_female_share=0.9)
        accounts = fac.create_accounts("B", config, REGION_USA, 200, rng)
        females = sum(1 for a in accounts if net.user(a).gender == Gender.FEMALE)
        assert females / len(accounts) > 0.8

    def test_friend_counts_follow_config(self, factory, rng):
        net, fac = factory
        config = young_config(
            background_friends=LogNormalCount(median=800, sigma=0.3, minimum=100)
        )
        accounts = fac.create_accounts("B", config, REGION_USA, 150, rng)
        medians = float(np.median([net.declared_friend_count(a) for a in accounts]))
        assert 600 <= medians <= 1000

    def test_like_counts_follow_config(self, factory, rng):
        net, fac = factory
        config = young_config(
            page_like_count=LogNormalCount(median=1500, sigma=0.3, minimum=100)
        )
        accounts = fac.create_accounts("B", config, REGION_USA, 150, rng)
        medians = float(np.median([net.declared_like_count(a) for a in accounts]))
        assert 1100 <= medians <= 1900

    def test_explicit_likes_capped(self, factory, rng):
        net, fac = factory
        config = young_config(explicit_like_cap=30)
        accounts = fac.create_accounts("B", config, REGION_USA, 20, rng)
        assert all(net.user_like_count(a) <= 30 for a in accounts)

    def test_not_searchable(self, factory, rng):
        net, fac = factory
        accounts = fac.create_accounts("B", young_config(), REGION_USA, 10, rng)
        assert all(not net.user(a).searchable for a in accounts)

    def test_spam_segment_used(self, factory, rng):
        net, fac = factory
        config = young_config(spam_key="alms")
        accounts = fac.create_accounts("B", config, REGION_USA, 30, rng)
        spam_likes = sum(
            1
            for a in accounts
            for p in net.user_liked_page_ids(a)
            if net.page(p).category == "spam-job"
        )
        assert spam_likes > 0
