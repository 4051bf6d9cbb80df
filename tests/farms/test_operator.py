"""Tests for repro.farms.operator."""

import pytest

from repro.farms.accounts import FakeAccountFactory, FarmAccountConfig
from repro.farms.base import REGION_USA, REGION_WORLDWIDE
from repro.farms.operator import FarmOperator, PoolStats
from repro.osn.network import SocialNetwork
from repro.osn.population import PopulationConfig, WorldBuilder
from repro.util.distributions import Categorical
from repro.util.rng import RngStream
from repro.util.validation import ValidationError

CONFIG = FarmAccountConfig(
    gender_female_share=0.4, age=Categorical({"18-24": 1.0})
)


@pytest.fixture()
def operator(rng):
    net = SocialNetwork()
    world = WorldBuilder(PopulationConfig.small()).build(net, rng.child("w"))
    factory = FakeAccountFactory(net, world.universe)
    return net, FarmOperator("op", net, factory, rng.child("op"), reuse_fraction=0.5)


class TestAccountsForOrder:
    def test_first_order_all_fresh(self, operator):
        net, op = operator
        accounts = op.accounts_for_order("B", CONFIG, REGION_USA, 40)
        assert len(accounts) == len(set(accounts)) == 40
        assert op.stats[REGION_USA].created == 40
        assert op.stats[REGION_USA].reused == 0

    def test_second_order_reuses(self, operator):
        net, op = operator
        first = set(op.accounts_for_order("B", CONFIG, REGION_USA, 40))
        second = set(op.accounts_for_order("B", CONFIG, REGION_USA, 40))
        overlap = first & second
        assert 10 <= len(overlap) <= 25  # reuse_fraction 0.5 of 40 = ~20

    def test_regions_isolated_by_default(self, operator):
        net, op = operator
        usa = set(op.accounts_for_order("B", CONFIG, REGION_USA, 30))
        world = set(op.accounts_for_order("B", CONFIG, REGION_WORLDWIDE, 30))
        assert not (usa & world)

    def test_shared_pool_when_not_regional(self, rng):
        net = SocialNetwork()
        world = WorldBuilder(PopulationConfig.small()).build(net, rng.child("w"))
        factory = FakeAccountFactory(net, world.universe)
        op = FarmOperator(
            "op", net, factory, rng.child("op"),
            reuse_fraction=0.5, regional_pools=False,
        )
        usa = set(op.accounts_for_order("B", CONFIG, REGION_USA, 40))
        worldwide = set(op.accounts_for_order("B", CONFIG, REGION_WORLDWIDE, 40))
        assert usa & worldwide

    def test_terminated_accounts_not_reused(self, operator):
        net, op = operator
        first = op.accounts_for_order("B", CONFIG, REGION_USA, 20)
        for account in first:
            net.terminate_account(account, time=0)
        second = op.accounts_for_order("B", CONFIG, REGION_USA, 20)
        assert not (set(first) & set(second))

    def test_cross_brand_reuse_same_operator(self, operator):
        """The ALMS mechanism: two brands, one pool."""
        net, op = operator
        brand_a = set(op.accounts_for_order("A.com", CONFIG, REGION_USA, 40))
        brand_b = set(op.accounts_for_order("B.com", CONFIG, REGION_USA, 40))
        shared = brand_a & brand_b
        assert shared
        # reused accounts keep brand A's cohort: the tell the paper saw
        assert all(net.user(a).cohort == "farm:A.com" for a in shared)

    def test_invalid_reuse_fraction(self, operator):
        net, _ = operator
        with pytest.raises(ValidationError):
            FarmOperator("x", net, None, RngStream(1), reuse_fraction=1.5)

    def test_deterministic(self, rng):
        def run(seed):
            net = SocialNetwork()
            world = WorldBuilder(PopulationConfig.small()).build(
                net, RngStream(seed, "w")
            )
            factory = FakeAccountFactory(net, world.universe)
            op = FarmOperator("op", net, factory, RngStream(seed, "op"))
            op.accounts_for_order("B", CONFIG, REGION_USA, 30)
            return [net.user(a).country for a in op.pool(REGION_USA)]

        assert run(3) == run(3)


class _ViewLoopOperator(FarmOperator):
    """The reuse filter as it was: one ``network.user`` view per account."""

    def accounts_for_order(self, farm_name, config, region, count,
                           created_at=0, topology=None):
        self._order_counter += 1
        rng = self._rng.child(f"order/{self._order_counter}")
        key = self._pool_key(region)
        pool = self._pools.setdefault(key, [])
        stats = self.stats.setdefault(key, PoolStats())
        reusable = [a for a in pool if not self._network.user(a).is_terminated]
        reuse_target = min(int(round(count * self.reuse_fraction)), len(reusable))
        reused = (
            rng.sample_without_replacement(reusable, reuse_target)
            if reuse_target > 0 else []
        )
        fresh = self._factory.create_accounts(
            farm_name=farm_name, config=config, region=region,
            count=count - len(reused), rng=rng.child("create"),
            created_at=created_at,
        )
        if topology is not None and fresh:
            topology.wire_pool(
                self._network, fresh, rng.child("topology"), farm_name, config.age
            )
        pool.extend(fresh)
        stats.created += len(fresh)
        stats.reused += len(reused)
        return reused + fresh


def _serve_with_terminations(operator_cls, monkeypatch):
    """Five orders on one pool, terminating every third account served."""
    draws = []
    sample = RngStream.sample_without_replacement

    def recorded(self, items, k):
        out = sample(self, items, k)
        draws.append((list(items), k, out, self.state_dict()))
        return out

    rng = RngStream(7, "pool")
    net = SocialNetwork()
    world = WorldBuilder(PopulationConfig.small()).build(net, rng.child("w"))
    op = operator_cls(
        "op", net, FakeAccountFactory(net, world.universe), rng.child("op"),
        reuse_fraction=0.6,
    )
    served = []
    with monkeypatch.context() as patch:
        patch.setattr(RngStream, "sample_without_replacement", recorded)
        for minute in range(5):
            accounts = op.accounts_for_order("B", CONFIG, REGION_USA, 30)
            served.append(accounts)
            for account in accounts[::3]:
                net.terminate_account(account, time=minute)
    pooled = [a for pool in op._pools.values() for a in pool]
    dead = sum(net.user(a).is_terminated for a in pooled)
    return served, draws, op.stats, dead, len(pooled)


class TestReuseFilter:
    def test_matches_the_view_loop(self, monkeypatch):
        columnar = _serve_with_terminations(FarmOperator, monkeypatch)
        views = _serve_with_terminations(_ViewLoopOperator, monkeypatch)
        _, draws, stats, dead, pooled = columnar
        # later orders reused from a pool that held terminated accounts
        assert draws and stats[REGION_USA].reused > 0 and 0 < dead < pooled
        assert columnar == views

    def test_small_build_makes_no_view_in_accounts_for_order(self, monkeypatch):
        from repro.honeypot.study import HoneypotStudy, StudyConfig
        from repro.osn.profilestore import ProfileView

        counts = {"calls": 0, "pooled": 0, "views": 0}
        inside = [False]
        view_init = ProfileView.__init__
        serve = FarmOperator.accounts_for_order

        def counted_init(self, store, row):
            counts["views"] += inside[0]
            view_init(self, store, row)

        def counted_serve(self, *args, **kwargs):
            counts["calls"] += 1
            counts["pooled"] += sum(map(len, self._pools.values()))
            inside[0] = True
            try:
                return serve(self, *args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(ProfileView, "__init__", counted_init)
        monkeypatch.setattr(FarmOperator, "accounts_for_order", counted_serve)
        HoneypotStudy(StudyConfig.small()).build_world()
        assert counts["calls"] > 0 and counts["pooled"] > 0
        assert counts["views"] == 0
