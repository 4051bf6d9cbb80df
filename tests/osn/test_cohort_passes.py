"""Each columnar cohort pass against the scalar loop it replaced.

The friendship wiring, the termination sweep, the public directory, the
insights reports, the organic click pick and the friend-list read each
run as one pass over a cohort's columns.  Each must leave exactly the
state its per-account loop left: the same values and the same generator
state after.  The loops live on here as references.
``tests/osn/test_bulk_equivalence.py`` swaps every one of them into a
seeded small study, which must come out byte-identical.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ads.clickworkers import (
    CLICKWORKER_MALE_SHARE,
    DEFAULT_MALE_SHARE,
    ClickWorkerPopulation,
)
from repro.ads.costmodel import CostModel
from repro.ads.delivery import AdDeliveryEngine
from repro.ads.reports import PageInsightsReport, ReportsTool, _bracket_fractions, _fractions
from repro.farms.topology import (
    DenseCommunityTopology,
    FarmTopology,
    HubTopology,
    PairTripletTopology,
)
from repro.honeypot.study import HoneypotStudy, StudyConfig
from repro.osn import graph as graph_module
from repro.osn.api import PlatformAPI
from repro.osn.directory import PublicDirectory
from repro.osn.ids import PageId
from repro.osn.network import SocialNetwork
from repro.osn.population import GLOBAL_AGE_WEIGHTS, PopulationConfig, WorldBuilder, sample_age
from repro.osn.profile import AGE_BRACKETS, COHORT_CLICKWORKER, COHORT_FARM_PREFIX, Gender
from repro.osn.termination import TerminationPolicy, TerminationSweep
from repro.util.distributions import Categorical, split_into_groups
from repro.util.rng import RngStream
from repro.util.validation import ValidationError

AGE = Categorical(GLOBAL_AGE_WEIGHTS)


# -- the replaced per-account loops, as references -------------------------------


def scalar_pairs_wire(self, network, accounts, rng):
    chosen = [a for a in accounts if rng.bernoulli(self.grouped_fraction)]
    edges = 0
    for group in split_into_groups(rng, chosen, sizes=(2, 3)):
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                network.add_friendship(group[i], group[j])
                edges += 1
    return edges


def scalar_dense_wire(self, network, accounts, rng):
    n = len(accounts)
    if n < 3:
        for i in range(n - 1):
            network.add_friendship(accounts[i], accounts[i + 1])
        return max(0, n - 1)
    order = rng.shuffled(list(accounts))
    edges = 0
    half_k = min(self.ring_k // 2, (n - 1) // 2)
    for i in range(n):
        for offset in range(1, half_k + 1):
            a, b = order[i], order[(i + offset) % n]
            if rng.bernoulli(self.rewire_probability):
                b = order[rng.randint(0, n)]
                if b == a:
                    continue
            if not network.graph.are_friends(a, b):
                network.add_friendship(a, b)
                edges += 1
    return edges


def scalar_hubs_wire(self, network, accounts, rng, farm_name, age):
    covered = [a for a in accounts if rng.bernoulli(self.coverage)]
    if len(covered) < 2:
        return []
    slots = len(covered) * self.memberships_per_account
    hub_count = max(1, round(slots / self.hub_size))
    hubs = []
    for _ in range(hub_count):
        hub = network.create_user(
            gender=Gender.MALE if rng.bernoulli(0.5) else Gender.FEMALE,
            age=sample_age(rng, age),
            country="OTHER",
            friend_list_public=False,
            searchable=False,
            cohort=f"{COHORT_FARM_PREFIX}{farm_name}",
        )
        hubs.append(hub.user_id)
    for account in covered:
        chosen = rng.sample_without_replacement(
            hubs, min(self.memberships_per_account, len(hubs))
        )
        for hub_id in chosen:
            network.add_friendship(account, hub_id)
    return hubs


def scalar_wire_hubs(self, country, workers):
    cfg = self.config
    rng = self._rng.child(f"hubs/{country}/{len(workers)}")
    ring_members = [w for w in workers if rng.bernoulli(cfg.hub_coverage)]
    rings = [
        ring_members[i : i + cfg.hub_ring_size]
        for i in range(0, len(ring_members), cfg.hub_ring_size)
    ]
    male_share = CLICKWORKER_MALE_SHARE.get(country, DEFAULT_MALE_SHARE)
    for ring in rings:
        if len(ring) < 2:
            continue
        hub = self._network.create_user(
            gender=Gender.MALE if rng.bernoulli(male_share) else Gender.FEMALE,
            age=sample_age(rng, cfg.age),
            country=country,
            friend_list_public=False,
            searchable=False,
            cohort=COHORT_CLICKWORKER,
        )
        for worker in ring:
            self._network.add_friendship(hub.user_id, worker)


def scalar_wire_direct_edges(self, workers, rng):
    if len(workers) < 2:
        return
    edge_count = rng.poisson(self.config.direct_edge_rate * len(workers))
    for _ in range(edge_count):
        a, b = rng.sample_without_replacement(workers, 2)
        self._network.add_friendship(a, b)


def scalar_sweep_run(self, network, page_ids, rng, time):
    burst_flagged = set()
    candidates = set()
    for page_id in page_ids:
        candidates.update(network.page_liker_ids(page_id))
        burst_flagged.update(self.burst_likers(network, page_id))
    terminated = []
    for user_id in sorted(candidates):
        profile = network.user(user_id)
        if profile.is_terminated:
            continue
        probability = self.policy.hazard(profile.cohort, user_id in burst_flagged)
        if rng.bernoulli(probability):
            network.terminate_account(user_id, time, purge_likes=self.policy.purge_likes)
            terminated.append(user_id)
    return terminated


def scalar_searchable_user_ids(self):
    return sorted(
        profile.user_id
        for profile in self._network.all_users()
        if profile.searchable and not profile.is_terminated
    )


def _scalar_report(page_id, profiles):
    return PageInsightsReport(
        page_id=page_id,
        total_likes=len(profiles),
        gender=_fractions(Counter(p.gender.value for p in profiles)),
        age=_bracket_fractions(Counter(p.age_bracket for p in profiles)),
        country=_fractions(Counter(p.country for p in profiles)),
    )


def scalar_page_report(self, page_id):
    return _scalar_report(
        page_id, [self._network.user(u) for u in self._network.page_liker_ids(page_id)]
    )


def scalar_global_report(self):
    profiles = [
        p for p in self._network.all_users() if not p.is_terminated and p.searchable
    ]
    return _scalar_report(PageId(-1), profiles)


def scalar_index_organics(self):
    """Per-country organic users and their normalised click weights."""
    indexed = {}
    weights = self.config.organic_age_weights
    by_country = {}
    for profile in self._network.all_users():
        if profile.cohort == "organic":
            by_country.setdefault(profile.country, []).append(profile)
    for country, profiles in sorted(by_country.items()):
        raw = np.array([weights.probability(p.age_bracket) for p in profiles])
        if raw.sum() > 0:
            indexed[country] = ([p.user_id for p in profiles], raw / raw.sum())
    return indexed


def scalar_pick_organic(self, country, rng):
    candidates = self._organic_by_country.get(country)
    if not candidates:
        return None
    users, weights = candidates
    return users[int(rng.generator.choice(len(users), p=weights))]


def scalar_get_friend_list(self, user_id):
    self._charge("friend_list")
    if not self.network.has_user(user_id):
        return None
    profile = self.network.user(user_id)
    if not self.network.privacy.can_view_friend_list(profile):
        return None
    friends = set(self.network.graph.neighbors(user_id))
    ids = np.fromiter(friends, dtype=np.int32, count=len(friends))
    ids.sort()
    return ids


SCALAR_REFERENCES = (
    (PairTripletTopology, "wire", scalar_pairs_wire),
    (DenseCommunityTopology, "wire", scalar_dense_wire),
    (HubTopology, "wire", scalar_hubs_wire),
    (ClickWorkerPopulation, "_wire_hubs", scalar_wire_hubs),
    (ClickWorkerPopulation, "_wire_direct_edges", scalar_wire_direct_edges),
    (TerminationSweep, "run", scalar_sweep_run),
    (PublicDirectory, "searchable_user_ids", scalar_searchable_user_ids),
    (ReportsTool, "page_report", scalar_page_report),
    (ReportsTool, "global_report", scalar_global_report),
    (AdDeliveryEngine, "_index_organics", scalar_index_organics),
    (AdDeliveryEngine, "_pick_organic", scalar_pick_organic),
    (PlatformAPI, "get_friend_list", scalar_get_friend_list),
)


def swap_in_scalar_references(monkeypatch) -> None:
    """Replace every columnar pass with the per-account loop it replaced."""
    for owner, name, reference in SCALAR_REFERENCES:
        monkeypatch.setattr(owner, name, reference)


def run_both(build):
    """``build()`` with the columnar passes, then with the scalar references."""
    columnar = build()
    with pytest.MonkeyPatch.context() as patch:
        swap_in_scalar_references(patch)
        scalar = build()
    return columnar, scalar


def network_state(network: SocialNetwork) -> dict:
    """Every graph and profile column, as plain lists."""
    graph = network.graph
    profiles = network.profiles
    return {
        "edges": list(graph.edges()),
        "nodes": graph._c_nodes.tolist(),
        "columns": [
            column().tolist()
            for column in (
                profiles.gender_codes,
                profiles.ages,
                profiles.country_codes,
                profiles.cohort_codes,
                profiles.searchable_mask,
                profiles.friend_list_public_mask,
                profiles.terminated_at_values,
                profiles.background_friend_counts,
                profiles.background_like_counts,
            )
        ],
    }


def rng_state(rng: RngStream) -> dict:
    return rng.generator.bit_generator.state


def small_world(seed: int = 7) -> SocialNetwork:
    network = SocialNetwork()
    WorldBuilder(PopulationConfig.small()).build(network, RngStream(seed, "world"))
    return network


# -- Bernoulli membership --------------------------------------------------------


class TestBernoulliMany:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 5_000),
        p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32),
    )
    def test_matches_scalar_draws(self, n, p, seed):
        columnar, scalar = RngStream(seed, "cohort"), RngStream(seed, "cohort")
        drawn = columnar.bernoulli_many(p, n)
        assert drawn.dtype == bool and drawn.shape == (n,)
        assert drawn.tolist() == [scalar.bernoulli(p) for _ in range(n)]
        assert rng_state(columnar) == rng_state(scalar)

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_rejects_p_outside_unit_interval(self, p):
        with pytest.raises(ValidationError):
            RngStream(1).bernoulli_many(p, 3)


# -- the friendship wiring -------------------------------------------------------

LAYERS = {
    "pairs": PairTripletTopology(grouped_fraction=0.3),
    "pairs-none": PairTripletTopology(grouped_fraction=0.0),
    "dense": DenseCommunityTopology(ring_k=4, rewire_probability=0.2),
    "dense-k8": DenseCommunityTopology(ring_k=8, rewire_probability=0.5),
    "hubs": HubTopology(hub_size=6, memberships_per_account=2, coverage=0.7),
    "hubs-all": HubTopology(hub_size=40, memberships_per_account=1, coverage=1.0),
    "farm-pairs-dense-hubs": FarmTopology(
        pairs=PairTripletTopology(grouped_fraction=0.5),
        dense=DenseCommunityTopology(ring_k=4, rewire_probability=0.3),
        hubs=HubTopology(hub_size=8, memberships_per_account=2, coverage=0.8),
    ),
}


def wired_pool(layer, n: int):
    network = small_world()
    accounts = network.create_users_bulk(
        n, gender_codes=1, ages=20, countries=["TR"] * n,
        friend_list_public=True, searchable=False, cohort="farm:X",
    )
    rng = RngStream(77, "wire")
    if isinstance(layer, FarmTopology):
        result = layer.wire_pool(network, accounts, rng, "X", AGE)
    elif isinstance(layer, HubTopology):
        result = layer.wire(network, accounts, rng, "X", AGE)
    else:
        result = layer.wire(network, accounts, rng)
    compiled_while_wiring = network.graph._compiled_edges_n
    return result, compiled_while_wiring, network_state(network), rng_state(rng)


class TestTopologyWiring:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 157])
    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_matches_scalar_build(self, name, n):
        columnar, scalar = run_both(lambda: wired_pool(LAYERS[name], n))
        result, compiled, state, after = columnar
        assert compiled == 0, "a wiring step compiled the graph"
        assert state == scalar[2]
        assert after == scalar[3]
        assert result == scalar[0]

    def test_dense_after_pairs_builds_the_same_graph(self):
        """The dense layer dedups against its own edges only; the graph
        dedups the rest at its compile, so the pool's graph is unchanged."""
        layer = LAYERS["farm-pairs-dense-hubs"]
        columnar, scalar = run_both(lambda: wired_pool(layer, 400))
        assert columnar[2]["edges"] == scalar[2]["edges"]
        assert len(columnar[2]["edges"]) > 400


class TestClickWorkerWiring:
    @staticmethod
    def grown_pools():
        network = SocialNetwork()
        world = WorldBuilder(PopulationConfig.small()).build(network, RngStream(3, "w"))
        workers = ClickWorkerPopulation(network, world.universe, RngStream(3, "cw"))
        workers.ensure_pools({"IN": 300, "EG": 40, "TR": 1})
        workers.ensure_pool("IN", 520)
        return network.graph._compiled_edges_n, network_state(network)

    def test_matches_scalar_build(self):
        columnar, scalar = run_both(self.grown_pools)
        assert columnar[0] == 0, "click-worker wiring compiled the graph"
        assert columnar[1] == scalar[1]


# -- the termination sweep -------------------------------------------------------


def swept_world(seed: int):
    network = SocialNetwork()
    cohorts = ("organic", "clickworker", "farm:X", "farm:Y")
    users = []
    for cohort in cohorts:
        users += network.create_users_bulk(
            60, gender_codes=0, ages=30, countries=["US"] * 60,
            friend_list_public=True, searchable=True, cohort=cohort,
        )
    order = RngStream(seed, "likers").shuffled(users)
    pages = [network.create_page(f"p{i}").page_id for i in range(3)]
    # a burst on page 0, a trickle on page 1, and page 2 shares likers
    for i, user_id in enumerate(order[:90]):
        network.like_page(user_id, pages[0], time=1_000 + i)
    for i, user_id in enumerate(order[60:200]):
        network.like_page(user_id, pages[1], time=1_000 + 600 * i)
    for i, user_id in enumerate(order[150:]):
        network.like_page(user_id, pages[2], time=90_000 + i)
    network.add_friendships_arrays(order[:50], order[50:100])
    for user_id in order[::17]:
        network.terminate_account(user_id, time=500)
    policy = TerminationPolicy(
        base_rates={"organic": 0.02, "clickworker": 0.1, "farm:X": 0.4},
        default_rate=0.25, burst_multiplier=3.0, burst_threshold=50,
    )
    rng = RngStream(seed, "sweep")
    terminated = TerminationSweep(policy).run(network, pages, rng, time=70_000)
    removals = [network.likes.removal_records_for_page(page) for page in pages]
    return terminated, removals, network_state(network), rng_state(rng)


class TestTerminationSweep:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_matches_scalar_sweep(self, seed):
        columnar, scalar = run_both(lambda: swept_world(seed))
        assert columnar[0], "the sweep terminated nobody"
        assert columnar == scalar

    def test_no_candidates(self):
        network = SocialNetwork()
        page = network.create_page("empty").page_id
        rng = RngStream(5)
        assert TerminationSweep(TerminationPolicy()).run(network, [page], rng, 10) == []
        assert rng_state(rng) == rng_state(RngStream(5))


# -- the directory, the reports and the friend lists -----------------------------


def listed_world():
    network = small_world(11)
    api = PlatformAPI(network)
    page = network.create_page("honeypot").page_id
    users = network.profiles.user_ids().tolist()
    for i, user_id in enumerate(users[::7]):
        network.like_page(user_id, page, time=i)
    # hidden accounts, and terminated ones both listed and liking
    network.create_users_bulk(
        25, gender_codes=1, ages=16, countries=["IN"] * 25,
        friend_list_public=False, searchable=False, cohort="clickworker",
    )
    for user_id in users[::13]:
        network.terminate_account(user_id, time=100)
    directory = PublicDirectory(network)
    tool = ReportsTool(network)
    return {
        "listed": directory.searchable_user_ids(),
        "sampled": directory.sample_users(RngStream(2), 40),
        "global": tool.global_report(),
        "page": tool.page_report(page),
        "friend_lists": [
            (lambda ids: None if ids is None else (ids.dtype.str, ids.tolist()))(
                api.get_friend_list(user_id)
            )
            for user_id in network.profiles.user_ids().tolist()
        ],
    }


class TestDirectoryReportsAndFriendLists:
    def test_match_scalar_walks(self):
        columnar, scalar = run_both(listed_world)
        assert columnar == scalar
        assert columnar["global"].total_likes == len(columnar["listed"])
        assert sum(ids is not None and len(ids[1]) > 0 for ids in columnar["friend_lists"]) > 100

    def test_directory_length_counts_the_listing(self):
        network = small_world()
        directory = PublicDirectory(network)
        assert len(directory) == len(directory.searchable_user_ids())
        network.terminate_account(directory.searchable_user_ids()[0], time=1)
        assert len(directory) == len(directory.searchable_user_ids())

    def test_empty_page_report(self):
        network = SocialNetwork()
        page = network.create_page("empty").page_id
        columnar, scalar = run_both(lambda: ReportsTool(network).page_report(page))
        assert columnar == scalar
        assert columnar.age == {bracket: 0.0 for bracket in AGE_BRACKETS}

    def test_friend_list_is_a_fresh_array(self):
        network = small_world()
        api = PlatformAPI(network)
        user_id = int(network.graph._edge_a.values()[0])
        profile = network.user(user_id)
        if not profile.friend_list_public:
            profile.friend_list_public = True
        friends = api.get_friend_list(user_id)
        friends[:] = -1
        assert api.get_friend_list(user_id).min() > 0


# -- the organic click pick ------------------------------------------------------


class TestOrganicPick:
    @settings(max_examples=50, deadline=None)
    @given(
        weights=st.lists(st.floats(0.001, 50.0), min_size=1, max_size=300),
        seed=st.integers(0, 2**32),
    )
    def test_cached_cdf_inverts_as_choice_does(self, weights, seed):
        raw = np.array(weights)
        p = raw / raw.sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        cached, chosen = RngStream(seed).generator, RngStream(seed).generator
        for _ in range(30):
            picked = int(cdf.searchsorted(cached.random(), side="right"))
            assert picked == int(chosen.choice(len(p), p=p))
        assert cached.bit_generator.state == chosen.bit_generator.state

    def test_matches_generator_choice_per_country(self):
        def picks():
            network = small_world(5)
            engine = AdDeliveryEngine(
                network, CostModel(),
                ClickWorkerPopulation(network, None, RngStream(1)), RngStream(1),
            )
            rng = RngStream(9, "clicks")
            countries = sorted(set(network.profiles.strings.value(c) for c in
                                   np.unique(network.profiles.country_codes()).tolist()))
            drawn = [engine._pick_organic(country, rng) for country in countries * 500]
            drawn.append(engine._pick_organic("NOWHERE", rng))
            return drawn, rng_state(rng)

        columnar, scalar = run_both(picks)
        assert columnar == scalar
        assert len(set(columnar[0])) > 100


# -- the deferred append ---------------------------------------------------------


class TestDeferredAppend:
    @staticmethod
    def raw_lengths(network):
        graph = network.graph
        return len(graph._edge_a), len(graph._edge_b), len(graph._explicit_nodes)

    @pytest.mark.parametrize(
        "bad", ["self-loop", "unknown-user", "terminated-user", "misaligned", "no-sources"]
    )
    def test_refused_before_any_column_grows(self, bad):
        network = SocialNetwork()
        users = network.create_users_bulk(
            4, gender_codes=0, ages=30, countries=["US"] * 4,
            friend_list_public=True, searchable=True, cohort="organic",
        )
        network.add_friendships_arrays(users[:2], users[2:])
        network.terminate_account(users[3], time=1)
        before = self.raw_lengths(network)
        a, b = {
            "self-loop": ([users[1], users[0]], [users[2], users[0]]),
            "unknown-user": ([users[1], users[0]], [users[2], 999]),
            "terminated-user": ([users[1], users[0]], [users[2], users[3]]),
            "misaligned": ([users[1], users[0]], [users[2]]),
            "no-sources": ([], [users[2]]),
        }[bad]
        with pytest.raises(ValidationError):
            network.add_friendships_arrays(a, b)
        assert self.raw_lengths(network) == before
        assert network.graph.edge_count == 1

    def test_graph_refuses_misaligned_endpoints(self):
        graph = graph_module.FriendshipGraph()
        with pytest.raises(ValidationError):
            graph.add_friendship_arrays(np.array([1, 2]), np.array([3]))
        assert len(graph._edge_a) == len(graph._edge_b) == 0

    def test_writes_append_and_the_first_read_compiles(self, monkeypatch):
        compiles = []
        real = graph_module._dedup_pairs

        def counted(a, b):
            compiles.append(a.shape[0])
            return real(a, b)

        monkeypatch.setattr(graph_module, "_dedup_pairs", counted)
        graph = graph_module.FriendshipGraph()
        graph.add_users_bulk(np.arange(10, 20))
        graph.add_friendship_arrays(np.array([10, 11, 12]), np.array([11, 12, 13]))
        graph.add_friendship(13, 10)
        graph.add_friendship(10, 11)
        graph.add_user(30)
        assert compiles == []
        assert graph.edge_count == 4
        assert graph.degree(10) == 2 and graph.are_friends(13, 10) and 30 in graph
        assert graph.neighbor_array(10).tolist() == [11, 13]
        assert compiles == [5]
        graph.remove_user(10)
        assert graph.neighbor_array(11).tolist() == [12]
        # the removal filters the raw rows before the one recompile
        assert compiles == [5, 2]


def test_small_study_compiles_the_graph_once(monkeypatch):
    """The study wires its whole world before it reads a friend list."""
    compiles = []
    real = graph_module._dedup_pairs

    def counted(a, b):
        compiles.append(a.shape[0])
        return real(a, b)

    monkeypatch.setattr(graph_module, "_dedup_pairs", counted)
    study = HoneypotStudy(StudyConfig.small(seed=991))
    study.build_world()
    assert compiles == []
    artifacts = study.run()
    assert len(compiles) == 1
    assert artifacts.network.graph.edge_count > 0
