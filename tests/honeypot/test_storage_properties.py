"""Property-based tests for the dataset's row encoding and JSONL format."""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.honeypot.storage import (
    CRAWL_COMPLETE,
    CRAWL_PARTIAL,
    BaselineRecord,
    CampaignRecord,
    HoneypotDataset,
    LikeObservation,
    LikerRecord,
    record_fields,
)

_brackets = st.sampled_from(["13-17", "18-24", "25-34", "35-44", "45-54", "55+"])
_countries = st.sampled_from(["US", "IN", "EG", "TR", "FR", "OTHER"])
_ids = st.integers(min_value=1, max_value=10_000)


@st.composite
def liker_records(draw):
    # A partial record lost the field groups in failed_fields, as the
    # crawler leaves them: no friend list, or no likes.
    failed = draw(st.lists(st.sampled_from(["friends", "likes"]),
                           max_size=2, unique=True))
    public = "friends" not in failed and draw(st.booleans())
    has_likes = "likes" not in failed
    return LikerRecord(
        user_id=draw(_ids),
        gender=draw(st.sampled_from(["F", "M"])),
        age_bracket=draw(_brackets),
        country=draw(_countries),
        friend_list_public=public,
        declared_friend_count=draw(st.integers(0, 5000)) if public else None,
        visible_friend_ids=draw(st.lists(_ids, max_size=5)) if public else [],
        liked_page_ids=draw(st.lists(_ids, max_size=8)) if has_likes else [],
        declared_like_count=draw(st.integers(0, 10_000)) if has_likes else 0,
        campaign_ids=draw(st.lists(st.sampled_from(["A", "B", "C"]),
                                   min_size=1, max_size=3, unique=True)),
        terminated=draw(st.booleans()),
        crawl_status=CRAWL_PARTIAL if failed else CRAWL_COMPLETE,
        failed_fields=failed,
    )


def like_observations():
    return st.builds(LikeObservation, observed_at=st.integers(0, 100_000),
                     user_id=_ids)


def baseline_records():
    return st.builds(BaselineRecord, user_id=_ids,
                     declared_like_count=st.integers(0, 10_000))


@st.composite
def campaign_records(draw, campaign_id="A"):
    # Half the campaigns drew no likes at all (an inactive campaign).
    times = [] if draw(st.booleans()) else sorted(
        draw(st.lists(st.integers(0, 100_000), min_size=1, max_size=10))
    )
    observations = [
        LikeObservation(observed_at=t, user_id=draw(_ids)) for t in times
    ]
    return CampaignRecord(
        campaign_id=campaign_id,
        provider=draw(st.sampled_from(["Facebook.com", "BoostLikes.com"])),
        kind=draw(st.sampled_from(["facebook_ads", "like_farm"])),
        location_label=draw(st.sampled_from(["USA", "Worldwide"])),
        budget_label="$6/day",
        duration_days=draw(st.integers(1, 20)),
        monitored_days=draw(st.floats(0, 40, allow_nan=False)),
        page_id=draw(_ids),
        total_likes=len(observations),
        observations=observations,
        terminated_liker_ids=draw(st.lists(_ids, max_size=4)),
        inactive=len(observations) == 0,
        removed_like_count=draw(st.integers(0, 20)),
        total_cost=draw(st.floats(0, 500, allow_nan=False)),
    )


@st.composite
def datasets(draw):
    dataset = HoneypotDataset()
    for campaign_id in draw(st.sets(st.sampled_from(["A", "B", "C"]), min_size=1)):
        dataset.campaigns[campaign_id] = draw(campaign_records(campaign_id=campaign_id))
    for liker in draw(st.lists(liker_records(), max_size=6)):
        dataset.likers[liker.user_id] = liker
    dataset.baseline = draw(st.lists(baseline_records(), max_size=3))
    dataset.global_gender = {"F": 0.46, "M": 0.54}
    dataset.global_age = {"18-24": 1.0}
    dataset.global_country = {"US": 1.0}
    return dataset


class TestJsonlProperties:
    @settings(max_examples=40, deadline=None)
    @given(dataset=datasets())
    def test_round_trip_identity(self, dataset):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ds.jsonl"
            dataset.to_jsonl(path)
            loaded = HoneypotDataset.from_jsonl(path)
        assert loaded.campaigns == dataset.campaigns
        assert loaded.likers == dataset.likers
        assert loaded.baseline == dataset.baseline
        assert loaded.global_gender == dataset.global_gender
        assert loaded.total_likes == dataset.total_likes


_RECORD_STRATEGIES = {
    "observation": like_observations(),
    "campaign": campaign_records(),
    "liker": liker_records(),
    "baseline": baseline_records(),
}


def _key_orders(value):
    """Every dict's key order inside ``value``, depth first."""
    if isinstance(value, dict):
        orders = [list(value)]
        for item in value.values():
            orders.extend(_key_orders(item))
        return orders
    if isinstance(value, list):
        return [order for item in value for order in _key_orders(item)]
    return []


class TestRecordFields:
    """``record_fields`` is ``dataclasses.asdict`` without the deep copy."""

    @pytest.mark.parametrize("kind", sorted(_RECORD_STRATEGIES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_asdict_in_values_and_key_order(self, kind, data):
        record = data.draw(_RECORD_STRATEGIES[kind])
        row = record_fields(record)
        reference = asdict(record)
        assert row == reference
        assert _key_orders(row) == _key_orders(reference)

    @pytest.mark.parametrize("kind", sorted(_RECORD_STRATEGIES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutating_a_row_leaves_the_record_unchanged(self, kind, data):
        record = data.draw(_RECORD_STRATEGIES[kind])
        before = asdict(record)
        row = record_fields(record)
        for value in row.values():
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, dict):
                        item.clear()
                value.append(-1)
        assert asdict(record) == before

    @settings(max_examples=40, deadline=None)
    @given(dataset=datasets())
    def test_dataset_rows_match_the_asdict_rows(self, dataset):
        reference = [{
            "type": "meta",
            "global_gender": dataset.global_gender,
            "global_age": dataset.global_age,
            "global_country": dataset.global_country,
        }]
        for kind, records in (
            ("campaign", dataset.campaigns.values()),
            ("liker", dataset.likers.values()),
            ("baseline", dataset.baseline),
        ):
            reference.extend({**asdict(record), "type": kind} for record in records)
        rows = list(dataset.iter_rows())
        assert rows == reference
        assert _key_orders(rows) == _key_orders(reference)
