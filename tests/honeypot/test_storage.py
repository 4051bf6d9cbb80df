"""Tests for repro.honeypot.storage (including the JSONL round trip)."""

import pytest

from repro.honeypot.storage import (
    CRAWL_PARTIAL,
    BaselineRecord,
    CampaignRecord,
    HoneypotDataset,
    LikeObservation,
    LikerRecord,
    iter_jsonl_rows,
)


def make_dataset():
    dataset = HoneypotDataset()
    dataset.global_gender = {"F": 0.46, "M": 0.54}
    dataset.global_age = {"13-17": 0.149, "18-24": 0.323}
    dataset.global_country = {"US": 0.14}
    dataset.campaigns["C1"] = CampaignRecord(
        campaign_id="C1",
        provider="Facebook.com",
        kind="facebook_ads",
        location_label="USA",
        budget_label="$6/day",
        duration_days=15,
        monitored_days=22.0,
        page_id=900,
        total_likes=2,
        observations=[
            LikeObservation(observed_at=120, user_id=1),
            LikeObservation(observed_at=240, user_id=2),
        ],
        terminated_liker_ids=[2],
    )
    dataset.likers[1] = LikerRecord(
        user_id=1, gender="F", age_bracket="18-24", country="US",
        friend_list_public=True, declared_friend_count=150,
        visible_friend_ids=[2, 7], liked_page_ids=[900, 901],
        declared_like_count=700, campaign_ids=["C1"],
    )
    dataset.likers[2] = LikerRecord(
        user_id=2, gender="M", age_bracket="13-17", country="IN",
        friend_list_public=False, declared_friend_count=None,
        terminated=True, campaign_ids=["C1"],
    )
    dataset.baseline = [BaselineRecord(user_id=50, declared_like_count=30)]
    return dataset


class TestDatasetAccessors:
    def test_campaign_lookup(self):
        dataset = make_dataset()
        assert dataset.campaign("C1").provider == "Facebook.com"
        assert dataset.campaign_ids() == ["C1"]

    def test_liker_ids_in_observation_order(self):
        dataset = make_dataset()
        assert dataset.campaign("C1").liker_ids == [1, 2]

    def test_likers_of(self):
        dataset = make_dataset()
        likers = dataset.likers_of("C1")
        assert [liker.user_id for liker in likers] == [1, 2]

    def test_total_likes(self):
        assert make_dataset().total_likes == 2


class TestJsonlRoundTrip:
    def test_round_trip_equal(self, tmp_path):
        dataset = make_dataset()
        path = tmp_path / "study.jsonl"
        dataset.to_jsonl(path)
        loaded = HoneypotDataset.from_jsonl(path)
        assert loaded.global_gender == dataset.global_gender
        assert loaded.global_age == dataset.global_age
        assert loaded.campaign_ids() == dataset.campaign_ids()
        assert loaded.campaign("C1") == dataset.campaign("C1")
        assert loaded.likers == dataset.likers
        assert loaded.baseline == dataset.baseline

    def test_file_is_json_lines(self, tmp_path):
        import json
        path = tmp_path / "study.jsonl"
        make_dataset().to_jsonl(path)
        lines = path.read_text().strip().splitlines()
        kinds = [json.loads(line)["type"] for line in lines]
        assert kinds[0] == "meta"
        assert kinds.count("campaign") == 1
        assert kinds.count("liker") == 2
        assert kinds.count("baseline") == 1

    def test_unknown_record_type_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(Exception):
            HoneypotDataset.from_jsonl(path)

    def test_blank_lines_skipped(self, tmp_path):
        dataset = make_dataset()
        path = tmp_path / "study.jsonl"
        dataset.to_jsonl(path)
        path.write_text(path.read_text() + "\n\n")
        loaded = HoneypotDataset.from_jsonl(path)
        assert loaded.total_likes == dataset.total_likes

    def test_small_study_round_trip(self, tmp_path, small_dataset):
        path = tmp_path / "full.jsonl"
        small_dataset.to_jsonl(path)
        loaded = HoneypotDataset.from_jsonl(path)
        assert loaded.total_likes == small_dataset.total_likes
        assert loaded.campaign_ids() == small_dataset.campaign_ids()
        assert len(loaded.likers) == len(small_dataset.likers)
        assert len(loaded.baseline) == len(small_dataset.baseline)

    def test_partial_liker_round_trip(self, tmp_path):
        # A degraded crawl (crawl_status="partial") must survive the round
        # trip with its failed-field annotations intact.
        dataset = make_dataset()
        dataset.likers[3] = LikerRecord(
            user_id=3, gender="F", age_bracket="25-34", country="TR",
            friend_list_public=False, declared_friend_count=None,
            campaign_ids=["C1"],
            crawl_status=CRAWL_PARTIAL, failed_fields=["friends", "likes"],
        )
        path = tmp_path / "partial.jsonl"
        dataset.to_jsonl(path)
        loaded = HoneypotDataset.from_jsonl(path)
        liker = loaded.likers[3]
        assert liker.crawl_status == CRAWL_PARTIAL
        assert liker.failed_fields == ["friends", "likes"]
        assert not liker.has_friend_data and not liker.has_like_data

    def test_poll_gap_campaign_round_trip(self, tmp_path):
        # A campaign whose declared total exceeds its observations (polls
        # lost to crawl faults) round-trips without reconciling the two.
        dataset = make_dataset()
        record = dataset.campaigns["C1"]
        record.total_likes = 10  # 8 likes were never observed
        path = tmp_path / "gaps.jsonl"
        dataset.to_jsonl(path)
        loaded = HoneypotDataset.from_jsonl(path)
        assert loaded.campaign("C1").total_likes == 10
        assert len(loaded.campaign("C1").observations) == 2


class TestJsonlRobustness:
    def test_write_is_atomic_on_failure(self, tmp_path):
        # A write that blows up mid-stream must leave the previous good
        # file untouched (temp file + rename, never truncate-in-place).
        path = tmp_path / "study.jsonl"
        good = make_dataset()
        good.to_jsonl(path)
        before = path.read_text()
        bad = make_dataset()
        bad.global_gender = {"F": object()}  # not JSON serialisable
        with pytest.raises(TypeError):
            bad.to_jsonl(path)
        assert path.read_text() == before
        assert not (tmp_path / "study.jsonl.tmp").exists()

    def test_unparseable_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        good = make_dataset()
        good.to_jsonl(path)
        lines = path.read_text().splitlines()
        lines[2] = '{"type": "liker", "user_id": 1, TRUNCATED'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"corrupt\.jsonl:3: unparseable"):
            HoneypotDataset.from_jsonl(path)

    def test_unknown_record_type_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta", "global_gender": {}, '
                        '"global_age": {}, "global_country": {}}\n'
                        '{"type": "mystery"}\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2: unknown record type 'mystery'"):
            HoneypotDataset.from_jsonl(path)

    def test_missing_type_field_rejected(self, tmp_path):
        path = tmp_path / "untyped.jsonl"
        path.write_text('{"user_id": 1}\n')
        with pytest.raises(ValueError, match="unknown record type None"):
            HoneypotDataset.from_jsonl(path)

    def test_non_object_row_rejected(self, tmp_path):
        # Valid JSON that is not an object is corruption, not a record.
        path = tmp_path / "scalar.jsonl"
        path.write_text('{"type": "meta", "global_gender": {}, '
                        '"global_age": {}, "global_country": {}}\n'
                        '[1, 2, 3]\n')
        with pytest.raises(ValueError, match=r"scalar\.jsonl:2: .*not an object"):
            HoneypotDataset.from_jsonl(path)

    def test_malformed_record_names_file_and_line(self, tmp_path):
        # A parseable row missing required record fields must surface as a
        # ValueError naming the source line, not a raw TypeError/KeyError.
        path = tmp_path / "partial.jsonl"
        path.write_text('{"type": "meta", "global_gender": {}, '
                        '"global_age": {}, "global_country": {}}\n'
                        '{"type": "liker", "user_id": 7}\n')
        with pytest.raises(ValueError, match=r"partial\.jsonl:2: malformed 'liker'"):
            HoneypotDataset.from_jsonl(path)

    @pytest.mark.parametrize(
        "ids", ["5", '["x"]', "[[1, 2]]", "[1.5]", '["5"]', "[true]"]
    )
    def test_id_field_not_a_list_of_ids_names_line(self, tmp_path, ids):
        path = tmp_path / "ids.jsonl"
        path.write_text('{"type": "liker", "user_id": 7, "gender": "F", '
                        '"age_bracket": "18-24", "country": "US", '
                        '"friend_list_public": false, '
                        '"declared_friend_count": null, '
                        f'"liked_page_ids": {ids}}}\n')
        with pytest.raises(ValueError, match=r"ids\.jsonl:1: malformed 'liker'"):
            HoneypotDataset.from_jsonl(path)


class TestDurability:
    def test_to_jsonl_fsyncs_file_and_directory(self, tmp_path):
        from repro.util.durable import FSYNC_COUNTS

        before = FSYNC_COUNTS.get("dataset", 0)
        make_dataset().to_jsonl(tmp_path / "out.jsonl")
        # one fsync for the temp file's contents, one for the rename's
        # directory entry — rename alone does not order against the cache
        assert FSYNC_COUNTS.get("dataset", 0) == before + 2

    def test_salvage_drops_a_torn_final_record(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import EventTrace

        path = tmp_path / "out.jsonl"
        dataset = make_dataset()
        dataset.to_jsonl(path)
        with path.open("a") as handle:
            handle.write('{"kind": "liker", "user_id')  # the kill landed here
        metrics = MetricsRegistry(trace=EventTrace())
        salvaged = HoneypotDataset.from_jsonl(path, salvage=True, metrics=metrics)
        assert set(salvaged.likers) == set(dataset.likers)
        assert salvaged.campaigns.keys() == dataset.campaigns.keys()
        events = [e for e in metrics.trace.events if e.kind == "jsonl_salvage"]
        assert len(events) == 1
        assert events[0].fields["line"] > 1

    def test_torn_final_record_refuses_without_salvage(self, tmp_path):
        path = tmp_path / "out.jsonl"
        make_dataset().to_jsonl(path)
        with path.open("a") as handle:
            handle.write('{"kind": "liker"')
        with pytest.raises(ValueError):
            HoneypotDataset.from_jsonl(path)

    def test_salvage_does_not_mask_midfile_corruption(self, tmp_path):
        path = tmp_path / "out.jsonl"
        make_dataset().to_jsonl(path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:-5]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            HoneypotDataset.from_jsonl(path, salvage=True)

    def test_salvage_refuses_a_torn_interior_line(self, tmp_path):
        # Only a torn *final* line is the crash-mid-append signature; a
        # torn line followed by intact records means real corruption and
        # must refuse even under salvage, naming the damaged line.
        path = tmp_path / "out.jsonl"
        make_dataset().to_jsonl(path)
        lines = path.read_text().splitlines()
        torn_at = len(lines) - 1  # second-to-last record, 1-indexed
        lines[torn_at - 1] = lines[torn_at - 1][:20]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            ValueError, match=rf"out\.jsonl:{torn_at}: unparseable"
        ):
            HoneypotDataset.from_jsonl(path, salvage=True)

    def test_salvage_refuses_a_torn_line_before_a_trailing_blank(self, tmp_path):
        # The final line is the blank one, so the torn record before it is
        # interior: a lookahead that skipped blank lines would salvage it.
        path = tmp_path / "out.jsonl"
        make_dataset().to_jsonl(path)
        torn_at = len(path.read_text().splitlines()) + 1
        with path.open("a") as handle:
            handle.write('{"kind": "liker", "user_id\n\n')
        with pytest.raises(
            ValueError, match=rf"out\.jsonl:{torn_at}: unparseable"
        ):
            HoneypotDataset.from_jsonl(path, salvage=True)

    def test_loading_holds_one_row_not_the_file(self, tmp_path):
        import tracemalloc

        dataset = make_dataset()
        for user_id in range(100, 2100):
            dataset.likers[user_id] = LikerRecord(
                user_id=user_id, gender="F", age_bracket="18-24",
                country="US", friend_list_public=False,
                declared_friend_count=None,
                liked_page_ids=list(range(1000, 1300)), campaign_ids=["C1"],
            )
        path = tmp_path / "big.jsonl"
        dataset.to_jsonl(path)
        size = path.stat().st_size
        rows = iter_jsonl_rows(path)
        tracemalloc.start()
        try:
            for _ in rows:
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size > 2_000_000
        assert peak < size // 10
