"""Pins for how each sink encodes the dataset's rows.

A liker row shares its record's read-only int32 id arrays, and each sink
encodes them a column at a time:

* ``write_jsonl_rows`` (the ``--out`` JSONL and the store export) writes
  exactly ``json.dumps`` of each row with its arrays as lists, for any
  chunk bound, a record longer than a chunk included;
* the checkpoint journal (``journal@2``) writes ``json.dumps`` of each
  row with each array as its packed text, the base64 of its
  little-endian int32 bytes; an int32 array of any layout round-trips
  through the journal and its store ingest, any other array is refused,
  a malformed packed field refuses the journal's ingest by user and
  field, and a ``journal@1`` checkpoint is refused on resume and repair;
  replay-verify refuses a replayed record whose text differs from the
  salvaged one, by one id or only by ``true`` against ``1``;
* the store keeps each id array as a little-endian int32 BLOB that
  round-trips to the same export bytes, refuses at ingest an id it could
  not export, and refuses a ``schema@1`` file.
"""

import base64
import json
import sqlite3
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ckpt.errors import CheckpointError
from repro.ckpt.journal import JOURNAL_SCHEMA, DatasetJournal, read_journal, unpack_ids
from repro.cli import main
from repro.honeypot import storage
from repro.honeypot.storage import (
    CRAWL_COMPLETE,
    CRAWL_PARTIAL,
    LIKER_ID_FIELDS,
    BaselineRecord,
    CampaignRecord,
    HoneypotDataset,
    LikeObservation,
    LikerRecord,
    record_fields,
    write_jsonl_rows,
)
from repro.store import HoneypotStore, StoreError
from repro.store.ingest import ingest_journal
from repro.store.schema import DDL, META_SCHEMA_KEY, STORE_SCHEMA
from repro.util.rng import RngStream
from tests.test_checkpoint_resume import BASE_ARGS

INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1

#: Any text a string field may hold: non-ASCII, quotes and backslashes
#: included (no lone surrogates or NULs, which SQLite TEXT cannot hold).
_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=6,
) | st.sampled_from(['"', "\\", 'é"\\', "中文", " ", "%s", "{}"])
_int32 = st.integers(INT32_MIN, INT32_MAX) | st.sampled_from(
    [INT32_MIN, INT32_MAX, -1, 0, 1]
)
_id_lists = st.lists(_int32, max_size=12) | st.lists(
    st.sampled_from([INT32_MIN, -7, 7, INT32_MAX]), max_size=12
)


@st.composite
def liker_records(draw, user_id=_int32):
    return LikerRecord(
        user_id=draw(user_id),
        gender=draw(_text),
        age_bracket=draw(_text),
        country=draw(_text),
        friend_list_public=draw(st.booleans()),
        declared_friend_count=draw(st.none() | st.integers(0, 5000)),
        visible_friend_ids=draw(_id_lists),
        liked_page_ids=draw(_id_lists),
        declared_like_count=draw(st.integers(0, 10**6)),
        campaign_ids=draw(st.lists(_text, max_size=3)),
        terminated=draw(st.booleans()),
        crawl_status=draw(st.sampled_from([CRAWL_COMPLETE, CRAWL_PARTIAL])),
        failed_fields=draw(st.lists(_text, max_size=2)),
    )


def _campaign(campaign_id="C1"):
    return CampaignRecord(
        campaign_id=campaign_id, provider="BoostLikes.com", kind="like_farm",
        location_label="USA", budget_label="$70", duration_days=15,
        monitored_days=22.5, page_id=7, total_likes=1,
        observations=[LikeObservation(observed_at=120, user_id=3)],
        terminated_liker_ids=[3], total_cost=70.0,
    )


def _row(record, kind):
    return {**record_fields(record), "type": kind}


#: Row streams in any order: liker rows interleaved with baseline and
#: campaign rows, which flush a pending liker chunk.
row_streams = st.lists(
    st.one_of(
        liker_records().map(lambda r: _row(r, "liker")),
        st.builds(BaselineRecord, user_id=_int32, declared_like_count=st.integers(0, 99))
        .map(lambda r: _row(r, "baseline")),
        st.just(_row(_campaign(), "campaign")),
    ),
    max_size=12,
).map(lambda rows: [{"type": "meta", "global_gender": {"F": 0.5}}] + rows)


def _as_lists(row):
    """``row`` with each id array as a list: what ``json.loads`` gives back."""
    return {
        name: value.tolist() if isinstance(value, np.ndarray) else value
        for name, value in row.items()
    }


def _reference(rows):
    """The JSONL bytes of ``rows``: ``json.dumps`` with arrays as lists."""
    return "".join(json.dumps(_as_lists(row)) + "\n" for row in rows).encode()


def _packed(ids):
    """An id list's journal text: base64 of its little-endian int32 bytes."""
    return base64.b64encode(struct.pack(f"<{len(ids)}i", *ids)).decode("ascii")


def _journal_reference(rows):
    """The journal lines of ``rows``: ``json.dumps`` with arrays packed."""
    return "".join(
        json.dumps({
            name: _packed(value.tolist()) if isinstance(value, np.ndarray) else value
            for name, value in row.items()
        }) + "\n"
        for row in rows
    ).encode()


def _written(rows, chunk=storage._ID_CHUNK):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        storage, "_ID_CHUNK", chunk
    ):
        path = Path(tmp) / "rows.jsonl"
        write_jsonl_rows(path, rows)
        return path.read_bytes()


def _liker(user_id, friends=(), pages=(), **fields):
    return LikerRecord(
        user_id=user_id, gender="F", age_bracket="18-24", country="US",
        friend_list_public=bool(friends), declared_friend_count=len(friends) or None,
        visible_friend_ids=list(friends), liked_page_ids=list(pages),
        campaign_ids=["C1"], **fields,
    )


class TestJsonlEncoder:
    @pytest.mark.parametrize("chunk", [1, 7, 16_384])
    @settings(max_examples=80, deadline=None)
    @given(rows=row_streams)
    def test_equals_json_dumps(self, chunk, rows):
        assert _written(rows, chunk) == _reference(rows)

    @pytest.mark.parametrize("chunk", [7, 16_384])
    def test_record_longer_than_a_chunk(self, chunk):
        rng = RngStream(5, "ids").generator
        long = rng.integers(INT32_MIN, INT32_MAX, 2 * chunk + 3, endpoint=True)
        long[::5] = 42  # repeated ids share one str() per chunk
        rows = [_row(record, "liker") for record in (
            _liker(1, pages=[3, 4]),
            _liker(2, friends=long[:chunk + 1].tolist(), pages=long.tolist()),
            _liker(3, friends=[INT32_MIN], pages=[INT32_MAX]),
        )]
        assert _written(rows, chunk) == _reference(rows)

    def test_empty_and_missing_counts(self):
        rows = [_row(_liker(9), "liker"), _row(_liker(10, pages=[0]), "liker")]
        assert rows[0]["declared_friend_count"] is None
        assert _written(rows) == _reference(rows)


class TestJournalText:
    @staticmethod
    def _journal(path, rows):
        journal = DatasetJournal.start(path, seed=1, config_hash="h")
        for row in rows:
            journal.append(row)
        journal.close()

    @staticmethod
    def _resume(path):
        return DatasetJournal.resume(
            path, read_journal(path), seed=1, config_hash="h"
        )

    @settings(max_examples=40, deadline=None)
    @given(records=st.lists(liker_records(), max_size=5))
    def test_lines_equal_json_dumps(self, records):
        rows = [{"type": "liker", **record_fields(r)} for r in records]
        rows.append({"type": "baseline", **record_fields(BaselineRecord(4, 2))})
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "journal.jsonl"
            self._journal(path, rows)
            lines = path.read_bytes().splitlines(keepends=True)[1:]
            journal = self._resume(path)
            for row in rows:
                journal.append(row)
            assert journal.replayed == len(rows)
            journal.close()
        assert b"".join(lines) == _journal_reference(rows)

    def test_replay_differing_in_one_id_is_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self._journal(path, [{"type": "liker", **record_fields(_liker(1, pages=[5, 6]))}])
        journal = self._resume(path)
        with pytest.raises(CheckpointError, match="journal divergence at record 0"):
            journal.append({"type": "liker", **record_fields(_liker(1, pages=[5, 7]))})

    def test_replay_of_true_against_1_is_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        row = {"type": "liker", **record_fields(_liker(1, pages=[5], terminated=True))}
        self._journal(path, [{**row, "terminated": 1}])
        assert read_journal(path).records[0]["terminated"] == True  # noqa: E712
        journal = self._resume(path)
        with pytest.raises(CheckpointError, match="journal divergence"):
            journal.append(row)

    def test_only_arrays_are_encoded(self, tmp_path):
        journal = DatasetJournal.start(tmp_path / "j.jsonl", seed=1, config_hash="h")
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            journal.append({"type": "phase", "ids": {1}})
        journal.close()

    def test_int64_array_is_refused_not_wrapped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = DatasetJournal.start(path, seed=1, config_hash="h")
        with pytest.raises(TypeError, match="must be 1-D int32, not int64"):
            journal.append({"type": "liker", "liked_page_ids": np.array([7, 2**31])})
        journal.close()
        assert read_journal(path).records == []


@st.composite
def id_arrays(draw):
    """``(array, ids)``: an int32 array in a layout a row may hand the
    journal (owned, a strided view, big-endian) and the ids it holds."""
    ids = draw(_id_lists)
    layout = draw(st.sampled_from(["owned", "strided", "big-endian"]))
    if layout == "strided":
        wide = np.zeros(2 * len(ids), dtype=np.int32)
        wide[::2] = ids
        array = wide[::2]
        assert not array.flags.c_contiguous or len(ids) <= 1
    elif layout == "big-endian":
        array = np.array(ids, dtype=">i4")
    else:
        array = np.array(ids, dtype=np.int32)
    return array, ids


def _assert_frozen_ids(array, ids):
    assert array.dtype == np.int32 and array.tolist() == ids
    assert not array.flags.writeable


class TestJournalIngest:
    """Packed ids through ``read_journal`` and ``ingest_journal``."""

    @settings(max_examples=40, deadline=None)
    @given(
        records=st.lists(liker_records(), max_size=4, unique_by=lambda r: r.user_id),
        arrays=st.lists(id_arrays(), min_size=8, max_size=8),
    )
    def test_packed_arrays_round_trip(self, records, arrays):
        rows, expected = [], []
        for record, friends, pages in zip(records, arrays[::2], arrays[1::2]):
            row = _row(record, "liker")
            row["visible_friend_ids"], row["liked_page_ids"] = friends[0], pages[0]
            rows.append(row)
            expected.append((friends[1], pages[1]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "journal.jsonl"
            TestJournalText._journal(path, rows)
            for record, ids in zip(read_journal(path).records, expected):
                for name, want in zip(LIKER_ID_FIELDS, ids):
                    _assert_frozen_ids(unpack_ids(record[name]), want)
            with HoneypotStore.create(Path(tmp) / "s.sqlite") as store:
                assert ingest_journal(store, path)["rows"] == len(rows)
                loaded = list(store.iter_likers())
        assert [liker.user_id for liker in loaded] == [r.user_id for r in records]
        for liker, (friends, pages) in zip(loaded, expected):
            _assert_frozen_ids(liker.visible_friend_ids, friends)
            _assert_frozen_ids(liker.liked_page_ids, pages)

    @pytest.mark.parametrize(
        "bad", ["!!!!", "AAA", "AAA=", [7]],
        ids=["not-base64", "odd-length", "two-bytes", "journal@1-list"],
    )
    @pytest.mark.parametrize("field", LIKER_ID_FIELDS)
    def test_malformed_field_is_refused_after_earlier_rows(self, tmp_path, field, bad):
        good = _row(_liker(1_000_000, friends=[7], pages=[9]), "liker")
        broken = {**_row(_liker(1_000_001, friends=[8], pages=[10]), "liker"), field: bad}
        path = tmp_path / "journal.jsonl"
        TestJournalText._journal(path, [good, broken])
        with HoneypotStore.create(tmp_path / "s.sqlite") as store:
            with pytest.raises(
                StoreError, match=rf"liker 1000001: {field} is not packed int32 ids"
            ):
                ingest_journal(store, path)
            assert [liker.user_id for liker in store.iter_likers()] == [1_000_000]


class TestJournalSchemaRefusal:
    """A ``journal@1`` checkpoint (arrays as lists) is refused, exit 3."""

    @pytest.fixture()
    def old_checkpoint(self, tmp_path):
        """A small checkpointed run's directory, store and ``journal@1`` journal."""
        directory, store = tmp_path / "ck", tmp_path / "study.sqlite"
        assert main(BASE_ARGS + [
            "--out", str(tmp_path / "study.jsonl"),
            "--checkpoint-dir", str(directory), "--store", str(store),
        ]) in (0, 1)
        journal = directory / "journal.jsonl"
        lines = [json.loads(line) for line in journal.read_text().splitlines()]
        assert lines[0]["schema"] == JOURNAL_SCHEMA
        lines[0]["schema"] = "repro.ckpt/journal@1"
        likers = [row for row in lines if row.get("type") == "liker"]
        assert likers
        for row in likers:
            for name in LIKER_ID_FIELDS:
                row[name] = unpack_ids(row[name]).tolist()
        journal.write_text("".join(json.dumps(row) + "\n" for row in lines))
        return directory, store, journal

    @staticmethod
    def _assert_refused(capsys):
        err = capsys.readouterr().err
        assert "'repro.ckpt/journal@1'" in err and f"'{JOURNAL_SCHEMA}'" in err, err

    def test_resume_refuses(self, tmp_path, capsys, old_checkpoint):
        directory, _, journal = old_checkpoint
        before = journal.read_bytes()
        capsys.readouterr()
        out = tmp_path / "resumed.jsonl"
        assert main(BASE_ARGS + ["--out", str(out), "--resume", str(directory)]) == 3
        self._assert_refused(capsys)
        assert journal.read_bytes() == before
        assert not out.exists()

    def test_repair_refuses(self, capsys, old_checkpoint):
        _, store, journal = old_checkpoint
        before = store.read_bytes()
        capsys.readouterr()
        assert main(["query", str(store), "repair", "--journal", str(journal)]) == 3
        self._assert_refused(capsys)
        assert store.read_bytes() == before
        assert not store.with_name(store.name + ".repair").exists()


class TestStoreBlobs:
    @settings(max_examples=40, deadline=None)
    @given(records=st.lists(liker_records(), max_size=5, unique_by=lambda r: r.user_id))
    def test_round_trip(self, records):
        dataset = HoneypotDataset(
            campaigns={"C1": _campaign()},
            likers={record.user_id: record for record in records},
            baseline=[BaselineRecord(3, 1)],
            global_gender={"F": 0.5}, global_age={"18-24": 1.0},
            global_country={"US": 1.0},
        )
        with tempfile.TemporaryDirectory() as tmp:
            direct = Path(tmp) / "direct.jsonl"
            dataset.to_jsonl(direct)
            for ingest in ("dataset", "jsonl"):
                with HoneypotStore.create(Path(tmp) / f"{ingest}.sqlite") as store:
                    if ingest == "dataset":
                        store.ingest_dataset(dataset)
                    else:
                        store.ingest_jsonl(direct)
                    blobs = store._db.execute(
                        "SELECT visible_friend_ids, liked_page_ids FROM likers ORDER BY seq"
                    ).fetchall()
                    loaded = list(store.iter_likers())
                    store.to_jsonl(Path(tmp) / "export.jsonl")
                assert (Path(tmp) / "export.jsonl").read_bytes() == direct.read_bytes()
                assert blobs == [
                    tuple(
                        struct.pack(f"<{len(ids)}i", *ids.tolist())
                        for ids in (r.visible_friend_ids, r.liked_page_ids)
                    )
                    for r in records
                ]
                assert loaded == records
                for liker in loaded:
                    for ids in (liker.visible_friend_ids, liker.liked_page_ids):
                        assert ids.dtype == np.int32 and ids.base is None
                        assert not ids.flags.writeable

    def test_schema_1_file_is_refused(self, tmp_path):
        path = tmp_path / "old.sqlite"
        db = sqlite3.connect(str(path))
        db.executescript(DDL.replace("BLOB", "TEXT"))
        db.execute("INSERT INTO meta VALUES (?, ?)", (META_SCHEMA_KEY, "repro.store/schema@1"))
        db.commit()
        db.close()
        assert STORE_SCHEMA == "repro.store/schema@2"
        with pytest.raises(StoreError, match="'repro.store/schema@1'.*refusing to guess"):
            HoneypotStore.open(path)


class TestStoreRefusesIds:
    """An id the store could not export is refused at ingest, row and all."""

    @pytest.mark.parametrize("bad", [2**31, INT32_MIN - 1, 1.5], ids=["above", "below", "float"])
    @pytest.mark.parametrize("field", ["liked_page_ids", "visible_friend_ids"])
    def test_refused(self, tmp_path, field, bad):
        good = _as_lists(_row(_liker(1_000_000, friends=[7], pages=[9]), "liker"))
        wide = {**good, "user_id": 1_000_001, field: [9_000_000, bad]}
        path = tmp_path / "rows.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in (good, wide)))
        with HoneypotStore.create(tmp_path / "s.sqlite") as store:
            with pytest.raises(StoreError, match=rf"liker 1000001: .* {bad!r} is not"):
                store.ingest_jsonl(path)
            assert [liker.user_id for liker in store.iter_likers()] == [1_000_000]
            store.to_jsonl(tmp_path / "export.jsonl")
        assert len((tmp_path / "export.jsonl").read_text().splitlines()) == 2
