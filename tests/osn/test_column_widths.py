"""Layout pin for the stores that grow with ``--scale``.

Every user id, page id and minute timestamp fits in 32 bits, so the like
log, the friendship graph and the crawled liker records hold them as
int32.  The layout classes pin the bytes per stored row after a seeded
small study, and that neither like-log index sorts anything there: the
build's rows are already in user order, and every page query is for a
honeypot page above the build's pages.  The chronology class pins the
like log's order check, which scans the time column instead of asking
the page index.  The never-wrap classes pin that a value outside int32
is rejected whole instead of wrapping.
"""

import json
import sys
from unittest import mock

import numpy as np
import pytest

from repro.honeypot.storage import HoneypotDataset, LikerRecord, record_fields
from repro.honeypot.study import HoneypotStudy, StudyConfig
from repro.osn import columns
from repro.osn.columns import ColumnIndex
from repro.osn.events import LikeEvent, LikeLog
from repro.osn.faults import FaultProfile
from repro.osn.graph import FriendshipGraph
from repro.util.validation import ValidationError

TOO_WIDE = 2**31


class TestStudyLayout:
    @pytest.fixture()
    def network(self, small_artifacts):
        return small_artifacts.network

    def test_like_log_holds_12_bytes_per_event(self, network):
        log = network.likes
        assert len(log) > 0
        columns = (log._users, log._pages, log._times)
        assert sum(column.values().nbytes for column in columns) == 12 * len(log)

    def test_indexes_sort_nothing(self, small_artifacts):
        log = small_artifacts.network.likes
        page_index, user_index = log._page_index, log._user_index
        # the page index compiled over the build, and every page it was
        # asked for is a honeypot page above the build's pages
        assert page_index._compiled_n > 0
        assert min(small_artifacts.page_ids.values()) > page_index._key_range[1]
        assert held_arrays(page_index) == {}
        # the build's rows are in user order: the user index keeps one
        # key and one start per run, and no row permutation
        assert user_index._prefix_sorted
        held = held_arrays(user_index)
        assert sorted(held) == ["_starts", "_unique"]
        # scalar lookups search the key table with a Python int
        assert held["_unique"].dtype == held["_starts"].dtype == np.int64
        assert held["_starts"].shape[0] == held["_unique"].shape[0] + 1

    def test_graph_per_edge_arrays_hold_4_bytes_per_element(self, network):
        graph = network.graph
        per_row = {
            "_edge_a": graph._edge_a.values(),
            "_edge_b": graph._edge_b.values(),
            "_explicit_nodes": graph._explicit_nodes.values(),
            "_c_neighbors": graph._c_neighbors,
            "_c_pair_lo": graph._c_pair_lo,
            "_c_pair_hi": graph._c_pair_hi,
        }
        for name, values in per_row.items():
            assert values.size > 0, name
            assert values.nbytes == 4 * values.size, name
        assert graph._c_nodes.dtype == np.int64


def held_arrays(index):
    """The NumPy arrays an index holds, by slot name."""
    slots = {slot: getattr(index, slot) for slot in ColumnIndex.__slots__}
    return {slot: a for slot, a in slots.items() if isinstance(a, np.ndarray)}


def log_lengths(log):
    return (len(log), len(log._users), len(log._pages), len(log._times))


PAGES = [9_000_000 + row for row in range(7)]
OTHER_PAGE = 9_000_050


def log_with_one_later_event(later_at):
    """Seven pages at time 2, except the one at row ``later_at``, at 9."""
    log = LikeLog()
    for row, page in enumerate(PAGES):
        time = 9 if row == later_at else 2
        log.record(LikeEvent(user_id=1_000_000 + row, page_id=page, time=time))
    return log


WRITES_AT_5 = {
    "record": lambda log, page: log.record(
        LikeEvent(user_id=1_000_100, page_id=page, time=5)
    ),
    "record_arrays": lambda log, page: log.record_arrays(
        np.array([1_000_100, 1_000_101]), np.array([OTHER_PAGE, page]), 5
    ),
}


class TestChronologyScan:
    """A write below the newest time is checked by a chunked time scan."""

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("later_at", range(len(PAGES)))
    @pytest.mark.parametrize("write", WRITES_AT_5.values(), ids=WRITES_AT_5.keys())
    def test_refuses_only_the_page_with_a_later_event(self, chunk, later_at, write):
        with mock.patch.object(columns, "_COMPILE_CHUNK", chunk):
            log = log_with_one_later_event(later_at)
            before = log_lengths(log)
            with pytest.raises(ValidationError, match="chronological order"):
                write(log, PAGES[later_at])
            assert log_lengths(log) == before
            for page in PAGES:
                if page != PAGES[later_at]:
                    write(log, page)
            assert len(log) > before[0]
            assert log_lengths(log) == (len(log),) * 4
        # the check never asked the page index
        assert log._page_index._key_range is None
        assert held_arrays(log._page_index) == {}


def graph_lengths(graph):
    return (
        len(graph._edge_a),
        len(graph._edge_b),
        len(graph._explicit_nodes),
        graph.edge_count,
        graph.node_count,
    )


def seeded_log():
    log = LikeLog()
    log.record_arrays(np.array([1_000_000, 1_000_001]), np.array([9_000_000, 9_000_001]), 5)
    return log


def seeded_graph():
    graph = FriendshipGraph()
    graph.add_friendship_arrays(np.array([1_000_000]), np.array([1_000_001]))
    return graph


class TestNarrowingNeverWraps:
    @pytest.mark.parametrize(
        "write",
        [
            lambda log: log.record_arrays(
                np.array([1_000_002, TOO_WIDE]), np.array([9_000_000, 9_000_001]), 6
            ),
            lambda log: log.record(LikeEvent(user_id=TOO_WIDE, page_id=9_000_000, time=6)),
        ],
        ids=["record_arrays", "record"],
    )
    def test_user_id(self, write):
        log = seeded_log()
        before = log_lengths(log)
        with pytest.raises(ValidationError, match="user id 2147483648"):
            write(log)
        assert log_lengths(log) == before

    @pytest.mark.parametrize(
        "write",
        [
            lambda log: log.record_arrays(
                np.array([1_000_002]), np.array([9_000_000]), TOO_WIDE
            ),
            lambda log: log.record(LikeEvent(user_id=1_000_002, page_id=9_000_000, time=TOO_WIDE)),
        ],
        ids=["record_arrays", "record"],
    )
    def test_time(self, write):
        log = seeded_log()
        before = log_lengths(log)
        with pytest.raises(ValidationError, match="like time 2147483648"):
            write(log)
        assert log_lengths(log) == before

    def test_page_id(self):
        log = seeded_log()
        before = log_lengths(log)
        with pytest.raises(ValidationError, match="page id 2147483648"):
            log.record_arrays(np.array([1_000_002, 1_000_003]), np.array([9_000_000, TOO_WIDE]), 6)
        assert log_lengths(log) == before

    @pytest.mark.parametrize(
        "write",
        [
            lambda graph: graph.add_friendship_arrays(
                np.array([1_000_002, 1_000_003]), np.array([1_000_000, TOO_WIDE])
            ),
            lambda graph: graph.add_friendship(1_000_000, TOO_WIDE),
            lambda graph: graph.add_friendship(TOO_WIDE, 1_000_000),
        ],
        ids=["add_friendship_arrays", "add_friendship_b", "add_friendship_a"],
    )
    def test_edge_endpoint(self, write):
        graph = seeded_graph()
        before = graph_lengths(graph)
        with pytest.raises(ValidationError, match="friendship endpoint 2147483648"):
            write(graph)
        assert graph_lengths(graph) == before

    @pytest.mark.parametrize(
        "write",
        [
            lambda graph: graph.add_users_bulk([1_000_002, TOO_WIDE]),
            lambda graph: graph.add_user(TOO_WIDE),
        ],
        ids=["add_users_bulk", "add_user"],
    )
    def test_node(self, write):
        graph = seeded_graph()
        before = graph_lengths(graph)
        with pytest.raises(ValidationError, match="user id 2147483648"):
            write(graph)
        assert graph_lengths(graph) == before

    def test_int32_bounds_still_fit(self):
        log = seeded_log()
        log.record_arrays(np.array([TOO_WIDE - 1]), np.array([9_000_000]), TOO_WIDE - 1)
        assert log.for_user(TOO_WIDE - 1)[0].time == TOO_WIDE - 1
        graph = seeded_graph()
        graph.add_friendship(1_000_000, TOO_WIDE - 1)
        assert graph.are_friends(TOO_WIDE - 1, 1_000_000)


def id_arrays(dataset):
    return [
        ids
        for liker in dataset.likers.values()
        for ids in (liker.visible_friend_ids, liker.liked_page_ids)
    ]


@pytest.fixture(scope="module")
def truncated_dataset():
    """The small study with every list response truncated.

    The resilient client runs out of retries and keeps the longest
    partial, a prefix view of the full response.
    """
    config = StudyConfig.small()
    config.fault_profile = FaultProfile(truncation_rate=1.0)
    dataset = HoneypotStudy(config).run().dataset
    assert any(
        0 < liker.liked_page_ids.size < liker.declared_like_count
        for liker in dataset.likers.values()
    )
    return dataset


@pytest.fixture(params=["small_dataset", "truncated_dataset"])
def crawled(request):
    return request.getfixturevalue(request.param)


class TestCrawledRecordLayout:
    def test_id_arrays_are_read_only_int32(self, crawled):
        arrays = id_arrays(crawled)
        assert arrays
        for ids in arrays:
            assert ids.dtype == np.int32
            assert not ids.flags.writeable
            # owns its data: no record keeps a larger array alive
            assert ids.base is None

    def test_under_8_bytes_per_id_headers_included(self, crawled):
        arrays = id_arrays(crawled)
        count = sum(ids.size for ids in arrays)
        assert count > 0
        # every empty field holds the same array, so count each array once
        held = sum(sys.getsizeof(ids) for ids in {id(a): a for a in arrays}.values())
        assert held < 8 * count


def liker_record(**ids):
    return LikerRecord(
        user_id=1_000_000,
        gender="F",
        age_bracket="18-24",
        country="US",
        friend_list_public=True,
        declared_friend_count=2,
        **ids,
    )


class TestCrawledRecordsNeverWrap:
    @pytest.mark.parametrize(
        "field, what",
        [("liked_page_ids", "page id"), ("visible_friend_ids", "friend id")],
    )
    def test_record_refuses_id(self, field, what):
        with pytest.raises(ValidationError, match=f"{what} 2147483648"):
            liker_record(**{field: [1_000_001, TOO_WIDE]})

    def test_from_jsonl_names_file_and_line(self, tmp_path):
        row = {"type": "liker", **record_fields(liker_record(liked_page_ids=[9_000_000]))}
        wide = {**row, "user_id": 1_000_001, "liked_page_ids": [9_000_000, TOO_WIDE]}
        path = tmp_path / "wide.jsonl"
        lines = (json.dumps(r, default=lambda ids: ids.tolist()) for r in (row, wide))
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(
            ValueError, match=r"wide\.jsonl:2: malformed 'liker' record \(page id 2147483648"
        ):
            HoneypotDataset.from_jsonl(path)

    def test_int32_bounds_still_fit(self, tmp_path):
        record = liker_record(
            visible_friend_ids=[TOO_WIDE - 1], liked_page_ids=[-(2**31), TOO_WIDE - 1]
        )
        assert record.visible_friend_ids.tolist() == [TOO_WIDE - 1]
        assert record.liked_page_ids.tolist() == [-(2**31), TOO_WIDE - 1]
        dataset = HoneypotDataset(likers={record.user_id: record})
        path = tmp_path / "bounds.jsonl"
        dataset.to_jsonl(path)
        assert HoneypotDataset.from_jsonl(path).likers == dataset.likers
