"""The collected dataset and its on-disk format.

The analysis package (Section 4 of the paper) consumes only this dataset —
never the simulator's ground truth — so the separation between what the
platform/crawler could observe and what the simulator knows is enforced by
construction.

Records serialise to JSON Lines.  The paper encrypted its dataset at rest
and analysed only aggregates; we mirror the structure (per-liker public
attributes, per-campaign observations) without any out-of-band fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Tuple, get_args,
    get_origin, get_type_hints,
)

import numpy as np

from repro import failpoints
from repro.osn.columns import as_int32, pack_pairs, unpack_low
from repro.util.durable import ID_BLOB, fsync_dir, fsync_handle


@dataclass(frozen=True, slots=True)
class LikeObservation:
    """A like first observed by the monitor at ``observed_at``."""

    observed_at: int
    user_id: int


@dataclass(slots=True)
class CampaignRecord:
    """Everything the study recorded about one campaign."""

    campaign_id: str
    provider: str
    kind: str
    location_label: str
    budget_label: str
    duration_days: float
    monitored_days: float
    page_id: int
    total_likes: int
    observations: List[LikeObservation] = field(default_factory=list)
    terminated_liker_ids: List[int] = field(default_factory=list)
    inactive: bool = False
    removed_like_count: int = 0  # likes purged by enforcement (Section 5 follow-up)
    total_cost: float = 0.0  # ad spend, or the farm package price (paid up front)

    @property
    def liker_ids(self) -> List[int]:
        """Likers in first-observed order."""
        return [obs.user_id for obs in self.observations]


#: ``LikerRecord.crawl_status`` values.
CRAWL_COMPLETE = "complete"
CRAWL_PARTIAL = "partial"

#: The one array every empty id field of every record holds.
_NO_IDS = np.empty(0, dtype=np.int32)
_NO_IDS.flags.writeable = False


def id_blob(values, what: str) -> bytes:
    """``values`` as :data:`ID_BLOB` bytes, validated as a record's ids are.

    A record's int32 array casts without a copy; anything else goes
    through the same int32 check, so an id that does not fit or is not
    an integer raises :class:`~repro.util.validation.ValidationError`.
    """
    return as_int32(values, what).astype(ID_BLOB, copy=False).tobytes()


def _frozen_ids(values, what: str) -> np.ndarray:
    """``values`` as a read-only int32 array that owns its data.

    An int32 array that owns its data is adopted; a view (a truncated
    crawl response is a prefix of the full one) is copied, so a record
    never keeps a larger array alive.
    """
    ids = as_int32(values, what)
    if ids.shape[0] == 0:
        return _NO_IDS
    if ids.base is not None:
        ids = ids.copy()
    ids.flags.writeable = False
    return ids


@dataclass(eq=False, slots=True)
class LikerRecord:
    """Crawled public information about one liker.

    ``declared_friend_count`` and ``visible_friend_ids`` are None/empty when
    the friend list was private — the crawler's censoring, kept explicit so
    analyses treat friend data as the lower bound the paper says it is.

    ``visible_friend_ids`` and ``liked_page_ids`` are read-only int32
    arrays, ascending as the API returns them.  The constructor converts
    a list and rejects an id outside int32 with
    :class:`~repro.util.validation.ValidationError`; an int32 array that
    owns its data is kept without a copy and made read-only, a view is
    copied, and every empty field holds one shared empty array.  A paper-scale liker has about 115 liked
    pages, so one array per field (a 112-byte header) comes to about
    5 bytes per id, where a list of Python ints takes 36 (an 8-byte
    pointer and a 28-byte int object each).  Records compare equal when
    their fields do, the id arrays by value.

    ``crawl_status`` is ``"complete"`` when every endpoint answered and
    ``"partial"`` when some crawl requests failed permanently;
    ``failed_fields`` then names the lost field groups (``"friends"``,
    ``"likes"``).  Demographics always survive — they come from the
    page-insights reports, not the profile crawl — so a partial record
    still carries gender/age/country.  Analyses must treat a partial
    record's missing fields as *uncrawled*, not as empty.
    """

    user_id: int
    gender: str
    age_bracket: str
    country: str
    friend_list_public: bool
    declared_friend_count: Optional[int]
    visible_friend_ids: np.ndarray = field(default_factory=lambda: _NO_IDS)
    liked_page_ids: np.ndarray = field(default_factory=lambda: _NO_IDS)
    declared_like_count: int = 0
    campaign_ids: List[str] = field(default_factory=list)
    terminated: bool = False
    crawl_status: str = CRAWL_COMPLETE
    failed_fields: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.visible_friend_ids = _frozen_ids(self.visible_friend_ids, "friend id")
        self.liked_page_ids = _frozen_ids(self.liked_page_ids, "page id")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LikerRecord):
            return NotImplemented
        for name, copy in _FIELD_PLANS[LikerRecord]:
            mine, theirs = getattr(self, name), getattr(other, name)
            if copy == "array":
                if not np.array_equal(mine, theirs):
                    return False
            elif mine != theirs:
                return False
        return True

    @property
    def has_friend_data(self) -> bool:
        """Whether the friend crawl completed (public or provably private)."""
        return "friends" not in self.failed_fields

    @property
    def has_like_data(self) -> bool:
        """Whether the liked-pages crawl completed."""
        return "likes" not in self.failed_fields


@dataclass(frozen=True, slots=True)
class BaselineRecord:
    """One user of the random baseline sample (paper Section 4.4)."""

    user_id: int
    declared_like_count: int


def _field_plan(cls: type) -> Tuple[Tuple[str, str], ...]:
    """``(name, copy)`` per field of record class ``cls``, in declaration order.

    ``copy`` comes from the declared field type: ``"array"`` for an id
    array, ``"list"`` for a list of scalars, ``"records"`` for a list of
    records, ``"share"`` otherwise.
    """
    hints = get_type_hints(cls)
    plan = []
    for spec in fields(cls):
        hint = hints[spec.name]
        if hint is np.ndarray:
            copy = "array"
        elif get_origin(hint) is list:
            copy = "records" if is_dataclass(get_args(hint)[0]) else "list"
        else:
            copy = "share"
        plan.append((spec.name, copy))
    return tuple(plan)


_FIELD_PLANS = {
    cls: _field_plan(cls)
    for cls in (LikeObservation, CampaignRecord, LikerRecord, BaselineRecord)
}


def record_fields(record: Any) -> Dict[str, Any]:
    """One dataset record as a row dict: the row format of every sink.

    Equal to ``dataclasses.asdict(record)``, key order included, but
    shallow: list fields are copied with ``list()`` (so no row aliases
    its record) and a list of records (a campaign's observations) is
    encoded item by item, while scalars and a liker's two id arrays are
    shared.  Scalars are immutable and the arrays read-only, so
    ``asdict``'s per-element ``deepcopy`` bought nothing but time, and
    each sink encodes an array a column at a time: the JSONL writer as
    text (:func:`write_jsonl_rows`), the store as int32 bytes, the
    journal as the base64 of those bytes.  ``json.loads`` of a JSONL
    line equals the row with each array as a list, of a journal line
    with each array as its packed text.
    The dataset JSONL, the store export and the checkpoint journal all
    build their rows here, so their formats cannot drift apart.
    """
    row = {}
    for name, copy in _FIELD_PLANS[type(record)]:
        value = getattr(record, name)
        if copy == "list":
            value = list(value)
        elif copy == "records":
            value = [record_fields(item) for item in value]
        row[name] = value
    return row


#: Ids a chunk of buffered liker rows holds before it is encoded; a
#: record with more ids than this is encoded alone.
_ID_CHUNK = 16_384


def _liker_plan() -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    """The liker line's ``%`` format and ``(name, how)`` per field.

    Keys follow ``LikerRecord``'s declaration order with ``"type"`` last,
    as :meth:`HoneypotDataset.iter_rows` builds the row.  ``how`` is
    ``"ids"`` for an id array, ``"int"`` for an ``int`` field and
    ``"json"`` for any other value.
    """
    hints = get_type_hints(LikerRecord)
    parts, plan = [], []
    for name, copy in _FIELD_PLANS[LikerRecord]:
        if copy == "array":
            parts.append(f"{json.dumps(name)}: [%s]")
            plan.append((name, "ids"))
        else:
            parts.append(f"{json.dumps(name)}: %s")
            plan.append((name, "int" if hints[name] is int else "json"))
    parts.append('"type": "liker"')
    return "{" + ", ".join(parts) + "}\n", tuple(plan)


_LIKER_FORMAT, _LIKER_PLAN = _liker_plan()
#: The liker row's id array fields, in declaration order.
LIKER_ID_FIELDS = tuple(name for name, how in _LIKER_PLAN if how == "ids")


def _joined_ids(arrays: List[np.ndarray]) -> List[str]:
    """Each id array as the text between its JSON brackets: ``"3, 1, 4"``.

    One packed ``(id, position)`` sort ranks every id of the chunk, each
    distinct id gets one ``str()``, and one object gather hands every
    position its text; ``str`` of an int is what ``json.dumps`` writes.
    """
    lengths = [len(array) for array in arrays]
    total = sum(lengths)
    if total == 0:
        return [""] * len(arrays)
    ids = as_int32(np.concatenate([array for array in arrays if len(array)]), "id")
    packed = np.empty(total, dtype=np.int64)
    pack_pairs(packed, ids, np.arange(total, dtype=np.int64))
    packed.sort()
    positions = np.empty(total, dtype=np.int32)
    unpack_low(packed, positions)
    packed >>= 32
    first = np.empty(total, dtype=bool)
    first[0] = True
    np.not_equal(packed[1:], packed[:-1], out=first[1:])
    rank = np.empty(total, dtype=np.intp)
    rank[positions] = np.cumsum(first) - 1
    words = np.array([str(value) for value in packed[first].tolist()], dtype=object)
    texts = words[rank].tolist()
    joined = []
    start = 0
    for length in lengths:
        joined.append(", ".join(texts[start:start + length]))
        start += length
    return joined


class _JsonMemo(dict):
    """JSON text per ``(type, value)`` key, encoded on first use.

    A list value is keyed as a tuple, which ``json.dumps`` writes as the
    same array.
    """

    __slots__ = ()

    def __missing__(self, key):
        text = self[key] = json.dumps(key[1])
        return text


def _liker_lines(rows: List[Dict], memo: _JsonMemo) -> List[str]:
    """The JSONL lines of a chunk of liker rows, as ``json.dumps`` writes them.

    Each field is encoded a column at a time: the id arrays through
    :func:`_joined_ids`, an ``int`` column with ``int.__repr__`` and any
    other through ``memo``, so a liker's repeated strings, flags and
    lists are encoded once per write.
    """
    count = len(rows)
    joined = _joined_ids([row[name] for name in LIKER_ID_FIELDS for row in rows])
    columns = []
    for name, how in _LIKER_PLAN:
        if how == "ids":
            columns.append(joined[:count])
            joined = joined[count:]
            continue
        values = [row[name] for row in rows]
        kinds = list(map(type, values))
        if how == "int" and kinds.count(int) == count:
            columns.append(list(map(int.__repr__, values)))
            continue
        if list in kinds:
            values = [tuple(v) if kind is list else v for kind, v in zip(kinds, values)]
        columns.append(list(map(memo.__getitem__, zip(kinds, values))))
    return [_LIKER_FORMAT % parts for parts in zip(*columns)]


def _jsonl_lines(rows: Iterable[Dict]) -> Iterator[str]:
    """The lines of ``rows``: ``json.dumps(row)`` with each id array as a list.

    Liker rows (built by :func:`record_fields`) are buffered up to
    :data:`_ID_CHUNK` ids and encoded a chunk at a time; every other row
    is one ``json.dumps``.  Row order is kept.
    """
    memo = _JsonMemo()
    chunk: List[Dict] = []
    chunk_ids = 0
    for row in rows:
        if row.get("type") == "liker":
            count = sum(len(row[name]) for name in LIKER_ID_FIELDS)
            if chunk and chunk_ids + count > _ID_CHUNK:
                yield from _liker_lines(chunk, memo)
                chunk, chunk_ids = [], 0
            chunk.append(row)
            chunk_ids += count
            continue
        if chunk:
            yield from _liker_lines(chunk, memo)
            chunk, chunk_ids = [], 0
        yield json.dumps(row) + "\n"
    if chunk:
        yield from _liker_lines(chunk, memo)


def write_jsonl_rows(path: Path, rows: Iterable[Dict], tag: str = "dataset") -> None:
    """Atomically and durably write an iterable of row dicts as JSON Lines.

    The one serialisation path every dataset export shares — the in-memory
    :meth:`HoneypotDataset.to_jsonl` and the SQLite-backed
    :meth:`repro.store.HoneypotStore.to_jsonl` both stream their rows
    through here, so "byte-identical exports" is a structural property,
    not a convention.  Each line is ``json.dumps(row)`` with each id array
    as a list; liker rows are encoded a chunk at a time
    (:func:`_jsonl_lines`).  Rows go to a sibling temp file which is fsync'd
    before it replaces ``path``, and the directory entry is fsync'd after
    the rename: a crash mid-write can never leave a truncated dataset
    where a previous good one stood, and a crash immediately after the
    rename cannot surface an empty file (rename alone orders nothing
    against the page cache).
    """
    path = Path(path)
    tmp_path = path.with_name(path.name + ".tmp")
    try:
        with tmp_path.open("w", encoding="utf-8") as handle:
            first = True
            for line in _jsonl_lines(rows):
                if first:
                    first = False
                    failpoints.hit(
                        "durable.write.data",
                        torn=lambda: (
                            handle.write(line[: len(line) // 2]),
                            handle.flush(),
                        ),
                    )
                handle.write(line)
            fsync_handle(handle, tag=tag)
        failpoints.hit("durable.rename", torn=lambda: None)
        tmp_path.replace(path)
        fsync_dir(path.parent, tag=tag)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise


@dataclass
# repro-lint: allow-CKPT001 built in one shot by _collect() after the crawl barrier, never mutated across a barrier; its inputs (monitor snapshots) are journaled write-ahead
class HoneypotDataset:
    """The full study output: campaigns, likers, baseline, global stats."""

    campaigns: Dict[str, CampaignRecord] = field(default_factory=dict)
    likers: Dict[int, LikerRecord] = field(default_factory=dict)
    baseline: List[BaselineRecord] = field(default_factory=list)
    global_gender: Dict[str, float] = field(default_factory=dict)
    global_age: Dict[str, float] = field(default_factory=dict)
    global_country: Dict[str, float] = field(default_factory=dict)

    def campaign(self, campaign_id: str) -> CampaignRecord:
        """Look up a campaign record by id."""
        return self.campaigns[campaign_id]

    def campaign_ids(self) -> List[str]:
        """Campaign ids in insertion (Table 1) order."""
        return list(self.campaigns.keys())

    def likers_of(self, campaign_id: str) -> List[LikerRecord]:
        """Liker records for one campaign, first-observed order."""
        record = self.campaigns[campaign_id]
        return [self.likers[u] for u in record.liker_ids if u in self.likers]

    @property
    def total_likes(self) -> int:
        """Sum of likes across all campaigns (the paper's 6,292)."""
        return sum(c.total_likes for c in self.campaigns.values())

    # -- persistence --------------------------------------------------------------

    def iter_rows(self) -> Iterator[Dict]:
        """The dataset as typed JSONL row dicts, in export order.

        The rows :meth:`to_jsonl` writes, one per line: ``json.loads`` of
        each line equals the row, with arrays as lists.  One ``meta`` row
        comes first, then campaigns in insertion (Table 1) order, likers
        in insertion (first-crawled) order, and the baseline sample.  A
        liker row shares its record's read-only id arrays.  This is also
        the ingest stream :class:`repro.store.HoneypotStore` consumes.
        """
        yield {
            "type": "meta",
            "global_gender": self.global_gender,
            "global_age": self.global_age,
            "global_country": self.global_country,
        }
        for campaign in self.campaigns.values():
            row = record_fields(campaign)
            row["type"] = "campaign"
            yield row
        for liker in self.likers.values():
            row = record_fields(liker)
            row["type"] = "liker"
            yield row
        for record in self.baseline:
            row = record_fields(record)
            row["type"] = "baseline"
            yield row

    def to_jsonl(self, path: Path) -> None:
        """Write the dataset as JSON Lines (one typed record per line).

        Delegates to :func:`write_jsonl_rows` for the atomic, durable
        write (temp file + fsync + rename + directory fsync).
        """
        write_jsonl_rows(path, self.iter_rows())

    @classmethod
    def from_jsonl(
        cls, path: Path, salvage: bool = False, metrics=None
    ) -> "HoneypotDataset":
        """Load a dataset previously written by :meth:`to_jsonl`.

        Raises :class:`ValueError` naming the file, line number, and cause
        when a line is not valid JSON or is not a recognised record — a
        corrupt dataset fails loudly instead of half-loading.

        With ``salvage=True`` (the journal-recovery mode) a torn *final*
        record — the signature of a crash mid-append — is dropped instead:
        loading stops at the last complete line and a ``jsonl_salvage``
        trace event is emitted on ``metrics`` (a
        :class:`~repro.obs.metrics.MetricsRegistry`; optional).  Damage
        anywhere other than the trailing record is corruption, not a torn
        tail, and still raises.
        """
        dataset = cls()
        path = Path(path)
        for row, line_number in iter_jsonl_rows(path, salvage=salvage, metrics=metrics):
            apply_row(dataset, row, source=f"{path}:{line_number}")
        return dataset


def iter_jsonl_rows(
    path: Path, salvage: bool = False, metrics=None
) -> Iterator[tuple]:
    """Stream ``(row, line_number)`` pairs from a dataset JSONL file.

    The parsing half of :meth:`HoneypotDataset.from_jsonl`, shared with
    the store's streaming ingest so both honour the same corruption
    contract: any line that is not a JSON object raises :class:`ValueError`
    naming the file and line.  With ``salvage=True``, *only* a torn final
    line — the crash-mid-append signature — is dropped (with a
    ``jsonl_salvage`` trace event); an unparseable line anywhere before
    valid records is interior corruption and still raises, so salvage can
    never silently swallow data from the middle of a file.

    The file is read one line at a time, so memory stays at one row
    however large the file.  Line numbers and "final line" follow
    :meth:`str.splitlines` of the whole text: a blank line after a torn
    one makes the torn line interior, and it refuses.
    """
    path = Path(path)
    with path.open(encoding="utf-8") as handle:
        lines = (part for raw in handle for part in raw.splitlines())
        for line_number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as error:
                # One line of lookahead: only a line with nothing after it
                # is the file's last.
                if salvage and next(lines, None) is None:
                    if metrics is not None:
                        metrics.trace_event(
                            "jsonl_salvage",
                            path=str(path),
                            line=line_number,
                            reason=error.msg,
                        )
                    return
                raise ValueError(
                    f"{path}:{line_number}: unparseable JSON line ({error.msg})"
                ) from error
            if not isinstance(row, dict):
                # A bare scalar/array parses as JSON but can never be a
                # record; salvage does not apply (a torn record row is a
                # *prefix* of a JSON object and never parses at all).
                raise ValueError(
                    f"{path}:{line_number}: JSONL row is not an object "
                    f"({type(row).__name__})"
                )
            yield row, line_number


def apply_row(dataset: HoneypotDataset, row: Dict, source: str = "<row>") -> None:
    """Apply one typed JSONL row dict to ``dataset``, validating its shape.

    Raises :class:`ValueError` naming ``source`` (``file:line`` when read
    from disk) when the record type is unknown or its fields do not match
    the record schema, an id included that does not fit in int32 — a
    structurally corrupt row fails loudly instead of surfacing as a bare
    ``TypeError`` deep in a dataclass constructor.
    """
    row = dict(row)
    kind = row.pop("type", None)
    if kind not in ("meta", "campaign", "liker", "baseline"):
        raise ValueError(f"{source}: unknown record type {kind!r}")
    try:
        if kind == "meta":
            dataset.global_gender = row["global_gender"]
            dataset.global_age = row["global_age"]
            dataset.global_country = row["global_country"]
        elif kind == "campaign":
            row["observations"] = [
                LikeObservation(**obs) for obs in row["observations"]
            ]
            record = CampaignRecord(**row)
            dataset.campaigns[record.campaign_id] = record
        elif kind == "liker":
            liker = LikerRecord(**row)
            dataset.likers[liker.user_id] = liker
        else:
            dataset.baseline.append(BaselineRecord(**row))
    except (TypeError, KeyError, ValueError) as error:
        raise ValueError(
            f"{source}: malformed {kind!r} record ({error})"
        ) from error
