"""The SQLite-backed dataset store.

:class:`HoneypotStore` is the queryable, append-friendly counterpart of
the in-memory :class:`~repro.honeypot.storage.HoneypotDataset`: the same
records, held in indexed tables instead of dicts, so the analyses can run
as SQL/incremental queries over millions of liker records without holding
the corpus in memory, and an ingest stream (a finished dataset, a study
JSONL file, a checkpoint WAL, a shard merge) lands in batched
transactions instead of one giant object graph.

Guarantees:

* **Byte-identical export.** :meth:`HoneypotStore.to_jsonl` streams rows
  through the same :func:`~repro.honeypot.storage.write_jsonl_rows`
  serialiser as the legacy path, in the same order (meta, campaigns,
  likers, baseline), reconstructing each record through the same
  dataclasses — so a store built from a run exports the exact bytes
  ``HoneypotDataset.to_jsonl`` would have written (pinned by
  ``tests/store/``).
* **Schema versioning.** Every store file carries
  :data:`~repro.store.schema.STORE_SCHEMA` in its ``meta`` table; opening
  a file with a different tag (or no tag) is a
  :class:`~repro.store.errors.StoreError`, never a guess.
* **Observability.** Every ingest and query counts rows per table into
  ``store.rows_written.<table>`` / ``store.rows_read.<table>`` counters
  on the registry it was given (the shared no-op registry by default).
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import failpoints
from repro.honeypot.storage import (
    BaselineRecord,
    CampaignRecord,
    HoneypotDataset,
    LikeObservation,
    LikerRecord,
    iter_jsonl_rows,
    record_fields,
    write_jsonl_rows,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.store.errors import StoreError
from repro.store.schema import (
    DDL,
    META_GLOBALS_KEYS,
    META_ROWCOUNTS_KEY,
    META_SCHEMA_KEY,
    STORE_SCHEMA,
    TABLES,
)
from repro.util.durable import sweep_stale_tmp

#: Rows buffered per table before a batched ``executemany`` flush.
BATCH_SIZE = 2000

_CAMPAIGN_COLUMNS = (
    "campaign_id", "provider", "kind", "location_label", "budget_label",
    "duration_days", "monitored_days", "page_id", "total_likes",
    "inactive", "removed_like_count", "total_cost",
)
_LIKER_COLUMNS = (
    "user_id", "gender", "age_bracket", "country", "friend_list_public",
    "declared_friend_count", "visible_friend_ids", "liked_page_ids",
    "declared_like_count", "terminated", "crawl_status", "failed_fields",
)


class HoneypotStore:
    """One study dataset, stored as indexed SQLite tables."""

    def __init__(
        self,
        connection: sqlite3.Connection,
        path: Path,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._db = connection
        self.path = Path(path)
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.rows_written: Dict[str, int] = {}
        self.rows_read: Dict[str, int] = {}

    # -- lifecycle ----------------------------------------------------------------

    @classmethod
    def create(
        cls, path: Path, metrics: Optional[MetricsRegistry] = None
    ) -> "HoneypotStore":
        """Create a fresh store file; refuses to overwrite an existing one."""
        path = Path(path)
        if path.exists():
            raise StoreError(
                f"{path} already exists; delete it or open() it instead of "
                "creating over it"
            )
        db = cls._connect(path)
        db.executescript(DDL)
        db.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?)",
            (META_SCHEMA_KEY, STORE_SCHEMA),
        )
        for key in META_GLOBALS_KEYS:
            db.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?)", (key, "{}")
            )
        db.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?)",
            (META_ROWCOUNTS_KEY, json.dumps({table: 0 for table in TABLES})),
        )
        db.commit()
        return cls(db, path, metrics=metrics)

    @classmethod
    def open(
        cls, path: Path, metrics: Optional[MetricsRegistry] = None
    ) -> "HoneypotStore":
        """Open an existing store, verifying its schema version."""
        path = Path(path)
        # A crash mid-rebuild (repair, export) strands sibling temp files;
        # the store file itself is the committed version, so they are
        # garbage — sweep, never read.
        sweep_stale_tmp(path.parent, pattern=path.name + ".tmp")
        sweep_stale_tmp(path.parent, pattern=path.name + ".repair")
        if not path.exists():
            raise StoreError(f"store file not found: {path}")
        try:
            failpoints.hit("store.open")
            db = cls._connect(path)
        except (sqlite3.DatabaseError, OSError) as error:
            raise StoreError(f"{path} is not a honeypot store ({error})") from error
        try:
            row = db.execute(
                "SELECT value FROM meta WHERE key = ?", (META_SCHEMA_KEY,)
            ).fetchone()
        except sqlite3.DatabaseError as error:
            db.close()
            raise StoreError(f"{path} is not a honeypot store ({error})") from error
        if row is None or row[0] != STORE_SCHEMA:
            found = None if row is None else row[0]
            db.close()
            raise StoreError(
                f"{path} has store schema {found!r}, this build reads "
                f"{STORE_SCHEMA!r}; refusing to guess across formats"
            )
        return cls(db, path, metrics=metrics)

    @staticmethod
    def _connect(path: Path) -> sqlite3.Connection:
        # Explicit transaction control: ingest batches open their own
        # BEGIN/COMMIT frames, queries run autocommit reads.
        db = sqlite3.connect(str(path), isolation_level=None)
        db.execute("PRAGMA foreign_keys = OFF")
        db.execute("PRAGMA synchronous = NORMAL")
        return db

    def close(self) -> None:
        """Close the underlying connection."""
        self._db.close()

    def __enter__(self) -> "HoneypotStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- accounting ---------------------------------------------------------------

    def _wrote(self, table: str, n: int) -> None:
        if n:
            self.rows_written[table] = self.rows_written.get(table, 0) + n
            self.metrics.inc(f"store.rows_written.{table}", n)

    def _read(self, table: str, n: int) -> None:
        if n:
            self.rows_read[table] = self.rows_read.get(table, 0) + n
            self.metrics.inc(f"store.rows_read.{table}", n)

    def counts(self) -> Dict[str, int]:
        """Row counts per data table (an integrity/summary helper)."""
        out: Dict[str, int] = {}
        for table in (
            "campaigns", "observations", "likers",
            "liker_campaigns", "baseline", "terminations",
        ):
            out[table] = self._db.execute(
                f"SELECT COUNT(*) FROM {table}"
            ).fetchone()[0]
        return out

    def update_rowcounts(self) -> Dict[str, int]:
        """Record the current per-table row counts in ``meta``.

        Every ingest path ends with this, so :meth:`verify` can compare
        what the store *should* hold against what a later open finds.
        """
        counts = self.counts()
        self._db.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT (key) DO UPDATE SET value = excluded.value",
            (META_ROWCOUNTS_KEY, json.dumps(counts, sort_keys=True)),
        )
        self._db.commit()
        return counts

    def verify(self) -> List[str]:
        """Integrity-check the store; returns problems (empty = healthy).

        Three layers: SQLite's own ``PRAGMA integrity_check`` (page-level
        corruption), the schema tag (format identity), and the per-table
        row counts against the ``rowcounts`` meta record (rows lost to a
        torn batch).  Never raises for corruption — it *reports*, so the
        CLI ``verify`` subcommand can name the damage and exit 2.
        """
        problems: List[str] = []
        try:
            rows = self._db.execute("PRAGMA integrity_check").fetchall()
            if [value for (value,) in rows] != ["ok"]:
                problems.extend(
                    f"integrity_check: {value}" for (value,) in rows
                )
            row = self._db.execute(
                "SELECT value FROM meta WHERE key = ?", (META_SCHEMA_KEY,)
            ).fetchone()
            if row is None or row[0] != STORE_SCHEMA:
                found = None if row is None else row[0]
                problems.append(
                    f"schema tag {found!r} is not {STORE_SCHEMA!r}"
                )
            recorded_row = self._db.execute(
                "SELECT value FROM meta WHERE key = ?", (META_ROWCOUNTS_KEY,)
            ).fetchone()
            if recorded_row is None:
                problems.append("no rowcounts record in meta (torn ingest?)")
            else:
                recorded = json.loads(recorded_row[0])
                actual = self.counts()
                for table in TABLES:
                    if recorded.get(table, 0) != actual.get(table, 0):
                        problems.append(
                            f"table {table} holds {actual.get(table, 0)} rows, "
                            f"meta records {recorded.get(table, 0)}"
                        )
        except (sqlite3.Error, json.JSONDecodeError) as error:
            problems.append(f"verification query failed: {error}")
        return problems

    # -- ingest -------------------------------------------------------------------

    def ingest_dataset(self, dataset: HoneypotDataset) -> int:
        """Ingest a finished in-memory dataset; returns rows written."""
        return self.ingest_rows(dataset.iter_rows())

    def ingest_jsonl(self, path: Path, salvage: bool = False) -> int:
        """Stream a ``study.jsonl`` file into the store, line by line.

        Never materialises a :class:`HoneypotDataset` — rows are parsed
        one at a time (sharing the corruption contract of
        :meth:`HoneypotDataset.from_jsonl`, including ``salvage``) and
        land in batched transactions, so ingesting a 100x-scale corpus
        costs one row of memory at a time plus the batch buffers.
        """
        return self.ingest_rows(
            row
            for row, _ in iter_jsonl_rows(
                Path(path), salvage=salvage, metrics=self.metrics
            )
        )

    def _flush_buffers(
        self,
        campaigns: List[Tuple],
        observations: List[Tuple],
        likers: List[Tuple],
        memberships: List[Tuple],
        baseline: List[Tuple],
        terminations: List[Tuple],
    ) -> None:
        """One batched ingest transaction (the ``store.ingest.batch`` unit)."""
        self._db.execute("BEGIN")
        if campaigns:
            self._db.executemany(
                "INSERT INTO campaigns "
                f"({', '.join(_CAMPAIGN_COLUMNS)}) VALUES "
                f"({', '.join('?' * len(_CAMPAIGN_COLUMNS))})",
                campaigns,
            )
            self._wrote("campaigns", len(campaigns))
        if observations:
            self._db.executemany(
                "INSERT INTO observations "
                "(campaign_id, position, observed_at, user_id) "
                "VALUES (?, ?, ?, ?)",
                observations,
            )
            self._wrote("observations", len(observations))
        if likers:
            self._db.executemany(
                "INSERT INTO likers "
                f"({', '.join(_LIKER_COLUMNS)}) VALUES "
                f"({', '.join('?' * len(_LIKER_COLUMNS))})",
                likers,
            )
            self._wrote("likers", len(likers))
        if memberships:
            self._db.executemany(
                "INSERT INTO liker_campaigns "
                "(user_id, position, campaign_id) VALUES (?, ?, ?)",
                memberships,
            )
            self._wrote("liker_campaigns", len(memberships))
        if baseline:
            self._db.executemany(
                "INSERT INTO baseline (user_id, declared_like_count) "
                "VALUES (?, ?)",
                baseline,
            )
            self._wrote("baseline", len(baseline))
        if terminations:
            self._db.executemany(
                "INSERT INTO terminations (campaign_id, position, user_id) "
                "VALUES (?, ?, ?)",
                terminations,
            )
            self._wrote("terminations", len(terminations))
        self._db.execute("COMMIT")

    def ingest_rows(self, rows: Iterable[Dict]) -> int:
        """Ingest typed JSONL row dicts (the ``iter_rows`` stream).

        Rows are buffered per table and flushed as batched transactions
        every :data:`BATCH_SIZE` rows; an unknown row type is a
        :class:`StoreError` (the stream is corrupt, not just unfamiliar).
        """
        total = 0
        campaigns: List[Tuple] = []
        observations: List[Tuple] = []
        likers: List[Tuple] = []
        memberships: List[Tuple] = []
        baseline: List[Tuple] = []
        terminations: List[Tuple] = []
        buffered = 0

        def flush() -> None:
            nonlocal buffered
            if not buffered:
                return
            try:
                failpoints.hit("store.ingest.batch")
                self._flush_buffers(
                    campaigns, observations, likers,
                    memberships, baseline, terminations,
                )
            except (sqlite3.Error, OSError) as error:
                try:
                    self._db.execute("ROLLBACK")
                except sqlite3.Error:
                    pass
                raise StoreError(
                    f"store ingest batch into {self.path} failed: {error}"
                ) from error
            for buffer in (
                campaigns, observations, likers,
                memberships, baseline, terminations,
            ):
                buffer.clear()
            buffered = 0

        for row in rows:
            kind = row.get("type")
            if kind == "meta":
                self.set_globals(
                    row["global_gender"], row["global_age"], row["global_country"]
                )
            elif kind == "campaign":
                campaigns.append((
                    row["campaign_id"], row["provider"], row["kind"],
                    row["location_label"], row["budget_label"],
                    row["duration_days"], row["monitored_days"],
                    row["page_id"], row["total_likes"],
                    int(bool(row["inactive"])), row["removed_like_count"],
                    row["total_cost"],
                ))
                for position, obs in enumerate(row["observations"]):
                    observations.append((
                        row["campaign_id"], position,
                        obs["observed_at"], obs["user_id"],
                    ))
                for position, user_id in enumerate(row["terminated_liker_ids"]):
                    terminations.append((row["campaign_id"], position, user_id))
            elif kind == "liker":
                likers.append((
                    row["user_id"], row["gender"], row["age_bracket"],
                    row["country"], int(bool(row["friend_list_public"])),
                    row["declared_friend_count"],
                    json.dumps(row["visible_friend_ids"]),
                    json.dumps(row["liked_page_ids"]),
                    row["declared_like_count"], int(bool(row["terminated"])),
                    row["crawl_status"], json.dumps(row["failed_fields"]),
                ))
                for position, campaign_id in enumerate(row["campaign_ids"]):
                    memberships.append((row["user_id"], position, campaign_id))
            elif kind == "baseline":
                baseline.append((row["user_id"], row["declared_like_count"]))
            else:
                flush()
                raise StoreError(f"unknown ingest row type {row.get('type')!r}")
            total += 1
            buffered += 1
            if buffered >= BATCH_SIZE:
                flush()
        flush()
        self.update_rowcounts()
        return total

    def set_globals(
        self, gender: Dict[str, float], age: Dict[str, float],
        country: Dict[str, float],
    ) -> None:
        """Store the global demographics report (JSON, key order preserved)."""
        for key, value in zip(META_GLOBALS_KEYS, (gender, age, country)):
            self._db.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?) "
                "ON CONFLICT (key) DO UPDATE SET value = excluded.value",
                (key, json.dumps(value)),
            )
        self._db.commit()

    # -- record accessors ---------------------------------------------------------

    def globals_report(self) -> Tuple[Dict, Dict, Dict]:
        """The stored (gender, age, country) global distributions."""
        values = []
        for key in META_GLOBALS_KEYS:
            row = self._db.execute(
                "SELECT value FROM meta WHERE key = ?", (key,)
            ).fetchone()
            values.append(json.loads(row[0]) if row is not None else {})
        return tuple(values)

    def campaign_ids(self) -> List[str]:
        """Campaign ids in insertion (Table 1) order."""
        rows = self._db.execute(
            "SELECT campaign_id FROM campaigns ORDER BY seq"
        ).fetchall()
        self._read("campaigns", len(rows))
        return [row[0] for row in rows]

    def campaign(self, campaign_id: str) -> CampaignRecord:
        """Reconstruct one full campaign record (observations included)."""
        row = self._db.execute(
            f"SELECT {', '.join(_CAMPAIGN_COLUMNS)} FROM campaigns "
            "WHERE campaign_id = ?",
            (campaign_id,),
        ).fetchone()
        if row is None:
            raise StoreError(f"store has no campaign {campaign_id!r}")
        self._read("campaigns", 1)
        return self._campaign_record(row)

    def _campaign_record(self, row: Sequence) -> CampaignRecord:
        (campaign_id, provider, kind, location_label, budget_label,
         duration_days, monitored_days, page_id, total_likes,
         inactive, removed_like_count, total_cost) = row
        observations = self._db.execute(
            "SELECT observed_at, user_id FROM observations "
            "WHERE campaign_id = ? ORDER BY position",
            (campaign_id,),
        ).fetchall()
        self._read("observations", len(observations))
        terminated = self._db.execute(
            "SELECT user_id FROM terminations WHERE campaign_id = ? "
            "ORDER BY position",
            (campaign_id,),
        ).fetchall()
        self._read("terminations", len(terminated))
        return CampaignRecord(
            campaign_id=campaign_id,
            provider=provider,
            kind=kind,
            location_label=location_label,
            budget_label=budget_label,
            duration_days=duration_days,
            monitored_days=monitored_days,
            page_id=page_id,
            total_likes=total_likes,
            observations=[
                LikeObservation(observed_at=t, user_id=u)
                for t, u in observations
            ],
            terminated_liker_ids=[u for (u,) in terminated],
            inactive=bool(inactive),
            removed_like_count=removed_like_count,
            total_cost=total_cost,
        )

    def _liker_record(self, row: Sequence) -> LikerRecord:
        (user_id, gender, age_bracket, country, friend_list_public,
         declared_friend_count, visible_friend_ids, liked_page_ids,
         declared_like_count, terminated, crawl_status, failed_fields) = row
        memberships = self._db.execute(
            "SELECT campaign_id FROM liker_campaigns WHERE user_id = ? "
            "ORDER BY position",
            (user_id,),
        ).fetchall()
        self._read("liker_campaigns", len(memberships))
        return LikerRecord(
            user_id=user_id,
            gender=gender,
            age_bracket=age_bracket,
            country=country,
            friend_list_public=bool(friend_list_public),
            declared_friend_count=declared_friend_count,
            visible_friend_ids=json.loads(visible_friend_ids),
            liked_page_ids=json.loads(liked_page_ids),
            declared_like_count=declared_like_count,
            campaign_ids=[c for (c,) in memberships],
            terminated=bool(terminated),
            crawl_status=crawl_status,
            failed_fields=json.loads(failed_fields),
        )

    def iter_likers(self) -> Iterator[LikerRecord]:
        """Liker records in first-crawled (insertion) order, streamed."""
        cursor = self._db.execute(
            f"SELECT {', '.join(_LIKER_COLUMNS)} FROM likers ORDER BY seq"
        )
        for row in cursor:
            self._read("likers", 1)
            yield self._liker_record(row)

    def iter_baseline(self) -> Iterator[BaselineRecord]:
        """Baseline records in sample order, streamed."""
        cursor = self._db.execute(
            "SELECT user_id, declared_like_count FROM baseline ORDER BY seq"
        )
        for user_id, count in cursor:
            self._read("baseline", 1)
            yield BaselineRecord(user_id=user_id, declared_like_count=count)

    # -- export -------------------------------------------------------------------

    def iter_rows(self) -> Iterator[Dict]:
        """Typed JSONL row dicts in export order (see ``HoneypotDataset``)."""
        failpoints.hit("store.export.rows")
        gender, age, country = self.globals_report()
        yield {
            "type": "meta",
            "global_gender": gender,
            "global_age": age,
            "global_country": country,
        }
        cursor = self._db.execute(
            f"SELECT {', '.join(_CAMPAIGN_COLUMNS)} FROM campaigns ORDER BY seq"
        )
        for row in cursor.fetchall():
            self._read("campaigns", 1)
            out = record_fields(self._campaign_record(row))
            out["type"] = "campaign"
            yield out
        for liker in self.iter_likers():
            out = record_fields(liker)
            out["type"] = "liker"
            yield out
        for record in self.iter_baseline():
            out = record_fields(record)
            out["type"] = "baseline"
            yield out

    def to_jsonl(self, path: Path) -> None:
        """Export the store as dataset JSONL — byte-identical to the
        :meth:`HoneypotDataset.to_jsonl` export of the same run."""
        try:
            write_jsonl_rows(path, self.iter_rows())
        except sqlite3.Error as error:
            raise StoreError(
                f"store export from {self.path} failed: {error}"
            ) from error

    def to_dataset(self) -> HoneypotDataset:
        """Materialise the full in-memory dataset (reference/debug path)."""
        gender, age, country = self.globals_report()
        dataset = HoneypotDataset(
            global_gender=gender, global_age=age, global_country=country
        )
        for campaign_id in self.campaign_ids():
            dataset.campaigns[campaign_id] = self.campaign(campaign_id)
        for liker in self.iter_likers():
            dataset.likers[liker.user_id] = liker
        dataset.baseline = list(self.iter_baseline())
        return dataset
