"""The store's SQLite schema, versioned and indexed for the analyses.

One honeypot study maps onto six tables:

* ``meta`` — key/value header: the schema version tag plus the global
  demographics report (stored as JSON text so dict key order round-trips
  byte-identically through export).
* ``campaigns`` — one row per campaign in insertion (Table 1) order;
  ``seq`` preserves that order across reopen.
* ``observations`` — one row per like event, keyed by
  ``(campaign_id, position)`` so first-observed order is durable, and
  indexed on ``(campaign_id, user_id, observed_at)`` — the access path of
  the overlap and temporal queries.
* ``likers`` — one row per crawled liker in first-crawled order; the
  two id arrays (visible friends, liked pages) are BLOBs of
  little-endian int32 ids, 4 bytes per id, which no query reads; the
  failed field groups are JSON text, and the campaign membership is
  normalised into ``liker_campaigns``.
* ``liker_campaigns`` — ``(user_id, position, campaign_id)``: the
  per-liker campaign list in observation order, the overlap queries' join
  table.
* ``baseline`` / ``terminations`` — the random baseline sample and each
  campaign's terminated liker ids, both order-preserving.

Columns that may legitimately hold an ``int`` or a ``float`` of the same
value (``duration_days``, ``monitored_days``, ``total_cost``) are
declared with **no type affinity** so SQLite stores exactly the Python
number it was given — ``15`` must export as ``15``, not ``15.0``, for the
byte-identical JSONL contract.
"""

from __future__ import annotations

#: Store format identifier (bump on breaking layout changes).
STORE_SCHEMA = "repro.store/schema@2"

#: ``meta`` keys reserved by the store itself.
META_SCHEMA_KEY = "schema"
META_GLOBALS_KEYS = ("global_gender", "global_age", "global_country")

#: Expected per-table row counts (JSON), maintained after every ingest so
#: :meth:`HoneypotStore.verify` can catch rows lost to torn batches.
META_ROWCOUNTS_KEY = "rowcounts"

#: Every data table, in ingest/export order (the obs counter namespace).
TABLES = (
    "campaigns",
    "observations",
    "likers",
    "liker_campaigns",
    "baseline",
    "terminations",
)

DDL = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE campaigns (
    seq                INTEGER PRIMARY KEY,
    campaign_id        TEXT NOT NULL UNIQUE,
    provider           TEXT NOT NULL,
    kind               TEXT NOT NULL,
    location_label     TEXT NOT NULL,
    budget_label       TEXT NOT NULL,
    duration_days,
    monitored_days,
    page_id            INTEGER NOT NULL,
    total_likes        INTEGER NOT NULL,
    inactive           INTEGER NOT NULL,
    removed_like_count INTEGER NOT NULL,
    total_cost
);

CREATE TABLE observations (
    campaign_id TEXT NOT NULL,
    position    INTEGER NOT NULL,
    observed_at INTEGER NOT NULL,
    user_id     INTEGER NOT NULL,
    PRIMARY KEY (campaign_id, position)
) WITHOUT ROWID;

CREATE INDEX observations_campaign_user_time
    ON observations (campaign_id, user_id, observed_at);

CREATE TABLE likers (
    seq                   INTEGER PRIMARY KEY,
    user_id               INTEGER NOT NULL UNIQUE,
    gender                TEXT NOT NULL,
    age_bracket           TEXT NOT NULL,
    country               TEXT NOT NULL,
    friend_list_public    INTEGER NOT NULL,
    declared_friend_count INTEGER,
    visible_friend_ids    BLOB NOT NULL,
    liked_page_ids        BLOB NOT NULL,
    declared_like_count   INTEGER NOT NULL,
    terminated            INTEGER NOT NULL,
    crawl_status          TEXT NOT NULL,
    failed_fields         TEXT NOT NULL
);

CREATE TABLE liker_campaigns (
    user_id     INTEGER NOT NULL,
    position    INTEGER NOT NULL,
    campaign_id TEXT NOT NULL,
    PRIMARY KEY (user_id, position)
) WITHOUT ROWID;

CREATE INDEX liker_campaigns_campaign
    ON liker_campaigns (campaign_id, user_id);

CREATE TABLE baseline (
    seq                 INTEGER PRIMARY KEY,
    user_id             INTEGER NOT NULL,
    declared_like_count INTEGER NOT NULL
);

CREATE TABLE terminations (
    campaign_id TEXT NOT NULL,
    position    INTEGER NOT NULL,
    user_id     INTEGER NOT NULL,
    PRIMARY KEY (campaign_id, position)
) WITHOUT ROWID;

CREATE INDEX terminations_campaign_user
    ON terminations (campaign_id, user_id);
"""
