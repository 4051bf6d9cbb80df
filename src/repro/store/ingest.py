"""Ingest paths that land in the store without a merged in-memory dataset.

Two producers besides a finished dataset/JSONL file can populate a
:class:`~repro.store.store.HoneypotStore`:

* :func:`ingest_journal` — replay a checkpoint WAL
  (:mod:`repro.ckpt.journal`) into store tables.  The journal holds every
  durable fact of a (possibly still-running or crashed) study —
  monitor snapshots, crawled liker/baseline records, terminations — so
  the replay reconstructs observations, likers, baseline and terminations
  *exactly*.  Campaign metadata that only exists in study state (page id,
  cost, precise monitored window) is filled from the
  :class:`~repro.honeypot.study.StudyConfig` when given and left at
  honest defaults otherwise; this is the warm/incremental inspection
  path, while dataset/JSONL ingest is the byte-identical one.
* :func:`merge_shards_into_store` — the order-canonicalised shard merge
  (:mod:`repro.shard.merge`), folded straight into store tables.  Shard
  outputs are loaded **one shard at a time** (plan order) and written in
  one batched transaction per shard, so peak memory is a single shard's
  dataset instead of all shards plus the merged result.  Semantics —
  dynamic-id relocation, identity verification, plan-order campaign
  accumulation, OR-ed terminations, primary-shard baseline/globals —
  mirror :func:`repro.shard.merge.merge_shards` record for record, so the
  store export equals the in-memory merge's export byte for byte (pinned
  by ``tests/store/test_store_ingest.py``).
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro import failpoints
from repro.ckpt.journal import read_journal
from repro.honeypot.storage import HoneypotDataset
from repro.honeypot.study import StudyConfig
from repro.shard.errors import ShardMergeError
from repro.shard.merge import IDENTITY_FIELDS, _remapper
from repro.shard.plan import ShardSpec
from repro.store.errors import StoreError
from repro.store.store import HoneypotStore
from repro.util.timeutil import DAY

#: Journal record types the replay understands (others are corruption).
_JOURNAL_TYPES = ("phase", "monitor-snapshot", "liker", "baseline", "termination")


def ingest_journal(
    store: HoneypotStore,
    journal_path: Path,
    config: Optional[StudyConfig] = None,
) -> Dict[str, int]:
    """Replay a checkpoint WAL into the store.

    Returns ``{"records": <journal records consumed>, "rows": <store rows
    ingested>, "torn": 0|1}``.  A torn final journal line is salvage (the
    crash-mid-append signature, same contract as resume); an unknown
    record type is a :class:`StoreError`.
    """
    recovery = read_journal(Path(journal_path), metrics=store.metrics)
    observations: Dict[str, List[Dict]] = {}
    terminations: Dict[str, Dict] = {}
    likers: List[Dict] = []
    baseline: List[Dict] = []
    for record in recovery.records:
        kind = record.get("type")
        if kind == "monitor-snapshot":
            rows = observations.setdefault(record["campaign_id"], [])
            for user_id in record["new_liker_ids"]:
                rows.append({"observed_at": record["time"], "user_id": user_id})
        elif kind == "liker":
            likers.append({**record})
        elif kind == "baseline":
            baseline.append({**record})
        elif kind == "termination":
            terminations[record["campaign_id"]] = record
        elif kind != "phase":
            raise StoreError(
                f"{journal_path}: unknown journal record type {kind!r}; "
                "refusing to replay a journal this build does not understand"
            )

    specs = {
        spec.campaign_id: spec for spec in config.active_specs()
    } if config is not None else {}
    # Campaign order: the study's spec order when the config is known,
    # first-snapshot order otherwise (snapshot interleaving is poll order,
    # so first appearance is the honest fallback).
    if specs:
        campaign_ids = [c for c in specs if c in observations]
        campaign_ids += [c for c in observations if c not in specs]
    else:
        campaign_ids = list(observations)

    def rows() -> Iterator[Dict]:
        for campaign_id in campaign_ids:
            obs = observations.get(campaign_id, [])
            termination = terminations.get(campaign_id, {})
            spec = specs.get(campaign_id)
            times = [row["observed_at"] for row in obs]
            yield {
                "type": "campaign",
                "campaign_id": campaign_id,
                "provider": spec.provider if spec else "unknown",
                "kind": spec.kind if spec else "unknown",
                "location_label": spec.location_label if spec else "unknown",
                "budget_label": spec.budget_label if spec else "unknown",
                "duration_days": spec.duration_days if spec else 0,
                # The WAL has no monitor start time; the observed span is
                # the honest lower bound on the monitored window.
                "monitored_days": (
                    (max(times) - min(times)) / DAY if times else 0.0
                ),
                "page_id": 0,
                "total_likes": len(obs),
                "observations": obs,
                "terminated_liker_ids": list(
                    termination.get("terminated_liker_ids", [])
                ),
                "inactive": not obs,
                "removed_like_count": termination.get("removed_like_count", 0),
                "total_cost": None,
            }
        for row in likers:
            yield row
        for row in baseline:
            yield row

    ingested = store.ingest_rows(rows())
    # Liker records are journaled at crawl time, before the termination
    # recheck flips their flag; apply the termination records the same way
    # the study does after the fact.
    terminated_ids = sorted({
        user_id
        for record in terminations.values()
        for user_id in record.get("terminated_liker_ids", [])
    })
    if terminated_ids:
        store._db.executemany(
            "UPDATE likers SET terminated = 1 WHERE user_id = ?",
            [(user_id,) for user_id in terminated_ids],
        )
        store._db.commit()
        store.update_rowcounts()
    return {
        "records": recovery.salvaged,
        "rows": ingested,
        "torn": int(recovery.torn),
    }


def repair_from_journal(
    path: Path,
    journal_path: Path,
    config: Optional[StudyConfig] = None,
) -> Dict[str, int]:
    """Rebuild a damaged store from a checkpoint WAL, atomically.

    The replacement is built as a ``<name>.repair`` sibling and renamed
    over ``path`` only once its own :meth:`HoneypotStore.verify` comes
    back clean — a crash mid-repair leaves the original (damaged) file
    untouched plus a ``.repair`` orphan that the next ``open()`` sweeps.
    Returns the :func:`ingest_journal` summary.
    """
    path = Path(path)
    rebuild_path = path.with_name(path.name + ".repair")
    rebuild_path.unlink(missing_ok=True)
    rebuild = HoneypotStore.create(rebuild_path)
    try:
        summary = ingest_journal(rebuild, Path(journal_path), config=config)
        problems = rebuild.verify()
        if problems:
            raise StoreError(
                f"repair of {path} produced an unhealthy store: "
                + "; ".join(problems)
            )
    except BaseException:
        rebuild.close()
        rebuild_path.unlink(missing_ok=True)
        raise
    rebuild.close()
    os.replace(rebuild_path, path)
    return summary


def merge_shards_into_store(
    plan: List[ShardSpec],
    completed: Dict[str, Tuple[Path, Dict]],
    store: HoneypotStore,
    quarantined: Optional[List[ShardSpec]] = None,
) -> int:
    """Fold per-shard dataset files into the store, in plan order.

    ``completed`` maps shard id to ``(dataset_jsonl_path, state)`` as
    written by the worker.  Each shard is loaded, relocated, verified and
    committed before the next is touched; the resulting store exports the
    same bytes as ``merge_shards(...).dataset.to_jsonl`` would.  Returns
    rows written.
    """
    del quarantined  # campaigns of lost shards are absent by construction
    ok = [shard for shard in plan if shard.shard_id in completed]
    if not ok:
        raise ShardMergeError("no shard completed; nothing to merge")

    floors = {
        shard.shard_id: int(completed[shard.shard_id][1]["dynamic_id_floor"])
        for shard in ok
    }
    floor = floors[ok[0].shard_id]
    mismatched = {sid: f for sid, f in floors.items() if f != floor}
    if mismatched:
        raise ShardMergeError(
            f"shards disagree on the dynamic-id floor ({floor} vs "
            f"{mismatched}); the organic worlds diverged, refusing to merge"
        )
    if not ok[0].primary:
        raise ShardMergeError(
            f"primary shard {plan[0].shard_id} did not complete; the merged "
            "run would have no baseline or global demographics"
        )
    occupied = {table: n for table, n in store.counts().items() if n}
    if occupied:
        raise StoreError(
            f"merge target store {store.path} is not empty ({occupied}); "
            "a shard merge owns campaign and liker sequence numbering and "
            "must start from a fresh store"
        )

    written_before = sum(store.rows_written.values())
    db = store._db
    campaign_seq = 0
    liker_seq = 0
    for shard in ok:
        dataset_path, _ = completed[shard.shard_id]
        dataset = HoneypotDataset.from_jsonl(Path(dataset_path))
        remap = _remapper(floor, shard.index)
        db.execute("BEGIN")
        try:
            failpoints.hit("store.merge.shard")
            for campaign_id in shard.campaign_ids:
                if campaign_id not in dataset.campaigns:
                    raise ShardMergeError(
                        f"shard {shard.shard_id} completed without its "
                        f"campaign {campaign_id!r}"
                    )
                campaign_seq += 1
                liker_seq = _merge_campaign_into_store(
                    store, dataset, campaign_id, remap, campaign_seq, liker_seq
                )
            if shard is ok[0]:
                baseline_rows = [
                    (remap(record.user_id), record.declared_like_count)
                    for record in dataset.baseline
                ]
                db.executemany(
                    "INSERT INTO baseline (user_id, declared_like_count) "
                    "VALUES (?, ?)",
                    baseline_rows,
                )
                store._wrote("baseline", len(baseline_rows))
        except (sqlite3.Error, OSError) as error:
            db.execute("ROLLBACK")
            raise StoreError(
                f"merging shard {shard.shard_id} into {store.path} failed: "
                f"{error}"
            ) from error
        except BaseException:
            db.execute("ROLLBACK")
            raise
        db.execute("COMMIT")
        if shard is ok[0]:
            store.set_globals(
                dict(dataset.global_gender),
                dict(dataset.global_age),
                dict(dataset.global_country),
            )
    store.update_rowcounts()
    return sum(store.rows_written.values()) - written_before


def _merge_campaign_into_store(
    store: HoneypotStore,
    dataset: HoneypotDataset,
    campaign_id: str,
    remap,
    campaign_seq: int,
    liker_seq: int,
) -> int:
    """One campaign of one shard, relocated and folded into store tables.

    Mirrors :func:`repro.shard.merge._merge_campaign`: first owning shard
    wins crawled detail, identity fields must agree, campaign membership
    accumulates in plan order, ``terminated`` ORs.  Returns the advanced
    liker sequence counter.
    """
    db = store._db
    record = dataset.campaigns[campaign_id]
    db.execute(
        "INSERT INTO campaigns (seq, campaign_id, provider, kind, "
        "location_label, budget_label, duration_days, monitored_days, "
        "page_id, total_likes, inactive, removed_like_count, total_cost) "
        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        (
            campaign_seq, record.campaign_id, record.provider, record.kind,
            record.location_label, record.budget_label, record.duration_days,
            record.monitored_days, record.page_id, record.total_likes,
            int(record.inactive), record.removed_like_count, record.total_cost,
        ),
    )
    store._wrote("campaigns", 1)
    observation_rows = [
        (campaign_id, position, obs.observed_at, remap(obs.user_id))
        for position, obs in enumerate(record.observations)
    ]
    db.executemany(
        "INSERT INTO observations (campaign_id, position, observed_at, "
        "user_id) VALUES (?, ?, ?, ?)",
        observation_rows,
    )
    store._wrote("observations", len(observation_rows))
    termination_rows = [
        (campaign_id, position, remap(user_id))
        for position, user_id in enumerate(record.terminated_liker_ids)
    ]
    db.executemany(
        "INSERT INTO terminations (campaign_id, position, user_id) "
        "VALUES (?, ?, ?)",
        termination_rows,
    )
    store._wrote("terminations", len(termination_rows))

    for user_id in record.liker_ids:
        liker = dataset.likers.get(user_id)
        if liker is None:
            continue  # uncrawlable liker: the owning shard already dropped it
        new_id = remap(user_id)
        existing = db.execute(
            "SELECT gender, age_bracket, country, friend_list_public "
            "FROM likers WHERE user_id = ?",
            (new_id,),
        ).fetchone()
        if existing is None:
            liker_seq += 1
            db.execute(
                "INSERT INTO likers (seq, user_id, gender, age_bracket, "
                "country, friend_list_public, declared_friend_count, "
                "visible_friend_ids, liked_page_ids, declared_like_count, "
                "terminated, crawl_status, failed_fields) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    liker_seq, new_id, liker.gender, liker.age_bracket,
                    liker.country, int(liker.friend_list_public),
                    liker.declared_friend_count,
                    json.dumps(
                        [remap(f) for f in liker.visible_friend_ids.tolist()]
                    ),
                    json.dumps(liker.liked_page_ids.tolist()),
                    liker.declared_like_count, int(liker.terminated),
                    liker.crawl_status, json.dumps(list(liker.failed_fields)),
                ),
            )
            db.execute(
                "INSERT INTO liker_campaigns (user_id, position, campaign_id) "
                "VALUES (?, 0, ?)",
                (new_id, campaign_id),
            )
            store._wrote("likers", 1)
            store._wrote("liker_campaigns", 1)
            continue
        store._read("likers", 1)
        found = dict(
            zip(("gender", "age_bracket", "country", "friend_list_public"),
                existing)
        )
        found["friend_list_public"] = bool(found["friend_list_public"])
        for field_name in IDENTITY_FIELDS:
            if found[field_name] != getattr(liker, field_name):
                raise ShardMergeError(
                    f"user {new_id} has conflicting {field_name!r} across "
                    f"shards ({found[field_name]!r} vs "
                    f"{getattr(liker, field_name)!r}); the organic worlds "
                    "diverged, refusing to merge"
                )
        membership = db.execute(
            "SELECT COUNT(*), MAX(CASE WHEN campaign_id = ? THEN 1 ELSE 0 "
            "END) FROM liker_campaigns WHERE user_id = ?",
            (campaign_id, new_id),
        ).fetchone()
        store._read("liker_campaigns", membership[0])
        if not membership[1]:
            db.execute(
                "INSERT INTO liker_campaigns (user_id, position, campaign_id) "
                "VALUES (?, ?, ?)",
                (new_id, membership[0], campaign_id),
            )
            store._wrote("liker_campaigns", 1)
        if liker.terminated:
            db.execute(
                "UPDATE likers SET terminated = 1 WHERE user_id = ?", (new_id,)
            )
    return liker_seq
