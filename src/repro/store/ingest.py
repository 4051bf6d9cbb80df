"""Replay a checkpoint WAL into the store.

Besides a finished dataset or JSONL file
(:meth:`~repro.store.store.HoneypotStore.ingest_dataset`), a
:class:`~repro.store.store.HoneypotStore` can be populated from a
checkpoint journal (:mod:`repro.ckpt.journal`):

* :func:`ingest_journal` — replay the WAL into store tables.  The journal
  holds every durable fact of a (possibly still-running or crashed)
  study — monitor snapshots, crawled liker/baseline records,
  terminations — so the replay reconstructs observations, likers,
  baseline and terminations *exactly*.  Campaign metadata that only
  exists in study state (page id, cost, precise monitored window) is
  filled from the :class:`~repro.honeypot.study.StudyConfig` when given
  and left at honest defaults otherwise; this is the warm/incremental
  inspection path, while dataset/JSONL ingest is the byte-identical one.
* :func:`repair_from_journal` — rebuild a damaged store from the WAL
  (``repro-study query <store> repair``), swapped in atomically once it
  verifies.

A sharded run (``run --jobs N --store``) merges its shards in memory
(:func:`repro.shard.merge.merge_shards`) and ingests the merged dataset.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.ckpt.journal import read_journal, unpack_ids
from repro.honeypot.storage import LIKER_ID_FIELDS
from repro.honeypot.study import StudyConfig
from repro.store.errors import StoreError
from repro.store.store import HoneypotStore
from repro.util.timeutil import DAY


def _liker_row(record: Dict, journal_path: Path) -> Dict:
    """A journaled liker record as an ingest row, its packed ids as arrays.

    A field that is not packed int32 ids refuses the record with a
    :class:`StoreError` naming the user and the field.
    """
    row = dict(record)
    for name in LIKER_ID_FIELDS:
        try:
            row[name] = unpack_ids(record.get(name))
        except (TypeError, ValueError) as error:
            raise StoreError(
                f"{journal_path}: liker {record.get('user_id')!r}: {name} is "
                f"not packed int32 ids ({error}); refusing the record"
            ) from error
    return row


def ingest_journal(
    store: HoneypotStore,
    journal_path: Path,
    config: Optional[StudyConfig] = None,
) -> Dict[str, int]:
    """Replay a checkpoint WAL into the store.

    Returns ``{"records": <journal records consumed>, "rows": <store rows
    ingested>, "torn": 0|1}``.  A torn final journal line is salvage (the
    crash-mid-append signature, same contract as resume); an unknown
    record type is a :class:`StoreError`, and so is a liker record whose
    id field is not packed int32 ids, after the rows before it land.
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
            likers.append(record)
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
        for record in likers:
            yield _liker_row(record, journal_path)
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
