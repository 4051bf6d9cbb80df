"""Order-canonicalized merge of per-shard results.

The merge is a pure function of the shard *plan* and the per-shard
outputs — never of completion order.  Shards are folded in plan (spec)
order, campaigns within a shard in spec order, likers within a campaign
in first-observed order, so shuffling which shard finished first cannot
change a byte of the merged dataset (pinned by the permutation-invariance
property test).

**Dynamic-id relocation.**  Every shard builds the identical organic
world (same derived seeds), so user ids below the *dynamic-id floor* —
the user count when the build phase finished, identical across shards —
name the same person in every shard and merge by identity.  Ids at or
above the floor are shard-local allocations (clickworkers, farm fake
accounts): two shards hand out the same raw ids to *different* people.
The merge relocates each shard's dynamic ids into a disjoint range,
``floor + index * STRIDE + offset``, so shard 0's ids are unchanged and
no shard can impersonate another's likers.  A shard allocating more than
``STRIDE`` dynamic users is a :class:`ShardMergeError`, never a silent
wraparound.

**Verification.**  Shards must agree on the dynamic-id floor, and when
the same organic user was crawled by two shards their identity fields
(gender, age bracket, country, friend-list visibility) must match
exactly — a mismatch means the worlds diverged and merging would forge
data.  Crawled detail (friend lists, like lists, crawl status) is taken
from the first owning shard in plan order; ``terminated`` is OR-ed;
``campaign_ids`` accumulate in plan order.  The baseline sample and
global demographics come from the primary shard verbatim.

**Metrics.**  Per-shard counters are kept under ``shard.<id>.<name>``
and summed into the top-level name (total simulated work across the
fleet — each shard honestly re-did the world build); gauges stay
namespaced per shard except ``sim.virtual_minutes``, whose top-level
value is the max across shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.honeypot.storage import (
    BaselineRecord,
    HoneypotDataset,
    LikeObservation,
)
from repro.shard.errors import ShardMergeError
from repro.shard.plan import ShardSpec

#: Width of each shard's relocated dynamic-id range.
STRIDE = 10_000_000

#: Liker fields that must be identical wherever the same user appears.
IDENTITY_FIELDS = ("gender", "age_bracket", "country", "friend_list_public")


@dataclass
class MergedRun:
    """Everything the merge produced for one sharded run."""

    dataset: HoneypotDataset
    #: Aggregated counters: top-level sums plus ``shard.<id>.*`` namespaces.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Per-shard gauges plus the top-level ``sim.virtual_minutes`` max.
    gauges: Dict[str, float] = field(default_factory=dict)
    virtual_minutes: int = 0
    #: Summed checkpoint-overhead stats across shards.
    checkpoint: Dict = field(default_factory=dict)
    #: Deterministic ``shards`` manifest section (plan + per-shard results).
    shards_section: Dict = field(default_factory=dict)
    #: Deterministic ``degraded`` section, or None when no shard was lost.
    degraded_section: Optional[Dict] = None


def _remapper(floor: int, index: int) -> Callable[[int], int]:
    """The id relocation for one shard: identity below the floor."""
    base = floor + index * STRIDE

    def remap(user_id: int) -> int:
        if user_id < floor:
            return user_id
        offset = user_id - floor
        if offset >= STRIDE:
            raise ShardMergeError(
                f"shard index {index} allocated {offset + 1} dynamic users, "
                f"exceeding the merge id stride {STRIDE}"
            )
        return base + offset

    return remap


def merge_shards(
    plan: List[ShardSpec],
    completed: Dict[str, Tuple[HoneypotDataset, Dict]],
    quarantined: Optional[List[ShardSpec]] = None,
) -> MergedRun:
    """Fold per-shard outputs into one run, in plan order.

    ``completed`` maps shard id to ``(dataset, state)`` as written by the
    worker; ``quarantined`` lists shards the supervisor gave up on (their
    campaigns are explicitly absent from the merged dataset).
    """
    quarantined = quarantined or []
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

    merged = HoneypotDataset()
    for shard in ok:
        dataset, _ = completed[shard.shard_id]
        remap = _remapper(floor, shard.index)
        for campaign_id in shard.campaign_ids:
            if campaign_id not in dataset.campaigns:
                raise ShardMergeError(
                    f"shard {shard.shard_id} completed without its campaign "
                    f"{campaign_id!r}"
                )
            _merge_campaign(merged, dataset, campaign_id, remap)

    primary = ok[0]
    if not primary.primary:
        raise ShardMergeError(
            f"primary shard {plan[0].shard_id} did not complete; the merged "
            "run would have no baseline or global demographics"
        )
    primary_dataset, _ = completed[primary.shard_id]
    primary_remap = _remapper(floor, primary.index)
    merged.baseline = [
        BaselineRecord(
            user_id=primary_remap(record.user_id),
            declared_like_count=record.declared_like_count,
        )
        for record in primary_dataset.baseline
    ]
    merged.global_gender = dict(primary_dataset.global_gender)
    merged.global_age = dict(primary_dataset.global_age)
    merged.global_country = dict(primary_dataset.global_country)

    counters, gauges, virtual_minutes, checkpoint = _merge_metrics(ok, completed)
    return MergedRun(
        dataset=merged,
        counters=counters,
        gauges=gauges,
        virtual_minutes=virtual_minutes,
        checkpoint=checkpoint,
        shards_section=_shards_section(plan, completed),
        degraded_section=_degraded_section(quarantined),
    )


def _merge_campaign(
    merged: HoneypotDataset,
    dataset: HoneypotDataset,
    campaign_id: str,
    remap: Callable[[int], int],
) -> None:
    record = dataset.campaigns[campaign_id]
    merged.campaigns[campaign_id] = replace(
        record,
        observations=[
            LikeObservation(observed_at=obs.observed_at, user_id=remap(obs.user_id))
            for obs in record.observations
        ],
        terminated_liker_ids=[remap(u) for u in record.terminated_liker_ids],
    )
    for user_id in record.liker_ids:
        liker = dataset.likers.get(user_id)
        if liker is None:
            continue  # uncrawlable liker: the owning shard already dropped it
        new_id = remap(user_id)
        existing = merged.likers.get(new_id)
        if existing is None:
            merged.likers[new_id] = replace(
                liker,
                user_id=new_id,
                visible_friend_ids=[
                    remap(f) for f in liker.visible_friend_ids.tolist()
                ],
                campaign_ids=[campaign_id],
                failed_fields=list(liker.failed_fields),
            )
            continue
        for field_name in IDENTITY_FIELDS:
            if getattr(existing, field_name) != getattr(liker, field_name):
                raise ShardMergeError(
                    f"user {new_id} has conflicting {field_name!r} across "
                    f"shards ({getattr(existing, field_name)!r} vs "
                    f"{getattr(liker, field_name)!r}); the organic worlds "
                    "diverged, refusing to merge"
                )
        if campaign_id not in existing.campaign_ids:
            existing.campaign_ids.append(campaign_id)
        existing.terminated = existing.terminated or liker.terminated


def _merge_metrics(
    ok: List[ShardSpec], completed: Dict[str, Tuple[HoneypotDataset, Dict]]
) -> Tuple[Dict[str, float], Dict[str, float], int, Dict]:
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    virtual_minutes = 0
    checkpoint: Dict[str, float] = {}
    resumed = False
    for shard in ok:
        _, state = completed[shard.shard_id]
        for name, value in state.get("counters", {}).items():
            counters[f"shard.{shard.shard_id}.{name}"] = value
            counters[name] = counters.get(name, 0) + value
        for name, value in state.get("gauges", {}).items():
            gauges[f"shard.{shard.shard_id}.{name}"] = value
        virtual_minutes = max(virtual_minutes, int(state["virtual_minutes"]))
        stats = state.get("checkpoint") or {}
        resumed = resumed or bool(stats.get("resumed"))
        for name, value in stats.items():
            if name == "resumed":
                continue
            checkpoint[name] = checkpoint.get(name, 0) + value
    if gauges or counters:
        gauges["sim.virtual_minutes"] = virtual_minutes
    checkpoint["resumed"] = resumed
    return (
        dict(sorted(counters.items())),
        dict(sorted(gauges.items())),
        virtual_minutes,
        checkpoint,
    )


def _shards_section(
    plan: List[ShardSpec], completed: Dict[str, Tuple[HoneypotDataset, Dict]]
) -> Dict:
    """The deterministic ``shards`` manifest section.

    Covered by the same-seed identity contract: the plan follows from the
    config, and the per-shard results are each shard's deterministic
    outputs.  Execution detail (attempts, restarts, wall time) is *not*
    here — it lives in the uncovered ``shard_execution`` section.
    """
    results = {}
    for shard in plan:
        if shard.shard_id not in completed:
            continue
        dataset, state = completed[shard.shard_id]
        results[shard.shard_id] = {
            "virtual_minutes": int(state["virtual_minutes"]),
            "total_likes": dataset.total_likes,
            "likers": len(dataset.likers),
            "baseline": len(dataset.baseline),
        }
    return {
        "plan": [
            {
                "shard": shard.shard_id,
                "campaigns": list(shard.campaign_ids),
                "primary": shard.primary,
                "status": "ok" if shard.shard_id in completed else "quarantined",
            }
            for shard in plan
        ],
        "results": results,
    }


def _degraded_section(quarantined: List[ShardSpec]) -> Optional[Dict]:
    if not quarantined:
        return None
    ordered = sorted(quarantined, key=lambda shard: shard.index)
    return {
        "quarantined": [shard.shard_id for shard in ordered],
        "campaigns_lost": [
            campaign_id
            for shard in ordered
            for campaign_id in shard.campaign_ids
        ],
    }
