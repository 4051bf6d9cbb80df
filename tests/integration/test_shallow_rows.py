"""The dataset path builds its rows without ``dataclasses.asdict``.

``asdict`` deep-copies every element of every list field.  Farm and
click-worker likers like hundreds of pages each, so that copy once cost
more than the JSON encoding in the dataset export, the checkpoint
journal's per-liker hook and the store ingest.  These runs make the deep
copy raise, so it cannot creep back onto any of those paths.
"""

import dataclasses

import pytest

from repro.ckpt import CheckpointConfig
from repro.honeypot.study import HoneypotStudy, StudyConfig
from repro.store import HoneypotStore


@pytest.fixture()
def no_deep_copy(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dataclasses.asdict reached the dataset path")

    monkeypatch.setattr(dataclasses, "_asdict_inner", refuse)


def test_dataset_export(no_deep_copy, small_dataset, tmp_path):
    small_dataset.to_jsonl(tmp_path / "study.jsonl")


def test_store_ingest_and_export(no_deep_copy, small_dataset, tmp_path):
    out = tmp_path / "export.jsonl"
    with HoneypotStore.create(tmp_path / "study.sqlite") as store:
        assert store.ingest_dataset(small_dataset) > 0
        store.to_jsonl(out)
    assert out.stat().st_size > 0


def test_checkpointed_study(no_deep_copy, tmp_path):
    config = StudyConfig.small()
    config.checkpoint = CheckpointConfig(directory=tmp_path / "ck")
    artifacts = HoneypotStudy(config).run()
    assert artifacts.checkpoint["journal_records_written"] > len(
        artifacts.dataset.likers
    )
