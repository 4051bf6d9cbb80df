"""Unit tests for repro.failpoints (spec grammar, arming, firing)."""

import errno

import pytest

from repro import failpoints
from repro.failpoints import FailpointError, FaultSpec, parse_spec
from repro.honeypot.study import StudyConfig
from repro.util.durable import atomic_write_text, sweep_stale_tmp


@pytest.fixture(autouse=True)
def clean_registry():
    failpoints.reset()
    yield
    failpoints.reset()


class TestParseSpec:
    def test_full_grammar(self):
        specs = parse_spec("ckpt.journal.record=errno:ENOSPC@7")
        assert specs == [
            FaultSpec("ckpt.journal.record", "errno", "ENOSPC", 7)
        ]

    def test_nth_defaults_to_one_and_arg_is_optional(self):
        (spec,) = parse_spec("durable.rename=kill")
        assert (spec.action, spec.arg, spec.nth) == ("kill", "", 1)

    def test_comma_separated_items_and_blank_tolerance(self):
        specs = parse_spec("a=kill@2, b=torn ,")
        assert [s.name for s in specs] == ["a", "b"]

    def test_render_round_trips(self):
        for text in ("x=kill@3", "x=errno:EIO@1", "x=stall:5.0@2"):
            (spec,) = parse_spec(text)
            assert parse_spec(spec.render()) == [spec]

    @pytest.mark.parametrize(
        "bad",
        [
            "noequals",
            "x=",
            "=kill",
            "x=frobnicate",
            "x=kill@zero",
            "x=kill@0",
            "x=errno:NOTANERRNO",
        ],
    )
    def test_malformed_specs_are_refused(self, bad):
        with pytest.raises(ValueError):
            parse_spec(bad)


class TestConfigure:
    def test_unknown_name_is_refused_with_the_catalog(self):
        with pytest.raises(ValueError, match="unknown failpoint"):
            failpoints.configure("no.such.site=kill")

    def test_star_expands_over_every_registered_name(self):
        armed = failpoints.configure("*=count")
        assert sorted(s.name for s in armed) == failpoints.all_failpoints()
        assert failpoints.is_armed()

    def test_reset_disarms(self):
        failpoints.configure("durable.rename=count")
        failpoints.reset()
        assert not failpoints.is_armed()
        assert failpoints.state()["hits"] == {}


class TestHit:
    def test_disarmed_hit_is_a_no_op(self):
        failpoints.hit("durable.rename")
        assert failpoints.state() == {"armed": {}, "hits": {}, "fired": []}

    def test_fires_on_exactly_the_nth_hit(self):
        failpoints.configure("store.open=raise@3")
        failpoints.hit("store.open")
        failpoints.hit("store.open")
        with pytest.raises(FailpointError):
            failpoints.hit("store.open")
        failpoints.hit("store.open")  # past the Nth: armed spec is spent
        assert failpoints.state()["hits"] == {"store.open": 4}

    def test_raise_carries_the_spec_arg_as_message(self):
        failpoints.configure("shard.worker.poison=raise:injected poison")
        with pytest.raises(FailpointError, match="injected poison"):
            failpoints.hit("shard.worker.poison")

    def test_errno_action_raises_oserror_with_that_code(self):
        failpoints.configure("durable.fsync.file=errno:ENOSPC")
        with pytest.raises(OSError) as excinfo:
            failpoints.hit("durable.fsync.file")
        assert excinfo.value.errno == errno.ENOSPC

    def test_count_action_records_without_firing_behaviour(self, capsys):
        failpoints.configure("*=count")
        failpoints.hit("durable.rename")
        failpoints.hit("durable.rename")
        state = failpoints.state()
        assert state["hits"]["durable.rename"] == 2
        assert [f["name"] for f in state["fired"]] == ["durable.rename"]
        assert capsys.readouterr().err == ""  # count stays silent

    def test_unarmed_names_do_not_accumulate_counters(self):
        failpoints.configure("store.open=count")
        failpoints.hit("durable.rename")
        assert "durable.rename" not in failpoints.state()["hits"]


class TestEnvInstall:
    def test_env_var_specs_are_armed(self):
        armed = failpoints.install_from_env(
            {
                failpoints.ENV_VAR: (
                    "store.open=count,ckpt.journal.record=kill@12,"
                    "ckpt.journal.record=stall:0.5@3"
                ),
            }
        )
        rendered = sorted(s.render() for s in armed)
        assert rendered == [
            "ckpt.journal.record=kill@12",
            "ckpt.journal.record=stall:0.5@3",
            "store.open=count@1",
        ]
        assert failpoints.state()["armed"] == {
            "ckpt.journal.record": [
                "ckpt.journal.record=kill@12",
                "ckpt.journal.record=stall:0.5@3",
            ],
            "store.open": ["store.open=count@1"],
        }

    def test_removed_legacy_env_names_arm_nothing(self):
        # REPRO_FAILPOINTS is the only spelling; the journal crash and
        # stall envs it replaced are ignored
        removed = {
            "REPRO_CKPT_CRASH_AFTER": "12",
            "REPRO_CKPT_STALL_AFTER": "3",
            "REPRO_CKPT_STALL_SECONDS": "0.5",
        }
        assert failpoints.install_from_env(removed) == []
        assert not failpoints.is_armed()

    def test_empty_environment_arms_nothing(self):
        assert failpoints.install_from_env({}) == []
        assert not failpoints.is_armed()

    def test_study_config_takes_no_spec(self):
        # a spec armed by the study itself would skip the shard worker's
        # target scoping and restart scrub; the env and --failpoint remain
        with pytest.raises(TypeError):
            StudyConfig(failpoints="ckpt.journal.record=kill@25")

    def test_registry_rejects_duplicate_registration(self):
        with pytest.raises(ValueError, match="registered twice"):
            failpoints.register("durable.rename")


class TestTornWrites:
    def test_errno_at_write_leaves_target_untouched_and_no_tmp(self, tmp_path):
        target = tmp_path / "a.txt"
        atomic_write_text(target, "before\n")
        failpoints.configure("durable.write.data=errno:EIO")
        with pytest.raises(OSError):
            atomic_write_text(target, "after\n")
        assert target.read_text() == "before\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_sweep_stale_tmp_removes_only_orphans(self, tmp_path):
        atomic_write_text(tmp_path / "keep.json", "{}\n")
        orphan = tmp_path / "dead.json.tmp"
        orphan.write_text("half")
        removed = sweep_stale_tmp(tmp_path)
        assert removed == [orphan]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.json"]

    def test_sweep_of_a_missing_directory_is_a_no_op(self, tmp_path):
        assert sweep_stale_tmp(tmp_path / "nope") == []
