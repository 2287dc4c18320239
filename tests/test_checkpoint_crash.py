"""Kill-mid-write crash tests for the checkpoint store.

With the distributed backend, checkpoints are what survive a machine
failure — so the store must stay readable whatever instruction the
writer died on. Each test here stages one concrete wreck (truncated
manifest, truncated shard file, orphaned tmp file, manifest that never
learned about a published shard) and asserts that ``load_completed``
recovers every intact shard instead of silently discarding work, and
that campaigns sharing a checkpoint root cannot destroy each other.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.runtime import (
    CheckpointStore,
    campaign_fingerprint,
    plan_shards,
    run_shard,
)

SUBSET = dict(isps=("consolidated",), states=("VT", "NH"),
              q3_states=("UT",))


@pytest.fixture(scope="module")
def two_shards(world):
    """Two completed shards of the subset campaign, plus fingerprint."""
    specs = plan_shards(world, 2, **SUBSET)
    results = [run_shard(world.config, spec, world=world) for spec in specs]
    fingerprint = campaign_fingerprint(world.config, None, SUBSET["isps"], 2)
    return results, fingerprint


def record_key(record):
    return (record.isp_id, record.address_id, record.block_geoid,
            record.status, record.plans, record.error_category,
            record.attempts, record.elapsed_seconds, record.replacement_for)


class TestTruncatedManifest:
    def test_rebuilds_every_intact_shard(self, two_shards, tmp_path):
        """The bug this PR fixes: a manifest truncated by a mid-write
        kill used to make ``load_completed`` return {} even though
        every shard file was intact."""
        results, fingerprint = two_shards
        store = CheckpointStore(tmp_path, fingerprint)
        for result in results:
            store.save_shard(result)
        manifest = store.campaign_directory / "checkpoint.json"
        manifest.write_text(
            manifest.read_text(encoding="utf-8")[:37], encoding="utf-8")
        completed = store.load_completed()
        assert set(completed) == {0, 1}
        # The recovered records are exact, not merely counted.
        for index, original in enumerate(results):
            for cell, records in original.q12_records.items():
                assert ([record_key(r)
                         for r in completed[index].q12_records[cell]]
                        == [record_key(r) for r in records])

    def test_heals_the_manifest_on_disk(self, two_shards, tmp_path):
        results, fingerprint = two_shards
        store = CheckpointStore(tmp_path, fingerprint)
        for result in results:
            store.save_shard(result)
        manifest = store.campaign_directory / "checkpoint.json"
        manifest.write_text("", encoding="utf-8")
        store.load_completed()
        healed = json.loads(manifest.read_text(encoding="utf-8"))
        assert healed["fingerprint"] == fingerprint
        assert sorted(healed["checksums"]) == ["shard-0000.json",
                                               "shard-0001.json"]

    def test_non_object_json_manifest_recovers(self, two_shards, tmp_path):
        """Valid JSON that is not an object (hand-editing damage) must
        trigger the rebuild, not an AttributeError."""
        results, fingerprint = two_shards
        store = CheckpointStore(tmp_path, fingerprint)
        for result in results:
            store.save_shard(result)
        (store.campaign_directory / "checkpoint.json").write_text(
            "[1, 2]", encoding="utf-8")
        assert set(store.load_completed()) == {0, 1}

    def test_missing_manifest_recovers_too(self, two_shards, tmp_path):
        """A writer killed after publishing shards but before the very
        first manifest write leaves no manifest at all."""
        results, fingerprint = two_shards
        store = CheckpointStore(tmp_path, fingerprint)
        for result in results:
            store.save_shard(result)
        (store.campaign_directory / "checkpoint.json").unlink()
        assert set(store.load_completed()) == {0, 1}


class TestTruncatedShardFile:
    def test_truncated_shard_skipped_others_survive(
            self, two_shards, tmp_path):
        results, fingerprint = two_shards
        store = CheckpointStore(tmp_path, fingerprint)
        for result in results:
            store.save_shard(result)
        path = store.shard_path(1)
        path.write_text(path.read_text(encoding="utf-8")[:50],
                        encoding="utf-8")
        assert set(store.load_completed()) == {0}

    def test_truncated_shard_and_manifest_together(
            self, two_shards, tmp_path):
        """The worst wreck: manifest torn AND one shard torn — the
        rebuild must keep exactly the shards that still parse."""
        results, fingerprint = two_shards
        store = CheckpointStore(tmp_path, fingerprint)
        for result in results:
            store.save_shard(result)
        shard = store.shard_path(0)
        shard.write_text(shard.read_text(encoding="utf-8")[:50],
                         encoding="utf-8")
        (store.campaign_directory / "checkpoint.json").write_text(
            "{not json", encoding="utf-8")
        assert set(store.load_completed()) == {1}


class TestPartialTmpFiles:
    def test_leftover_tmp_never_loaded(self, two_shards, tmp_path):
        """A writer killed before its rename leaves a ``*.tmp-<pid>``
        file; it must be invisible to resume."""
        results, fingerprint = two_shards
        store = CheckpointStore(tmp_path, fingerprint)
        store.save_shard(results[0])
        partial = (store.campaign_directory
                   / "shard-0001.json.tmp-99999")
        partial.write_text('{"index": 1, "count"', encoding="utf-8")
        assert set(store.load_completed()) == {0}

    def test_stale_tmp_swept_fresh_tmp_kept(self, two_shards, tmp_path):
        results, fingerprint = two_shards
        store = CheckpointStore(tmp_path, fingerprint)
        store.save_shard(results[0])
        stale = store.campaign_directory / "shard-0001.json.tmp-99999"
        stale.write_text("orphaned by a crashed writer", encoding="utf-8")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        fresh = store.campaign_directory / "checkpoint.json.tmp-11111"
        fresh.write_text("a live writer's in-progress file",
                         encoding="utf-8")
        store.save_shard(results[1])
        assert not stale.exists()  # crash leak reclaimed
        assert fresh.exists()      # concurrent writer untouched

    def test_writes_publish_by_rename(self, two_shards, tmp_path,
                                      monkeypatch):
        """If the writer dies between writing the tmp file and the
        rename, the previously published manifest is still the one on
        disk — no torn state, only old state."""
        from pathlib import Path

        results, fingerprint = two_shards
        store = CheckpointStore(tmp_path, fingerprint)
        store.save_shard(results[0])
        before = (store.campaign_directory
                  / "checkpoint.json").read_text(encoding="utf-8")

        original_replace = Path.replace

        def dying_replace(self, target):
            if target.name == "checkpoint.json":
                raise KeyboardInterrupt  # the kill lands mid-publish
            return original_replace(self, target)

        monkeypatch.setattr(Path, "replace", dying_replace)
        with pytest.raises(KeyboardInterrupt):
            store.save_shard(results[1])
        monkeypatch.undo()
        after = (store.campaign_directory
                 / "checkpoint.json").read_text(encoding="utf-8")
        assert after == before  # old manifest intact, not truncated
        # Resume still recovers BOTH shards: shard 1's file was
        # published before the manifest update died.
        assert set(store.load_completed()) == {0, 1}


class TestChecksumAuthority:
    def test_listed_file_failing_checksum_is_recomputed(
            self, two_shards, tmp_path):
        """For files the manifest lists, the checksum is authoritative:
        parseable-but-mismatching content (bit rot that stays valid
        JSON) is skipped and recomputed rather than silently merged —
        integrity beats stale-record recovery."""
        results, fingerprint = two_shards
        store = CheckpointStore(tmp_path, fingerprint)
        store.save_shard(results[0])
        store.save_shard(results[1])
        path = store.shard_path(0)
        # Parseable damage: perturb one digit inside the payload.
        text = path.read_text(encoding="utf-8")
        damaged = text.replace("1", "2", 1)
        assert damaged != text
        path.write_text(damaged, encoding="utf-8")
        assert set(store.load_completed()) == {1}
        # Re-saving the recomputed shard refreshes the entry.
        store.save_shard(results[0])
        assert set(store.load_completed()) == {0, 1}


class TestRootLevelLayout:
    def test_root_level_layout_is_not_read_or_touched(
            self, two_shards, tmp_path):
        """Pre-1.3 checkpoints lived at the root. This store no longer
        reads that layout: its shards recompute, and neither a load
        nor a clear deletes or moves the old files."""
        from repro.codec import shard_to_json
        from repro.persist.store import _sha256

        results, fingerprint = two_shards
        store = CheckpointStore(tmp_path, fingerprint)
        checksums = {}
        for result in results:
            path = tmp_path / f"shard-{result.index:04d}.json"
            path.write_text(json.dumps(shard_to_json(result),
                                       sort_keys=True), encoding="utf-8")
            checksums[path.name] = _sha256(path)
        (tmp_path / "checkpoint.json").write_text(json.dumps({
            "format": 1,
            "fingerprint": fingerprint,
            "checksums": checksums,
        }), encoding="utf-8")
        before = {path.name: path.read_bytes()
                  for path in tmp_path.iterdir()}

        assert store.load_completed() == {}
        store.clear()
        assert {path.name: path.read_bytes()
                for path in tmp_path.iterdir()} == before


class TestFingerprintNamespacing:
    def test_resume_with_different_shard_count(self, world, tmp_path):
        """The documented fingerprint behavior: rerunning with a
        different ``--shards`` is a *different campaign* — it resumes
        nothing, and (the bug this PR fixes) it must not delete the
        original campaign's checkpoints either."""
        specs2 = plan_shards(world, 2, **SUBSET)
        fp2 = campaign_fingerprint(world.config, None, SUBSET["isps"], 2)
        store2 = CheckpointStore(tmp_path, fp2)
        for spec in specs2:
            store2.save_shard(run_shard(world.config, spec, world=world))

        fp3 = campaign_fingerprint(world.config, None, SUBSET["isps"], 3)
        assert fp3 != fp2
        store3 = CheckpointStore(tmp_path, fp3)
        assert store3.load_completed() == {}  # nothing to resume
        specs3 = plan_shards(world, 3, **SUBSET)
        store3.save_shard(run_shard(world.config, specs3[0], world=world))
        # Both campaigns now coexist under one root, fully intact.
        assert set(store2.load_completed()) == {0, 1}
        assert set(store3.load_completed()) == {0}
        assert store2.campaign_directory != store3.campaign_directory

    def test_foreign_manifest_warns_instead_of_deleting(
            self, two_shards, tmp_path):
        """save_shard used to call clear() when the manifest
        fingerprint mismatched, destroying another campaign's files.
        Now it warns and rebuilds the manifest, deleting nothing."""
        results, fingerprint = two_shards
        store = CheckpointStore(tmp_path, fingerprint)
        store.save_shard(results[0])
        manifest = store.campaign_directory / "checkpoint.json"
        tampered = json.loads(manifest.read_text(encoding="utf-8"))
        tampered["fingerprint"] = "deadbeef"
        manifest.write_text(json.dumps(tampered), encoding="utf-8")
        with pytest.warns(UserWarning, match="fingerprint"):
            store.save_shard(results[1])
        # Nothing was deleted; both shards load.
        assert store.shard_path(0).exists()
        assert set(store.load_completed()) == {0, 1}

    def test_clear_only_touches_own_namespace(self, two_shards, tmp_path):
        results, fingerprint = two_shards
        store = CheckpointStore(tmp_path, fingerprint)
        store.save_shard(results[0])
        other = CheckpointStore(tmp_path, "feedc0de" * 8)
        other.save_shard(results[1])
        store.clear()
        assert store.load_completed() == {}
        assert set(other.load_completed()) == {1}
