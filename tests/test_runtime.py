"""Tests for repro.runtime: sharding, equivalence, resume, cache.

The load-bearing property is *bit-identical equivalence*: for a fixed
seed, the sharded campaign (any shard count, either backend) must
reproduce the sequential campaign's logs record for record. Checkpoint
resume and the audit cache are then tested against that same baseline.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.runtime.executor as executor_module
from harness.equivalence import canonical_logbook_bytes
from repro.bqt.campaign import MAX_POLITE_WORKERS_PER_ISP
from repro.core.collection import CollectionCampaign, collect_q3_dataset
from repro.core.pipeline import CAF_STUDY_ISP_IDS, run_full_audit
from repro.longitudinal import PanelCampaign
from repro.runtime import (
    AuditCache,
    CheckpointStore,
    RuntimeConfig,
    audit_digest,
    campaign_fingerprint,
    enumerate_q12_cells,
    execute_campaign,
    plan_shards,
    run_shard,
)
from repro.runtime.shards import ShardSpec
from repro.synth.churn import ChurnModel, WaveScenario

# A deliberately small slice of the campaign for the tests that rerun
# it several times (resume, process backend).
SUBSET = dict(isps=("consolidated",), states=("VT", "NH"),
              q3_states=("UT",))


def record_key(record):
    return (record.isp_id, record.address_id, record.block_geoid,
            record.status, record.plans, record.error_category,
            record.attempts, record.elapsed_seconds, record.replacement_for)


def log_keys(log):
    return [record_key(r) for r in log]


@pytest.fixture(scope="module")
def subset_baseline(world):
    campaign = CollectionCampaign(world)
    collection = campaign.run(isps=SUBSET["isps"], states=SUBSET["states"])
    q3 = collect_q3_dataset(world, states=SUBSET["q3_states"])
    return collection, q3


class TestShardPlanning:
    def test_partition_covers_all_cells_once(self, world):
        cells = enumerate_q12_cells(world)
        for count in (1, 2, 5, 16):
            specs = plan_shards(world, count)
            dealt = [c for spec in specs for c in spec.q12_cells]
            assert sorted(map(repr, dealt)) == sorted(map(repr, cells))

    def test_partition_q3_blocks_disjoint_and_complete(self, world):
        specs = plan_shards(world, 4)
        blocks = [b for spec in specs for b in spec.q3_blocks]
        assert len(blocks) == len(set(blocks))
        assert set(blocks) == set(plan_shards(world, 1)[0].q3_blocks)

    def test_partition_deterministic(self, world):
        assert plan_shards(world, 3) == plan_shards(world, 3)

    def test_more_shards_than_cells(self, world):
        cells = enumerate_q12_cells(world, isps=("consolidated",),
                                    states=("VT",))
        specs = plan_shards(world, len(cells) + 50,
                            isps=("consolidated",), states=("VT",),
                            q3_states=("UT",))
        assert sum(len(s.q12_cells) for s in specs) == len(cells)
        assert any(s.num_units == 0 for s in specs)

    def test_balance(self, world):
        specs = plan_shards(world, 4)
        sizes = [len(s.q12_cells) for s in specs]
        assert max(sizes) - min(sizes) <= 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ShardSpec(index=2, count=2, q12_cells=(), q3_blocks=())
        with pytest.raises(ValueError):
            ShardSpec(index=0, count=0, q12_cells=(), q3_blocks=())
        with pytest.raises(ValueError):
            plan_shards(None, 0)


class TestRuntimeConfig:
    def test_politeness_clamp(self):
        config = RuntimeConfig(shards=64, workers=64)
        assert config.effective_workers == MAX_POLITE_WORKERS_PER_ISP

    def test_workers_clamped_to_shards(self):
        assert RuntimeConfig(shards=2, workers=4).effective_workers == 2

    def test_auto_backend(self):
        assert RuntimeConfig().effective_backend == "serial"
        assert RuntimeConfig(shards=4, workers=2).effective_backend == "process"
        assert RuntimeConfig(shards=4, workers=2,
                             backend="serial").effective_backend == "serial"

    def test_async_backends(self):
        config = RuntimeConfig(shards=4, backend="async", max_inflight=16)
        assert config.uses_async
        assert config.concurrent_shards == 1
        assert config.per_shard_isp_cap == MAX_POLITE_WORKERS_PER_ISP
        assert not RuntimeConfig(shards=4, workers=2).uses_async

    def test_max_inflight_promotes_auto_to_async(self):
        """An explicit in-flight budget is a request for the async
        engine at the config layer too — not just via the CLI flag."""
        assert RuntimeConfig(shards=4, max_inflight=16).effective_backend \
            == "async"
        assert RuntimeConfig(shards=4, workers=2,
                             max_inflight=16).effective_backend \
            == "process+async"
        # Unset leaves auto resolving to the non-async backends, with
        # the documented default bound for explicit async backends.
        assert RuntimeConfig(shards=4).effective_backend == "serial"
        assert RuntimeConfig(backend="async").effective_max_inflight == 8

    def test_async_with_workers_promotes_to_composed_backend(self):
        """Requested parallelism must never be silently dropped: async
        plus workers resolves to process+async at the config layer, so
        the library and CLI entry points agree."""
        config = RuntimeConfig(shards=8, workers=4, backend="async")
        assert config.effective_backend == "process+async"
        assert config.concurrent_shards == 4
        # A single worker keeps the plain in-process event loop.
        assert RuntimeConfig(shards=8, backend="async").effective_backend \
            == "async"

    def test_politeness_budget_divided_across_workers(self):
        config = RuntimeConfig(shards=8, workers=4, backend="process+async")
        assert config.concurrent_shards == 4
        assert config.per_shard_isp_cap == MAX_POLITE_WORKERS_PER_ISP // 4
        assert (config.per_shard_isp_cap * config.concurrent_shards
                <= MAX_POLITE_WORKERS_PER_ISP)
        # Even more workers than cap tokens: everyone still gets one.
        crowded = RuntimeConfig(shards=64, workers=64,
                                backend="process+async")
        assert crowded.per_shard_isp_cap == 1

    def test_non_async_shards_drive_one_session(self):
        assert RuntimeConfig(shards=4, workers=2).per_shard_isp_cap == 1
        assert RuntimeConfig(shards=4, backend="serial").per_shard_isp_cap == 1

    def test_distributed_backend_config(self):
        """Distributed workers are sync by default; ``max_inflight``
        opts each worker's shard onto an event loop, with the
        politeness budget divided across the fleet as for
        process+async."""
        config = RuntimeConfig(shards=8, workers=4, backend="distributed")
        assert config.effective_backend == "distributed"
        assert config.concurrent_shards == 4
        assert not config.uses_async
        assert config.per_shard_isp_cap == 1
        interleaved = RuntimeConfig(shards=8, workers=4,
                                    backend="distributed", max_inflight=6)
        assert interleaved.uses_async
        assert interleaved.per_shard_isp_cap == \
            MAX_POLITE_WORKERS_PER_ISP // 4
        assert (interleaved.per_shard_isp_cap
                * interleaved.concurrent_shards
                <= MAX_POLITE_WORKERS_PER_ISP)

    def test_validation(self):
        with pytest.raises(ValueError):
            RuntimeConfig(shards=0)
        with pytest.raises(ValueError):
            RuntimeConfig(workers=0)
        with pytest.raises(ValueError):
            RuntimeConfig(backend="threads")
        with pytest.raises(ValueError):
            RuntimeConfig(max_inflight=0)
        with pytest.raises(ValueError):
            # An in-flight budget contradicts a non-async backend.
            RuntimeConfig(backend="process", max_inflight=4)
        with pytest.raises(ValueError):
            RuntimeConfig(resume=True)  # resume needs a checkpoint_dir

    def test_lease_timeout_validation(self):
        config = RuntimeConfig(shards=4, workers=2, backend="distributed",
                               lease_timeout=300.0)
        assert config.lease_timeout == 300.0
        with pytest.raises(ValueError):
            RuntimeConfig(backend="distributed", lease_timeout=0.0)
        with pytest.raises(ValueError):
            # A lease timeout must never be silently ignored.
            RuntimeConfig(shards=4, workers=2, backend="process",
                          lease_timeout=60.0)


class TestEquivalence:
    """The acceptance property: sharded == sequential, exactly."""

    def test_full_audit_headline_exact(self, world, report):
        sharded = run_full_audit(
            world=world, parallel=RuntimeConfig(shards=4, backend="serial"))
        assert sharded.headline() == report.headline()

    def test_full_audit_logs_bit_identical(self, world, report):
        sharded = run_full_audit(
            world=world, parallel=RuntimeConfig(shards=4, backend="serial"))
        assert log_keys(sharded.collection.log) == log_keys(
            report.collection.log)
        assert log_keys(sharded.q3_collection.log) == log_keys(
            report.q3_collection.log)
        assert sharded.q3_collection.modes == report.q3_collection.modes
        assert (sharded.q3_collection.analyzed_blocks
                == report.q3_collection.analyzed_blocks)
        assert sharded.collection.cbg_totals == report.collection.cbg_totals

    @pytest.mark.parametrize("shards", [1, 3, 7])
    def test_any_shard_count(self, world, subset_baseline, shards):
        collection, q3 = execute_campaign(
            world, RuntimeConfig(shards=shards, backend="serial"), **SUBSET)
        baseline_collection, baseline_q3 = subset_baseline
        assert log_keys(collection.log) == log_keys(baseline_collection.log)
        assert log_keys(q3.log) == log_keys(baseline_q3.log)

    def test_process_backend(self, world, subset_baseline):
        collection, q3 = execute_campaign(
            world, RuntimeConfig(shards=2, workers=2, backend="process"),
            **SUBSET)
        baseline_collection, baseline_q3 = subset_baseline
        assert log_keys(collection.log) == log_keys(baseline_collection.log)
        assert log_keys(q3.log) == log_keys(baseline_q3.log)

    def test_async_backend(self, world, subset_baseline):
        collection, q3 = execute_campaign(
            world, RuntimeConfig(shards=3, backend="async", max_inflight=16),
            **SUBSET)
        baseline_collection, baseline_q3 = subset_baseline
        assert log_keys(collection.log) == log_keys(baseline_collection.log)
        assert log_keys(q3.log) == log_keys(baseline_q3.log)

    def test_on_progress_reports_every_shard(self, world):
        seen: list[tuple[int, int, int, bool]] = []
        execute_campaign(
            world, RuntimeConfig(shards=3, backend="async"),
            on_progress=lambda done, total, r, restored: seen.append(
                (done, total, r.index, restored)),
            **SUBSET)
        assert [(done, total) for done, total, _, _ in seen] == \
            [(1, 3), (2, 3), (3, 3)]
        assert sorted(index for _, _, index, _ in seen) == [0, 1, 2]
        # Nothing came from a checkpoint: every shard was executed.
        assert not any(restored for _, _, _, restored in seen)

    def test_on_progress_flags_restored_shards(
            self, world, tmp_path, monkeypatch):
        """A resumed run reports checkpointed shards with
        ``restored=True`` (in index order, before anything executes)
        so ETA estimators can exclude them from the rate."""
        shard_dir = str(tmp_path / "ckpt")
        config = RuntimeConfig(shards=3, backend="serial",
                               checkpoint_dir=shard_dir)
        execute_campaign(world, config, **SUBSET)

        seen: list[tuple[int, int, bool]] = []
        resumed = RuntimeConfig(shards=3, backend="serial",
                                checkpoint_dir=shard_dir, resume=True)
        execute_campaign(
            world, resumed,
            on_progress=lambda done, total, r, restored: seen.append(
                (done, r.index, restored)),
            **SUBSET)
        assert seen == [(1, 0, True), (2, 1, True), (3, 2, True)]


class TestCheckpointResume:
    def test_interrupted_run_resumes_without_recomputation(
            self, world, subset_baseline, tmp_path, monkeypatch):
        shard_dir = str(tmp_path / "ckpt")
        executed: list[int] = []

        def counting_run_shard(scenario, spec, *args, **kwargs):
            if len(executed) == 2:  # simulate a crash after 2 shards
                raise KeyboardInterrupt
            executed.append(spec.index)
            return run_shard(scenario, spec, *args, **kwargs)

        import repro.runtime.executor as executor_module

        monkeypatch.setattr(executor_module, "run_shard", counting_run_shard)
        with pytest.raises(KeyboardInterrupt):
            execute_campaign(
                world,
                RuntimeConfig(shards=4, backend="serial",
                              checkpoint_dir=shard_dir),
                **SUBSET)
        assert len(executed) == 2
        monkeypatch.setattr(executor_module, "run_shard", run_shard)

        # Resume: only the two missing shards run.
        resumed_indices: list[int] = []

        def tracking_run_shard(scenario, spec, *args, **kwargs):
            resumed_indices.append(spec.index)
            return run_shard(scenario, spec, *args, **kwargs)

        monkeypatch.setattr(executor_module, "run_shard", tracking_run_shard)
        collection, q3 = execute_campaign(
            world,
            RuntimeConfig(shards=4, backend="serial",
                          checkpoint_dir=shard_dir, resume=True),
            **SUBSET)
        assert sorted(resumed_indices + executed) == [0, 1, 2, 3]
        baseline_collection, baseline_q3 = subset_baseline
        assert log_keys(collection.log) == log_keys(baseline_collection.log)
        assert log_keys(q3.log) == log_keys(baseline_q3.log)

    def test_async_backend_killed_and_resumed_matches_uninterrupted(
            self, world, subset_baseline, tmp_path, monkeypatch):
        """The PR-2 satellite: kill an async run after N shards, resume
        it, and the merged output must equal an uninterrupted run."""
        shard_dir = str(tmp_path / "ckpt-async")
        config = RuntimeConfig(shards=4, backend="async", max_inflight=12,
                               checkpoint_dir=shard_dir)
        executed: list[int] = []

        def dying_run_shard(scenario, spec, *args, **kwargs):
            if len(executed) == 2:  # kill after 2 shards complete
                raise KeyboardInterrupt
            executed.append(spec.index)
            return run_shard(scenario, spec, *args, **kwargs)

        import repro.runtime.executor as executor_module

        monkeypatch.setattr(executor_module, "run_shard", dying_run_shard)
        with pytest.raises(KeyboardInterrupt):
            execute_campaign(world, config, **SUBSET)
        assert len(executed) == 2
        monkeypatch.setattr(executor_module, "run_shard", run_shard)

        resumed = RuntimeConfig(shards=4, backend="async", max_inflight=12,
                                checkpoint_dir=shard_dir, resume=True)
        collection, q3 = execute_campaign(world, resumed, **SUBSET)
        baseline_collection, baseline_q3 = subset_baseline
        assert log_keys(collection.log) == log_keys(baseline_collection.log)
        assert log_keys(q3.log) == log_keys(baseline_q3.log)

    def test_fingerprint_covers_campaign_scope(self, tiny_config):
        base = campaign_fingerprint(tiny_config, None, ("att",), 4)
        assert base != campaign_fingerprint(tiny_config, None, ("att",), 8)
        assert base != campaign_fingerprint(
            tiny_config, None, ("att",), 4, states=("VT",))
        assert base != campaign_fingerprint(
            tiny_config, None, ("att",), 4, q3_states=("UT",))
        assert base != campaign_fingerprint(
            tiny_config, None, ("att",), 4, max_replacements=0)

    def test_truncated_manifest_rebuilds_from_shard_files(
            self, world, tmp_path):
        """A torn manifest no longer discards intact work: the store
        rebuilds it from the shard files (see test_checkpoint_crash.py
        for the full crash matrix)."""
        specs = plan_shards(world, 2, **SUBSET)
        fingerprint = campaign_fingerprint(world.config, None,
                                           SUBSET["isps"], 2)
        store = CheckpointStore(tmp_path, fingerprint)
        store.save_shard(run_shard(world.config, specs[0], world=world))
        (store.campaign_directory / "checkpoint.json").write_text(
            "{trunc", encoding="utf-8")
        assert set(store.load_completed()) == {0}
        # And saving over the wreckage works.
        store.save_shard(run_shard(world.config, specs[1], world=world))
        assert set(store.load_completed()) == {0, 1}

    def test_fingerprint_mismatch_sees_no_foreign_checkpoints(
            self, world, tmp_path):
        """Campaigns are namespaced by fingerprint: another campaign
        sharing the root neither sees nor disturbs this one's work."""
        specs = plan_shards(world, 2, **SUBSET)
        result = run_shard(world.config, specs[0], world=world)
        fingerprint = campaign_fingerprint(world.config, None,
                                           SUBSET["isps"], 2)
        store = CheckpointStore(tmp_path, fingerprint)
        store.save_shard(result)
        assert set(store.load_completed()) == {0}
        other = CheckpointStore(tmp_path, "deadbeef")
        assert other.load_completed() == {}
        # The foreign store clearing itself leaves this campaign alone.
        other.clear()
        assert set(store.load_completed()) == {0}

    def test_corrupted_shard_ignored(self, world, tmp_path):
        specs = plan_shards(world, 2, **SUBSET)
        fingerprint = campaign_fingerprint(world.config, None,
                                           SUBSET["isps"], 2)
        store = CheckpointStore(tmp_path, fingerprint)
        store.save_shard(run_shard(world.config, specs[0], world=world))
        store.save_shard(run_shard(world.config, specs[1], world=world))
        store.shard_path(1).write_text("{corrupted", encoding="utf-8")
        assert set(store.load_completed()) == {0}

    def test_checkpoint_roundtrip_exact(self, world, tmp_path):
        specs = plan_shards(world, 2, **SUBSET)
        original = run_shard(world.config, specs[0], world=world)
        fingerprint = campaign_fingerprint(world.config, None,
                                           SUBSET["isps"], 2)
        store = CheckpointStore(tmp_path, fingerprint)
        store.save_shard(original)
        restored = store.load_completed()[0]
        assert restored.q12_records.keys() == original.q12_records.keys()
        for cell, records in original.q12_records.items():
            assert list(map(record_key, restored.q12_records[cell])) == \
                list(map(record_key, records))
        assert restored.q3_outcomes.keys() == original.q3_outcomes.keys()


class TestAuditCache:
    def test_digest_sensitivity(self, tiny_config):
        base = audit_digest(tiny_config, None, ("att",))
        assert base == audit_digest(tiny_config, None, ("att",))
        assert base != audit_digest(tiny_config, None, ("att", "frontier"))
        assert base != audit_digest(tiny_config, None, ("att",),
                                    use_urban_survey=False)
        reseeded = type(tiny_config)(seed=99)
        assert base != audit_digest(reseeded, None, ("att",))

    def test_run_full_audit_cache_hit_skips_rebuild(
            self, world, report, tmp_path, monkeypatch):
        config = RuntimeConfig(shards=2, backend="serial",
                               cache_dir=str(tmp_path))
        first = run_full_audit(world=world, parallel=config)
        assert first.headline() == report.headline()

        # A second call must come from the cache: building a world or
        # querying a website would blow up.
        import repro.core.pipeline as pipeline_module

        def forbidden(*args, **kwargs):
            raise AssertionError("cache miss: pipeline recomputed")

        monkeypatch.setattr(pipeline_module, "build_world", forbidden)
        monkeypatch.setattr(pipeline_module, "CollectionCampaign", forbidden)
        second = run_full_audit(scenario=world.config, parallel=config)
        assert second.headline() == report.headline()

    def test_context_uses_cache(self, tmp_path, world, report):
        from repro.analysis.context import ExperimentContext

        cache = AuditCache(tmp_path)
        digest = audit_digest(world.config, None,
                              ("att", "centurylink", "frontier",
                               "consolidated"))
        cache.put(digest, report)
        context = ExperimentContext.at_scale("tiny",
                                             cache_dir=str(tmp_path))
        assert context.report.headline() == report.headline()
        # The cached world rides along so report and world agree.
        assert context.world is context.report.world

    def test_entries_and_sidecar(self, report, tmp_path):
        cache = AuditCache(tmp_path)
        digest = audit_digest(report.world.config, None, ("att",))
        path = cache.put(digest, report)
        assert cache.entries() == [digest]
        assert path.with_suffix(".json").exists()
        assert cache.get("0" * 64) is None

    def test_environment_wiring(self, monkeypatch, tmp_path):
        from repro.analysis.context import ExperimentContext
        from repro.runtime.cache import cache_dir_from_environment

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert cache_dir_from_environment() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert cache_dir_from_environment() == str(tmp_path)
        context = ExperimentContext.at_scale("tiny")
        assert context.cache_dir == str(tmp_path)


class TestCodeFingerprint:
    """Cache keys carry the package's sources: different code, new key."""

    _LOOKUP = (
        "import sys\n"
        "from repro.core.pipeline import CAF_STUDY_ISP_IDS\n"
        "from repro.runtime.cache import AuditCache, audit_digest\n"
        "from repro.synth import ScenarioConfig\n"
        "digest = audit_digest(ScenarioConfig.tiny(), None, CAF_STUDY_ISP_IDS)\n"
        "print(digest, AuditCache(sys.argv[1]).get(digest) is not None)\n"
    )

    def test_editing_a_world_generator_constant_turns_a_hit_into_a_miss(
            self, report, tmp_path):
        package = tmp_path / "src" / "repro"
        shutil.copytree(Path(repro.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        cache_dir = tmp_path / "cache"
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env.update(PYTHONPATH=str(package.parent), PYTHONDONTWRITEBYTECODE="1")

        def lookup() -> tuple[str, bool]:
            """The copy's audit key for the tiny scenario, and whether
            the cache holds an entry under it."""
            completed = subprocess.run(
                [sys.executable, "-c", self._LOOKUP, str(cache_dir)],
                env=env, capture_output=True, text=True, check=True)
            digest, hit = completed.stdout.split()
            return digest, hit == "True"

        digest = audit_digest(report.world.config, None, CAF_STUDY_ISP_IDS)
        # Byte-identical sources elsewhere on disk: the same key.
        assert lookup() == (digest, False)
        AuditCache(cache_dir).put(digest, report)
        assert lookup() == (digest, True)

        generator = package / "addresses" / "generator.py"
        source = generator.read_text(encoding="utf-8")
        assert '"Rd", "Ln"' in source
        generator.write_text(source.replace('"Rd", "Ln"', '"Road", "Ln"'),
                             encoding="utf-8")
        edited, hit = lookup()
        assert edited != digest
        assert not hit


class TestWorldCacheSplit:
    """The world digest (the autotune plan key) is policy-blind."""

    def test_world_digest_ignores_policy(self, tiny_config):
        from repro.core.sampling import SamplingPolicy
        from repro.runtime import world_digest

        assert world_digest(tiny_config) == world_digest(tiny_config)
        assert world_digest(tiny_config) != world_digest(
            type(tiny_config)(seed=99))
        # audit digests differ across policies; the world digest is
        # policy-blind by design.
        a = audit_digest(tiny_config, SamplingPolicy(min_samples=30), ("att",))
        b = audit_digest(tiny_config, SamplingPolicy(min_samples=10), ("att",))
        assert a != b


class TestCacheEviction:
    def _put(self, cache, report, tag):
        digest = audit_digest(report.world.config, None, (tag,))
        cache.put(digest, report)
        return digest

    def test_lru_eviction_respects_bound(self, report, tmp_path):
        import time

        unbounded = AuditCache(tmp_path)
        first = self._put(unbounded, report, "att")
        entry_bytes = unbounded.total_bytes()

        # Bound: room for roughly two entries; the third put evicts
        # the least-recently-used one.
        cache = AuditCache(tmp_path, max_bytes=int(entry_bytes * 2.5))
        time.sleep(0.02)
        second = self._put(cache, report, "frontier")
        time.sleep(0.02)
        assert cache.get(first) is not None  # refresh first's clock
        time.sleep(0.02)
        third = self._put(cache, report, "centurylink")
        assert cache.total_bytes() <= cache.max_bytes
        # `second` was coldest; `first` survived because the hit
        # refreshed it, and the just-written entry is never evicted.
        assert set(cache.entries()) == {first, third}
        assert cache.get(second) is None

    def test_stale_tmp_files_swept_on_eviction(self, report, tmp_path):
        import os
        import time

        cache = AuditCache(tmp_path, max_bytes=10**9)
        stale = tmp_path / "deadbeef.pkl.tmp-99999"
        stale.write_bytes(b"orphaned by a crashed writer")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        fresh = tmp_path / "cafe.pkl.tmp-11111"
        fresh.write_bytes(b"a live writer's in-progress file")
        self._put(cache, report, "att")
        assert not stale.exists()  # crash leak reclaimed
        assert fresh.exists()      # live writer untouched

    def test_two_writer_eviction_skips_vanished_entries(
            self, report, tmp_path, monkeypatch):
        """Two processes evicting the same directory: an entry whose
        stat races a second writer (returns ``None``) must be skipped.
        The old code sorted such an entry as mtime 0.0, "evicted" it
        first — deleting the most-recently-used live entry — and
        subtracted its bytes from a running total that was computed by
        a *separate* stat pass, so the genuinely-LRU entry survived."""
        import time

        unbounded = AuditCache(tmp_path)
        oldest = self._put(unbounded, report, "att")
        entry_bytes = unbounded.total_bytes()

        cache = AuditCache(tmp_path, max_bytes=int(entry_bytes * 1.5))
        time.sleep(0.02)
        recent = self._put(unbounded, report, "frontier")
        time.sleep(0.02)

        # The second writer races exactly one stat: the first stat of
        # the *recent* entry observes it "vanished".
        real_stat = AuditCache._stat_or_none
        recent_pkl = cache.path_for(recent)
        raced = []

        def racing_stat(path):
            if path == recent_pkl and not raced:
                raced.append(path)
                return None
            return real_stat(path)

        monkeypatch.setattr(AuditCache, "_stat_or_none",
                            staticmethod(racing_stat))
        third = self._put(cache, report, "centurylink")
        monkeypatch.undo()
        assert raced, "the race window was never exercised"

        # The vanished-stat entry is not ours to count or delete: the
        # LRU `oldest` is evicted, `recent` survives untouched.
        assert set(cache.entries()) == {recent, third}
        assert cache.get(recent) is not None
        assert cache.get(oldest) is None

    def test_max_bytes_environment(self, monkeypatch, tmp_path):
        from repro.runtime import cache_max_bytes_from_environment

        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
        assert cache_max_bytes_from_environment() is None
        assert AuditCache(tmp_path).max_bytes is None
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1048576")
        assert cache_max_bytes_from_environment() == 1048576
        assert AuditCache(tmp_path).max_bytes == 1048576
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "zero")
        with pytest.raises(ValueError):
            cache_max_bytes_from_environment()
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "-5")
        with pytest.raises(ValueError):
            cache_max_bytes_from_environment()


class TestPendingAwareBudget:
    def test_resumed_tail_gets_full_headroom(self):
        """A process+async tail with one shard left runs alone, so it
        may use the whole politeness cap instead of a fleet-divided
        slice."""
        config = RuntimeConfig(shards=8, workers=4, backend="process+async")
        assert config.per_shard_isp_cap == MAX_POLITE_WORKERS_PER_ISP // 4
        assert config.per_shard_isp_cap_for(8) == config.per_shard_isp_cap
        assert config.per_shard_isp_cap_for(2) == MAX_POLITE_WORKERS_PER_ISP // 2
        assert config.per_shard_isp_cap_for(1) == MAX_POLITE_WORKERS_PER_ISP
        # Never exceeds the global cap, whatever remains.
        for pending in range(9):
            cap = config.per_shard_isp_cap_for(pending)
            assert cap * min(config.concurrent_shards, max(1, pending)) \
                <= MAX_POLITE_WORKERS_PER_ISP


def _run_shard_frozen(*args, **kwargs):
    """``run_shard`` for pool workers whose inherited heap must be
    frozen out of garbage collection (module level, so it pickles)."""
    if gc.get_freeze_count() == 0:
        raise AssertionError("a forked pool worker's heap is not frozen")
    return run_shard(*args, **kwargs)


class TestPoolWorldHandoff:
    """Pool workers adopt the coordinator's world instead of rebuilding.

    The coordinator has already built (or evolved) the world, so a
    pool worker that builds one again pays the whole world build before
    its first shard. With every rebuild path made to raise, pooled
    campaigns must still equal the serial backend byte for byte.
    """

    @pytest.fixture
    def no_rebuild(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a pool worker rebuilt the world")

        # An empty coordinator cache, so forked workers cannot inherit
        # a world some earlier test left behind.
        monkeypatch.setattr(executor_module, "_WORLD_CACHE", {})
        monkeypatch.setattr(executor_module, "build_world", refuse)
        monkeypatch.setattr(WaveScenario, "realize", refuse)

    @pytest.fixture(scope="class")
    def serial_bytes(self, world):
        return canonical_logbook_bytes(*execute_campaign(
            world, RuntimeConfig(shards=2, backend="serial"), **SUBSET))

    @pytest.mark.parametrize("backend", ["process", "process+async"])
    def test_pool_workers_never_rebuild(self, world, serial_bytes,
                                        no_rebuild, backend):
        pooled = execute_campaign(
            world, RuntimeConfig(shards=2, workers=2, backend=backend),
            **SUBSET)
        assert canonical_logbook_bytes(*pooled) == serial_bytes

    @pytest.mark.skipif(
        executor_module._pool_context().get_start_method() != "fork",
        reason="only forked workers inherit the coordinator's heap")
    def test_forked_workers_inherit_a_frozen_world(self, world, serial_bytes,
                                                  monkeypatch):
        """A forked worker's collections must skip the inherited world
        (walking it would copy every shared page), and the coordinator's
        heap is unfrozen again once the pool is gone."""
        monkeypatch.setattr(executor_module, "run_shard", _run_shard_frozen)
        frozen_before = gc.get_freeze_count()
        pooled = execute_campaign(
            world, RuntimeConfig(shards=2, workers=2, backend="process"),
            **SUBSET)
        assert canonical_logbook_bytes(*pooled) == serial_bytes
        assert gc.get_freeze_count() == frozen_before == 0

    @pytest.mark.skipif(
        executor_module._pool_context().get_start_method() != "fork",
        reason="only forked workers share the coordinator's world")
    def test_coordinator_world_stays_cold(self, tiny_config):
        """Forked workers build the cells their shards query; the
        coordinator, which only plans and merges, builds none."""
        from repro.synth.world import build_world

        world = build_world(tiny_config)
        execute_campaign(
            world, RuntimeConfig(shards=4, workers=2, backend="process"))
        assert world.ground_truth._truths == {}
        assert world.zillow._by_id == {}

    def test_spawned_workers_unpickle_the_world(self, world, serial_bytes,
                                                monkeypatch):
        monkeypatch.setattr(executor_module, "_pool_context",
                            lambda: multiprocessing.get_context("spawn"))
        pooled = execute_campaign(
            world, RuntimeConfig(shards=2, workers=2, backend="process"),
            **SUBSET)
        assert canonical_logbook_bytes(*pooled) == serial_bytes

    def test_delta_wave_workers_adopt_the_evolved_world(
            self, world, no_rebuild, monkeypatch):
        pool_runs: list[int] = []
        run_pool = executor_module._run_shards_process

        def counted(world, pending, *args):
            pool_runs.append(len(pending))
            return run_pool(world, pending, *args)

        monkeypatch.setattr(executor_module, "_run_shards_process", counted)
        churn = ChurnModel()  # enough changed cells for two shards
        serial = PanelCampaign(world, model=churn, horizons=(1,),
                               **SUBSET).run()
        pooled = PanelCampaign(
            world, model=churn, horizons=(1,),
            runtime=RuntimeConfig(backend="process", shards=2, workers=2),
            **SUBSET).run()
        # Wave 0 and the delta wave both ran two shards on the pool.
        assert pool_runs == [2, 2]
        for left, right in zip(serial, pooled, strict=True):
            assert canonical_logbook_bytes(left.collection, left.q3) \
                == canonical_logbook_bytes(right.collection, right.q3)
