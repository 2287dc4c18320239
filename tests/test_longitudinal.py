"""Tests for repro.longitudinal — panels, digests, delta planning.

The replay-equivalence scenarios (incremental wave == from-scratch
re-collection, byte for byte) live in tests/test_equivalence_harness.py
with the backend matrix; this file covers the subsystem's own
mechanics: digest stability, delta planning, fold/merge conservation,
wave resume (checkpoints and the panel store), the wave-scenario
recipe that keys evolved worlds for workers, and the persisted autotune
plan.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

import repro.runtime.executor as executor_module
from harness.equivalence import canonical_logbook_bytes
from repro.longitudinal import (
    PanelCampaign,
    PanelStore,
    compute_wave_digests,
    diff_digests,
)
from repro.runtime import RuntimeConfig
from repro.runtime.distributed import (
    _scenario_from_json,
    autotune_runtime_config,
)
from repro.synth.churn import ChurnModel, WaveScenario, churned_world
from repro.synth.scenario import ScenarioConfig

pytestmark = pytest.mark.longitudinal

# One ISP's footprint in two states plus one Q3 state: the same shape
# the backend-equivalence matrix uses — small enough for many panels.
SUBSET = dict(isps=("consolidated",), states=("VT", "NH"),
              q3_states=("UT",))

SPARSE = ChurnModel(cell_rate=0.3)


@pytest.fixture(scope="module")
def panel_outcomes(world):
    """One shared incremental panel over the session world."""
    return PanelCampaign(world, model=SPARSE, horizons=(1, 2),
                         **SUBSET).run()


class TestWaveDigests:
    def test_recompute_is_stable(self, world):
        first = compute_wave_digests(world, **SUBSET)
        second = compute_wave_digests(world, **SUBSET)
        assert first.q12 == second.q12
        assert first.q3 == second.q3
        assert first.total_cells > 0

    def test_zero_churn_preserves_every_digest(self, world):
        frozen = ChurnModel(upgrade_rate=0.0, new_deployment_rate=0.0,
                            retirement_rate=0.0)
        evolved = churned_world(world, years=3, model=frozen)
        assert compute_wave_digests(evolved, **SUBSET).q12 == \
            compute_wave_digests(world, **SUBSET).q12

    def test_zero_cell_rate_preserves_every_digest(self, world):
        evolved = churned_world(world, years=3,
                                model=ChurnModel(cell_rate=0.0))
        base = compute_wave_digests(world, **SUBSET)
        after = compute_wave_digests(evolved, **SUBSET)
        assert base.q12 == after.q12
        assert base.q3 == after.q3

    def test_unchanged_cells_keep_digests_under_sparse_churn(self, world):
        """Digest stability is cell-local: churn elsewhere must not
        move an untouched cell's digest."""
        evolved = churned_world(world, years=1, model=SPARSE)
        base = compute_wave_digests(world, **SUBSET)
        after = compute_wave_digests(evolved, **SUBSET)
        delta = diff_digests(base, after)
        unchanged = set(base.q12) - set(delta.changed_q12)
        assert unchanged, "sparse churn should leave some cells alone"
        for cell in unchanged:
            assert base.q12[cell] == after.q12[cell]

    def test_aggressive_churn_moves_digests(self, world):
        evolved = churned_world(
            world, years=2,
            model=ChurnModel(upgrade_rate=0.9, cell_rate=1.0))
        delta = diff_digests(compute_wave_digests(world, **SUBSET),
                             compute_wave_digests(evolved, **SUBSET))
        assert len(delta.changed_q12) > 0
        assert delta.requery_fraction > 0.5

    def test_diff_against_nothing_changes_everything(self, world):
        digests = compute_wave_digests(world, **SUBSET)
        delta = diff_digests(None, digests)
        assert len(delta.changed_q12) == delta.total_q12
        assert len(delta.changed_q3) == delta.total_q3
        assert delta.requery_fraction == 1.0


class TestPanelCampaign:
    def test_wave_zero_matches_direct_campaign(self, world, panel_outcomes):
        from repro.core.collection import (
            CollectionCampaign,
            collect_q3_dataset,
        )

        snapshot = panel_outcomes[0]
        collection = CollectionCampaign(world).run(
            isps=SUBSET["isps"], states=SUBSET["states"])
        q3 = collect_q3_dataset(world, states=SUBSET["q3_states"])
        assert canonical_logbook_bytes(snapshot.collection, snapshot.q3) \
            == canonical_logbook_bytes(collection, q3)

    def test_accounting_conserves_cells(self, panel_outcomes):
        for outcome in panel_outcomes:
            assert (outcome.fresh_q12 + outcome.replayed_q12
                    == outcome.delta.total_q12)
            assert (outcome.fresh_q3 + outcome.replayed_q3
                    == outcome.delta.total_q3)
        assert panel_outcomes[0].reuse_fraction == 0.0

    def test_sparse_churn_actually_replays(self, panel_outcomes):
        assert sum(o.replayed_q12 + o.replayed_q3
                   for o in panel_outcomes[1:]) > 0

    def test_zero_churn_waves_replay_everything(self, world):
        frozen = ChurnModel(cell_rate=0.0)
        outcomes = PanelCampaign(world, model=frozen, horizons=(1, 2),
                                 **SUBSET).run()
        snapshot_bytes = canonical_logbook_bytes(
            outcomes[0].collection, outcomes[0].q3)
        for outcome in outcomes[1:]:
            assert outcome.fresh_q12 == outcome.fresh_q3 == 0
            assert outcome.reuse_fraction == 1.0
            assert canonical_logbook_bytes(
                outcome.collection, outcome.q3) == snapshot_bytes

    def test_horizon_validation(self, world):
        with pytest.raises(ValueError):
            PanelCampaign(world, horizons=())
        with pytest.raises(ValueError):
            PanelCampaign(world, horizons=(0, 1))
        with pytest.raises(ValueError):
            PanelCampaign(world, horizons=(2, 1))
        with pytest.raises(ValueError):
            PanelCampaign(world, horizons=(1, 1))
        with pytest.raises(ValueError, match="resume"):
            PanelCampaign(world, horizons=(1,), resume=True)

    def test_determinism_across_runs(self, world, panel_outcomes):
        again = PanelCampaign(world, model=SPARSE, horizons=(1, 2),
                              **SUBSET).run()
        for first, second in zip(panel_outcomes, again):
            assert canonical_logbook_bytes(first.collection, first.q3) \
                == canonical_logbook_bytes(second.collection, second.q3)
            assert first.delta == second.delta


class TestWaveResume:
    def _bytes(self, outcomes):
        return [canonical_logbook_bytes(o.collection, o.q3)
                for o in outcomes]

    def test_checkpointed_waves_resume_without_queries(
            self, world, tmp_path, monkeypatch):
        runtime = RuntimeConfig(backend="serial", shards=2,
                                checkpoint_dir=str(tmp_path / "ckpt"))
        reference = self._bytes(PanelCampaign(
            world, model=SPARSE, horizons=(1, 2), runtime=runtime,
            **SUBSET).run())

        def refuse(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("resume re-queried a checkpointed shard")

        monkeypatch.setattr(executor_module, "run_shard", refuse)
        resumed = RuntimeConfig(backend="serial", shards=2,
                                checkpoint_dir=str(tmp_path / "ckpt"),
                                resume=True)
        outcomes = PanelCampaign(world, model=SPARSE, horizons=(1, 2),
                                 runtime=resumed, **SUBSET).run()
        assert self._bytes(outcomes) == reference

    def test_panel_store_resume_replays_waves(
            self, world, tmp_path, monkeypatch):
        store_dir = str(tmp_path / "panel")
        reference = self._bytes(PanelCampaign(
            world, model=SPARSE, horizons=(1, 2), store_dir=store_dir,
            **SUBSET).run())

        def refuse(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("store resume re-queried a wave")

        monkeypatch.setattr(executor_module, "run_shard", refuse)
        campaign = PanelCampaign(world, model=SPARSE, horizons=(1, 2),
                                 store_dir=store_dir, resume=True,
                                 **SUBSET)
        outcomes = campaign.run()
        assert self._bytes(outcomes) == reference
        assert all(o.restored_from_store for o in outcomes)
        assert campaign.store.waves() == [0, 1, 2]

    def test_damaged_store_wave_recomputes(self, world, tmp_path):
        store_dir = str(tmp_path / "panel")
        campaign = PanelCampaign(world, model=SPARSE, horizons=(1,),
                                 store_dir=store_dir, **SUBSET)
        reference = self._bytes(campaign.run())
        # Truncate wave 1 mid-document: resume must fall back to
        # recomputing it (and still match), never crash or mis-replay.
        path = campaign.store.wave_path(1)
        path.write_text(path.read_text(encoding="utf-8")[:100],
                        encoding="utf-8")
        outcomes = PanelCampaign(world, model=SPARSE, horizons=(1,),
                                 store_dir=store_dir, resume=True,
                                 **SUBSET).run()
        assert self._bytes(outcomes) == reference
        assert outcomes[0].restored_from_store
        assert not outcomes[1].restored_from_store

    def test_store_rejects_foreign_fingerprint(self, world, tmp_path):
        campaign = PanelCampaign(world, model=SPARSE, horizons=(1,),
                                 store_dir=str(tmp_path), **SUBSET)
        campaign.run()
        foreign = PanelStore(tmp_path, "deadbeef" * 8)
        assert foreign.load_wave(0) is None


class TestPanelStoreCAS:
    """The format-2 store: digest-keyed cell CAS + thin manifests."""

    def _run(self, world, tmp_path, horizons=(1, 2), resume=False):
        return PanelCampaign(world, model=SPARSE, horizons=horizons,
                             store_dir=str(tmp_path / "panel"),
                             resume=resume, **SUBSET)

    def test_unchanged_cells_stored_once_per_digest(self, world, tmp_path):
        """The storage analogue of delta collection: CAS entries number
        distinct digests (snapshot cells + churned generations), not
        waves x cells — and every one is referenced."""
        campaign = self._run(world, tmp_path)
        outcomes = campaign.run()
        store = campaign.store
        total = outcomes[0].delta.total_q12 + outcomes[0].delta.total_q3
        churned = sum(o.fresh_q12 + o.fresh_q3 for o in outcomes[1:])
        cas_files = {p.stem for p in store.cells_directory.glob("*.json")}
        assert len(cas_files) <= total + churned
        assert len(cas_files) < len(outcomes) * total, (
            "CAS stored cells once per wave — no cross-wave sharing")
        assert cas_files == store.referenced_digests()

    def test_sweep_reclaims_only_orphans(self, world, tmp_path):
        campaign = self._run(world, tmp_path)
        campaign.run()
        store = campaign.store
        # Nothing referenced may be reclaimed...
        assert store.sweep_unreferenced_cells() == []
        # ...while an orphan (e.g. a crash between CAS publish and the
        # manifest write) is.
        orphan = "f" * 64
        store.cell_path(orphan).write_text("{}", encoding="utf-8")
        assert store.sweep_unreferenced_cells() == [orphan]

    def test_sweep_is_safe_under_resume(self, world, tmp_path,
                                        monkeypatch):
        """A sweep between runs must never strand a wave a later
        ``--resume`` will load: after sweeping, every wave still
        restores from the store without a single query."""
        campaign = self._run(world, tmp_path)
        reference = [canonical_logbook_bytes(o.collection, o.q3)
                     for o in campaign.run()]
        campaign.store.sweep_unreferenced_cells()

        def refuse(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("resume re-queried after a sweep")

        monkeypatch.setattr(executor_module, "run_shard", refuse)
        resumed = self._run(world, tmp_path, resume=True)
        outcomes = resumed.run()
        assert [canonical_logbook_bytes(o.collection, o.q3)
                for o in outcomes] == reference
        assert all(o.restored_from_store for o in outcomes)

    def test_crash_orphans_reclaimed_by_end_of_run_sweep(
            self, world, tmp_path):
        """A crash between publishing a wave's CAS entries and its
        manifest leaves orphaned cell files; the next completed run's
        end-of-panel sweep reclaims them (and a healthy store sweeps
        nothing — CAS files and references coincide exactly)."""
        campaign = self._run(world, tmp_path, horizons=(1,))
        campaign.run()
        store = campaign.store
        assert ({p.stem for p in store.cells_directory.glob("*.json")}
                == store.referenced_digests())
        # Simulate the crash: orphan CAS entries with no manifest.
        orphans = {"a" * 64, "b" * 64}
        for digest in orphans:
            store.cell_path(digest).write_text("{}", encoding="utf-8")
        rerun = self._run(world, tmp_path, horizons=(1,), resume=True)
        rerun.run()
        remaining = {p.stem for p in store.cells_directory.glob("*.json")}
        assert remaining == store.referenced_digests()
        assert not (orphans & remaining)

    def test_different_horizons_use_disjoint_panel_directories(
            self, world, tmp_path):
        """Horizons feed the panel fingerprint, so panels at different
        horizons can never share (or sweep) each other's CAS."""
        one = self._run(world, tmp_path, horizons=(1,))
        two = self._run(world, tmp_path, horizons=(1, 2))
        assert one.fingerprint != two.fingerprint
        assert (one.store.panel_directory
                != two.store.panel_directory)

    def test_missing_cas_entry_makes_the_wave_a_miss(self, world,
                                                     tmp_path):
        campaign = self._run(world, tmp_path, horizons=(1,))
        campaign.run()
        store = campaign.store
        victim = next(iter(store.referenced_digests()))
        store.cell_path(victim).unlink()
        affected = [wave for wave in store.waves()
                    if store.load_wave(wave) is None]
        assert affected, "some wave referenced the deleted digest"
        # A resumed panel recomputes the damaged wave(s) and heals the
        # store, byte-for-byte.
        healed = self._run(world, tmp_path, horizons=(1,), resume=True)
        healed.run()
        assert all(store.load_wave(wave) is not None
                   for wave in store.waves())

    def test_tampered_cell_payload_rejected_and_healed(self, world,
                                                       tmp_path):
        """A corrupted-in-place CAS entry is a miss AND is quarantined,
        so the recompute's republish actually replaces it — without
        the unlink, ``_publish_cell``'s exists() skip would leave the
        damage in place and the wave would re-collect on every resume
        forever."""
        campaign = self._run(world, tmp_path, horizons=(1,))
        campaign.run()
        store = campaign.store
        victim = next(iter(store.referenced_digests()))
        path = store.cell_path(victim)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["payload"]["tampered"] = True
        path.write_text(json.dumps(document), encoding="utf-8")
        assert store._load_cell_payload(victim) is None
        assert not path.exists()  # quarantined, not left to fester

        # The resumed run recomputes the affected wave(s) and heals
        # the store: the entry is republished and every wave loads.
        self._run(world, tmp_path, horizons=(1,), resume=True).run()
        assert store._load_cell_payload(victim) is not None
        assert all(store.load_wave(wave) is not None
                   for wave in store.waves())

    def test_rollback_never_unlinks_newer_format_entries(
            self, world, tmp_path):
        """A CAS entry claiming a *future* format is a plain miss, not
        quarantine fodder: rolling back a binary must not delete the
        newer store it cannot read."""
        campaign = self._run(world, tmp_path, horizons=(1,))
        campaign.run()
        store = campaign.store
        future = store.cell_path("d" * 64)
        future.write_text(json.dumps({"format": 99, "digest": "d" * 64,
                                      "payload": {}}), encoding="utf-8")
        assert store._load_cell_payload("d" * 64) is None
        assert future.exists()

    def test_v1_wave_document_loads_read_only(self, world, tmp_path):
        """A format-1 wave file (the pre-CAS layout: the whole cell
        payload embedded as one double-encoded JSON string) must keep
        loading byte-for-byte, so existing panels upgrade in place."""
        import hashlib

        from repro.runtime.checkpoint import _shard_to_json

        campaign = self._run(world, tmp_path, horizons=(1,))
        outcomes = campaign.run()
        store = campaign.store
        reference = store.load_wave(0)
        assert reference is not None

        # Rewrite wave 0 exactly as the 1.4 store serialized it.
        cell_payload = json.dumps(_shard_to_json(outcomes[0].cells),
                                  sort_keys=True, separators=(",", ":"))
        v1_document = {
            "format": 1,
            "fingerprint": store.fingerprint,
            "wave": 0,
            "horizon_years": 0,
            "counts": {"fresh_q12": outcomes[0].fresh_q12,
                       "replayed_q12": 0,
                       "fresh_q3": outcomes[0].fresh_q3,
                       "replayed_q3": 0},
            "cells_sha256": hashlib.sha256(
                cell_payload.encode("utf-8")).hexdigest(),
            "cells": cell_payload,
        }
        store.wave_path(0).write_text(json.dumps(v1_document,
                                                 sort_keys=True),
                                      encoding="utf-8")
        loaded = store.load_wave(0)
        assert loaded is not None
        cells, manifest = loaded
        assert manifest["format"] == 1
        assert _shard_to_json(cells) == _shard_to_json(reference[0])

        # And a resumed panel replays the v1 wave wholesale.
        resumed = self._run(world, tmp_path, horizons=(1,), resume=True)
        assert all(o.restored_from_store for o in resumed.run())

    def test_v1_checksum_still_over_the_double_encoded_string(
            self, world, tmp_path):
        """The v1 reader must checksum the embedded *string* payload
        (its historical on-disk form), so real v1 files verify and
        subtly re-encoded ones do not."""
        campaign = self._run(world, tmp_path, horizons=(1,))
        outcomes = campaign.run()
        store = campaign.store
        from repro.runtime.checkpoint import _shard_to_json

        cell_payload = json.dumps(_shard_to_json(outcomes[0].cells),
                                  sort_keys=True, separators=(",", ":"))
        document = {
            "format": 1,
            "fingerprint": store.fingerprint,
            "wave": 0,
            "horizon_years": 0,
            "counts": {},
            "cells_sha256": "0" * 64,  # wrong checksum
            "cells": cell_payload,
        }
        store.wave_path(0).write_text(json.dumps(document),
                                      encoding="utf-8")
        assert store.load_wave(0) is None

    def test_v2_document_is_not_double_encoded(self, world, tmp_path):
        """The satellite bugfix: manifests and CAS entries store
        nested JSON objects, not pre-serialized strings."""
        campaign = self._run(world, tmp_path, horizons=(1,))
        campaign.run()
        store = campaign.store
        document = json.loads(store.wave_path(0).read_text("utf-8"))
        assert document["format"] == 2
        assert isinstance(document["cells"], dict)
        from repro.runtime.cache import content_digest

        assert document["cells_sha256"] == content_digest(
            document["cells"])
        digest = document["cells"]["q12"][0][-1]
        cell = json.loads(store.cell_path(digest).read_text("utf-8"))
        assert isinstance(cell["payload"], dict)
        assert cell["payload_sha256"] == content_digest(cell["payload"])


class TestWaveScenario:
    def test_realize_matches_direct_evolution(self, world, tiny_config):
        scenario = WaveScenario(base=tiny_config, years=2, model=SPARSE)
        realized = scenario.realize()
        direct = churned_world(world, years=2, model=SPARSE)
        assert compute_wave_digests(realized, **SUBSET).q12 == \
            compute_wave_digests(direct, **SUBSET).q12

    def test_wire_codec_roundtrip(self, tiny_config):
        scenario = WaveScenario(base=tiny_config, years=3,
                                model=ChurnModel(cell_rate=0.25))
        decoded = _scenario_from_json(json.loads(
            json.dumps(asdict(scenario), sort_keys=True)))
        assert decoded == scenario

    def test_plain_scenario_codec_still_works(self, tiny_config):
        decoded = _scenario_from_json(json.loads(
            json.dumps(asdict(tiny_config), sort_keys=True)))
        assert decoded == tiny_config

    def test_negative_years_raise(self, tiny_config):
        with pytest.raises(ValueError):
            WaveScenario(base=tiny_config, years=-1)

    def test_passthrough_properties(self, tiny_config):
        scenario = WaveScenario(base=tiny_config, years=1)
        assert scenario.seed == tiny_config.seed
        assert scenario.states == tiny_config.states
        assert scenario.q3_states == tiny_config.q3_states


class TestProcessBackendRealizesWaves:
    def test_process_delta_matches_serial(self, world):
        """Process-pool workers serve the evolved wave world under its
        WaveScenario key — their records must match the in-process
        serial path byte for byte."""
        serial = PanelCampaign(world, model=SPARSE, horizons=(1,),
                               **SUBSET).run()
        pooled = PanelCampaign(
            world, model=SPARSE, horizons=(1,),
            runtime=RuntimeConfig(backend="process", shards=2, workers=2),
            **SUBSET).run()
        for left, right in zip(serial, pooled):
            assert canonical_logbook_bytes(left.collection, left.q3) \
                == canonical_logbook_bytes(right.collection, right.q3)


class TestAutotunePlanStore:
    def test_plan_persists_and_skips_pilot(self, world, tmp_path,
                                           monkeypatch):
        first = autotune_runtime_config(world, target_seconds=1e9,
                                        plan_dir=tmp_path, **SUBSET)
        stored = list(tmp_path.glob("autotune-*.json"))
        assert len(stored) == 1

        def refuse(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pilot shard ran despite a stored plan")

        monkeypatch.setattr(executor_module, "run_shard", refuse)
        second = autotune_runtime_config(world, target_seconds=1e9,
                                         plan_dir=tmp_path, **SUBSET)
        assert second == first

    def test_different_target_misses_the_store(self, world, tmp_path):
        autotune_runtime_config(world, target_seconds=1e9,
                                plan_dir=tmp_path, **SUBSET)
        autotune_runtime_config(world, target_seconds=3600.0,
                                plan_dir=tmp_path, **SUBSET)
        assert len(list(tmp_path.glob("autotune-*.json"))) == 2

    def test_damaged_plan_recomputes(self, world, tmp_path):
        first = autotune_runtime_config(world, target_seconds=1e9,
                                        plan_dir=tmp_path, **SUBSET)
        (path,) = tmp_path.glob("autotune-*.json")
        path.write_text("{not json", encoding="utf-8")
        again = autotune_runtime_config(world, target_seconds=1e9,
                                        plan_dir=tmp_path, **SUBSET)
        assert again == first


class TestPanelExperiment:
    def test_trajectory_and_attribution(self, context):
        from repro.analysis.panel import run as run_panel

        result = run_panel(context, waves=2)
        trajectory = result.tables["trajectory"]
        assert len(trajectory) == 3
        assert trajectory.row(0)["years_after_snapshot"] == 0
        assert trajectory.row(0)["reuse_fraction"] == 0.0
        assert result.scalars["mean_wave_reuse_fraction"] > 0.0
        assert result.scalars["staleness_half_life_years"] > 0.0
        attribution = result.tables["churn_attribution"]
        assert len(attribution) > 0

    def test_waves_validation(self, context):
        from repro.analysis.panel import run as run_panel

        with pytest.raises(ValueError):
            run_panel(context, waves=0)
