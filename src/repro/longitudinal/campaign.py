"""Multi-wave panel campaigns with delta-aware incremental re-collection.

The paper's audit is a one-shot snapshot (its Appendix 8.1 concedes the
staleness); a :class:`PanelCampaign` turns it into a *panel* — the same
audit repeated over an evolving world, the longitudinal methodology of
classic multi-year measurement studies. Each wave:

1. **evolves** the world to its horizon (:func:`repro.synth.churn
   .churned_world` — a Markov chain in the year index, so wave k is
   the continuation of wave k-1's trajectory);
2. **plans a delta**: every (ISP, CBG) cell and Q3 block is digested
   (:mod:`repro.longitudinal.digests`) and diffed against the prior
   wave — unchanged cells will be *replayed* from the prior wave's
   per-cell logbook, changed cells re-queried;
3. **executes** the changed cells through the ordinary runtime
   dispatcher (:func:`repro.runtime.executor.dispatch_shards` — every
   backend: serial, process, async, distributed; per-wave shard
   checkpoints and ``resume``), keyed by a
   :class:`~repro.synth.churn.WaveScenario`: process-pool workers
   adopt the coordinator's evolved world under it, and distributed
   workers rebuild the evolved world from it;
4. **merges** replayed + fresh cells through the runtime's canonical
   merge, producing a wave logbook byte-identical to a from-scratch
   re-collection of the evolved world (enforced by
   ``tests/harness/equivalence.py``'s panel scenario).

Because only changed cells are queried, a wave in which c% of cells
churned costs O(c% of the campaign) instead of O(campaign) — the
re-audit is O(churn), not O(world).

Wave 0 is the snapshot: a full collection (its delta is "everything
changed"). A :class:`~repro.longitudinal.store.PanelStore` persists
each wave's cells, so an interrupted panel resumes from the last
intact wave.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

from repro.bqt.engine import EngineConfig
from repro.core.collection import CollectionResult, Q3Collection
from repro.core.sampling import SamplingPolicy
from repro.longitudinal.digests import (
    DeltaPlan,
    WaveDigests,
    compute_wave_digests,
    diff_digests,
)
from repro.longitudinal.store import PanelStore
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.trace import (
    configure_tracing,
    publish_trace,
    span,
    trace_dir_from_environment,
    tracing_enabled,
)
from repro.runtime.cache import content_digest
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.executor import (
    RuntimeConfig,
    ShardResult,
    dispatch_shards,
    run_shard,
)
from repro.runtime.merge import merge_shard_results
from repro.runtime.shards import DEFAULT_ISPS, ShardSpec, deal_shards
from repro.synth.churn import ChurnModel, WaveScenario, churned_world
from repro.synth.world import World

__all__ = ["DEFAULT_PANEL_CHURN", "PanelCampaign", "WaveOutcome"]

# Panel default: spatially correlated churn — 10% of (ISP, CBG) cells
# churn per year, per-address drift inside them. This is the regime
# where incremental re-collection pays (~10x less querying per wave).
DEFAULT_PANEL_CHURN = ChurnModel(cell_rate=0.10)


@dataclass
class WaveOutcome:
    """Everything one wave produced."""

    wave: int
    horizon_years: int
    world: World = field(repr=False)
    digests: WaveDigests = field(repr=False)
    delta: DeltaPlan
    # Per-cell record streams, the replay source for the next wave.
    cells: ShardResult = field(repr=False)
    collection: CollectionResult = field(repr=False)
    q3: Q3Collection = field(repr=False)
    fresh_q12: int = 0
    replayed_q12: int = 0
    fresh_q3: int = 0
    replayed_q3: int = 0
    restored_from_store: bool = False
    evolve_seconds: float = 0.0
    digest_seconds: float = 0.0
    collect_seconds: float = 0.0

    @property
    def elapsed_seconds(self) -> float:
        """The wave's total cost on this host."""
        return self.evolve_seconds + self.digest_seconds + self.collect_seconds

    @property
    def reuse_fraction(self) -> float:
        """Share of cells replayed instead of re-queried."""
        total = (self.fresh_q12 + self.replayed_q12
                 + self.fresh_q3 + self.replayed_q3)
        if total == 0:
            return 0.0
        return (self.replayed_q12 + self.replayed_q3) / total


class PanelCampaign:
    """A multi-wave audit panel over one evolving world.

    ``horizons`` lists each wave's distance from the snapshot in
    years, strictly increasing (``(1, 2, 3)`` is an annual 3-wave
    panel; ``(1, 3)`` skips a year — deltas are planned against the
    previous *wave*, whatever its horizon). ``runtime`` selects how
    changed cells are executed (``None``: in-process serial); its
    ``checkpoint_dir``/``resume`` give each wave's delta collection
    crash-safe shard checkpoints. ``store_dir`` persists completed
    waves (see :class:`~repro.longitudinal.store.PanelStore`);
    with ``resume=True`` intact stored waves are replayed wholesale.
    """

    def __init__(
        self,
        world: World,
        model: ChurnModel | None = None,
        horizons: tuple[int, ...] = (1, 2, 3),
        runtime: RuntimeConfig | None = None,
        policy: SamplingPolicy | None = None,
        engine_config: EngineConfig | None = None,
        max_replacements: int = 2,
        isps: tuple[str, ...] = DEFAULT_ISPS,
        states: tuple[str, ...] | None = None,
        q3_states: tuple[str, ...] | None = None,
        store_dir: str | None = None,
        resume: bool = False,
    ):
        if not horizons:
            raise ValueError("need at least one wave horizon")
        if any(h < 1 for h in horizons):
            raise ValueError("wave horizons are years after the snapshot "
                             "and must be positive")
        if list(horizons) != sorted(set(horizons)):
            raise ValueError("wave horizons must be strictly increasing")
        if resume and store_dir is None and (
                runtime is None or not runtime.resume):
            raise ValueError("resume requires a store_dir (or a runtime "
                             "with checkpoint resume)")
        self._world = world
        self._model = model or DEFAULT_PANEL_CHURN
        self._horizons = tuple(horizons)
        self._runtime = runtime
        self._policy = policy
        self._engine_config = engine_config
        self._max_replacements = max_replacements
        self._isps = isps
        self._states = states
        self._q3_states = q3_states
        self._resume = resume
        self._store = (PanelStore(store_dir, self.fingerprint)
                       if store_dir is not None else None)

    @property
    def horizons(self) -> tuple[int, ...]:
        """The wave horizons, years after the snapshot."""
        return self._horizons

    @property
    def world(self) -> World:
        """The snapshot world the panel evolves."""
        return self._world

    @property
    def store(self) -> PanelStore | None:
        """The panel store, when one was configured."""
        return self._store

    @property
    def fingerprint(self) -> str:
        """Content digest identifying this panel's replayable work.

        Everything that changes any wave's records feeds it: scenario
        (seed included), churn model, horizons, sampling policy, ISP
        and state subsets, and the replacement budget.
        """
        return content_digest({
            "format": 1,
            "scenario": asdict(self._world.config),
            "model": asdict(self._model),
            "horizons": list(self._horizons),
            "policy": asdict(self._policy or SamplingPolicy()),
            "isps": list(self._isps),
            "states": list(self._states or self._world.config.states),
            "q3_states": list(self._q3_states
                              or self._world.config.q3_states),
            "max_replacements": self._max_replacements,
        })

    # ------------------------------------------------------------------
    # wave execution
    # ------------------------------------------------------------------
    def waves(self) -> Iterator[WaveOutcome]:
        """Run the panel, yielding each wave as it completes."""
        if tracing_enabled():
            configure_tracing(self.fingerprint, site="coordinator")
        prior: WaveOutcome | None = None
        for wave, horizon in enumerate((0, *self._horizons)):
            outcome = self._run_wave(wave, horizon, prior)
            yield outcome
            prior = outcome
        if tracing_enabled():
            self._publish_trace()
        if self._store is not None:
            # Every wave's manifest is on disk: reclaim CAS entries
            # nothing references — crash leftovers (cells published,
            # manifest write never reached) and quarantined damage.
            # Digests are deterministic per (fingerprint, wave), so a
            # healthy store sweeps nothing.
            self._store.sweep_unreferenced_cells()

    def run(self) -> list[WaveOutcome]:
        """Run the panel to completion."""
        return list(self.waves())

    def _run_wave(self, wave: int, horizon: int,
                  prior: WaveOutcome | None) -> WaveOutcome:
        with span("panel.wave", wave=wave, horizon=horizon):
            return self._run_wave_inner(wave, horizon, prior)

    def _run_wave_inner(self, wave: int, horizon: int,
                        prior: WaveOutcome | None) -> WaveOutcome:
        started = time.perf_counter()
        with span("wave.evolve", wave=wave):
            if horizon == 0:
                world = self._world
            else:
                world = churned_world(self._world, years=horizon,
                                      model=self._model)
        evolved_at = time.perf_counter()
        with span("wave.digest", wave=wave):
            digests = compute_wave_digests(world, isps=self._isps,
                                           states=self._states,
                                           q3_states=self._q3_states)
            delta = diff_digests(prior.digests if prior else None, digests)
        digested_at = time.perf_counter()
        changed = len(delta.changed_q12) + len(delta.changed_q3)
        _METRICS.counter("panel_cells_changed_total").inc(changed)
        _METRICS.counter("panel_cells_replayed_total").inc(
            (delta.total_q12 + delta.total_q3) - changed)

        restored = None
        if self._store is not None and self._resume:
            restored = self._store.load_wave(wave)
        if restored is not None:
            cells, manifest = restored
            counts = manifest["counts"]
            fresh_q12 = int(counts.get("fresh_q12", 0))
            fresh_q3 = int(counts.get("fresh_q3", 0))
            _METRICS.counter("panel_waves_restored_total").inc()
        else:
            with span("wave.collect", wave=wave, changed=changed):
                fresh = self._collect_delta(world, wave, horizon, delta)
            cells = self._fold(digests, delta, fresh, prior)
            fresh_q12 = len(delta.changed_q12)
            fresh_q3 = len(delta.changed_q3)
            if self._store is not None:
                self._store.save_wave(wave, horizon, cells, {
                    "fresh_q12": fresh_q12,
                    "replayed_q12": delta.total_q12 - fresh_q12,
                    "fresh_q3": fresh_q3,
                    "replayed_q3": delta.total_q3 - fresh_q3,
                }, digests)
        with span("wave.merge", wave=wave):
            collection, q3 = self._merge(world, digests, cells)
        return WaveOutcome(
            wave=wave,
            horizon_years=horizon,
            world=world,
            digests=digests,
            delta=delta,
            cells=cells,
            collection=collection,
            q3=q3,
            fresh_q12=fresh_q12,
            replayed_q12=delta.total_q12 - fresh_q12,
            fresh_q3=fresh_q3,
            replayed_q3=delta.total_q3 - fresh_q3,
            restored_from_store=restored is not None,
            evolve_seconds=evolved_at - started,
            digest_seconds=digested_at - evolved_at,
            collect_seconds=time.perf_counter() - digested_at,
        )

    def _publish_trace(self) -> None:
        """Publish the panel's spans to the trace sidecar store.

        The root is ``REPRO_TRACE_DIR`` when set, else the runtime's
        checkpoint directory, else the panel store directory — spans
        land in a ``traces/`` sidecar, never in wave manifests.
        """
        root = trace_dir_from_environment()
        if root is None and self._runtime is not None \
                and self._runtime.checkpoint_dir is not None:
            root = Path(self._runtime.checkpoint_dir) / "traces"
        if root is None and self._store is not None:
            root = self._store.directory / "traces"
        publish_trace(root, self.fingerprint)

    def _wave_scenario(self, horizon: int):
        """The world recipe shipped to worker processes for one wave."""
        if horizon == 0:
            return self._world.config
        return WaveScenario(base=self._world.config, years=horizon,
                            model=self._model)

    def _collect_delta(self, world: World, wave: int, horizon: int,
                       delta: DeltaPlan) -> ShardResult:
        """Query the wave's changed cells; returns them as one result."""
        fresh = ShardResult(index=0, count=1)
        if delta.is_empty:
            return fresh
        scenario = self._wave_scenario(horizon)
        config = self._runtime
        if config is None:
            spec = ShardSpec(index=0, count=1,
                             q12_cells=delta.changed_q12,
                             q3_blocks=delta.changed_q3)
            return run_shard(scenario, spec, policy=self._policy,
                             engine_config=self._engine_config,
                             max_replacements=self._max_replacements,
                             world=world)
        specs = self._plan_delta_shards(delta, config.shards)
        completed: dict[int, ShardResult] = {}
        checkpoints: CheckpointStore | None = None
        if config.checkpoint_dir is not None:
            fingerprint = self._delta_fingerprint(scenario, delta,
                                                  len(specs))
            checkpoints = CheckpointStore(config.checkpoint_dir, fingerprint)
            if config.resume:
                completed = checkpoints.load_completed()
            else:
                checkpoints.clear()

        def on_complete(result: ShardResult) -> None:
            completed[result.index] = result
            if checkpoints is not None:
                checkpoints.save_shard(result)

        pending = [spec for spec in specs if spec.index not in completed]
        dispatch_shards(world, pending, config, on_complete,
                        policy=self._policy,
                        engine_config=self._engine_config,
                        max_replacements=self._max_replacements,
                        scenario=scenario)
        for result in completed.values():
            fresh.q12_records.update(result.q12_records)
            fresh.q3_outcomes.update(result.q3_outcomes)
        return fresh

    @staticmethod
    def _plan_delta_shards(delta: DeltaPlan,
                           shard_count: int) -> list[ShardSpec]:
        """Deal the changed cells round-robin, like the full planner."""
        count = max(1, min(shard_count,
                           len(delta.changed_q12) + len(delta.changed_q3)))
        return deal_shards(list(delta.changed_q12),
                           list(delta.changed_q3), count)

    def _delta_fingerprint(self, scenario, delta: DeltaPlan,
                           shard_count: int) -> str:
        """Checkpoint namespace for one wave's delta collection.

        Everything shaping the delta partition or its records feeds
        it — the wave recipe (base scenario, churn model, horizon),
        the changed-cell list, the policy, and the shard count — so a
        resumed wave can never adopt another wave's (or another
        delta's) shards.
        """
        return content_digest({
            "format": 1,
            "kind": "panel-wave-delta",
            "scenario": asdict(scenario),
            "policy": asdict(self._policy or SamplingPolicy()),
            "max_replacements": self._max_replacements,
            "shard_count": shard_count,
            "changed_q12": [[c.isp_id, c.state, c.cbg]
                            for c in delta.changed_q12],
            "changed_q3": list(delta.changed_q3),
        })

    def _fold(self, digests: WaveDigests, delta: DeltaPlan,
              fresh: ShardResult, prior: WaveOutcome | None) -> ShardResult:
        """Replayed + fresh cells, reassembled in canonical order."""
        changed_q12 = set(delta.changed_q12)
        changed_q3 = set(delta.changed_q3)
        folded = ShardResult(index=0, count=1)
        for cell in digests.q12:
            if cell in changed_q12:
                folded.q12_records[cell] = fresh.q12_records[cell]
            else:
                folded.q12_records[cell] = prior.cells.q12_records[cell]
        for block in digests.q3:
            if block in changed_q3:
                folded.q3_outcomes[block] = fresh.q3_outcomes[block]
            else:
                folded.q3_outcomes[block] = prior.cells.q3_outcomes[block]
        return folded

    def _merge(self, world: World, digests: WaveDigests,
               cells: ShardResult) -> tuple[CollectionResult, Q3Collection]:
        """The runtime's canonical merge over the folded wave cells."""
        spec = ShardSpec(index=0, count=1,
                         q12_cells=tuple(digests.q12),
                         q3_blocks=tuple(digests.q3))
        return merge_shard_results(
            world, [spec], {0: cells}, policy=self._policy,
            isps=self._isps, states=self._states,
            q3_states=self._q3_states,
        )
