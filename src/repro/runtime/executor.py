"""Sharded campaign execution.

:func:`execute_campaign` turns the audit's two collections into a
sharded job: plan the shards, run each shard's cells (in process, on a
``concurrent.futures.ProcessPoolExecutor``, on a per-shard asyncio
event loop, and/or on a leased fleet of worker processes — see
:mod:`repro.runtime.distributed`), checkpoint completed shards, and
merge the shard logs back into campaign results that are bit-identical
to the sequential loops in :mod:`repro.core.collection`.

Politeness is enforced the way the paper's fleet enforced it, whatever
the backend:

* a *serial* or *process* shard drives at most one browser session per
  ISP at a time (its cells run sequentially), so concurrent sessions
  per storefront are bounded by the number of in-flight shards — which
  :class:`RuntimeConfig` clamps to ``MAX_POLITE_WORKERS_PER_ISP``;
* an *async* shard interleaves up to ``max_inflight`` sessions against
  different storefronts on one event loop, with a
  :class:`~repro.bqt.aio.PolitenessGate` token bucket holding each
  storefront to :attr:`RuntimeConfig.per_shard_isp_cap` — the global
  cap divided across however many shards run concurrently, so the
  fleet-wide per-ISP concurrency never exceeds the cap *exactly as in
  the serial case*.

Process-pool workers never rebuild the world: each adopts the
coordinator's already-built world once, when it starts. The pool's start
method is pinned (``fork`` on Linux, where workers inherit the world
copy-on-write and nothing is pickled; ``spawn`` elsewhere, where the
world is pickled once per worker), never the platform default. The
coordinator's heap is frozen out of garbage collection while the pool
runs (:func:`gc.freeze`), so a forked worker's collections never walk,
and so never copy, the inherited world. Shard
tasks still carry only the world's recipe (a
:class:`~repro.synth.scenario.ScenarioConfig` or a
:class:`~repro.synth.churn.WaveScenario`), which keys the adopted world.
Only distributed workers, separate interpreters, rebuild the world from
that recipe, once per worker.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable

from pathlib import Path

from repro.bqt.campaign import MAX_POLITE_WORKERS_PER_ISP
from repro.bqt.engine import EngineConfig
from repro.bqt.logbook import QueryRecord
from repro.core.collection import (
    CollectionResult,
    Q3BlockOutcome,
    Q3Collection,
    run_q12_cell,
    run_q3_block,
)
from repro.core.sampling import SamplingPolicy
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.trace import (configure_tracing, publish_trace, span,
                             trace_dir_from_environment, tracing_enabled)
from repro.runtime.shards import DEFAULT_ISPS, Q12Cell, ShardSpec, plan_shards
from repro.synth.world import World, build_world

__all__ = ["RuntimeConfig", "ShardResult", "dispatch_shards",
           "execute_campaign", "run_shard"]

_BACKENDS = ("auto", "serial", "process", "async", "process+async",
             "distributed")

# One event loop's default concurrent-session bound (async backends).
DEFAULT_MAX_INFLIGHT = 8

# on_progress callback: (completed shards, total shards, newest result,
# restored) — ``restored`` is True when the shard came back from a
# checkpoint instead of being executed, so rate/ETA estimators can
# exclude it.
ProgressCallback = Callable[[int, int, "ShardResult", bool], None]


@dataclass(frozen=True)
class RuntimeConfig:
    """How to run a campaign: sharding, parallelism, durability.

    ``backend`` is ``"serial"`` (run shards in this process — the
    deterministic default tests rely on), ``"process"`` (a process
    pool), ``"async"`` (shards run one at a time, but each shard's
    cells interleave on an asyncio event loop), ``"process+async"``
    (a process pool whose workers each run an event loop),
    ``"distributed"`` (a coordinator leases shards to worker
    processes over sockets — see :mod:`repro.runtime.distributed`;
    ``workers`` sets the fleet size, and ``max_inflight`` additionally
    runs each worker's shard on an event loop), or ``"auto"`` (process
    pool exactly when ``workers > 1``).

    ``max_inflight`` bounds one event loop's total concurrent sessions
    across all storefronts. Setting it is a request for the async
    engine: under ``backend="auto"`` it selects an async backend
    (``None``, the default, leaves "auto" resolving to serial/process
    and async backends on ``DEFAULT_MAX_INFLIGHT``).

    ``lease_timeout`` (distributed only) is how long the coordinator
    waits for a worker's result frame before presuming the worker
    dead and re-leasing its shard. It must comfortably exceed the
    slowest single shard's compute time, or healthy workers will be
    abandoned mid-shard and the campaign can never finish; raise it
    for big scales. ``None`` uses the distributed module's default.

    ``worker_address`` (distributed only) is where the coordinator
    listens for workers: ``"host:port"`` binds a TCP socket (port 0
    picks a free port), anything else is a Unix socket path. ``None``,
    the default, uses a Unix socket in a private temp directory —
    right for spawned local fleets; give an address when workers join
    from other hosts or when Unix sockets are unavailable.
    """

    shards: int = 1
    workers: int = 1
    backend: str = "auto"
    max_inflight: int | None = None
    checkpoint_dir: str | None = None
    resume: bool = False
    cache_dir: str | None = None
    lease_timeout: float | None = None
    worker_address: str | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {', '.join(_BACKENDS)}")
        if self.max_inflight is not None:
            if self.max_inflight < 1:
                raise ValueError("max_inflight must be positive")
            if self.backend in ("serial", "process"):
                # An in-flight budget must never be silently ignored.
                raise ValueError(
                    f"max_inflight requires an async backend, "
                    f"not {self.backend!r}")
        if self.lease_timeout is not None:
            if self.lease_timeout <= 0:
                raise ValueError("lease_timeout must be positive")
            if self.backend != "distributed":
                # A lease timeout must never be silently ignored.
                raise ValueError(
                    f"lease_timeout requires the distributed backend, "
                    f"not {self.backend!r}")
        if self.worker_address is not None:
            if self.backend != "distributed":
                # A listen address must never be silently ignored.
                raise ValueError(
                    f"worker_address requires the distributed backend, "
                    f"not {self.backend!r}")
            if not self.worker_address:
                raise ValueError("worker_address must be non-empty")
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume requires a checkpoint_dir")

    @property
    def effective_workers(self) -> int:
        """Concurrent shard processes, clamped by politeness.

        Each in-flight shard holds at most
        :attr:`per_shard_isp_cap` sessions per storefront, so the
        politeness cap on concurrent sessions per ISP bounds the
        number of shards allowed to run at once.
        """
        return min(self.workers, self.shards, MAX_POLITE_WORKERS_PER_ISP)

    @property
    def effective_backend(self) -> str:
        """The backend actually used.

        Resolves ``"auto"`` (async when ``max_inflight`` was set —
        an in-flight budget must not be silently ignored — else
        process iff parallel), and promotes ``"async"`` with multiple
        workers to ``"process+async"`` — silently dropping requested
        parallelism would be a multiple-of-workers slowdown with no
        diagnostic.
        """
        if self.backend == "auto":
            if self.max_inflight is not None:
                return ("process+async" if self.effective_workers > 1
                        else "async")
            return "process" if self.effective_workers > 1 else "serial"
        if self.backend == "async" and self.effective_workers > 1:
            return "process+async"
        return self.backend

    @property
    def effective_max_inflight(self) -> int:
        """The event-loop session bound actually used."""
        return (DEFAULT_MAX_INFLIGHT if self.max_inflight is None
                else self.max_inflight)

    @property
    def uses_async(self) -> bool:
        """Whether shards run their cells on an asyncio event loop.

        Distributed workers are sync by default; an explicit
        ``max_inflight`` asks them to interleave their shard's cells
        on an event loop, exactly like ``process+async`` workers.
        """
        if self.effective_backend == "distributed":
            return self.max_inflight is not None
        return self.effective_backend in ("async", "process+async")

    @property
    def concurrent_shards(self) -> int:
        """Shards in flight at once under the effective backend."""
        if self.effective_backend in ("process", "process+async",
                                      "distributed"):
            return self.effective_workers
        return 1

    def per_shard_isp_cap_for(self, pending: int) -> int:
        """Each shard's per-ISP session budget, ``pending`` shards out.

        The global politeness cap is floor-divided across the shards
        that can actually run concurrently — no more than ``pending``
        remain, so a resumed tail is not throttled to a budget sized
        for a full fleet. The sum over in-flight shards is a hard
        upper bound at ``MAX_POLITE_WORKERS_PER_ISP``; it can never be
        exceeded, though non-divisor counts strand part of the budget
        (8 // 3 = 2 leaves two sessions unused). Non-async shards
        drive one session at a time by construction.
        """
        if not self.uses_async:
            return 1
        inflight = min(self.concurrent_shards, max(1, pending))
        return max(1, MAX_POLITE_WORKERS_PER_ISP // inflight)

    @property
    def per_shard_isp_cap(self) -> int:
        """Each shard's per-ISP budget with the full partition pending."""
        return self.per_shard_isp_cap_for(self.shards)


@dataclass
class ShardResult:
    """One shard's completed work, keyed for canonical-order merging."""

    index: int
    count: int
    # Q1/Q2 cell → the cell's record stream (replacements inline).
    q12_records: dict[Q12Cell, tuple[QueryRecord, ...]] = field(
        default_factory=dict)
    # Q3 candidate block → its outcome (None when not analyzed).
    q3_outcomes: dict[str, Q3BlockOutcome | None] = field(default_factory=dict)
    # ISP → max concurrent in-flight sessions this shard held against
    # it (politeness evidence; diagnostic, not checkpointed).
    politeness: dict[str, int] = field(default_factory=dict)


# Per-process world for shards that arrive without one. Pool workers
# adopt the coordinator's world here before their first shard
# (_adopt_world); only distributed workers miss and rebuild it, once.
# Keys are ScenarioConfig or any hashable recipe with a .realize()
# (repro.synth.churn.WaveScenario — evolved panel-wave worlds).
_WORLD_CACHE: dict = {}


def _world_for(scenario) -> World:
    if scenario not in _WORLD_CACHE:
        _WORLD_CACHE.clear()  # one campaign's world at a time per worker
        with span("shard.world"):
            realize = getattr(scenario, "realize", None)
            _WORLD_CACHE[scenario] = (realize() if realize is not None
                                      else build_world(scenario))
    return _WORLD_CACHE[scenario]


def _adopt_world(scenario, world: World) -> None:
    """Pool-worker initializer: serve ``scenario`` from ``world``."""
    _WORLD_CACHE.clear()
    _WORLD_CACHE[scenario] = world


def _pool_context():
    """The process pool's start method, pinned rather than defaulted.

    ``fork`` on Linux lets workers inherit the coordinator's world
    copy-on-write; elsewhere ``spawn`` (pickling the world once per
    worker) is the only method every platform supports safely.
    """
    method = "fork" if sys.platform.startswith("linux") else "spawn"
    return multiprocessing.get_context(method)


def run_shard(
    scenario,
    spec: ShardSpec,
    policy: SamplingPolicy | None = None,
    engine_config: EngineConfig | None = None,
    max_replacements: int = 2,
    world: World | None = None,
    use_async: bool = False,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    per_isp_cap: int = MAX_POLITE_WORKERS_PER_ISP,
) -> ShardResult:
    """Run one shard's cells to completion.

    Top-level (picklable) so it can be submitted to a process pool,
    whose workers find ``scenario``'s world already adopted; the
    serial backend passes its already-built ``world``. With
    ``use_async`` the shard's cells interleave on a fresh event loop
    (bounded by ``max_inflight`` total and ``per_isp_cap`` per
    storefront) — producing the same records, reassembled in canonical
    cell order.
    """
    world = world if world is not None else _world_for(scenario)
    with span("shard.run", index=spec.index,
              cells=len(spec.q12_cells) + len(spec.q3_blocks)):
        if use_async:
            from repro.bqt.aio import run_cells_async

            q12_records, q3_outcomes, watermarks = asyncio.run(
                run_cells_async(
                    world, spec.q12_cells, spec.q3_blocks,
                    policy=policy, engine_config=engine_config,
                    max_replacements=max_replacements,
                    max_inflight=max_inflight, per_isp_cap=per_isp_cap,
                ))
            result = ShardResult(index=spec.index, count=spec.count,
                                 politeness=watermarks)
            # Completion order is nondeterministic; store canonically.
            for cell in spec.q12_cells:
                result.q12_records[cell] = q12_records[cell]
            for block_geoid in spec.q3_blocks:
                result.q3_outcomes[block_geoid] = q3_outcomes[block_geoid]
            return result
        result = ShardResult(index=spec.index, count=spec.count)
        # caf_addresses_by_cbg regroups a whole (ISP, state) footprint
        # per call; cache the grouping across this shard's cells.
        grouped: dict[tuple[str, str], dict] = {}
        for cell in spec.q12_cells:
            key = (cell.isp_id, cell.state)
            if key not in grouped:
                grouped[key] = world.caf_addresses_by_cbg(*key)
            addresses = grouped[key][cell.cbg]
            _plan, records = run_q12_cell(
                world, cell.isp_id, cell.cbg, addresses,
                policy=policy, engine_config=engine_config,
                max_replacements=max_replacements,
            )
            result.q12_records[cell] = tuple(records)
            result.politeness[cell.isp_id] = 1
        for block_geoid in spec.q3_blocks:
            outcome = run_q3_block(world, block_geoid, engine_config)
            result.q3_outcomes[block_geoid] = outcome
            if outcome is not None:
                for record in outcome.records:
                    result.politeness[record.isp_id] = 1
        return result


def _run_shards_serial(
    world: World,
    pending: list[ShardSpec],
    policy: SamplingPolicy | None,
    engine_config: EngineConfig | None,
    max_replacements: int,
    config: RuntimeConfig,
    per_isp_cap: int,
    on_complete,
    scenario,
) -> None:
    for spec in pending:
        on_complete(run_shard(
            scenario, spec, policy=policy, engine_config=engine_config,
            max_replacements=max_replacements, world=world,
            use_async=config.uses_async,
            max_inflight=config.effective_max_inflight,
            per_isp_cap=per_isp_cap,
        ))


def _run_shards_process(
    world: World,
    pending: list[ShardSpec],
    policy: SamplingPolicy | None,
    engine_config: EngineConfig | None,
    max_replacements: int,
    config: RuntimeConfig,
    per_isp_cap: int,
    on_complete,
    scenario,
) -> None:
    # Forked workers share the world's pages copy-on-write, and a full
    # collection touches every tracked object: frozen, the world stays
    # shared and out of every worker's (and the coordinator's) sweeps.
    gc.freeze()
    try:
        with ProcessPoolExecutor(max_workers=config.effective_workers,
                                 mp_context=_pool_context(),
                                 initializer=_adopt_world,
                                 initargs=(scenario, world)) as pool:
            futures = [
                pool.submit(run_shard, scenario, spec, policy,
                            engine_config, max_replacements,
                            use_async=config.uses_async,
                            max_inflight=config.effective_max_inflight,
                            per_isp_cap=per_isp_cap)
                for spec in pending
            ]
            for future in as_completed(futures):
                on_complete(future.result())
    finally:
        gc.unfreeze()


def dispatch_shards(
    world: World,
    pending: list[ShardSpec],
    config: RuntimeConfig,
    on_complete,
    policy: SamplingPolicy | None = None,
    engine_config: EngineConfig | None = None,
    max_replacements: int = 2,
    scenario=None,
) -> None:
    """Run ``pending`` shard specs on the configured backend.

    The execution core shared by :func:`execute_campaign` and the
    longitudinal delta collector (:mod:`repro.longitudinal.campaign`),
    which runs arbitrary *subsets* of a campaign's cells. ``scenario``
    is the world's recipe: process-pool workers adopt ``world`` under
    it, and distributed workers rebuild the world from it. It defaults
    to ``world.config`` and must be overridden (with a
    :class:`~repro.synth.churn.WaveScenario`) when ``world`` is an
    evolved wave world that its config alone cannot rebuild.

    ``on_complete`` fires once per finished shard, serialized, in
    completion order.
    """
    if not pending:
        return
    scenario = scenario if scenario is not None else world.config
    # Budget for the shards actually left to run: a resumed tail gets
    # the politeness headroom its smaller in-flight count allows.
    per_isp_cap = config.per_shard_isp_cap_for(len(pending))
    if config.effective_backend == "distributed":
        from repro.runtime.distributed import run_shards_distributed

        run_shards_distributed(world, pending, policy, engine_config,
                               max_replacements, config, per_isp_cap,
                               on_complete,
                               lease_timeout=config.lease_timeout,
                               scenario=scenario)
    elif (config.effective_backend in ("process", "process+async")
            and len(pending) > 1):
        _run_shards_process(world, pending, policy, engine_config,
                            max_replacements, config, per_isp_cap,
                            on_complete, scenario)
    else:
        _run_shards_serial(world, pending, policy, engine_config,
                           max_replacements, config, per_isp_cap,
                           on_complete, scenario)


def execute_campaign(
    world: World,
    config: RuntimeConfig,
    policy: SamplingPolicy | None = None,
    engine_config: EngineConfig | None = None,
    max_replacements: int = 2,
    isps: tuple[str, ...] = DEFAULT_ISPS,
    states: tuple[str, ...] | None = None,
    q3_states: tuple[str, ...] | None = None,
    on_progress: ProgressCallback | None = None,
) -> tuple[CollectionResult, Q3Collection]:
    """Run the full campaign under a runtime configuration.

    Plans the shard partition, restores any checkpointed shards when
    ``config.resume`` is set, runs the remainder on the configured
    backend (checkpointing each shard as it completes), and merges the
    shard results in canonical order. For a fixed world seed the merged
    results are bit-identical to the sequential
    :class:`~repro.core.collection.CollectionCampaign` /
    :func:`~repro.core.collection.collect_q3_dataset` path, for any
    shard count and every backend.

    ``on_progress`` (when given) fires after each newly completed
    shard with ``(completed, total, result, restored)`` — the CLI uses
    it for per-shard progress and ETA lines. Shards restored from a
    checkpoint fire with ``restored=True`` (in index order, before any
    shard executes) so rate estimators can exclude them.
    """
    from repro.runtime.checkpoint import CheckpointStore, campaign_fingerprint
    from repro.runtime.merge import merge_shard_results

    fingerprint = campaign_fingerprint(
        world.config, policy, isps, config.shards,
        states=states, q3_states=q3_states,
        max_replacements=max_replacements)
    if tracing_enabled():
        configure_tracing(fingerprint, site="coordinator")

    with span("campaign", backend=config.effective_backend,
              shards=config.shards):
        with span("campaign.plan"):
            specs = plan_shards(world, config.shards, isps=isps,
                                states=states, q3_states=q3_states)
        completed: dict[int, ShardResult] = {}

        store: CheckpointStore | None = None
        if config.checkpoint_dir is not None:
            store = CheckpointStore(config.checkpoint_dir, fingerprint)
            if config.resume:
                with span("campaign.restore"):
                    completed = store.load_completed()
                _METRICS.counter("shards_restored_total").inc(len(completed))
                if on_progress is not None:
                    for position, index in enumerate(sorted(completed),
                                                     start=1):
                        on_progress(position, len(specs),
                                    completed[index], True)
            else:
                store.clear()

        completions = _METRICS.counter("shards_completed_total")

        def on_complete(result: ShardResult) -> None:
            completed[result.index] = result
            if store is not None:
                store.save_shard(result)
            completions.inc()
            if on_progress is not None:
                on_progress(len(completed), len(specs), result, False)

        pending = [spec for spec in specs if spec.index not in completed]
        _METRICS.counter("shards_dispatched_total").inc(len(pending))
        with span("campaign.dispatch", shards=len(pending)):
            dispatch_shards(world, pending, config, on_complete,
                            policy=policy, engine_config=engine_config,
                            max_replacements=max_replacements)

        with span("campaign.merge"):
            merged = merge_shard_results(
                world, specs, completed, policy=policy,
                isps=isps, states=states, q3_states=q3_states,
            )

    if tracing_enabled():
        trace_root = trace_dir_from_environment()
        if trace_root is None and config.checkpoint_dir is not None:
            trace_root = Path(config.checkpoint_dir) / "traces"
        publish_trace(trace_root, fingerprint)
    return merged
