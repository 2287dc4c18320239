"""Command-line interface.

Usage::

    caf-audit run [--scale tiny|small|paper] [--seed N]
                  [--shards N] [--workers N] [--backend B]
                  [--max-inflight N] [--target-seconds S] [--resume]
                  [--checkpoint-dir DIR] [--cache-dir DIR]
                  [--pace none|real|X] [--worker-address ADDR]
    caf-audit panel --waves N [--churn-cell-rate P] [--store DIR]
                    [--scale ...] [runtime flags as for run]
    caf-audit worker --connect ADDRESS [--die-after N] [--wedge-after N]
    caf-audit serve --journal DIR [--name NAME] [--address ADDR]
                    [--store DIR]
    caf-audit submit --connect ADDRESS [--kind campaign|panel]
                     [--scale ...] [--shards N] [--waves N] [--pace ...]
                     [--wait]
    caf-audit follow --connect ADDRESS --journal DIR [--name NAME]
    caf-audit query --connect ADDRESS --what WHAT [--job ID] [--wave N]
                    [--panel FP] [--digest D] [--namespace NS]
                    [--row-kind q12|q3]
    caf-audit trace show|tree|critical-path [--dir DIR]
                    [--fingerprint FP] [--connect ADDRESS] [--top K]
    caf-audit metrics [--connect ADDRESS] [--format prom|json]
    caf-audit experiment <id>... [--scale ...]
    caf-audit list
    caf-audit export --out DIR [--scale ...]
    caf-audit --version

``run`` prints the headline audit summary — sharded across worker
processes, resumable from checkpoints, and served from the
content-addressed audit cache when the runtime flags are given
(``--pace real`` rehearses the campaign wall-clock-faithfully;
``--worker-address HOST:PORT`` puts the distributed fleet on TCP);
``panel`` runs a multi-wave longitudinal audit with delta-aware
incremental re-collection (only cells whose world changed are
re-queried); ``worker`` joins a distributed coordinator as one leased
shard worker (the ``--backend distributed`` coordinator spawns these
itself for the local reference transport); ``serve`` runs the
always-on audit service (:mod:`repro.service`) whose hash-chained
journal is its only durable state; ``submit``/``follow``/``query``
are its clients — submit a campaign or panel, replicate the journal,
read served results; ``experiment`` renders one or more paper
tables/figures; ``export`` writes the audit datasets to CSV for
downstream use.
"""

from __future__ import annotations

import argparse
import json as _json
import sys
from pathlib import Path

from repro.analysis import EXPERIMENTS, ExperimentContext, run_experiment
from repro.bqt.campaign import estimate_duration, plan_full_census, plan_study
from repro.core.oversight import compare_oversight
from repro.core.pipeline import run_full_audit
from repro.persist import StudyStore
from repro.synth.scenario import ScenarioConfig

__all__ = ["main", "build_parser"]

_SCALE_CHOICES = ("tiny", "small", "paper")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="caf-audit",
        description="Reproduction of the SIGCOMM'24 CAF efficacy study",
    )
    from repro import __version__

    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run the full audit")
    run_parser.add_argument("--scale", choices=_SCALE_CHOICES, default="tiny")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="shard the campaign into N pieces (0 = sequential path)")
    run_parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes (clamped to the per-ISP politeness cap)")
    run_parser.add_argument(
        "--backend",
        choices=("auto", "serial", "process", "async", "process+async",
                 "distributed"),
        default="auto",
        help="shard execution backend (auto: process iff workers > 1; "
             "async backends interleave storefront sessions per shard; "
             "distributed leases shards to worker subprocesses over "
             "local sockets)")
    run_parser.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="concurrent sessions per async event loop (default 8; "
             "politeness is still capped per ISP; implies an async "
             "backend when --backend is auto)")
    run_parser.add_argument(
        "--lease-timeout", type=float, default=None, metavar="S",
        help="distributed backend: seconds the coordinator waits for a "
             "worker's result before re-leasing its shard (default "
             "120; must exceed the slowest shard's compute time)")
    run_parser.add_argument(
        "--target-seconds", type=float, default=None, metavar="S",
        help="autotune the distributed fleet (workers, max-inflight, "
             "shards) to meet a virtual campaign wall-clock of S "
             "seconds; implies --backend distributed and overrides "
             "--shards/--workers/--max-inflight")
    run_parser.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="write per-shard checkpoints under DIR")
    run_parser.add_argument(
        "--resume", action="store_true",
        help="reload completed shards from --checkpoint-dir")
    run_parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="content-addressed audit cache directory")
    run_parser.add_argument(
        "--pace", default="none", metavar="P",
        help="real-time pacing: 'none' (default, purely virtual time), "
             "'real' (1 wall second per virtual second), or a float "
             "factor (0.01 = 100x faster than real time); records are "
             "byte-identical at any pace")
    run_parser.add_argument(
        "--worker-address", default=None, metavar="ADDR",
        help="distributed backend: where the coordinator listens for "
             "workers — HOST:PORT for TCP (port 0 picks a free port) "
             "or a Unix socket path (default: private tempdir socket)")

    panel_parser = subparsers.add_parser(
        "panel", help="run a multi-wave longitudinal audit panel")
    panel_parser.add_argument("--scale", choices=_SCALE_CHOICES,
                              default="tiny")
    panel_parser.add_argument("--seed", type=int, default=0)
    panel_parser.add_argument(
        "--waves", type=int, default=3, metavar="N",
        help="churn waves after the snapshot (default 3)")
    panel_parser.add_argument(
        "--years-per-wave", type=int, default=1, metavar="Y",
        help="years of churn between consecutive waves (default 1)")
    panel_parser.add_argument(
        "--churn-cell-rate", type=float, default=0.10, metavar="P",
        help="probability an (ISP, CBG) cell churns at all in a year "
             "(default 0.10; plant churn is neighborhood-correlated)")
    panel_parser.add_argument(
        "--churn-upgrade-rate", type=float, default=0.10, metavar="P",
        help="per-address annual upgrade probability inside a churning "
             "cell (default 0.10)")
    panel_parser.add_argument(
        "--churn-deployment-rate", type=float, default=0.03, metavar="P",
        help="per-address annual new-deployment probability inside a "
             "churning cell (default 0.03)")
    panel_parser.add_argument(
        "--churn-retirement-rate", type=float, default=0.01, metavar="P",
        help="per-address annual service-retirement probability inside "
             "a churning cell (default 0.01)")
    panel_parser.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="shard each wave's delta collection into N pieces "
             "(0 = in-process serial)")
    panel_parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for changed-cell collection")
    panel_parser.add_argument(
        "--backend",
        choices=("auto", "serial", "process", "async", "process+async",
                 "distributed"),
        default="auto",
        help="delta-collection backend (as for run)")
    panel_parser.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="concurrent sessions per async event loop (as for run)")
    panel_parser.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="write per-wave delta-shard checkpoints under DIR")
    panel_parser.add_argument(
        "--resume", action="store_true",
        help="reload completed waves from --store and completed delta "
             "shards from --checkpoint-dir")
    panel_parser.add_argument(
        "--store", metavar="DIR",
        help="persist completed wave logbooks under DIR (the panel "
             "store; enables cross-session --resume)")

    experiment_parser = subparsers.add_parser(
        "experiment", help="reproduce paper tables/figures")
    experiment_parser.add_argument("ids", nargs="+", metavar="ID")
    experiment_parser.add_argument("--scale", choices=_SCALE_CHOICES,
                                   default="tiny")
    experiment_parser.add_argument(
        "--plot", action="store_true",
        help="render CDF series as ASCII plots")

    subparsers.add_parser("list", help="list available experiments")

    worker_parser = subparsers.add_parser(
        "worker", help="join a distributed coordinator as a shard worker")
    worker_parser.add_argument(
        "--connect", required=True, metavar="ADDRESS",
        help="coordinator address: a Unix socket path or HOST:PORT")
    worker_parser.add_argument(
        "--die-after", type=int, default=None, metavar="N",
        help="chaos testing: die abruptly (no goodbye frame) when the "
             "next lease arrives after completing N shards")
    worker_parser.add_argument(
        "--wedge-after", type=int, default=None, metavar="N",
        help="chaos testing: wedge (stay alive but go silent — no "
             "heartbeats, no result) on the next lease after "
             "completing N shards")

    serve_parser = subparsers.add_parser(
        "serve", help="run the always-on audit service")
    serve_parser.add_argument(
        "--journal", required=True, metavar="DIR",
        help="journal root directory (the service's only durable "
             "state; a restart replays it)")
    serve_parser.add_argument(
        "--name", default="audit", metavar="NAME",
        help="logical service name (namespaces the journal; "
             "default 'audit')")
    serve_parser.add_argument(
        "--address", default=None, metavar="ADDR",
        help="listen address: a Unix socket path or HOST:PORT "
             "(HOST:0 binds an ephemeral port; default: a fresh Unix "
             "socket in a tempdir, printed on startup)")
    serve_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="panel store root (CAS cells + analysis rows) the read "
             "API serves from; panel jobs persist into it")

    submit_parser = subparsers.add_parser(
        "submit", help="submit a campaign or panel to a running service")
    submit_parser.add_argument(
        "--connect", required=True, metavar="ADDRESS",
        help="service address: a Unix socket path or HOST:PORT")
    submit_parser.add_argument(
        "--kind", choices=("campaign", "panel"), default="campaign")
    submit_parser.add_argument("--scale", choices=_SCALE_CHOICES,
                               default="tiny")
    submit_parser.add_argument("--seed", type=int, default=0)
    submit_parser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="shard the campaign into N pieces (journal-checkpointed "
             "per shard)")
    submit_parser.add_argument(
        "--waves", type=int, default=3, metavar="N",
        help="panel jobs: churn waves after the snapshot (default 3)")
    submit_parser.add_argument(
        "--years-per-wave", type=int, default=1, metavar="Y",
        help="panel jobs: years of churn between waves (default 1)")
    submit_parser.add_argument(
        "--pace", default="none", metavar="P",
        help="pacing for the submitted job (as for run)")
    submit_parser.add_argument(
        "--wait", action="store_true",
        help="block until the job reaches a terminal state and report "
             "its result (exit 1 if it failed)")
    submit_parser.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="--wait limit in seconds (default 600)")

    follow_parser = subparsers.add_parser(
        "follow", help="replicate a service's journal to a local one")
    follow_parser.add_argument(
        "--connect", required=True, metavar="ADDRESS",
        help="service address: a Unix socket path or HOST:PORT")
    follow_parser.add_argument(
        "--journal", required=True, metavar="DIR",
        help="local replica journal root (same namespace as the "
             "primary's, so the trees are interchangeable)")
    follow_parser.add_argument(
        "--name", default="audit", metavar="NAME",
        help="logical service name (must match the primary's)")
    follow_parser.add_argument(
        "--timeout", type=float, default=60.0, metavar="S",
        help="seconds to reach the primary's tip (default 60)")

    query_parser = subparsers.add_parser(
        "query", help="read served results from a running service")
    query_parser.add_argument(
        "--connect", required=True, metavar="ADDRESS",
        help="service address: a Unix socket path or HOST:PORT")
    query_parser.add_argument(
        "--what", required=True,
        choices=("state", "job", "wave-analysis", "wave-digests",
                 "cell", "row"),
        help="what to read: coordinator state, one job, a sealed "
             "wave's analysis, a wave's cell digests, a CAS cell "
             "payload, or a cached analysis row")
    query_parser.add_argument("--job", default=None, metavar="ID")
    query_parser.add_argument("--wave", type=int, default=None, metavar="N")
    query_parser.add_argument("--panel", default=None, metavar="FP",
                              help="panel fingerprint")
    query_parser.add_argument("--digest", default=None, metavar="D")
    query_parser.add_argument("--namespace", default=None, metavar="NS",
                              help="row-cache namespace")
    query_parser.add_argument("--row-kind", choices=("q12", "q3"),
                              default=None)

    trace_parser = subparsers.add_parser(
        "trace", help="render a published campaign trace (repro.obs)")
    trace_parser.add_argument(
        "action", choices=("show", "tree", "critical-path"),
        help="show: flat span listing; tree: the stitched span tree "
             "with per-stage self time; critical-path: top-k spans on "
             "the longest root-to-leaf chain")
    trace_parser.add_argument(
        "--dir", default=None, metavar="DIR",
        help="trace sidecar root (default: $REPRO_TRACE_DIR)")
    trace_parser.add_argument(
        "--fingerprint", default=None, metavar="FP",
        help="campaign/panel fingerprint naming the trace namespace "
             "(default: the root's only namespace)")
    trace_parser.add_argument(
        "--connect", default=None, metavar="ADDRESS",
        help="fetch spans from a running service instead of a "
             "sidecar directory")
    trace_parser.add_argument(
        "--top", type=int, default=5, metavar="K",
        help="critical-path: how many spans to print (default 5)")

    metrics_parser = subparsers.add_parser(
        "metrics", help="expose the metrics registry (repro.obs)")
    metrics_parser.add_argument(
        "--connect", default=None, metavar="ADDRESS",
        help="read a running service's registry instead of this "
             "process's (which is empty unless a run preceded it)")
    metrics_parser.add_argument(
        "--format", choices=("prom", "json"), default="prom",
        dest="output_format",
        help="Prometheus text exposition (default) or canonical JSON")

    export_parser = subparsers.add_parser(
        "export", help="export audit datasets + manifest to a directory")
    export_parser.add_argument("--out", required=True)
    export_parser.add_argument("--scale", choices=_SCALE_CHOICES, default="tiny")
    export_parser.add_argument("--seed", type=int, default=0)

    oversight_parser = subparsers.add_parser(
        "oversight", help="compare USAC-style reviews with an external audit")
    oversight_parser.add_argument("--isp", default="att")
    oversight_parser.add_argument("--scale", choices=_SCALE_CHOICES,
                                  default="tiny")

    campaign_parser = subparsers.add_parser(
        "campaign", help="campaign-duration arithmetic (the §1 claim)")
    campaign_parser.add_argument("--workers", type=int, default=8)

    validate_parser = subparsers.add_parser(
        "validate", help="run the world/report consistency suite")
    validate_parser.add_argument("--scale", choices=_SCALE_CHOICES,
                                 default="tiny")

    report_parser = subparsers.add_parser(
        "report", help="write the auto-generated reproduction report")
    report_parser.add_argument("--out", required=True)
    report_parser.add_argument("--scale", choices=_SCALE_CHOICES,
                               default="tiny")

    lint_parser = subparsers.add_parser(
        "lint", help="statically check the determinism & durability "
                     "contracts (module rule packs plus the "
                     "whole-program FLOW/PROTO/CONC pass)")
    lint_parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to scan (default: src)")
    lint_parser.add_argument("--format",
                             choices=("text", "json", "sarif"),
                             default="text", dest="output_format")
    lint_parser.add_argument(
        "--baseline", metavar="FILE",
        help="subtract the committed exceptions in FILE before failing")
    lint_parser.add_argument(
        "--write-baseline", metavar="FILE",
        help="write the current findings to FILE and exit 0")
    lint_parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit")
    lint_parser.add_argument(
        "--no-project", action="store_true",
        help="skip the whole-program pass (module rules only)")
    lint_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="parse cold modules in N worker processes")
    lint_parser.add_argument(
        "--cache", metavar="FILE",
        help="fact-cache file; unchanged modules skip parsing")
    lint_parser.add_argument(
        "--fix-suppressions", action="store_true",
        help="delete suppression comments that silence nothing "
             "(the LINT001 findings) and rescan")
    return parser


def _scenario_at(scale: str, seed: int) -> ScenarioConfig:
    """The named scale's scenario, reseeded when requested."""
    scenario = ExperimentContext.at_scale(scale).scenario
    if seed != scenario.seed:
        scenario = ScenarioConfig(
            seed=seed,
            address_scale=scenario.address_scale,
            cbg_size_median=scenario.cbg_size_median,
            cbg_size_sigma=scenario.cbg_size_sigma,
            max_cbg_size=scenario.max_cbg_size,
        )
    return scenario


def _parse_pace(text: str) -> float:
    """``--pace`` values: ``none``, ``real``, or a float factor."""
    if text in ("none", ""):
        return 0.0
    if text == "real":
        return 1.0
    return float(text)


def _engine_config_for_pace(command: str, pace_text: str):
    """The :class:`~repro.bqt.engine.EngineConfig` a ``--pace`` flag
    asks for (``None`` when unpaced), or an exit code on junk."""
    try:
        pace = _parse_pace(pace_text)
        if pace == 0:
            return None
        from repro.bqt.engine import EngineConfig

        return EngineConfig(pace=pace)
    except ValueError as error:
        print(f"caf-audit {command}: invalid --pace {pace_text!r}: {error}",
              file=sys.stderr)
        return 2


def _command_run(args: argparse.Namespace) -> int:
    scenario = _scenario_at(args.scale, args.seed)
    engine_config = _engine_config_for_pace("run", args.pace)
    if engine_config == 2:
        return 2
    if args.target_seconds is not None:
        return _run_autotuned(args, scenario, engine_config)
    parallel = None
    wants_runtime = (args.shards or args.workers != 1 or args.resume
                     or args.backend != "auto"
                     or args.max_inflight is not None
                     or args.lease_timeout is not None
                     or args.worker_address is not None
                     or args.checkpoint_dir or args.cache_dir)
    if wants_runtime:
        from repro.runtime import RuntimeConfig

        try:
            # RuntimeConfig resolves the backend: an explicit
            # --max-inflight promotes "auto" to an async backend, and
            # async with workers composes to process+async.
            parallel = RuntimeConfig(
                shards=args.shards or max(args.workers, 1),
                workers=args.workers,
                backend=args.backend,
                max_inflight=args.max_inflight,
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
                cache_dir=args.cache_dir,
                lease_timeout=args.lease_timeout,
                worker_address=args.worker_address,
            )
        except ValueError as error:
            print(f"caf-audit run: {error}", file=sys.stderr)
            return 2
    on_progress = _shard_progress_printer() if parallel is not None else None
    report = run_full_audit(scenario=scenario, parallel=parallel,
                            on_progress=on_progress,
                            engine_config=engine_config)
    print("\n".join(report.summary_lines()))
    return 0


def _run_autotuned(args: argparse.Namespace, scenario,
                   engine_config=None) -> int:
    """``run --target-seconds``: size the distributed fleet, then run."""
    if args.backend not in ("auto", "distributed"):
        print(f"caf-audit run: --target-seconds autotunes the distributed "
              f"backend; it cannot be combined with "
              f"--backend {args.backend}", file=sys.stderr)
        return 2
    if args.target_seconds <= 0:
        print("caf-audit run: --target-seconds must be positive",
              file=sys.stderr)
        return 2
    from repro.runtime.distributed import autotune_runtime_config
    from repro.synth.world import build_world

    if args.cache_dir:
        # The cache short-circuit must come before the pilot shard
        # and world build, or a warm cache still pays minutes of
        # autotuning work it is about to throw away. The lookup is
        # the exact one run_full_audit performs (a shared helper).
        # A paced run never takes it: serving a rehearsal from cache
        # would skip the rehearsal (pacing is part of the digest).
        from repro.core.pipeline import cached_audit_report

        cached = (cached_audit_report(args.cache_dir, scenario)
                  if engine_config is None else None)
        if cached is not None:
            print("audit served from cache; autotuning skipped",
                  file=sys.stderr)
            print("\n".join(cached.summary_lines()))
            return 0
    world = build_world(scenario)
    # Persist the autotune decision next to the checkpoints (or cache):
    # a repeat or --resume run with the same world and target reloads
    # the plan instead of re-running the serial pilot shard.
    plan_dir = args.checkpoint_dir or args.cache_dir
    plan = autotune_runtime_config(world, args.target_seconds,
                                   plan_dir=plan_dir)
    print(plan.render(), file=sys.stderr)
    try:
        parallel = plan.runtime_config(
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            cache_dir=args.cache_dir,
            lease_timeout=args.lease_timeout,
        )
    except ValueError as error:
        print(f"caf-audit run: {error}", file=sys.stderr)
        return 2
    report = run_full_audit(world=world, parallel=parallel,
                            on_progress=_shard_progress_printer(),
                            engine_config=engine_config)
    print("\n".join(report.summary_lines()))
    return 0


def _shard_progress_printer(stream=None):
    """A per-shard progress callback printing status + ETA lines.

    The ETA rate is measured in *cells* (Q1/Q2 records + Q3 outcomes)
    between executed shard completions of this run: the clock starts
    at the first executed shard, and shards restored from a checkpoint
    (``restored=True``) are reported but excluded from the rate
    entirely — a restored shard arrives in microseconds, and counting
    its units would make a resumed run's ETA wildly optimistic. The
    remaining work is projected from the mean executed-shard size, so
    a resume where the restored shards were the big ones no longer
    skews the estimate the way shard-count extrapolation did. The
    first executed line (no rate observed yet) reports the ETA as
    pending. Rough, but it turns a previously silent ``--shards`` run
    into a live progress feed on stderr.
    """
    import time

    stream = stream if stream is not None else sys.stderr
    started = time.monotonic()
    first_done_at: float | None = None
    live_shards = 0       # executed (non-restored) shards seen
    live_units = 0        # their cells, the mean-shard-size basis
    units_since_first = 0  # cells completed inside the rate window

    def on_progress(completed: int, total: int, result,
                    restored: bool = False) -> None:
        nonlocal first_done_at, live_shards, live_units, units_since_first
        now = time.monotonic()
        units = len(result.q12_records) + len(result.q3_outcomes)
        if restored:
            print(
                f"[shard {result.index}] restored from checkpoint "
                f"({units} units) — {completed}/{total} shards",
                file=stream)
            return
        live_shards += 1
        live_units += units
        if first_done_at is None:
            first_done_at = now
        else:
            units_since_first += units
        remaining = total - completed
        window = now - first_done_at
        if units_since_first and window > 0:
            unit_rate = units_since_first / window
            eta = remaining * (live_units / live_shards) / unit_rate
            eta_text = f"ETA {eta:.1f}s"
        else:
            eta_text = "ETA pending"
        print(
            f"[shard {result.index}] done ({units} units) — "
            f"{completed}/{total} shards in {now - started:.1f}s, "
            f"{eta_text}", file=stream)

    return on_progress


def _command_panel(args: argparse.Namespace) -> int:
    from repro.analysis.incremental import row_cache_for
    from repro.analysis.panel import wave_rates
    from repro.longitudinal import PanelCampaign
    from repro.synth.churn import ChurnModel
    from repro.synth.world import build_world

    if args.waves < 1:
        print("caf-audit panel: --waves must be positive", file=sys.stderr)
        return 2
    if args.years_per_wave < 1:
        print("caf-audit panel: --years-per-wave must be positive",
              file=sys.stderr)
        return 2
    try:
        model = ChurnModel(
            cell_rate=args.churn_cell_rate,
            upgrade_rate=args.churn_upgrade_rate,
            new_deployment_rate=args.churn_deployment_rate,
            retirement_rate=args.churn_retirement_rate,
        )
    except ValueError as error:
        print(f"caf-audit panel: {error}", file=sys.stderr)
        return 2
    runtime = None
    wants_runtime = (args.shards or args.workers != 1
                     or args.backend != "auto"
                     or args.max_inflight is not None
                     or args.checkpoint_dir)
    if wants_runtime:
        from repro.runtime import RuntimeConfig

        try:
            runtime = RuntimeConfig(
                shards=args.shards or max(args.workers, 1),
                workers=args.workers,
                backend=args.backend,
                max_inflight=args.max_inflight,
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume and args.checkpoint_dir is not None,
            )
        except ValueError as error:
            print(f"caf-audit panel: {error}", file=sys.stderr)
            return 2
    if args.resume and not args.store and not args.checkpoint_dir:
        # Fail before the (expensive) world build.
        print("caf-audit panel: --resume requires --store and/or "
              "--checkpoint-dir", file=sys.stderr)
        return 2
    horizons = tuple(args.years_per_wave * wave
                     for wave in range(1, args.waves + 1))
    scenario = _scenario_at(args.scale, args.seed)
    world = build_world(scenario)
    try:
        campaign = PanelCampaign(world, model=model, horizons=horizons,
                                 runtime=runtime, store_dir=args.store,
                                 resume=args.resume)
    except ValueError as error:
        print(f"caf-audit panel: {error}", file=sys.stderr)
        return 2
    # Per-cell audit rows carried across waves (and, with --store, runs):
    # each follow-up wave's analysis recomputes only churned cells.
    rows = row_cache_for(campaign, directory=args.store)
    live_digests: set[str] = set()
    base_serviceability = base_compliance = None
    for outcome in campaign.waves():
        live_digests.update(outcome.digests.q12.values())
        live_digests.update(outcome.digests.q3.values())
        serviceability, compliance = wave_rates(outcome, cache=rows)
        total = (outcome.fresh_q12 + outcome.replayed_q12
                 + outcome.fresh_q3 + outcome.replayed_q3)
        source = ("restored from store" if outcome.restored_from_store
                  else f"queried in {outcome.collect_seconds:.1f}s")
        if outcome.wave == 0:
            base_serviceability, base_compliance = serviceability, compliance
            print(f"[wave 0] snapshot: {len(outcome.collection.log)} Q1/Q2 "
                  f"+ {len(outcome.q3.log)} Q3 records across {total} "
                  f"cells ({source})")
        else:
            fresh = outcome.fresh_q12 + outcome.fresh_q3
            print(f"[wave {outcome.wave}] +{outcome.horizon_years}y: "
                  f"re-queried {fresh}/{total} cells "
                  f"({1 - outcome.reuse_fraction:.0%}), replayed "
                  f"{outcome.replayed_q12 + outcome.replayed_q3} "
                  f"({source})")
        drift = ("" if outcome.wave == 0 else
                 f" ({(serviceability - base_serviceability) * 100:+.2f}pp"
                 f" / {(compliance - base_compliance) * 100:+.2f}pp)")
        print(f"         serviceability {serviceability:.2%}, "
              f"compliance {compliance:.2%}{drift}")
    if args.store:
        # Bound the disk-backed row store to the digests this run
        # actually analyzed — churned cells leave one stale row file
        # per superseded digest behind otherwise.
        rows.sweep_unreferenced(live_digests)
        print(f"panel store: {campaign.store.panel_directory}")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    unknown = [i for i in args.ids if i not in EXPERIMENTS and i != "all"]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        print(f"available: {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    ids = sorted(EXPERIMENTS) if "all" in args.ids else args.ids
    context = ExperimentContext.at_scale(args.scale)
    for experiment_id in ids:
        result = run_experiment(experiment_id, context)
        print(result.render())
        if getattr(args, "plot", False) and result.series:
            from repro.analysis.plots import ascii_cdf

            positive = all(
                (xs > 0).all() for xs, _ in result.series.values())
            print()
            print(ascii_cdf(result.series, log_x=positive,
                            title=f"[{experiment_id}] CDFs"))
        print()
    return 0


def _command_worker(args: argparse.Namespace) -> int:
    from repro.runtime.distributed import FrameError, run_worker

    if args.die_after is not None and args.die_after < 0:
        print("caf-audit worker: --die-after must be non-negative",
              file=sys.stderr)
        return 2
    if args.wedge_after is not None and args.wedge_after < 0:
        print("caf-audit worker: --wedge-after must be non-negative",
              file=sys.stderr)
        return 2
    try:
        return run_worker(args.connect, die_after=args.die_after,
                          wedge_after=args.wedge_after)
    except (OSError, ValueError, FrameError) as error:
        # OSError covers the whole connect-failure family (refused
        # connections, missing socket paths, DNS failures, timeouts);
        # FrameError is a damaged or unexpected coordinator frame.
        print(f"caf-audit worker: {error}", file=sys.stderr)
        return 1


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service import AuditService

    try:
        service = AuditService(args.journal, name=args.name,
                               address=args.address, store_dir=args.store)
        service.start()
    except (OSError, ValueError) as error:
        print(f"caf-audit serve: {error}", file=sys.stderr)
        return 1
    # The bound address on stdout (scripts capture it; TCP port 0 and
    # the default tempdir socket are only known post-bind), status on
    # stderr like the rest of the CLI.
    print(service.address, flush=True)
    print(f"service {args.name!r} listening at {service.address} "
          f"(journal tip seq {service.journal.tip_seq})", file=sys.stderr)
    try:
        service._stop.wait()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0


def _build_submission_spec(args: argparse.Namespace, engine_config) -> dict:
    from dataclasses import asdict

    scenario = _scenario_at(args.scale, args.seed)
    spec: dict = {"kind": args.kind, "scenario": asdict(scenario),
                  "shards": args.shards}
    if args.kind == "panel":
        if args.waves < 1 or args.years_per_wave < 1:
            raise ValueError("--waves and --years-per-wave must be positive")
        spec["horizons"] = [args.years_per_wave * wave
                            for wave in range(1, args.waves + 1)]
    if engine_config is not None:
        spec["engine_config"] = asdict(engine_config)
    return spec


def _command_submit(args: argparse.Namespace) -> int:
    from repro.runtime.distributed import FrameError
    from repro.service import ServiceClient

    engine_config = _engine_config_for_pace("submit", args.pace)
    if engine_config == 2:
        return 2
    try:
        spec = _build_submission_spec(args, engine_config)
    except ValueError as error:
        print(f"caf-audit submit: {error}", file=sys.stderr)
        return 2
    try:
        with ServiceClient(args.connect) as client:
            response = client.submit(spec)
            print(f"accepted {response['job']} "
                  f"(seq {response['seq']}, "
                  f"digest {response['digest'][:16]}…)")
            if not args.wait:
                return 0
            state = client.wait_for_job(response["job"],
                                        timeout=args.timeout)
    except (OSError, FrameError, RuntimeError, TimeoutError) as error:
        print(f"caf-audit submit: {error}", file=sys.stderr)
        return 1
    if state.get("status") == "completed":
        print(f"completed: {_json.dumps(state.get('result'), sort_keys=True)}")
        return 0
    print(f"failed: {state.get('error')}", file=sys.stderr)
    return 1


def _command_follow(args: argparse.Namespace) -> int:
    from repro.runtime.distributed import FrameError
    from repro.service import JournalError, follow

    follower = follow(args.connect, args.journal, name=args.name)
    try:
        replicated = follower.catch_up(timeout=args.timeout)
        journal = follower.journal
        print(f"replicated {replicated} entries; tip seq "
              f"{journal.tip_seq}, digest {journal.tip_digest[:16]}…")
        return 0
    except (OSError, FrameError, JournalError, TimeoutError) as error:
        print(f"caf-audit follow: {error}", file=sys.stderr)
        return 1
    finally:
        follower.close()
        follower.journal.close()


def _command_query(args: argparse.Namespace) -> int:
    from repro.runtime.distributed import FrameError
    from repro.service import ServiceClient

    message = {"what": args.what}
    for key, value in (("job", args.job), ("wave", args.wave),
                       ("panel", args.panel), ("digest", args.digest),
                       ("namespace", args.namespace),
                       ("row_kind", args.row_kind)):
        if value is not None:
            message[key] = value
    try:
        with ServiceClient(args.connect) as client:
            response = client.query(**message)
    except (OSError, FrameError) as error:
        print(f"caf-audit query: {error}", file=sys.stderr)
        return 1
    if response.get("type") != "result":
        print(f"caf-audit query: {response.get('error', response)}",
              file=sys.stderr)
        return 2
    if not response.get("hit") and response.get("empty"):
        # The typed empty state: nothing sealed yet, not a damaged
        # request — explain instead of dumping a bare null.
        reason = response.get("reason") or "service is empty"
        print(f"caf-audit query: {reason}", file=sys.stderr)
        return 1
    try:
        print(_json.dumps(response.get("payload"), indent=2, sort_keys=True))
    except BrokenPipeError:
        # Downstream (a pager, `head`) closed the pipe after reading
        # what it wanted; swap in devnull so interpreter shutdown
        # doesn't trip over the dead stdout.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if response.get("hit") else 1


def _trace_records(args: argparse.Namespace) -> list | int:
    """The spans ``caf-audit trace`` renders, or an exit code."""
    if args.connect:
        from repro.runtime.distributed import FrameError
        from repro.service import ServiceClient

        try:
            with ServiceClient(args.connect) as client:
                response = client.trace(args.fingerprint)
        except (OSError, FrameError) as error:
            print(f"caf-audit trace: {error}", file=sys.stderr)
            return 1
        if response.get("type") != "trace":
            print(f"caf-audit trace: {response.get('error', response)}",
                  file=sys.stderr)
            return 2
        return list(response.get("spans") or [])
    from repro.obs.trace import TraceStore, trace_dir_from_environment

    root = Path(args.dir) if args.dir else trace_dir_from_environment()
    if root is None:
        print("caf-audit trace: give --dir, --connect, or set "
              "REPRO_TRACE_DIR", file=sys.stderr)
        return 2
    fingerprint = args.fingerprint
    if fingerprint is None:
        namespaces = sorted(
            entry.name for entry in root.iterdir()
            if entry.is_dir() and any(entry.glob("trace-*.jsonl"))
        ) if root.is_dir() else []
        if len(namespaces) != 1:
            print(f"caf-audit trace: {root} holds "
                  f"{len(namespaces)} trace namespaces "
                  f"({', '.join(namespaces) or 'none'}); pick one with "
                  "--fingerprint", file=sys.stderr)
            return 2
        fingerprint = namespaces[0]
    return TraceStore(root, fingerprint).load_spans()


def _command_trace(args: argparse.Namespace) -> int:
    from repro.obs.report import (build_tree, critical_path,
                                  render_tree, self_seconds)

    records = _trace_records(args)
    if isinstance(records, int):
        return records
    if not records:
        print("caf-audit trace: no spans found", file=sys.stderr)
        return 1
    if args.action == "show":
        for record in sorted(records, key=lambda r: (
                r.get("site", ""), r.get("start", 0.0))):
            print(_json.dumps(record, sort_keys=True))
        return 0
    if args.action == "tree":
        print(render_tree(records))
        return 0
    _roots, children = build_tree(records)
    top = critical_path(records, top=max(1, args.top))
    print(f"critical path (top {len(top)} by self time):")
    for record in top:
        self_ms = self_seconds(record, children) * 1000.0
        total_ms = record.get("duration", 0.0) * 1000.0
        print(f"  {record.get('name')} [{record.get('site', 'main')}]  "
              f"self {self_ms:.1f}ms of {total_ms:.1f}ms")
    return 0


def _command_metrics(args: argparse.Namespace) -> int:
    from repro.obs.metrics import REGISTRY, MetricsRegistry

    if args.connect:
        from repro.runtime.distributed import FrameError
        from repro.service import ServiceClient

        try:
            with ServiceClient(args.connect) as client:
                response = client.metrics()
        except (OSError, FrameError) as error:
            print(f"caf-audit metrics: {error}", file=sys.stderr)
            return 1
        if response.get("type") != "metrics":
            print(f"caf-audit metrics: {response.get('error', response)}",
                  file=sys.stderr)
            return 2
        if args.output_format == "prom":
            print(response.get("prometheus", ""), end="")
            return 0
        registry = MetricsRegistry()
        registry.merge(response.get("snapshot"))
        print(registry.render_json())
        return 0
    if args.output_format == "prom":
        print(REGISTRY.render_prometheus(), end="")
    else:
        print(REGISTRY.render_json())
    return 0


def _command_list(_args: argparse.Namespace) -> int:
    for experiment_id in sorted(EXPERIMENTS):
        print(experiment_id)
    return 0


def _command_export(args: argparse.Namespace) -> int:
    context = ExperimentContext.at_scale(args.scale)
    store = StudyStore(Path(args.out))
    manifest = store.save(context.report)
    print(f"wrote {len(manifest.checksums)} datasets + manifest "
          f"under {store.directory}")
    return 0


def _command_oversight(args: argparse.Namespace) -> int:
    context = ExperimentContext.at_scale(args.scale)
    comparison = compare_oversight(context.world, isp_id=args.isp)
    print(comparison.render())
    return 0


def _command_campaign(args: argparse.Namespace) -> int:
    census = estimate_duration(plan_full_census(workers_per_isp=args.workers))
    study = estimate_duration(plan_study(
        {"att": 233_000, "centurylink": 112_000,
         "frontier": 170_000, "consolidated": 23_000},
        workers_per_isp=args.workers))
    print(f"full census of the 4 study ISPs ({args.workers} workers/ISP):")
    print(f"  {census.wall_clock_months:.1f} months "
          f"(bottleneck: {census.bottleneck_isp}) — the paper's '>6 months'")
    print("the paper's stratified sample (537k addresses):")
    print(f"  {study.wall_clock_months:.1f} months")
    return 0


def _command_validate(args: argparse.Namespace) -> int:
    from repro.core.validation import validate_report

    context = ExperimentContext.at_scale(args.scale)
    findings = validate_report(context.report)
    if findings:
        for finding in findings:
            print(finding, file=sys.stderr)
        print(f"{len(findings)} consistency findings", file=sys.stderr)
        return 1
    print("world and report are consistent (0 findings)")
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from repro.analysis.report_md import write_report

    context = ExperimentContext.at_scale(args.scale)
    path = write_report(context, args.out)
    print(f"wrote reproduction report to {path}")
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.lint import (apply_baseline, fix_suppressions,
                            load_baseline, render_json,
                            render_rule_catalog, render_sarif,
                            render_text, run_scan, write_baseline)

    if args.list_rules:
        print(render_rule_catalog())
        return 0
    scan_kwargs = dict(
        project=not args.no_project,
        jobs=max(args.jobs, 1),
        cache_path=Path(args.cache) if args.cache else None,
    )
    try:
        result = run_scan(args.paths, **scan_kwargs)
    except FileNotFoundError as error:
        print(f"caf-audit lint: {error}", file=sys.stderr)
        return 2
    if args.fix_suppressions and result.unused_suppressions:
        rewritten = fix_suppressions(result.unused_suppressions)
        print(f"removed dead suppressions in {len(rewritten)} file(s)",
              file=sys.stderr)
        # The edits invalidate their cache entries; rescan for the
        # report the caller actually asked for.
        result = run_scan(args.paths, **scan_kwargs)
    findings = result.findings
    if args.write_baseline:
        write_baseline(args.write_baseline, findings)
        print(f"wrote {len(findings)} findings to {args.write_baseline}")
        return 0
    baselined = 0
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError) as error:
            print(f"caf-audit lint: bad baseline: {error}", file=sys.stderr)
            return 2
        fresh = apply_baseline(findings, baseline)
        baselined = len(findings) - len(fresh)
        findings = fresh
    renderer = {"json": render_json,
                "sarif": render_sarif}.get(args.output_format,
                                           render_text)
    print(renderer(findings, baselined))
    return 1 if findings else 0


_COMMANDS = {
    "run": _command_run,
    "panel": _command_panel,
    "worker": _command_worker,
    "serve": _command_serve,
    "submit": _command_submit,
    "follow": _command_follow,
    "query": _command_query,
    "trace": _command_trace,
    "metrics": _command_metrics,
    "experiment": _command_experiment,
    "list": _command_list,
    "export": _command_export,
    "oversight": _command_oversight,
    "campaign": _command_campaign,
    "validate": _command_validate,
    "report": _command_report,
    "lint": _command_lint,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    from repro.runtime import cache_dir_from_environment

    if getattr(args, "cache_dir", None) or cache_dir_from_environment():
        # A cache will (or may, via ExperimentContext) be constructed:
        # surface a malformed REPRO_CACHE_MAX_BYTES as a handled
        # config error up front, not a traceback mid-audit.
        try:
            from repro.runtime import cache_max_bytes_from_environment

            cache_max_bytes_from_environment()
        except ValueError as error:
            print(f"caf-audit: {error}", file=sys.stderr)
            return 2
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
