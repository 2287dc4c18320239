"""Child side of the benchmark: the work that has to import ``repro``.

``run.py`` starts this script in a hermetic interpreter (the checkout's
``src`` on ``PYTHONPATH``, no ``REPRO_*`` variables) so the driver
itself never imports the program. Two modes, each printing one JSON
object on its last stdout line:

``decompose WORKLOAD_JSON SEED WORKDIR``
    Re-runs what the workload's CLI command does, but as calls into
    each layer's public functions, with a span around every call. The
    ``result`` it prints is the correctness reference: for ``run``
    workloads exactly the summary ``repro run`` prints, for the panel
    the per-wave lines ``repro panel`` prints (timings masked), for the
    service the record counts and logbook digest of the campaign job.
    ``rows`` are the
    layers' self times; ``layers`` the per-layer metrics.

``service WORKLOAD_JSON SEEDS_JSON WORKDIR SECONDS TRACE STORE``
    Drives a ``repro serve`` daemon over its Unix socket with one
    closed-loop client: rounds of (start daemon on a fresh journal,
    warm-up panel job, timed campaign job, timed reads, shutdown) for
    SECONDS, plus one traced round when TRACE is 1. The panel store
    under STORE outlives the run: deleting its ~1.2k fsynced files
    took 40 s on an ext4 disk mounted with ``discard``. Its warm-up
    panel has a fixed seed, so every later warm-up restores it.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Timed operations per run, at least; more while the run's seconds
# allow, ending on a whole number of passes over its input seeds.
MIN_ROUNDS = 2
# No new round starts this late, so a run ends well inside 180 s.
ROUND_CUTOFF_SECONDS = 110.0

# The warm-up panel's scale and seed: one store serves every run's
# reads.
WARM_SCALE = "tiny"
WARM_SEED = 0

# Status polls while a service job runs. ``wait_for_job``'s default
# 0.1 s poll would round a ~1.8 s job to 5%.
JOB_POLL_SECONDS = 0.005


def more_rounds(done: int, started: float, seconds: float,
                inputs: int) -> bool:
    """Whether a run that began at ``started`` starts another round."""
    elapsed = time.perf_counter() - started
    if done < max(MIN_ROUNDS, inputs):
        return True
    if elapsed >= ROUND_CUTOFF_SECONDS:
        return False
    return elapsed < seconds or done % inputs != 0


class Spans:
    """Nested wall-clock spans recorded around public calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def __call__(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _ in self.spans
                if span_name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus direct children's."""
        rows: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            rows[name] = rows.get(name, 0.0) + (end - start)
            if parent is not None:
                parent_name = self.spans[parent][0]
                rows[parent_name] = rows.get(parent_name, 0.0) - (end - start)
        return rows


class Precomputed:
    """An analysis whose views are computed once, under the analysis's
    own span, so the report that reads them later only formats."""

    def __init__(self, analysis) -> None:
        self._analysis = analysis
        self._views: dict = {}

    def __getattr__(self, name: str):
        method = getattr(self._analysis, name)

        def view(*args):
            if (name, args) not in self._views:
                self._views[name, args] = method(*args)
            return self._views[name, args]
        return view


def scenario_at(scale: str, seed: int):
    """The scenario ``repro run/panel/submit --scale S --seed N`` use."""
    from repro.analysis import ExperimentContext
    from repro.synth.scenario import ScenarioConfig

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


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def mask_panel_line(line: str) -> str:
    """Drop what legitimately varies between runs of ``repro panel``:
    the collection timing."""
    return re.sub(r"queried in [0-9.]+s", "queried in *s", line)


# ----------------------------------------------------------------------
# decompositions
# ----------------------------------------------------------------------

def decompose_run(workload: dict, seed: int, workdir: Path,
                  spans: Spans) -> tuple[list[str], dict, int]:
    """``repro run --scale S --shards N [--workers W] --backend B
    [--checkpoint-dir D]`` as public calls (see ``_command_run`` and
    ``run_full_audit``/``execute_campaign``)."""
    from repro.core.audit import AuditDataset, ComplianceStandard
    from repro.core.compliance import ComplianceAnalysis
    from repro.core.monopoly import analyze_q3
    from repro.core.pipeline import CAF_STUDY_ISP_IDS, AuditReport
    from repro.core.serviceability import ServiceabilityAnalysis
    from repro.fcc.urban_rate_survey import generate_urban_rate_survey
    from repro.runtime import (CheckpointStore, RuntimeConfig,
                               campaign_fingerprint, dispatch_shards,
                               merge_shard_results, plan_shards, run_shard)
    from repro.synth.world import build_world

    checkpoint_dir = (str(workdir / "checkpoints")
                      if workload.get("checkpoint") else None)
    config = RuntimeConfig(shards=workload["shards"],
                           workers=workload["workers"],
                           backend=workload["backend"],
                           checkpoint_dir=checkpoint_dir)
    scenario = scenario_at(workload["scale"], seed)
    with spans("synth.build_world"):
        world = build_world(scenario)
    isps = CAF_STUDY_ISP_IDS
    with spans("runtime.plan"):
        specs = plan_shards(world, config.shards, isps=isps)
    store = None
    if checkpoint_dir is not None:
        store = CheckpointStore(checkpoint_dir, campaign_fingerprint(
            world.config, None, isps, config.shards))
        store.clear()
    completed: dict = {}
    first_shard_at: list[float] = []

    def on_complete(result) -> None:
        if not first_shard_at:
            first_shard_at.append(time.perf_counter())
        completed[result.index] = result
        if store is not None:
            with spans("runtime.checkpoint"):
                store.save_shard(result)

    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    dispatch_started = time.perf_counter()
    with spans("runtime.dispatch"):
        if config.effective_backend == "serial":
            # What the serial backend does per shard, called directly
            # so each shard's time is visible.
            for spec in specs:
                with spans("runtime.run_shard"):
                    result = run_shard(world.config, spec, world=world)
                on_complete(result)
        else:
            dispatch_shards(world, specs, config, on_complete)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    with spans("runtime.merge"):
        collection, q3_collection = merge_shard_results(
            world, specs, completed, isps=isps)
    with spans("core.audit"):
        standard = ComplianceStandard(
            survey=generate_urban_rate_survey(seed=world.config.seed))
        audit = AuditDataset(collection.log, collection.cbg_totals,
                             world=world, standard=standard)
    # Each analysis computes, under its span, the views the report
    # reads (``AuditReport.headline`` and ``summary_lines``).
    with spans("core.serviceability"):
        serviceability = Precomputed(ServiceabilityAnalysis(audit))
        serviceability.aggregate_rate()
        serviceability.rate_by_isp()
    with spans("core.compliance"):
        compliance = Precomputed(ComplianceAnalysis(audit,
                                                    caf_map=world.caf_map))
        compliance.aggregate_rate()
        compliance.rate_by_isp()
    with spans("core.monopoly"):
        monopoly = Precomputed(analyze_q3(q3_collection))
        monopoly.outcome_shares("A", "monopoly")
    with spans("core.report"):
        lines = AuditReport(
            world=world, collection=collection, audit=audit,
            serviceability=serviceability, compliance=compliance,
            q3_collection=q3_collection, monopoly=monopoly,
        ).summary_lines()

    queries = len(collection.log) + len(q3_collection.log)
    shard_times = spans.durations("runtime.run_shard")
    layers = {
        "synth.build_world_s": spans.total("synth.build_world"),
        "runtime.plan_s": spans.total("runtime.plan"),
        "runtime.dispatch_s": spans.total("runtime.dispatch"),
        "runtime.merge_s": spans.total("runtime.merge"),
        "runtime.first_shard_s": first_shard_at[0] - dispatch_started,
        "runtime.worker_cpu_s": (
            children_after.ru_utime + children_after.ru_stime
            - children_before.ru_utime - children_before.ru_stime),
        "runtime.checkpoint_s": spans.total("runtime.checkpoint"),
        "runtime.checkpoint_bytes": (tree_bytes(Path(checkpoint_dir))
                                     if checkpoint_dir else 0),
        "bqt.queries": queries,
        "core.audit_s": spans.total("core.audit"),
        "core.serviceability_s": spans.total("core.serviceability"),
        "core.compliance_s": spans.total("core.compliance"),
        "core.monopoly_s": spans.total("core.monopoly"),
    }
    if shard_times:
        # Per-shard busy time is only visible when shards run here;
        # pool workers' shard times never reach this process.
        layers["runtime.shard_max_s"] = max(shard_times)
        layers["runtime.shard_skew"] = (max(shard_times)
                                        / statistics.mean(shard_times))
        layers["bqt.us_per_query"] = sum(shard_times) / queries * 1e6
    return lines, layers, queries


def decompose_panel(workload: dict, seed: int, workdir: Path,
                    spans: Spans) -> tuple[list[str], dict, int]:
    """``repro panel --scale S --waves N`` as public calls (see
    ``_command_panel``), printing the same lines."""
    from repro.analysis.incremental import row_cache_for
    from repro.analysis.panel import wave_rates
    from repro.longitudinal import PanelCampaign
    from repro.synth.churn import ChurnModel
    from repro.synth.world import build_world

    # The CLI's --churn-* defaults.
    model = ChurnModel(cell_rate=0.10, upgrade_rate=0.10,
                       new_deployment_rate=0.03, retirement_rate=0.01)
    horizons = tuple(range(1, workload["waves"] + 1))
    scenario = scenario_at(workload["scale"], seed)
    with spans("synth.build_world"):
        world = build_world(scenario)
    with spans("longitudinal.open"):
        campaign = PanelCampaign(world, model=model, horizons=horizons)
        rows = row_cache_for(campaign)
    lines: list[str] = []
    base = None
    fresh_cells = replayed_cells = queries = records = 0
    waves = campaign.waves()
    while True:
        with spans("longitudinal.wave"):
            outcome = next(waves, None)
        if outcome is None:
            break
        records += len(outcome.collection.log) + len(outcome.q3.log)
        with spans("analysis.wave_analysis"):
            serviceability, compliance = wave_rates(outcome, cache=rows)
        total = (outcome.fresh_q12 + outcome.replayed_q12
                 + outcome.fresh_q3 + outcome.replayed_q3)
        fresh = outcome.fresh_q12 + outcome.fresh_q3
        queries += sum(len(outcome.cells.q12_records[cell])
                       for cell in outcome.delta.changed_q12)
        queries += sum(len(outcome.cells.q3_outcomes[block].records)
                       for block in outcome.delta.changed_q3
                       if outcome.cells.q3_outcomes[block] is not None)
        source = f"queried in {outcome.collect_seconds:.1f}s"
        if outcome.wave == 0:
            base = serviceability, compliance
            lines.append(
                f"[wave 0] snapshot: {len(outcome.collection.log)} Q1/Q2 "
                f"+ {len(outcome.q3.log)} Q3 records across {total} "
                f"cells ({source})")
        else:
            fresh_cells += fresh
            replayed_cells += total - fresh
            lines.append(
                f"[wave {outcome.wave}] +{outcome.horizon_years}y: "
                f"re-queried {fresh}/{total} cells "
                f"({1 - outcome.reuse_fraction:.0%}), replayed "
                f"{outcome.replayed_q12 + outcome.replayed_q3} ({source})")
        drift = ("" if outcome.wave == 0 else
                 f" ({(serviceability - base[0]) * 100:+.2f}pp"
                 f" / {(compliance - base[1]) * 100:+.2f}pp)")
        lines.append(f"         serviceability {serviceability:.2%}, "
                     f"compliance {compliance:.2%}{drift}")

    wave_times = spans.durations("longitudinal.wave")
    layers = {
        "synth.build_world_s": spans.total("synth.build_world"),
        "bqt.queries": queries,
        "longitudinal.wave0_s": wave_times[0],
        # The last span is the generator's closing sweep, not a wave.
        "longitudinal.followup_wave_s": statistics.mean(wave_times[1:-1]),
        "longitudinal.fresh_cells": fresh_cells,
        "longitudinal.reuse_ratio": (replayed_cells
                                     / (fresh_cells + replayed_cells)),
        "analysis.wave_analysis_s": spans.total("analysis.wave_analysis"),
    }
    return [mask_panel_line(line) for line in lines], layers, records


def decompose_service_job(workload: dict, seed: int, workdir: Path,
                          spans: Spans) -> tuple[dict, dict, int]:
    """The service's campaign job (``_run_campaign``) as public calls:
    its record counts and logbook digest are the reference every served
    job must match. The job runs inside the daemon, so only the service
    round's spans time it."""
    from repro.runtime import merge_shard_results, plan_shards, run_shard
    from repro.runtime.cache import content_digest
    from repro.runtime.checkpoint import _record_to_json
    from repro.runtime.shards import DEFAULT_ISPS
    from repro.synth.world import build_world

    world = build_world(scenario_at(workload["scale"], seed))
    specs = plan_shards(world, workload["shards"], isps=DEFAULT_ISPS)
    completed = {spec.index: run_shard(world.config, spec, world=world)
                 for spec in specs}
    collection, q3 = merge_shard_results(world, specs, completed,
                                         isps=DEFAULT_ISPS)
    result = {
        "q12_records": len(collection.log),
        "q3_records": len(q3.log),
        # The digest ``_run_campaign`` seals the job's logbook with.
        "logbook_sha256": content_digest({
            "q12": [_record_to_json(r) for r in collection.log],
            "q3": [_record_to_json(r) for r in q3.log],
        }),
    }
    return result, {}, len(collection.log) + len(q3.log)


DECOMPOSERS = {
    "run": decompose_run,
    "panel": decompose_panel,
    "service": decompose_service_job,
}


def decompose(workload: dict, seed: int, workdir: Path) -> dict:
    spans = Spans()
    with spans("cli.import"):
        import repro.cli  # noqa: F401 — the import every CLI call pays
    result, layers, records = DECOMPOSERS[workload["kind"]](
        workload, seed, workdir, spans)
    layers["cli.import_s"] = spans.total("cli.import")
    return {"result": result, "records": records,
            "rows": spans.self_times(), "layers": layers}


# ----------------------------------------------------------------------
# the service over its socket
# ----------------------------------------------------------------------

def _proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of a live process (all threads) and its
    reaped children, from ``/proc``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = sum(int(value) for value in fields[11:15])
    return ticks / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _wait_for_job(client, job_id: str, poll: float,
                  timeout: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout
    while True:
        state = client.status(job_id).get("state") or {}
        if state.get("status") in ("completed", "failed"):
            return state
        if time.monotonic() >= deadline:
            raise TimeoutError(f"job {job_id} not done after {timeout}s")
        time.sleep(poll)


def _start_daemon(round_dir: Path,
                  store: Path) -> tuple[subprocess.Popen, float]:
    """``repro serve`` on a relative Unix socket (paths stay inside the
    round directory, and short enough for ``sun_path``)."""
    started = time.perf_counter()
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--journal", "journal",
         "--store", str(store), "--address", "service.sock"],
        cwd=round_dir, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    address = daemon.stdout.readline().strip()
    if address != "service.sock":
        daemon.kill()
        daemon.wait()
        raise RuntimeError(f"daemon did not start (printed {address!r})")
    return daemon, time.perf_counter() - started


def _stop_daemon(daemon: subprocess.Popen, client) -> None:
    try:
        client.shutdown()
    finally:
        client.close()
        try:
            daemon.wait(timeout=20)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
        daemon.stdout.close()


def service_round(workload: dict, seed: int, round_dir: Path,
                  store: Path, spans: Spans | None) -> dict:
    """One daemon lifetime: set-up, timed job + reads, teardown."""
    from dataclasses import asdict

    from repro.service import ServiceClient

    spans = spans or Spans()
    round_dir.mkdir(parents=True)
    os.chdir(round_dir)
    failed = attempted = 0
    setup_started = time.perf_counter()
    daemon, startup_s = _start_daemon(round_dir, store)
    try:
        client = ServiceClient("service.sock")
    except OSError:
        daemon.kill()
        daemon.wait()
        raise
    try:
        warm = client.submit({
            "kind": "panel", "shards": 1, "horizons": [1],
            "scenario": asdict(scenario_at(WARM_SCALE, WARM_SEED))})
        warm_state = _wait_for_job(client, warm["job"], poll=0.02)
        attempted += 1
        if warm_state.get("status") != "completed":
            failed += 1
            raise RuntimeError(f"warm-up job failed: {warm_state}")
        panel = warm_state["result"]["panel_fingerprint"]
        namespace = warm_state["result"]["rows_namespace"]
        refs = client.query(what="wave-digests", panel=panel,
                            wave=0)["payload"]["q12"]
        # [isp, state, cbg, digest]. A cell whose analysis row is None
        # has nothing to serve, so the read mix keeps only cells both
        # of whose reads land.
        digests = [ref[-1] for ref in refs
                   if client.query(what="row", namespace=namespace,
                                   row_kind="q12", digest=ref[-1])["hit"]
                   and client.query(what="cell", panel=panel,
                                    digest=ref[-1])["hit"]]
        requests = []
        for i in range(workload["reads"]):
            digest = digests[(i // 2) % len(digests)]
            requests.append(
                {"type": "query", "what": "cell", "panel": panel,
                 "digest": digest} if i % 2 == 0 else
                {"type": "query", "what": "row", "namespace": namespace,
                 "row_kind": "q12", "digest": digest})
        setup_s = time.perf_counter() - setup_started

        spec = {"kind": "campaign", "shards": workload["shards"],
                "scenario": asdict(scenario_at(workload["scale"], seed))}
        cpu_before = _proc_cpu_seconds(daemon.pid)
        self_before = resource.getrusage(resource.RUSAGE_SELF)
        timed_started = time.perf_counter()
        with spans("service.job"):
            with spans("service.submit_ack"):
                job = client.submit(spec)
            state = _wait_for_job(client, job["job"], poll=JOB_POLL_SECONDS)
        job_done = time.perf_counter()
        latencies = []
        misses = 0
        with spans("service.reads"):
            for message in requests:
                sent = time.perf_counter_ns()
                response = client.request(message)
                latencies.append(time.perf_counter_ns() - sent)
                if not (response.get("type") == "result"
                        and response.get("hit")
                        and response.get("payload") is not None):
                    misses += 1
        timed_ended = time.perf_counter()
        self_after = resource.getrusage(resource.RUSAGE_SELF)
        cpu_s = (_proc_cpu_seconds(daemon.pid) - cpu_before
                 + self_after.ru_utime + self_after.ru_stime
                 - self_before.ru_utime - self_before.ru_stime)
        peak_rss_mb = max(_proc_peak_rss_mb(daemon.pid),
                          self_after.ru_maxrss / 1024)
        journal_entries = client.ping()["tip_seq"] + 1
        attempted += 1 + len(requests)
        failed += misses
        if state.get("status") != "completed":
            failed += 1
        latencies.sort()
        reads_s = timed_ended - job_done
        outcome = {
            "seed": seed,
            "setup_s": setup_s,
            "wall_s": timed_ended - timed_started,
            "job_s": job_done - timed_started,
            "cpu_s": cpu_s,
            "peak_rss_mb": peak_rss_mb,
            "job_result": state.get("result"),
            "attempted": attempted,
            "failed": failed,
            "read_qps": len(requests) / reads_s,
            "read_p99_us": latencies[int(0.99 * (len(latencies) - 1))] / 1e3,
            "layers": {
                "service.startup_s": startup_s,
                "service.submit_ack_ms": spans.total("service.submit_ack")
                * 1e3,
                "service.journal_entries": journal_entries,
                "service.journal_bytes": tree_bytes(round_dir / "journal"),
            },
            "requests": requests,
        }
    finally:
        _stop_daemon(daemon, client)
    os.chdir(round_dir.parent)
    return outcome


def reader_us(round_dir: Path, store: Path,
              requests: list[dict]) -> tuple[float, int]:
    """Median in-process ``ServiceReader.query`` time over the round's
    request mix, against the stopped daemon's journal and store, and
    the number of reads that missed."""
    from repro.service import Journal, ServiceReader, service_fingerprint

    journal = Journal(round_dir / "journal", service_fingerprint("audit"))
    try:
        reader = ServiceReader(journal, store_root=store)
        times = []
        misses = 0
        for message in requests:
            started = time.perf_counter_ns()
            hit, _payload = reader.query(message)
            times.append(time.perf_counter_ns() - started)
            misses += not hit
    finally:
        journal.close()
    return statistics.median(times) / 1e3, misses


def service(workload: dict, seeds: list[int], workdir: Path,
            seconds: float, trace: bool, store: Path) -> dict:
    # This interpreter's first import of the program: the one layer the
    # daemon's set-up shares with every CLI call.
    import_spans = Spans()
    with import_spans("cli.import"):
        import repro.cli  # noqa: F401
    rounds = []
    started = time.perf_counter()
    while more_rounds(len(rounds), started, seconds, len(seeds)):
        seed = seeds[len(rounds) % len(seeds)]
        round_dir = workdir / f"round-{len(rounds)}"
        outcome = service_round(workload, seed, round_dir, store, None)
        outcome.pop("requests")
        rounds.append(outcome)
        shutil.rmtree(round_dir)
    report: dict = {"rounds": rounds}
    if trace:
        round_dir = workdir / "traced"
        spans = Spans()
        outcome = service_round(workload, seeds[0], round_dir, store, spans)
        layers = outcome["layers"]
        requests = outcome.pop("requests")
        layers["service.reader_us"], misses = reader_us(round_dir, store,
                                                        requests)
        outcome["attempted"] += len(requests)
        outcome["failed"] += misses
        layers["cli.import_s"] = import_spans.total("cli.import")
        layers["service.job_s"] = outcome["job_s"]
        layers["service.read_qps"] = outcome["read_qps"]
        layers["service.read_p99_us"] = outcome["read_p99_us"]
        rows = spans.self_times()
        report["traced"] = {"round": outcome, "rows": rows,
                            "layers": layers, "wall_s": outcome["wall_s"]}
        shutil.rmtree(round_dir)
    return report


def main(argv: list[str]) -> int:
    # SEED is one seed for decompose, a JSON list of them for service.
    mode, workload, seed, workdir = (argv[0], json.loads(argv[1]),
                                     json.loads(argv[2]), Path(argv[3]))
    if mode == "decompose":
        report = decompose(workload, seed, workdir)
    elif mode == "service":
        report = service(workload, seed, workdir, float(argv[4]),
                         argv[5] == "1", Path(argv[6]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
