"""The repository benchmark: the CLI and the service as users run them.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload run-paper-serial --seed 1 \\
        --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 \\
        [--out result.json]

One ``--workload`` runs that workload and prints, as the last stdout
line, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. ``--workload all`` runs every workload both ways and
prints the whole report: each end-to-end metric with its unit and
sample count, the traced per-layer table, the measured
process-over-serial ratio, and provenance.

Workloads (see ``BENCHMARK.json`` for why each is there):

* ``run-paper-serial`` / ``run-paper-process``: ``repro run --scale
  paper --shards 4`` on the serial backend, and on the process backend
  with two workers and a fresh checkpoint directory;
* ``panel-small-3wave``: ``repro panel --scale small --waves 3``, in
  memory: deleting a panel store's ~2k fsynced files after each round
  took 6-50 s on an ext4 disk mounted with ``discard``, longer than the
  round itself;
* ``service-small``: a ``repro serve`` daemon driven by one
  closed-loop client over one Unix-socket connection (``probe.py``).

Every timed operation is a fresh process, in a hermetic environment:
no ``REPRO_*`` variables, a pinned ``PYTHONHASHSEED``, bytecode in a
benchmark-owned ``PYTHONPYCACHEPREFIX`` warmed during set-up, and fresh
directories for checkpoints and journals, removed afterwards. The one
exception is the service's read-only panel store (see ``probe.py``).
A run repeats the operation until ``--seconds`` have passed (at least
``probe.MIN_ROUNDS`` times), cycling over the workload's input seeds,
and reports the mean over input seeds of each seed's median.

Every output is checked against a reference derived from the seed:
``probe.py decompose`` recomputes it through the layers' public
functions (cached per seed and source digest under ``.bench_build``).
A mismatch is a failed operation, never a timing. The traced run
(``--trace 1``) uses that same decomposition with a span around each
public call; its layers' self times plus ``unattributed`` add up to its
wall time.

This driver imports nothing from ``repro``; it only starts processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
from probe import mask_panel_line, more_rounds  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PROBE = Path(__file__).resolve().with_name("probe.py")
WORK = ROOT / ".bench_build" / "perfbench"

# Timed set-ups per CLI run; setup_s is their median.
SETUP_REPEATS = 5
CHILD_TIMEOUT_SECONDS = 170.0

WORKLOADS: dict[str, dict] = {
    "run-paper-serial": {"kind": "run", "scale": "paper", "shards": 4,
                         "workers": 1, "backend": "serial",
                         "checkpoint": False},
    "run-paper-process": {"kind": "run", "scale": "paper", "shards": 4,
                          "workers": 2, "backend": "process",
                          "checkpoint": True},
    "panel-small-3wave": {"kind": "panel", "scale": "small", "waves": 3},
    "service-small": {"kind": "service", "scale": "small", "shards": 4,
                      "reads": 20000, "inputs": 2},
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "records_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s",
    "synth.build_world_s": "s",
    "runtime.plan_s": "s",
    "runtime.dispatch_s": "s",
    "runtime.merge_s": "s",
    "runtime.first_shard_s": "s",
    "runtime.worker_cpu_s": "s",
    "runtime.shard_max_s": "s",
    "runtime.shard_skew": "ratio",
    "runtime.checkpoint_s": "s",
    "runtime.checkpoint_bytes": "bytes",
    "bqt.queries": "count",
    "bqt.us_per_query": "us",
    "core.audit_s": "s",
    "core.serviceability_s": "s",
    "core.compliance_s": "s",
    "core.monopoly_s": "s",
    "longitudinal.wave0_s": "s",
    "longitudinal.followup_wave_s": "s",
    "longitudinal.fresh_cells": "count",
    "longitudinal.reuse_ratio": "ratio",
    "analysis.wave_analysis_s": "s",
    "service.startup_s": "s",
    "service.submit_ack_ms": "ms",
    "service.job_s": "s",
    "service.read_qps": "1/s",
    "service.read_p99_us": "us",
    "service.reader_us": "us",
    "service.journal_entries": "count",
    "service.journal_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not measure (not a wrong program output)."""


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------

def hermetic_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")
           and key not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE",
                           "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def run_child(argv: list[str], cwd: Path) -> dict:
    """Run one process to completion; wall, CPU and peak RSS of its
    whole tree (``wait4`` counts the descendants it reaped). The child
    leads its own process group, so a timeout kills what it started
    too (a service daemon, pool workers)."""
    stdout_path, stderr_path = cwd / ".stdout", cwd / ".stderr"
    started = time.perf_counter()
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=hermetic_env(),
                                stdout=out, stderr=err,
                                start_new_session=True)
    timer = threading.Timer(CHILD_TIMEOUT_SECONDS, os.killpg,
                            (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    stdout = stdout_path.read_text(encoding="utf-8", errors="replace")
    stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
    stdout_path.unlink()
    stderr_path.unlink()
    return {"returncode": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "stdout": stdout, "stderr": stderr}


def fresh_dir(name: str) -> Path:
    path = WORK / "tmp" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def probe(mode: str, workload: dict, seed: int | list[int],
          *extra: str) -> dict:
    """Run ``probe.py`` and return its JSON report plus its wall."""
    workdir = fresh_dir(f"probe-{mode}")
    try:
        child = run_child([sys.executable, str(PROBE), mode,
                           json.dumps(workload), json.dumps(seed),
                           str(workdir),
                           *extra], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if child["returncode"] != 0:
        raise BenchError(f"probe {mode} failed ({child['returncode']}):\n"
                         f"{child['stderr'][-3000:]}")
    report = json.loads(child["stdout"].strip().splitlines()[-1])
    report["wall_s"] = child["wall_s"]
    return report


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------

def source_digest() -> str:
    """Digest of everything a reference depends on: the program and
    the decomposition that recomputes it."""
    digest = hashlib.sha256()
    for path in [*sorted((ROOT / "src").rglob("*.py")), PROBE]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def reference_workload(workload: dict) -> dict:
    """What the reference depends on. Both ``run`` backends share one
    reference (computed serially), so they must print the same."""
    if workload["kind"] == "run":
        return {"kind": "run", "scale": workload["scale"],
                "shards": workload["shards"], "workers": 1,
                "backend": "serial", "checkpoint": False}
    if workload["kind"] == "service":
        return {"kind": "service", "scale": workload["scale"],
                "shards": workload["shards"]}
    return {"kind": "panel", "scale": workload["scale"],
            "waves": workload["waves"]}


def load_reference(workload: dict, seed: int) -> dict:
    """The seed's reference output, from cache or a fresh decomposition."""
    recipe = reference_workload(workload)
    key = hashlib.sha256(json.dumps([recipe, seed, source_digest()],
                                    sort_keys=True).encode()).hexdigest()
    path = WORK / "refs" / f"{key[:32]}.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        pass
    report = probe("decompose", recipe, seed)
    reference = {"result": report["result"], "records": report["records"]}
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_suffix(".tmp")
    temp.write_text(json.dumps(reference), encoding="utf-8")
    temp.replace(path)
    return reference


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def cli_args(workload: dict, seed: int) -> list[str]:
    """The workload's CLI command; paths are relative to its fresh
    working directory."""
    common = ["--scale", workload["scale"], "--seed", str(seed)]
    if workload["kind"] == "panel":
        return ["panel", *common, "--waves", str(workload["waves"])]
    args = ["run", *common, "--shards", str(workload["shards"]),
            "--backend", workload["backend"]]
    if workload["workers"] != 1:
        args += ["--workers", str(workload["workers"])]
    if workload["checkpoint"]:
        args += ["--checkpoint-dir", "checkpoints"]
    return args


def printed_result(workload: dict, stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if workload["kind"] == "panel":
        return [mask_panel_line(line) for line in lines]
    return lines


def setup_cli() -> list[float]:
    """Warm the bytecode cache (every module, including those the CLI
    imports lazily; untimed, as its cost depends on what an earlier
    run left), then time interpreters that import the CLI from it."""
    workdir = fresh_dir("setup")
    times = []
    for argv in (["-m", "compileall", "-q", str(ROOT / "src" / "repro")],
                 *[["-c", "import repro.cli"]] * SETUP_REPEATS):
        child = run_child([sys.executable, *argv], workdir)
        if child["returncode"] != 0:
            raise BenchError(f"set-up {argv} failed:\n"
                             f"{child['stdout']}{child['stderr']}")
        if argv[0] == "-c":
            times.append(child["wall_s"])
    shutil.rmtree(workdir)
    return times


def input_seeds(workload: dict, seed: int) -> list[int]:
    """The scenario seeds one run measures: ``inputs`` disjoint worlds
    per driver seed, so a run's figure averages over several inputs
    instead of following one world's size."""
    count = workload.get("inputs", 1)
    return [seed * count + i for i in range(count)]


def cli_rounds(workload: dict, seeds: list[int],
               seconds: float) -> list[dict]:
    rounds = []
    started = time.perf_counter()
    while more_rounds(len(rounds), started, seconds, len(seeds)):
        seed = seeds[len(rounds) % len(seeds)]
        workdir = fresh_dir("round")
        child = run_child([sys.executable, "-m", "repro",
                           *cli_args(workload, seed)], workdir)
        shutil.rmtree(workdir)
        child["seed"] = seed
        rounds.append(child)
    return rounds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(samples: dict[str, list[tuple[int, float]]]) -> dict:
    """Per end-to-end metric: the mean over input seeds of each seed's
    median (the plain median with one input), the quartiles of all
    samples, and the sample count."""
    summary = {}
    for name, unit in END_TO_END.items():
        by_seed: dict[int, list[float]] = {}
        for seed, value in samples[name]:
            by_seed.setdefault(seed, []).append(value)
        values = [value for _seed, value in samples[name]]
        q1, _median, q3 = quartiles(values)
        summary[name] = {
            "value": statistics.mean(statistics.median(group)
                                     for group in by_seed.values()),
            "unit": unit, "n": len(values), "q1": q1, "q3": q3}
    return summary


def round_samples(rounds: list[dict], references: dict) -> dict:
    return {
        "wall_s": [(r["seed"], r["wall_s"]) for r in rounds],
        "records_per_s": [(r["seed"],
                           references[r["seed"]]["records"] / r["wall_s"])
                          for r in rounds],
        "cpu_s": [(r["seed"], r["cpu_s"]) for r in rounds],
        "peak_rss_mb": [(r["seed"], r["peak_rss_mb"]) for r in rounds],
    }


def seed_median(rounds: list[dict], seed: int, key: str) -> float:
    return statistics.median(r[key] for r in rounds if r["seed"] == seed)


def measure_cli(workload: dict, seed: int, seconds: float,
                trace: bool) -> dict:
    seeds = input_seeds(workload, seed)
    setups = setup_cli()
    rounds = cli_rounds(workload, seeds, seconds)
    references = {s: load_reference(workload, s) for s in seeds}
    failed = sum(1 for child in rounds
                 if child["returncode"] != 0
                 or printed_result(workload, child["stdout"])
                 != references[child["seed"]]["result"])
    samples = round_samples(rounds, references)
    samples["setup_s"] = [(0, value) for value in setups]
    outcome = {"attempted": len(rounds), "failed": failed,
               "end_to_end": summarize(samples),
               "records": {s: ref["records"] for s, ref in references.items()}}
    if trace:
        traced = probe("decompose", workload, seeds[0])
        outcome["attempted"] += 1
        if traced["result"] != references[seeds[0]]["result"]:
            outcome["failed"] += 1
        outcome["traced"] = traced_layers(
            traced["rows"], traced["layers"], traced["wall_s"],
            seed_median(rounds, seeds[0], "wall_s"))
    return outcome


def measure_service(workload: dict, seed: int, seconds: float,
                    trace: bool) -> dict:
    seeds = input_seeds(workload, seed)
    report = probe("service", workload, seeds, str(seconds),
                   "1" if trace else "0", str(WORK / "service-store"))
    references = {s: load_reference(workload, s) for s in seeds}
    rounds = report["rounds"]
    served = list(rounds)
    if trace:
        served.append(report["traced"]["round"])
    attempted = sum(r["attempted"] for r in served)
    failed = sum(r["failed"] for r in served)
    for served_round in served:
        # Record counts and the logbook digest must match the seed's
        # reference.
        result = served_round["job_result"] or {}
        expected = references[served_round["seed"]]["result"]
        if any(result.get(key) != expected[key]
               for key in ("q12_records", "q3_records", "logbook_sha256")):
            failed += 1
    samples = round_samples(rounds, references)
    samples["setup_s"] = [(r["seed"], r["setup_s"]) for r in rounds]
    outcome = {"attempted": attempted, "failed": failed,
               "end_to_end": summarize(samples),
               "records": {s: ref["records"] for s, ref in references.items()},
               "service": {key: statistics.median(r[key] for r in rounds)
                           for key in ("job_s", "read_qps", "read_p99_us")}}
    if trace:
        traced = report["traced"]
        outcome["traced"] = traced_layers(
            traced["rows"], traced["layers"], traced["wall_s"],
            seed_median(rounds, seeds[0], "wall_s"))
    return outcome


def traced_layers(rows: dict[str, float], layers: dict, wall: float,
                  untraced_wall: float) -> dict:
    """Per-layer metrics (0 for a layer this workload does not
    exercise) and the self-time table, closed by ``unattributed``."""
    unattributed = wall - sum(rows.values())
    metrics = {name: 0 for name in PER_LAYER}
    metrics.update(layers)
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = unattributed
    metrics["trace.overhead_frac"] = wall / untraced_wall - 1
    table = dict(sorted(rows.items(), key=lambda item: -item[1]))
    table["unattributed"] = unattributed
    return {"metrics": metrics, "table": table, "wall_s": wall}


def measure(name: str, workload: dict, seed: int, seconds: float,
            trace: bool) -> dict:
    runner = measure_service if workload["kind"] == "service" else measure_cli
    load_before = os.getloadavg()
    outcome = runner(workload, seed, seconds, trace)
    outcome["workload"] = name
    outcome["provenance"] = provenance(load_before, os.getloadavg())
    shutil.rmtree(WORK / "tmp", ignore_errors=True)
    return outcome


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(load_before, load_after) -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "git_sha": sha or "absent",
        "git_dirty": None if status is None else bool(status),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "start_method": multiprocessing.get_context().get_start_method(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
    }


def print_report(outcome: dict, trace: bool) -> None:
    records = ", ".join(f"{count} (seed {seed})"
                        for seed, count in outcome["records"].items())
    print(f"# {outcome['workload']}: records per operation {records}; "
          f"error_rate "
          f"{outcome['failed'] / outcome['attempted']:.4f} "
          f"({outcome['failed']}/{outcome['attempted']})")
    for name, m in outcome["end_to_end"].items():
        print(f"  {name:<16} {m['value']:>14.4f} {m['unit']:<6} "
              f"n={m['n']}  q1={m['q1']:.4f} q3={m['q3']:.4f}")
    for name, value in outcome.get("service", {}).items():
        print(f"  {name:<16} {value:>14.4f}  (median over rounds)")
    if trace:
        traced = outcome["traced"]
        print(f"  traced run: wall {traced['wall_s']:.4f} s; self time "
              f"by layer:")
        for row, seconds in traced["table"].items():
            print(f"    {row:<28} {seconds:>10.4f} s "
                  f"{seconds / traced['wall_s']:>7.1%}")
        print("  per-layer metrics (0: not on this workload's path):")
        for name, value in traced["metrics"].items():
            print(f"    {name:<30} {value:>14.4f} {PER_LAYER[name]}")
    print("provenance " + json.dumps(outcome["provenance"], sort_keys=True))


def result_line(outcome: dict, trace: bool) -> str:
    if trace:
        metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                   for name, value in outcome["traced"]["metrics"].items()}
    else:
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in outcome["end_to_end"].items()}
    return json.dumps({"correct": outcome["failed"] == 0,
                       "attempted": outcome["attempted"],
                       "failed": outcome["failed"], "metrics": metrics})


def run_all(seed: int, seconds: float, out: Path | None) -> int:
    """Every workload, untraced then traced, with derived ratios."""
    results = {}
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            outcome = measure(name, workload, seed, seconds, trace)
            print_report(outcome, trace)
            results[f"{name}/trace{int(trace)}"] = outcome
    serial = results["run-paper-serial/trace0"]["end_to_end"]["wall_s"]
    process = results["run-paper-process/trace0"]["end_to_end"]["wall_s"]
    ratio = {
        "name": "run-paper-process speedup over run-paper-serial, wall_s",
        "kind": "measured",
        "serial_wall_s": serial["value"],
        "process_wall_s": process["value"],
        "serial_over_process": serial["value"] / process["value"],
        "process_over_serial": process["value"] / serial["value"],
        "roadmap_target_serial_over_process": 1.6,
    }
    print(f"measured: serial {serial['value']:.3f} s / process "
          f"{process['value']:.3f} s = {ratio['serial_over_process']:.3f}x "
          f"(process/serial {ratio['process_over_serial']:.3f}; "
          f"target >= 1.6x)")
    failed = sum(r["failed"] for r in results.values())
    if out is not None:
        out.write_text(json.dumps({"seed": seed, "seconds": seconds,
                                   "derived": [ratio], "results": results},
                                  indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="with --workload all: write the result set "
                             "as JSON here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.out)
        trace = bool(args.trace)
        outcome = measure(args.workload, WORKLOADS[args.workload],
                          args.seed, args.seconds, trace)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print_report(outcome, trace)
    print(result_line(outcome, trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
