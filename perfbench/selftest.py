"""Self-test of the benchmark on a tiny configuration.

    python3 perfbench/selftest.py

Runs every workload at ``tiny`` scale (few service reads), untraced and
traced, through the same code as ``run.py``, and checks that:

* every named metric is emitted with its unit and a finite value (and
  every end-to-end value is positive);
* a deliberately wrong reference registers as a failed operation;
* the traced layers' self times plus ``unattributed`` add up to the
  traced run's wall time, with ``unattributed`` a small share of it.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys

import run

TINY = {name: dict(workload, scale="tiny")
        for name, workload in run.WORKLOADS.items()}
TINY["service-small"].update(reads=200)

# Interpreter start-up and teardown are outside every span; at tiny
# scale they are a larger share of the wall than at the real scales.
MAX_UNATTRIBUTED_SHARE = 0.15


def check_metrics(outcome: dict, trace: bool) -> list[str]:
    line = json.loads(run.result_line(outcome, trace))
    expected = run.PER_LAYER if trace else run.END_TO_END
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(line)}")
    if set(line["metrics"]) != set(expected):
        problems.append(f"metric names differ: {sorted(line['metrics'])}")
    for name, metric in line["metrics"].items():
        value = metric.get("value")
        if metric.get("unit") != expected.get(name):
            problems.append(f"{name}: unit {metric.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{name}: end-to-end value {value!r} <= 0")
    if not line["correct"] or line["failed"] or line["attempted"] < 1:
        problems.append(f"not correct: {line['attempted']} attempted, "
                        f"{line['failed']} failed")
    return problems


def check_table(outcome: dict) -> list[str]:
    traced = outcome["traced"]
    total = sum(traced["table"].values())
    unattributed = traced["table"]["unattributed"]
    problems = []
    if not math.isclose(total, traced["wall_s"], rel_tol=1e-9):
        problems.append(f"rows sum to {total}, wall is {traced['wall_s']}")
    if not 0 <= unattributed <= MAX_UNATTRIBUTED_SHARE * traced["wall_s"]:
        problems.append(f"unattributed {unattributed:.4f} s of "
                        f"{traced['wall_s']:.4f} s")
    return problems


def corrupted(reference: dict) -> dict:
    wrong = json.loads(json.dumps(reference))
    if isinstance(wrong["result"], list):
        wrong["result"][0] += " (wrong)"
    else:
        wrong["result"]["q12_records"] += 1
    return wrong


def check_wrong_reference(name: str, workload: dict) -> list[str]:
    load_reference = run.load_reference
    run.load_reference = lambda *args: corrupted(load_reference(*args))
    try:
        outcome = run.measure(name, workload, seed=3, seconds=0, trace=False)
    finally:
        run.load_reference = load_reference
    line = json.loads(run.result_line(outcome, trace=False))
    if line["correct"] or line["failed"] < 1:
        return [f"wrong reference not detected: {line['failed']} of "
                f"{line['attempted']} failed"]
    return []


def main() -> int:
    failures = []
    for name, workload in TINY.items():
        for trace in (False, True):
            outcome = run.measure(name, workload, seed=3, seconds=0,
                                  trace=trace)
            problems = check_metrics(outcome, trace)
            if trace:
                problems += check_table(outcome)
                table = ", ".join(f"{row} {seconds:.3f}"
                                  for row, seconds in
                                  outcome["traced"]["table"].items())
                print(f"{name} traced: wall "
                      f"{outcome['traced']['wall_s']:.3f} s = {table}")
            failures += [f"{name} trace={int(trace)}: {problem}"
                         for problem in problems]
    for name in ("run-paper-serial", "panel-small-3wave", "service-small"):
        failures += [f"{name}: {problem}"
                     for problem in check_wrong_reference(name, TINY[name])]
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
