"""SIGKILL chaos for the audit daemon: the journal IS the state.

The acceptance scenario, end to end in real OS processes: a
``caf-audit serve`` daemon is killed with SIGKILL mid-campaign, and
``Journal.replay()`` must reconstruct byte-for-byte the completed-
shard state a :class:`~repro.runtime.checkpoint.CheckpointStore`
resume would have loaded after an identical interruption
(:func:`tests.harness.equivalence.assert_journal_replay_equivalent`).
A restarted daemon then finishes the job from the journaled shards
and seals the same logbook digest as an uninterrupted serial run.

The submitted campaign runs paced (``engine_config.pace``) so each
shard takes seconds of wall clock — a deterministic kill window —
while the oracle runs unpaced: the pacing invariant (records are
byte-identical at any pace) is what makes the equivalence assertion
meaningful at all.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.codec import logbook_digest
from repro.runtime import (
    CheckpointStore,
    campaign_fingerprint,
    plan_shards,
    run_shard,
)
from repro.runtime.merge import merge_shard_results
from repro.service import Journal, ServiceClient
from repro.service.journal import service_fingerprint

from harness.equivalence import assert_journal_replay_equivalent

pytestmark = pytest.mark.chaos

SUBSET = dict(isps=("consolidated",), states=("VT", "NH"),
              q3_states=("UT",))
SHARDS = 4
# ~3.5s of wall clock per shard on this subset: wide enough that the
# status poller always lands a kill between shard boundaries.
PACE = 0.001

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def campaign_spec(world) -> dict:
    return {"kind": "campaign", "scenario": asdict(world.config),
            "shards": SHARDS, "engine_config": {"pace": PACE},
            **{key: list(value) for key, value in SUBSET.items()}}


def spawn_daemon(journal_dir: Path, socket_path: Path):
    """A real ``caf-audit serve`` process; returns (proc, address)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--journal", str(journal_dir), "--address", str(socket_path)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env=env)
    address = proc.stdout.readline().strip()  # printed once bound
    if not address:
        proc.kill()
        raise RuntimeError("daemon exited before binding")
    return proc, address


def reap(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=30)


class TestDaemonSigkill:
    def test_replay_equals_checkpoint_resume_and_job_completes(
            self, world, tmp_path):
        journal_dir = tmp_path / "journal"
        job_id = self._run_and_kill_mid_campaign(world, tmp_path,
                                                 journal_dir)
        completed_indices = self._assert_replay_matches_checkpoint_twin(
            world, tmp_path, journal_dir, job_id)
        self._assert_restart_seals_the_oracle_logbook(
            world, tmp_path, journal_dir, job_id, completed_indices)

    # -- stage 1: the kill -------------------------------------------------

    def _run_and_kill_mid_campaign(self, world, tmp_path, journal_dir):
        proc, address = spawn_daemon(journal_dir, tmp_path / "kill.sock")
        try:
            with ServiceClient(address) as client:
                job_id = client.submit(campaign_spec(world))["job"]
                deadline = time.monotonic() + 120
                while True:
                    state = client.status(job_id)["state"]
                    if (state["status"] == "running"
                            and 1 <= state["shards_completed"] < SHARDS):
                        break
                    assert state["status"] not in ("completed", "failed"), \
                        "campaign finished before the kill landed"
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            reap(proc)
        return job_id

    # -- stage 2: replay ≡ checkpoint resume -------------------------------

    def _assert_replay_matches_checkpoint_twin(self, world, tmp_path,
                                               journal_dir, job_id):
        journal = Journal(journal_dir, service_fingerprint("audit"))
        try:
            # SIGKILL tears at most the tail entry: recovery truncates
            # silently, never quarantines.
            assert not list(journal_dir.glob("**/*.quarantine*"))
            state = journal.replay()
            job = state.jobs[job_id]
            assert job.status == "running"  # mid-flight, as killed
            fingerprint = campaign_fingerprint(
                world.config, None, SUBSET["isps"], SHARDS,
                states=SUBSET["states"], q3_states=SUBSET["q3_states"])
            completed_indices = sorted(state.completed_shards(fingerprint))
            # The status poll saw >= 1 shard, and every shard entry is
            # fsynced before a status response can reflect it — so the
            # replay must hold at least one, and the job was unfinished.
            assert 1 <= len(completed_indices) < SHARDS
            assert job.shards_completed == len(completed_indices)

            # The checkpoint twin: a plain serial campaign interrupted
            # after the same shards, resumed through CheckpointStore.
            # It runs UNPACED — byte equality across the pace gap is
            # the pacing invariant, asserted end to end.
            specs = plan_shards(world, SHARDS, **SUBSET)
            store = CheckpointStore(tmp_path / "ckpt", fingerprint)
            for index in completed_indices:
                store.save_shard(
                    run_shard(world.config, specs[index], world=world))
            replayed = assert_journal_replay_equivalent(
                journal, fingerprint, store)
            assert sorted(replayed) == completed_indices
        finally:
            journal.close()
        return completed_indices

    # -- stage 3: restart finishes from the journal ------------------------

    def _assert_restart_seals_the_oracle_logbook(self, world, tmp_path,
                                                 journal_dir, job_id,
                                                 completed_indices):
        proc, address = spawn_daemon(journal_dir, tmp_path / "again.sock")
        try:
            with ServiceClient(address) as client:
                final = client.wait_for_job(job_id, timeout=300.0)
        finally:
            reap(proc)
        assert final["status"] == "completed", final.get("error")

        specs = plan_shards(world, SHARDS, **SUBSET)
        completed = {spec.index: run_shard(world.config, spec, world=world)
                     for spec in specs}
        collection, q3 = merge_shard_results(world, specs, completed,
                                             **SUBSET)
        oracle = logbook_digest(collection.log, q3.log)
        assert final["result"]["logbook_sha256"] == oracle

        # The restart resumed, not re-ran: exactly one shard-completed
        # entry per shard across both daemon lives.
        journal = Journal(journal_dir, service_fingerprint("audit"))
        try:
            shard_events = [entry.event for entry in journal.entries()
                            if entry.event.get("kind") == "shard-completed"]
            assert sorted(event["index"] for event in shard_events) \
                == list(range(SHARDS))
        finally:
            journal.close()


class TestSubmissionDurability:
    def test_acknowledged_submission_survives_an_instant_kill(
            self, world, tmp_path):
        """fsync-before-ack: a submission the client saw accepted is
        in the journal even if the daemon dies the next instant."""
        journal_dir = tmp_path / "journal"
        proc, address = spawn_daemon(journal_dir, tmp_path / "svc.sock")
        try:
            with ServiceClient(address) as client:
                accepted = client.submit(campaign_spec(world))
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            reap(proc)
        journal = Journal(journal_dir, service_fingerprint("audit"))
        try:
            job = journal.replay().jobs[accepted["job"]]
            assert job.spec["shards"] == SHARDS
        finally:
            journal.close()
