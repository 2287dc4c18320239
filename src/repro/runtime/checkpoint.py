"""Shard checkpoints: interrupted campaigns resume, not restart.

Each completed shard is written as one JSON file the moment it
finishes, alongside a manifest that fingerprints the campaign
(scenario, sampling policy, ISP set, shard count). On resume the store
reloads every shard whose fingerprint matches and the executor runs
only the remainder; because shard records round-trip exactly (JSON
floats use shortest-round-trip ``repr``), the resumed merge is
bit-identical to an uninterrupted run.

Crash safety is load-bearing here — with the distributed backend a
checkpoint directory survives machine failures, so every write must
leave the store readable no matter where the writer dies:

* every file (shard and manifest) is published with the
  tmp-then-``rename`` pattern, so readers never observe a half-written
  JSON document;
* each campaign's files live in a subdirectory named by a prefix of
  its fingerprint, so two campaigns sharing a checkpoint root can
  never clobber each other's work;
* the manifest is a cache, not the source of truth — when it is
  corrupt, missing, or stale, :meth:`CheckpointStore.load_completed`
  rebuilds it from the intact shard files and heals it on disk.

Shard files hold the :mod:`repro.codec` shard JSON and reuse the
:class:`~repro.persist.store.StudyStore` SHA-256 file checksums. A
layout this store does not recognize (such as the pre-1.3 root-level
files) is simply not found, and its shards recompute.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import asdict
from pathlib import Path

from repro.codec import shard_from_json, shard_to_json
# perfbench/probe.py imports this name from here; keep it importable.
from repro.codec import record_to_json as _record_to_json  # noqa: F401
from repro.core.sampling import SamplingPolicy
from repro.obs.metrics import REGISTRY as _METRICS
from repro.persist.store import _sha256
from repro.runtime.atomicio import atomic_write_text, sweep_stale_tmp_files
from repro.runtime.cache import content_digest
from repro.runtime.storebase import FingerprintNamespacedStore
from repro.synth.scenario import ScenarioConfig

__all__ = ["CheckpointStore", "campaign_fingerprint"]

MANIFEST_NAME = "checkpoint.json"
FORMAT_VERSION = 1


def campaign_fingerprint(
    scenario: ScenarioConfig,
    policy: SamplingPolicy | None,
    isps: tuple[str, ...],
    shard_count: int,
    states: tuple[str, ...] | None = None,
    q3_states: tuple[str, ...] | None = None,
    max_replacements: int = 2,
) -> str:
    """Content digest identifying one campaign's checkpointable work.

    Everything that changes the shard partition or any shard's records
    must feed the digest, or resume could adopt another campaign's
    checkpoints: the scenario (seed included), sampling policy, ISP
    set, state subsets, replacement budget, and shard count.
    """
    policy = policy or SamplingPolicy()
    return content_digest({
        "format": FORMAT_VERSION,
        "scenario": asdict(scenario),
        "policy": asdict(policy),
        "isps": list(isps),
        "states": list(states or scenario.states),
        "q3_states": list(q3_states or scenario.q3_states),
        "max_replacements": max_replacements,
        "shard_count": shard_count,
    })


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

class CheckpointStore(FingerprintNamespacedStore):
    """One campaign's shard checkpoints under a directory.

    ``directory`` is the shared checkpoint *root*; this campaign's
    files live in :attr:`campaign_directory` (the base class's
    fingerprint-namespaced subdirectory). Namespacing (rather than a
    fingerprint check that deletes on mismatch) means campaigns that
    share a root can never destroy each other's checkpoints.
    """

    @property
    def campaign_directory(self) -> Path:
        """This campaign's namespaced subdirectory under the root."""
        return self.namespace_directory

    def shard_path(self, index: int) -> Path:
        """Path of one shard's checkpoint file."""
        return self.campaign_directory / f"shard-{index:04d}.json"

    def _manifest_path(self) -> Path:
        return self.campaign_directory / MANIFEST_NAME

    def _load_manifest(self) -> dict | None:
        # A kill mid-write cannot truncate the manifest any more
        # (writes are atomic), but a manifest written by older code or
        # damaged externally is still recoverable: ``None`` lets the
        # caller rebuild from the shard files instead of crashing.
        return self._read_json_document(self._manifest_path())

    def _write_manifest(self, checksums: dict[str, str]) -> None:
        payload = {
            "format": FORMAT_VERSION,
            "fingerprint": self._fingerprint,
            "checksums": checksums,
        }
        atomic_write_text(
            self._manifest_path(),
            json.dumps(payload, indent=2, sort_keys=True))

    def save_shard(self, result: "ShardResult") -> Path:
        """Persist one completed shard; updates the manifest."""
        self.campaign_directory.mkdir(parents=True, exist_ok=True)
        manifest = self._load_manifest()
        if (manifest is not None
                and manifest.get("fingerprint") != self._fingerprint):
            # The namespaced directory should only ever hold this
            # campaign's manifest; a foreign one means external
            # tampering. Never delete data over it — warn, and let the
            # rebuilt manifest supersede it.
            warnings.warn(
                f"checkpoint manifest under {self.campaign_directory} "
                f"claims fingerprint {manifest.get('fingerprint')!r}, "
                f"expected {self._fingerprint!r}; rebuilding the "
                f"manifest without deleting any shard files",
                stacklevel=2)
            manifest = None
        if manifest is not None:
            checksums = dict(manifest["checksums"])
        else:
            # Torn or foreign manifest: re-list the shard files already
            # on disk (parseable ones, hashed as they stand) instead of
            # starting from nothing — leaving them unlisted would
            # disable their integrity checks on every later load.
            checksums = {
                path.name: _sha256(path)
                for path in sorted(
                    self.campaign_directory.glob("shard-*.json"))
                if self._load_shard_file(path) is not None
            }
        path = self.shard_path(result.index)
        payload = json.dumps(shard_to_json(result), sort_keys=True)
        atomic_write_text(path, payload)
        # Digest the in-memory payload: re-reading a multi-megabyte
        # file just written, on the serialized on_complete path, would
        # double checkpoint I/O.
        checksums[path.name] = hashlib.sha256(
            payload.encode("utf-8")).hexdigest()
        self._write_manifest(checksums)
        sweep_stale_tmp_files(self.campaign_directory)
        _METRICS.counter("checkpoint_shards_saved_total").inc()
        return path

    def _load_shard_file(self, path: Path) -> "ShardResult | None":
        """Parse one shard file, or None if it is corrupt/unreadable."""
        try:
            return shard_from_json(
                json.loads(path.read_text(encoding="utf-8")))
        except (json.JSONDecodeError, OSError, KeyError, TypeError,
                ValueError):
            return None

    def load_completed(self) -> dict[int, "ShardResult"]:
        """Reload every intact checkpointed shard of this campaign.

        The manifest is never trusted to be *complete*: shard files it
        does not list (a writer died between publishing the shard and
        updating the manifest, or the manifest itself was torn and
        parsed as nothing) are recovered by parsing them directly, and
        the healed manifest is written back. But for files the
        manifest *does* list, its SHA-256 checksum is authoritative: a
        mismatching file is skipped and recomputed, because damage
        that happens to stay parseable (bit rot on flaky storage)
        must not silently break the bit-identical-merge guarantee.
        The skip is self-correcting — the shard reruns, is re-saved,
        and the manifest entry is refreshed.
        """
        directory = self.campaign_directory
        if not directory.exists():
            return {}
        manifest = self._load_manifest()
        if manifest is not None and manifest.get("fingerprint") != self._fingerprint:
            manifest = None
        known = manifest.get("checksums", {}) if manifest else {}

        completed: dict[int, "ShardResult"] = {}
        checksums: dict[str, str] = {}
        for path in sorted(directory.glob("shard-*.json")):
            digest = _sha256(path)
            expected = known.get(path.name)
            if expected is not None and digest != expected:
                # Listed file failing its integrity check. Keep the
                # recorded checksum in the healed manifest so the
                # damaged file stays quarantined on the next load
                # instead of sneaking back in as "unlisted".
                checksums[path.name] = expected
                continue
            result = self._load_shard_file(path)
            if result is None:
                continue  # unlisted file that does not parse
            completed[result.index] = result
            checksums[path.name] = digest
        if completed and checksums != known:
            # Heal the manifest so the next reader sees every
            # recovered shard listed with a current checksum.
            self._write_manifest(checksums)
        return completed

    def clear(self) -> None:
        """Delete this campaign's checkpoint files (manifest included).

        Only the namespaced campaign directory is touched; other
        campaigns sharing the checkpoint root are left intact.
        """
        directory = self.campaign_directory
        if not directory.exists():
            return
        for pattern in ("shard-*.json", MANIFEST_NAME, "*.tmp-*"):
            for path in directory.glob(pattern):
                path.unlink(missing_ok=True)
        try:
            directory.rmdir()
        except OSError:
            pass  # unexpected extra files: leave them alone
