"""Content-addressed result cache for completed audits.

Twenty-odd benchmark and example scripts each call
``ExperimentContext.at_scale(...)`` and rebuild the same audit from
scratch. The cache keys a completed :class:`~repro.core.pipeline
.AuditReport` by the content digest of everything that determines it —
the scenario (seed included), the sampling policy, and the ISP set —
so the second script at a given scale loads the first one's audit
instead of recomputing it.

Worlds are not cached: a world builds its ground truth and Q3 blocks
per cell on first lookup, so building one costs less than loading a
pickled one would. :func:`world_digest` (the scenario and the code)
still keys the distributed autotuner's plans.

The key also carries a digest of the ``repro`` package's own sources,
so an entry computed by different code is a miss rather than a stale
hit.

The cache is size-bounded: give the constructor ``max_bytes`` or set
``REPRO_CACHE_MAX_BYTES`` and, after each store, the least-recently-
*used* entries (hits refresh an entry's clock) are evicted until the
directory fits. Entries are stored as ``<digest>.pkl`` plus a
``<digest>.json`` sidecar with headline numbers for human inspection.
Pickle implies the usual trust caveat: only point ``cache_dir`` (or
``REPRO_CACHE_DIR``) at directories you write yourself.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.sampling import SamplingPolicy
from repro.obs.metrics import REGISTRY as _METRICS
from repro.runtime.atomicio import (atomic_write_stream, atomic_write_text,
                                    sweep_stale_tmp_files)
from repro.synth.scenario import ScenarioConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import AuditReport

__all__ = [
    "AuditCache",
    "audit_digest",
    "content_digest",
    "world_digest",
    "cache_dir_from_environment",
    "cache_max_bytes_from_environment",
]

CACHE_ENV_VAR = "REPRO_CACHE_DIR"
CACHE_MAX_BYTES_ENV_VAR = "REPRO_CACHE_MAX_BYTES"

# ImportError covers entries pickled by an older code version whose
# classes have since moved — stale, so a miss, not a crash.
_PICKLE_LOAD_ERRORS = (pickle.UnpicklingError, EOFError, AttributeError,
                       ImportError, OSError)


def content_digest(payload: dict) -> str:
    """SHA-256 of a payload's canonical JSON form.

    The one fingerprinting idiom every store shares (audit cache,
    checkpoints, panel store, autotune plans, per-cell wave digests):
    sorted keys, no whitespace, UTF-8. Canonicalization must never
    drift between stores — a digest written by one and compared by
    another would silently stop matching — so it lives only here.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@lru_cache(maxsize=1)
def _code_digest() -> str:
    """SHA-256 over every ``repro`` source file, path and bytes.

    Any edit to the package moves it, which moves every cache key. Read
    on first use and kept for the life of the process, so callers that
    never touch a cache never pay for it.
    """
    package = Path(__file__).resolve().parent.parent
    sources = sorted((path.relative_to(package).as_posix(), path)
                     for path in package.rglob("*.py"))
    digest = hashlib.sha256()
    for name, path in sources:
        content = path.read_bytes()
        digest.update(f"{name}\0{len(content)}\0".encode("utf-8"))
        digest.update(content)
    return digest.hexdigest()


def audit_digest(
    scenario: ScenarioConfig,
    policy: SamplingPolicy | None,
    isps: tuple[str, ...],
    use_urban_survey: bool = True,
    engine_config=None,
) -> str:
    """Content address of one audit: every input that determines it —
    the code, scenario, policy, ISP set, and the urban-survey toggle.

    ``engine_config`` participates only when it differs from the
    default :class:`~repro.bqt.engine.EngineConfig` — an omitted or
    default config hashes as if there were none. A non-default config
    (fewer retries, pacing) gets its own address: retry policy changes
    the records, and a paced rehearsal that hit the cache would never
    actually pace.
    """
    from repro.bqt.engine import EngineConfig

    policy = policy or SamplingPolicy()
    payload = {
        "code": _code_digest(),
        "scenario": asdict(scenario),
        "policy": asdict(policy),
        "isps": sorted(isps),
        "use_urban_survey": use_urban_survey,
    }
    if engine_config is not None and engine_config != EngineConfig():
        payload["engine_config"] = asdict(engine_config)
    return content_digest(payload)


def world_digest(scenario: ScenarioConfig) -> str:
    """Content address of one world build: the code and the scenario.

    Deliberately independent of sampling policy and ISP set — the
    world is fully determined by the scenario's seed and shape, so a
    plan keyed by it (the distributed autotuner's) serves every policy.
    """
    return content_digest({
        "code": _code_digest(),
        "scenario": asdict(scenario),
    })


def cache_dir_from_environment() -> str | None:
    """The cache directory named by ``REPRO_CACHE_DIR`` (if any)."""
    value = os.environ.get(CACHE_ENV_VAR, "").strip()
    return value or None


def cache_max_bytes_from_environment() -> int | None:
    """The eviction bound named by ``REPRO_CACHE_MAX_BYTES`` (if any)."""
    value = os.environ.get(CACHE_MAX_BYTES_ENV_VAR, "").strip()
    if not value:
        return None
    try:
        parsed = int(value)
    except ValueError:
        raise ValueError(
            f"{CACHE_MAX_BYTES_ENV_VAR} must be an integer byte count, "
            f"got {value!r}") from None
    if parsed <= 0:
        raise ValueError(f"{CACHE_MAX_BYTES_ENV_VAR} must be positive")
    return parsed


class AuditCache:
    """A directory of content-addressed audit reports.

    ``max_bytes`` (default: ``REPRO_CACHE_MAX_BYTES``) bounds the
    total size of pickles and sidecars; stores evict least-recently-
    used entries to fit.
    """

    def __init__(self, directory: str | Path, max_bytes: int | None = None):
        self._directory = Path(directory)
        self._max_bytes = (max_bytes if max_bytes is not None
                           else cache_max_bytes_from_environment())
        if self._max_bytes is not None and self._max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        # Sidecar telemetry only — counts never touch cached bytes.
        self._metric_hits = _METRICS.counter("audit_cache_hits_total")
        self._metric_misses = _METRICS.counter("audit_cache_misses_total")
        self._metric_evictions = _METRICS.counter(
            "audit_cache_evictions_total")

    @property
    def directory(self) -> Path:
        """The cache's root directory."""
        return self._directory

    @property
    def max_bytes(self) -> int | None:
        """The eviction bound (None = unbounded)."""
        return self._max_bytes

    def path_for(self, digest: str) -> Path:
        """Path of the pickled report for one digest."""
        return self._directory / f"{digest}.pkl"

    # ------------------------------------------------------------------
    # audits
    # ------------------------------------------------------------------
    def get(self, digest: str) -> "AuditReport | None":
        """Load the cached report for a digest (None on miss).

        A corrupted entry (e.g. from a writer killed mid-publish on a
        filesystem without atomic rename) counts as a miss, not a
        crash — the caller recomputes and overwrites it.
        """
        report = self._load_pickle(self.path_for(digest))
        (self._metric_hits if report is not None
         else self._metric_misses).inc()
        return report

    def put(self, digest: str, report: "AuditReport") -> Path:
        """Store a report under its digest; returns the pickle path."""
        path = self._store_pickle(self.path_for(digest), report)
        sidecar = {
            "digest": digest,
            "scenario": asdict(report.world.config),
            "headline": report.headline(),
            "q12_records": len(report.collection.log),
            "q3_records": len(report.q3_collection.log),
        }
        atomic_write_text(
            path.with_suffix(".json"),
            json.dumps(sidecar, indent=2, sort_keys=True))
        self._evict(keep=path)
        return path

    def entries(self) -> list[str]:
        """Audit digests currently stored, sorted."""
        if not self._directory.exists():
            return []
        return sorted(p.stem for p in self._directory.glob("*.pkl"))

    # ------------------------------------------------------------------
    # storage and eviction
    # ------------------------------------------------------------------
    def _load_pickle(self, path: Path):
        if not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                loaded = pickle.load(handle)
        except _PICKLE_LOAD_ERRORS:
            return None
        # A hit refreshes the entry's LRU clock. The loaded object is
        # good regardless, so a refresh that cannot happen — entry
        # evicted by a concurrent process, or a read-only shared cache
        # (where eviction never runs either) — is fine to skip.
        try:
            os.utime(path)
        except OSError:
            pass
        return loaded

    def _store_pickle(self, path: Path, payload) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        # Shared atomic publish (per-process temp name + fsync +
        # rename): concurrent scripts warming the same cold cache
        # cannot interleave writes, and readers never see half a
        # pickle — even across a power failure. Streamed, so a
        # multi-megabyte world is never duplicated in memory.
        with atomic_write_stream(path) as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        return path

    def _entry_paths(self) -> list[Path]:
        return list(self._directory.glob("*.pkl"))

    @staticmethod
    def _stat_or_none(path: Path):
        # Concurrent processes evict from the same directory; any
        # entry may vanish between listing and stat'ing it.
        try:
            return path.stat()
        except FileNotFoundError:
            return None

    @classmethod
    def _entry_bytes(cls, path: Path) -> int:
        total = 0
        for part in (path, path.with_suffix(".json")):
            stat = cls._stat_or_none(part)
            if stat is not None:
                total += stat.st_size
        return total

    def total_bytes(self) -> int:
        """Total size of all entries (pickles plus sidecars)."""
        if not self._directory.exists():
            return 0
        return sum(self._entry_bytes(p) for p in self._entry_paths())

    def _sweep_stale_tmp_files(self) -> None:
        """Delete orphaned ``*.pkl.tmp-<pid>`` files from crashed puts.

        ``_evict`` only sees ``*.pkl``, so without the sweep a crash
        leak would never be reclaimed.
        """
        sweep_stale_tmp_files(self._directory)

    def _evict(self, keep: Path) -> None:
        """Drop least-recently-used entries until under ``max_bytes``.

        The just-written ``keep`` entry is never evicted: the bound
        governs what accumulates, not what the caller stored last.

        Sizes and mtimes come from one stat snapshot per entry, and an
        entry whose stat returns ``None`` — deleted by a concurrent
        evictor between the listing and the stat — is skipped
        entirely. Re-stat'ing (as this method once did, separately for
        the sort key, the running total, and the subtraction) let a
        racing-deleted path sort as mtime ``0.0``, get "evicted"
        first, and throw the byte accounting off against entries the
        other writer had already removed.
        """
        if self._max_bytes is None:
            return
        self._sweep_stale_tmp_files()
        total = 0
        evictable: list[tuple[float, Path, int]] = []
        for path in self._entry_paths():
            stat = self._stat_or_none(path)
            if stat is None:
                # Vanished under a concurrent writer's eviction: not
                # ours to count, and not ours to delete.
                continue
            size = stat.st_size
            sidecar = self._stat_or_none(path.with_suffix(".json"))
            if sidecar is not None:
                size += sidecar.st_size
            total += size
            if path != keep:
                evictable.append((stat.st_mtime, path, size))
        evictable.sort(key=lambda entry: entry[0])
        for _mtime, path, size in evictable:
            if total <= self._max_bytes:
                break
            path.unlink(missing_ok=True)
            path.with_suffix(".json").unlink(missing_ok=True)
            total -= size
            self._metric_evictions.inc()
