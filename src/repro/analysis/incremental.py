"""Incremental per-wave audit analysis: per-cell rows + a pure reduce.

The audit aggregations (:class:`~repro.core.audit.AuditDataset`) are
weighted means of *per-CBG* rates — which makes them expressible as a
fold over independent per-cell contributions:

* every (ISP, CBG) cell reduces to one **row** — its serviceability
  and compliance rates over the cell's conclusive records, its queried
  count, and its CAF-address weight;
* every Q3 block reduces to one row — analyzed flag, record count, and
  per-mode address counts;
* the wave-level metrics are a **pure reduce** of those rows in
  canonical cell order (the same first-seen order ``Table.group_by``
  walks), so the fold reproduces the full-table computation *bitwise*,
  `np.dot` summation order included.

A cell's row is fully determined by its record stream, which the
longitudinal digests (:mod:`repro.longitudinal.digests`) content-
address: digest equal ⟹ records byte-identical ⟹ row byte-identical.
:class:`WaveRowCache` therefore caches rows keyed by those same
digests — a wave at c% churn recomputes c% of the rows and folds the
rest from cache, making per-wave analysis O(churned cells) instead of
O(total records). Equality with the full recompute is enforced by
``assert_incremental_analysis_equivalent`` in
``tests/harness/equivalence.py``.

Rows are plain dicts; on disk each row is one compact binary column
document (:mod:`repro.tabular.colio`, ``CACHE_FILE_FORMAT`` 2) whose
typed buffers restore every float bit-exactly, so a row reloaded from
the disk-backed cache is byte-equal to the row that was stored. Any
other file (the format-1 JSON-per-cell rows included) is a cache miss
that recomputes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.bqt.responses import QueryStatus
from repro.core.audit import AuditDataset, ComplianceStandard
from repro.fcc.urban_rate_survey import generate_urban_rate_survey
from repro.obs.metrics import REGISTRY as _METRICS
from repro.runtime.atomicio import (atomic_write_bytes,
                                    sweep_stale_tmp_files)
from repro.runtime.cache import content_digest
from repro.stats.weighted import weighted_mean
from repro.tabular.colio import decode_row_document, encode_row_document
from repro.tabular.frame import factorize

if TYPE_CHECKING:  # pragma: no cover
    from repro.longitudinal.campaign import PanelCampaign, WaveOutcome

__all__ = [
    "CACHE_FILE_FORMAT",
    "ROW_FORMAT_VERSION",
    "WaveAnalysis",
    "WaveRowCache",
    "full_wave_analysis",
    "q12_cell_row",
    "q3_block_row",
    "reduce_rows",
    "row_cache_for",
    "standard_for_seed",
    "wave_analysis",
]

# Versions the row *schema* — it keys every cache namespace digest, so
# bumping it orphans all persisted rows. The on-disk file layout is
# versioned separately by CACHE_FILE_FORMAT.
ROW_FORMAT_VERSION = 1
# On-disk layout: 2 = binary column documents (tabular.colio, one .col
# file per row).
CACHE_FILE_FORMAT = 2
_NAMESPACE_DIGITS = 16

# Sentinel distinguishing "not cached" from a cached None row (a cell
# whose records were all inconclusive contributes no row, and that
# absence is itself worth caching).
_MISS = object()


def standard_for_seed(seed: int) -> ComplianceStandard:
    """The wave compliance standard: the urban-rate-survey benchmark
    generated from the world seed — constant across a panel's waves,
    since churned worlds share the snapshot's scenario."""
    return ComplianceStandard(survey=generate_urban_rate_survey(seed=seed))


# ----------------------------------------------------------------------
# Per-cell rows
# ----------------------------------------------------------------------

def q12_cell_row(cell, records, weight: int,
                 standard: ComplianceStandard) -> dict | None:
    """One (ISP, CBG) cell's audit contribution, or ``None``.

    Mirrors :class:`~repro.core.audit.AuditDataset` exactly: only
    conclusive records count, rates are ``np.mean`` over 0/1 floats in
    record order, and a cell with no conclusive records contributes
    nothing (the dataset's group-by never sees it).
    """
    served = []
    compliant = []
    for record in records:
        if not record.status.is_conclusive:
            continue
        served.append(record.status is QueryStatus.SERVICEABLE)
        compliant.append(standard.record_complies(record))
    if not served:
        return None
    return {
        "isp_id": cell.isp_id,
        "state": cell.state,
        "cbg": cell.cbg,
        "served_rate": float(np.mean(np.asarray(served, dtype=float))),
        "compliant_rate": float(np.mean(np.asarray(compliant, dtype=float))),
        "queried": len(served),
        "weight": int(weight),
    }


def q3_block_row(outcome) -> dict:
    """One Q3 candidate block's contribution (always a row — an
    unanalyzed block contributes explicit zeros, so the reduce can
    still count candidates)."""
    if outcome is None:
        return {"analyzed": False, "records": 0, "modes": {}}
    modes: dict[str, int] = {}
    for mode in outcome.modes.values():
        modes[mode] = modes.get(mode, 0) + 1
    return {
        "analyzed": True,
        "records": len(outcome.records),
        "modes": modes,
    }


# ----------------------------------------------------------------------
# The pure reduce
# ----------------------------------------------------------------------

@dataclass
class WaveAnalysis:
    """One wave's audit aggregations, reduced from per-cell rows."""

    serviceability: float
    compliance: float
    # ISP → {"serviceability": rate, "compliance": rate}, sorted keys.
    by_isp: dict[str, dict[str, float]]
    q12_cells: int
    q12_queried: int
    q3_analyzed_blocks: int
    q3_records: int
    q3_mode_counts: dict[str, int]

    def to_payload(self) -> dict:
        """JSON-serializable form; canonical dumps of two analyses are
        byte-equal iff every float is bit-equal."""
        return {
            "serviceability": self.serviceability,
            "compliance": self.compliance,
            "by_isp": self.by_isp,
            "q12_cells": self.q12_cells,
            "q12_queried": self.q12_queried,
            "q3_analyzed_blocks": self.q3_analyzed_blocks,
            "q3_records": self.q3_records,
            "q3_mode_counts": self.q3_mode_counts,
        }


def reduce_rows(q12_rows: list[dict], q3_rows: list[dict]) -> WaveAnalysis:
    """Fold per-cell rows (canonical cell order, ``None`` rows already
    dropped) into the wave's aggregations.

    The fold is a vectorized pass over column buffers extracted once
    from the row dicts. Per-ISP slices come from a stable argsort of
    the factorized ISP column, which keeps each ISP's rows in original
    row order — the exact operand order the per-row fold used — so
    every ``np.dot`` reproduces the historical result bit for bit.
    """
    if not q12_rows:
        raise ValueError("audit dataset is empty — no conclusive records")
    count = len(q12_rows)
    served = np.fromiter((row["served_rate"] for row in q12_rows),
                         dtype=float, count=count)
    compliant = np.fromiter((row["compliant_rate"] for row in q12_rows),
                            dtype=float, count=count)
    # weighted_mean casts weights to float anyway; extracting them as
    # float up front produces the same operands.
    weights = np.fromiter((row["weight"] for row in q12_rows),
                          dtype=float, count=count)
    queried = np.fromiter((row["queried"] for row in q12_rows),
                          dtype=np.int64, count=count)
    isps = np.fromiter((row["isp_id"] for row in q12_rows),
                       dtype=object, count=count)
    codes, _ = factorize(isps)
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    boundaries = np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1
    starts = np.concatenate((np.zeros(1, dtype=np.intp), boundaries))
    ends = np.concatenate((boundaries,
                           np.asarray([count], dtype=np.intp)))
    segments = {
        isps[order[start]]: order[start:end]
        for start, end in zip(starts.tolist(), ends.tolist())
    }
    by_isp = {
        isp: {
            "serviceability": weighted_mean(served[rows], weights[rows]),
            "compliance": weighted_mean(compliant[rows], weights[rows]),
        }
        for isp, rows in sorted(segments.items())
    }
    mode_counts: dict[str, int] = {}
    for row in q3_rows:
        for mode, mode_count in row["modes"].items():
            mode_counts[mode] = mode_counts.get(mode, 0) + mode_count
    q3_count = len(q3_rows)
    analyzed = np.fromiter((row["analyzed"] for row in q3_rows),
                           dtype=bool, count=q3_count)
    records = np.fromiter((row["records"] for row in q3_rows),
                          dtype=np.int64, count=q3_count)
    return WaveAnalysis(
        serviceability=weighted_mean(served, weights),
        compliance=weighted_mean(compliant, weights),
        by_isp=by_isp,
        q12_cells=count,
        q12_queried=int(queried.sum()),
        q3_analyzed_blocks=int(np.count_nonzero(analyzed)),
        q3_records=int(records.sum()),
        q3_mode_counts=dict(sorted(mode_counts.items())),
    )


# ----------------------------------------------------------------------
# The digest-keyed row cache
# ----------------------------------------------------------------------

class WaveRowCache:
    """Per-cell analysis rows keyed by the cells' world digests.

    In-memory always; give ``directory`` to additionally persist each
    row as one binary column document (``tabular.colio``, format 2)
    under ``directory/<namespace16>/rows/`` (the atomic-publish idiom
    every durable store here shares), so a resumed panel's analysis is
    warm across processes.
    ``namespace`` must digest everything *besides* the cell digest
    that shapes a row — the panel fingerprint (scenario, policy,
    replacement budget) and the compliance standard — or two panels
    could exchange rows.
    """

    def __init__(self, namespace: str, directory: str | Path | None = None):
        self._namespace = namespace
        self._directory = (None if directory is None
                           else Path(directory) / namespace[:_NAMESPACE_DIGITS]
                           / "rows")
        self._rows: dict[tuple[str, str], dict | None] = {}
        self.hits = 0
        self.misses = 0
        # Sidecar telemetry mirrors of the public counters above.
        self._metric_hits = _METRICS.counter("wave_row_cache_hits_total")
        self._metric_misses = _METRICS.counter("wave_row_cache_misses_total")

    @property
    def namespace(self) -> str:
        return self._namespace

    @property
    def directory(self) -> Path | None:
        """The on-disk row directory (None = memory only)."""
        return self._directory

    def _path_for(self, kind: str, digest: str) -> Path:
        """The format-2 binary column document for one row."""
        return self._directory / f"{kind}-{digest}.col"

    def get(self, kind: str, digest: str):
        """A cached row (possibly ``None``), or the module-level miss
        sentinel; use :meth:`lookup` for the tuple form."""
        key = (kind, digest)
        if key in self._rows:
            self.hits += 1
            self._metric_hits.inc()
            return self._rows[key]
        if self._directory is not None:
            row = self._load(kind, digest)
            if row is not _MISS:
                self._rows[key] = row
                self.hits += 1
                self._metric_hits.inc()
                return row
        self.misses += 1
        self._metric_misses.inc()
        return _MISS

    def lookup(self, kind: str, digest: str) -> tuple[bool, dict | None]:
        """``(hit, row)`` — row is meaningful only when ``hit``."""
        row = self.get(kind, digest)
        if row is _MISS:
            return False, None
        return True, row

    def put(self, kind: str, digest: str, row: dict | None) -> None:
        self._rows[(kind, digest)] = row
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)
            payload = encode_row_document(row, {
                "format": CACHE_FILE_FORMAT,
                "namespace": self._namespace,
                "digest": digest,
                # Wrapped so a cached None row checksums cleanly.
                "row_sha256": content_digest({"row": row}),
            })
            atomic_write_bytes(self._path_for(kind, digest), payload)

    def _load(self, kind: str, digest: str):
        """Load one verified persisted row; damage is a miss.

        Like every durable store here, the payload is checksummed — a
        corrupted-but-parseable row folded into a wave's weighted rates
        would silently break the byte-equality contract. A failing
        file is unlinked so the recompute's re-put replaces it.
        """
        path = self._path_for(kind, digest)
        try:
            payload = path.read_bytes()
        except OSError:
            return _MISS
        try:
            meta, row = decode_row_document(payload)
        except ValueError:
            # Structurally damaged (torn write, truncation): quarantine
            # so the re-put replaces it.
            path.unlink(missing_ok=True)
            return _MISS
        if (not isinstance(meta, dict)
                or meta.get("format") != CACHE_FILE_FORMAT
                or meta.get("namespace") != self._namespace):
            # A newer file format, or another panel sharing the 16-hex
            # directory prefix: not ours to judge, never unlinked.
            return _MISS
        if (meta.get("digest") != digest
                or content_digest({"row": row}) != meta.get("row_sha256")):
            # Claims our format and namespace but fails its checks:
            # damage. Quarantine so the re-put replaces it.
            path.unlink(missing_ok=True)
            return _MISS
        return row

    def sweep_stale_tmp_files(self) -> None:
        if self._directory is not None:
            sweep_stale_tmp_files(self._directory)

    def sweep_unreferenced(self, referenced: set[str]) -> list[str]:
        """Delete persisted rows whose digest is not in ``referenced``.

        The disk store is keyed by cell digest, so churned cells leave
        a stale row file behind each wave; sweeping against the wave
        manifests' referenced digests (``PanelStore
        .referenced_digests()``) bounds the row store to the live
        panel, exactly like the cell CAS sweep. Returns the digests
        removed. In-memory rows are untouched (they die with the
        process).
        """
        if self._directory is None or not self._directory.exists():
            return []
        removed: list[str] = []
        for path in sorted(self._directory.glob("*.col")):
            digest = path.stem.split("-", 1)[-1]
            if digest in referenced:
                continue
            path.unlink(missing_ok=True)
            removed.append(digest)
        sweep_stale_tmp_files(self._directory)
        return removed


def row_cache_for(campaign: "PanelCampaign",
                  directory: str | Path | None = None) -> WaveRowCache:
    """The row cache for one panel campaign.

    The namespace digests the campaign fingerprint (scenario, churn
    model, policy, subsets, replacement budget — everything that
    shapes a cell's records beyond its world digest), the compliance
    standard's identifying inputs, and the ``repro`` sources, so a row
    computed by different code is a miss. ``directory`` defaults to
    memory-only; pass the panel store root to persist rows next to the
    wave CAS.
    """
    from repro.runtime import cache as result_cache

    return WaveRowCache(
        content_digest({
            "code": result_cache._code_digest(),
            "format": ROW_FORMAT_VERSION,
            "kind": "wave-analysis-rows",
            "panel": campaign.fingerprint,
            "survey_seed": campaign.world.config.seed,
        }),
        directory=directory,
    )


# ----------------------------------------------------------------------
# Wave analysis: incremental, and the full-recompute oracle
# ----------------------------------------------------------------------

def wave_analysis(outcome: "WaveOutcome",
                  cache: WaveRowCache | None = None,
                  standard: ComplianceStandard | None = None) -> WaveAnalysis:
    """One wave's audit aggregations, folded from per-cell rows.

    With a ``cache``, rows for cells whose digest is already cached
    (unchanged since a prior wave, or a resumed panel's persisted
    rows) are folded without touching their records; only churned
    cells pay the row computation. Without one, every row is computed
    fresh — same result, full price.

    A custom ``standard`` cannot be combined with a ``cache``: the
    cache namespace (:func:`row_cache_for`) digests only the default
    standard's inputs, so rows computed under a different standard
    would be silently exchanged — wrong compliance rates with no
    error. Analyze custom standards cache-less.
    """
    if standard is not None and cache is not None:
        raise ValueError(
            "a custom compliance standard cannot be combined with a row "
            "cache; the cache namespace is keyed by the default "
            "(survey-seeded) standard only")
    if standard is None:
        standard = standard_for_seed(outcome.world.config.seed)
    q12_rows: list[dict] = []
    for cell, digest in outcome.digests.q12.items():
        hit, row = (cache.lookup("q12", digest) if cache is not None
                    else (False, None))
        if not hit:
            row = q12_cell_row(
                cell, outcome.cells.q12_records[cell],
                outcome.collection.cbg_totals[(cell.isp_id, cell.cbg)],
                standard)
            if cache is not None:
                cache.put("q12", digest, row)
        if row is not None:
            q12_rows.append(row)
    q3_rows: list[dict] = []
    for block, digest in outcome.digests.q3.items():
        hit, row = (cache.lookup("q3", digest) if cache is not None
                    else (False, None))
        if not hit:
            row = q3_block_row(outcome.cells.q3_outcomes[block])
            if cache is not None:
                cache.put("q3", digest, row)
        q3_rows.append(row)
    return reduce_rows(q12_rows, q3_rows)


def full_wave_analysis(outcome: "WaveOutcome",
                       standard: ComplianceStandard | None = None,
                       ) -> WaveAnalysis:
    """The same aggregations recomputed from the entire merged logbook
    through :class:`~repro.core.audit.AuditDataset` — the oracle the
    incremental fold is proven byte-equal against, sharing none of the
    per-cell row machinery."""
    if standard is None:
        standard = standard_for_seed(outcome.world.config.seed)
    dataset = AuditDataset(
        outcome.collection.log, outcome.collection.cbg_totals,
        world=outcome.world, standard=standard)
    by_isp = {
        isp: {
            "serviceability": dataset.serviceability_rate(isp_id=isp),
            "compliance": dataset.compliance_rate(isp_id=isp),
        }
        for isp in sorted(dataset.isps())
    }
    mode_counts: dict[str, int] = {}
    for mode in outcome.q3.modes.values():
        mode_counts[mode] = mode_counts.get(mode, 0) + 1
    return WaveAnalysis(
        serviceability=dataset.serviceability_rate(),
        compliance=dataset.compliance_rate(),
        by_isp=by_isp,
        q12_cells=len(dataset.cbg_rates("served")),
        q12_queried=len(dataset),
        q3_analyzed_blocks=len(outcome.q3.analyzed_blocks),
        q3_records=len(outcome.q3.log),
        q3_mode_counts=dict(sorted(mode_counts.items())),
    )
