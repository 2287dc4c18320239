"""The record codec: the one JSON form of plans, records, cells and shards.

The paper's evidence is a log of BQT query records, one per address
and ISP. Those records cross five durable or wire boundaries — shard
checkpoint files, distributed result frames, service journal entries,
the panel cell CAS, and the sealed logbook digest — and every one of
them speaks the JSON defined here, so the format lives in exactly one
place.

The round-trip is exact: enums travel by value and floats by
shortest-round-trip ``repr``, so decoding what was encoded rebuilds
bit-identical records. That is what lets a resumed, distributed or
replayed campaign merge byte-for-byte like an uninterrupted serial
one. Digests are taken over these payloads
(:func:`~repro.runtime.cache.content_digest`), so any change to the
bytes below orphans every stored checkpoint, journal entry and CAS
cell.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING, Iterable

from repro.bqt.errors import ErrorCategory
from repro.bqt.logbook import QueryRecord
from repro.bqt.responses import QueryStatus
from repro.core.collection import Q3BlockOutcome
from repro.isp.plans import BroadbandPlan
from repro.runtime.cache import content_digest
from repro.runtime.shards import Q12Cell, ShardSpec
from repro.synth.scenario import ScenarioConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.executor import ShardResult

__all__ = [
    "logbook_digest",
    "plan_from_json",
    "plan_to_json",
    "q12_cell_from_json",
    "q12_cell_to_json",
    "q3_block_from_json",
    "q3_block_to_json",
    "record_from_json",
    "record_to_json",
    "scenario_from_json",
    "scenario_to_json",
    "shard_from_json",
    "shard_to_json",
    "spec_from_json",
    "spec_to_json",
]


# ----------------------------------------------------------------------
# Plans and records
# ----------------------------------------------------------------------

def plan_to_json(plan: BroadbandPlan) -> dict:
    return {
        "name": plan.name,
        "download_mbps": plan.download_mbps,
        "upload_mbps": plan.upload_mbps,
        "monthly_price_usd": plan.monthly_price_usd,
        "technology": plan.technology,
        "is_speed_guaranteed": plan.is_speed_guaranteed,
    }


def plan_from_json(data: dict) -> BroadbandPlan:
    return BroadbandPlan(**data)


def record_to_json(record: QueryRecord) -> dict:
    return {
        "isp_id": record.isp_id,
        "address_id": record.address_id,
        "block_geoid": record.block_geoid,
        "state_abbreviation": record.state_abbreviation,
        "status": record.status.value,
        "plans": [plan_to_json(plan) for plan in record.plans],
        "error_category": (record.error_category.value
                           if record.error_category else None),
        "attempts": record.attempts,
        "elapsed_seconds": record.elapsed_seconds,
        "replacement_for": record.replacement_for,
    }


def record_from_json(data: dict) -> QueryRecord:
    return QueryRecord(
        isp_id=data["isp_id"],
        address_id=data["address_id"],
        block_geoid=data["block_geoid"],
        state_abbreviation=data["state_abbreviation"],
        status=QueryStatus(data["status"]),
        plans=tuple(plan_from_json(p) for p in data["plans"]),
        error_category=(ErrorCategory(data["error_category"])
                        if data["error_category"] else None),
        attempts=data["attempts"],
        elapsed_seconds=data["elapsed_seconds"],
        replacement_for=data["replacement_for"],
    )


def logbook_digest(q12_log: Iterable[QueryRecord],
                   q3_log: Iterable[QueryRecord]) -> str:
    """The digest a sealed campaign's merged logbooks are known by."""
    return content_digest({
        "q12": [record_to_json(r) for r in q12_log],
        "q3": [record_to_json(r) for r in q3_log],
    })


# ----------------------------------------------------------------------
# Cells: one Q1/Q2 cell's record stream, one Q3 block's outcome
# ----------------------------------------------------------------------

def q12_cell_to_json(cell: Q12Cell, records) -> dict:
    return {
        "isp_id": cell.isp_id,
        "state": cell.state,
        "cbg": cell.cbg,
        "records": [record_to_json(r) for r in records],
    }


def q12_cell_from_json(
        data: dict) -> tuple[Q12Cell, tuple[QueryRecord, ...]]:
    cell = Q12Cell(isp_id=data["isp_id"], state=data["state"],
                   cbg=data["cbg"])
    return cell, tuple(record_from_json(r) for r in data["records"])


def q3_block_to_json(block: str, outcome: Q3BlockOutcome | None) -> dict:
    return {
        "block_geoid": block,
        "outcome": None if outcome is None else {
            "incumbent_isp_id": outcome.incumbent_isp_id,
            "records": [record_to_json(r) for r in outcome.records],
            "modes": outcome.modes,
        },
    }


def q3_block_from_json(data: dict) -> tuple[str, Q3BlockOutcome | None]:
    block = data["block_geoid"]
    outcome = data["outcome"]
    if outcome is None:
        return block, None
    return block, Q3BlockOutcome(
        block_geoid=block,
        incumbent_isp_id=outcome["incumbent_isp_id"],
        records=tuple(record_from_json(r) for r in outcome["records"]),
        modes=dict(outcome["modes"]),
    )


# ----------------------------------------------------------------------
# Shards
# ----------------------------------------------------------------------

def shard_to_json(result: "ShardResult") -> dict:
    return {
        "index": result.index,
        "count": result.count,
        "q12": [q12_cell_to_json(cell, records)
                for cell, records in result.q12_records.items()],
        "q3": [q3_block_to_json(block, outcome)
               for block, outcome in result.q3_outcomes.items()],
    }


def shard_from_json(data: dict) -> "ShardResult":
    from repro.runtime.executor import ShardResult

    result = ShardResult(index=data["index"], count=data["count"])
    for entry in data["q12"]:
        cell, records = q12_cell_from_json(entry)
        result.q12_records[cell] = records
    for entry in data["q3"]:
        block, outcome = q3_block_from_json(entry)
        result.q3_outcomes[block] = outcome
    return result


# ----------------------------------------------------------------------
# Scenarios and shard specs (what a distributed lease carries)
# ----------------------------------------------------------------------

def scenario_to_json(scenario) -> dict:
    """Inverse of :func:`scenario_from_json`.

    ``asdict`` recurses through ``WaveScenario.base`` / ``.model``
    exactly the way the decoder rebuilds them; tuples become JSON
    arrays, which the decoder re-tuples.
    """
    return asdict(scenario)


def scenario_from_json(data: dict):
    if "base" in data:
        # A longitudinal wave recipe: base scenario + churn model +
        # horizon (repro.synth.churn.WaveScenario). Workers realize it
        # instead of building the base world.
        from repro.synth.churn import ChurnModel, WaveScenario

        return WaveScenario(
            base=scenario_from_json(data["base"]),
            years=data["years"],
            model=ChurnModel(**data["model"]),
        )
    data = dict(data)
    for key in ("states", "q3_states", "non_caf_fraction_range"):
        data[key] = tuple(data[key])
    return ScenarioConfig(**data)


def spec_to_json(spec: ShardSpec) -> dict:
    return {
        "index": spec.index,
        "count": spec.count,
        "q12_cells": [[c.isp_id, c.state, c.cbg] for c in spec.q12_cells],
        "q3_blocks": list(spec.q3_blocks),
    }


def spec_from_json(data: dict) -> ShardSpec:
    return ShardSpec(
        index=data["index"],
        count=data["count"],
        q12_cells=tuple(Q12Cell(isp_id=isp, state=state, cbg=cbg)
                        for isp, state, cbg in data["q12_cells"]),
        q3_blocks=tuple(data["q3_blocks"]),
    )
