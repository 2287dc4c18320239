"""Per-cell world digests: what a wave must re-query, cell by cell.

A campaign cell's record stream is deterministic in three inputs: the
world seed, the cell's addresses (static across waves — churn shares
geography and certification), and the ground truth at those addresses
(what the storefront will show). The first two never change between
panel waves, so hashing the third *per cell* yields a content address
with the property the delta planner needs:

    digest(wave k, cell) == digest(wave k-1, cell)
        ⟹  the cell's records at wave k are byte-identical to wave k-1

and the prior wave's logbook can be replayed instead of re-queried.
The digests deliberately cover the *whole* cell's truth — selected,
reserve, and unsampled addresses alike — because replacement draws can
reach any reserve address; over-approximating "changed" costs a
redundant re-query, never a stale replay.

Serialization reuses the :mod:`repro.codec` plan JSON, whose floats
round-trip by shortest ``repr`` — so digest equality really is truth
equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codec import plan_to_json
from repro.core.collection import q3_block_candidates
from repro.isp.deployment import ServiceTruth
from repro.runtime.cache import content_digest
from repro.runtime.shards import DEFAULT_ISPS, Q12Cell, enumerate_q12_cells
from repro.synth.world import World

__all__ = [
    "DeltaPlan",
    "WaveDigests",
    "compute_wave_digests",
    "diff_digests",
    "q12_cell_digest",
    "q3_block_digest",
]


def _truth_digest_payload(truth: ServiceTruth) -> dict:
    # One-way by design: this feeds content_digest, nothing decodes it
    # (hence not named *_to_json — there is deliberately no inverse).
    return {
        "serves": truth.serves,
        "plans": [plan_to_json(plan) for plan in truth.plans],
        "existing_subscriber": truth.existing_subscriber,
        "tier_label": truth.tier_label,
    }


def q12_cell_digest(world: World, cell: Q12Cell, addresses=None) -> str:
    """Content address of one Q1/Q2 cell's query-relevant world state.

    ``addresses`` (the cell's CAF addresses, in canonical order) may be
    passed to amortize the per-(ISP, state) grouping across a state's
    cells; it defaults to the world's own lookup.
    """
    if addresses is None:
        addresses = world.caf_addresses_by_cbg(
            cell.isp_id, cell.state)[cell.cbg]
    truth = world.ground_truth
    payload = {
        "isp": cell.isp_id,
        "cbg": cell.cbg,
        "truths": [
            [address.address_id,
             _truth_digest_payload(truth.truth_for(cell.isp_id, address.address_id))]
            for address in addresses
        ],
    }
    return content_digest(payload)


def q3_block_digest(world: World, block_geoid: str) -> str:
    """Content address of one Q3 block's query-relevant world state.

    Covers the incumbent's truth at every CAF and non-CAF address in
    the block, and the cable ISP's truth at the non-CAF addresses —
    exactly the pairs :func:`repro.core.collection.run_q3_block` can
    query.
    """
    competition = world.block_competition[block_geoid]
    incumbent = competition.incumbent_isp_id
    cable = competition.cable_isp_id
    caf = world.caf_addresses_in_block(incumbent, block_geoid)
    non_caf = world.zillow.non_caf_in_block(block_geoid)
    truth = world.ground_truth
    payload = {
        "block": block_geoid,
        "incumbent": incumbent,
        "cable": cable,
        "incumbent_truths": [
            [address.address_id,
             _truth_digest_payload(truth.truth_for(incumbent, address.address_id))]
            for address in (*caf, *non_caf)
        ],
        "cable_truths": [
            [address.address_id,
             _truth_digest_payload(truth.truth_for(cable, address.address_id))]
            for address in non_caf
        ] if cable is not None else [],
    }
    return content_digest(payload)


@dataclass
class WaveDigests:
    """One wave's per-cell digests, keyed in canonical campaign order."""

    q12: dict[Q12Cell, str] = field(default_factory=dict)
    q3: dict[str, str] = field(default_factory=dict)

    @property
    def total_cells(self) -> int:
        return len(self.q12) + len(self.q3)


def compute_wave_digests(
    world: World,
    isps: tuple[str, ...] = DEFAULT_ISPS,
    states: tuple[str, ...] | None = None,
    q3_states: tuple[str, ...] | None = None,
) -> WaveDigests:
    """Digest every campaign cell of ``world``, in canonical order."""
    digests = WaveDigests()
    grouped: dict[tuple[str, str], dict] = {}
    for cell in enumerate_q12_cells(world, isps=isps, states=states):
        key = (cell.isp_id, cell.state)
        if key not in grouped:
            grouped[key] = world.caf_addresses_by_cbg(*key)
        digests.q12[cell] = q12_cell_digest(world, cell,
                                            grouped[key][cell.cbg])
    for block_geoid in q3_block_candidates(world, states=q3_states):
        digests.q3[block_geoid] = q3_block_digest(world, block_geoid)
    return digests


@dataclass(frozen=True)
class DeltaPlan:
    """What one wave must re-query vs replay, in canonical order."""

    changed_q12: tuple[Q12Cell, ...]
    changed_q3: tuple[str, ...]
    total_q12: int
    total_q3: int

    @property
    def replayed_q12(self) -> int:
        return self.total_q12 - len(self.changed_q12)

    @property
    def replayed_q3(self) -> int:
        return self.total_q3 - len(self.changed_q3)

    @property
    def requery_fraction(self) -> float:
        """Share of all cells this wave re-queries (1.0 = from scratch)."""
        total = self.total_q12 + self.total_q3
        if total == 0:
            return 0.0
        return (len(self.changed_q12) + len(self.changed_q3)) / total

    @property
    def is_empty(self) -> bool:
        return not self.changed_q12 and not self.changed_q3


def diff_digests(prior: WaveDigests | None,
                 current: WaveDigests) -> DeltaPlan:
    """Plan the delta collection: cells whose digest moved since
    ``prior`` (or every cell, when there is no prior wave)."""
    if prior is None:
        changed_q12 = tuple(current.q12)
        changed_q3 = tuple(current.q3)
    else:
        changed_q12 = tuple(cell for cell, digest in current.q12.items()
                            if prior.q12.get(cell) != digest)
        changed_q3 = tuple(block for block, digest in current.q3.items()
                           if prior.q3.get(block) != digest)
    return DeltaPlan(
        changed_q12=changed_q12,
        changed_q3=changed_q3,
        total_q12=len(current.q12),
        total_q3=len(current.q3),
    )
