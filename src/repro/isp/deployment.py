"""Ground-truth service assignment.

:class:`GroundTruth` stores, for each (ISP, address) pair, whether the
ISP actually serves the address and which plans its website would show
there. Truth is drawn per cell:

1. :func:`sample_service_truth` covers Q1/Q2 — each CAF-certified
   address is resolved against the certifying ISP's profile
   (serviceability by density, then a tier draw conditional on being
   served). :func:`build_ground_truth` applies it to a whole footprint.
2. The Q3 world builder (:mod:`repro.synth.world`) overrides truths in
   the Q3 study blocks with block-coherent speeds so within-block
   comparisons have the paper's outcome structure.

A world's :class:`GroundTruth` is lazy: it is handed the world's cell
index, and a lookup that misses materializes the pair's owning cell
before answering. The BQT website simulators consult this object —
never the profiles directly — so the querying layer and the generative
layer stay decoupled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.addresses.models import StreetAddress
from repro.geo.entities import BlockGroup
from repro.isp.plans import BroadbandPlan, UNSERVED_LABEL
from repro.isp.profiles import IspProfile
from repro.stats.distributions import stable_rng

__all__ = ["ServiceTruth", "GroundTruth", "build_ground_truth"]

UNSERVED_TRUTH_LABEL = UNSERVED_LABEL


@dataclass(frozen=True)
class ServiceTruth:
    """The true service state of one (ISP, address) pair."""

    serves: bool
    plans: tuple[BroadbandPlan, ...] = ()
    existing_subscriber: bool = False
    tier_label: str = UNSERVED_TRUTH_LABEL

    def __post_init__(self) -> None:
        if not self.serves and self.plans:
            raise ValueError("an unserved address cannot have plans")
        if not self.serves and self.existing_subscriber:
            raise ValueError("an unserved address cannot have a subscriber")

    @property
    def max_download_mbps(self) -> float:
        """Highest guaranteed advertised download speed (0 if none)."""
        guaranteed = [p.download_mbps for p in self.plans if p.is_speed_guaranteed]
        return max(guaranteed, default=0.0)

    @property
    def best_plan(self) -> BroadbandPlan | None:
        """The advertised plan with the highest download speed."""
        if not self.plans:
            return None
        return max(self.plans, key=lambda plan: plan.download_mbps)


UNSERVED = ServiceTruth(serves=False)


class GroundTruth:
    """Map of (isp_id, address_id) → :class:`ServiceTruth`.

    Without ``cells`` this is a plain mutable map. With them (a world's
    cell index: ``realize_pair(isp_id, address_id)`` and
    ``realize_all()``), :meth:`truth_for` materializes the owning cell
    on a miss, and the whole-map views (:meth:`pairs`, ``len``)
    materialize every cell first. Cells arrive through :meth:`publish`,
    one ``dict.update`` each, so a reader never sees part of a cell;
    :meth:`seal` ends the lazy phase once every cell is in.
    """

    def __init__(self, cells=None) -> None:
        self._truths: dict[tuple[str, str], ServiceTruth] = {}
        self._cells = cells

    def __len__(self) -> int:
        self._realize_all()
        return len(self._truths)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        """True when a truth is recorded for ``pair`` (never materializes)."""
        return pair in self._truths

    def set_truth(self, isp_id: str, address_id: str, truth: ServiceTruth) -> None:
        """Record the truth for one pair (overwrites silently)."""
        self._truths[(isp_id, address_id)] = truth

    def publish(self, truths: Mapping[tuple[str, str], ServiceTruth]) -> None:
        """Record one materialized cell's truths in a single update."""
        self._truths.update(truths)

    def seal(self, pairs: Iterable[tuple[str, str]]) -> None:
        """Every cell is published: re-key the map in ``pairs`` order
        (every recorded pair, once) and stop consulting the cells."""
        self._truths = {pair: self._truths[pair] for pair in pairs}
        self._cells = None

    def truth_for(self, isp_id: str, address_id: str) -> ServiceTruth:
        """Return the recorded truth, or the unserved default."""
        truth = self._truths.get((isp_id, address_id))
        if truth is None:
            if self._cells is None:
                return UNSERVED
            self._cells.realize_pair(isp_id, address_id)
            truth = self._truths.get((isp_id, address_id), UNSERVED)
        return truth

    def serves(self, isp_id: str, address_id: str) -> bool:
        """True when the ISP genuinely serves the address."""
        return self.truth_for(isp_id, address_id).serves

    def pairs(self) -> Iterable[tuple[str, str]]:
        """All recorded (isp_id, address_id) pairs."""
        self._realize_all()
        return self._truths.keys()

    def _realize_all(self) -> None:
        if self._cells is not None:
            self._cells.realize_all()


def sample_service_truth(
    profile: IspProfile,
    address: StreetAddress,
    block_group: BlockGroup,
    seed: int,
) -> ServiceTruth:
    """Draw one address's truth from an ISP profile.

    Deterministic per (seed, isp, address): re-running the world builder
    yields the same truth regardless of call order.
    """
    rng = stable_rng(seed, "truth", profile.isp_id, address.address_id)
    probability = profile.serviceability_probability(
        address.state_abbreviation, block_group.population_density
    )
    if rng.random() >= probability:
        return UNSERVED
    label = profile.sample_tier_label(rng)
    top_plan = profile.make_plan(label, rng)
    if top_plan is None:
        # "Unknown Plan": an active subscriber exists but the site
        # displays no tiers (Frontier, Section 4.2).
        return ServiceTruth(
            serves=True, plans=(), existing_subscriber=True, tier_label=label
        )
    plans = tuple(profile.lower_tier_plans(top_plan, rng)) + (top_plan,)
    existing = bool(rng.random() < 0.08)
    return ServiceTruth(
        serves=True,
        plans=plans,
        existing_subscriber=existing,
        tier_label=top_plan.tier_label,
    )


def build_ground_truth(
    certified: Mapping[str, list[StreetAddress]],
    block_groups: Mapping[str, BlockGroup],
    profiles: Mapping[str, IspProfile],
    seed: int = 0,
) -> GroundTruth:
    """Populate a :class:`GroundTruth` for certified CAF addresses.

    ``certified`` maps isp_id → the addresses that ISP certified to
    USAC; ``block_groups`` indexes CBG GEOID → entity for density
    lookups.
    """
    truth = GroundTruth()
    for isp_id, addresses in certified.items():
        profile = profiles[isp_id]
        for address in addresses:
            block_group = block_groups.get(address.block_group_geoid)
            if block_group is None:
                raise KeyError(
                    f"address {address.address_id} references unknown CBG "
                    f"{address.block_group_geoid}"
                )
            truth.set_truth(
                isp_id,
                address.address_id,
                sample_service_truth(profile, address, block_group, seed),
            )
    return truth
