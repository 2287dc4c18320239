"""Construction of one coherent synthetic study universe.

``build_world`` runs these passes, all deterministic in the scenario
seed:

1. **Geography** — a synthetic :class:`~repro.geo.entities
   .StateGeography` per study state, sized to host the state's CAF
   footprint.
2. **Certification** — each (state, ISP) cell of Table 3's footprint is
   expanded into CAF street addresses spread over disjoint CBGs with
   the Figure 1c size distribution, certified through the HUBB portal,
   and funded in the disbursement ledger.
3. **Q3 classification** — in the seven Q3 states, every CAF census
   block gets a competition classification (monopoly-only / cable
   overlap / non-BQT provider present) and its Form 477 and National
   Broadband Map records.
4. **Websites** — the six BQT storefront simulators wired to truth.

Everything else is a memoized cell of :class:`WorldCells`, built on
first lookup rather than by ``build_world``:

* **Ground truth (Q1/Q2)** — a CAF address outside the Q3 states is its
  own cell: its service truth drawn from the calibrated ISP profile.
* **Q3 structure** — a Q3 ``(isp, block)`` is one cell: the block's CAF
  truths, then competition spillover and plan homogenization, non-CAF
  (Zillow) neighbors, and block-coherent incumbent (and cable) speeds
  at those neighbors whose relation to the block's CAF average follows
  the paper's Figure 4a/5a outcome shares.

Every cell replays its own ``stable_rng`` streams, so a world's values
do not depend on which cells were looked up, or in what order; a
forked process-pool worker builds only the cells its shards query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from repro.addresses.generator import AddressGenerator, parse_address_id
from repro.addresses.models import StreetAddress
from repro.addresses.zillow import ZillowFeed
from repro.bqt.engine import BqtEngine, EngineConfig
from repro.bqt.proxy import ProxyPool
from repro.bqt.websites import IspWebsite, build_website
from repro.fcc.broadband_map import BroadbandMap, FabricRecord
from repro.fcc.form477 import AvailabilityRecord, Form477
from repro.geo.entities import BlockGroup, CensusBlock, StateGeography
from repro.geo.fips import state_by_abbreviation
from repro.geo.generator import GeographyConfig, generate_state_geography
from repro.isp.deployment import (
    GroundTruth,
    ServiceTruth,
    sample_service_truth,
)
from repro.isp.plans import BroadbandPlan
from repro.isp.profiles import PROFILES, profile_for
from repro.stats.distributions import allocate_counts, lognormal_sizes, stable_rng
from repro.synth.calibration import (
    COMPETITION_OVERLAP_PROBABILITY,
    NON_BQT_PROVIDER_PROBABILITY,
    PCT_INCREASE_WHEN_CAF_WINS,
    PCT_INCREASE_WHEN_COMPETITION_WINS,
    PCT_INCREASE_WHEN_MONOPOLY_WINS,
    Q3OutcomeShares,
    TABLE3_QUERIED_ADDRESSES,
    TYPE_A_SHARES,
    TYPE_B_SHARES,
)
from repro.synth.scenario import ScenarioConfig
from repro.usac.dataset import CafMapDataset
from repro.usac.disbursements import Disbursement, DisbursementLedger
from repro.usac.generator import certified_speed_for
from repro.usac.hubb import CertificationBatch, HubbPortal
from repro.usac.schema import DeploymentRecord

__all__ = ["World", "BlockCompetition", "WorldCells", "build_world"]

CABLE_ISPS = ("xfinity", "spectrum")


@dataclass(frozen=True)
class BlockCompetition:
    """Q3 classification of one CAF census block."""

    block_geoid: str
    incumbent_isp_id: str
    # "monopoly" (Type A candidate), "overlap_full" (Type B candidate),
    # "overlap_partial" (Type C candidate), "non_bqt" (filtered out).
    kind: str
    cable_isp_id: str | None = None

    def __post_init__(self) -> None:
        kinds = ("monopoly", "overlap_full", "overlap_partial", "non_bqt")
        if self.kind not in kinds:
            raise ValueError(f"kind must be one of {kinds}")
        if self.kind.startswith("overlap") and self.cable_isp_id is None:
            raise ValueError("overlap blocks need a cable ISP")


@dataclass
class World:
    """Everything the data-collection pipeline runs against.

    ``ground_truth`` and ``zillow`` are lazy views over the world's
    :class:`WorldCells`: each cell is built on its first lookup.
    """

    config: ScenarioConfig
    geographies: dict[str, StateGeography]
    block_groups: dict[str, BlockGroup] = field(repr=False)
    blocks: dict[str, CensusBlock] = field(repr=False)
    hubb: HubbPortal = field(repr=False)
    ledger: DisbursementLedger = field(repr=False)
    caf_addresses: dict[str, StreetAddress] = field(repr=False)
    caf_by_isp_state: dict[tuple[str, str], list[StreetAddress]] = field(repr=False)
    zillow: ZillowFeed = field(repr=False)
    ground_truth: GroundTruth = field(repr=False)
    form477: Form477 = field(repr=False)
    broadband_map: BroadbandMap = field(repr=False)
    block_competition: dict[str, BlockCompetition] = field(repr=False)
    websites: dict[str, IspWebsite] = field(repr=False)

    @property
    def caf_map(self) -> CafMapDataset:
        """The USAC CAF Map assembled from the HUBB filings."""
        return self.hubb.caf_map

    def engine_for(
        self,
        isp_id: str,
        engine_config: EngineConfig | None = None,
        proxy_pool: ProxyPool | None = None,
    ) -> BqtEngine:
        """A fresh BQT engine against one ISP's website."""
        if isp_id not in self.websites:
            raise KeyError(f"no website for ISP {isp_id!r}")
        return BqtEngine(
            self.websites[isp_id],
            proxy_pool=proxy_pool or ProxyPool(seed=self.config.seed),
            config=engine_config,
            seed=self.config.seed,
        )

    def caf_addresses_by_cbg(
        self, isp_id: str, state: str
    ) -> dict[str, list[StreetAddress]]:
        """The ISP's certified addresses in a state, grouped by CBG."""
        grouped: dict[str, list[StreetAddress]] = {}
        for address in self.caf_by_isp_state.get((isp_id, state), []):
            grouped.setdefault(address.block_group_geoid, []).append(address)
        return grouped

    def caf_addresses_in_block(self, isp_id: str, block_geoid: str) -> list[StreetAddress]:
        """The incumbent's certified addresses in one census block."""
        competition = self.block_competition.get(block_geoid)
        if competition is None or competition.incumbent_isp_id != isp_id:
            return []
        return [
            self.caf_addresses[record.address_id]
            for record in self.caf_map.in_block(block_geoid)
            if record.isp_id == isp_id
        ]


# ----------------------------------------------------------------------
# Pass 1+2: geography and certification
# ----------------------------------------------------------------------

def _cbg_sizes_for(
    config: ScenarioConfig, rng: np.random.Generator, total: int
) -> list[int]:
    """Split ``total`` addresses into CBG-sized chunks (Figure 1c)."""
    sizes: list[int] = []
    remaining = total
    while remaining > 0:
        size = int(lognormal_sizes(
            rng, 1, config.cbg_size_median, config.cbg_size_sigma,
            minimum=1, maximum=config.max_cbg_size,
        )[0])
        size = min(size, remaining)
        sizes.append(size)
        remaining -= size
    return sizes


def _build_state(
    config: ScenarioConfig,
    state_abbr: str,
    footprint: dict[str, int],
) -> tuple[StateGeography, dict[str, list[tuple[BlockGroup, int]]]]:
    """Generate one state's geography and the ISP → CBG allocation."""
    rng = stable_rng(config.seed, "world", state_abbr)
    per_isp_sizes = {
        isp_id: _cbg_sizes_for(
            config, stable_rng(config.seed, "world", state_abbr, isp_id),
            config.certified_count(state_abbr, count),
        )
        for isp_id, count in footprint.items()
    }
    total_cbgs = sum(len(sizes) for sizes in per_isp_sizes.values())
    # Scale the urban structure with the state: big, populous states get
    # more city kernels and wider density gradients, so CBGs in e.g.
    # California span the full density range of the paper's Figure 3.
    state = state_by_abbreviation(state_abbr)
    area = state.bounds.area_square_miles()
    geo_config = GeographyConfig(
        num_counties=max(1, math.ceil(total_cbgs / 12) + 1),
        blocks_per_block_group=config.blocks_per_cbg,
        num_cities=3 + round(state.population_millions / 10),
        decay_scale_miles=18.0 + math.sqrt(area) / 40.0,
    )
    geography = generate_state_geography(
        state_by_abbreviation(state_abbr), geo_config, seed=config.seed
    )
    available = list(geography.block_groups)
    order = rng.permutation(len(available))
    cursor = 0
    allocation: dict[str, list[tuple[BlockGroup, int]]] = {}
    for isp_id in sorted(per_isp_sizes):
        assigned = []
        for size in per_isp_sizes[isp_id]:
            block_group = available[int(order[cursor % len(order)])]
            cursor += 1
            assigned.append((block_group, size))
        allocation[isp_id] = assigned
    return geography, allocation


def _certify_state_isp(
    config: ScenarioConfig,
    state_abbr: str,
    isp_id: str,
    assignment: list[tuple[BlockGroup, int]],
    address_factory: AddressGenerator,
) -> tuple[list[StreetAddress], list[DeploymentRecord]]:
    """Generate one ISP's certified addresses and deployment records."""
    addresses: list[StreetAddress] = []
    records: list[DeploymentRecord] = []
    for block_group, cbg_count in assignment:
        rng = stable_rng(config.seed, "certify", isp_id, block_group.geoid)
        split = allocate_counts(
            cbg_count, rng.dirichlet(np.full(len(block_group.blocks), 0.6))
        )
        for block, block_count in zip(block_group.blocks, split):
            if block_count == 0:
                continue
            block_addresses = address_factory.generate_for_block(
                block, int(block_count), is_caf=True, namespace=f"caf-{isp_id}"
            )
            addresses.extend(block_addresses)
            for address in block_addresses:
                download, upload = certified_speed_for(isp_id, rng)
                records.append(DeploymentRecord(
                    address_id=address.address_id,
                    isp_id=isp_id,
                    state_abbreviation=state_abbr,
                    block_geoid=block.geoid,
                    longitude=address.location.longitude,
                    latitude=address.location.latitude,
                    households=1,
                    technology="fiber" if download >= 100 else "dsl",
                    certified_download_mbps=download,
                    certified_upload_mbps=upload,
                    certified_latency_ms=float(rng.uniform(20.0, 95.0)),
                ))
    return addresses, records


# ----------------------------------------------------------------------
# Q3 classification (eager) and block-coherent structure (per cell)
# ----------------------------------------------------------------------

def _delta_sampler(median: float, p80: float):
    """Lognormal fractional-improvement sampler hitting (median, p80)."""
    if median <= 0 or p80 <= median:
        raise ValueError("need 0 < median < p80")
    z80 = 0.8416212335729143  # standard-normal 80th percentile
    sigma = math.log(p80 / median) / z80
    mu = math.log(median)

    def sample(rng: np.random.Generator) -> float:
        return float(min(rng.lognormal(mean=mu, sigma=sigma), 10.0))

    return sample


_SAMPLE_CAF_WIN = _delta_sampler(*PCT_INCREASE_WHEN_CAF_WINS)
_SAMPLE_MONOPOLY_WIN = _delta_sampler(*PCT_INCREASE_WHEN_MONOPOLY_WINS)
_SAMPLE_COMPETITION_WIN = _delta_sampler(*PCT_INCREASE_WHEN_COMPETITION_WINS)


def _draw_outcome(shares: Q3OutcomeShares, rng: np.random.Generator) -> str:
    roll = rng.random()
    if roll < shares.tie:
        return "tie"
    if roll < shares.tie + shares.caf_better:
        return "caf"
    return "rival"


def _rival_speed(
    caf_speed: float,
    outcome: str,
    rng: np.random.Generator,
    win_sampler,
) -> float:
    """Incumbent's non-CAF-mode speed, given the block outcome."""
    if outcome == "tie":
        return caf_speed
    if outcome == "caf":
        return caf_speed / (1.0 + _SAMPLE_CAF_WIN(rng))
    return caf_speed * (1.0 + win_sampler(rng))


def _classify_block(
    incumbent: str, block: CensusBlock, rng: np.random.Generator
) -> BlockCompetition:
    roll = rng.random()
    if roll < NON_BQT_PROVIDER_PROBABILITY:
        return BlockCompetition(block.geoid, incumbent, "non_bqt")
    if roll < NON_BQT_PROVIDER_PROBABILITY + COMPETITION_OVERLAP_PROBABILITY:
        cable = CABLE_ISPS[int(rng.integers(len(CABLE_ISPS)))]
        kind = "overlap_full" if rng.random() < 0.85 else "overlap_partial"
        return BlockCompetition(block.geoid, incumbent, kind, cable_isp_id=cable)
    return BlockCompetition(block.geoid, incumbent, "monopoly")


def _incumbent_plan(
    isp_id: str, speed: float, rng: np.random.Generator
) -> BroadbandPlan:
    """A concrete plan for the incumbent at a given target speed."""
    profile = profile_for(isp_id)
    speed = max(speed, 0.5)
    return BroadbandPlan(
        name=f"{profile.info.name} {speed:.0f} Mbps",
        download_mbps=float(speed),
        upload_mbps=max(speed * profile.upload_ratio, 0.128),
        monthly_price_usd=profile.price_for_speed(speed, rng),
        technology="fiber" if speed >= 1000 else profile.info.primary_technology,
    )


def _block_caf_average(
    truth: dict[tuple[str, str], ServiceTruth],
    isp_id: str,
    addresses: list[StreetAddress],
) -> float:
    """Average advertised (marketing) speed over served CAF addresses."""
    speeds = []
    for address in addresses:
        state = truth[(isp_id, address.address_id)]
        best = state.best_plan
        if state.serves and best is not None:
            speeds.append(best.download_mbps)
    return float(np.mean(speeds)) if speeds else 0.0


def _record_availability(
    competition: BlockCompetition,
    form477: Form477,
    broadband_map: BroadbandMap,
) -> None:
    """File one Q3 block's Form 477 and Broadband Map records."""
    isp_id = competition.incumbent_isp_id
    block_geoid = competition.block_geoid
    incumbent_profile = profile_for(isp_id)
    form477.add(AvailabilityRecord(
        isp_id=isp_id,
        block_geoid=block_geoid,
        technology=incumbent_profile.info.primary_technology,
        max_download_mbps=100.0,
        max_upload_mbps=10.0,
    ))
    providers = [isp_id]
    if competition.cable_isp_id is not None:
        form477.add(AvailabilityRecord(
            isp_id=competition.cable_isp_id,
            block_geoid=block_geoid,
            technology="cable",
            max_download_mbps=1200.0,
            max_upload_mbps=35.0,
        ))
        providers.append(competition.cable_isp_id)
    if competition.kind == "non_bqt":
        form477.add(AvailabilityRecord(
            isp_id="smallisp-000",
            block_geoid=block_geoid,
            technology="fixed_wireless",
            max_download_mbps=25.0,
            max_upload_mbps=3.0,
        ))
        providers.append("smallisp-000")
    broadband_map.add(FabricRecord(
        location_id=f"fabric-{block_geoid}",
        block_geoid=block_geoid,
        provider_ids=tuple(providers),
    ))


def _q3_cell(
    config: ScenarioConfig,
    isp_id: str,
    block: CensusBlock,
    caf_here: list[StreetAddress],
    block_groups: dict[str, BlockGroup],
    address_factory: AddressGenerator,
) -> tuple[dict[tuple[str, str], ServiceTruth], list[StreetAddress]]:
    """Build one Q3 block: CAF truth, neighbors, coherent truth.

    Returns the cell's truths (the incumbent's at every CAF address, in
    ``caf_here`` order, then whatever it sets at the neighbors, in the
    order it sets them) and its Zillow neighbors. The block's ``q3`` stream is replayed from
    its start, re-drawing the classification ``build_world`` made, so
    every later draw is the one an uninterrupted pass would make.
    """
    rng = stable_rng(config.seed, "q3", isp_id, block.geoid)
    competition = _classify_block(isp_id, block, rng)
    profile = PROFILES[isp_id]
    truth = {
        (isp_id, address.address_id): sample_service_truth(
            profile, address, block_groups[address.block_group_geoid],
            config.seed)
        for address in caf_here
    }

    # Non-CAF (Zillow) neighbors.
    low, high = config.non_caf_fraction_range
    non_caf_count = max(
        config.min_non_caf_per_block,
        round(len(caf_here) * float(rng.uniform(low, high))),
    )
    neighbors = address_factory.generate_for_block(
        block, non_caf_count, is_caf=False, namespace="zillow"
    )

    if competition.kind == "non_bqt":
        # Filtered out of Q3; neighbors exist but get no special truth.
        return truth, neighbors

    # Competition spillover (Figure 6): in a share of overlap blocks the
    # incumbent upgrades its CAF plant well beyond Type A levels.
    if competition.kind.startswith("overlap") and rng.random() < 0.35:
        boost_speed = float(rng.uniform(100.0, 300.0))
        for address in caf_here:
            state = truth[(isp_id, address.address_id)]
            if state.serves and state.plans:
                truth[(isp_id, address.address_id)] = ServiceTruth(
                    serves=True,
                    plans=(_incumbent_plan(isp_id, boost_speed, rng),),
                    existing_subscriber=state.existing_subscriber,
                    tier_label=_incumbent_plan(isp_id, boost_speed, rng).tier_label,
                )

    # Homogenize the incumbent's plans across the block's served CAF
    # addresses: a real storefront offers one plan set per plant
    # segment, which is what makes the paper's 55% exact-tie outcomes
    # possible. Without this, per-address tier draws make the measured
    # block average drift with query dropouts and ties dissolve.
    representative: tuple[BroadbandPlan, ...] | None = None
    for address in caf_here:
        state = truth[(isp_id, address.address_id)]
        if state.serves and state.plans:
            representative = state.plans
            break
    if representative is not None:
        for address in caf_here:
            state = truth[(isp_id, address.address_id)]
            if state.serves and state.plans and state.plans != representative:
                best = max(representative, key=lambda p: p.download_mbps)
                truth[(isp_id, address.address_id)] = ServiceTruth(
                    serves=True,
                    plans=representative,
                    existing_subscriber=state.existing_subscriber,
                    tier_label=best.tier_label,
                )

    caf_average = _block_caf_average(truth, isp_id, caf_here)
    if caf_average <= 0:
        # No served CAF address with a visible plan: the analysis will
        # drop the block, but neighbors still need plausible truth.
        caf_average = 10.0

    # Split neighbors into incumbent modes.
    if competition.kind == "monopoly":
        modes = {"monopoly": neighbors}
    elif competition.kind == "overlap_full":
        modes = {"competition": neighbors}
    else:  # overlap_partial → Type C: periphery competitive, core not.
        half = max(1, len(neighbors) // 2)
        modes = {"competition": neighbors[:half], "monopoly": neighbors[half:]}

    for mode, mode_addresses in modes.items():
        if not mode_addresses:
            continue
        if mode == "monopoly":
            outcome = _draw_outcome(TYPE_A_SHARES, rng)
            speed = _rival_speed(caf_average, outcome, rng, _SAMPLE_MONOPOLY_WIN)
        else:
            outcome = _draw_outcome(TYPE_B_SHARES, rng)
            speed = _rival_speed(caf_average, outcome, rng, _SAMPLE_COMPETITION_WIN)
        if outcome == "tie" and representative is not None:
            # A genuine tie means the storefront shows the *same* plan
            # set to CAF and non-CAF neighbors — identical speeds AND
            # prices, so ties survive under the carriage-value metric
            # too (§4.3 observed "similar trends" with carriage).
            plans = representative
            best = max(plans, key=lambda p: p.download_mbps)
        else:
            plan = _incumbent_plan(isp_id, speed, rng)
            plans = (plan,)
            best = plan
        for address in mode_addresses:
            if rng.random() < 0.92:
                truth[(isp_id, address.address_id)] = ServiceTruth(
                    serves=True, plans=plans, tier_label=best.tier_label,
                )
            # else: the incumbent does not serve this neighbor.
        if mode == "competition" and competition.cable_isp_id is not None:
            cable_profile = profile_for(competition.cable_isp_id)
            for address in mode_addresses:
                cable_rng = stable_rng(
                    config.seed, "cable", competition.cable_isp_id,
                    address.address_id,
                )
                if cable_rng.random() < cable_profile.base_serviceability:
                    label = cable_profile.sample_tier_label(cable_rng)
                    cable_plan = cable_profile.make_plan(label, cable_rng)
                    if cable_plan is not None:
                        truth[(competition.cable_isp_id, address.address_id)] = \
                            ServiceTruth(serves=True, plans=(cable_plan,),
                                         tier_label=cable_plan.tier_label)
    return truth, neighbors


# ----------------------------------------------------------------------
# Lazy cells: ground truth and Q3 structure
# ----------------------------------------------------------------------

class WorldCells:
    """The cell index behind a world's lazy truth and Zillow feed.

    Cells are memoized, each built on its first lookup:

    * a CAF address outside the Q3 states is one cell, keyed by its
      certifying ISP and itself;
    * a Q3 block is one cell (:func:`_q3_cell`); it owns every pair on
      every address in the block.

    A cell is computed into a local map and published to
    :attr:`truth` (and its neighbors to :attr:`zillow`) in one update,
    so a reader never sees a CAF truth before its Q3 override. Two
    threads racing on one cell compute and publish the same values.
    :meth:`realize_all` materializes the rest and seals both views in
    the order an all-at-once build produces, whatever was realized
    first. Plain data and no closures, so it pickles with its world.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        address_factory: AddressGenerator,
        block_groups: dict[str, BlockGroup],
        blocks: dict[str, CensusBlock],
        caf_addresses: dict[str, StreetAddress],
        caf_by_isp_state: dict[tuple[str, str], list[StreetAddress]],
        incumbents: dict[str, str],
        caf_by_block: dict[str, list[StreetAddress]],
    ) -> None:
        self._config = config
        self._address_factory = address_factory
        self._block_groups = block_groups
        self._blocks = blocks
        self._caf_addresses = caf_addresses
        self._caf_by_isp_state = caf_by_isp_state
        # Q3 block → incumbent, in sorted (isp, block) order.
        self._incumbents = incumbents
        self._caf_by_block = caf_by_block
        self._pending = set(incumbents)
        # Realized Q3 block → the pairs it set at its neighbors, in order.
        self._neighbor_pairs: dict[str, tuple[tuple[str, str], ...]] = {}
        self.truth = GroundTruth(cells=self)
        self.zillow = ZillowFeed(cells=self)

    def realize_pair(self, isp_id: str, address_id: str) -> None:
        """Materialize the cell that owns ``(isp_id, address_id)``."""
        parsed = parse_address_id(address_id)
        if parsed is None:
            return
        namespace, block_geoid = parsed
        if block_geoid in self._pending:
            self.realize_block(block_geoid)
            return
        address = self._caf_addresses.get(address_id)
        if address is not None and namespace == f"caf-{isp_id}":
            # Q3-state CAF pairs are set with their block, so a miss
            # here is a per-address cell outside the Q3 states.
            self.truth.publish(
                {(isp_id, address_id): self._caf_truth(isp_id, address)})

    def _caf_truth(self, isp_id: str, address: StreetAddress) -> ServiceTruth:
        return sample_service_truth(
            PROFILES[isp_id], address,
            self._block_groups[address.block_group_geoid], self._config.seed)

    def realize_block(self, block_geoid: str) -> None:
        """Materialize one Q3 block (a no-op for any other block)."""
        if block_geoid not in self._pending:
            return
        caf_here = self._caf_by_block[block_geoid]
        truth, neighbors = _q3_cell(
            self._config, self._incumbents[block_geoid],
            self._blocks[block_geoid], caf_here,
            self._block_groups, self._address_factory)
        self._neighbor_pairs[block_geoid] = tuple(
            islice(truth, len(caf_here), None))
        self.truth.publish(truth)
        self.zillow.publish(block_geoid, neighbors)
        self._pending.discard(block_geoid)

    def realize_all(self) -> None:
        """Materialize every cell, then seal both views canonically:
        CAF truths in certification order, then each Q3 block's
        neighbor truths and addresses in sorted (isp, block) order."""
        for block_geoid in self._incumbents:
            self.realize_block(block_geoid)
        caf_pairs: list[tuple[str, str]] = []
        missing: dict[tuple[str, str], ServiceTruth] = {}
        for (isp_id, _state), addresses in self._caf_by_isp_state.items():
            for address in addresses:
                pair = (isp_id, address.address_id)
                caf_pairs.append(pair)
                if pair not in self.truth:
                    missing[pair] = self._caf_truth(isp_id, address)
        self.truth.publish(missing)
        self.truth.seal(chain(caf_pairs, *(
            self._neighbor_pairs[block_geoid]
            for block_geoid in self._incumbents)))
        self.zillow.seal(self._incumbents)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def build_world(config: ScenarioConfig | None = None) -> World:
    """Build the synthetic universe for a scenario (truth and Q3
    structure materialize per cell, on first lookup)."""
    config = config or ScenarioConfig()
    address_factory = AddressGenerator(seed=config.seed)
    geographies: dict[str, StateGeography] = {}
    block_groups: dict[str, BlockGroup] = {}
    blocks: dict[str, CensusBlock] = {}
    hubb = HubbPortal(seed=config.seed)
    ledger = DisbursementLedger()
    caf_addresses: dict[str, StreetAddress] = {}
    caf_by_isp_state: dict[tuple[str, str], list[StreetAddress]] = {}
    records_by_isp: dict[str, list[DeploymentRecord]] = {}

    for state_abbr in config.states:
        footprint = dict(TABLE3_QUERIED_ADDRESSES.get(state_abbr, {}))
        if not footprint:
            raise ValueError(f"state {state_abbr} has no Table 3 footprint")
        geography, allocation = _build_state(config, state_abbr, footprint)
        geographies[state_abbr] = geography
        block_groups.update(geography.block_group_index())
        blocks.update(geography.block_index())
        tilt_rng = stable_rng(config.seed, "funds", state_abbr)
        for isp_id, assignment in allocation.items():
            addresses, records = _certify_state_isp(
                config, state_abbr, isp_id, assignment, address_factory
            )
            caf_by_isp_state[(isp_id, state_abbr)] = addresses
            for address in addresses:
                caf_addresses[address.address_id] = address
            records_by_isp.setdefault(isp_id, []).extend(records)
            ledger.add(Disbursement(
                isp_id=isp_id,
                state_abbreviation=state_abbr,
                amount_usd=len(addresses) * config.support_per_location_usd
                * float(tilt_rng.uniform(0.9, 1.2)),
            ))

    for isp_id, records in sorted(records_by_isp.items()):
        hubb.submit(CertificationBatch(
            isp_id=isp_id, filing_year=2021, records=tuple(records),
        ))

    # Pass 3: Q3 classification. A Q3 cell owns its whole block, which
    # needs one incumbent per block (_build_state gives ISPs disjoint
    # CBGs).
    incumbent_of: dict[str, str] = {}
    caf_by_block: dict[str, list[StreetAddress]] = {}
    for (isp_id, state_abbr), addresses in caf_by_isp_state.items():
        if state_abbr not in config.q3_states:
            continue
        for address in addresses:
            block_geoid = address.block_geoid
            if incumbent_of.setdefault(block_geoid, isp_id) != isp_id:
                raise ValueError(
                    f"Q3 block {block_geoid} has two incumbents: "
                    f"{incumbent_of[block_geoid]} and {isp_id}")
            caf_by_block.setdefault(block_geoid, []).append(address)
    form477 = Form477()
    broadband_map = BroadbandMap()
    block_competition: dict[str, BlockCompetition] = {}
    incumbents: dict[str, str] = {}
    for isp_id, block_geoid in sorted(
            (isp_id, block_geoid) for block_geoid, isp_id in incumbent_of.items()):
        competition = _classify_block(
            isp_id, blocks[block_geoid],
            stable_rng(config.seed, "q3", isp_id, block_geoid))
        _record_availability(competition, form477, broadband_map)
        block_competition[block_geoid] = competition
        incumbents[block_geoid] = isp_id

    cells = WorldCells(config, address_factory, block_groups, blocks,
                       caf_addresses, caf_by_isp_state, incumbents,
                       caf_by_block)
    websites = {
        isp_id: build_website(isp_id, cells.truth, seed=config.seed)
        for isp_id in ("att", "centurylink", "frontier", "consolidated",
                       "xfinity", "spectrum")
    }

    return World(
        config=config,
        geographies=geographies,
        block_groups=block_groups,
        blocks=blocks,
        hubb=hubb,
        ledger=ledger,
        caf_addresses=caf_addresses,
        caf_by_isp_state=caf_by_isp_state,
        zillow=cells.zillow,
        ground_truth=cells.truth,
        form477=form477,
        broadband_map=broadband_map,
        block_competition=block_competition,
        websites=websites,
    )
