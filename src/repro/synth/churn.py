"""Plan churn: how stale does a one-shot audit get?

Appendix 8.1 ("Staleness"): the paper queried each address once, so its
snapshot ages as ISPs upgrade plant, change plans, or (rarely) retire
service. This module simulates that drift so the staleness bias of a
one-shot audit can be measured instead of argued about:

* each simulated year, a fraction of served addresses get a plan
  upgrade (speed roughly doubles, price creeps);
* a smaller fraction of unserved addresses become served (new
  deployment);
* a still-smaller fraction of served addresses lose service
  (copper retirement without replacement).

``churned_world`` returns a *new* world sharing geography and
certifications but with evolved truth and fresh storefronts, so the
same audit can run on both and the drift be compared.

Churn comes in two granularities. The per-address rates model
individual subscribers' plans drifting; ``cell_rate`` additionally
gates each year's churn to a random subset of (ISP, CBG) *cells* —
ISPs upgrade plant by neighborhood, not by household, so real drift is
spatially correlated. Cell-gated churn is what makes longitudinal
re-audits (:mod:`repro.longitudinal`) an O(churn) problem: a wave in
which 10% of cells churned invalidates ~10% of the prior wave's
per-cell results instead of all of them.

The evolution is a proper Markov chain in the year index: for a fixed
seed, ``churned_world(w, years=k)`` is exactly the state reached by
continuing ``churned_world(w, years=k - 1)`` one more year, which is
what lets a panel diff consecutive waves cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.bqt.websites import build_website
from repro.isp.deployment import GroundTruth, ServiceTruth
from repro.isp.plans import BroadbandPlan
from repro.isp.profiles import profile_for
from repro.stats.distributions import stable_rng
from repro.synth.scenario import ScenarioConfig
from repro.synth.world import World, build_world

__all__ = ["ChurnModel", "WaveScenario", "churned_world"]


@dataclass(frozen=True)
class ChurnModel:
    """Annual plan-churn rates.

    ``cell_rate`` is the probability that one (ISP, CBG) cell churns at
    all in a given year; within a churning cell the per-address rates
    apply. The default 1.0 reproduces the original uncorrelated model
    (every cell eligible every year).
    """

    upgrade_rate: float = 0.10
    new_deployment_rate: float = 0.03
    retirement_rate: float = 0.01
    upgrade_speed_multiplier: float = 2.0
    upgrade_price_multiplier: float = 1.08
    cell_rate: float = 1.0

    def __post_init__(self) -> None:
        for name in ("upgrade_rate", "new_deployment_rate",
                     "retirement_rate", "cell_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability")
        if self.upgrade_speed_multiplier < 1.0:
            raise ValueError("upgrades cannot lower speeds")
        if self.upgrade_price_multiplier <= 0:
            raise ValueError("price multiplier must be positive")


def _upgraded_plan(plan: BroadbandPlan, model: ChurnModel) -> BroadbandPlan:
    speed = plan.download_mbps * model.upgrade_speed_multiplier
    return BroadbandPlan(
        name=plan.name,
        download_mbps=speed,
        upload_mbps=plan.upload_mbps * model.upgrade_speed_multiplier,
        monthly_price_usd=min(plan.monthly_price_usd
                              * model.upgrade_price_multiplier, 200.0),
        technology="fiber" if speed >= 1000 else plan.technology,
        is_speed_guaranteed=plan.is_speed_guaranteed,
    )


def _address_cbg(world: World, address_id: str) -> str:
    """The CBG an address churns with (its cell-gating key)."""
    address = world.caf_addresses.get(address_id)
    if address is None and address_id in world.zillow:
        address = world.zillow.lookup(address_id)
    return address.block_group_geoid if address is not None else ""


def _evolve_truth(
    world: World, model: ChurnModel, years: int, seed: int
) -> GroundTruth:
    evolved = GroundTruth()
    # (isp, cbg, year) → did that cell churn that year. One stable draw
    # per key, shared by every address in the cell — the spatial
    # correlation that keeps unchanged cells byte-stable across waves.
    cell_active: dict[tuple[str, str, int], bool] = {}

    def active(isp_id: str, cbg: str, year: int) -> bool:
        if model.cell_rate >= 1.0:
            return True
        key = (isp_id, cbg, year)
        if key not in cell_active:
            roll = stable_rng(seed, "churn-cell", isp_id, cbg, year).random()
            cell_active[key] = roll < model.cell_rate
        return cell_active[key]

    for (isp_id, address_id) in world.ground_truth.pairs():
        state = world.ground_truth.truth_for(isp_id, address_id)
        rng = stable_rng(seed, "churn", isp_id, address_id)
        cbg = _address_cbg(world, address_id)
        for _year in range(years):
            if not active(isp_id, cbg, _year):
                continue
            if state.serves:
                roll = rng.random()
                if roll < model.retirement_rate:
                    state = ServiceTruth(serves=False)
                elif roll < model.retirement_rate + model.upgrade_rate \
                        and state.plans:
                    plans = tuple(_upgraded_plan(p, model) for p in state.plans)
                    best = max(plans, key=lambda p: p.download_mbps)
                    state = ServiceTruth(
                        serves=True, plans=plans,
                        existing_subscriber=state.existing_subscriber,
                        tier_label=best.tier_label)
            else:
                if rng.random() < model.new_deployment_rate:
                    profile = profile_for(isp_id)
                    label = profile.sample_tier_label(rng)
                    plan = profile.make_plan(label, rng)
                    if plan is None:
                        state = ServiceTruth(serves=True, plans=(),
                                             existing_subscriber=True,
                                             tier_label=label)
                    else:
                        state = ServiceTruth(serves=True, plans=(plan,),
                                             tier_label=plan.tier_label)
        evolved.set_truth(isp_id, address_id, state)
    return evolved


def churned_world(
    world: World, years: int = 1, model: ChurnModel | None = None
) -> World:
    """Return a copy of ``world`` with ``years`` of plan churn applied.

    Geography, certifications, funding and the Q3 block classification
    are shared (they don't churn on these timescales); ground truth and
    the website simulators are replaced.
    """
    if years < 0:
        raise ValueError("years must be non-negative")
    model = model or ChurnModel()
    truth = _evolve_truth(world, model, years, world.config.seed)
    websites = {
        isp_id: build_website(isp_id, truth, seed=world.config.seed)
        for isp_id in world.websites
    }
    return replace(world, ground_truth=truth, websites=websites)


@dataclass(frozen=True)
class WaveScenario:
    """One panel wave's world, as a rebuildable recipe.

    Shard tasks carry a world's recipe, never the world. Process-pool
    workers key the coordinator's adopted world by it; distributed
    workers, separate interpreters, rebuild the world from it. An
    evolved wave world keeps its base
    :class:`~repro.synth.scenario.ScenarioConfig`, which alone cannot
    reproduce it — so this wrapper carries the full recipe: base
    scenario, churn model, and the horizon in years. :meth:`realize`
    replays it deterministically; the executor's per-process world
    cache calls it exactly like ``build_world``.
    """

    base: ScenarioConfig
    years: int = 0
    model: ChurnModel = ChurnModel()

    def __post_init__(self) -> None:
        if self.years < 0:
            raise ValueError("years must be non-negative")

    # Passthroughs so fingerprinting and shard planning code that reads
    # scenario.{seed,states,q3_states} accepts either scenario kind.
    @property
    def seed(self) -> int:
        return self.base.seed

    @property
    def states(self) -> tuple[str, ...]:
        return self.base.states

    @property
    def q3_states(self) -> tuple[str, ...]:
        return self.base.q3_states

    def realize(self) -> World:
        """Build the base world and evolve it to this wave's horizon."""
        world = build_world(self.base)
        if self.years == 0:
            return world
        return churned_world(world, years=self.years, model=self.model)
