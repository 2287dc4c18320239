"""The end-to-end audit pipeline.

``run_full_audit`` is the one-call reproduction of the paper's study:
build (or accept) a world, run the Q1/Q2 stratified collection, run the
Q3 block collection, and wrap every analysis object into an
:class:`AuditReport` with the headline numbers the abstract reports.

Passing ``parallel=RuntimeConfig(...)`` routes the two collections
through :mod:`repro.runtime` — sharded (optionally multi-process,
checkpointed, cached) execution whose merged results are bit-identical
to the sequential path for the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.audit import AuditDataset, ComplianceStandard
from repro.core.collection import (
    CollectionCampaign,
    CollectionResult,
    Q3Collection,
    collect_q3_dataset,
)
from repro.core.compliance import ComplianceAnalysis
from repro.core.monopoly import MonopolyAnalysis, analyze_q3
from repro.core.sampling import SamplingPolicy
from repro.core.serviceability import ServiceabilityAnalysis
from repro.fcc.urban_rate_survey import generate_urban_rate_survey
from repro.synth.world import World, build_world
from repro.synth.scenario import ScenarioConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.bqt.engine import EngineConfig
    from repro.runtime.executor import RuntimeConfig

__all__ = ["AuditReport", "run_full_audit"]

CAF_STUDY_ISP_IDS = ("att", "centurylink", "frontier", "consolidated")


@dataclass
class AuditReport:
    """The full study output."""

    world: World
    collection: CollectionResult
    audit: AuditDataset
    serviceability: ServiceabilityAnalysis
    compliance: ComplianceAnalysis
    q3_collection: Q3Collection
    monopoly: MonopolyAnalysis

    def headline(self) -> dict[str, float]:
        """The abstract's headline numbers, as measured on this world."""
        type_a = self.monopoly.outcome_shares("A", "monopoly")
        return {
            "serviceability_rate": self.serviceability.aggregate_rate(),
            "compliance_rate": self.compliance.aggregate_rate(),
            "type_a_caf_better_share": type_a["caf"],
            "type_a_tie_share": type_a["tie"],
            "type_a_monopoly_better_share": type_a["rival"],
        }

    def summary_lines(self) -> list[str]:
        """Human-readable summary for the CLI and examples."""
        numbers = self.headline()
        lines = [
            f"Queried {len(self.collection.log)} Q1/Q2 records, "
            f"{len(self.q3_collection.log)} Q3 records",
            f"Serviceability rate: {numbers['serviceability_rate']:.2%} "
            f"(paper: 55.45%)",
            f"Compliance rate:     {numbers['compliance_rate']:.2%} "
            f"(paper: 33.03%)",
        ]
        for isp, rate in sorted(self.serviceability.rate_by_isp().items()):
            lines.append(f"  serviceability[{isp}] = {rate:.2%}")
        for isp, rate in sorted(self.compliance.rate_by_isp().items()):
            lines.append(f"  compliance[{isp}] = {rate:.2%}")
        lines.append(
            "Type A outcomes (tie/CAF/monopoly): "
            f"{numbers['type_a_tie_share']:.0%}/"
            f"{numbers['type_a_caf_better_share']:.0%}/"
            f"{numbers['type_a_monopoly_better_share']:.0%} "
            "(paper: 55%/27%/18%)"
        )
        return lines


def cached_audit_report(
    cache_dir: str,
    scenario: ScenarioConfig,
    policy: SamplingPolicy | None = None,
    use_urban_survey: bool = True,
) -> "AuditReport | None":
    """The cache's report for this audit, or None on a miss.

    Exactly the lookup :func:`run_full_audit` performs before building
    anything — same digest inputs (study ISP set included), same
    defaults — exposed so other entry points (the CLI's autotuned
    path) cannot drift from it.
    """
    from repro.runtime.cache import AuditCache, audit_digest

    return AuditCache(cache_dir).get(audit_digest(
        scenario, policy, CAF_STUDY_ISP_IDS,
        use_urban_survey=use_urban_survey))


def run_full_audit(
    world: World | None = None,
    scenario: ScenarioConfig | None = None,
    policy: SamplingPolicy | None = None,
    use_urban_survey: bool = True,
    parallel: "RuntimeConfig | None" = None,
    on_progress=None,
    engine_config: "EngineConfig | None" = None,
) -> AuditReport:
    """Run the complete study and return every analysis object.

    ``parallel`` selects the sharded runtime for the two collection
    campaigns (``backend="async"`` interleaves each shard's storefront
    sessions on an event loop); its ``cache_dir`` short-circuits the
    whole call with a content-addressed hit when the same (scenario,
    policy, ISP set) audit has already been computed.
    ``on_progress`` (sharded runs only) fires per completed shard with
    ``(completed, total, shard_result, restored)``.
    ``engine_config`` overrides the retry/pacing policy for both
    campaigns; a non-default one is part of the cache address (see
    :func:`repro.runtime.cache.audit_digest`).
    """
    cache = digest = None
    if parallel is not None and parallel.cache_dir is not None:
        from repro.runtime.cache import AuditCache, audit_digest

        cache = AuditCache(parallel.cache_dir)
        digest = audit_digest(
            world.config if world is not None else (scenario or ScenarioConfig()),
            policy, CAF_STUDY_ISP_IDS, use_urban_survey=use_urban_survey,
            engine_config=engine_config,
        )
        cached = cache.get(digest)
        if cached is not None:
            return cached
    if world is None:
        world = build_world(scenario)
    if parallel is not None:
        from repro.runtime.executor import execute_campaign

        collection, q3_collection = execute_campaign(
            world, parallel, policy=policy, isps=CAF_STUDY_ISP_IDS,
            engine_config=engine_config, on_progress=on_progress)
    else:
        campaign = CollectionCampaign(world, policy=policy,
                                      engine_config=engine_config)
        collection = campaign.run(isps=CAF_STUDY_ISP_IDS)
        q3_collection = collect_q3_dataset(world, engine_config=engine_config)
    survey = (generate_urban_rate_survey(seed=world.config.seed)
              if use_urban_survey else None)
    standard = ComplianceStandard(survey=survey)
    audit = AuditDataset(
        collection.log, collection.cbg_totals, world=world, standard=standard
    )
    report = AuditReport(
        world=world,
        collection=collection,
        audit=audit,
        serviceability=ServiceabilityAnalysis(audit),
        compliance=ComplianceAnalysis(audit, caf_map=world.caf_map),
        q3_collection=q3_collection,
        monopoly=analyze_q3(q3_collection),
    )
    if cache is not None and digest is not None:
        cache.put(digest, report)
    return report
