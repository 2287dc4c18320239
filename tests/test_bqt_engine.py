"""Unit tests for repro.bqt.engine, proxy, errors, and logbook."""

import numpy as np
import pytest

from repro.addresses.generator import AddressGenerator
from repro.bqt.engine import BqtEngine, EngineConfig
from repro.bqt.errors import (
    ERROR_MIX_BY_ISP,
    ERROR_PROBABILITY_BY_ISP,
    ErrorCategory,
    sample_error_category,
)
from repro.bqt.logbook import QueryLog, QueryRecord
from repro.bqt.proxy import ProxyEndpoint, ProxyPool
from repro.bqt.responses import QueryStatus
from repro.bqt.websites import build_website
from repro.geo.entities import CensusBlock
from repro.geo.geometry import Point
from repro.isp.deployment import GroundTruth, ServiceTruth
from repro.isp.plans import BroadbandPlan
from repro.stats.distributions import stable_rng


@pytest.fixture
def block() -> CensusBlock:
    return CensusBlock(geoid="060371234561001",
                       centroid=Point(-118.0, 34.0), is_rural=True)


def build_engine(isp_id, addresses, served=True, seed=0):
    truth = GroundTruth()
    if served:
        plan = BroadbandPlan("p", 25.0, 2.5, 50.0)
        for address in addresses:
            truth.set_truth(isp_id, address.address_id, ServiceTruth(
                serves=True, plans=(plan,), tier_label=plan.tier_label))
    site = build_website(isp_id, truth, seed=seed)
    return BqtEngine(site, seed=seed)


class TestProxyPool:
    def test_rotation_wraps(self):
        pool = ProxyPool(size=3, seed=0)
        first = pool.current
        pool.rotate()
        pool.rotate()
        pool.rotate()
        assert pool.current is first
        assert pool.rotations == 3

    def test_suspicion_accumulates_faster_for_datacenter(self):
        residential = ProxyEndpoint("ip-r", "residential")
        datacenter = ProxyEndpoint("ip-d", "datacenter")
        for _ in range(100):
            residential.record_query(1.0)
            datacenter.record_query(1.0)
        assert datacenter.suspicion > residential.suspicion
        assert datacenter.extra_error_probability > 0

    def test_suspicion_capped(self):
        endpoint = ProxyEndpoint("ip", "datacenter")
        for _ in range(10_000):
            endpoint.record_query(1.0)
        assert endpoint.suspicion == 1.0

    def test_least_suspicious_jump(self):
        pool = ProxyPool(size=4, seed=0)
        pool.current.record_query(1.0)
        cleanest = pool.least_suspicious()
        assert cleanest.suspicion == min(
            e.suspicion for e in pool._endpoints)

    def test_same_seed_pools_share_kinds_not_endpoints(self):
        first, second = ProxyPool(size=16, seed=3), ProxyPool(size=16, seed=3)
        kinds = [(e.endpoint_id, e.kind) for e in first._endpoints]
        assert kinds == [(e.endpoint_id, e.kind) for e in second._endpoints]
        # The kinds are the pool stream's draws, in endpoint order.
        rng = stable_rng(3, "proxy-pool")
        assert [kind for _, kind in kinds] == [
            "residential" if rng.random() < 0.7 else "datacenter"
            for _ in range(16)]
        assert all(a is not b for a, b in
                   zip(first._endpoints, second._endpoints))
        for _ in range(50):
            first.current.record_query(1.0)
        assert first.current.suspicion > 0
        assert second.mean_suspicion() == 0.0
        assert all(e.queries_issued == 0 for e in second._endpoints)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProxyPool(size=0)
        with pytest.raises(ValueError):
            ProxyEndpoint("x", "satellite")
        with pytest.raises(ValueError):
            ProxyEndpoint("x", "residential").record_query(2.0)


class TestErrorTaxonomy:
    def test_mixes_normalized(self):
        # AT&T's Table 2 row sums to 61,531 of a stated 61,768 total —
        # the paper's own figures are slightly inconsistent, so allow
        # half a percent of slack.
        for isp, mix in ERROR_MIX_BY_ISP.items():
            assert sum(mix.values()) == pytest.approx(1.0, abs=0.005), isp

    def test_att_is_flakiest_of_big_three(self):
        assert ERROR_PROBABILITY_BY_ISP["att"] > \
            ERROR_PROBABILITY_BY_ISP["frontier"] > \
            ERROR_PROBABILITY_BY_ISP["centurylink"]

    def test_centurylink_only_empty_traceback(self):
        rng = stable_rng(0, "e")
        draws = {sample_error_category("centurylink", rng) for _ in range(50)}
        assert draws == {ErrorCategory.EMPTY_TRACEBACK}

    def test_exclusion_renormalizes(self):
        rng = stable_rng(1, "e")
        draws = {sample_error_category(
            "att", rng, exclude=(ErrorCategory.SELECT_DROPDOWN,
                                 ErrorCategory.ANALYZING_RESULT))
            for _ in range(100)}
        assert ErrorCategory.SELECT_DROPDOWN not in draws
        assert ErrorCategory.EMPTY_TRACEBACK in draws

    def test_exclusion_fallback_to_other(self):
        rng = stable_rng(2, "e")
        category = sample_error_category(
            "centurylink", rng, exclude=(ErrorCategory.EMPTY_TRACEBACK,))
        assert category is ErrorCategory.OTHER

    def test_unknown_isp_raises(self):
        rng = stable_rng(3, "e")
        with pytest.raises(KeyError):
            sample_error_category("verizon", rng)


class TestEngine:
    def test_served_addresses_resolve_serviceable(self, block):
        addresses = AddressGenerator(seed=0).generate_for_block(
            block, 80, True, "caf")
        engine = build_engine("centurylink", addresses)
        records = engine.query_many(addresses)
        serviceable = [r for r in records
                       if r.status is QueryStatus.SERVICEABLE]
        assert len(serviceable) > 60
        assert all(r.plans for r in serviceable)

    def test_unserved_addresses_resolve_no_service(self, block):
        addresses = AddressGenerator(seed=0).generate_for_block(
            block, 80, True, "caf")
        engine = build_engine("centurylink", addresses, served=False)
        statuses = {r.status for r in engine.query_many(addresses)}
        assert QueryStatus.NO_SERVICE in statuses
        assert QueryStatus.SERVICEABLE not in statuses

    def test_query_is_deterministic(self, block):
        addresses = AddressGenerator(seed=0).generate_for_block(
            block, 10, True, "caf")
        first = build_engine("att", addresses).query_many(addresses)
        second = build_engine("att", addresses).query_many(addresses)
        assert [r.status for r in first] == [r.status for r in second]
        assert [r.elapsed_seconds for r in first] == \
               [r.elapsed_seconds for r in second]

    def test_unknowns_carry_error_categories(self, block):
        addresses = AddressGenerator(seed=0).generate_for_block(
            block, 200, True, "caf")
        engine = build_engine("att", addresses)
        unknowns = [r for r in engine.query_many(addresses)
                    if r.status is QueryStatus.UNKNOWN]
        assert unknowns
        assert all(r.error_category is not None for r in unknowns)
        categories = {r.error_category for r in unknowns}
        assert ErrorCategory.SELECT_DROPDOWN in categories

    def test_elapsed_time_scales_with_isp_median(self, block):
        addresses = AddressGenerator(seed=0).generate_for_block(
            block, 60, True, "caf")
        att_records = build_engine("att", addresses).query_many(addresses)
        cl_records = build_engine("centurylink", addresses).query_many(addresses)
        att_median = np.median([r.elapsed_seconds for r in att_records])
        cl_median = np.median([r.elapsed_seconds for r in cl_records])
        assert att_median > cl_median

    def test_retries_bounded_by_config(self, block):
        addresses = AddressGenerator(seed=0).generate_for_block(
            block, 100, True, "caf")
        config = EngineConfig(max_attempts=2)
        truth = GroundTruth()
        site = build_website("att", truth, seed=0)
        engine = BqtEngine(site, config=config, seed=0)
        records = engine.query_many(addresses)
        assert max(r.attempts for r in records) <= 2

    def test_engine_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(max_attempts=0)
        with pytest.raises(ValueError):
            EngineConfig(retry_backoff_seconds=-1.0)


class TestPacing:
    """``EngineConfig.pace`` stretches wall clock, never the records."""

    def test_pace_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(pace=-0.1)
        assert EngineConfig(pace=0.0) == EngineConfig()

    def test_paced_records_are_byte_identical(self, block):
        import time

        addresses = AddressGenerator(seed=0).generate_for_block(
            block, 3, True, "caf")
        unpaced = build_engine("att", addresses).query_many(addresses)
        site_truth = GroundTruth()
        plan = BroadbandPlan("p", 25.0, 2.5, 50.0)
        for address in addresses:
            site_truth.set_truth("att", address.address_id, ServiceTruth(
                serves=True, plans=(plan,), tier_label=plan.tier_label))
        site = build_website("att", site_truth, seed=0)
        engine = BqtEngine(site, config=EngineConfig(pace=0.001), seed=0)
        start = time.perf_counter()
        paced = engine.query_many(addresses)
        wall = time.perf_counter() - start
        assert [vars(r) for r in paced] == [vars(r) for r in unpaced]
        virtual = sum(r.elapsed_seconds for r in paced)
        # The driver slept ~pace seconds per virtual second (margin
        # for scheduler jitter, none for a missing sleep).
        assert wall >= virtual * 0.001 * 0.5

    def test_non_default_config_gets_its_own_cache_address(
            self, tiny_config):
        from repro.runtime.cache import audit_digest

        base = audit_digest(tiny_config, None, ("att",))
        # Default configs hash exactly as before — a cache of digests
        # minted prior to pacing stays valid.
        assert audit_digest(tiny_config, None, ("att",),
                            engine_config=EngineConfig()) == base
        assert audit_digest(tiny_config, None, ("att",),
                            engine_config=EngineConfig(pace=1.0)) != base


class TestQueryLog:
    def _record(self, status=QueryStatus.SERVICEABLE, isp="att",
                address_id="a-1", **kwargs):
        plans = kwargs.pop("plans", ())
        if status is QueryStatus.SERVICEABLE and not plans:
            plans = (BroadbandPlan("p", 25.0, 2.5, 50.0),)
        error = kwargs.pop("error_category", None)
        if status is QueryStatus.UNKNOWN and error is None:
            error = ErrorCategory.SELECT_DROPDOWN
        return QueryRecord(
            isp_id=isp, address_id=address_id,
            block_geoid="060371234561001", state_abbreviation="CA",
            status=status, plans=plans, error_category=error,
            elapsed_seconds=kwargs.pop("elapsed_seconds", 10.0), **kwargs)

    def test_indexes_and_filters(self):
        log = QueryLog([
            self._record(),
            self._record(status=QueryStatus.UNKNOWN, address_id="a-2"),
            self._record(isp="frontier", address_id="a-3"),
        ])
        assert len(log) == 3
        assert log.isps() == ["att", "frontier"]
        assert len(log.for_isp("att")) == 2
        assert len(log.conclusive()) == 2

    def test_unknown_counts(self):
        log = QueryLog([
            self._record(status=QueryStatus.UNKNOWN, address_id="a-1"),
            self._record(status=QueryStatus.UNKNOWN, address_id="a-2",
                         error_category=ErrorCategory.EMPTY_TRACEBACK),
        ])
        counts = log.unknown_counts_by_category("att")
        assert counts[ErrorCategory.SELECT_DROPDOWN] == 1
        assert counts[ErrorCategory.EMPTY_TRACEBACK] == 1

    def test_virtual_time(self):
        log = QueryLog([self._record(), self._record(address_id="a-2")])
        assert log.total_virtual_seconds() == pytest.approx(20.0)
        assert log.query_times("att") == [10.0, 10.0]

    def test_record_invariants(self):
        with pytest.raises(ValueError, match="error category"):
            QueryRecord(isp_id="att", address_id="a", state_abbreviation="CA",
                        block_geoid="060371234561001",
                        status=QueryStatus.UNKNOWN)
        with pytest.raises(ValueError, match="plans"):
            QueryRecord(isp_id="att", address_id="a", state_abbreviation="CA",
                        block_geoid="060371234561001",
                        status=QueryStatus.NO_SERVICE,
                        plans=(BroadbandPlan("p", 10.0, 1.0, 40.0),))

    def test_tier_label_logic(self):
        assert self._record().tier_label == "11-99"
        assert self._record(status=QueryStatus.NO_SERVICE).tier_label == "0"
        unknown_plan = QueryRecord(
            isp_id="frontier", address_id="a", state_abbreviation="CA",
            block_geoid="060371234561001", status=QueryStatus.SERVICEABLE)
        assert unknown_plan.tier_label == "Unknown Plan"

    def test_max_download_excludes_unguaranteed(self):
        record = self._record(plans=(
            BroadbandPlan("g", 10.0, 1.0, 40.0),
            BroadbandPlan("air", 100.0, 10.0, 55.0,
                          is_speed_guaranteed=False),
        ))
        assert record.max_download_mbps == 10.0
        assert record.best_plan.download_mbps == 100.0

    def test_to_table(self):
        table = QueryLog([self._record()]).to_table()
        assert "max_download_mbps" in table.column_names
        assert table.row(0)["status"] == "serviceable"
