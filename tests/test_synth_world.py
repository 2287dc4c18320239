"""Unit tests for repro.synth (scenario, calibration, world builder)."""

import hashlib

import pytest

from repro.bqt.engine import BqtEngine
from repro.geo.fips import Q3_STATES, STUDY_STATES
from repro.synth import ScenarioConfig, build_world
from repro.synth.calibration import (
    PAPER_SERVICEABILITY_BY_ISP,
    Q3OutcomeShares,
    TABLE3_QUERIED_ADDRESSES,
    TYPE_A_SHARES,
    TYPE_B_SHARES,
)

TINY_WORLD_SHA256 = (
    "df879f1ab9fdeb1b60d7909e7d55b736f1acbc3633effbca68ee2e5ca7c9ffec")


class TestScenarioConfig:
    def test_defaults_cover_study_scope(self):
        config = ScenarioConfig()
        assert config.states == STUDY_STATES
        assert config.q3_states == Q3_STATES

    def test_certified_count_scaling(self):
        config = ScenarioConfig(address_scale=0.1, certified_multiplier=2.0)
        assert config.certified_count("CA", 1000) == 200
        assert config.certified_count("CA", 1) == 1  # floor at 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(address_scale=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(certified_multiplier=0.5)
        with pytest.raises(ValueError):
            ScenarioConfig(states=())
        with pytest.raises(ValueError, match="q3_states"):
            ScenarioConfig(states=("CA",), q3_states=("OH",))
        with pytest.raises(ValueError):
            ScenarioConfig(non_caf_fraction_range=(0.9, 0.4))


class TestCalibration:
    def test_table3_footprint_matches_paper_structure(self):
        assert len(TABLE3_QUERIED_ADDRESSES) == 15
        # Spot-check distinctive cells from the paper's Table 3.
        assert TABLE3_QUERIED_ADDRESSES["CA"]["att"] == 69_711
        assert TABLE3_QUERIED_ADDRESSES["MS"]["centurylink"] == 2
        assert TABLE3_QUERIED_ADDRESSES["NJ"] == {"centurylink": 980}
        assert TABLE3_QUERIED_ADDRESSES["VT"] == {"consolidated": 9_940}
        assert "att" not in TABLE3_QUERIED_ADDRESSES["IA"]

    def test_outcome_shares_sum_to_one(self):
        for shares in (TYPE_A_SHARES, TYPE_B_SHARES):
            assert sum(shares.as_mapping().values()) == pytest.approx(1.0)

    def test_bad_shares_rejected(self):
        with pytest.raises(ValueError):
            Q3OutcomeShares(tie=0.5, caf_better=0.5, rival_better=0.5)


class TestWorldBuilder:
    def test_footprint_respected(self, world):
        for state, footprint in TABLE3_QUERIED_ADDRESSES.items():
            for isp in footprint:
                addresses = world.caf_by_isp_state.get((isp, state))
                assert addresses, f"missing ({isp}, {state})"
        # ISPs never certify outside their Table 3 states.
        assert ("att", "VT") not in world.caf_by_isp_state
        assert ("consolidated", "CA") not in world.caf_by_isp_state

    def test_caf_map_matches_addresses(self, world):
        assert len(world.caf_map) == len(world.caf_addresses)
        for record in world.caf_map.for_isp("consolidated")[:20]:
            address = world.caf_addresses[record.address_id]
            assert address.block_geoid == record.block_geoid

    def test_certified_speeds_meet_floor(self, world):
        # Figure 1f: certifications (not reality) always satisfy 10/1.
        violating = [r for r in world.caf_map if not r.meets_caf_speed_floor]
        assert not violating

    def test_ground_truth_rates_near_calibration(self, world):
        for isp, target in PAPER_SERVICEABILITY_BY_ISP.items():
            served = total = 0
            for (isp_id, _state), addresses in world.caf_by_isp_state.items():
                if isp_id != isp:
                    continue
                for address in addresses:
                    total += 1
                    served += world.ground_truth.serves(isp, address.address_id)
            assert served / total == pytest.approx(target, abs=0.12), isp

    def test_centurylink_nj_truth_is_zero(self, world):
        addresses = world.caf_by_isp_state.get(("centurylink", "NJ"), [])
        assert addresses
        assert not any(world.ground_truth.serves("centurylink", a.address_id)
                       for a in addresses)

    def test_zillow_only_in_q3_states(self, world):
        q3_fips = {world.geographies[s].state_fips
                   for s in world.config.q3_states}
        for block_geoid in world.zillow.blocks():
            assert block_geoid[:2] in q3_fips

    def test_form477_incumbent_everywhere(self, world):
        for block_geoid, competition in world.block_competition.items():
            providers = world.form477.providers_in_block(block_geoid)
            assert competition.incumbent_isp_id in providers
            if competition.kind == "non_bqt":
                assert "smallisp-000" in providers
            if competition.cable_isp_id:
                assert competition.cable_isp_id in providers

    def test_nbm_consistent_with_form477(self, world):
        assert world.broadband_map.consistent_with_form477(world.form477) == []

    def test_block_competition_mix(self, world):
        kinds = [c.kind for c in world.block_competition.values()]
        monopoly_share = kinds.count("monopoly") / len(kinds)
        assert monopoly_share > 0.7  # rural CAF blocks rarely see overlap
        assert kinds.count("overlap_full") > 0

    def test_ledger_covers_every_cell(self, world):
        for (isp, state) in world.caf_by_isp_state:
            assert world.ledger.amount_for(isp, state) > 0

    def test_engine_factory(self, world):
        engine = world.engine_for("att")
        assert isinstance(engine, BqtEngine)
        assert engine.isp_id == "att"
        with pytest.raises(KeyError):
            world.engine_for("verizon")

    def test_determinism(self):
        config = ScenarioConfig(
            seed=3, address_scale=0.002, states=("UT", "NH"),
            q3_states=("UT",))
        first = build_world(config)
        second = build_world(config)
        assert set(first.caf_addresses) == set(second.caf_addresses)
        sample = next(iter(first.caf_addresses))
        for isp in ("centurylink", "frontier"):
            assert first.ground_truth.truth_for(isp, sample) == \
                second.ground_truth.truth_for(isp, sample)

    def test_unknown_state_raises(self):
        with pytest.raises(ValueError, match="footprint"):
            build_world(ScenarioConfig(states=("TX",), q3_states=()))

    def test_caf_addresses_by_cbg_partition(self, world):
        grouped = world.caf_addresses_by_cbg("frontier", "OH")
        total = sum(len(addresses) for addresses in grouped.values())
        assert total == len(world.caf_by_isp_state[("frontier", "OH")])
        for cbg, addresses in grouped.items():
            assert all(a.block_group_geoid == cbg for a in addresses)


def world_bytes_sha256(world) -> str:
    """SHA-256 over the reprs of what the world generators draw: every
    CAF and Zillow address, every block-group centroid, and every
    ground-truth entry, each group in sorted order."""
    digest = hashlib.sha256()

    def add(*fields) -> None:
        digest.update(("\x1f".join(map(repr, fields)) + "\n").encode("utf-8"))

    zillow = [address for block in world.zillow.blocks()
              for address in world.zillow.in_block(block)]
    for group in (world.caf_addresses.values(), zillow):
        for address in sorted(group, key=lambda a: a.address_id):
            add(address.address_id, address.house_number, address.street_name,
                address.location.longitude, address.location.latitude)
    for geoid in sorted(world.block_groups):
        centroid = world.block_groups[geoid].centroid
        add(geoid, centroid.longitude, centroid.latitude)
    truth = world.ground_truth
    for isp_id, address_id in sorted(truth.pairs()):
        add(isp_id, address_id, truth.truth_for(isp_id, address_id))
    return digest.hexdigest()


def test_tiny_world_bytes_are_pinned(world):
    """The tiny seed-0 world, value for value. ``repr`` of a coordinate
    also pins its type: a numpy scalar would repr differently."""
    assert world.config.seed == 0
    assert world_bytes_sha256(world) == TINY_WORLD_SHA256


class TestLazyWorld:
    """Truth and Q3 blocks materialize per cell, on first lookup; what a
    world holds must not depend on which cells were looked up first."""

    @pytest.fixture
    def fresh(self, tiny_config):
        return build_world(tiny_config)

    def test_lookup_order_leaves_every_value_and_order(self, tiny_config,
                                                      fresh):
        from repro.runtime.executor import run_shard
        from repro.runtime.shards import plan_shards

        world = build_world(tiny_config)
        spec = plan_shards(world, 4)[3]
        run_shard(world.config, spec, world=world)
        for block_geoid in list(world.block_competition)[::-1][:5]:
            world.zillow.non_caf_in_block(block_geoid)
            competition = world.block_competition[block_geoid]
            for address in world.caf_addresses_in_block(
                    competition.incumbent_isp_id, block_geoid):
                world.ground_truth.truth_for(competition.incumbent_isp_id,
                                             address.address_id)

        assert world_bytes_sha256(world) == TINY_WORLD_SHA256
        assert list(world.ground_truth.pairs()) == \
            list(fresh.ground_truth.pairs())
        assert len(world.ground_truth) == len(fresh.ground_truth)
        assert world.zillow.blocks() == fresh.zillow.blocks()

    def test_partial_world_pickles_and_finishes(self, fresh):
        import pickle

        block_geoid = next(iter(fresh.block_competition))
        fresh.zillow.in_block(block_geoid)
        address = next(iter(fresh.caf_addresses.values()))
        fresh.ground_truth.truth_for("att", address.address_id)

        loaded = pickle.loads(pickle.dumps(fresh))
        assert world_bytes_sha256(loaded) == TINY_WORLD_SHA256
