"""Tests for repro.codec: the one JSON form of records, cells and shards.

Checkpoints, distributed frames, journal entries, the panel cell CAS
and sealed logbook digests are all content-addressed over this codec's
output, so its bytes must never move. The pinned digests below were
computed from the tiny seed-0 world's 4-shard serial campaign before
the codec became its own module; a change that moves one of them
orphans every stored checkpoint, journal and CAS cell.
"""

from __future__ import annotations

import json

import pytest

from repro.codec import (
    logbook_digest,
    q3_block_from_json,
    q3_block_to_json,
    q12_cell_from_json,
    q12_cell_to_json,
    shard_from_json,
    shard_to_json,
)
from repro.core.collection import Q3BlockOutcome
from repro.longitudinal import PanelStore, WaveDigests, q12_cell_digest
from repro.longitudinal.digests import compute_wave_digests
from repro.runtime import (
    enumerate_q12_cells,
    merge_shard_results,
    plan_shards,
    run_shard,
)
from repro.runtime.cache import content_digest
from repro.runtime.executor import ShardResult

SHARD0_SHA256 = (
    "6f8ecb8ad20f62d0d0f1097b46bba90b666c64eee7fb6242ef05749754b7c3d1")
LOGBOOK_SHA256 = (
    "8037353913a86b03c9e027ff07e9b53c4cf4b9001d08fd37ff463335c76c302e")
FIRST_Q12_CELL_WORLD_SHA256 = (
    "db9ad8fb9d79c6d9f20ba054b4d0ae453275eb2421208cbbb418016e8875fb70")
SHARD0_CAS_PAYLOADS_SHA256 = (
    "5135151b236c6cbb101ed62324d595832fc6b52fe49ffcb70f82e39028d756db")


@pytest.fixture(scope="module")
def campaign(world):
    """The tiny seed-0 campaign: 4 shards, run serially, and merged."""
    assert world.config.seed == 0
    specs = plan_shards(world, 4)
    completed = {spec.index: run_shard(world.config, spec, world=world)
                 for spec in specs}
    collection, q3 = merge_shard_results(world, specs, completed)
    return completed, collection, q3


def _json_roundtrip(payload: dict) -> dict:
    return json.loads(json.dumps(payload, sort_keys=True))


class TestPinnedBytes:
    def test_shard_payload(self, campaign):
        completed, _, _ = campaign
        assert content_digest(shard_to_json(completed[0])) == SHARD0_SHA256

    def test_logbook_digest(self, campaign):
        _, collection, q3 = campaign
        assert logbook_digest(collection.log, q3.log) == LOGBOOK_SHA256

    def test_q12_cell_world_digest(self, world):
        cell = enumerate_q12_cells(world)[0]
        assert q12_cell_digest(world, cell) == FIRST_Q12_CELL_WORLD_SHA256

    def test_panel_cas_payloads(self, world, campaign, tmp_path):
        """What the panel store writes for shard 0's cells, read back
        from its CAS files in campaign order."""
        completed, _, _ = campaign
        shard = completed[0]
        every = compute_wave_digests(world)
        digests = WaveDigests(
            q12={cell: every.q12[cell] for cell in shard.q12_records},
            q3={block: every.q3[block] for block in shard.q3_outcomes})
        store = PanelStore(tmp_path, "f" * 64)
        store.save_wave(0, 0, shard, {}, digests)

        def payload(digest: str) -> dict:
            document = json.loads(
                store.cell_path(digest).read_text(encoding="utf-8"))
            return document["payload"]

        assert content_digest({
            "q12": [payload(d) for d in digests.q12.values()],
            "q3": [payload(d) for d in digests.q3.values()],
        }) == SHARD0_CAS_PAYLOADS_SHA256


class TestRoundTrip:
    def test_shard_roundtrip_is_exact(self, campaign):
        completed, _, _ = campaign
        for result in completed.values():
            payload = shard_to_json(result)
            decoded = shard_from_json(_json_roundtrip(payload))
            assert decoded.q12_records == result.q12_records
            assert decoded.q3_outcomes == result.q3_outcomes
            assert shard_to_json(decoded) == payload

    def test_shard_uses_the_cell_helpers(self, campaign):
        completed, _, _ = campaign
        shard = completed[0]
        payload = shard_to_json(shard)
        assert payload["q12"] == [q12_cell_to_json(cell, records)
                                  for cell, records
                                  in shard.q12_records.items()]
        assert payload["q3"] == [q3_block_to_json(block, outcome)
                                 for block, outcome
                                 in shard.q3_outcomes.items()]

    def test_cells_roundtrip(self, campaign):
        completed, _, _ = campaign
        for cell, records in completed[0].q12_records.items():
            assert q12_cell_from_json(_json_roundtrip(
                q12_cell_to_json(cell, records))) == (cell, records)
        for block, outcome in completed[0].q3_outcomes.items():
            assert q3_block_from_json(_json_roundtrip(
                q3_block_to_json(block, outcome))) == (block, outcome)

    def test_unanalyzed_q3_block(self):
        """A block the Q3 campaign skipped round-trips as ``None``."""
        result = ShardResult(index=0, count=1)
        result.q3_outcomes["010010201001000"] = None
        result.q3_outcomes["010010201001001"] = Q3BlockOutcome(
            block_geoid="010010201001001", incumbent_isp_id="att",
            records=(), modes={})
        payload = shard_to_json(result)
        assert payload["q3"][0] == {"block_geoid": "010010201001000",
                                    "outcome": None}
        decoded = shard_from_json(_json_roundtrip(payload))
        assert decoded.q3_outcomes == result.q3_outcomes
