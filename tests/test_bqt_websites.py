"""Unit tests for repro.bqt.websites and repro.bqt.responses."""

from collections import Counter

import pytest

from repro.addresses.generator import AddressGenerator
from repro.bqt import websites
from repro.bqt.engine import BqtEngine, EngineConfig
from repro.bqt.responses import PageKind, QueryStatus, WebsiteResponse
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


def make_addresses(block, n, namespace="caf"):
    return AddressGenerator(seed=0).generate_for_block(block, n, True, namespace)


def served_truth(isp_id, addresses, speed=50.0, existing=False):
    truth = GroundTruth()
    plan = BroadbandPlan(f"{isp_id} plan", speed, speed / 10, 55.0)
    for address in addresses:
        truth.set_truth(isp_id, address.address_id, ServiceTruth(
            serves=True, plans=(plan,), existing_subscriber=existing,
            tier_label=plan.tier_label))
    return truth


class TestWebsiteResponse:
    def test_plans_only_on_plan_pages(self):
        plan = BroadbandPlan("x", 10.0, 1.0, 40.0)
        with pytest.raises(ValueError):
            WebsiteResponse(PageKind.NO_SERVICE_PAGE, plans=(plan,))

    def test_service_indicators(self):
        assert WebsiteResponse(PageKind.PLANS_PAGE).indicates_service
        assert WebsiteResponse(PageKind.UNKNOWN_PLAN_PAGE).indicates_service
        assert WebsiteResponse(PageKind.NO_SERVICE_PAGE).indicates_no_service
        assert not WebsiteResponse(PageKind.CALL_TO_ORDER).indicates_service

    def test_status_conclusiveness(self):
        assert QueryStatus.SERVICEABLE.is_conclusive
        assert QueryStatus.NO_SERVICE.is_conclusive
        assert QueryStatus.ADDRESS_NOT_FOUND.is_conclusive
        assert not QueryStatus.UNKNOWN.is_conclusive


class TestWebsiteBehaviour:
    def test_served_address_gets_plans(self, block):
        addresses = make_addresses(block, 50)
        truth = served_truth("centurylink", addresses)
        site = build_website("centurylink", truth, seed=0)
        rng = stable_rng(0, "t")
        pages = [site.respond(a, rng).page_kind for a in addresses]
        assert PageKind.PLANS_PAGE in pages or \
            PageKind.REDIRECT_BRIGHTSPEED in pages

    def test_unserved_address_gets_no_service(self, block):
        addresses = make_addresses(block, 60)
        site = build_website("centurylink", GroundTruth(), seed=0)
        rng = stable_rng(1, "t")
        pages = {site.respond(a, rng).page_kind for a in addresses}
        assert PageKind.NO_SERVICE_PAGE in pages
        assert PageKind.PLANS_PAGE not in pages

    def test_att_dropdown_misses_are_persistent(self, block):
        addresses = make_addresses(block, 200)
        truth = served_truth("att", addresses)
        site = build_website("att", truth, seed=0)
        rng = stable_rng(2, "t")
        missing = [a for a in addresses if site.has_persistent_dropdown_miss(a)]
        assert missing  # ~13% of 200
        for address in missing[:5]:
            for _ in range(3):
                assert site.respond(address, rng).page_kind is \
                    PageKind.DROPDOWN_MISS

    def test_frontier_wisconsin_dropdown_worse(self, block):
        wi_block = CensusBlock(geoid="550371234561001",
                               centroid=Point(-89.5, 44.5), is_rural=True)
        ca_addresses = make_addresses(block, 400)
        wi_addresses = make_addresses(wi_block, 400)
        site = build_website("frontier", GroundTruth(), seed=0)
        ca_rate = sum(site.has_persistent_dropdown_miss(a)
                      for a in ca_addresses) / 400
        wi_rate = sum(site.has_persistent_dropdown_miss(a)
                      for a in wi_addresses) / 400
        assert wi_rate > ca_rate

    def test_att_call_to_order_only_when_served(self, block):
        addresses = make_addresses(block, 300)
        truth = served_truth("att", addresses)
        site = build_website("att", truth, seed=0)
        unserved_site = build_website("att", GroundTruth(), seed=0)
        served_truths = truth.truth_for("att", addresses[0].address_id)
        cto_served = sum(site.is_call_to_order(
            a, truth.truth_for("att", a.address_id)) for a in addresses)
        cto_unserved = sum(unserved_site.is_call_to_order(
            a, GroundTruth().truth_for("att", a.address_id))
            for a in addresses)
        assert cto_served > 0
        assert cto_unserved == 0
        assert served_truths.serves

    def test_frontier_unknown_plan_page(self, block):
        addresses = make_addresses(block, 5)
        truth = GroundTruth()
        for address in addresses:
            truth.set_truth("frontier", address.address_id, ServiceTruth(
                serves=True, plans=(), existing_subscriber=True,
                tier_label="Unknown Plan"))
        site = build_website("frontier", truth, seed=0)
        rng = stable_rng(3, "t")
        pages = [site.respond(a, rng).page_kind for a in addresses
                 if not site.has_persistent_dropdown_miss(a)]
        assert pages
        assert set(pages) <= {PageKind.UNKNOWN_PLAN_PAGE, PageKind.ERROR_PAGE}

    def test_centurylink_brightspeed_redirect_and_followup(self, block):
        addresses = make_addresses(block, 200)
        truth = served_truth("centurylink", addresses)
        site = build_website("centurylink", truth, seed=0)
        rng = stable_rng(4, "t")
        redirected = []
        for address in addresses:
            response = site.respond(address, rng)
            if response.page_kind is PageKind.REDIRECT_BRIGHTSPEED:
                assert response.follow_up_site == "brightspeed"
                redirected.append(address)
        assert redirected  # ~35% of served
        followup = site.respond_brightspeed(redirected[0], rng)
        assert followup.page_kind in (PageKind.PLANS_PAGE, PageKind.ERROR_PAGE)

    def test_consolidated_fidium_redirect_for_gigabit(self, block):
        addresses = make_addresses(block, 40)
        truth = served_truth("consolidated", addresses, speed=1000.0)
        site = build_website("consolidated", truth, seed=0)
        rng = stable_rng(5, "t")
        pages = [site.respond(a, rng).page_kind for a in addresses
                 if not site.has_persistent_dropdown_miss(a)]
        assert PageKind.REDIRECT_FIDIUM in pages

    def test_consolidated_address_not_found_for_unserved(self, block):
        addresses = make_addresses(block, 300)
        site = build_website("consolidated", GroundTruth(), seed=0)
        rng = stable_rng(6, "t")
        pages = [site.respond(a, rng).page_kind for a in addresses]
        assert PageKind.ADDRESS_NOT_FOUND in pages
        assert PageKind.NO_SERVICE_PAGE in pages

    def test_unknown_isp_raises(self):
        with pytest.raises(KeyError):
            build_website("verizon", GroundTruth())

    def test_extra_error_probability_increases_failures(self, block):
        addresses = make_addresses(block, 300)
        truth = served_truth("frontier", addresses)
        site = build_website("frontier", truth, seed=0)
        clean_rng = stable_rng(7, "t")
        dirty_rng = stable_rng(7, "t")
        clean_errors = sum(
            site.respond(a, clean_rng).page_kind is PageKind.ERROR_PAGE
            for a in addresses)
        dirty_errors = sum(
            site.respond(a, dirty_rng, extra_error_probability=0.4).page_kind
            is PageKind.ERROR_PAGE for a in addresses)
        assert dirty_errors > clean_errors


STICKY_PURPOSES = ("dropdown", "phv", "perr")
# (ISP, purpose) pairs whose rate is zero: a draw in [0, 1) can never
# fall below it, so the roll is never made.
ZERO_RATE_PURPOSES = {("centurylink", "dropdown")} | {
    (isp_id, "call") for isp_id in
    ("centurylink", "frontier", "consolidated", "spectrum", "xfinity")}
ALL_ISPS = ("att", "centurylink", "frontier", "consolidated", "xfinity",
            "spectrum")


@pytest.fixture
def site_rolls(monkeypatch):
    """Counts per-address rolls as ``(isp_id, purpose, address_id)``."""
    rolls = Counter()
    real_stable_rng = websites.stable_rng

    def counting_stable_rng(*parts):
        if parts[1] == "site":
            _, _, isp_id, purpose, address_id = parts
            rolls[isp_id, purpose, address_id] += 1
        return real_stable_rng(*parts)

    monkeypatch.setattr(websites, "stable_rng", counting_stable_rng)
    return rolls


class TestStickyVerdicts:
    @pytest.mark.parametrize("isp_id, sticky_page", [
        ("att", PageKind.DROPDOWN_MISS),
        ("centurylink", PageKind.HUMAN_VERIFICATION),
        ("frontier", PageKind.ERROR_PAGE),
        ("consolidated", PageKind.DROPDOWN_MISS),
    ])
    def test_retries_roll_each_sticky_purpose_once(
            self, block, site_rolls, isp_id, sticky_page):
        addresses = make_addresses(block, 200)
        site = build_website(isp_id, served_truth(isp_id, addresses), seed=0)
        address = next(a for a in addresses
                       if site.persistent_page(a) is sticky_page)
        site_rolls.clear()
        engine = BqtEngine(site, config=EngineConfig(max_attempts=5), seed=0)
        record = engine.query(address)
        assert record.attempts == 5
        rolled = {purpose: site_rolls[isp_id, purpose, address.address_id]
                  for purpose in STICKY_PURPOSES}
        assert max(rolled.values()) == 1

    def test_zero_rate_purposes_never_roll(self, block, site_rolls):
        addresses = make_addresses(block, 120)
        for isp_id in ALL_ISPS:
            site = build_website(isp_id, served_truth(isp_id, addresses), seed=0)
            BqtEngine(site, seed=0).query_many(addresses)
        purposes = {(isp_id, purpose) for isp_id, purpose, _ in site_rolls}
        assert not purposes & ZERO_RATE_PURPOSES
        # The counter does see real rolls, zero-rate ones aside.
        assert {("att", "call"), ("centurylink", "phv"),
                ("frontier", "dropdown")} <= purposes
        assert all(count <= 1 for (_, purpose, _), count in site_rolls.items()
                   if purpose in STICKY_PURPOSES)

    @pytest.mark.parametrize("isp_id", ALL_ISPS)
    def test_alternating_addresses_match_sequential(self, block, isp_id):
        addresses = make_addresses(block, 200)
        truth = served_truth(isp_id, addresses)
        probe = build_website(isp_id, truth, seed=0)
        sticky = next(a for a in addresses if probe.persistent_page(a))
        clean = next(a for a in addresses if probe.persistent_page(a) is None)

        def pages(order, site=None):
            rngs = {a.address_id: stable_rng(8, "t", a.address_id)
                    for a in (sticky, clean)}
            seen = {sticky.address_id: [], clean.address_id: []}
            for address in order:
                # No site: a fresh one per call, so nothing is memoized.
                responder = site or build_website(isp_id, truth, seed=0)
                seen[address.address_id].append(responder.respond(
                    address, rngs[address.address_id],
                    extra_error_probability=0.2).page_kind)
            return seen

        sequential = pages([sticky] * 4 + [clean] * 4,
                           build_website(isp_id, truth, seed=0))
        alternating = pages([sticky, clean] * 4,
                            build_website(isp_id, truth, seed=0))
        assert sequential == alternating == pages([sticky, clean] * 4)
        assert set(sequential[sticky.address_id]) == {
            probe.persistent_page(sticky)}
