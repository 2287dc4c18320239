"""Per-ISP website simulators.

Each simulator reproduces the storefront behaviour the paper's appendix
documents for that ISP, driven by two inputs: the ground-truth service
state of the queried address, and stochastic failure modes calibrated
to Table 2. Failures come in two flavours:

* *persistent* — a property of the (ISP, address) pair: the address
  never appears in the dropdown no matter how often it is retyped (the
  paper re-queried 8,164 such Frontier addresses "at least two times to
  verify that the error persisted"). Implemented as a deterministic
  hash draw so retries reproduce the failure. The three sticky checks
  (dropdown miss, persistent human verification, persistent error)
  make one verdict, :meth:`IspWebsite.persistent_page`, which
  ``respond`` memoizes for the last address it saw: a retry of the same
  address reuses the verdict instead of re-rolling it. The memo holds
  one entry, so an interleaved driver that alternates addresses just
  recomputes the same pure value. A purpose whose rate is zero is never
  rolled, since a draw in [0, 1) cannot fall below it.
* *transient* — bot-detection walls, human-verification challenges,
  flaky UI clicks. Implemented as per-attempt draws, amplified by the
  suspicion of the proxy endpoint in use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.addresses.models import StreetAddress
from repro.bqt.responses import PageKind, WebsiteResponse
from repro.isp.deployment import GroundTruth, ServiceTruth
from repro.stats.distributions import stable_rng

__all__ = ["IspWebsite", "build_website"]


@dataclass(frozen=True)
class FailureRates:
    """Failure-mode probabilities for one website."""

    persistent_dropdown_miss: float = 0.0
    persistent_dropdown_miss_by_state: dict[str, float] | None = None
    call_to_order_if_served: float = 0.0
    human_verification: float = 0.0
    # Per-address sticky failures: a human-verification wall or a broken
    # page that every retry hits again (the paper verified such errors
    # "persisted" across repeated queries).
    persistent_human_verification: float = 0.0
    persistent_error: float = 0.0
    transient_error: float = 0.02
    address_not_found_if_unserved: float = 0.0

    def dropdown_rate(self, state_abbreviation: str) -> float:
        """Persistent dropdown-miss rate, with per-state overrides."""
        if self.persistent_dropdown_miss_by_state:
            override = self.persistent_dropdown_miss_by_state.get(state_abbreviation)
            if override is not None:
                return override
        return self.persistent_dropdown_miss


class IspWebsite:
    """A simulated ISP storefront."""

    # ``(address_id, persistent_page)`` of the last address ``respond``
    # served. A class-level default, so websites pickled before the
    # memo existed load without it.
    _sticky: tuple[str | None, PageKind | None] = (None, None)

    def __init__(
        self,
        isp_id: str,
        ground_truth: GroundTruth,
        rates: FailureRates,
        bot_hostility: float,
        seed: int = 0,
    ):
        if not 0.0 <= bot_hostility <= 1.0:
            raise ValueError("bot_hostility must be in [0, 1]")
        self.isp_id = isp_id
        self.bot_hostility = bot_hostility
        self._truth = ground_truth
        self._rates = rates
        self._seed = seed

    # ------------------------------------------------------------------
    # Deterministic per-address properties
    # ------------------------------------------------------------------
    def _address_roll(self, address: StreetAddress, purpose: str) -> float:
        """A stable uniform draw for one (address, purpose) pair."""
        rng = stable_rng(self._seed, "site", self.isp_id, purpose, address.address_id)
        return float(rng.random())

    def has_persistent_dropdown_miss(self, address: StreetAddress) -> bool:
        """Whether this address never resolves in the dropdown."""
        rate = self._rates.dropdown_rate(address.state_abbreviation)
        return rate > 0 and self._address_roll(address, "dropdown") < rate

    def is_call_to_order(self, address: StreetAddress, truth: ServiceTruth) -> bool:
        """Whether the site deflects this (served) address to a phone call."""
        rate = self._rates.call_to_order_if_served
        if not truth.serves or rate <= 0:
            return False
        return self._address_roll(address, "call") < rate

    def persistent_page(self, address: StreetAddress) -> PageKind | None:
        """The page every attempt on ``address`` hits, if any: a
        dropdown miss, a persistent human-verification wall, or a
        persistent error page, checked in that order."""
        if self.has_persistent_dropdown_miss(address):
            return PageKind.DROPDOWN_MISS
        rates = self._rates
        if (rates.persistent_human_verification
                and self._address_roll(address, "phv")
                < rates.persistent_human_verification):
            return PageKind.HUMAN_VERIFICATION
        if (rates.persistent_error
                and self._address_roll(address, "perr") < rates.persistent_error):
            return PageKind.ERROR_PAGE
        return None

    # ------------------------------------------------------------------
    def respond(
        self,
        address: StreetAddress,
        rng: np.random.Generator,
        extra_error_probability: float = 0.0,
    ) -> WebsiteResponse:
        """Serve one query attempt for ``address``."""
        truth = self._truth.truth_for(self.isp_id, address.address_id)

        memo_id, page = self._sticky
        if memo_id != address.address_id:
            page = self.persistent_page(address)
            self._sticky = (address.address_id, page)
        if page is not None:
            return WebsiteResponse(page)
        if self._rates.human_verification and rng.random() < (
            self._rates.human_verification + extra_error_probability
        ):
            return WebsiteResponse(PageKind.HUMAN_VERIFICATION)
        if rng.random() < self._rates.transient_error + extra_error_probability:
            return WebsiteResponse(PageKind.ERROR_PAGE)
        if self.is_call_to_order(address, truth):
            return WebsiteResponse(PageKind.CALL_TO_ORDER)
        return self._respond_from_truth(address, truth)

    def _respond_from_truth(
        self, address: StreetAddress, truth: ServiceTruth
    ) -> WebsiteResponse:
        if not truth.serves:
            not_found_rate = self._rates.address_not_found_if_unserved
            if not_found_rate and self._address_roll(address, "nf") < not_found_rate:
                return WebsiteResponse(PageKind.ADDRESS_NOT_FOUND)
            return WebsiteResponse(PageKind.NO_SERVICE_PAGE)
        if truth.existing_subscriber and not truth.plans:
            return WebsiteResponse(PageKind.UNKNOWN_PLAN_PAGE)
        page = (PageKind.EXISTING_SUBSCRIBER_PAGE if truth.existing_subscriber
                else PageKind.PLANS_PAGE)
        return WebsiteResponse(page, plans=truth.plans)


class CenturyLinkWebsite(IspWebsite):
    """CenturyLink, including the Brightspeed hand-off.

    CenturyLink sold some CAF obligations to Brightspeed; for a share
    of served addresses centurylink.com redirects to brightspeed.com,
    which then displays the plans (paper Appendix 8.3, Figures 13b/13d).
    """

    BRIGHTSPEED_SHARE = 0.35

    def _respond_from_truth(
        self, address: StreetAddress, truth: ServiceTruth
    ) -> WebsiteResponse:
        if truth.serves and self._address_roll(address, "bspd") < self.BRIGHTSPEED_SHARE:
            return WebsiteResponse(
                PageKind.REDIRECT_BRIGHTSPEED, follow_up_site="brightspeed"
            )
        return super()._respond_from_truth(address, truth)

    def respond_brightspeed(
        self, address: StreetAddress, rng: np.random.Generator
    ) -> WebsiteResponse:
        """The follow-up query on brightspeed.com."""
        truth = self._truth.truth_for(self.isp_id, address.address_id)
        if rng.random() < 0.02:
            return WebsiteResponse(PageKind.ERROR_PAGE)
        if not truth.serves:
            return WebsiteResponse(PageKind.NO_SERVICE_PAGE)
        return WebsiteResponse(PageKind.PLANS_PAGE, plans=truth.plans)


class ConsolidatedWebsite(IspWebsite):
    """Consolidated Communications, including the Fidium redirect.

    Gigabit-class addresses are handed to the Fidium Fiber purchasing
    site (Figures 16g/16h); the paper logs those as serviceable with
    the Fidium plans.
    """

    def _respond_from_truth(
        self, address: StreetAddress, truth: ServiceTruth
    ) -> WebsiteResponse:
        if truth.serves and truth.max_download_mbps >= 1000:
            return WebsiteResponse(PageKind.REDIRECT_FIDIUM, plans=truth.plans)
        return super()._respond_from_truth(address, truth)


_FAILURE_RATES: dict[str, FailureRates] = {
    # AT&T: the flakiest dropdown, a distinctive "Call to Order"
    # deflection, and the heaviest bot detection (Table 2: 43,781
    # dropdown misses, 10,130 call-to-order candidates, 7,606 empty).
    "att": FailureRates(
        persistent_dropdown_miss=0.13,
        call_to_order_if_served=0.10,
        persistent_error=0.022,
        transient_error=0.02,
    ),
    # CenturyLink: clean dropdown; all observed failures were
    # human-verification walls (Table 2: 6,939, all empty-traceback) —
    # the paper could not query 10% of addresses in 215 CBGs because
    # the wall persisted.
    "centurylink": FailureRates(
        human_verification=0.01,
        persistent_human_verification=0.05,
        transient_error=0.0,
    ),
    # Frontier: persistent dropdown misses concentrated in Wisconsin
    # CBGs (8,164 addresses, Appendix 8.1), plus clicking failures.
    "frontier": FailureRates(
        persistent_dropdown_miss=0.05,
        persistent_dropdown_miss_by_state={"WI": 0.17},
        persistent_error=0.03,
        transient_error=0.03,
    ),
    # Consolidated: the address-lookup tool very often offers no
    # suggestion (Table 2: 15,510 of 15,551 errors are dropdown), and
    # resolved-but-rejected addresses surface as "address not found".
    "consolidated": FailureRates(
        persistent_dropdown_miss=0.28,
        address_not_found_if_unserved=0.25,
        transient_error=0.01,
    ),
    "xfinity": FailureRates(persistent_dropdown_miss=0.02, transient_error=0.02),
    "spectrum": FailureRates(persistent_dropdown_miss=0.02, transient_error=0.02),
}

_BOT_HOSTILITY = {
    "att": 1.0, "centurylink": 0.4, "frontier": 0.45,
    "consolidated": 0.3, "xfinity": 0.2, "spectrum": 0.2,
}

_WEBSITE_CLASSES = {
    "centurylink": CenturyLinkWebsite,
    "consolidated": ConsolidatedWebsite,
}


def build_website(isp_id: str, ground_truth: GroundTruth, seed: int = 0) -> IspWebsite:
    """Construct the calibrated website simulator for one ISP."""
    rates = _FAILURE_RATES.get(isp_id)
    if rates is None:
        raise KeyError(f"no website simulator for ISP {isp_id!r}")
    cls = _WEBSITE_CLASSES.get(isp_id, IspWebsite)
    return cls(
        isp_id=isp_id,
        ground_truth=ground_truth,
        rates=rates,
        bot_hostility=_BOT_HOSTILITY[isp_id],
        seed=seed,
    )
