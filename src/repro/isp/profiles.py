"""Ground-truth ISP behaviour profiles.

A profile answers, for one ISP: *does it actually serve a given
certified address, and what plans does it advertise there?* The paper
can only estimate these quantities; here they are generative parameters
calibrated to the paper's estimates so the full pipeline (sampling →
BQT querying → weighted metrics) can be verified end-to-end against a
known truth.

Calibration sources:

* Serviceability: Section 4.1 — AT&T 31.53%, Frontier 70.71%,
  CenturyLink 90.42%, Consolidated 83.95%; AT&T's rate rises strongly
  with population density (Figure 3) except in Mississippi; per-state
  anomalies: CenturyLink ~0% in New Jersey, Frontier far below trend in
  Florida.
* Advertised plan mix conditional on being served: Table 1's advertised
  columns with the "0 Mbps" row removed and renormalized.
* Prices: Section 4.2 — 10 Mbps plans run $30–55/month, always below
  the $89 benchmark; higher tiers price sub-linearly in speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.isp.plans import BroadbandPlan
from repro.isp.registry import IspInfo, isp_by_id

__all__ = ["IspProfile", "PROFILES", "profile_for"]


# Representative guaranteed speeds inside each coarse Table 1 band.
_BAND_SPEEDS: Mapping[str, tuple[tuple[float, float], ...]] = {
    "11-99": ((12.0, 0.22), (18.0, 0.2), (25.0, 0.22), (40.0, 0.14),
              (50.0, 0.12), (75.0, 0.1)),
    "100-999": ((100.0, 0.45), (200.0, 0.25), (300.0, 0.2), (500.0, 0.1)),
    "1000+": ((1000.0, 0.7), (2000.0, 0.2), (5000.0, 0.1)),
}


def _band_choices(
    bands: tuple[tuple[float, float], ...]
) -> tuple[tuple[float, ...], np.ndarray]:
    speeds, weights = zip(*bands)
    return speeds, np.asarray(weights) / sum(weights)


# ``_BAND_SPEEDS`` as ``(speeds, probabilities)``, normalized once.
_BAND_CHOICES = {label: _band_choices(bands)
                 for label, bands in _BAND_SPEEDS.items()}

# Nominal marketing speeds for plans with no guaranteed minimum.
_NO_GUARANTEE_NOMINAL_MBPS = {
    "AT&T Internet Air": 75.0,
    "Frontier Internet": 25.0,
}

_EXACT_LABEL_SPEEDS = {
    "0.5": 0.5, "0.768": 0.768, "1": 1.0, "1.5": 1.5,
    "3": 3.0, "5": 5.0, "6": 6.0, "7": 7.0, "10": 10.0,
}


@dataclass(frozen=True)
class IspProfile:
    """Generative parameters for one ISP's ground-truth behaviour."""

    isp_id: str
    # Serviceability: probability an ISP actually serves a certified
    # address. Either flat (density_weight=0) or a logistic blend in
    # log10(population density).
    base_serviceability: float
    density_weight: float = 0.0
    density_midpoint_log10: float = 2.2
    density_scale_log10: float = 0.55
    serviceability_floor: float = 0.05
    serviceability_ceiling: float = 0.97
    # States where this ISP's serviceability ignores density (the paper
    # found no density correlation for AT&T in Mississippi).
    density_flat_states: frozenset[str] = frozenset()
    # Hard per-state overrides (CenturyLink New Jersey was 0%).
    state_overrides: Mapping[str, float] = field(default_factory=dict)
    # Advertised max-speed tier mix conditional on served (Table 1
    # advertised column, "0" row removed; weights need not sum to 1).
    served_tier_mix: Mapping[str, float] = field(default_factory=dict)
    # Price model: price = base + slope * log2(max(speed, 1) / 10).
    price_base_usd: float = 45.0
    price_slope_usd: float = 9.0
    price_noise_usd: float = 4.0
    upload_ratio: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.base_serviceability <= 1.0:
            raise ValueError("base_serviceability must be a probability")
        if not self.served_tier_mix:
            raise ValueError(f"profile {self.isp_id} has an empty tier mix")
        if any(weight < 0 for weight in self.served_tier_mix.values()):
            raise ValueError("tier-mix weights must be non-negative")
        object.__setattr__(
            self, "state_overrides", MappingProxyType(dict(self.state_overrides))
        )
        object.__setattr__(
            self, "served_tier_mix", MappingProxyType(dict(self.served_tier_mix))
        )
        # The tier draw's labels and probabilities, normalized once.
        labels = tuple(self.served_tier_mix)
        weights = np.asarray([self.served_tier_mix[label] for label in labels])
        object.__setattr__(self, "_tier_labels", labels)
        object.__setattr__(self, "_tier_probabilities", weights / weights.sum())

    @property
    def info(self) -> IspInfo:
        """The registry entry for this ISP."""
        return isp_by_id(self.isp_id)

    # ------------------------------------------------------------------
    # Serviceability
    # ------------------------------------------------------------------
    def serviceability_probability(
        self, state_abbreviation: str, population_density: float
    ) -> float:
        """Probability this ISP genuinely serves a certified address in
        a CBG of the given density."""
        if population_density < 0:
            raise ValueError("density must be non-negative")
        override = self.state_overrides.get(state_abbreviation)
        if override is not None:
            return override
        flat = state_abbreviation in self.density_flat_states
        if self.density_weight == 0.0 or flat:
            return self.base_serviceability
        log_density = math.log10(max(population_density, 0.1))
        logistic = 1.0 / (1.0 + math.exp(
            -(log_density - self.density_midpoint_log10) / self.density_scale_log10
        ))
        blended = ((1.0 - self.density_weight) * self.base_serviceability
                   + self.density_weight * logistic)
        return float(min(max(blended, self.serviceability_floor),
                         self.serviceability_ceiling))

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------
    def sample_tier_label(self, rng: np.random.Generator) -> str:
        """Draw a Table 1 tier label from the served mix."""
        labels = self._tier_labels
        return labels[int(rng.choice(len(labels), p=self._tier_probabilities))]

    def speed_for_label(self, label: str, rng: np.random.Generator) -> float:
        """Concrete download speed for a tier label."""
        if label in _EXACT_LABEL_SPEEDS:
            return _EXACT_LABEL_SPEEDS[label]
        if label in _BAND_CHOICES:
            speeds, probabilities = _BAND_CHOICES[label]
            return float(speeds[int(rng.choice(len(speeds), p=probabilities))])
        if label in _NO_GUARANTEE_NOMINAL_MBPS:
            return _NO_GUARANTEE_NOMINAL_MBPS[label]
        if label == "Unknown Plan":
            return 0.0
        raise ValueError(f"unknown tier label {label!r}")

    def price_for_speed(self, download_mbps: float, rng: np.random.Generator) -> float:
        """Monthly price for a plan at ``download_mbps``."""
        if download_mbps < 0:
            raise ValueError("speed must be non-negative")
        base = (self.price_base_usd
                + self.price_slope_usd * math.log2(max(download_mbps, 1.0) / 10.0))
        noisy = base + float(rng.normal(0.0, self.price_noise_usd))
        return float(min(max(noisy, 20.0), 120.0))

    def make_plan(self, label: str, rng: np.random.Generator) -> BroadbandPlan | None:
        """Build the top advertised plan for a tier label.

        Returns ``None`` for "Unknown Plan" — the address is served (an
        active subscriber exists) but the website displays no tiers, so
        there is no plan object to advertise.
        """
        if label == "Unknown Plan":
            return None
        speed = self.speed_for_label(label, rng)
        guaranteed = label not in _NO_GUARANTEE_NOMINAL_MBPS
        name = label if not guaranteed else f"{self.info.name} {speed:g} Mbps"
        technology = self.info.primary_technology
        if guaranteed and speed >= 1000:
            technology = "fiber"
        return BroadbandPlan(
            name=name,
            download_mbps=speed,
            upload_mbps=max(speed * self.upload_ratio, 0.128),
            monthly_price_usd=self.price_for_speed(speed, rng),
            technology=technology,
            is_speed_guaranteed=guaranteed,
        )

    def lower_tier_plans(
        self, top: BroadbandPlan, rng: np.random.Generator
    ) -> list[BroadbandPlan]:
        """Cheaper plans below the top tier, as real storefronts show."""
        if not top.is_speed_guaranteed or top.download_mbps <= 10.0:
            return []
        candidates = [speed for speed in (10.0, 25.0, 50.0, 100.0, 500.0)
                      if speed < top.download_mbps]
        count = min(len(candidates), int(rng.integers(0, 3)))
        chosen = sorted(candidates[-count:]) if count else []
        return [
            BroadbandPlan(
                name=f"{self.info.name} {speed:g} Mbps",
                download_mbps=speed,
                upload_mbps=max(speed * self.upload_ratio, 0.128),
                monthly_price_usd=self.price_for_speed(speed, rng),
                technology=self.info.primary_technology,
            )
            for speed in chosen
        ]


def _att_profile() -> IspProfile:
    # Table 1 advertised column minus the unserved row. Aggregate
    # serviceability ≈ 32%; density logistic concentrates service near
    # cities (Figure 3) with Mississippi flat (Section 4.1).
    return IspProfile(
        isp_id="att",
        base_serviceability=0.315,
        density_weight=0.85,
        density_midpoint_log10=3.15,
        density_scale_log10=0.6,
        serviceability_floor=0.10,
        density_flat_states=frozenset({"MS"}),
        served_tier_mix={
            "AT&T Internet Air": 5.052,
            "0.768": 1.153,
            "1": 0.976,
            "3": 1.786,
            "5": 2.479,
            "10": 3.135,
            "11-99": 9.628,
            "100-999": 0.359,
            "1000+": 7.767,
        },
        price_base_usd=55.0,
        price_slope_usd=7.0,
    )


def _centurylink_profile() -> IspProfile:
    return IspProfile(
        isp_id="centurylink",
        base_serviceability=0.904,
        density_weight=0.1,
        state_overrides={"NJ": 0.0},
        served_tier_mix={
            "0.5": 0.298,
            "1.5": 1.996,
            "3": 15.036,
            "6": 5.664,
            "10": 32.520,
            "11-99": 34.145,
            "100-999": 1.780,
        },
        price_base_usd=50.0,
        price_slope_usd=8.0,
    )


def _frontier_profile() -> IspProfile:
    return IspProfile(
        isp_id="frontier",
        base_serviceability=0.71,
        density_weight=0.15,
        state_overrides={"FL": 0.2},
        served_tier_mix={
            "Frontier Internet": 53.255,
            "Unknown Plan": 12.138,
            "100-999": 0.098,
            "1000+": 3.895,
        },
        price_base_usd=50.0,
        price_slope_usd=8.0,
    )


def _consolidated_profile() -> IspProfile:
    return IspProfile(
        isp_id="consolidated",
        base_serviceability=0.84,
        density_weight=0.1,
        served_tier_mix={
            "3": 0.027,
            "7": 0.177,
            "10": 12.477,
            "11-99": 42.323,
            "100-999": 1.159,
            "1000+": 29.295,
        },
        price_base_usd=45.0,
        price_slope_usd=8.0,
    )


def _xfinity_profile() -> IspProfile:
    # Cable competitor: high availability where present, fast plans.
    return IspProfile(
        isp_id="xfinity",
        base_serviceability=0.96,
        served_tier_mix={"11-99": 5.0, "100-999": 55.0, "1000+": 40.0},
        price_base_usd=60.0,
        price_slope_usd=6.0,
        upload_ratio=0.05,
    )


def _spectrum_profile() -> IspProfile:
    return IspProfile(
        isp_id="spectrum",
        base_serviceability=0.96,
        served_tier_mix={"11-99": 4.0, "100-999": 66.0, "1000+": 30.0},
        price_base_usd=55.0,
        price_slope_usd=6.0,
        upload_ratio=0.05,
    )


PROFILES: Mapping[str, IspProfile] = MappingProxyType({
    profile.isp_id: profile
    for profile in (
        _att_profile(),
        _centurylink_profile(),
        _frontier_profile(),
        _consolidated_profile(),
        _xfinity_profile(),
        _spectrum_profile(),
    )
})


def profile_for(isp_id: str) -> IspProfile:
    """Return the calibrated profile for a BQT-supported ISP."""
    try:
        return PROFILES[isp_id]
    except KeyError:
        raise KeyError(
            f"no behaviour profile for {isp_id!r}; profiles exist for "
            f"{sorted(PROFILES)}"
        ) from None
