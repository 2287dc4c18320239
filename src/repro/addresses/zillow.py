"""The Zillow-like residential address feed.

The paper obtains non-CAF residential addresses from a private Zillow
dataset under a data-use agreement (Section 3.3). This class is the
synthetic stand-in: given a world's census blocks it can enumerate the
residential addresses in a block that are *not* CAF-certified — exactly
the lookup the Q3 collection performs ("we enumerate all CAF addresses
from the USAC dataset and non-CAF addresses from a dataset of
residential addresses provided by Zillow").
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.addresses.models import StreetAddress

__all__ = ["ZillowFeed"]


class ZillowFeed:
    """An indexed collection of residential addresses.

    A world's feed is lazy: it is handed the world's cell index
    (``realize_block(block_geoid)`` and ``realize_all()``).
    :meth:`in_block` then materializes just that block, and the
    whole-feed views (``len``, ``in``, :meth:`lookup`, :meth:`blocks`,
    :meth:`summary`) materialize every block first.
    """

    def __init__(self, addresses: Iterable[StreetAddress] = (), cells=None):
        self._by_block: dict[str, list[StreetAddress]] = {}
        self._by_id: dict[str, StreetAddress] = {}
        self._cells = cells
        for address in addresses:
            if address.address_id in self._by_id:
                raise ValueError(f"duplicate address id {address.address_id!r}")
            self._by_id[address.address_id] = address
            self._by_block.setdefault(address.block_geoid, []).append(address)

    def __len__(self) -> int:
        self._realize_all()
        return len(self._by_id)

    def __contains__(self, address_id: str) -> bool:
        self._realize_all()
        return address_id in self._by_id

    def lookup(self, address_id: str) -> StreetAddress:
        """Return the address with ``address_id``."""
        self._realize_all()
        try:
            return self._by_id[address_id]
        except KeyError:
            raise KeyError(f"unknown address id {address_id!r}") from None

    def in_block(self, block_geoid: str) -> list[StreetAddress]:
        """All feed addresses in a census block (empty list if none)."""
        if self._cells is not None and block_geoid not in self._by_block:
            self._cells.realize_block(block_geoid)
        return list(self._by_block.get(block_geoid, []))

    def non_caf_in_block(self, block_geoid: str) -> list[StreetAddress]:
        """Non-CAF feed addresses in a census block."""
        return [a for a in self.in_block(block_geoid) if not a.is_caf]

    def blocks(self) -> list[str]:
        """Block GEOIDs with at least one address, sorted."""
        self._realize_all()
        return sorted(self._by_block)

    def publish(self, block_geoid: str, addresses: list[StreetAddress]) -> None:
        """Record one materialized block's addresses."""
        if addresses:
            self._by_id.update((a.address_id, a) for a in addresses)
            self._by_block[block_geoid] = list(addresses)

    def seal(self, block_order: Iterable[str]) -> None:
        """Every block is published: re-key the feed block by block in
        ``block_order`` (which names every block with addresses) and
        stop consulting the cells."""
        self._by_block = {block: self._by_block[block]
                          for block in block_order if block in self._by_block}
        self._by_id = {address.address_id: address
                       for addresses in self._by_block.values()
                       for address in addresses}
        self._cells = None

    @staticmethod
    def merge(feeds: Iterable["ZillowFeed"]) -> "ZillowFeed":
        """Combine several per-state feeds into one."""
        combined: list[StreetAddress] = []
        for feed in feeds:
            feed._realize_all()
            combined.extend(feed._by_id.values())
        return ZillowFeed(combined)

    def summary(self) -> Mapping[str, int]:
        """Counts useful for logging: addresses, blocks, CAF/non-CAF."""
        self._realize_all()
        caf = sum(1 for a in self._by_id.values() if a.is_caf)
        return {
            "addresses": len(self._by_id),
            "blocks": len(self._by_block),
            "caf": caf,
            "non_caf": len(self._by_id) - caf,
        }

    def _realize_all(self) -> None:
        if self._cells is not None:
            self._cells.realize_all()
