"""Database catalog: fragmentation, replication and distribution schema.

The paper's name server "stores metadata of all Rainbow sites … Also
maintained in the name server are the database fragmentation, replication
and distribution schema."  This module is that schema:

* :class:`ItemSpec` — one logical database item, its initial value, and its
  *placement*: which sites hold a copy and how many votes each copy carries
  (votes drive quorum consensus; ROWA ignores them).
* :class:`Fragment` — a named group of items (horizontal fragmentation of a
  logical table), useful for assigning whole fragments to sites.
* :class:`Catalog` — the container with placement helpers and validation.

Quorum rules (for QC): with total votes ``V``, the read quorum ``r`` and
write quorum ``w`` must satisfy ``r + w > V`` and ``2w > V``; the defaults
are majorities: ``r = w = ⌊V/2⌋ + 1``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional

from repro.errors import CatalogError

__all__ = ["ItemSpec", "Fragment", "Catalog"]


@dataclass
class ItemSpec:
    """One logical item of the distributed database."""

    name: str
    initial_value: Any = 0
    placement: dict[str, int] = field(default_factory=dict)  # site -> votes
    read_quorum: Optional[int] = None
    write_quorum: Optional[int] = None
    fragment: Optional[str] = None

    @property
    def total_votes(self) -> int:
        """Sum of votes over all copies."""
        return sum(self.placement.values())

    @property
    def sites(self) -> list[str]:
        """Sites holding a copy (sorted for deterministic iteration)."""
        return sorted(self.placement)

    @property
    def replication_degree(self) -> int:
        """Number of copies."""
        return len(self.placement)

    def effective_read_quorum(self) -> int:
        """The read quorum in force (explicit or majority default)."""
        if self.read_quorum is not None:
            return self.read_quorum
        return self.total_votes // 2 + 1

    def effective_write_quorum(self) -> int:
        """The write quorum in force (explicit or majority default)."""
        if self.write_quorum is not None:
            return self.write_quorum
        return self.total_votes // 2 + 1

    def validate(self) -> None:
        """Raise :class:`CatalogError` on an unusable spec."""
        if not self.placement:
            raise CatalogError(f"item {self.name!r} has no copies")
        for site, votes in self.placement.items():
            if votes <= 0:
                raise CatalogError(
                    f"item {self.name!r}: copy at {site!r} has non-positive votes {votes}"
                )
        votes = self.total_votes
        r = self.effective_read_quorum()
        w = self.effective_write_quorum()
        if not 1 <= r <= votes:
            raise CatalogError(f"item {self.name!r}: read quorum {r} out of range 1..{votes}")
        if not 1 <= w <= votes:
            raise CatalogError(f"item {self.name!r}: write quorum {w} out of range 1..{votes}")
        if r + w <= votes:
            raise CatalogError(
                f"item {self.name!r}: r+w = {r}+{w} must exceed total votes {votes}"
            )
        if 2 * w <= votes:
            raise CatalogError(
                f"item {self.name!r}: 2w = {2 * w} must exceed total votes {votes}"
            )


@dataclass
class Fragment:
    """A named horizontal fragment: a group of items managed together."""

    name: str
    items: list[str] = field(default_factory=list)
    description: str = ""


class Catalog:
    """The fragmentation/replication/distribution schema of one database."""

    def __init__(self):
        self._items: dict[str, ItemSpec] = {}
        self._fragments: dict[str, Fragment] = {}

    # -- item management -------------------------------------------------------
    def add_item(
        self,
        name: str,
        *,
        initial_value: Any = 0,
        placement: dict[str, int] | Iterable[str] | None = None,
        read_quorum: Optional[int] = None,
        write_quorum: Optional[int] = None,
        fragment: Optional[str] = None,
    ) -> ItemSpec:
        """Register an item.

        ``placement`` may be a ``{site: votes}`` dict or an iterable of site
        names (one vote per copy).
        """
        if name in self._items:
            raise CatalogError(f"duplicate item {name!r}")
        if placement is None:
            placement_map: dict[str, int] = {}
        elif isinstance(placement, dict):
            placement_map = dict(placement)
        else:
            placement_map = {site: 1 for site in placement}
        spec = ItemSpec(
            name=name,
            initial_value=initial_value,
            placement=placement_map,
            read_quorum=read_quorum,
            write_quorum=write_quorum,
            fragment=fragment,
        )
        self._items[name] = spec
        if fragment is not None:
            self._fragments.setdefault(fragment, Fragment(fragment)).items.append(name)
        return spec

    def item(self, name: str) -> ItemSpec:
        """Return the spec for ``name`` (raising on unknown items)."""
        try:
            return self._items[name]
        except KeyError:
            raise CatalogError(f"unknown item {name!r}") from None

    def items(self) -> list[ItemSpec]:
        """All item specs, sorted by name."""
        return [self._items[name] for name in sorted(self._items)]

    def item_names(self) -> list[str]:
        """All item names, sorted."""
        return sorted(self._items)

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def __len__(self) -> int:
        return len(self._items)

    # -- fragments -------------------------------------------------------------
    def define_fragment(self, name: str, items: Iterable[str], description: str = "") -> Fragment:
        """Group existing items into a named fragment."""
        if name in self._fragments and self._fragments[name].items:
            raise CatalogError(f"duplicate fragment {name!r}")
        item_list = list(items)
        for item_name in item_list:
            spec = self.item(item_name)
            spec.fragment = name
        fragment = Fragment(name, item_list, description)
        self._fragments[name] = fragment
        return fragment

    def fragment(self, name: str) -> Fragment:
        """Return the fragment named ``name``."""
        try:
            return self._fragments[name]
        except KeyError:
            raise CatalogError(f"unknown fragment {name!r}") from None

    def fragments(self) -> list[Fragment]:
        """All fragments, sorted by name."""
        return [self._fragments[name] for name in sorted(self._fragments)]

    # -- placement helpers -------------------------------------------------------
    def place_full_replication(self, sites: Iterable[str], votes: int = 1) -> None:
        """Give every item a copy (with ``votes`` votes) at every site."""
        site_list = list(sites)
        if not site_list:
            raise CatalogError("cannot place on an empty site list")
        for spec in self._items.values():
            spec.placement = {site: votes for site in site_list}

    def place_round_robin(self, sites: Iterable[str], degree: int) -> None:
        """Place each item at ``degree`` consecutive sites, rotating.

        Deterministic and balanced: item *i* lands on sites
        ``i, i+1, …, i+degree-1 (mod n)``.
        """
        site_list = list(sites)
        if degree < 1 or degree > len(site_list):
            raise CatalogError(
                f"replication degree {degree} out of range 1..{len(site_list)}"
            )
        for index, name in enumerate(sorted(self._items)):
            chosen = [site_list[(index + k) % len(site_list)] for k in range(degree)]
            self._items[name].placement = {site: 1 for site in chosen}

    def place_random(self, sites: Iterable[str], degree: int, rng: random.Random) -> None:
        """Place each item at ``degree`` sites drawn without replacement."""
        site_list = list(sites)
        if degree < 1 or degree > len(site_list):
            raise CatalogError(
                f"replication degree {degree} out of range 1..{len(site_list)}"
            )
        for name in sorted(self._items):
            self._items[name].placement = {site: 1 for site in rng.sample(site_list, degree)}

    # -- queries used by the protocols ----------------------------------------------
    def sites_holding(self, item_name: str) -> list[str]:
        """Sites with a copy of ``item_name`` (sorted)."""
        return self.item(item_name).sites

    def all_sites(self) -> list[str]:
        """Every site mentioned in any placement (sorted)."""
        sites: set[str] = set()
        for spec in self._items.values():
            sites.update(spec.placement)
        return sorted(sites)

    # -- reconfiguration ---------------------------------------------------------
    def with_quorums(self, name: str, read_quorum, write_quorum) -> "Catalog":
        """A validated copy with ``name``'s quorums changed; ``self`` is untouched.

        Sites share the catalog they fetched, so it is never changed in place.
        """
        spec = replace(self.item(name), read_quorum=read_quorum, write_quorum=write_quorum)
        spec.validate()
        catalog = Catalog()
        catalog._items = {**self._items, name: spec}
        catalog._fragments = dict(self._fragments)
        return catalog

    # -- validation / export -----------------------------------------------------
    def validate(self, known_sites: Iterable[str] | None = None) -> None:
        """Validate every item spec, optionally against a site universe."""
        if not self._items:
            raise CatalogError("catalog has no items")
        universe = set(known_sites) if known_sites is not None else None
        for spec in self._items.values():
            spec.validate()
            if universe is not None:
                missing = set(spec.placement) - universe
                if missing:
                    raise CatalogError(
                        f"item {spec.name!r} placed on unknown sites {sorted(missing)}"
                    )

    def to_dict(self) -> dict:
        """Serialisable form (used by config save/load and the web tier)."""
        return {
            "items": {
                name: {
                    "initial_value": spec.initial_value,
                    "placement": dict(spec.placement),
                    "read_quorum": spec.read_quorum,
                    "write_quorum": spec.write_quorum,
                    "fragment": spec.fragment,
                }
                for name, spec in self._items.items()
            },
            "fragments": {
                name: {"items": list(frag.items), "description": frag.description}
                for name, frag in self._fragments.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Catalog":
        """Inverse of :meth:`to_dict`."""
        catalog = cls()
        for name, item in data.get("items", {}).items():
            catalog.add_item(
                name,
                initial_value=item.get("initial_value", 0),
                placement=item.get("placement") or {},
                read_quorum=item.get("read_quorum"),
                write_quorum=item.get("write_quorum"),
            )
        for name, frag in data.get("fragments", {}).items():
            catalog._fragments[name] = Fragment(
                name, list(frag.get("items", [])), frag.get("description", "")
            )
            for item_name in catalog._fragments[name].items:
                if item_name in catalog:
                    catalog.item(item_name).fragment = name
        return catalog
