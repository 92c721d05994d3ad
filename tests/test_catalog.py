"""Unit tests for the name-server catalog (replication schema)."""

import random

import pytest

from repro.errors import CatalogError
from repro.nameserver.catalog import Catalog, ItemSpec


def make_catalog(n=4, sites=("s1", "s2", "s3")):
    catalog = Catalog()
    for index in range(n):
        catalog.add_item(f"x{index}", placement=list(sites))
    return catalog


class TestItemSpec:
    def test_votes_and_degree(self):
        spec = ItemSpec("x", placement={"s1": 2, "s2": 1})
        assert spec.total_votes == 3
        assert spec.replication_degree == 2
        assert spec.sites == ["s1", "s2"]

    def test_default_quorums_are_majorities(self):
        spec = ItemSpec("x", placement={"s1": 1, "s2": 1, "s3": 1})
        assert spec.effective_read_quorum() == 2
        assert spec.effective_write_quorum() == 2

    def test_explicit_quorums_respected(self):
        spec = ItemSpec("x", placement={"s1": 1, "s2": 1, "s3": 1},
                        read_quorum=1, write_quorum=3)
        assert spec.effective_read_quorum() == 1
        assert spec.effective_write_quorum() == 3
        spec.validate()

    def test_validate_rejects_no_copies(self):
        with pytest.raises(CatalogError):
            ItemSpec("x").validate()

    def test_validate_rejects_nonpositive_votes(self):
        with pytest.raises(CatalogError):
            ItemSpec("x", placement={"s1": 0}).validate()

    def test_validate_rejects_rw_overlap_violation(self):
        spec = ItemSpec("x", placement={"s1": 1, "s2": 1, "s3": 1, "s4": 1},
                        read_quorum=1, write_quorum=3)
        with pytest.raises(CatalogError, match="r\\+w"):
            spec.validate()

    def test_validate_rejects_ww_overlap_violation(self):
        spec = ItemSpec("x", placement={"s1": 1, "s2": 1, "s3": 1, "s4": 1},
                        read_quorum=3, write_quorum=2)
        with pytest.raises(CatalogError, match="2w"):
            spec.validate()

    def test_validate_rejects_out_of_range_quorums(self):
        spec = ItemSpec("x", placement={"s1": 1}, read_quorum=2, write_quorum=1)
        with pytest.raises(CatalogError):
            spec.validate()

    def test_weighted_votes_change_quorum(self):
        spec = ItemSpec("x", placement={"s1": 3, "s2": 1, "s3": 1})
        assert spec.total_votes == 5
        assert spec.effective_write_quorum() == 3  # s1 alone

    def test_single_copy_valid(self):
        spec = ItemSpec("x", placement={"s1": 1})
        spec.validate()
        assert spec.effective_read_quorum() == 1


class TestCatalogItems:
    def test_add_and_lookup(self):
        catalog = Catalog()
        catalog.add_item("a", initial_value=5, placement=["s1"])
        assert catalog.item("a").initial_value == 5
        assert "a" in catalog
        assert len(catalog) == 1

    def test_duplicate_item_rejected(self):
        catalog = Catalog()
        catalog.add_item("a", placement=["s1"])
        with pytest.raises(CatalogError):
            catalog.add_item("a")

    def test_unknown_item_rejected(self):
        with pytest.raises(CatalogError):
            Catalog().item("ghost")

    def test_placement_from_iterable_gets_unit_votes(self):
        catalog = Catalog()
        spec = catalog.add_item("a", placement=["s1", "s2"])
        assert spec.placement == {"s1": 1, "s2": 1}

    def test_placement_from_dict_keeps_votes(self):
        catalog = Catalog()
        spec = catalog.add_item("a", placement={"s1": 2})
        assert spec.placement == {"s1": 2}

    def test_item_names_sorted(self):
        catalog = Catalog()
        catalog.add_item("b", placement=["s1"])
        catalog.add_item("a", placement=["s1"])
        assert catalog.item_names() == ["a", "b"]


class TestFragments:
    def test_define_fragment_groups_items(self):
        catalog = make_catalog()
        fragment = catalog.define_fragment("f1", ["x0", "x1"], "first half")
        assert fragment.items == ["x0", "x1"]
        assert catalog.item("x0").fragment == "f1"
        assert catalog.fragment("f1").description == "first half"

    def test_fragment_via_add_item(self):
        catalog = Catalog()
        catalog.add_item("a", placement=["s1"], fragment="accounts")
        assert catalog.fragment("accounts").items == ["a"]

    def test_duplicate_fragment_rejected(self):
        catalog = make_catalog()
        catalog.define_fragment("f1", ["x0"])
        with pytest.raises(CatalogError):
            catalog.define_fragment("f1", ["x1"])

    def test_fragment_of_unknown_item_rejected(self):
        catalog = make_catalog()
        with pytest.raises(CatalogError):
            catalog.define_fragment("f1", ["ghost"])

    def test_unknown_fragment_rejected(self):
        with pytest.raises(CatalogError):
            make_catalog().fragment("ghost")


class TestPlacementHelpers:
    def test_full_replication(self):
        catalog = make_catalog(sites=("s1",))
        catalog.place_full_replication(["a", "b"], votes=2)
        for spec in catalog.items():
            assert spec.placement == {"a": 2, "b": 2}

    def test_full_replication_empty_sites_rejected(self):
        with pytest.raises(CatalogError):
            make_catalog().place_full_replication([])

    def test_round_robin_balanced_and_deterministic(self):
        catalog = make_catalog(n=8)
        catalog.place_round_robin(["a", "b", "c", "d"], degree=2)
        placements = [tuple(spec.sites) for spec in catalog.items()]
        assert placements == [tuple(sorted(p)) for p in placements]
        counts = {}
        for spec in catalog.items():
            assert spec.replication_degree == 2
            for site in spec.sites:
                counts[site] = counts.get(site, 0) + 1
        assert max(counts.values()) - min(counts.values()) == 0

    def test_round_robin_bad_degree_rejected(self):
        catalog = make_catalog()
        with pytest.raises(CatalogError):
            catalog.place_round_robin(["a", "b"], degree=3)
        with pytest.raises(CatalogError):
            catalog.place_round_robin(["a", "b"], degree=0)

    def test_random_placement_degree_respected(self):
        catalog = make_catalog(n=10)
        catalog.place_random(["a", "b", "c", "d"], degree=3, rng=random.Random(0))
        for spec in catalog.items():
            assert spec.replication_degree == 3

    def test_queries(self):
        catalog = Catalog()
        catalog.add_item("a", placement=["s1", "s2"])
        catalog.add_item("b", placement=["s2"])
        assert catalog.sites_holding("a") == ["s1", "s2"]
        assert catalog.all_sites() == ["s1", "s2"]


class TestValidationAndRoundtrip:
    def test_empty_catalog_invalid(self):
        with pytest.raises(CatalogError):
            Catalog().validate()

    def test_unknown_site_in_universe_rejected(self):
        catalog = make_catalog(sites=("s1", "ghost"))
        with pytest.raises(CatalogError, match="unknown sites"):
            catalog.validate(known_sites=["s1"])

    def test_valid_catalog_passes(self):
        make_catalog().validate(known_sites=["s1", "s2", "s3"])

    def test_roundtrip_preserves_schema(self):
        catalog = make_catalog()
        catalog.item("x0").read_quorum = 2
        catalog.item("x0").write_quorum = 2
        catalog.define_fragment("f", ["x1", "x2"], "desc")
        data = catalog.to_dict()
        clone = Catalog.from_dict(data)
        assert clone.item_names() == catalog.item_names()
        assert clone.item("x0").read_quorum == 2
        assert clone.item("x1").fragment == "f"
        assert clone.fragment("f").description == "desc"
        assert clone.item("x3").placement == catalog.item("x3").placement
