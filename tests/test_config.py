"""Unit tests for RainbowConfig: builders, validation, persistence."""

import pytest

from repro.core.config import (
    FaultConfig,
    NetworkConfig,
    ProtocolConfig,
    RainbowConfig,
    SiteConfig,
)
from repro.errors import ConfigurationError
from repro.net.faults import FaultSchedule
from repro.net.latency import (
    ConstantLatency,
    ExponentialLatency,
    LanWanLatency,
    UniformLatency,
)


class TestNetworkConfig:
    @pytest.mark.parametrize(
        "kind,params,expected",
        [
            ("constant", {"value": 2.0}, ConstantLatency),
            ("uniform", {"low": 0.5, "high": 1.0}, UniformLatency),
            ("exponential", {"mean": 1.0}, ExponentialLatency),
            ("lanwan", {}, LanWanLatency),
        ],
    )
    def test_build_latency_models(self, kind, params, expected):
        config = NetworkConfig(latency=kind, latency_params=params)
        assert isinstance(config.build_latency_model(), expected)

    def test_unknown_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(latency="warp").build_latency_model()


class TestProtocolConfig:
    def test_defaults_valid(self):
        ProtocolConfig().validate()

    @pytest.mark.parametrize("field,value", [("rcp", "XX"), ("ccp", "XX"), ("acp", "XX")])
    def test_unknown_protocols_rejected(self, field, value):
        config = ProtocolConfig()
        setattr(config, field, value)
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_case_insensitive_protocol_names(self):
        ProtocolConfig(rcp="qc", ccp="tso", acp="3pc").validate()

    def test_nonpositive_timeouts_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(op_timeout=0).validate()

    @pytest.mark.parametrize("point", ["after_precommit", "after_votes", None])
    def test_known_failpoints_accepted(self, point):
        ProtocolConfig(failpoint=point, failpoint_arms=1).validate()

    def test_misspelt_failpoint_rejected(self):
        data = RainbowConfig.quick(n_sites=2, n_items=4).to_dict()
        data["protocols"]["failpoint"] = "after_vote"
        data["protocols"]["failpoint_arms"] = 1
        with pytest.raises(ConfigurationError, match="after_vote"):
            RainbowConfig.from_dict(data).validate()

    def test_negative_failpoint_arms_rejected(self):
        with pytest.raises(ConfigurationError, match="failpoint_arms"):
            ProtocolConfig(failpoint="after_votes", failpoint_arms=-1).validate()


class TestQuickBuilder:
    def test_quick_shape(self):
        config = RainbowConfig.quick(n_sites=4, n_items=8, replication_degree=2)
        assert config.site_names() == ["site1", "site2", "site3", "site4"]
        catalog = config.catalog()
        assert len(catalog) == 8
        assert all(spec.replication_degree == 2 for spec in catalog.items())
        config.validate()

    def test_quick_full_replication_by_default(self):
        config = RainbowConfig.quick(n_sites=3, n_items=4)
        assert all(spec.replication_degree == 3 for spec in config.catalog().items())

    def test_quick_sites_per_host(self):
        config = RainbowConfig.quick(n_sites=4, sites_per_host=2)
        hosts = [site.host for site in config.sites]
        assert hosts == ["host1", "host1", "host2", "host2"]

    def test_quick_overrides(self):
        config = RainbowConfig.quick(n_sites=2, n_items=4, seed=99, settle_time=5.0)
        assert config.seed == 99
        assert config.settle_time == 5.0

    def test_quick_unknown_override_rejected(self):
        with pytest.raises(ConfigurationError):
            RainbowConfig.quick(n_sites=2, n_items=2, nonsense=1)

    def test_quick_bad_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            RainbowConfig.quick(n_sites=0)
        with pytest.raises(ConfigurationError):
            RainbowConfig.quick(n_items=0)


class TestValidation:
    def test_no_sites_rejected(self):
        with pytest.raises(ConfigurationError):
            RainbowConfig().validate()

    def test_duplicate_site_names_rejected(self):
        config = RainbowConfig.quick(n_sites=2, n_items=2)
        config.sites.append(SiteConfig(name="site1", host="hostX"))
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_catalog_site_universe_checked(self):
        config = RainbowConfig.quick(n_sites=2, n_items=2)
        catalog = config.catalog()
        catalog.item("x1").placement["ghost"] = 1
        config.set_catalog(catalog)
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_fault_targets_checked(self):
        config = RainbowConfig.quick(n_sites=2, n_items=2)
        config.faults.schedule.crashes.append(("ghost", 5.0))
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_nameserver_fault_target_allowed(self):
        config = RainbowConfig.quick(n_sites=2, n_items=2)
        config.faults.schedule.crashes.append(("nameserver", 5.0))
        config.validate()

    def test_random_faults_need_mttf(self):
        config = RainbowConfig.quick(n_sites=2, n_items=2)
        config.faults.random_targets = ["site1"]
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_negative_settle_rejected(self):
        config = RainbowConfig.quick(n_sites=2, n_items=2, settle_time=-1)
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_hosts_include_nameserver(self):
        config = RainbowConfig.quick(n_sites=2, n_items=2)
        assert "ns-host" in config.hosts()


class TestPersistence:
    def test_roundtrip_through_dict(self):
        config = RainbowConfig.quick(n_sites=3, n_items=6, replication_degree=2, seed=5)
        config.protocols.ccp = "TSO"
        config.protocols.ccp_options = {"wait_timeout": 33.0}
        config.faults = FaultConfig(
            schedule=FaultSchedule(
                crashes=[("site1", 10.0)],
                recoveries=[("site1", 20.0)],
                partitions=[(5.0, [["host1"], ["host2"]])],
                heals=[30.0],
                link_cuts=[("host1", "host2", 12.0, 18.0)],
                flaky_links=[("host1", "host2", 40.0, 60.0, 0.2, 0.1)],
            ),
            random_targets=["site2"],
            mttf=100.0,
            mttr=10.0,
            horizon=500.0,
        )
        clone = RainbowConfig.from_dict(config.to_dict())
        assert clone.site_names() == config.site_names()
        assert clone.protocols.ccp == "TSO"
        assert clone.protocols.ccp_options == {"wait_timeout": 33.0}
        assert clone.seed == 5
        assert clone.faults.schedule.crashes == [("site1", 10.0)]
        assert clone.faults.schedule.partitions == [(5.0, [["host1"], ["host2"]])]
        assert clone.faults.schedule.link_cuts == [("host1", "host2", 12.0, 18.0)]
        assert clone.faults.schedule.flaky_links == [
            ("host1", "host2", 40.0, 60.0, 0.2, 0.1)
        ]
        assert clone.faults.mttf == 100.0
        assert clone.catalog().item_names() == config.catalog().item_names()

    @pytest.mark.parametrize("key", ["rcp_options", "acp_options"])
    def test_removed_protocol_key_is_named(self, key):
        data = RainbowConfig.quick(n_sites=2, n_items=4).to_dict()
        data["protocols"][key] = {}
        with pytest.raises(ConfigurationError, match=key):
            RainbowConfig.from_dict(data)

    def test_failpoint_round_trips(self):
        config = RainbowConfig.quick(n_sites=2, n_items=4)
        config.protocols.failpoint = "after_votes"
        config.protocols.failpoint_arms = 2
        clone = RainbowConfig.from_dict(config.to_dict())
        assert (clone.protocols.failpoint, clone.protocols.failpoint_arms) == (
            "after_votes",
            2,
        )

    def test_save_load_file(self, tmp_path):
        config = RainbowConfig.quick(n_sites=2, n_items=4, seed=77)
        path = tmp_path / "session.json"
        config.save(path)
        loaded = RainbowConfig.load(path)
        assert loaded.seed == 77
        assert loaded.site_names() == config.site_names()
        loaded.validate()

    def test_saved_json_is_readable(self, tmp_path):
        import json

        config = RainbowConfig.quick(n_sites=2, n_items=2)
        path = tmp_path / "c.json"
        config.save(path)
        data = json.loads(path.read_text())
        assert "sites" in data and "protocols" in data
