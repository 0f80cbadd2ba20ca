"""Tests for the sampler plugins against a synthetic host."""

import pytest

import repro.plugins  # noqa: F401
from repro.core import Ldmsd, SimEnv
from repro.core.sampler import default_sample_cost
from repro.nodefs import GpcdrModel, HostModel, HostProfile
from repro.nodefs.fs import SynthFS
from repro.sim.engine import Engine
from repro.transport.simfabric import SimFabric, SimTransport
from repro.util.errors import ConfigError


@pytest.fixture
def world():
    eng = Engine()
    clock = {"t": 0.0}
    host = HostModel("n0", clock=lambda: clock["t"], seed=2)
    gp = GpcdrModel(clock=lambda: clock["t"], fs=host.fs)
    d = Ldmsd("n0", env=SimEnv(eng), fs=host.fs,
              transports={"rdma": SimTransport(SimFabric(eng), "rdma")})
    return clock, host, gp, d


class TestMeminfoSampler:
    def test_default_metrics(self, world):
        clock, host, gp, d = world
        p = d.load_sampler("meminfo", instance="m", component_id=1)
        p.sample(0.0)
        assert p.set.get("MemTotal") == host.profile.mem_total_kb

    def test_custom_metric_list(self, world):
        _, _, _, d = world
        p = d.load_sampler("meminfo", instance="m", component_id=1,
                           metrics="MemFree,Dirty")
        assert p.set.metric_names() == ["MemFree", "Dirty"]

    def test_empty_metric_list_rejected(self, world):
        _, _, _, d = world
        with pytest.raises(ConfigError):
            d.load_sampler("meminfo", instance="m", metrics=",")

    def test_tracks_host_state(self, world):
        clock, host, _, d = world
        p = d.load_sampler("meminfo", instance="m", component_id=1)
        host.mem_active_kb = 7_000_000
        clock["t"] = 1.0
        p.sample(1.0)
        assert p.set.get("Active") == 7_000_000


class TestProcstatSampler:
    def test_aggregate_only_by_default(self, world):
        _, _, _, d = world
        p = d.load_sampler("procstat", instance="c", component_id=1)
        assert not any(m.startswith("cpu0") for m in p.set.metric_names())

    def test_percpu_discovers_cores(self, world):
        _, host, _, d = world
        p = d.load_sampler("procstat", instance="c", component_id=1,
                           percpu=True)
        names = p.set.metric_names()
        assert f"cpu{host.profile.ncpus - 1}_user" in names
        assert p.set.card == 8 + host.profile.ncpus * 8 + 4

    def test_percpu_string_coercion(self, world):
        _, _, _, d = world
        p = d.load_sampler("procstat", instance="c", component_id=1,
                           percpu="true")
        assert p.percpu


class TestLustreSampler:
    def test_auto_discovery(self, world):
        _, _, _, d = world
        p = d.load_sampler("lustre", instance="l", component_id=1)
        assert "open#stats.snx11024" in p.set.metric_names()

    def test_explicit_mount(self, world):
        _, _, _, d = world
        p = d.load_sampler("lustre", instance="l", component_id=1,
                           mounts="snx11024")
        p.sample(0.0)
        assert p.set.get("open#stats.snx11024") >= 0

    def test_missing_mount_rejected(self, world):
        _, _, _, d = world
        with pytest.raises(ConfigError):
            d.load_sampler("lustre", instance="l", mounts="snx99999")

    def test_paper_metric_names(self, world):
        """§IV-B shows names like dirty_pages_hits#stats.snx11024."""
        _, _, _, d = world
        p = d.load_sampler("lustre", instance="l", component_id=1)
        assert "dirty_pages_hits#stats.snx11024" in p.set.metric_names()


class TestEthernetInfiniband:
    def test_eth_auto(self, world):
        _, _, _, d = world
        p = d.load_sampler("ethernet", instance="e", component_id=1)
        assert "rx_bytes#eth0" in p.set.metric_names()
        assert p.set.card == 8

    def test_ib_counters(self, world):
        clock, host, _, d = world
        p = d.load_sampler("infiniband", instance="i", component_id=1)
        host.set_workload(ib_tx_bps=4e6)
        clock["t"] = 10.0
        p.sample(10.0)
        assert p.set.get("port_xmit_data#mlx4_0") > 0

    def test_eth_no_interfaces_rejected(self):
        eng = Engine()
        host = HostModel("n", clock=lambda: 0.0,
                         profile=HostProfile(eth_ifaces=()))
        d = Ldmsd("n", env=SimEnv(eng), fs=host.fs,
                  transports={"rdma": SimTransport(SimFabric(eng), "rdma")})
        with pytest.raises(ConfigError):
            d.load_sampler("ethernet", instance="e")


class TestGpcdrSampler:
    def test_card(self, world):
        _, _, _, d = world
        p = d.load_sampler("gpcdr", instance="g", component_id=1)
        assert p.set.card == 42  # 6 dirs x (4 raw + 3 derived)

    def test_derived_metrics(self, world):
        clock, _, gp, d = world
        p = d.load_sampler("gpcdr", instance="g", component_id=1)
        p.sample(0.0)
        # One minute at 50% of a cable link, 30% stall time.
        gp.add_traffic("X+", 0.5 * 4.68e9 * 60)
        gp.add_stall("X+", 18.0)
        clock["t"] = 60.0
        p.sample(60.0)
        assert p.set.get("percent_bw_X+") == pytest.approx(50.0, rel=0.02)
        assert p.set.get("percent_stalled_X+") == pytest.approx(30.0, rel=0.02)

    def test_first_sample_derives_zero(self, world):
        _, _, gp, d = world
        p = d.load_sampler("gpcdr", instance="g", component_id=1)
        gp.add_traffic("X+", 1e9)
        p.sample(0.0)
        assert p.set.get("percent_bw_X+") == 0.0

    def test_avg_packet_size(self, world):
        clock, _, gp, d = world
        p = d.load_sampler("gpcdr", instance="g", component_id=1)
        p.sample(0.0)
        gp.add_traffic("Y+", 1_000_000, npackets=1000)
        clock["t"] = 60.0
        p.sample(60.0)
        assert p.set.get("avg_packet_size_Y+") == pytest.approx(1000.0)


class TestBwCustomSampler:
    def test_card_matches_production_set(self):
        """With 27 llite mounts the combined set has the production 194
        metrics (§IV-F / DESIGN.md)."""
        eng = Engine()
        clock = {"t": 0.0}
        profile = HostProfile(
            ncpus=32,
            lustre_mounts=tuple(f"snx{11000 + i}" for i in range(27)),
            nfs=False, eth_ifaces=(), ib_devices=(), lnet=True)
        host = HostModel("n", clock=lambda: clock["t"], profile=profile)
        GpcdrModel(clock=lambda: clock["t"], fs=host.fs)
        d = Ldmsd("n", env=SimEnv(eng), fs=host.fs,
                  transports={"rdma": SimTransport(SimFabric(eng), "rdma")})
        p = d.load_sampler("bw_custom", instance="bw", component_id=1)
        assert p.set.card == 194
        p.sample(0.0)

    def test_set_size_near_24kb(self):
        eng = Engine()
        clock = {"t": 0.0}
        profile = HostProfile(
            lustre_mounts=tuple(f"snx{11000 + i}" for i in range(27)),
            nfs=False, eth_ifaces=(), ib_devices=(), lnet=True)
        host = HostModel("n", clock=lambda: clock["t"], profile=profile)
        GpcdrModel(clock=lambda: clock["t"], fs=host.fs)
        d = Ldmsd("n", env=SimEnv(eng), fs=host.fs,
                  transports={"rdma": SimTransport(SimFabric(eng), "rdma")})
        p = d.load_sampler("bw_custom", instance="bw", component_id=1)
        assert 14_000 < p.set.total_size < 30_000


class TestSyntheticSampler:
    def test_counter_pattern(self, world):
        _, _, _, d = world
        p = d.load_sampler("synthetic", instance="s", component_id=1,
                           num_metrics=3, pattern="counter")
        p.sample(0.0)
        p.sample(1.0)
        assert p.set.values() == [2, 4, 6]

    def test_constant_pattern(self, world):
        _, _, _, d = world
        p = d.load_sampler("synthetic", instance="s", component_id=1,
                           num_metrics=3, pattern="constant")
        p.sample(0.0)
        assert p.set.values() == [0, 1, 2]

    def test_random_deterministic_by_seed(self, world):
        _, _, _, d = world
        p1 = d.load_sampler("synthetic", instance="s1", component_id=1,
                            num_metrics=4, pattern="random", seed=9)
        p2 = d.load_sampler("synthetic", instance="s2", component_id=1,
                            num_metrics=4, pattern="random", seed=9)
        p1.sample(0.0)
        p2.sample(0.0)
        # Different instances derive different streams even at equal seed.
        assert p1.set.values() != p2.set.values()

    def test_bad_pattern_rejected(self, world):
        _, _, _, d = world
        with pytest.raises(ConfigError):
            d.load_sampler("synthetic", instance="s", pattern="fractal")

    def test_cost_scales_with_metrics(self, world):
        _, _, _, d = world
        small = d.load_sampler("synthetic", instance="a", component_id=1,
                               num_metrics=10)
        big = d.load_sampler("synthetic", instance="b", component_id=1,
                             num_metrics=500)
        assert big.sample_cost > small.sample_cost
        assert small.sample_cost == pytest.approx(default_sample_cost(10))


class TestMissingSourceFile:
    """A sampler whose file the host lacks is refused at config, before
    any set exists, as ``lustre`` and ``infiniband`` refuse theirs."""

    @pytest.mark.parametrize("plugin", ["nfs", "lnet", "gpcdr"])
    def test_refused_at_config(self, plugin):
        eng = Engine()
        d = Ldmsd("n", env=SimEnv(eng), fs=SynthFS(),
                  transports={"rdma": SimTransport(SimFabric(eng), "rdma")})
        used = d.arena.used
        with pytest.raises(ConfigError, match=plugin):
            d.load_sampler(plugin, instance=f"n/{plugin}", component_id=1)
        assert d.get_set(f"n/{plugin}") is None
        assert d.arena.used == used

    @pytest.mark.parametrize("plugin", ["nfs", "lnet"])
    def test_refused_when_the_profile_has_none(self, plugin):
        eng = Engine()
        host = HostModel("n", clock=lambda: 0.0,
                         profile=HostProfile(nfs=False, lnet=False))
        d = Ldmsd("n", env=SimEnv(eng), fs=host.fs,
                  transports={"rdma": SimTransport(SimFabric(eng), "rdma")})
        with pytest.raises(ConfigError):
            d.load_sampler(plugin, instance=f"n/{plugin}", component_id=1)


class TestPluginLifecycle:
    def test_samples_taken_counter(self, world):
        _, _, _, d = world
        p = d.load_sampler("loadavg", instance="la", component_id=1)
        p.sample(0.0)
        p.sample(1.0)
        assert p.samples_taken == 2

    def test_term_deletes_sets(self, world):
        _, _, _, d = world
        p = d.load_sampler("loadavg", instance="la", component_id=1)
        used = d.arena.used
        p.term()
        assert d.get_set("la") is None
        assert d.arena.used < used

    def test_double_config_rejected(self, world):
        _, _, _, d = world
        p = d.load_sampler("loadavg", instance="la", component_id=1)
        with pytest.raises(ConfigError):
            p.config(instance="other")

    def test_do_sample_failure_keeps_set_usable(self, world):
        """A failing source must not leave the transaction open."""
        clock, host, _, d = world
        p = d.load_sampler("meminfo", instance="m", component_id=1)
        host.fs.unregister("/proc/meminfo")
        with pytest.raises(FileNotFoundError):
            p.sample(0.0)
        # Transaction was closed in finally; next sample works again.
        host.fs.register("/proc/meminfo", lambda: "MemTotal: 5 kB\n")
        p.sample(1.0)
        assert p.set.get("MemTotal") == 5
