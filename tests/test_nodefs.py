"""Tests for the synthetic node filesystem and host counter models."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.nodefs import GEMINI_DIRECTIONS, GpcdrModel, HostModel, HostProfile, SynthFS
from repro.nodefs.fs import RealFS
from repro.plugins.samplers import parsers
from repro.util.errors import ReproError


class TestSynthFS:
    def test_register_and_read(self):
        fs = SynthFS()
        fs.register("/proc/foo", lambda: "bar\n")
        assert fs.read("/proc/foo") == "bar\n"

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            SynthFS().read("/proc/none")

    def test_duplicate_register_rejected(self):
        fs = SynthFS()
        fs.register("/a", lambda: "1")
        with pytest.raises(ReproError):
            fs.register("/a", lambda: "2")

    def test_unregister(self):
        fs = SynthFS()
        fs.register("/a", lambda: "1")
        fs.unregister("/a")
        assert not fs.exists("/a")

    def test_listdir(self):
        fs = SynthFS()
        fs.register("/sys/class/net/eth0/statistics/rx_bytes", lambda: "0")
        fs.register("/sys/class/net/eth1/statistics/rx_bytes", lambda: "0")
        assert fs.listdir("/sys/class/net") == ["eth0", "eth1"]

    def test_listdir_missing(self):
        with pytest.raises(FileNotFoundError):
            SynthFS().listdir("/nope")

    def test_exists_directory_prefix(self):
        fs = SynthFS()
        fs.register("/a/b/c", lambda: "x")
        assert fs.exists("/a/b")
        assert fs.exists("/a/b/c")
        assert not fs.exists("/a/x")

    def test_render_called_per_read(self):
        fs = SynthFS()
        calls = []
        fs.register("/f", lambda: calls.append(1) or str(len(calls)))
        assert fs.read("/f") == "1"
        assert fs.read("/f") == "2"


@pytest.fixture
def host():
    clock = {"t": 0.0}
    h = HostModel("n0", clock=lambda: clock["t"], seed=1)
    return clock, h


class TestHostModel:
    def test_counters_monotone(self, host):
        clock, h = host
        v1 = parsers.parse_proc_stat(h.fs.read("/proc/stat"))
        clock["t"] = 10.0
        v2 = parsers.parse_proc_stat(h.fs.read("/proc/stat"))
        for key in v1:
            assert v2[key] >= v1[key], key

    def test_cpu_fractions_integrate(self, host):
        clock, h = host
        h.set_workload(cpu_user_frac=0.5)
        clock["t"] = 100.0
        stat = parsers.parse_proc_stat(h.fs.read("/proc/stat"))
        total = sum(stat[f"cpu_{f}"] for f in parsers.CPU_FIELDS)
        assert stat["cpu_user"] / total == pytest.approx(0.5, abs=0.05)

    def test_meminfo_consistent(self, host):
        clock, h = host
        h.mem_active_kb = 10 * 1024 * 1024
        clock["t"] = 1.0
        mem = parsers.parse_meminfo(h.fs.read("/proc/meminfo"))
        assert mem["MemTotal"] == h.profile.mem_total_kb
        assert mem["Active"] == 10 * 1024 * 1024
        assert mem["MemFree"] + mem["Active"] + mem["Cached"] <= mem["MemTotal"]

    def test_lustre_rates(self, host):
        clock, h = host
        h.set_workload(lustre_open_rate=10.0)
        clock["t"] = 100.0
        stats = parsers.parse_lustre_stats(
            h.fs.read("/proc/fs/lustre/llite/snx11024-ffff0000/stats"))
        assert stats["open"] == pytest.approx(1000, rel=0.3)

    def test_set_workload_unknown_field_rejected(self, host):
        _, h = host
        with pytest.raises(AttributeError):
            h.set_workload(warp_drive=1.0)

    def test_idle_resets(self, host):
        clock, h = host
        h.set_workload(cpu_user_frac=0.9, lustre_read_bps=1e9)
        h.idle()
        assert h.cpu_user_frac == 0.0
        assert h.lustre_read_bps == 0.0

    def test_ib_counters_count_words(self, host):
        clock, h = host
        h.set_workload(ib_rx_bps=4000.0)
        clock["t"] = 100.0
        words = parsers.parse_counter_file(
            h.fs.read("/sys/class/infiniband/mlx4_0/ports/1/counters/port_rcv_data"))
        # 4000 B/s * 100 s / 4 bytes-per-word ~ 100,000 words.
        assert words == pytest.approx(100_000, rel=0.3)

    def test_profile_controls_files(self):
        clock = {"t": 0.0}
        p = HostProfile(nfs=False, eth_ifaces=(), ib_devices=(), lnet=True)
        h = HostModel("n", clock=lambda: clock["t"], profile=p)
        assert not h.fs.exists("/proc/net/rpc/nfs")
        assert not h.fs.exists("/sys/class/net")
        assert h.fs.exists("/proc/sys/lnet/stats")

    def test_deterministic_given_seed(self):
        def run(seed):
            clock = {"t": 0.0}
            h = HostModel("n0", clock=lambda: clock["t"], seed=seed)
            h.set_workload(cpu_user_frac=0.4)
            clock["t"] = 50.0
            return h.fs.read("/proc/stat")

        assert run(7) == run(7)
        assert run(7) != run(8)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1,
                    max_size=10))
    def test_advance_order_independent_totals(self, steps):
        clock = {"t": 0.0}
        h = HostModel("n0", clock=lambda: clock["t"], seed=3)
        h.set_workload(lustre_open_rate=2.0)
        t = 0.0
        for dt in steps:
            t += dt
            clock["t"] = t
            h.advance()
        total = h.lustre["snx11024"]["open"]
        # Mean-rate integration with 5% jitter: within 40% of rate * t.
        assert total == pytest.approx(2.0 * t, rel=0.4)


class TestGpcdr:
    def test_render_and_parse(self):
        clock = {"t": 5.0}
        gp = GpcdrModel(clock=lambda: clock["t"])
        gp.add_traffic("X+", 1e6)
        gp.add_stall("Y-", 0.5)
        data = parsers.parse_gpcdr(gp.fs.read(
            "/sys/devices/virtual/gpcdr/gpcdr/metricsets/links/metrics"))
        assert data["traffic_X+"] == 1_000_000
        assert data["stalled_Y-"] == 500_000_000
        assert data["timestamp"] == pytest.approx(5.0)
        assert data["linkstatus_Z+"] == 3

    def test_media_controls_linkspeed(self):
        gp = GpcdrModel(clock=lambda: 0.0,
                        media={d: "backplane" for d in GEMINI_DIRECTIONS})
        assert gp.link_speed("X+") == pytest.approx(9.375e9)

    def test_unknown_media_rejected(self):
        with pytest.raises(ValueError):
            GpcdrModel(clock=lambda: 0.0, media={"X+": "string-and-cans"})

    def test_link_down(self):
        gp = GpcdrModel(clock=lambda: 0.0)
        gp.lanes["Z-"] = 0
        data = parsers.parse_gpcdr(gp.fs.read(
            "/sys/devices/virtual/gpcdr/gpcdr/metricsets/links/metrics"))
        assert data["linkstatus_Z-"] == 0

    def test_sync_hook_called_on_render(self):
        gp = GpcdrModel(clock=lambda: 0.0)
        calls = []
        gp.sync_hook = lambda: calls.append(1)
        gp.render()
        assert calls == [1]


@pytest.mark.skipif(not RealFS().exists("/proc/meminfo"),
                    reason="no /proc on this platform")
class TestRealFS:
    def test_reads_real_proc(self):
        fs = RealFS()
        mem = parsers.parse_meminfo(fs.read("/proc/meminfo"))
        assert mem["MemTotal"] > 0

    def test_listdir(self):
        fs = RealFS()
        assert "meminfo" in fs.listdir("/proc")

    def test_synth_renders_parse_like_real(self):
        """The synthetic renders parse with the same code as real files."""
        real = parsers.parse_meminfo(RealFS().read("/proc/meminfo"))
        clock = {"t": 1.0}
        h = HostModel("n", clock=lambda: clock["t"])
        synth = parsers.parse_meminfo(h.fs.read("/proc/meminfo"))
        # The deployment-relevant keys exist in both renderings
        # (containers may trim the real file, so exact key parity is
        # not required).
        for key in ("MemTotal", "MemFree", "Cached", "Active", "Dirty"):
            assert key in real and key in synth
