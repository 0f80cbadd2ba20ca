"""Tests for the cluster layer: machines, deployment, scheduler, OOM."""

import numpy as np
import pytest

import repro.plugins  # noqa: F401
from repro.cluster import JobSpec, JobState, Scheduler, blue_waters, chama
from repro.cluster.machine import Machine
from repro.network.torus import GeminiTorus
from repro.util.errors import ConfigError, SimulationError


class TestMachineBuilders:
    def test_chama_shape(self):
        m = chama(n_nodes=16)
        assert len(m.nodes) == 16
        assert m.nodes[0].profile.ncpus == 16
        assert m.nodes[0].fs.exists("/proc/net/rpc/nfs")
        assert m.flow_engine is None  # fat tree, not torus

    def test_blue_waters_shape(self):
        m = blue_waters(n_nodes=16)
        assert len(m.nodes) == 16
        assert m.nodes[0].gpcdr is not None
        assert m.flow_engine is not None
        assert not m.nodes[0].fs.exists("/proc/net/rpc/nfs")

    def test_bw_nodes_share_gemini_counters(self):
        m = blue_waters(n_nodes=8)
        # Node 0 and 1 share Gemini 0 and see identical gpcdr values.
        assert m.nodes[0].gpcdr is m.nodes[1].gpcdr
        assert m.nodes[2].gpcdr is not m.nodes[0].gpcdr

    def test_too_many_nodes_rejected(self):
        with pytest.raises(ConfigError):
            Machine("m", n_nodes=100, network=GeminiTorus(dims=(2, 2, 2)))

    def test_full_torus_dims_pin_geometry(self):
        m = blue_waters(n_nodes=8, full_torus_dims=(4, 4, 4))
        assert m.network.dims == (4, 4, 4)


class TestDeployment:
    def test_level_counts(self):
        m = chama(n_nodes=32)
        dep = m.deploy_ldms(interval=5.0, fanin=8)
        assert len(dep.samplers) == 32
        assert len(dep.level1) == 4
        assert dep.level2 is not None
        assert len(dep.stores) == 1

    def test_no_second_level_stores_on_l1(self):
        m = blue_waters(n_nodes=8)
        dep = m.deploy_ldms(interval=5.0, fanin=4, second_level=False)
        assert dep.level2 is None
        assert len(dep.stores) == len(dep.level1) == 2

    def test_store_property_requires_single(self):
        m = blue_waters(n_nodes=8)
        dep = m.deploy_ldms(interval=5.0, fanin=4, second_level=False)
        with pytest.raises(ConfigError):
            dep.store

    def test_collects_all_nodes(self):
        m = chama(n_nodes=12)
        dep = m.deploy_ldms(interval=2.0, fanin=6,
                            plugins=[("loadavg", {})])
        m.run(until=15.0)
        store = dep.store
        assert len(store.set_names()) == 12
        assert len(store.rows) >= 12 * 4

    def test_standby_connections_present(self):
        m = chama(n_nodes=8)
        dep = m.deploy_ldms(interval=2.0, fanin=4, standby=True,
                            plugins=[("loadavg", {})])
        m.run(until=5.0)
        agg0 = dep.level1[0]
        standbys = [p for n, p in agg0.producers.items()
                    if n.startswith("standby-")]
        assert len(standbys) == 4
        assert all(not p.active and p.connected for p in standbys)

    def test_component_ids_match_nodes(self):
        m = chama(n_nodes=4)
        dep = m.deploy_ldms(interval=2.0, plugins=[("loadavg", {})])
        m.run(until=5.0)
        rows = dep.store.select(set_name="n2/loadavg")
        assert rows and set(rows[0].component_ids) == {3}

    def test_monitoring_traffic_accounted(self):
        m = chama(n_nodes=8)
        m.deploy_ldms(interval=1.0, plugins=[("loadavg", {})])
        m.run(until=10.0)
        assert m.monitor_bytes > 0


@pytest.fixture
def sched_world():
    m = chama(n_nodes=16)
    return m, Scheduler(m, oom_interval=1.0)


class TestScheduler:
    def test_fcfs_runs_job(self, sched_world):
        m, sched = sched_world
        job = sched.submit(JobSpec("j", n_nodes=4, duration=10.0))
        m.run(until=15.0)
        assert job.state is JobState.COMPLETED
        assert job.start_time == 0.0
        assert job.end_time == pytest.approx(10.0)

    def test_queueing_when_full(self, sched_world):
        m, sched = sched_world
        j1 = sched.submit(JobSpec("big", n_nodes=16, duration=10.0))
        j2 = sched.submit(JobSpec("waits", n_nodes=4, duration=5.0))
        m.run(until=30.0)
        assert j2.start_time >= j1.end_time

    def test_oversized_job_rejected(self, sched_world):
        m, sched = sched_world
        with pytest.raises(SimulationError):
            sched.submit(JobSpec("huge", n_nodes=999, duration=1.0))

    def test_workload_applied_and_reset(self, sched_world):
        m, sched = sched_world
        sched.submit(JobSpec("j", n_nodes=2, duration=10.0,
                             cpu_user_frac=0.75))
        m.run(until=5.0)
        assert m.nodes[0].host.cpu_user_frac == 0.75
        assert m.nodes[2].host.cpu_user_frac == 0.0  # not allocated
        m.run(until=15.0)
        assert m.nodes[0].host.cpu_user_frac == 0.0  # job ended

    def test_memory_growth(self, sched_world):
        m, sched = sched_world
        sched.submit(JobSpec("leak", n_nodes=2, duration=100.0,
                             mem_active_kb=1024,
                             mem_growth_kb_s=1000.0, update_interval=1.0))
        m.run(until=50.0)
        assert m.nodes[0].host.mem_active_kb == pytest.approx(
            1024 + 1000 * 49, rel=0.05)

    def test_oom_kill(self, sched_world):
        m, sched = sched_world
        total = m.nodes[0].mem_total_kb
        job = sched.submit(JobSpec("oom", n_nodes=2, duration=1e6,
                                   mem_active_kb=total * 0.5,
                                   mem_growth_kb_s=total / 20.0,
                                   update_interval=1.0))
        m.run(until=60.0)
        assert job.state is JobState.OOM_KILLED
        assert any(ev == "oom" for _, ev, _, _ in sched.log)
        # Nodes were freed and reset.
        assert m.nodes[0].host.mem_active_kb < total * 0.1

    def test_mem_profile_callable(self, sched_world):
        m, sched = sched_world
        sched.submit(JobSpec("scripted", n_nodes=1, duration=100.0,
                             mem_profile=lambda t, slot: 1000.0 * (1 + t),
                             update_interval=1.0))
        m.run(until=11.0)
        assert m.nodes[0].host.mem_active_kb == pytest.approx(11000.0, rel=0.1)

    def test_kill(self, sched_world):
        m, sched = sched_world
        job = sched.submit(JobSpec("victim", n_nodes=2, duration=1e6))
        m.run(until=5.0)
        sched.kill(job)
        assert job.state is JobState.KILLED
        m.run(until=10.0)

    def test_job_log_events(self, sched_world):
        m, sched = sched_world
        sched.submit(JobSpec("j", n_nodes=2, duration=5.0))
        m.run(until=10.0)
        events = [ev for _, ev, _, _ in sched.log]
        assert events == ["submitted", "start", "end"]

    def test_last_job_of_node(self, sched_world):
        m, sched = sched_world
        job = sched.submit(JobSpec("j", n_nodes=2, duration=5.0))
        m.run(until=10.0)
        assert sched.last_job_of_node(0) is job

    def test_delayed_submission(self, sched_world):
        m, sched = sched_world
        job = sched.submit(JobSpec("later", n_nodes=2, duration=5.0),
                           delay=7.0)
        m.run(until=20.0)
        assert job.start_time == pytest.approx(7.0)

    def test_bad_growth_shape_rejected(self, sched_world):
        m, sched = sched_world
        with pytest.raises(SimulationError):
            # Nodes are free, so the job starts (and validates) at submit.
            sched.submit(JobSpec("bad", n_nodes=4, duration=5.0,
                                 mem_growth_kb_s=np.ones(3)))

    def test_torus_jobs_create_flows(self):
        m = blue_waters(n_nodes=16)
        sched = Scheduler(m)
        job = sched.submit(JobSpec("net", n_nodes=8, duration=20.0,
                                   net_bps_per_node=1e9))
        m.run(until=5.0)
        assert m.flow_engine.load.max() > 0
        m.run(until=30.0)
        assert m.flow_engine.load.max() == 0  # removed at job end
