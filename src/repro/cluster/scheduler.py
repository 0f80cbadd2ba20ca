"""Job scheduler: FCFS allocation, workload application, OOM killer.

Jobs drive the synthetic counters the monitoring system observes.  A
:class:`JobSpec` describes per-node workload rates (CPU fractions,
Lustre traffic, memory footprint and growth) and a communication
intensity; the scheduler applies them to the allocated nodes' host
models and the machine's flow engine for the job's lifetime, then
restores the idle baseline.

The OOM killer watches per-node memory every ``oom_interval`` seconds
and terminates a job whose memory use exceeds the node's total — the
event behind Fig. 12 ("Active memory for a 64 node job terminated by
the OOM killer").  Job start/end/kill events are recorded in a job log
that the analysis layer joins with stored metric data to build
application profiles (§VI-B).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.cluster.machine import Machine
from repro.util.errors import SimulationError
from repro.util.rngtools import spawn_rng

__all__ = ["JobSpec", "Job", "JobState", "Scheduler"]


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    OOM_KILLED = "oom_killed"
    KILLED = "killed"


@dataclass
class JobSpec:
    """Workload description of one job.

    ``mem_growth_kb_s`` may be a scalar (uniform growth) or a per-node
    array; ``mem_profile`` overrides growth entirely with a callable
    ``(elapsed_seconds, node_slot) -> active kB`` for scripted shapes.
    """

    name: str
    n_nodes: int
    duration: float
    cpu_user_frac: float = 0.7
    cpu_sys_frac: float = 0.05
    lustre_open_rate: float = 0.5
    lustre_read_bps: float = 1e6
    lustre_write_bps: float = 5e5
    net_bps_per_node: float = 0.0  # nearest-neighbour flows on the torus
    mem_active_kb: float = 4 * 1024 * 1024  # steady active memory per node
    mem_growth_kb_s: float | np.ndarray = 0.0
    mem_profile: Optional[Callable[[float, int], float]] = None
    update_interval: float = 10.0


@dataclass
class Job:
    """Runtime state of a scheduled job."""

    job_id: int
    spec: JobSpec
    state: JobState = JobState.PENDING
    nodes: list[int] = field(default_factory=list)
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    flow_ids: list[int] = field(default_factory=list)
    _updater: object = None
    _end_handle: object = None

    @property
    def exit_reason(self) -> str:
        return self.state.value


class Scheduler:
    """FCFS scheduler over a :class:`Machine`."""

    def __init__(self, machine: Machine, oom_interval: float = 5.0, seed: int = 0):
        self.machine = machine
        self.env = machine.env
        self.rng = spawn_rng(seed, "scheduler", machine.name)
        self.oom_interval = oom_interval
        self._free = list(range(len(machine.nodes)))
        self._queue: list[Job] = []
        self._next_id = 1
        self.jobs: dict[int, Job] = {}
        #: node index -> job id of the most recent job placed there
        self.last_job: dict[int, int] = {}
        self.log: list[tuple[float, str, int, str]] = []  # (t, event, job, detail)
        self._oom_handle = self.env.call_every(oom_interval, self._oom_check)

    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec, delay: float = 0.0) -> Job:
        if spec.n_nodes > len(self.machine.nodes):
            raise SimulationError(
                f"job {spec.name!r} wants {spec.n_nodes} nodes; machine has "
                f"{len(self.machine.nodes)}"
            )
        job = Job(self._next_id, spec)
        self._next_id += 1
        self.jobs[job.job_id] = job
        if delay > 0:
            self.env.call_later(delay, lambda: self._enqueue(job))
        else:
            self._enqueue(job)
        return job

    def _enqueue(self, job: Job) -> None:
        self._queue.append(job)
        self._log(job, "submitted", job.spec.name)
        self._try_start()

    def _try_start(self) -> None:
        while self._queue and self._queue[0].spec.n_nodes <= len(self._free):
            job = self._queue.pop(0)
            self._start(job)

    def _start(self, job: Job) -> None:
        spec = job.spec
        job.nodes = self._free[: spec.n_nodes]
        del self._free[: spec.n_nodes]
        job.state = JobState.RUNNING
        job.start_time = self.env.now()
        self._log(job, "start", f"{spec.name} nodes={len(job.nodes)}")

        growth = np.asarray(spec.mem_growth_kb_s, dtype=np.float64)
        if growth.ndim == 0:
            growth = np.full(spec.n_nodes, float(growth))
        elif growth.shape != (spec.n_nodes,):
            raise SimulationError("mem_growth_kb_s must be scalar or (n_nodes,)")

        for slot, idx in enumerate(job.nodes):
            node = self.machine.nodes[idx]
            node.job_id = job.job_id
            self.last_job[idx] = job.job_id
            node.host.set_workload(
                cpu_user_frac=spec.cpu_user_frac,
                cpu_sys_frac=spec.cpu_sys_frac,
                lustre_open_rate=spec.lustre_open_rate,
                lustre_read_bps=spec.lustre_read_bps,
                lustre_write_bps=spec.lustre_write_bps,
                ib_rx_bps=spec.net_bps_per_node,
                ib_tx_bps=spec.net_bps_per_node,
                lnet_send_bps=spec.lustre_write_bps,
                lnet_recv_bps=spec.lustre_read_bps,
            )
            node.host.mem_active_kb = spec.mem_active_kb

        # Nearest-neighbour communication flows on the torus.
        if spec.net_bps_per_node > 0 and self.machine.flow_engine is not None:
            for slot, idx in enumerate(job.nodes):
                peer = job.nodes[(slot + 1) % len(job.nodes)]
                if peer != idx:
                    job.flow_ids.append(
                        self.machine.flow_engine.add_flow(
                            idx, peer, spec.net_bps_per_node, tag=spec.name
                        )
                    )

        # Periodic workload updater (memory growth / scripted profiles).
        def update() -> None:
            if job.state is not JobState.RUNNING:
                return
            elapsed = self.env.now() - job.start_time
            for slot, idx in enumerate(job.nodes):
                host = self.machine.nodes[idx].host
                if spec.mem_profile is not None:
                    host.mem_active_kb = float(spec.mem_profile(elapsed, slot))
                elif growth[slot] != 0.0:
                    host.mem_active_kb = spec.mem_active_kb + growth[slot] * elapsed

        job._updater = self.env.call_every(spec.update_interval, update)
        job._end_handle = self.env.call_later(
            spec.duration, lambda: self._finish(job, JobState.COMPLETED)
        )

    def _finish(self, job: Job, state: JobState) -> None:
        if job.state is not JobState.RUNNING:
            return
        job.state = state
        job.end_time = self.env.now()
        if job._updater is not None:
            job._updater.cancel()
        if job._end_handle is not None:
            job._end_handle.cancel()
        for fid in job.flow_ids:
            self.machine.flow_engine.remove_flow(fid)
        job.flow_ids.clear()
        for idx in job.nodes:
            node = self.machine.nodes[idx]
            node.job_id = None
            node.host.idle()
        self._free.extend(job.nodes)
        self._free.sort()
        self._log(job, "end", state.value)
        self._try_start()

    def kill(self, job: Job) -> None:
        self._finish(job, JobState.KILLED)

    def _oom_check(self) -> None:
        for job in list(self.jobs.values()):
            if job.state is not JobState.RUNNING:
                continue
            for idx in job.nodes:
                node = self.machine.nodes[idx]
                if node.mem_used_kb() >= node.mem_total_kb:
                    self._log(job, "oom", f"node {idx}")
                    self._finish(job, JobState.OOM_KILLED)
                    break

    def _log(self, job: Job, event: str, detail: str) -> None:
        self.log.append((self.env.now(), event, job.job_id, detail))

    # ------------------------------------------------------------------
    def last_job_of_node(self, idx: int) -> Optional[Job]:
        """The most recent job (running or finished) placed on a node —
        what an administrator correlating stored data with the job log
        actually asks (§VI-A3: 'easily correlated with user and job')."""
        jid = self.last_job.get(idx)
        return self.jobs.get(jid) if jid is not None else None

    def shutdown(self) -> None:
        self._oom_handle.cancel()
        for job in self.jobs.values():
            if job.state is JobState.RUNNING:
                self._finish(job, JobState.KILLED)
