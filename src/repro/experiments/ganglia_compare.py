"""§IV-E: per-metric collection cost, Ganglia vs LDMS.

"On Chama we found the collection time per metric for Ganglia vs. LDMS
from /proc/stat and /proc/meminfo to be about two orders of magnitude
greater (i.e. 126 usec per metric for Ganglia vs. 1.3 usec per metric
for LDMS)."

Both systems here are Python, so the absolute microseconds differ from
the C implementations; the *shape* — Ganglia costing one to two orders
of magnitude more per metric — comes from the architectural difference
the paper identifies: Ganglia's gmond modules each re-read and re-parse
their source file and build a metadata-carrying message per metric,
while one LDMS sampler reads the file once for its whole metric set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.ganglia import GangliaMetric, Gmond
from repro.core import Ldmsd, SimEnv
from repro.experiments.common import PAPER, print_header, print_table
from repro.nodefs.host import HostModel
from repro.plugins.samplers.parsers import CPU_FIELDS
from repro.sim.engine import Engine
from repro.transport.simfabric import SimFabric, SimTransport
from repro.util.timeutil import thread_time

__all__ = ["CollectionCostResult", "run", "main"]

MEMINFO_KEYS = (
    "MemTotal", "MemFree", "Buffers", "Cached", "Active", "Inactive",
    "Dirty", "AnonPages", "Mapped", "Slab",
)


@dataclass(frozen=True)
class CollectionCostResult:
    n_metrics: int
    ldms_us_per_metric: float
    ganglia_us_per_metric: float

    @property
    def ratio(self) -> float:
        return self.ganglia_us_per_metric / self.ldms_us_per_metric


def _pick_fs():
    """The real /proc when this host has one (the paper's experiment
    reads the live /proc/stat and /proc/meminfo); synthetic otherwise."""
    from repro.nodefs.fs import RealFS

    real = RealFS()
    if real.exists("/proc/stat") and real.exists("/proc/meminfo"):
        return real, "real /proc"
    eng = Engine()
    host = HostModel("node0", clock=lambda: eng.now)
    return host.fs, "synthetic /proc"


#: Sweeps per timed block: LDMS and Ganglia blocks alternate.
BLOCK = 10


def run(sweeps: int = 200) -> CollectionCostResult:
    """Time one collection sweep of the same metrics through both paths.

    Both sides are timed in thread CPU seconds, in alternating blocks of
    ``BLOCK`` sweeps (which side goes first alternates too), so a burst
    of other work on the host neither lands on one side alone nor counts
    against either."""
    eng = Engine()
    env = SimEnv(eng)
    fs, _source = _pick_fs()
    fabric = SimFabric(eng)

    # --- LDMS: meminfo + procstat sampler plugins ----------------------
    d = Ldmsd("node0", env=env, fs=fs,
              transports={"sock": SimTransport(fabric, "sock")})
    mem_plug = d.load_sampler("meminfo", instance="node0/meminfo",
                              component_id=1, metrics=",".join(MEMINFO_KEYS))
    cpu_plug = d.load_sampler("procstat", instance="node0/procstat",
                              component_id=1)
    n_metrics = mem_plug.total_metrics + cpu_plug.total_metrics

    # --- Ganglia: equivalent per-metric modules -------------------------
    modules = [GangliaMetric.meminfo(k.lower(), k) for k in MEMINFO_KEYS]
    modules += [GangliaMetric.procstat(f"cpu_{f}", f"cpu_{f}") for f in CPU_FIELDS]
    modules += [GangliaMetric.procstat(k, k)
                for k in ("ctxt", "processes", "procs_running", "procs_blocked")]
    assert len(modules) == n_metrics, (len(modules), n_metrics)
    gmond = Gmond(fs, modules, value_threshold=0.0)

    # Warm up both paths (allocation, caches).
    mem_plug.sample(0.0)
    cpu_plug.sample(0.0)
    gmond.collect_and_send(0.0)

    def ldms(lo: int) -> None:
        for i in range(lo, lo + BLOCK):
            mem_plug.sample(float(i))
            cpu_plug.sample(float(i))

    def ganglia(lo: int) -> None:
        for i in range(lo, lo + BLOCK):
            gmond.collect_and_send(float(i))

    spent = {ldms: 0.0, ganglia: 0.0}
    for b, lo in enumerate(range(1, sweeps + 1, BLOCK)):
        for side in ((ldms, ganglia) if b % 2 == 0 else (ganglia, ldms)):
            t0 = thread_time()
            side(lo)
            spent[side] += thread_time() - t0
    ldms_s, ganglia_s = spent[ldms], spent[ganglia]

    per = BLOCK * -(-sweeps // BLOCK) * n_metrics
    return CollectionCostResult(
        n_metrics=n_metrics,
        ldms_us_per_metric=1e6 * ldms_s / per,
        ganglia_us_per_metric=1e6 * ganglia_s / per,
    )


def main() -> CollectionCostResult:
    res = run()
    print_header("Collection cost per metric: Ganglia vs LDMS (paper §IV-E)")
    print_table(
        ["system", "measured us/metric", "paper us/metric"],
        [
            ["LDMS", res.ldms_us_per_metric, PAPER.ldms_us_per_metric],
            ["Ganglia", res.ganglia_us_per_metric, PAPER.ganglia_us_per_metric],
        ],
    )
    print(f"\nmeasured ratio: {res.ratio:.1f}x  "
          f"(paper: {PAPER.ganglia_us_per_metric / PAPER.ldms_us_per_metric:.0f}x)")
    return res


if __name__ == "__main__":
    main()
