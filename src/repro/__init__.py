"""repro — a reproduction of the Lightweight Distributed Metric Service (LDMS).

This package reimplements, in Python, the system described in

    A. Agelastos et al., "The Lightweight Distributed Metric Service: A
    Scalable Infrastructure for Continuous Monitoring of Large Scale
    Computing Systems and Applications", SC14.

It provides:

* ``repro.core`` — the LDMS core: metric sets (metadata/data chunks with
  generation numbers), the ``ldmsd`` daemon runnable in sampler or
  aggregator mode, the pull-based aggregation protocol, and the storage
  pipeline.
* ``repro.plugins`` — sampler plugins (meminfo, procstat, lustre, gpcdr,
  ...) and store plugins (CSV, flat file, SOS).
* ``repro.transport`` — transport plugins: real TCP sockets, and
  simulated sock / RDMA (IB and Gemini/uGNI) for the simulator.
* ``repro.sim`` — a discrete-event simulation kernel used to run the same
  daemon code at cluster scale in simulated time.
* ``repro.nodefs`` — a synthetic /proc + /sys tree driven by workload
  models, so sampler plugins exercise identical code paths with or
  without real hardware counters.
* ``repro.network`` / ``repro.cluster`` — Gemini 3-D torus and IB
  fat-tree models, node/CPU/memory models, and machine builders for the
  paper's two deployments (Blue Waters, Chama).
* ``repro.apps`` — synthetic HPC application models (PSNAP, MILC,
  MiniGhost, LinkTest, IMB, Nalu, CTH, Adagio) used for the monitoring
  impact studies.
* ``repro.baselines`` — a Ganglia-style push-model monitoring baseline.
* ``repro.analysis`` / ``repro.experiments`` — the characterization and
  per-figure experiment harnesses.

Quickstart
----------
>>> from repro.core import Ldmsd
>>> from repro.plugins.samplers import MeminfoSampler
>>> d = Ldmsd(name="node0")
>>> plug = d.load_sampler("meminfo", instance="node0/meminfo", component_id=1)
>>> d.start_sampler(plug.instance, interval=1.0)

See ``examples/quickstart.py`` for a full sampler → aggregator → store
pipeline on real sockets.
"""

from repro._version import __version__

__all__ = ["__version__"]
