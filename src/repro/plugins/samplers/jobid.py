"""Job-id sampler: associates samples with the job running on the node.

The paper's application profiles (Fig. 12) are built by combining LDMS
data with scheduler data (§VI-B); LDMS deployments carry a ``jobid``
sampler whose single metric is the resource manager's current job id on
the node, written by the job prolog to a well-known file.  Storing it
alongside the other sets lets analysis attribute any metric row to a
job without consulting the scheduler's log.
"""

from __future__ import annotations

from repro.core.metric import MetricType
from repro.core.metric_set import set_template
from repro.core.sampler import SamplerPlugin, register_sampler

__all__ = ["JobidSampler"]

JOBID_PATH = "/var/run/ldms_jobid"


@register_sampler("jobid")
class JobidSampler(SamplerPlugin):
    """One U64 metric, ``job_id`` (0 = no job on the node)."""

    def config(self, instance: str, component_id: int = 0,
               path: str = JOBID_PATH, **kwargs) -> None:
        super().config(instance, component_id, **kwargs)
        self.path = path
        self.set = self.create_set(
            instance, "jobid", set_template(("job_id",), MetricType.U64))

    def do_sample(self, now: float) -> None:
        try:
            value = int(self.daemon.fs.read(self.path).split()[0])
        except (FileNotFoundError, ValueError, IndexError):
            value = 0
        self.set.set_values((value,))
