"""GOOD: layout at config(), one positional bulk write per sample."""

from repro.core.metric import MetricType
from repro.core.metric_set import set_template
from repro.core.sampler import SamplerPlugin, register_sampler


@register_sampler("fixture_good")
class GoodSampler(SamplerPlugin):
    def config(self, instance, component_id=0, **kwargs):
        super().config(instance, component_id, **kwargs)
        self.set = self.create_set(
            instance, "fixture", set_template(("m0", "m1"), MetricType.U64))

    def do_sample(self, now):
        vals = []
        vals.append(1)
        vals.append(2)
        self.set.set_values(vals)
