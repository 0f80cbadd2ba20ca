"""``StoreRecord`` as a tuple record keeps the frozen dataclass's contract.

The oracle below is the record as it was before it became a
``NamedTuple``: constructor, field order, immutability, value equality
and hashing, ``from_set`` / ``filtered``, and the rows a fan-in knee
world stores must all match it field by field.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import os
from dataclasses import dataclass
from typing import Iterable, Optional

import pytest

import repro.plugins  # noqa: F401  (registers plugins)
from repro.core import Ldmsd
from repro.core.memory import Arena
from repro.core.metric import MetricType
from repro.core.metric_set import MetricSet
from repro.core.store import StoreRecord
from repro.util.errors import ConfigError

_spec = importlib.util.spec_from_file_location(
    "audit_footprint", os.path.join(os.path.dirname(__file__), os.pardir,
                                    "benchmarks", "audit_footprint.py"))
audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(audit)


@dataclass(frozen=True)
class OracleRecord:
    """The frozen-dataclass ``StoreRecord``, verbatim in behaviour."""

    timestamp: float
    producer: str
    set_name: str
    schema: str
    names: tuple[str, ...]
    component_ids: tuple[int, ...]
    values: tuple[float | int, ...]
    mtypes: Optional[tuple[MetricType, ...]] = None

    @classmethod
    def from_set(cls, mset: MetricSet, producer: str) -> "OracleRecord":
        return cls(
            timestamp=mset.timestamp,
            producer=producer,
            set_name=mset.name,
            schema=mset.schema,
            names=mset._names,
            component_ids=mset._comp_ids,
            values=mset.values_tuple(),
            mtypes=tuple(d.mtype for d in mset.descs),
        )

    def filtered(self, metric_names: Iterable[str]) -> "OracleRecord":
        wanted = set(metric_names)
        idx = [i for i, n in enumerate(self.names) if n in wanted]
        missing = wanted - {self.names[i] for i in idx}
        if missing:
            raise ConfigError(f"metrics not in set {self.set_name!r}: {sorted(missing)}")
        return OracleRecord(
            timestamp=self.timestamp,
            producer=self.producer,
            set_name=self.set_name,
            schema=self.schema,
            names=tuple(self.names[i] for i in idx),
            component_ids=tuple(self.component_ids[i] for i in idx),
            values=tuple(self.values[i] for i in idx),
            mtypes=(tuple(self.mtypes[i] for i in idx)
                    if self.mtypes is not None else None),
        )


FIELDS = tuple(f.name for f in dataclasses.fields(OracleRecord))
ARGS = (1.5, "n0", "n0/m", "m", ("a", "b"), (1, 2), (10, 2.25))


def assert_same(record: StoreRecord, oracle: OracleRecord) -> None:
    for name in FIELDS:
        got, want = getattr(record, name), getattr(oracle, name)
        assert got == want, name
        assert type(got) is type(want), name
    assert [type(v) for v in record.values] == [type(v) for v in oracle.values]


def mixed_set() -> MetricSet:
    s = MetricSet.create("n0/mix", "mix",
                         [("i", MetricType.U64, 7), ("f", MetricType.F64, 8),
                          ("g", MetricType.F32, 9), ("s", MetricType.S32, 7)],
                         Arena(1 << 16))
    s.set_all([123456789, 0.123456789, 2.5, -4], timestamp=3.25)
    return s


class TestConstruction:
    def test_field_names_and_order(self):
        assert StoreRecord._fields == FIELDS

    def test_positional_and_keyword_construction_agree(self):
        pos = StoreRecord(*ARGS)
        kw = StoreRecord(**dict(zip(FIELDS, ARGS)))
        assert pos == kw
        assert_same(pos, OracleRecord(*ARGS))
        assert_same(kw, OracleRecord(**dict(zip(FIELDS, ARGS))))

    def test_mtypes_defaults_to_none(self):
        assert StoreRecord(*ARGS).mtypes is None
        typed = StoreRecord(*ARGS, mtypes=(MetricType.U64, MetricType.F64))
        assert typed.mtypes == (MetricType.U64, MetricType.F64)

    def test_equality_and_hash_by_value(self):
        a, b = StoreRecord(*ARGS), StoreRecord(*ARGS)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        other = StoreRecord(*ARGS[:-1], (10, 2.5))
        assert a != other
        assert hash(a) == hash(OracleRecord(*ARGS))

    @pytest.mark.parametrize("name", FIELDS)
    def test_fields_cannot_be_assigned(self, name):
        rec = StoreRecord(*ARGS)
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            rec.extra = 1  # no instance __dict__ either


class TestDerivedRecords:
    def test_from_set_matches_oracle(self):
        s = mixed_set()
        assert_same(StoreRecord.from_set(s, "n0"), OracleRecord.from_set(s, "n0"))

    @pytest.mark.parametrize("wanted", [["f"], ["s", "i"], ["i", "f", "g", "s"]])
    def test_filtered_matches_oracle(self, wanted):
        s = mixed_set()
        assert_same(StoreRecord.from_set(s, "n0").filtered(wanted),
                    OracleRecord.from_set(s, "n0").filtered(wanted))

    def test_filtered_without_mtypes_matches_oracle(self):
        assert_same(StoreRecord(*ARGS).filtered(["b"]),
                    OracleRecord(*ARGS).filtered(["b"]))

    def test_filtered_unknown_metric_rejected_alike(self):
        for rec in (StoreRecord(*ARGS), OracleRecord(*ARGS)):
            with pytest.raises(ConfigError):
                rec.filtered(["zzz"])


def test_knee_world_rows_equal_the_oracle(monkeypatch):
    # Every delivery also builds the oracle's record from the mirror it
    # hands over; the memory store must hold the same rows, in order.
    oracle: list[OracleRecord] = []
    deliver = Ldmsd._deliver_to_stores

    def spy(daemon, producer, mirror, *args):
        oracle.append(OracleRecord.from_set(mirror, producer.cfg.name))
        return deliver(daemon, producer, mirror, *args)

    monkeypatch.setattr(Ldmsd, "_deliver_to_stores", spy)
    _samplers, agg = audit.build(8)
    eng = agg.env.engine
    eng.run(until=eng.now + 3 * audit.INTERVAL)
    agg.shutdown()
    rows = agg.stores[0].rows
    assert len(rows) == len(oracle) == 8 * 4
    for record, want in zip(rows, oracle):
        assert type(record) is StoreRecord
        assert_same(record, want)
