"""Set templates: one compiled layout stamps every producer-side set.

``MetricSet.create`` builds a set from a per-(names, types) template: a
copy of the packed metadata chunk, one header pack and one write of the
component ids.  These tests hold that path to the per-descriptor packer
it replaced (kept below as the reference), pin that the cached path
validates exactly like the first compile and allocates nothing on a
rejected call, and count compiles so a regression fails without timing.
"""

import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.plugins  # noqa: F401  (registers plugins)
from repro.core import Ldmsd, SimEnv, metric_set
from repro.core.memory import Arena
from repro.core.metric import MetricDesc, MetricType
from repro.core.metric_set import (
    _DATA_HDR_FMT, _DATA_HDR_SIZE, _META_HDR_FMT, _META_HDR_SIZE, MetricSet,
    set_template,
)
from repro.core.set_arena import SetArenaPool
from repro.sim.engine import Engine

U64 = MetricType.U64


@pytest.fixture
def fresh_templates(monkeypatch):
    """An empty template cache, so the next create of any layout is its
    first (the cache is process-wide)."""
    monkeypatch.setattr(metric_set, "_TEMPLATES", {})


# ---------------------------------------------------------------------------
# reference: the per-descriptor packer templates replaced
# ---------------------------------------------------------------------------


def ref_layout(metrics):
    """Descriptors with naturally aligned data offsets, and the data size."""
    descs, off = [], _DATA_HDR_SIZE
    for mname, mtype, comp_id in metrics:
        size = mtype.size
        off = (off + size - 1) & ~(size - 1)
        descs.append(MetricDesc(mname, mtype, comp_id, off))
        off += size
    return descs, off


def ref_meta(name, schema, metrics, mgn):
    descs, data_size = ref_layout(metrics)
    meta = bytearray(_META_HDR_SIZE + len(descs) * MetricDesc.WIRE_SIZE)
    struct.pack_into(_META_HDR_FMT, meta, 0, b"LDMS", len(meta), data_size,
                     len(descs), mgn, name.encode(), schema.encode())
    pos = _META_HDR_SIZE
    for d in descs:
        struct.pack_into(MetricDesc.WIRE_FMT, meta, pos, d.name.encode(),
                         d.component_id, int(d.mtype), d.data_offset)
        pos += MetricDesc.WIRE_SIZE
    return bytes(meta)


def ref_data(metrics, mgn, values, ts):
    """The data chunk after one ``set_all(values, ts)``."""
    descs, data_size = ref_layout(metrics)
    data = bytearray(data_size)
    struct.pack_into(_DATA_HDR_FMT, data, 0, mgn, len(descs), 1, ts)
    for d, v in zip(descs, values):
        struct.pack_into("<" + d.mtype.struct_code, data, d.data_offset, v)
    return bytes(data)


def value_for(mtype, i):
    if mtype.is_float:
        return i + 0.25  # exact in f32 and f64
    return mtype.clamp(i * 2_654_435_761 - 77)


def footprint(arena, pool):
    return arena.used, len(arena._live), pool.stats()


# ---------------------------------------------------------------------------
# satellite: a rejected create leaks nothing
# ---------------------------------------------------------------------------


OUT_OF_RANGE = [
    pytest.param(2**64, 1, id="comp_id=2**64"),
    pytest.param(-1, 1, id="comp_id=-1"),
    pytest.param(1, 2**32, id="mgn=2**32"),
    pytest.param(1, -1, id="mgn=-1"),
]


class TestRejectedCreateLeaksNothing:
    @pytest.mark.parametrize("comp_id, mgn", OUT_OF_RANGE)
    def test_direct(self, comp_id, mgn):
        arena, pool = Arena(4096), SetArenaPool()
        before = footprint(arena, pool)
        for _ in range(2):
            with pytest.raises(ValueError):
                MetricSet.create("n/x", "s", [("m", U64, comp_id)], arena,
                                 mgn=mgn, pool=pool)
            assert footprint(arena, pool) == before
        # The arena still holds a whole set afterwards.
        MetricSet.create("n/x", "s", [("m", U64, 1)], arena, pool=pool)

    @pytest.mark.parametrize("comp_id", [2**64, -1],
                             ids=["comp_id=2**64", "comp_id=-1"])
    def test_through_daemon(self, comp_id):
        d = Ldmsd("n0", env=SimEnv(Engine()), transports={}, mem="8kB")
        before = footprint(d.arena, d.set_pool)
        with pytest.raises(ValueError):
            d.create_set("n0/x", "s", set_template(["m"], U64), comp_id)
        assert footprint(d.arena, d.set_pool) == before
        assert d.get_set("n0/x") is None
        assert d.create_set("n0/x", "s", set_template(["m"], U64),
                            1).component_ids() == (1,)


# ---------------------------------------------------------------------------
# satellite: the template path against the reference packer
# ---------------------------------------------------------------------------


_COMP_IDS = st.one_of(st.sampled_from([0, 1, 2**64 - 1]),
                      st.integers(min_value=0, max_value=2**64 - 1))
_NAME_PREFIX = st.text(alphabet="abz#._µ", max_size=12)
_SET_NAME = st.text(alphabet="abcn/0123µ", min_size=1, max_size=40)
#: One file-name component (no ``/``, not ``.`` or ``..``) of at most
#: 62 UTF-8 bytes: a schema names store files.
_SCHEMA = st.text(alphabet="abcn.0123µ", min_size=1, max_size=31).filter(
    lambda s: s not in (".", ".."))


class TestTemplateOracle:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(),
           mtypes=st.lists(st.sampled_from(list(MetricType)),
                           min_size=1, max_size=200),
           prefix=_NAME_PREFIX)
    def test_create_matches_reference(self, data, mtypes, prefix):
        names = [f"{prefix}{i}" for i in range(len(mtypes))]
        values = [value_for(t, i) for i, t in enumerate(mtypes)]
        for rep in range(3):  # first compile, then two template hits
            name = data.draw(_SET_NAME, label="set name")
            schema = data.draw(_SCHEMA, label="schema")
            mgn = data.draw(st.integers(0, 2**32 - 1), label="mgn")
            if rep == 2:  # one component id for the whole set
                ids = [data.draw(_COMP_IDS, label="comp id")] * len(names)
            else:
                ids = data.draw(st.lists(_COMP_IDS, min_size=len(names),
                                         max_size=len(names)), label="ids")
            metrics = list(zip(names, mtypes, ids))
            s = MetricSet.create(name, schema, metrics, Arena(1 << 20), mgn=mgn)
            meta = ref_meta(name, schema, metrics, mgn)
            assert s.meta_bytes() == meta
            assert s.descs == ref_layout(metrics)[0]
            assert s.component_ids() == tuple(ids)
            s.set_all(values, timestamp=float(rep))
            assert s.data_bytes() == ref_data(metrics, mgn, values, float(rep))

            mirror = MetricSet.from_meta(s.meta_bytes(), Arena(1 << 20))
            assert mirror.meta_bytes() == meta
            assert mirror.descs == s.descs
            mirror.apply_data(s.data_bytes())
            assert mirror.data_bytes() == s.data_bytes()
            assert mirror.values() == s.values()

    def test_order_and_types_key_the_template(self, fresh_templates):
        layouts = [
            [("x", U64, 3), ("y", MetricType.U8, 3)],
            [("y", MetricType.U8, 3), ("x", U64, 3)],  # same names, reordered
            [("x", U64, 3), ("y", U64, 3)],            # same names, retyped
        ]
        templates = []
        for metrics in layouts:
            s = MetricSet.create("n/t", "t", metrics, Arena(1 << 16))
            assert s.meta_bytes() == ref_meta("n/t", "t", metrics, 1)
            names, mtypes, _ = zip(*metrics)
            templates.append(metric_set._TEMPLATES[(names, mtypes)])
        assert len(metric_set._TEMPLATES) == 3
        assert len({id(t) for t in templates}) == 3
        again = MetricSet.create("n/u", "u", [("x", U64, 9), ("y", U64, 9)],
                                 Arena(1 << 16))
        assert len(metric_set._TEMPLATES) == 3
        assert again._compiled is templates[2].layout.compiled


# ---------------------------------------------------------------------------
# satellite: a template hit validates as strictly as the first compile
# ---------------------------------------------------------------------------


#: (bad metrics, a good layout whose template the bad call would hit, or
#: None where no valid layout has these names).
BAD_CREATES = [
    pytest.param([("", U64, 1)], None, id="empty-name"),
    pytest.param([("x" * 64, U64, 1)], None, id="64-byte-name"),
    pytest.param([("a", U64, 1), ("a", U64, 1)], None, id="duplicate-names"),
    pytest.param([("a", "u64", 1)], [("a", U64, 1)], id="non-MetricType"),
    # Equal to MetricType.U64 and hashed alike: finds U64's template.
    pytest.param([("a", 7, 1)], [("a", U64, 1)], id="wire-tag-as-type"),
    pytest.param([("a", U64, -1)], [("a", U64, 1)], id="negative-comp-id"),
    pytest.param([("a", U64, 2**64)], [("a", U64, 1)], id="comp-id-2**64"),
]


class TestCachedPathValidates:
    @pytest.mark.parametrize("metrics, good", BAD_CREATES)
    def test_first_and_later_create_agree(self, metrics, good,
                                          fresh_templates):
        arena, pool = Arena(1 << 16), SetArenaPool()
        before = footprint(arena, pool)
        messages = []
        for attempt in range(2):
            with pytest.raises(ValueError) as exc:
                MetricSet.create("n/bad", "s", metrics, arena, pool=pool)
            messages.append(str(exc.value))
            assert footprint(arena, pool) == before
            if attempt == 0 and good is not None:
                MetricSet.create("n/good", "s", good, Arena(1 << 16))
        assert messages[0] == messages[1]


# ---------------------------------------------------------------------------
# satellite: machine-independent gate
# ---------------------------------------------------------------------------


class TestOneCompilePerLayout:
    def test_64_synthetic_daemons_compile_once(self, monkeypatch,
                                               fresh_templates):
        compiles = []
        compile_template = metric_set._compile_template

        def counting_compile(*args):
            compiles.append(args[0])
            return compile_template(*args)

        descs = []
        post_init = MetricDesc.__post_init__

        def counting_post_init(self):
            descs.append(self.name)
            post_init(self)

        monkeypatch.setattr(metric_set, "_compile_template", counting_compile)
        monkeypatch.setattr(MetricDesc, "__post_init__", counting_post_init)
        env = SimEnv(Engine())
        sets = []
        for i in range(64):
            d = Ldmsd(f"n{i}", env=env, transports={}, mem=4096 + 194 * 256)
            d.load_sampler("synthetic", instance=f"n{i}/syn",
                           component_id=i + 1, num_metrics=194)
            sets.append(d.get_set(f"n{i}/syn"))
        assert len(compiles) == 1
        assert descs == []
        assert len({id(s._compiled) for s in sets}) == 1
        assert [s.component_ids()[0] for s in sets] == list(range(1, 65))


# ---------------------------------------------------------------------------
# a plugin compiles its layout once and instantiates sets of it
# ---------------------------------------------------------------------------


class TestInstantiate:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(),
           mtypes=st.lists(st.sampled_from(list(MetricType)),
                           min_size=1, max_size=200),
           prefix=_NAME_PREFIX)
    def test_instantiated_set_equals_the_triple_list_set(self, data, mtypes,
                                                         prefix):
        names = [f"{prefix}{i}" for i in range(len(mtypes))]
        values = [value_for(t, i) for i, t in enumerate(mtypes)]
        tmpl = set_template(names, mtypes)
        assert set_template(tuple(names), tuple(mtypes)) is tmpl
        name = data.draw(_SET_NAME, label="set name")
        schema = data.draw(_SCHEMA, label="schema")
        mgn = data.draw(st.integers(0, 2**32 - 1), label="mgn")
        one = data.draw(_COMP_IDS, label="comp id")
        ids = data.draw(st.lists(_COMP_IDS, min_size=len(names),
                                 max_size=len(names)), label="ids")
        for comp_ids, per_metric in ((one, [one] * len(names)), (ids, ids)):
            pool = SetArenaPool()
            made = MetricSet.instantiate(name, schema, tmpl, comp_ids,
                                         Arena(1 << 20), mgn, pool)
            metrics = list(zip(names, mtypes, per_metric))
            listed = MetricSet.create(name, schema, metrics, Arena(1 << 20),
                                      mgn=mgn, pool=pool)
            assert made.meta_bytes() == listed.meta_bytes()
            assert made.meta_bytes() == ref_meta(name, schema, metrics, mgn)
            assert made.component_ids() == listed.component_ids()
            assert made.descs == listed.descs
            assert made._layout is listed._layout
            for s in (made, listed):
                s.set_all(values, timestamp=1.5)
            assert made.data_bytes() == listed.data_bytes()

    def test_one_type_for_every_name(self):
        assert (set_template(["a", "b"], U64)
                is set_template(("a", "b"), (U64, U64)))

    @pytest.mark.parametrize("names, mtypes", [
        pytest.param([], U64, id="no-metrics"),
        pytest.param(["a", "b"], [U64], id="fewer-types-than-names"),
        pytest.param(["a"], [7], id="wire-tag-as-type"),
        pytest.param(["a", "a"], U64, id="duplicate-names"),
        pytest.param(["x" * 64], U64, id="64-byte-name"),
    ])
    def test_bad_layout_is_refused(self, names, mtypes):
        with pytest.raises(ValueError):
            set_template(names, mtypes)

    @pytest.mark.parametrize("name, schema, comp_ids, mgn", [
        pytest.param("", "s", 1, 1, id="empty-set-name"),
        pytest.param("n" * 128, "s", 1, 1, id="128-byte-set-name"),
        pytest.param("n/x", "..", 1, 1, id="schema-dot-dot"),
        pytest.param("n/x", "a/b", 1, 1, id="schema-with-slash"),
        pytest.param("n/x", "s" * 64, 1, 1, id="64-byte-schema"),
        pytest.param("n/x", "s", 1, 2**32, id="mgn=2**32"),
        pytest.param("n/x", "s", 1, -1, id="mgn=-1"),
        pytest.param("n/x", "s", 2**64, 1, id="comp_id=2**64"),
        pytest.param("n/x", "s", -1, 1, id="comp_id=-1"),
        pytest.param("n/x", "s", 1.0, 1, id="comp_id-float"),
        pytest.param("n/x", "s", (1, -1), 1, id="per-metric-comp_id=-1"),
        pytest.param("n/x", "s", (1,), 1, id="too-few-comp-ids"),
        pytest.param("n/x", "s", (1, 2, 3), 1, id="too-many-comp-ids"),
    ])
    def test_refused_before_allocating(self, name, schema, comp_ids, mgn):
        tmpl = set_template(["a", "b"], U64)
        arena, pool = Arena(4096), SetArenaPool()
        before = footprint(arena, pool)
        with pytest.raises(ValueError):
            MetricSet.instantiate(name, schema, tmpl, comp_ids, arena, mgn,
                                  pool)
        assert footprint(arena, pool) == before
        MetricSet.instantiate("n/x", "s", tmpl, 1, arena, 1, pool)
