"""Trace format, parser validation, and generator statistics."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lavasim.workload import (
    DuplicateId,
    GeneratorConfig,
    ParseError,
    Stratum,
    TraceRecord,
    bimodal_config,
    generate,
    parse_trace,
    parse_trace_text,
    serialize_trace,
    split,
    training_examples,
    write_trace,
)


def sample_records():
    return [
        TraceRecord(vm_id=0, create_time_s=0, lifetime_s=600, cpu_m=1000, mem_mib=4096),
        TraceRecord(vm_id=1, create_time_s=30, lifetime_s=7200, cpu_m=2000, mem_mib=8192,
                    vm_family="svc", vm_category="web", has_ssd=True),
    ]


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        records = sample_records()
        path = tmp_path / "trace.tsv"
        write_trace(records, path)
        assert parse_trace(path) == records

    def test_roundtrip_text_bit_exact(self):
        text = serialize_trace(sample_records())
        assert serialize_trace(parse_trace_text(text)) == text

    def test_parser_sorts_by_create_time(self):
        records = sample_records()
        text = serialize_trace(records[::-1])
        assert parse_trace_text(text) == records

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_trace_text("vm_id\tstuff\n")

    def test_wrong_column_count(self):
        text = serialize_trace(sample_records()) + "1\t2\t3\n"
        with pytest.raises(ParseError):
            parse_trace_text(text)

    def test_nonpositive_lifetime(self):
        rec = TraceRecord(vm_id=0, create_time_s=0, lifetime_s=1, cpu_m=1000, mem_mib=4096)
        text = serialize_trace([rec]).replace("\t1\t1000", "\t0\t1000")
        with pytest.raises(ParseError):
            parse_trace_text(text)

    def test_duplicate_id(self):
        rec = sample_records()[0]
        text = serialize_trace([rec]) + serialize_trace([rec]).splitlines()[1] + "\n"
        with pytest.raises(DuplicateId):
            parse_trace_text(text)

    def test_inconsistent_shape_key(self):
        text = serialize_trace(sample_records()).replace("1000x4096", "1000x9999", 1)
        with pytest.raises(ParseError):
            parse_trace_text(text)

    def test_reused_shape_key_with_other_ints(self):
        header, row = serialize_trace(sample_records()[:1]).splitlines()
        other = row.replace("0\t0\t600\t1000", "1\t0\t600\t2000", 1)
        message = "line 3: shape key '1000x4096' != '2000x4096'"
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_trace_text("\n".join((header, row, other)) + "\n")

    def test_repeated_values_share_one_object(self):
        rec = TraceRecord(vm_id=0, create_time_s=0, lifetime_s=600, cpu_m=3000, mem_mib=12288,
                          zone="eu-west-1", vm_family="svc", vm_category="web",
                          priority="batch")
        a, b = parse_trace_text(serialize_trace([rec, dataclasses.replace(rec, vm_id=1)]))
        for name in ("cpu_m", "mem_mib", "zone", "vm_family", "vm_category", "priority"):
            assert getattr(a, name) is getattr(b, name), name

    def test_zero_shape(self):
        rec = TraceRecord(vm_id=0, create_time_s=0, lifetime_s=600, cpu_m=0, mem_mib=0)
        with pytest.raises(ParseError, match="line 2: zero shape"):
            parse_trace_text(serialize_trace([rec]))

    def test_non_integer_field(self):
        text = serialize_trace(sample_records()).replace("\t600\t", "\tsoon\t")
        with pytest.raises(ParseError):
            parse_trace_text(text)


class TestGenerator:
    def test_deterministic(self):
        cfg = GeneratorConfig(num_vms=500, seed=42)
        assert generate(cfg) == generate(cfg)

    def test_seed_changes_output(self):
        assert generate(GeneratorConfig(num_vms=500, seed=1)) != \
               generate(GeneratorConfig(num_vms=500, seed=2))

    def test_sorted_arrivals_positive_lifetimes(self):
        records = generate(GeneratorConfig(num_vms=2000, seed=3))
        assert all(a.create_time_s <= b.create_time_s
                   for a, b in zip(records, records[1:]))
        assert all(r.lifetime_s >= 1 for r in records)

    def test_arrival_rate(self):
        cfg = GeneratorConfig(num_vms=20_000, seed=5, arrival_rate_per_h=200.0)
        records = generate(cfg)
        duration_h = records[-1].create_time_s / 3600.0
        assert 20_000 / duration_h == pytest.approx(200.0, rel=0.05)

    def test_lifetime_skew_statistics(self):
        """Default mix: ~88% of VMs live under an hour, yet VMs of at least
        an hour carry ~98% of core-hours."""
        records = generate(GeneratorConfig(num_vms=100_000, seed=7))
        life = np.array([r.lifetime_s for r in records])
        core_h = np.array([r.cpu_m for r in records]) * life
        assert abs((life < 3600).mean() - 0.88) < 0.03
        assert abs(core_h[life >= 3600].sum() / core_h.sum() - 0.98) < 0.01

    def test_families_label_strata(self):
        records = generate(GeneratorConfig(num_vms=5000, seed=1))
        families = {r.vm_family for r in records}
        assert "batch-short" in families and "service-verylong" in families

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            GeneratorConfig(strata=(Stratum(0.5, 0.0, 0.1, "a"),))
        with pytest.raises(ValueError):
            GeneratorConfig(arrival_rate_per_h=0.0)
        with pytest.raises(ValueError):
            GeneratorConfig(num_vms=0)

    def test_bimodal_single_family(self):
        records = generate(bimodal_config(num_vms=2000, seed=1))
        assert {r.vm_family for r in records} == {"bimodal"}
        hours = sorted(r.lifetime_s / 3600.0 for r in records)
        # two tight modes around 1h and 200h
        assert hours[0] < 2.0 and hours[-1] > 100.0


class TestSplit:
    def test_disjoint_and_complete(self):
        records = generate(GeneratorConfig(num_vms=3000, seed=2))
        train, test = split(records, 0.7)
        assert len(train) + len(test) == len(records)
        assert {r.vm_id for r in train}.isdisjoint(r.vm_id for r in test)
        assert abs(len(train) / len(records) - 0.7) < 0.05

    def test_deterministic_by_id(self):
        records = generate(GeneratorConfig(num_vms=1000, seed=2))
        assert split(records, 0.5) == split(records, 0.5)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split([], 1.0)

    def test_training_examples(self):
        records = sample_records()
        rows = training_examples(records)
        assert rows[0][1] == 600.0
        assert rows[1][0].vm_family == "svc"

    def test_training_examples_share_one_feature_vec_per_key(self):
        records = generate(GeneratorConfig(num_vms=500, seed=4))
        rows = training_examples(records)
        by_key = {}
        for r, (fv, life) in zip(records, rows):
            assert fv == r.feature_vec() and life == float(r.lifetime_s)
            assert by_key.setdefault(r.feature_vec(), fv) is fv
        assert len(by_key) == len({id(fv) for fv, _ in rows}) < len(rows)


@settings(max_examples=25)
@given(st.integers(1, 300), st.integers(0, 10_000))
def test_serialize_parse_identity(n, seed):
    records = generate(GeneratorConfig(num_vms=n, seed=seed))
    assert parse_trace_text(serialize_trace(records)) == records


# -- records built column by column against TraceRecord(**fields) ---------

FIELDS = [f.name for f in dataclasses.fields(TraceRecord)]


def assert_built_like_init(records, expected):
    """``records`` behave like the records of ``TraceRecord.__init__`` in
    ``expected``: equality, hash, repr, replace and the frozen check."""
    assert len(records) == len(expected)
    for got, want in zip(records, expected):
        assert type(got) is TraceRecord and not hasattr(got, "__dict__")
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert [getattr(got, name) for name in FIELDS] == [getattr(want, name) for name in FIELDS]
        assert dataclasses.replace(got, lifetime_s=7, zone="zz") == \
            dataclasses.replace(want, lifetime_s=7, zone="zz")
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.zone = "elsewhere"
    assert serialize_trace(records) == serialize_trace(expected)


def reference_generate(cfg):
    """The generator's draws turned into records one ``TraceRecord(...)`` call
    per VM."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.num_vms
    gaps = rng.exponential(3600.0 / cfg.arrival_rate_per_h, size=n)
    arrivals = np.floor(np.cumsum(gaps)).astype(np.int64)
    stratum_idx = rng.choice(len(cfg.strata), size=n, p=[s.weight for s in cfg.strata])
    normals = rng.standard_normal(n)
    shape_idx = rng.choice(len(cfg.shape_catalog), size=n,
                           p=[w for _, _, w in cfg.shape_catalog])
    records = []
    for i in range(n):
        s = cfg.strata[int(stratum_idx[i])]
        lifetime_h = 10.0 ** (s.mu_log10_h + s.sigma_log10_h * float(normals[i]))
        cpu_m, mem_mib, _ = cfg.shape_catalog[int(shape_idx[i])]
        records.append(TraceRecord(
            vm_id=i, create_time_s=int(arrivals[i]),
            lifetime_s=max(int(round(lifetime_h * 3600.0)), 1),
            cpu_m=cpu_m, mem_mib=mem_mib, zone=cfg.zone, vm_family=s.family))
    return records


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 400), st.integers(0, 10_000), st.sampled_from(["z0", "eu-1"]),
       st.booleans())
def test_generate_matches_per_record_construction(n, seed, zone, bimodal):
    base = bimodal_config(num_vms=n, seed=seed) if bimodal else GeneratorConfig(num_vms=n, seed=seed)
    cfg = dataclasses.replace(base, zone=zone)
    assert_built_like_init(generate(cfg), reference_generate(cfg))


LABELS = st.text(alphabet="abz0-_. ", max_size=4)


@st.composite
def record_fields(draw):
    """Field dicts of records with unique ids, some sharing a create time."""
    ids = draw(st.lists(st.integers(-50, 10**9), max_size=25, unique=True))
    rows = []
    for vm_id in ids:
        cpu_m = draw(st.integers(0, 64_000))
        rows.append({
            "vm_id": vm_id, "create_time_s": draw(st.integers(0, 40)),
            "lifetime_s": draw(st.integers(1, 10**7)), "cpu_m": cpu_m,
            "mem_mib": draw(st.integers(0 if cpu_m else 1, 262_144)),
            "zone": draw(LABELS), "vm_family": draw(LABELS), "vm_category": draw(LABELS),
            "has_ssd": draw(st.booleans()), "priority": draw(LABELS),
            "provisioning_model": draw(st.booleans())})
    return rows


@settings(max_examples=200, deadline=None)
@given(record_fields())
def test_parse_matches_per_record_construction(rows):
    built = [TraceRecord(**fields) for fields in rows]
    expected = sorted(built, key=lambda r: (r.create_time_s, r.vm_id))
    assert_built_like_init(parse_trace_text(serialize_trace(built)), expected)
