"""Trace format, parser validation, and generator statistics."""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lavasim.workload import (
    TRACE_COLUMNS,
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
    vm_terms,
    write_trace,
)


def sample_records():
    return [
        TraceRecord(0, 0, 600, *vm_terms(1000, 4096)),
        TraceRecord(1, 30, 7200, *vm_terms(2000, 8192, vm_family="svc", vm_category="web",
                                           has_ssd=True)),
    ]


def trace_text(*rows):
    """A trace file of the header and ``rows``, each a list of column texts."""
    return "\n".join("\t".join(row) for row in (TRACE_COLUMNS,) + rows) + "\n"


# the column texts of a valid row, as a list to edit
ROW = ["0", "0", "600", "1000", "2048", "z0", "default", "1000x2048", "", "0", "standard", "0"]


def edited(row, **columns):
    """``row`` with the named columns replaced."""
    out = list(row)
    for name, text in columns.items():
        out[TRACE_COLUMNS.index(name)] = text
    return out


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
        with pytest.raises(ParseError, match="line 4: expected 12 columns, got 3"):
            parse_trace_text(text)
        # whitespace-only lines are skipped, a line of eleven tabs too
        blank = serialize_trace(sample_records()) + "\t" * 11 + "\n \t \n\n"
        assert parse_trace_text(blank) == sample_records()

    def test_nonpositive_lifetime(self):
        rec = TraceRecord(0, 0, 1, *vm_terms(1000, 4096))
        text = serialize_trace([rec]).replace("\t1\t1000", "\t0\t1000")
        with pytest.raises(ParseError):
            parse_trace_text(text)

    def test_duplicate_id(self):
        rec = sample_records()[0]
        text = serialize_trace([rec]) + serialize_trace([rec]).splitlines()[1] + "\n"
        # the second row repeats the first row's key
        with pytest.raises(DuplicateId, match="line 3: duplicate vm id 0"):
            parse_trace_text(text)

    @pytest.mark.parametrize("columns, message", [
        ({"lifetime_s": "0", "mem_mib": "lots"}, "invalid literal for int() with base 10: 'lots'"),
        ({"lifetime_s": "0", "cpu_m": "-1000"}, "lifetime must be positive, got 0"),
        ({"cpu_m": "-1000", "mem_mib": "0"}, "negative resources"),
        ({"vm_id": "7", "cpu_m": "0", "mem_mib": "0"}, "zero shape (no CPU and no memory)"),
        ({"vm_id": "7", "vm_shape_key": "1x1"}, "duplicate vm id 7"),
        ({"vm_id": "7", "zone": "z9", "lifetime_s": "-5"}, "lifetime must be positive, got -5"),
        ({"vm_shape_key": "1x1", "has_ssd": "yes"}, "shape key '1x1' != '1000x2048'"),
    ])
    def test_first_fault_in_column_order(self, columns, message):
        """A row with several faults reports the first of: ints by column,
        lifetime, negative resources, zero shape, duplicate id, shape key."""
        text = trace_text(edited(ROW, vm_id="7", zone="z9"), edited(ROW, **columns))
        with pytest.raises(ParseError, match=re.escape(f"line 3: {message}")):
            parse_trace_text(text)

    @pytest.mark.parametrize("column", ["has_ssd", "provisioning_model"])
    @pytest.mark.parametrize("value", ["yes", "true", "", "2", " 1"])
    def test_boolean_columns_hold_0_or_1(self, column, value):
        """Any other text would silently read as False."""
        message = f"line 2: {column} must be 0 or 1, got {value!r}"
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_trace_text(trace_text(edited(ROW, **{column: value})))
        assert getattr(parse_trace_text(trace_text(edited(ROW, **{column: "1"})))[0].features,
                       column) is True

    def test_each_key_column_separates(self):
        """A row that repeats a known row in all but one of its last nine
        columns is checked and given terms of its own: a changed resource or
        shape key fails the shape-key check, any other column shows in the
        features."""
        changes = {"cpu_m": "2000", "mem_mib": "4096", "zone": "z1", "vm_family": "f1",
                   "vm_shape_key": "2000x2048", "vm_category": "c1", "has_ssd": "1",
                   "priority": "spot", "provisioning_model": "1"}
        assert tuple(changes) == TRACE_COLUMNS[3:]
        for name, text in changes.items():
            trace = trace_text(ROW, edited(ROW, vm_id="1", **{name: text}))
            if name in ("cpu_m", "mem_mib", "vm_shape_key"):
                with pytest.raises(ParseError, match="line 3: shape key"):
                    parse_trace_text(trace)
                continue
            first, second = parse_trace_text(trace)
            value = text == "1" if name in ("has_ssd", "provisioning_model") else text
            assert second == TraceRecord(1, 0, 600, *vm_terms(1000, 2048, **{name: value}))
            assert second.features != first.features, name

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
        rec = TraceRecord(0, 0, 600, *vm_terms(3000, 12288, zone="eu-west-1", vm_family="svc",
                                               vm_category="web", priority="batch"))
        a, b = parse_trace_text(serialize_trace([rec, dataclasses.replace(rec, vm_id=1)]))
        assert a.shape is b.shape and a.features is b.features
        # another text of the same ints is another key, with equal terms
        text = serialize_trace([rec, dataclasses.replace(rec, vm_id=1)])
        c, d = parse_trace_text(text.replace("1\t0\t600\t3000\t", "1\t0\t600\t03000\t"))
        assert (c, d) == (rec, dataclasses.replace(rec, vm_id=1))
        assert c.shape is not d.shape and c.features is not d.features

    def test_zero_shape(self):
        rec = TraceRecord(0, 0, 600, *vm_terms(0, 0))
        with pytest.raises(ParseError, match="line 2: zero shape"):
            parse_trace_text(serialize_trace([rec]))

    def test_non_integer_field(self):
        text = serialize_trace(sample_records()).replace("\t600\t", "\tsoon\t")
        with pytest.raises(ParseError):
            parse_trace_text(text)
        # a row that repeats a known key is still checked in its first columns
        text = trace_text(ROW, edited(ROW, vm_id="1", create_time_s="later"))
        with pytest.raises(ParseError, match="line 3: invalid literal .* 'later'"):
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
        families = {r.features.vm_family for r in records}
        assert "batch-short" in families and "service-verylong" in families

    @pytest.mark.parametrize("cfg, sha256", [
        (GeneratorConfig(num_vms=5000, seed=0),
         "8c4659bfcb4f25050793ba35b4e3f0810516a8b4c2217bbad9a3d89b66118a59"),
        (GeneratorConfig(num_vms=5000, seed=7),
         "fffda0dfbbd0b4bfc4f6e8a26c2649b428d9bdbfed8f0f48539aaea05de4caf8"),
        # the large-pool-lava benchmark's shape catalog and rate
        (GeneratorConfig(num_vms=3000, arrival_rate_per_h=3600.0, seed=0,
                         shape_catalog=((4000, 16384, 0.3), (8000, 32768, 0.4),
                                        (16000, 65536, 0.3))),
         "5f39f75dff8e2aec9ef45db92a9db9fccd88c116b946c6b0f6dc39b1be2c756b"),
        (bimodal_config(num_vms=3000, seed=11),
         "236d2a7d36ca7fb4b944f9f696371d72a707a43f9190f98f1741f72d3fdc6b25"),
    ])
    def test_trace_bytes_are_pinned(self, cfg, sha256):
        """The trace files ``lavasim generate`` writes stay byte for byte."""
        assert hashlib.sha256(serialize_trace(generate(cfg)).encode()).hexdigest() == sha256

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            GeneratorConfig(strata=(Stratum(0.5, 0.0, 0.1, "a"),))
        with pytest.raises(ValueError):
            GeneratorConfig(arrival_rate_per_h=0.0)
        with pytest.raises(ValueError):
            GeneratorConfig(num_vms=0)

    def test_bimodal_single_family(self):
        records = generate(bimodal_config(num_vms=2000, seed=1))
        assert {r.features.vm_family for r in records} == {"bimodal"}
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
            assert fv is r.features and life == float(r.lifetime_s)
            assert by_key.setdefault(r.features, fv) is fv
        assert len(by_key) == len({id(fv) for fv, _ in rows}) < len(rows)


@settings(max_examples=25)
@given(st.integers(1, 300), st.integers(0, 10_000))
def test_serialize_parse_identity(n, seed):
    records = generate(GeneratorConfig(num_vms=n, seed=seed))
    assert parse_trace_text(serialize_trace(records)) == records


# -- records built column by column against TraceRecord(...) ---------------

FIELDS = [f.name for f in dataclasses.fields(TraceRecord)]


def assert_built_like_init(records, expected):
    """``records`` behave like the records of ``TraceRecord.__init__`` in
    ``expected``: equality, hash, repr, replace and the frozen check; and
    the records of one resources-and-features key share one shape and one
    features object."""
    assert len(records) == len(expected)
    for got, want in zip(records, expected):
        assert type(got) is TraceRecord and not hasattr(got, "__dict__")
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert [getattr(got, name) for name in FIELDS] == [getattr(want, name) for name in FIELDS]
        assert dataclasses.replace(got, lifetime_s=7) == dataclasses.replace(want, lifetime_s=7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.lifetime_s = 1
    terms = {(r.shape, r.features) for r in records}
    assert len({(id(r.shape), id(r.features)) for r in records}) == len(terms)
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
            i, int(arrivals[i]), max(int(round(lifetime_h * 3600.0)), 1),
            *vm_terms(cpu_m, mem_mib, zone=cfg.zone, vm_family=s.family)))
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
def record_args(draw):
    """``TraceRecord`` arguments with unique ids, some sharing a create time
    or a resources-and-features key."""
    ids = draw(st.lists(st.integers(-50, 10**9), max_size=25, unique=True))
    rows = []
    for vm_id in ids:
        cpu_m = draw(st.sampled_from([0, 1000, 64_000]) | st.integers(0, 64_000))
        features = {"zone": draw(LABELS), "vm_family": draw(LABELS),
                    "vm_category": draw(LABELS), "has_ssd": draw(st.booleans()),
                    "priority": draw(LABELS), "provisioning_model": draw(st.booleans())}
        rows.append((vm_id, draw(st.integers(0, 40)), draw(st.integers(1, 10**7)), cpu_m,
                     draw(st.sampled_from([4096]) | st.integers(0 if cpu_m else 1, 262_144)),
                     features))
    return rows


@settings(max_examples=200, deadline=None)
@given(record_args())
def test_parse_matches_per_record_construction(rows):
    built = [TraceRecord(vm_id, create, lifetime, *vm_terms(cpu_m, mem_mib, **features))
             for vm_id, create, lifetime, cpu_m, mem_mib, features in rows]
    expected = sorted(built, key=lambda r: (r.create_time_s, r.vm_id))
    assert_built_like_init(parse_trace_text(serialize_trace(built)), expected)
