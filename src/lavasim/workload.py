"""Trace file format, parser, and the synthetic workload generator.

Trace files are tab-separated with a fixed header; times are integer seconds,
CPU is in milli-cores and memory in MiB, so files round-trip bit-exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from collections import deque
from dataclasses import dataclass
from itertools import islice, repeat
from operator import attrgetter, itemgetter
from typing import Iterable, List, Sequence, Tuple

from .core import ResourceVec
from .predict import FeatureVec

TRACE_COLUMNS = ("vm_id", "create_time_s", "lifetime_s", "cpu_m", "mem_mib",
                 "zone", "vm_family", "vm_shape_key", "vm_category",
                 "has_ssd", "priority", "provisioning_model")


class ParseError(Exception):
    pass


class DuplicateId(ParseError):
    pass


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One VM of a trace.  The parser and the generator give the records of
    one resources-and-features key one shared pair from ``vm_terms``."""

    vm_id: int
    create_time_s: int
    lifetime_s: int
    shape: ResourceVec
    features: FeatureVec

    @property
    def cpu_m(self) -> int:
        return self.shape.cpu_m


def vm_terms(cpu_m: int, mem_mib: int, **features) -> Tuple[ResourceVec, FeatureVec]:
    """The ``(shape, features)`` of a VM of ``cpu_m`` milli-cores and ``mem_mib``
    MiB; ``features`` are ``FeatureVec`` fields, all but the shape key."""
    return (ResourceVec(cpu_m, mem_mib),
            FeatureVec(vm_shape_key=f"{cpu_m}x{mem_mib}", **features))


# the slot setter of each TraceRecord field, in field order: the slot's
# descriptor ``__set__`` skips the frozen ``__setattr__``, which ``__init__``
# pays through ``object.__setattr__`` once per field
_SETTERS = tuple(getattr(TraceRecord, f.name).__set__ for f in dataclasses.fields(TraceRecord))


def _build_records(n: int, *columns: Iterable) -> List[TraceRecord]:
    """``n`` records whose ``j``-th field in record ``i`` is the ``i``-th value
    of ``columns[j]``.  Equal to ``TraceRecord(*fields)`` for each row, but
    filled one slot column at a time, with no Python-level step per value."""
    records = list(map(object.__new__, repeat(TraceRecord, n)))
    for set_slot, column in zip(_SETTERS, columns, strict=True):
        deque(map(set_slot, records, column), maxlen=0)
    return records


def serialize_trace(records: Sequence[TraceRecord]) -> str:
    lines = ["\t".join(TRACE_COLUMNS)]
    tails = {}  # (id(shape), id(features)) -> the last nine columns of their rows
    for r in records:
        s, f = r.shape, r.features
        tail = tails.get((id(s), id(f)))
        if tail is None:
            tail = tails[id(s), id(f)] = "\t".join((
                str(s.cpu_m), str(s.mem_mib), f.zone, f.vm_family, f"{s.cpu_m}x{s.mem_mib}",
                f.vm_category, "1" if f.has_ssd else "0", f.priority,
                "1" if f.provisioning_model else "0"))
        lines.append(f"{r.vm_id}\t{r.create_time_s}\t{r.lifetime_s}\t{tail}")
    return "\n".join(lines) + "\n"


def _key_terms(lineno: int, tail: str, cpu_m: int, mem_mib: int) -> Tuple[ResourceVec, FeatureVec]:
    """The ``(shape, features)`` of a row whose last nine columns are
    ``tail``, once its shape key and boolean columns are checked."""
    _, _, zone, family, shape_key, category, has_ssd, priority, provisioning = tail.split("\t")
    expected_key = f"{cpu_m}x{mem_mib}"
    if shape_key != expected_key:
        raise ParseError(f"line {lineno}: shape key {shape_key!r} != {expected_key!r}")
    for name, text in (("has_ssd", has_ssd), ("provisioning_model", provisioning)):
        if text != "0" and text != "1":
            raise ParseError(f"line {lineno}: {name} must be 0 or 1, got {text!r}")
    return vm_terms(cpu_m, mem_mib, zone=zone, vm_family=family, vm_category=category,
                    has_ssd=has_ssd == "1", priority=priority,
                    provisioning_model=provisioning == "1")


def parse_trace_text(text: str) -> List[TraceRecord]:
    lines = text.splitlines()
    if not lines or lines[0].split("\t") != list(TRACE_COLUMNS):
        raise ParseError("line 1: bad or missing trace header")
    values = []  # every row's fields in TraceRecord field order, row after row
    seen = set()
    # The raw text of a row's last nine columns -> its (shape, features).  A
    # key is checked on its first row only: a row that repeats a known key
    # can fail only in its first three columns or as a duplicate id.  A row
    # with several faults reports the one a check of every row would.
    terms_by_key = {}
    for lineno, line in enumerate(lines[1:], start=2):
        columns = line.count("\t") + 1
        if columns != len(TRACE_COLUMNS):
            if not line.strip():
                continue
            raise ParseError(f"line {lineno}: expected {len(TRACE_COLUMNS)} columns, got {columns}")
        id_text, create_text, lifetime_text, tail = line.split("\t", 3)
        terms = terms_by_key.get(tail)
        try:
            vm_id, create, lifetime = int(id_text), int(create_text), int(lifetime_text)
            if terms is None:
                cpu_text, mem_text, _ = tail.split("\t", 2)
                cpu_m, mem_mib = int(cpu_text), int(mem_text)
        except ValueError as exc:
            if not line.strip():  # whitespace and eleven tabs
                continue
            raise ParseError(f"line {lineno}: {exc}") from None
        if lifetime <= 0:
            raise ParseError(f"line {lineno}: lifetime must be positive, got {lifetime}")
        if terms is None:
            if cpu_m < 0 or mem_mib < 0:
                raise ParseError(f"line {lineno}: negative resources")
            if not cpu_m and not mem_mib:
                raise ParseError(f"line {lineno}: zero shape (no CPU and no memory)")
        if vm_id in seen:
            raise DuplicateId(f"line {lineno}: duplicate vm id {vm_id}")
        seen.add(vm_id)
        if terms is None:
            terms = terms_by_key[tail] = _key_terms(lineno, tail, cpu_m, mem_mib)
        values += (vm_id, create, lifetime)
        values += terms
    del lines  # freed before the records are built, to lower peak memory
    width = len(_SETTERS)
    records = _build_records(len(values) // width,
                             *(islice(values, i, None, width) for i in range(width)))
    # by (create time, vm id): both sorts are stable, and their int keys
    # allocate nothing the garbage collector tracks
    records.sort(key=attrgetter("vm_id"))
    records.sort(key=attrgetter("create_time_s"))
    return records


def parse_trace(path) -> List[TraceRecord]:
    with open(path) as fh:
        return parse_trace_text(fh.read())


def write_trace(records: Sequence[TraceRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_trace(records))


# -- synthetic generator -------------------------------------------------


@dataclass(frozen=True)
class Stratum:
    weight: float
    mu_log10_h: float      # log10 of lifetime in hours
    sigma_log10_h: float
    family: str


@dataclass(frozen=True)
class GeneratorConfig:
    num_vms: int = 20_000
    arrival_rate_per_h: float = 200.0
    strata: Tuple[Stratum, ...] = (
        Stratum(0.880, -1.0, 0.30, "batch-short"),
        Stratum(0.100, math.log10(4.0), 0.35, "service-mid"),
        Stratum(0.015, math.log10(30.0), 0.30, "service-long"),
        Stratum(0.005, math.log10(800.0), 0.25, "service-verylong"),
    )
    # (cpu milli-cores, MiB, weight), shared by all strata
    shape_catalog: Tuple[Tuple[int, int, float], ...] = (
        (1000, 4096, 0.25),
        (2000, 8192, 0.30),
        (4000, 16384, 0.25),
        (8000, 32768, 0.15),
        (16000, 65536, 0.05),
    )
    zone: str = "z0"
    seed: int = 0

    def __post_init__(self):
        if abs(sum(s.weight for s in self.strata) - 1.0) > 1e-9:
            raise ValueError("stratum weights must sum to 1")
        if abs(sum(w for _, _, w in self.shape_catalog) - 1.0) > 1e-9:
            raise ValueError("shape weights must sum to 1")
        if not 0 < self.arrival_rate_per_h < math.inf or self.num_vms <= 0:
            raise ValueError("rate must be positive and finite, and size positive")


def generate(cfg: GeneratorConfig) -> List[TraceRecord]:
    """Poisson arrivals; per-VM stratum by weight; log-normal lifetime per
    stratum; features encode the stratum via the family label."""
    import numpy as np
    rng = np.random.default_rng(cfg.seed)
    n = cfg.num_vms
    gaps = rng.exponential(3600.0 / cfg.arrival_rate_per_h, size=n)
    # a Python list: indexing numpy scalars one at a time is slow
    arrivals = np.floor(np.cumsum(gaps)).astype(np.int64).tolist()
    stratum_idx = rng.choice(len(cfg.strata), size=n, p=[s.weight for s in cfg.strata])
    normals = rng.standard_normal(n)
    shape_idx = rng.choice(len(cfg.shape_catalog), size=n,
                           p=[w for _, _, w in cfg.shape_catalog])
    mu, sigma = np.array([(s.mu_log10_h, s.sigma_log10_h) for s in cfg.strata])[stratum_idx].T
    # Python's float pow, not numpy's vector pow, whose last bit may depend
    # on the CPU; rint rounds half to even, as round does
    hours = np.fromiter(map(pow, repeat(10.0), (mu + sigma * normals).tolist()), float, n)
    lifetimes = np.maximum(np.rint(hours * 3600.0), 1.0).astype(np.int64).tolist()
    # one (shape, features) per distinct shape and family, at index
    # shape * len(strata) + stratum
    terms = {}
    table = [terms.setdefault((cpu_m, mem_mib, s.family),
                              vm_terms(cpu_m, mem_mib, zone=cfg.zone, vm_family=s.family))
             for cpu_m, mem_mib, _ in cfg.shape_catalog for s in cfg.strata]
    rows = list(map(table.__getitem__, (shape_idx * len(cfg.strata) + stratum_idx).tolist()))
    return _build_records(n, range(n), arrivals, lifetimes,
                          map(itemgetter(0), rows), map(itemgetter(1), rows))


def bimodal_config(num_vms: int = 20_000, seed: int = 0,
                   short_h: float = 1.0, long_h: float = 200.0,
                   long_frac: float = 0.1) -> GeneratorConfig:
    """Single-family bimodal mixture: the two modes share all features, so
    only the uptime can disambiguate them."""
    return GeneratorConfig(
        num_vms=num_vms, seed=seed,
        strata=(Stratum(1.0 - long_frac, math.log10(short_h), 0.05, "bimodal"),
                Stratum(long_frac, math.log10(long_h), 0.05, "bimodal")))


def split(records: Sequence[TraceRecord], train_frac: float
          ) -> Tuple[List[TraceRecord], List[TraceRecord]]:
    """Deterministic disjoint split keyed on a hash of the vm id."""
    if not 0.0 < train_frac < 1.0:
        raise ValueError(f"train_frac must be in (0,1), got {train_frac}")
    train, test = [], []
    for r in records:
        digest = hashlib.sha256(f"split:{r.vm_id}".encode()).digest()
        u = int.from_bytes(digest[:8], "big") / 2**64
        (train if u < train_frac else test).append(r)
    return train, test


def training_examples(records: Sequence[TraceRecord]) -> List[Tuple[FeatureVec, float]]:
    """``(features, lifetime)`` per record."""
    return [(r.features, float(r.lifetime_s)) for r in records]
