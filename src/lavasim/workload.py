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
from operator import attrgetter
from typing import Dict, Iterable, List, Sequence, Tuple

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
    vm_id: int
    create_time_s: int
    lifetime_s: int
    cpu_m: int
    mem_mib: int
    zone: str = "z0"
    vm_family: str = "default"
    vm_category: str = ""
    has_ssd: bool = False
    priority: str = "standard"
    provisioning_model: bool = False

    def shape(self) -> ResourceVec:
        return ResourceVec(self.cpu_m, self.mem_mib)

    @property
    def vm_shape_key(self) -> str:
        return f"{self.cpu_m}x{self.mem_mib}"

    def feature_vec(self) -> FeatureVec:
        return FeatureVec(zone=self.zone, vm_family=self.vm_family,
                          vm_shape_key=self.vm_shape_key, vm_category=self.vm_category,
                          has_ssd=self.has_ssd, priority=self.priority,
                          provisioning_model=self.provisioning_model)


# (name, default, slot setter) per field of TraceRecord, in field order.  The
# setter is the slot's descriptor ``__set__``: it skips the frozen
# ``__setattr__``, which ``__init__`` pays through ``object.__setattr__``
# once per field.
_SLOTS = tuple((f.name, f.default, getattr(TraceRecord, f.name).__set__)
               for f in dataclasses.fields(TraceRecord))


def _build_records(n: int, columns: Dict[str, Iterable]) -> List[TraceRecord]:
    """``n`` records whose field ``name`` in record ``i`` is the ``i``-th value
    of ``columns[name]``, which holds ``n`` values, or the field's default
    where ``columns`` has no ``name``.  Equal to ``TraceRecord(**fields)`` for
    each row, but filled one slot column at a time, with no Python-level
    step per value."""
    records = list(map(object.__new__, repeat(TraceRecord, n)))
    for name, default, set_slot in _SLOTS:
        column = columns.get(name)
        if column is None:
            if default is dataclasses.MISSING:
                raise TypeError(f"no column for TraceRecord field {name!r}")
            column = repeat(default)
        deque(map(set_slot, records, column), maxlen=0)
    return records


def shared_terms(rec: TraceRecord, table: Dict[tuple, Tuple[ResourceVec, FeatureVec]]
                 ) -> Tuple[ResourceVec, FeatureVec]:
    """``rec``'s ``(shape(), feature_vec())``, one pair per distinct resources
    and features in ``table``, which the caller owns.  Both classes are
    frozen, so every record of one key shares them."""
    key = (rec.cpu_m, rec.mem_mib, rec.zone, rec.vm_family, rec.vm_category,
           rec.has_ssd, rec.priority, rec.provisioning_model)
    terms = table.get(key)
    if terms is None:
        terms = table[key] = (rec.shape(), rec.feature_vec())
    return terms


def serialize_trace(records: Sequence[TraceRecord]) -> str:
    lines = ["\t".join(TRACE_COLUMNS)]
    for r in records:
        lines.append("\t".join((
            str(r.vm_id), str(r.create_time_s), str(r.lifetime_s), str(r.cpu_m),
            str(r.mem_mib), r.zone, r.vm_family, r.vm_shape_key, r.vm_category,
            "1" if r.has_ssd else "0", r.priority, "1" if r.provisioning_model else "0")))
    return "\n".join(lines) + "\n"


def parse_trace_text(text: str) -> List[TraceRecord]:
    lines = text.splitlines()
    if not lines or lines[0].split("\t") != list(TRACE_COLUMNS):
        raise ParseError("line 1: bad or missing trace header")
    values = []  # every row's fields in TraceRecord field order, row after row
    seen = set()
    # Repeated values share one object: ``share`` returns the first copy of
    # each string, and rows take their ints from ``shapes``, so each shape
    # key is checked once (and again for a row whose ints differ from it).
    share = {}.setdefault
    shapes = {}  # vm_shape_key -> (cpu_m, mem_mib)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != len(TRACE_COLUMNS):
            raise ParseError(f"line {lineno}: expected {len(TRACE_COLUMNS)} columns, got {len(cols)}")
        try:
            vm_id = int(cols[0])
            create = int(cols[1])
            lifetime = int(cols[2])
            cpu_m = int(cols[3])
            mem_mib = int(cols[4])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if lifetime <= 0:
            raise ParseError(f"line {lineno}: lifetime must be positive, got {lifetime}")
        if cpu_m < 0 or mem_mib < 0:
            raise ParseError(f"line {lineno}: negative resources")
        if not cpu_m and not mem_mib:
            raise ParseError(f"line {lineno}: zero shape (no CPU and no memory)")
        if vm_id in seen:
            raise DuplicateId(f"line {lineno}: duplicate vm id {vm_id}")
        seen.add(vm_id)
        shape = shapes.get(cols[7])
        if shape != (cpu_m, mem_mib):
            expected_key = f"{cpu_m}x{mem_mib}"
            if cols[7] != expected_key:
                raise ParseError(f"line {lineno}: shape key {cols[7]!r} != {expected_key!r}")
            shape = shapes[cols[7]] = (cpu_m, mem_mib)
        cpu_m, mem_mib = shape
        values += (vm_id, create, lifetime, cpu_m, mem_mib, share(cols[5], cols[5]),
                   share(cols[6], cols[6]), share(cols[8], cols[8]), cols[9] == "1",
                   share(cols[10], cols[10]), cols[11] == "1")
    del lines  # freed before the records are built, to lower peak memory
    width = len(_SLOTS)
    records = _build_records(len(values) // width, {
        name: islice(values, i, None, width) for i, (name, _, _) in enumerate(_SLOTS)})
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
    # the draws as Python lists: indexing numpy scalars one at a time is slow
    arrivals = np.floor(np.cumsum(gaps)).astype(np.int64).tolist()
    stratum_idx = rng.choice(len(cfg.strata), size=n,
                             p=[s.weight for s in cfg.strata]).tolist()
    normals = rng.standard_normal(n).tolist()
    shape_idx = rng.choice(len(cfg.shape_catalog), size=n,
                           p=[w for _, _, w in cfg.shape_catalog]).tolist()
    strata = [(s.mu_log10_h, s.sigma_log10_h) for s in cfg.strata]
    lifetimes = []
    for k, z in zip(stratum_idx, normals):
        mu, sigma = strata[k]
        lifetime_h = 10.0 ** (mu + sigma * z)
        lifetimes.append(max(int(round(lifetime_h * 3600.0)), 1))
    cpus = [cpu_m for cpu_m, _, _ in cfg.shape_catalog]
    mems = [mem_mib for _, mem_mib, _ in cfg.shape_catalog]
    families = [s.family for s in cfg.strata]
    return _build_records(n, {
        "vm_id": range(n), "create_time_s": arrivals, "lifetime_s": lifetimes,
        "cpu_m": map(cpus.__getitem__, shape_idx), "mem_mib": map(mems.__getitem__, shape_idx),
        "zone": repeat(cfg.zone), "vm_family": map(families.__getitem__, stratum_idx)})


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
    """``(features, lifetime)`` per record; records of one key share one
    ``FeatureVec`` (``shared_terms``)."""
    table: Dict[tuple, Tuple[ResourceVec, FeatureVec]] = {}
    return [(shared_terms(r, table)[1], float(r.lifetime_s)) for r in records]
