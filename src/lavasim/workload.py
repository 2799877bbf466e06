"""Trace file format, parser, and the synthetic workload generator.

Trace files are tab-separated with a fixed header; times are integer seconds,
CPU is in milli-cores and memory in MiB, so files round-trip bit-exactly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import ResourceVec
from .predict import FeatureVec

TRACE_COLUMNS = ("vm_id", "create_time_s", "lifetime_s", "cpu_m", "mem_mib",
                 "zone", "vm_family", "vm_shape_key", "vm_category",
                 "has_ssd", "priority", "provisioning_model")


class ParseError(Exception):
    pass


class DuplicateId(Exception):
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
    records = []
    seen = set()
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
        expected_key = f"{cpu_m}x{mem_mib}"
        if cols[7] != expected_key:
            raise ParseError(f"line {lineno}: shape key {cols[7]!r} != {expected_key!r}")
        records.append(TraceRecord(
            vm_id=vm_id, create_time_s=create, lifetime_s=lifetime, cpu_m=cpu_m,
            mem_mib=mem_mib, zone=cols[5], vm_family=cols[6], vm_category=cols[8],
            has_ssd=cols[9] == "1", priority=cols[10], provisioning_model=cols[11] == "1"))
    records.sort(key=lambda r: (r.create_time_s, r.vm_id))
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
        if self.arrival_rate_per_h <= 0 or self.num_vms <= 0:
            raise ValueError("rate and size must be positive")


def generate(cfg: GeneratorConfig) -> List[TraceRecord]:
    """Poisson arrivals; per-VM stratum by weight; log-normal lifetime per
    stratum; features encode the stratum via the family label."""
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
    records = []
    for i in range(n):
        s = cfg.strata[stratum_idx[i]]
        lifetime_h = 10.0 ** (s.mu_log10_h + s.sigma_log10_h * normals[i])
        lifetime_s = max(int(round(lifetime_h * 3600.0)), 1)
        cpu_m, mem_mib, _ = cfg.shape_catalog[shape_idx[i]]
        records.append(TraceRecord(
            vm_id=i, create_time_s=arrivals[i], lifetime_s=lifetime_s,
            cpu_m=cpu_m, mem_mib=mem_mib, zone=cfg.zone, vm_family=s.family))
    return records


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


def training_examples(records: Sequence[TraceRecord]):
    return [(r.feature_vec(), float(r.lifetime_s)) for r in records]
