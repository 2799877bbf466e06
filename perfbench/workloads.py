"""Benchmark workloads: generated traces replayed through the public lavasim API.

Every workload is a fixed recipe applied to ``--seed``: the seed picks the
generated trace, the training trace of the empirical model and the noise of
the noisy predictor, so one seed always gives the same inputs.

One *repetition* of a workload is all of its replays: the Best Fit warm-up
and measured window of each ``Simulator.run``, the defrag-ordering replay
where there is one, and writing ``series.csv``/``summary.json`` through the
CLI writers.  Predictors and simulators are built fresh for every
repetition, because ``NoisyOracleModel`` memoises its per-VM draws and a
reused one would time a warm cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from lavasim import cli, defrag
from lavasim.core import ResourceVec
from lavasim.predict import EmpiricalLifetimeModel, make_predictor
from lavasim.sched import ALGORITHMS
from lavasim.sim import DefragConfig, SimConfig, Simulator
from lavasim.workload import (
    GeneratorConfig,
    TraceRecord,
    generate,
    parse_trace,
    training_examples,
    write_trace,
)

HOUR_S = 3600.0
HOST_CAPACITY = ResourceVec(40_000, 163_840)  # 40 cores, 160 GiB
# 4-16 core VMs: the 500-host pool reaches its utilisation floor with ~9k
# arrivals instead of the ~24k the default 1-16 core catalog would need
LARGE_SHAPES = ((4000, 16384, 0.3), (8000, 32768, 0.4), (16000, 65536, 0.3))
# the training trace of the empirical model uses its own seed stream
TRAIN_SEED_OFFSET = 1_000_000


@dataclass(frozen=True)
class Replay:
    algorithm: str
    predictor: str  # "oracle", "noisy:<acc>" or "empirical" (fitted in setup)

    @property
    def key(self) -> str:
        return f"{self.algorithm}/{self.predictor}"


@dataclass(frozen=True)
class Workload:
    name: str
    hosts: int
    num_vms: int
    rate_per_h: float
    sim: SimConfig
    replays: Tuple[Replay, ...]
    shapes: Optional[Tuple[Tuple[int, int, float], ...]] = None
    train_vms: int = 0  # > 0: fit an empirical model on a disjoint trace
    compare_orderings: bool = False

    def generator(self, seed: int, num_vms: int) -> GeneratorConfig:
        extra = {"shape_catalog": self.shapes} if self.shapes else {}
        return GeneratorConfig(num_vms=num_vms, arrival_rate_per_h=self.rate_per_h,
                               seed=seed, **extra)

    def sim_config(self, seed: int) -> SimConfig:
        return dataclasses.replace(self.sim, stranding_seed=seed)


ORACLE_ALL = tuple(Replay(a, "oracle") for a in ALGORITHMS)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # the everyday compare loop: host scans are short, so fixed per-event
    # costs (heap, records, hooks, place/remove, sampling) carry the weight;
    # the only workload running LA-Binary's O(VMs-on-host) host_is_long
    Workload(
        name="small-pool-compare",
        hosts=50, num_vms=15_500, rate_per_h=290.0,
        sim=SimConfig(),  # 2-day Best Fit warm-up, ~5 h measured at ~75% CPU
        replays=ORACLE_ALL),
    # the O(hosts) select_host scan dominates, scoring every empty host; the
    # predictor is time-invariant, so PredictionCache mostly hits
    Workload(
        name="large-pool-lava",
        hosts=500, num_vms=9_000, rate_per_h=3_600.0, shapes=LARGE_SHAPES,
        sim=SimConfig(warmup_s=1.5 * HOUR_S),
        replays=(Replay("lava", "noisy:0.5"),)),
    # pushed past the 5% empty-host defrag trigger; the empirical predictor
    # is not time-invariant, so cache entries expire; the only workload
    # running migrations, simulate_evacuation and clone_pool
    Workload(
        name="defrag-empirical",
        hosts=50, num_vms=18_000, rate_per_h=400.0,
        sim=SimConfig(warmup_s=36 * HOUR_S, record_defrag_instances=True,
                      measure_stranding=True,
                      defrag=DefragConfig(enabled=True, ordering="lars")),
        replays=(Replay("nilas", "empirical"),),
        train_vms=20_000, compare_orderings=True),
)}

# regime floor of large-pool-lava: mean CPU utilisation of its measured window
LARGE_POOL_UTIL_FLOOR = 0.50


@dataclass
class Prepared:
    """Inputs of one workload and seed, built in set-up."""

    workload: Workload
    seed: int
    trace: List[TraceRecord]
    model: Optional[EmpiricalLifetimeModel]
    timings: Dict[str, float]  # per-layer set-up seconds


@dataclass
class ReplayOutput:
    key: str
    summary: Dict[str, object]
    series_path: str
    digest: str


def setup(workload: Workload, seed: int, out_dir: str) -> Prepared:
    """Generate the trace, round-trip it through TSV, fit the empirical
    model and build the simulators of one repetition."""
    clock = time.perf_counter
    timings = {}
    t = clock()
    records = generate(workload.generator(seed, workload.num_vms))
    train = (generate(workload.generator(seed + TRAIN_SEED_OFFSET, workload.train_vms))
             if workload.train_vms else None)
    timings["workload.generate_s"] = clock() - t
    path = os.path.join(out_dir, "trace.tsv")
    t = clock()
    write_trace(records, path)
    timings["workload.write_s"] = clock() - t
    t = clock()
    trace = parse_trace(path)
    timings["workload.parse_s"] = clock() - t
    model = None
    t = clock()
    if train is not None:
        model = EmpiricalLifetimeModel().fit(training_examples(train))
    timings["predict.fit_s"] = clock() - t
    prepared = Prepared(workload, seed, trace, model, timings)
    t = clock()
    build_simulators(prepared)
    timings["sim.build_s"] = clock() - t
    return prepared


def build_simulators(prepared: Prepared) -> List[Tuple[Replay, Simulator]]:
    w, seed = prepared.workload, prepared.seed
    out = []
    for replay in w.replays:
        if replay.predictor == "empirical":
            model = prepared.model  # fitted in set-up; holds no per-run state
        else:
            model = make_predictor(replay.predictor, seed=seed)
        out.append((replay, Simulator(prepared.trace, w.hosts, HOST_CAPACITY,
                                      replay.algorithm, model, cfg=w.sim_config(seed))))
    return out


def resolved_config(prepared: Prepared, replay: Replay) -> Dict[str, object]:
    w = prepared.workload
    return {"workload": w.name, "seed": prepared.seed, "algorithm": replay.algorithm,
            "predictor": replay.predictor, "hosts": w.hosts,
            "host_capacity": dataclasses.asdict(HOST_CAPACITY),
            "sim": dataclasses.asdict(w.sim_config(prepared.seed))}


def digest_files(*paths: str) -> str:
    """SHA-256 over the bytes of the files, concatenated in order."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_repetition(prepared: Prepared, out_dir: str, tracer=None
                   ) -> Tuple[float, List[ReplayOutput]]:
    """Replay every configuration of the workload once.

    With a ``spans.Tracer``, each replay gets its own replay id in the spans.

    Returns the host seconds of the simulated work (replays, defrag-ordering
    replay, output writing) and the outputs.  Simulator construction, the
    pool invariant check and hashing are outside the timed region.
    """
    w = prepared.workload
    elapsed = 0.0
    outputs = []
    for replay, simulator in build_simulators(prepared):
        if tracer is not None:
            tracer.replay += 1
        rdir = os.path.join(out_dir, replay.key.replace("/", "_").replace(":", "-"))
        os.makedirs(rdir, exist_ok=True)
        series_path = os.path.join(rdir, "series.csv")
        summary_path = os.path.join(rdir, "summary.json")
        t = time.perf_counter()
        result = simulator.run()
        summary = dict(result.summary)
        if w.compare_orderings:
            d = simulator.cfg.defrag
            report = defrag.compare_orderings(result.defrag_instances,
                                              algorithm=replay.algorithm,
                                              max_concurrent=d.max_concurrent,
                                              migration_s=d.migration_s)
            summary["defrag_instances"] = len(result.defrag_instances)
            summary["lars_trace_order_migrations"] = report["baseline_migrations"]
            summary["lars_migrations"] = report["lars_migrations"]
            summary["lars_reduction"] = report["reduction"]
        cli.write_series_csv(series_path, result.series)
        cli.write_summary_json(summary_path, summary, resolved_config(prepared, replay))
        elapsed += time.perf_counter() - t
        simulator.pool.check_invariants()
        outputs.append(ReplayOutput(replay.key, summary, series_path,
                                    digest_files(series_path, summary_path)))
    return elapsed, outputs
