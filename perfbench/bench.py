"""Repetitions, output checks and metrics of one benchmark run.

Imported by ``run.py`` once the checkout's ``src/`` is on the import path.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from lavasim.sched import ALGORITHMS

import spans
import verify
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
SETUP_ROUNDS = 7

# metric names and units, as BENCHMARK.json at the checkout root lists them
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

HOOKS = ("sched.on_arrival", "sched.after_place", "sched.on_exit", "sched.on_deadline")


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


class Bench:
    """One workload and seed: set-up, repetitions and output checks."""

    def __init__(self, workload: workloads.Workload, seed: int):
        self.w = workload
        self.seed = seed
        self.out_dir = OUT / workload.name
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        self.recorded = load_digests().get(workload.name, {}).get(str(seed), {})
        self.reference = {}  # replay key -> digest of its first repetition
        self.attempted = 0
        self.failed = 0
        self.last_outputs = []
        self.setup_s = []
        self.setup_layers = {}
        for _ in range(SETUP_ROUNDS):
            gc.collect()
            t = time.perf_counter()
            self.prepared = workloads.setup(workload, seed, str(self.out_dir))
            self.setup_s.append(time.perf_counter() - t)
            for name, value in self.prepared.timings.items():
                self.setup_layers.setdefault(name, []).append(value)

    def repetition(self, tracer=None):
        """Replay the workload once; returns its host seconds, or None if it raised."""
        gc.collect()
        try:
            if tracer is None:
                elapsed, outputs = workloads.run_repetition(self.prepared, str(self.out_dir))
            else:
                with spans.patched(spans.lavasim_targets(tracer)):
                    elapsed, outputs = workloads.run_repetition(
                        self.prepared, str(self.out_dir), tracer)
        except Exception:
            traceback.print_exc()
            self.attempted += len(self.w.replays)
            self.failed += len(self.w.replays)
            return None
        for out in outputs:
            self.attempted += 1
            problems = self.check(out)
            for problem in problems:
                print(f"FAILED {out.key}: {problem}", file=sys.stderr)
            self.failed += bool(problems)
        self.last_outputs = outputs
        return elapsed

    def check(self, out) -> list:
        problems = []
        first = self.reference.setdefault(out.key, out.digest)
        if out.digest != first:
            problems.append(f"digest {out.digest} differs from the first repetition's {first}")
        recorded = self.recorded.get(out.key)
        if recorded is not None and out.digest != recorded:
            problems.append(f"digest {out.digest} differs from the recorded {recorded}")
        cfg = self.w.sim
        try:
            verify.check_series(out.series_path, self.prepared.trace, out.summary,
                                self.w.hosts, workloads.HOST_CAPACITY.cpu_m,
                                cfg.sample_interval_s, cfg.defrag.max_concurrent)
        except verify.OutputMismatch as exc:
            problems.append(str(exc))
        return problems

    def print_digests(self) -> None:
        for key, digest in self.reference.items():
            recorded = self.recorded.get(key)
            status = "none" if recorded is None else ("match" if recorded == digest else "MISMATCH")
            print(f"digest {self.w.name} seed={self.seed} {key} sha256={digest} "
                  f"recorded={status}")

    def end_to_end(self, times) -> dict:
        replay_s = statistics.median(times)
        arrivals = len(self.prepared.trace) * len(self.w.replays)
        return {
            "replay_s": replay_s,
            "arrivals_per_s": arrivals / replay_s,
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self, tracer: spans.Tracer, traced, untraced) -> dict:
        """Per-repetition layer figures, averaged over the traced repetitions."""
        reps = len(traced)
        stats = tracer.stats

        def calls(name):
            return stats[name].calls / reps if name in stats else 0

        def self_s(*names):
            return sum(stats[n].self_ns for n in names if n in stats) / 1e9 / reps

        def setup_median(name):
            return statistics.median(self.setup_layers[name])

        select = sorted(end - start for _, start, end, _, _ in tracer.kept("sched.select_host"))
        cache = stats.get("predict.cache")
        traced_s = statistics.mean(traced)
        m = {
            "sched.select_host.calls": calls("sched.select_host"),
            "sched.select_host.self_s": self_s("sched.select_host"),
            "sched.select_host.p50_us": percentile(select, 50) / 1e3,
            "sched.select_host.p99_us": percentile(select, 99) / 1e3,
            "sched.score.calls": tracer.counts.get("sched.score", 0) / reps,
            "sched.hooks.self_s": self_s(*HOOKS),
            "sched.on_deadline.calls": calls("sched.on_deadline"),
            "core.fits.calls": tracer.counts.get("core.fits", 0) / reps,
            "core.place.calls": calls("core.place"),
            "core.place.self_s": self_s("core.place"),
            "core.remove.calls": calls("core.remove"),
            "core.remove.self_s": self_s("core.remove"),
            "predict.remaining.calls": calls("predict.remaining"),
            "predict.remaining.self_s": self_s("predict.remaining"),
            "predict.cache.calls": calls("predict.cache"),
            "predict.cache.self_s": self_s("predict.cache"),
            # a lookup that made no remaining() call was served from the cache
            "predict.cache.hit_ratio": (cache.leaf_calls / cache.calls
                                        if cache and cache.calls else 0.0),
            "predict.fit_s": setup_median("predict.fit_s"),
            "sim.loop.self_s": self_s("sim.run"),
            "sim.sample.calls": calls("sim.sample"),
            "sim.sample.self_s": self_s("sim.sample"),
            "sim.defrag.self_s": self_s("sim.select_candidates", "sim.order_evacuation",
                                        "sim.clone_pool"),
            "sim.clone_pool.calls": calls("sim.clone_pool"),
            "sim.stranding_s": self_s("sim.stranding"),
            "defrag.evacuation.calls": calls("defrag.evacuation"),
            "defrag.evacuation.self_s": self_s("defrag.evacuation"),
            "defrag.compare_s": self_s("defrag.compare"),
            "workload.generate_s": setup_median("workload.generate_s"),
            "workload.write_s": setup_median("workload.write_s"),
            "workload.parse_s": setup_median("workload.parse_s"),
            "cli.write_s": self_s("cli.write"),
        }
        m.update(model_metrics(self.last_outputs))
        m["trace.replay_s"] = traced_s
        m["trace.accounted_frac"] = self_s(*stats) / traced_s
        m["trace.overhead_frac"] = traced_s / statistics.mean(untraced) - 1.0
        return m


def model_metrics(outputs) -> dict:
    """Simulated outcomes of one repetition: exact values, not timings.
    An algorithm the workload does not replay reports 0 empty hosts."""
    by_algo = {o.key.split("/")[0]: o.summary for o in outputs}
    m = {f"model.empty_hosts_pct.{a}": by_algo[a]["avg_empty_hosts_pct"] if a in by_algo else 0.0
         for a in ALGORITHMS}
    s = list(by_algo.values())
    m["model.util_cpu"] = statistics.mean(x["avg_util_cpu"] for x in s)
    m["model.migrations"] = sum(x["migrations"] for x in s)
    m["model.migrations_saved"] = sum(x["migrations_saved"] for x in s)
    m["model.scheduling_failures"] = sum(x["scheduling_failures"] for x in s)
    m["model.defrag_instances"] = sum(x.get("defrag_instances", 0) for x in s)
    m["model.lars_reduction"] = sum(x.get("lars_reduction", 0.0) for x in s)
    return m


def write_spans(tracer: spans.Tracer, path: Path) -> None:
    kept = [s for s in tracer.spans if s is not None]
    names = sorted({s[0] for s in kept})
    code = {n: i for i, n in enumerate(names)}
    np.savez(path, names=np.array(names),
             name=np.array([code[s[0]] for s in kept], dtype=np.int32),
             start_ns=np.array([s[1] for s in kept], dtype=np.int64),
             end_ns=np.array([s[2] for s in kept], dtype=np.int64),
             parent=np.array([s[3] for s in kept], dtype=np.int64),
             replay=np.array([s[4] for s in kept], dtype=np.int32))


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    if workload_name not in workloads.WORKLOADS:
        print(f"error: unknown workload {workload_name!r} "
              f"(choose from {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    bench = Bench(workloads.WORKLOADS[workload_name], seed)
    tracer = spans.Tracer() if trace else None
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for times, tr in ((untraced, None), (traced, tracer))[:1 + trace]:
            elapsed = bench.repetition(tr)
            if elapsed is not None:
                times.append(elapsed)
        # stop at the round end nearest to the time budget
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 >= seconds:
            break
    bench.print_digests()
    if not untraced or (trace and not traced):
        print("error: every repetition raised", file=sys.stderr)
        return 1
    if trace:
        metrics, units = bench.per_layer(tracer, traced, untraced), PER_LAYER_UNITS
        write_spans(tracer, bench.out_dir / "spans.npz")
    else:
        metrics, units = bench.end_to_end(untraced), END_TO_END_UNITS
    if set(metrics) != set(units):
        raise KeyError(f"metrics {sorted(set(metrics) ^ set(units))} are not both "
                       "reported and listed in BENCHMARK.json")
    print(f"metric failed_frac {bench.failed / bench.attempted:.6g} ratio")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(f"repetitions untraced={len(untraced)} traced={len(traced)} "
          f"replays={bench.attempted} failed={bench.failed}")
    print("repetition_s untraced=" + ",".join(f"{t:.3f}" for t in untraced)
          + " traced=" + ",".join(f"{t:.3f}" for t in traced)
          + " setup=" + ",".join(f"{t:.3f}" for t in bench.setup_s))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0
