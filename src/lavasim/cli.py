"""Experiment runner CLI.

Subcommands: generate, run, compare, sweep-accuracy, defrag-compare,
theorem, train, eval-model.  All outputs are CSV/JSON files; every command
is deterministic given its inputs and seeds.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Optional, Sequence, Tuple

from .core import ResourceVec
from .defrag import compare_orderings
from .evaluate import model_report
from .predict import PREDICTOR_SPECS, EmpiricalLifetimeModel, make_predictor
from .sched import LavaConfig, NilasConfig, check_algorithm
from .sim import DefragConfig, RunResult, SimConfig, Simulator
from .theorem import TheoremConfig, gap_regression, gap_vs_m, misprediction_probability
from .workload import (
    GeneratorConfig,
    ParseError,
    generate,
    parse_trace,
    training_examples,
    write_trace,
)

SERIES_HEADER = "# lavasim-series v1"
SERIES_COLUMNS = ("time_s", "empty_hosts_pct", "empty_to_free_ratio",
                  "packing_density", "num_vms", "util_cpu", "util_mem")


@dataclasses.dataclass(frozen=True)
class PoolConfig:
    hosts: int = 50
    cpu_m: int = 96_000
    mem_mib: int = 393_216

    def __post_init__(self):
        for name in ("hosts", "cpu_m", "mem_mib"):
            if getattr(self, name) < 1:
                raise ValueError(f"pool {name} must be >= 1")

    @property
    def capacity(self) -> ResourceVec:
        return ResourceVec(self.cpu_m, self.mem_mib)


def _int_list(text: str) -> Tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


# ``SimConfig`` fields a command sets, not a config file
_RUN_ONLY = ("record_placements", "record_defrag_instances", "stranding_seed", "defrag")

# the keys each config section accepts: the fields of the section's config
# dataclass, each read by the type of its default (a tuple as ``_int_list``);
# the values become keyword arguments of that dataclass
CONFIG_KEYS = {
    name: {f.name: _int_list if isinstance(f.default, tuple) else type(f.default)
           for f in dataclasses.fields(cls) if f.name not in _RUN_ONLY}
    for name, cls in (("pool", PoolConfig), ("nilas", NilasConfig), ("lava", LavaConfig),
                      ("sim", SimConfig), ("defrag", DefragConfig))
}


def load_config(path: Optional[str]) -> Dict[str, Dict[str, object]]:
    """Read an INI file into typed values; unknown sections or keys and
    malformed values raise ``ValueError``."""
    if path is None:
        return {}
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    with open(path) as fh:
        parser.read_file(fh)
    out: Dict[str, Dict[str, object]] = {}
    for name in parser.sections():
        if name not in CONFIG_KEYS:
            raise ValueError(f"{path}: unknown section [{name}]")
        section, readers = parser[name], CONFIG_KEYS[name]
        out[name] = {}
        for key in section:
            if key not in readers:
                raise ValueError(f"{path}: unknown key {key!r} in [{name}]")
            read = readers[key]
            try:
                out[name][key] = section.getboolean(key) if read is bool else read(section[key])
            except ValueError as exc:
                raise ValueError(f"{path}: [{name}] {key}: {exc}") from None
    return out


def resolve_configs(raw: Dict[str, Dict[str, object]], args) -> Tuple[
        PoolConfig, NilasConfig, LavaConfig, SimConfig]:
    s_raw = dict(raw.get("sim", {}))
    if getattr(args, "cold_start", False):
        s_raw["warmup"] = False
    if getattr(args, "check_invariants", False):
        s_raw["check_invariants"] = True
    sim = SimConfig(record_placements=getattr(args, "placements", False),
                    defrag=DefragConfig(**raw.get("defrag", {})), **s_raw)
    return (PoolConfig(**raw.get("pool", {})), NilasConfig(**raw.get("nilas", {})),
            LavaConfig(**raw.get("lava", {})), sim)


def run_one(trace, algorithm: str, predictor_spec: str, pool: PoolConfig,
            nilas: NilasConfig, lava: LavaConfig, sim_cfg: SimConfig,
            seed: int = 0) -> RunResult:
    """Replay ``trace``; an empty trace, or one that yields no sample, raises
    ``ValueError``, as its summary would report 0 % empty hosts over nothing."""
    if not trace:
        raise ValueError("the trace has no VMs to replay")
    model = make_predictor(predictor_spec, seed=seed)
    sim = Simulator(trace, pool.hosts, pool.capacity, algorithm, model,
                    nilas, lava, sim_cfg)
    result = sim.run()
    if not result.series:
        s = result.summary
        raise ValueError(f"no sample between the end of warm-up at {s['measure_start_s']:.0f} s "
                         f"and the trace's last arrival at {s['measure_end_s']:.0f} s; use a "
                         f"longer trace, a smaller warmup_s or --cold-start")
    return result


def write_series_csv(path, series) -> None:
    with open(path, "w") as fh:
        fh.write(SERIES_HEADER + "\n")
        fh.write(",".join(SERIES_COLUMNS) + "\n")
        for row in series:
            t, e, r, d, n, uc, um = row
            fh.write(f"{t:.0f},{e:.6f},{r:.6f},{d:.6f},{n},{uc:.6f},{um:.6f}\n")


def write_summary_json(path, summary: Dict, resolved: Dict) -> None:
    payload = dict(summary)
    payload["config"] = resolved
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- subcommands ---------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = GeneratorConfig(num_vms=args.num_vms, seed=args.seed,
                          arrival_rate_per_h=args.rate)
    write_trace(generate(cfg), args.out)
    print(f"wrote {args.num_vms} VMs to {args.out}")
    return 0


def cmd_run(args) -> int:
    trace = parse_trace(args.trace)
    pool, nilas, lava, sim_cfg = resolve_configs(load_config(args.config), args)
    result = run_one(trace, args.algo, args.predictor, pool, nilas, lava,
                     sim_cfg, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    write_series_csv(os.path.join(args.out, "series.csv"), result.series)
    resolved = {"pool": dataclasses.asdict(pool), "nilas": dataclasses.asdict(nilas),
                "lava": dataclasses.asdict(lava), "sim": dataclasses.asdict(sim_cfg),
                "algorithm": args.algo, "predictor": args.predictor,
                "seed": args.seed, "trace": args.trace}
    write_summary_json(os.path.join(args.out, "summary.json"), result.summary, resolved)
    with open(os.path.join(args.out, "placements.log"), "w") as fh:
        fh.write("\n".join(result.placements) + ("\n" if result.placements else ""))
    print(f"{args.algo}: avg empty hosts "
          f"{result.summary['avg_empty_hosts_pct']:.2f}%")
    return 0


def _check_counts(args, *names: str) -> None:
    """Raise ``ValueError`` unless each named option of ``args`` is at least 1."""
    for name in names:
        value = getattr(args, name)
        if value < 1:
            raise ValueError(f"--{name.replace('_', '-')} must be >= 1, got {value}")


# the trace of a ``_replay_all`` worker process, set when the process starts
_worker_trace: Sequence = ()


def _set_worker_trace(trace: Sequence) -> None:
    global _worker_trace
    _worker_trace = trace


def _replay(run: tuple, trace: Optional[Sequence] = None) -> Dict:
    """The summary of replaying ``trace``, by default the worker's, under
    ``(algorithm, predictor spec, configs, seed)``."""
    algo, predictor, configs, seed = run
    return run_one(_worker_trace if trace is None else trace, algo, predictor, *configs,
                   seed=seed).summary


def _replay_all(trace_path: str, runs: list, jobs: int) -> list:
    """``_replay`` of each run on the trace at ``trace_path``, parsed once,
    in ``min(jobs, len(runs))`` processes if that is more than one."""
    trace = parse_trace(trace_path)
    jobs = min(jobs, len(runs))
    if jobs <= 1:
        return [_replay(run, trace) for run in runs]
    with ProcessPoolExecutor(jobs, initializer=_set_worker_trace, initargs=(trace,)) as pool_exec:
        return list(pool_exec.map(_replay, runs))


def cmd_compare(args) -> int:
    _check_counts(args, "jobs")
    if len(args.algos) < 2:
        raise ValueError("compare needs at least two algorithms")
    for algo in args.algos:
        check_algorithm(algo)
    configs = resolve_configs(load_config(args.config), args)
    runs = [(algo, args.predictor, configs, args.seed) for algo in args.algos]
    results = dict(zip(args.algos, _replay_all(args.trace, runs, args.jobs)))
    base = results[args.algos[0]]["avg_empty_hosts_pct"]
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "comparison.csv")
    with open(path, "w") as fh:
        fh.write("# lavasim-comparison v1\n")
        fh.write("algorithm,avg_empty_hosts_pct,delta_pp_vs_first,"
                 "avg_empty_to_free_ratio,avg_packing_density,scheduling_failures\n")
        for algo in args.algos:
            s = results[algo]
            fh.write(f"{algo},{s['avg_empty_hosts_pct']:.6f},"
                     f"{s['avg_empty_hosts_pct'] - base:.6f},"
                     f"{s['avg_empty_to_free_ratio']:.6f},"
                     f"{s['avg_packing_density']:.6f},{s['scheduling_failures']}\n")
    for algo in args.algos:
        print(f"{algo}: {results[algo]['avg_empty_hosts_pct']:.2f}% empty "
              f"({results[algo]['avg_empty_hosts_pct'] - base:+.2f} pp)")
    return 0


def cmd_sweep_accuracy(args) -> int:
    _check_counts(args, "num_seeds", "jobs")
    for algo in args.algos:
        check_algorithm(algo)
    grid = [float(x) for x in args.accuracies.split(",")]
    for acc in grid:
        if not 0.0 <= acc <= 1.0:
            raise ValueError(f"accuracy {acc} outside [0,1]")
    configs = resolve_configs(load_config(args.config), args)
    cells = [(algo, acc, seed) for algo in args.algos for acc in grid
             for seed in range(args.seed, args.seed + args.num_seeds)]
    runs = [(algo, f"noisy:{acc}", configs, seed) for algo, acc, seed in cells]
    runs.append(("baseline", "oracle", configs, args.seed))
    summaries = _replay_all(args.trace, runs, args.jobs)
    baseline_pct = summaries.pop()["avg_empty_hosts_pct"]
    rows = sorted(cell + (s["avg_empty_hosts_pct"],) for cell, s in zip(cells, summaries))
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "sweep.csv"), "w") as fh:
        fh.write("# lavasim-sweep v1\n")
        fh.write("algorithm,accuracy,seed,avg_empty_hosts_pct,improvement_pp\n")
        for algo, acc, seed, pct in rows:
            fh.write(f"{algo},{acc},{seed},{pct:.6f},{pct - baseline_pct:.6f}\n")
    print(f"baseline: {baseline_pct:.2f}% empty; {len(rows)} sweep cells written")
    return 0


def cmd_defrag_compare(args) -> int:
    trace = parse_trace(args.trace)
    raw = load_config(args.config)
    raw.setdefault("defrag", {})["enabled"] = True
    pool, nilas, lava, sim_cfg = resolve_configs(raw, args)
    sim_cfg = dataclasses.replace(sim_cfg, record_defrag_instances=True)
    result = run_one(trace, args.algo, args.predictor, pool, nilas, lava,
                     sim_cfg, seed=args.seed)
    report = compare_orderings(result.defrag_instances, algorithm=args.algo,
                               max_concurrent=sim_cfg.defrag.max_concurrent,
                               migration_s=sim_cfg.defrag.migration_s)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "defrag_report.json"), "w") as fh:
        json.dump(dict(report, instances=len(result.defrag_instances)), fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    print(f"baseline {report['baseline_migrations']} vs LARS "
          f"{report['lars_migrations']} migrations "
          f"({100 * report['reduction']:.2f}% reduction)")
    return 0


def cmd_theorem(args) -> int:
    _check_counts(args, "num_seeds")
    base = TheoremConfig(epsilon=args.epsilon, rho=args.rho)
    ms = [int(x) for x in args.ms.split(",")]
    if len(set(ms)) < 2:
        raise ValueError(f"--ms needs at least two distinct values to fit the gap against m, "
                         f"got {args.ms}")
    rows = gap_vs_m(base, ms, seeds=list(range(args.seed, args.seed + args.num_seeds)))
    reg = gap_regression(rows)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "theorem.csv"), "w") as fh:
        fh.write("# lavasim-theorem v1\n")
        fh.write("m,seed,avg_hosts_no_learning,avg_hosts_learning,gap\n")
        for m, seed, nl, l in rows:
            fh.write(f"{m},{seed},{nl:.6f},{l:.6f},{nl - l:.6f}\n")
    summary = {"slope": reg.slope, "p_value": reg.pvalue, "intercept": reg.intercept,
               "epsilon": args.epsilon, "rho": args.rho,
               "eq1_example": misprediction_probability(args.epsilon, args.rho, 1.0, 1.0)}
    with open(os.path.join(args.out, "theorem_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"gap slope vs m: {reg.slope:.3f} (p={reg.pvalue:.4f})")
    return 0


def cmd_train(args) -> int:
    trace = parse_trace(args.trace)
    model = EmpiricalLifetimeModel(min_count=args.min_count)
    model.fit(training_examples(trace))
    model.save(args.out)
    print(f"trained on {len(trace)} VMs, {len(model.strata)} strata -> {args.out}")
    return 0


def cmd_eval_model(args) -> int:
    model = EmpiricalLifetimeModel.load(args.model)
    test = parse_trace(args.trace)
    if args.train_trace:
        # whole rows: generated traces all number their VMs from 0
        train = set(parse_trace(args.train_trace))
        overlap = sum(1 for r in test if r in train)
        if overlap:
            print(f"warning: {overlap} test VMs also appear in the training trace",
                  file=sys.stderr)
    report = model_report(model, test)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"precision {report['precision']:.3f} recall {report['recall']:.3f} "
          f"f1 {report['f1']:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lavasim",
                                description="Lifetime-aware VM scheduling simulator")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, predictor=True, jobs=False):
        sp.add_argument("--trace", required=True)
        sp.add_argument("--config", default=None)
        sp.add_argument("--out", required=True)
        sp.add_argument("--seed", type=int, default=0)
        if jobs:
            sp.add_argument("--jobs", type=int, default=1)
        sp.add_argument("--cold-start", action="store_true")
        if predictor:
            sp.add_argument("--predictor", default="oracle", help=PREDICTOR_SPECS)

    sp = sub.add_parser("generate", help="generate a synthetic trace")
    sp.add_argument("--num-vms", type=int, default=20_000)
    sp.add_argument("--rate", type=float, default=128.0, help="arrivals per hour")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("run", help="replay one trace with one algorithm")
    common(sp)
    sp.add_argument("--algo", required=True)
    sp.add_argument("--placements", action="store_true")
    sp.add_argument("--check-invariants", action="store_true")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("compare", help="run several algorithms on one trace")
    common(sp, jobs=True)
    sp.add_argument("--algos", nargs="+", required=True)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("sweep-accuracy", help="noisy-predictor accuracy sweep")
    common(sp, predictor=False, jobs=True)
    sp.add_argument("--algos", nargs="+", default=["nilas", "lava"])
    sp.add_argument("--accuracies", default="0.5,0.7,0.9,1.0")
    sp.add_argument("--num-seeds", type=int, default=5)
    sp.set_defaults(func=cmd_sweep_accuracy)

    sp = sub.add_parser("defrag-compare", help="trace-order vs LARS migrations")
    common(sp)
    sp.add_argument("--algo", default="baseline")
    sp.set_defaults(func=cmd_defrag_compare)

    sp = sub.add_parser("theorem", help="two-lifetime learning experiment")
    sp.add_argument("--epsilon", type=float, default=0.05)
    sp.add_argument("--rho", type=float, default=0.1)
    sp.add_argument("--ms", default="20,40,80")
    sp.add_argument("--num-seeds", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_theorem)

    sp = sub.add_parser("train", help="train the empirical lifetime model")
    sp.add_argument("--trace", required=True)
    sp.add_argument("--min-count", type=int, default=10)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval-model", help="accuracy report for a trained model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--trace", required=True)
    sp.add_argument("--train-trace", default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_eval_model)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, configparser.Error, ParseError) as exc:
        print("error: " + " ".join(str(exc).split()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
