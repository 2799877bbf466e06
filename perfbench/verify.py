"""Output checks that do not trust the simulator.

``check_series`` recomputes, from the trace alone, how many VMs are alive at
every sample time of a replay's ``series.csv`` and how much CPU they hold,
and compares that with what the replay wrote.  The event order of the
simulator (exits, then arrivals, then the sample at one timestamp) means a
VM is alive at ``t`` iff ``create <= t < create + lifetime``.  A replay with
no scheduling failure and no migration must match exactly; otherwise failed
placements can only lower the count and exits deferred behind in-flight
migrations can raise it by at most ``max_concurrent``.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from lavasim.cli import SERIES_COLUMNS, SERIES_HEADER


class OutputMismatch(Exception):
    pass


def read_series(path: str) -> List[List[str]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[:2] != [SERIES_HEADER, ",".join(SERIES_COLUMNS)]:
        raise OutputMismatch(f"{path}: bad series header")
    return [line.split(",") for line in lines[2:]]


def check_series(path: str, trace, summary: Dict[str, object], hosts: int,
                 host_cpu_m: int, sample_interval_s: float, max_concurrent: int) -> None:
    rows = read_series(path)
    if len(rows) != summary["samples"] or not rows:
        raise OutputMismatch(f"{path}: {len(rows)} rows, summary says {summary['samples']}")
    create = np.array([r.create_time_s for r in trace], dtype=np.int64)
    end = create + np.array([r.lifetime_s for r in trace], dtype=np.int64)
    cpu = np.array([r.cpu_m for r in trace], dtype=np.int64)
    by_create, by_end = np.argsort(create, kind="stable"), np.argsort(end, kind="stable")
    cpu_in = np.concatenate(([0], np.cumsum(cpu[by_create])))
    cpu_out = np.concatenate(([0], np.cumsum(cpu[by_end])))
    times = np.array([float(r[0]) for r in rows])
    steps = np.diff(times)
    if times[0] < summary["measure_start_s"] or times[-1] > summary["measure_end_s"] \
            or (steps.size and not np.all(steps == sample_interval_s)):
        raise OutputMismatch(f"{path}: sample times off the {sample_interval_s:g} s grid")
    n_in = np.searchsorted(create[by_create], times, side="right")
    n_out = np.searchsorted(end[by_end], times, side="right")
    alive = n_in - n_out
    alive_cpu = cpu_in[n_in] - cpu_out[n_out]
    written = np.array([int(r[4]) for r in rows])
    exact = summary["scheduling_failures"] == 0 and summary["migrations"] == 0
    if exact:
        if not np.array_equal(written, alive):
            bad = int(np.argmax(written != alive))
            raise OutputMismatch(f"{path}: t={rows[bad][0]} has {written[bad]} VMs, "
                                 f"trace says {alive[bad]}")
        capacity = hosts * host_cpu_m
        util = [f"{int(c) / capacity:.6f}" for c in alive_cpu]
        if util != [r[5] for r in rows]:
            raise OutputMismatch(f"{path}: util_cpu differs from the trace")
    elif np.any(written > alive + max_concurrent) or \
            np.any(written < alive - summary["scheduling_failures"]):
        raise OutputMismatch(f"{path}: VM counts outside what the trace allows")
    mean_empty = float(np.mean([float(r[1]) for r in rows]))
    if abs(mean_empty - summary["avg_empty_hosts_pct"]) > 1e-5:
        raise OutputMismatch(f"{path}: avg_empty_hosts_pct disagrees with the series")

