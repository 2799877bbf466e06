"""Outside-in tracer for the lavasim benchmark.

The tracer wraps public functions of the lavasim modules from the outside
(nothing under ``src/`` knows about it) and keeps everything in memory:

* a *timed* wrapper records one span per call and charges the call's
  duration to its caller, so each name gets a call count, a total time and
  a self time (duration minus the time covered by its child spans);
* a *counted* wrapper only counts calls.  It is used for functions that run
  once per host per arrival (``PoolState.fits``, ``Scheduler.score``), where
  timing every call would cost more than the work it measures.

Spans of hot functions (per host per arrival) are aggregated but not kept
one by one; all other spans are kept as ``(name, start_ns, end_ns,
parent_index, replay_id)`` so that latency percentiles can be computed and
the spans written out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[str, int, int, int, int]


class Stat:
    """Aggregate of one traced name."""

    __slots__ = ("calls", "total_ns", "self_ns", "leaf_calls")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.leaf_calls = 0  # calls that made no traced child call


class Tracer:
    """Span recorder with an injectable nanosecond clock."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.stats: Dict[str, Stat] = {}
        self.counts: Dict[str, int] = {}
        self.spans: List[Optional[Span]] = []
        self.replay = -1
        # one frame per open span: [child_ns, child_calls, anchor]; anchor is
        # the index of the nearest kept span, itself included (-1 at the root)
        self._stack: List[list] = [[0, 0, -1]]

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def timed(self, name: str, fn: Callable, keep: bool = True) -> Callable:
        stat = self.stat(name)
        clock, stack, spans = self.clock, self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if keep:
                index = len(spans)
                spans.append(None)
                frame = [0, 0, index]
            else:
                frame = [0, 0, parent[2]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                parent[1] += 1
                stat.calls += 1
                stat.total_ns += duration
                stat.self_ns += duration - frame[0]
                if not frame[1]:
                    stat.leaf_calls += 1
                if keep:
                    spans[index] = (name, start, end, parent[2], self.replay)

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Count-only wrapper; positional arguments only, to stay cheap."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def kept(self, name: str) -> List[Span]:
        return [s for s in self.spans if s is not None and s[0] == name]


@contextlib.contextmanager
def patched(targets) -> Iterator[None]:
    """Temporarily replace attributes: ``targets`` yields (owner, attr, new)."""
    saved = []
    try:
        for owner, attr, new in targets:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def lavasim_targets(tracer: Tracer):
    """(owner, attribute, wrapper) for every layer boundary the benchmark traces.

    Span names follow ``<module>.<layer>``; the report in ``run.py`` maps
    them onto the per-layer metrics.
    """
    from lavasim import cli, core, defrag, predict, sched, sim

    def timed(owner, attr, name, keep=True):
        return owner, attr, tracer.timed(name, owner.__dict__[attr], keep)

    def counted(owner, attr, name):
        return owner, attr, tracer.counted(name, owner.__dict__[attr])

    out = [
        timed(sim.Simulator, "run", "sim.run"),
        timed(sim, "metrics_snapshot", "sim.sample"),
        timed(sim, "select_candidates", "sim.select_candidates"),
        timed(sim, "inflation_stranding", "sim.stranding"),
        timed(sched.Scheduler, "select_host", "sched.select_host"),
        counted(core.PoolState, "fits", "core.fits"),
        timed(core.PoolState, "place", "core.place"),
        timed(core.PoolState, "remove", "core.remove"),
        timed(predict.PredictionCache, "host_exit_time", "predict.cache", keep=False),
        timed(defrag, "simulate_evacuation", "defrag.evacuation"),
        timed(defrag, "compare_orderings", "defrag.compare"),
        timed(cli, "write_series_csv", "cli.write"),
        timed(cli, "write_summary_json", "cli.write"),
    ]
    # sim and defrag each hold their own reference to these two helpers
    for attr, name in (("clone_pool", "sim.clone_pool"),
                       ("order_evacuation", "sim.order_evacuation")):
        wrapper = tracer.timed(name, sim.__dict__[attr])
        out += [(sim, attr, wrapper), (defrag, attr, wrapper)]
    schedulers = (sched.Scheduler, sched.BestFitScheduler, sched.LaBinaryScheduler,
                  sched.NilasScheduler, sched.LavaScheduler)
    for cls in schedulers:
        if "score" in cls.__dict__:
            out.append(counted(cls, "score", "sched.score"))
        for hook in ("on_arrival", "after_place", "on_exit", "on_deadline"):
            if hook in cls.__dict__:
                out.append(timed(cls, hook, f"sched.{hook}"))
    for cls in (predict.OracleModel, predict.NoisyOracleModel,
                predict.EmpiricalLifetimeModel):
        out.append(timed(cls, "remaining", "predict.remaining", keep=False))
    return out
