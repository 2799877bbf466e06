"""Deterministic event-driven replay engine with warm-up, metric sampling,
defragmentation (including LARS ordering) and inflation-based stranding.

Migrations run only here: a replay's defrag rounds and the evacuation
replays of ``defrag.py`` use the same queue, slot filling and deferred
exits.  The engine keeps only the queue; the in-flight migrations belong to
the pool (``PoolState.incoming``), and the rest is read off the pool too.  A
migrating VM stays on its source until the commit, an exit during its
migration runs at the end, and a host is closed to placements exactly while
it is a candidate with VMs left to move.

One loop, ``Simulator._advance``, runs every event, from three sources.  The
arrival stream walks the trace's records in create-time order.  The exit
stream yields every VM's ``(exit time, vm id)``, sorted by a stable sort, so
VMs that exit together keep trace order, the order they were placed in;
``run`` builds it from the trace, and an evacuation replay (``_over_pool``)
from the pool's residents.  A stream is an iterator plus its head,
``(time, item)``, or ``(inf, None)`` once it is used up.  The event heap
holds everything else (migration ends, deadlines, defrag checks and
samples) as ``(time, kind, seq, arg)`` entries.

One tie rule, the ``EV_*`` order: at one timestamp exits come first, then
migration ends, deadlines and defrag checks, then the arrivals in trace
order, then the samples; heap events of one kind run in the order they were
pushed.  So an exit runs unless the heap's head or the next arrival is
strictly earlier, and a heap event runs before the next arrival if its
``(time, kind)`` is less than ``(arrival time, EV_ARRIVAL)``.  An exit of a
VM that was never placed (no host had room) changes nothing, not even
``pool.now``.

One stop rule: the loop ends when the next event is later than its limit,
when no event is left, or, for an evacuation, when no migration is queued or
in flight.  ``run`` advances to the last arrival, measures stranding, then
advances until no event is left.
"""

from __future__ import annotations

import copy
import dataclasses
import heapq
import math
import random
from collections import Counter, deque
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .core import HostRecord, PoolState, ResourceVec, VmRecord
from .sched import BestFitScheduler, LavaConfig, NilasConfig, Scheduler, best_host, make_scheduler
from .workload import TraceRecord


class TraceNotSorted(Exception):
    pass


# event kinds, also their priorities at equal timestamps: free capacity
# before consuming it
EV_EXIT = 0
EV_MIG_END = 1
EV_DEADLINE = 2
EV_DEFRAG = 3
EV_ARRIVAL = 4
EV_SAMPLE = 5

DAY_S = 86400.0

# the head of an exhausted stream: later than every event
NO_EVENT = (math.inf, None)


@dataclass(frozen=True)
class DefragConfig:
    enabled: bool = False
    empty_host_trigger: float = 0.05
    check_interval_s: float = 3600.0
    candidates_per_round: int = 2
    ordering: str = "trace"  # or "lars"
    max_concurrent: int = 3
    migration_s: float = 1200.0

    def __post_init__(self):
        if not 0.0 <= self.empty_host_trigger <= 1.0:
            raise ValueError("empty_host_trigger must be in [0,1]")
        if self.ordering not in ("trace", "lars"):
            raise ValueError(f"unknown defrag ordering {self.ordering!r}")
        if not self.check_interval_s > 0:
            raise ValueError("defrag check_interval_s must be > 0")
        if not self.migration_s >= 0:
            raise ValueError("defrag migration_s must be >= 0")
        for name in ("candidates_per_round", "max_concurrent"):
            if getattr(self, name) < 1:
                raise ValueError(f"defrag {name} must be >= 1")


@dataclass(frozen=True)
class SimConfig:
    warmup: bool = True
    warmup_s: float = 2 * DAY_S
    sample_interval_s: float = 300.0
    check_invariants: bool = False
    record_placements: bool = False
    record_defrag_instances: bool = False
    measure_stranding: bool = False
    stranding_seed: int = 0
    defrag: DefragConfig = DefragConfig()

    def __post_init__(self):
        if not self.sample_interval_s > 0:
            raise ValueError("sample_interval_s must be > 0")
        if not self.warmup_s >= 0:
            raise ValueError("warmup_s must be >= 0")


@dataclass
class DefragInstance:
    """Snapshot of one evacuation round, for paired ordering comparisons."""

    time: float
    candidate_hosts: List[int]
    pool: PoolState
    sched_state: Optional[dict]  # a copy of the scheduler's ``state``


@dataclass
class RunResult:
    series: List[Tuple[float, float, float, float, int, float, float]]
    summary: Dict[str, object]
    placements: List[str] = field(default_factory=list)
    defrag_instances: List[DefragInstance] = field(default_factory=list)


def metrics_snapshot(pool: PoolState) -> Tuple[float, float, float, int, float, float]:
    """The pool's part of a series row: (empty_hosts_pct, empty_to_free_ratio,
    packing_density, live VMs, util_cpu, util_mem), the middle three on CPU
    cores, from one walk over the hosts."""
    n, n_empty = len(pool.hosts), len(pool.index.empty)
    cap_cpu_m, cap_mem_mib = pool.capacity.cpu_m, pool.capacity.mem_mib
    # an empty host uses nothing, so every used milli-core is on a non-empty host
    used_cpu = used_mem = 0
    for h in pool.hosts.values():
        used_cpu += h.used_cpu_m
        used_mem += h.used_mem_mib
    free_cpu = n * cap_cpu_m - used_cpu
    nonempty_cap = (n - n_empty) * cap_cpu_m
    empty_pct = 100.0 * n_empty / n if n else 0.0
    ratio = n_empty * cap_cpu_m / free_cpu if free_cpu > 0 else 0.0
    density = used_cpu / nonempty_cap if nonempty_cap > 0 else 1.0
    util_cpu = used_cpu / (n * cap_cpu_m) if n else 0.0
    util_mem = used_mem / (n * cap_mem_mib) if n else 0.0
    return empty_pct, ratio, density, len(pool.vms), util_cpu, util_mem


def _init_values(cls) -> attrgetter:
    """record -> the values of its ``__init__`` fields, in ``__init__`` order."""
    return attrgetter(*(f.name for f in dataclasses.fields(cls) if f.init))


_HOST_VALUES = _init_values(HostRecord)
_VM_VALUES = _init_values(VmRecord)


def _exit_time(rec: TraceRecord):
    """The ``true_exit_time`` of ``rec``'s VM."""
    return rec.create_time_s + rec.lifetime_s


def clone_pool(pool: PoolState) -> PoolState:
    """Copy every host and VM record and the in-flight map; the containers a
    record owns are copied too, and the clone files its hosts in a
    free-capacity index of its own."""
    hosts = {}
    for hid, h in pool.hosts.items():
        copied = hosts[hid] = HostRecord(*_HOST_VALUES(h))
        copied.vms = set(h.vms)
    vms = {vid: VmRecord(*_VM_VALUES(vm)) for vid, vm in pool.vms.items()}
    return dataclasses.replace(pool, hosts=hosts, vms=vms, incoming=dict(pool.incoming))


def inflation_stranding(pool: PoolState, vm_mix: Sequence[Tuple[ResourceVec, float]],
                        rng: random.Random, consecutive_failures: int = 200
                        ) -> Tuple[float, float]:
    """Greedily pack shapes sampled from the mix until the pool is exhausted;
    the leftover free fractions are the stranded resources."""
    snap = clone_pool(pool)
    for host in snap.hosts.values():
        host.unavailable_for_scheduling = False  # it also packs defrag candidates
    shapes = [s for s, _ in vm_mix]
    weights = [w for _, w in vm_mix]
    smallest = min(shapes, key=lambda s: (s.cpu_m, s.mem_mib))

    def place_best_fit(shape: ResourceVec) -> bool:
        best = best_host(snap.index, shape, lambda h: (1 if h.is_empty() else 0,), (0,))
        if best is None:
            return False
        snap.reserve(best.id, shape)
        return True

    while True:
        fails = 0
        while fails < consecutive_failures:
            shape = rng.choices(shapes, weights)[0]
            if place_best_fit(shape):
                fails = 0
            else:
                fails += 1
        if best_host(snap.index, smallest, lambda h: (), None) is None:
            break

    n, cap = len(snap.hosts), snap.capacity
    total_cpu, total_mem = n * cap.cpu_m, n * cap.mem_mib
    free_cpu = total_cpu - sum(h.used_cpu_m for h in snap.hosts.values())
    free_mem = total_mem - sum(h.used_mem_mib for h in snap.hosts.values())
    return free_cpu / total_cpu, free_mem / total_mem


class Simulator:
    """Replays one trace against one (algorithm, predictor) configuration;
    ``algorithm`` is a name in ``sched.ALGORITHMS`` or a ``Scheduler``."""

    def __init__(self, trace: Sequence[TraceRecord], num_hosts: int,
                 host_capacity: ResourceVec, algorithm: Union[str, Scheduler], model,
                 nilas_cfg: NilasConfig = NilasConfig(),
                 lava_cfg: LavaConfig = LavaConfig(),
                 cfg: SimConfig = SimConfig()):
        for a, b in zip(trace, trace[1:]):
            if b.create_time_s < a.create_time_s:
                raise TraceNotSorted("trace records must be sorted by create time")
        self.trace = trace
        self.cfg = cfg
        self.pool = PoolState(host_capacity)
        for _ in range(num_hosts):
            self.pool.add_host()
        self.model = model
        self.active = (algorithm if isinstance(algorithm, Scheduler)
                       else make_scheduler(algorithm, model, nilas_cfg, lava_cfg))
        self.warmup_sched: Scheduler = BestFitScheduler()
        self.algorithm = self.active.name
        # event heap: (time, kind, seq, arg); kind is one of the EV_* codes
        # but EV_ARRIVAL and EV_EXIT, which are streamed
        self._heap: List[Tuple[float, int, int, object]] = []
        self._seq = 0
        self._handlers = {EV_MIG_END: self._handle_migration_end,
                          EV_DEADLINE: self._handle_deadline,
                          EV_DEFRAG: self._handle_defrag_check, EV_SAMPLE: self._handle_sample}
        # the streams, (time, vm id) in exit order and records in trace order,
        # each with its (time, item) head; run() fills both, _over_pool the exits
        self._exits: Iterator[Tuple[float, int]] = iter(())
        self._next_exit: Tuple[float, Optional[int]] = NO_EVENT
        self._arrivals: Iterator[TraceRecord] = iter(())
        self._next_arrival: Tuple[float, Optional[TraceRecord]] = NO_EVENT
        # samples are taken from here on, and arrivals before it are placed
        # by the warm-up scheduler; without warm-up it is the first arrival
        t0 = trace[0].create_time_s if trace else 0.0
        self._measure_start = t0 + cfg.warmup_s if cfg.warmup else t0
        self._stranded: Optional[Tuple[float, float]] = None
        self._series: List[Tuple[float, float, float, float, int, float, float]] = []
        # the VMs queued for migration; those in flight are ``pool.incoming``
        self._mig_queue: Deque[int] = deque()
        self.migrations_done = 0
        self.migrations_saved = 0
        self.migration_deferrals = 0
        self.scheduling_failures = 0
        self.placements: List[str] = []
        self.defrag_instances: List[DefragInstance] = []
        self.active.deadline_armed = lambda hid, t: self._push(t, EV_DEADLINE, hid)

    @classmethod
    def _over_pool(cls, pool: PoolState, algorithm: str, model, cfg: SimConfig,
                   sched_state: Optional[dict] = None) -> "Simulator":
        """A simulator without a trace that continues ``pool`` from ``pool.now``:
        the exits of its VMs are streamed, the scheduler adopts the pool and
        ``sched_state`` (re-arming the live deadlines it holds), and no VM
        arrives."""
        sim = cls((), 0, pool.capacity, algorithm, model, cfg=cfg)
        sim.pool = pool
        sim.active.on_adopt(pool, pool.now, sched_state)
        exits = [(vm.true_exit_time, vm.id) for vm in pool.vms.values()
                 if vm.true_exit_time > pool.now]
        exits.sort(key=itemgetter(0))  # stable: ties keep the order of pool.vms
        sim._stream_exits(iter(exits))
        return sim

    # -- event plumbing --------------------------------------------------

    def _push(self, time: float, kind: int, arg) -> None:
        heapq.heappush(self._heap, (time, kind, self._seq, arg))
        self._seq += 1

    def _stream_exits(self, exits: Iterator[Tuple[float, int]]) -> None:
        self._exits = exits
        self._next_exit = next(exits, NO_EVENT)

    def _check_invariants(self) -> None:
        pool = self.pool
        pool.check_invariants()
        self.active.check_invariants(pool)
        for host in pool.hosts.values():
            # a closed host is a candidate with VMs left to queue or move
            if host.unavailable_for_scheduling and not (self._mig_queue or pool.incoming):
                raise AssertionError(f"host {host.id} is closed with no migration left")

    # -- main loop -------------------------------------------------------

    def _advance(self, limit: float, migrating: bool = False) -> None:
        """Run events in tie-rule order (see the module docstring) until the
        next one is later than ``limit`` or none is left; with ``migrating``,
        also stop once no migration is queued or in flight."""
        heap, handlers, check = self._heap, self._handlers, self.cfg.check_invariants
        pool, exits, arrivals = self.pool, self._exits, self._arrivals
        vms, queued, in_flight = pool.vms, self._mig_queue, pool.incoming
        handle_exit, handle_arrival = self._handle_exit, self._handle_arrival
        exit_t, exit_id = self._next_exit
        arrival_t, rec = self._next_arrival
        # no heap entry has kind EV_ARRIVAL, so this compares (time, kind)
        # only: the heap events that come before the arrival
        before = (arrival_t, EV_ARRIVAL)
        while not migrating or queued or in_flight:
            if exit_t <= arrival_t and (not heap or exit_t <= heap[0][0]):
                if exit_t > limit or exit_id is None:
                    break  # past the limit, or no event is left
                if exit_id in vms:  # else the VM was never placed
                    pool.now = exit_t
                    handle_exit(exit_id, exit_t)
                exit_t, exit_id = next(exits, NO_EVENT)
            elif heap and heap[0] < before:
                if heap[0][0] > limit:
                    break
                t, kind, _, arg = heapq.heappop(heap)
                pool.now = t
                handlers[kind](arg, t)
            else:
                if arrival_t > limit:
                    break
                pool.now = arrival_t
                handle_arrival(rec, arrival_t)
                rec = next(arrivals, None)
                arrival_t = math.inf if rec is None else rec.create_time_s
                before = (arrival_t, EV_ARRIVAL)
            if check:
                self._check_invariants()
        self._next_exit = (exit_t, exit_id)
        self._next_arrival = (arrival_t, rec)

    def run(self) -> RunResult:
        trace = self.trace
        if not trace:
            return self._build_result([], 0.0, 0.0)
        t0 = trace[0].create_time_s
        t_end = trace[-1].create_time_s

        t = t0
        while t <= t_end:
            self._push(t, EV_SAMPLE, None)
            t += self.cfg.sample_interval_s
        if self.cfg.defrag.enabled:
            t = t0 + self.cfg.defrag.check_interval_s
            while t <= t_end:
                self._push(t, EV_DEFRAG, None)
                t += self.cfg.defrag.check_interval_s
        by_exit = sorted(trace, key=_exit_time)  # stable: ties keep trace order
        self._stream_exits(zip(map(_exit_time, by_exit), map(attrgetter("vm_id"), by_exit)))
        del by_exit
        self._arrivals = iter(trace)
        self._next_arrival = (t0, next(self._arrivals))

        self._advance(t_end)
        if self.cfg.measure_stranding:
            # the pool at the end of the measured window, before the drain
            self._stranded = inflation_stranding(self.pool, trace_shape_mix(trace),
                                                 random.Random(self.cfg.stranding_seed))
        self._advance(math.inf)
        self._stream_exits(iter(()))
        return self._build_result(self._series, self._measure_start, t_end)

    def _handle_sample(self, _, now: float) -> None:
        if now >= self._measure_start:
            self._series.append((now,) + metrics_snapshot(self.pool))

    def _handle_arrival(self, rec: TraceRecord, now: float) -> None:
        create = rec.create_time_s
        vm = VmRecord(rec.vm_id, rec.shape, rec.features, create, create + rec.lifetime_s)
        active, pool = self.active, self.pool
        selector = self.warmup_sched if now < self._measure_start else active
        host_id = selector.select_host(vm, pool, now)
        if host_id is None:
            self.scheduling_failures += 1
            return
        pool.place(vm, host_id)
        active.after_place(pool, vm, pool.hosts[host_id], now)
        if self.cfg.record_placements:
            self.placements.append(f"{now:.0f}\tplace\t{vm.id}\t{host_id}\t{selector.name}")

    def _handle_exit(self, vm_id: int, now: float) -> None:
        pool = self.pool
        if vm_id in pool.incoming:
            return  # started migrations run to completion; the exit lands at their end
        host = pool.hosts[pool.vms[vm_id].host]
        vm = pool.remove(vm_id)
        self.active.on_exit(pool, vm, host, now)
        if host.unavailable_for_scheduling:  # tested here too: most exits skip the call
            self._reopen_if_drained(host)
        if self._mig_queue and len(pool.incoming) < self.cfg.defrag.max_concurrent:
            self._fill_migration_slots(now)

    def _handle_deadline(self, host_id: int, now: float) -> None:
        self.active.on_deadline(self.pool, self.pool.hosts[host_id], now)

    # -- defragmentation -------------------------------------------------

    def _handle_defrag_check(self, _, now: float) -> None:
        if self._mig_queue or self.pool.incoming:
            return  # previous round still draining; its candidates reopen as they empty
        empty_frac = len(self.pool.index.empty) / len(self.pool.hosts)
        if empty_frac >= self.cfg.defrag.empty_host_trigger:
            return
        candidates = select_candidates(self.pool, self.cfg.defrag.candidates_per_round)
        if not candidates:
            return
        if self.cfg.record_defrag_instances:
            self.defrag_instances.append(
                DefragInstance(time=now, candidate_hosts=list(candidates),
                               pool=clone_pool(self.pool),
                               sched_state=copy.deepcopy(self.active.state)))
        for hid in candidates:
            host = self.pool.hosts[hid]
            self._mark_candidate(host, order_evacuation(self.pool, host, self.cfg.defrag.ordering,
                                                        self.model, now))
        self._fill_migration_slots(now)

    def _mark_candidate(self, host: HostRecord, order: List[int]) -> None:
        """Close ``host`` to placements and queue its VMs for migration in ``order``."""
        host.unavailable_for_scheduling = True
        self._mig_queue.extend(order)

    def _reopen_if_drained(self, host: HostRecord) -> None:
        """Open an evacuation candidate to placements again once it is empty."""
        if host.unavailable_for_scheduling and host.is_empty():
            host.unavailable_for_scheduling = False

    def _evacuate(self, host: HostRecord, order: List[int]) -> None:
        """Evacuate one host with no arrivals: run exits and migrations until
        no migration is queued or in flight, or no event is left."""
        self._mark_candidate(host, order)
        self._fill_migration_slots(self.pool.now)
        self._advance(math.inf, migrating=True)

    def _fill_migration_slots(self, now: float) -> None:
        attempts = len(self._mig_queue)
        while (self._mig_queue and attempts > 0
               and len(self.pool.incoming) < self.cfg.defrag.max_concurrent):
            attempts -= 1
            vm_id = self._mig_queue.popleft()
            vm = self.pool.vms.get(vm_id)
            if vm is None:
                self.migrations_saved += 1  # exited before its migration started
                continue
            # migration placement uses the current reprediction, not the
            # arrival-time one (LA-Binary's OneShotModel never repredicts)
            target = self.active.select_host(vm, self.pool, now)
            if target is None:
                self._mig_queue.append(vm_id)
                self.migration_deferrals += 1
                continue
            self.pool.reserve_incoming(vm, target)
            self._push(now + self.cfg.defrag.migration_s, EV_MIG_END, vm_id)

    def _handle_migration_end(self, vm_id: int, now: float) -> None:
        pool = self.pool
        vm = pool.vms[vm_id]
        source = pool.hosts[vm.host]
        target = pool.hosts[pool.commit_incoming(vm)]
        self.migrations_done += 1
        self.active.on_exit(pool, vm, source, now)
        self.active.after_place(pool, vm, target, now)
        self._reopen_if_drained(source)
        # exits run before migration ends at a tied second, so an exit at or
        # before ``now`` was deferred by _handle_exit
        if vm.true_exit_time <= now:
            self._handle_exit(vm_id, now)
        self._fill_migration_slots(now)

    # -- results ---------------------------------------------------------

    def _build_result(self, series, measure_start, t_end) -> RunResult:
        return RunResult(series=series, summary=self._summary(series, measure_start, t_end),
                         placements=self.placements, defrag_instances=self.defrag_instances)

    def _summary(self, series, measure_start, t_end) -> Dict[str, object]:
        def avg(idx):
            return sum(row[idx] for row in series) / len(series) if series else 0.0

        summary = {
            "algorithm": self.algorithm,
            "measure_start_s": measure_start,
            "measure_end_s": t_end,
            "samples": len(series),
            "avg_empty_hosts_pct": avg(1),
            "avg_empty_to_free_ratio": avg(2),
            "avg_packing_density": avg(3),
            "avg_util_cpu": avg(5),
            "avg_util_mem": avg(6),
            "scheduling_failures": self.scheduling_failures,
            "migrations": self.migrations_done,
            "migrations_saved": self.migrations_saved,
            "migration_deferrals": self.migration_deferrals,
        }
        if self._stranded is not None:
            summary["stranded_cpu_frac"], summary["stranded_mem_frac"] = self._stranded
        return summary


def trace_shape_mix(trace: Sequence[TraceRecord]) -> List[Tuple[ResourceVec, float]]:
    """Each distinct shape of ``trace`` with its number of VMs, by (CPU, memory)."""
    # pairs of ints: hashing a ResourceVec would call Python once per record
    counts = Counter(zip(map(attrgetter("shape.cpu_m"), trace),
                         map(attrgetter("shape.mem_mib"), trace)))
    return [(ResourceVec(cpu_m, mem_mib), n) for (cpu_m, mem_mib), n in sorted(counts.items())]


def select_candidates(pool: PoolState, count: int) -> List[int]:
    """Evacuation candidates: fewest VMs first, then most free capacity."""
    cap_cpu_m, cap_mem_mib = pool.capacity.cpu_m, pool.capacity.mem_mib
    ranked = sorted(
        (h for h in pool.hosts.values()
         if h.vms and not h.unavailable_for_scheduling),
        key=lambda h: (len(h.vms),
                       -(cap_cpu_m - h.used_cpu_m) / cap_cpu_m
                       - (cap_mem_mib - h.used_mem_mib) / cap_mem_mib,
                       h.id))
    return [h.id for h in ranked[:count]]


def lars_order(pool: PoolState, host: HostRecord, model, now: float) -> List[int]:
    """Longest repredicted remaining lifetime first; ties by vm id."""
    return sorted(host.vms,
                  key=lambda vid: (-model.remaining(pool.vms[vid], now), vid))


def order_evacuation(pool: PoolState, host: HostRecord, ordering: str, model,
                     now: float) -> List[int]:
    if ordering == "lars":
        return lars_order(pool, host, model, now)
    # trace order: arrival order of the VMs on the host
    return sorted(host.vms, key=lambda vid: (pool.vms[vid].create_time, vid))
