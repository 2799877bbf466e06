"""Placement algorithms: Best Fit, LA-Binary, NILAS, and LAVA.

Every algorithm scores feasible hosts with a tuple compared
lexicographically (lower is better) and picks the minimum.  The tuple is
the algorithm's prefix, then the best-fit term (``best_fit_score``), then
the host id, so ties resolve deterministically.

The key protocol: ``Scheduler.host_key`` returns a host -> prefix function,
and ``best_host`` owns the last two terms.  The prefixes are ``(0|1,)`` for
Best Fit (has VMs or not), ``(tier,)`` for LA-Binary, ``(empty, cost)`` for
NILAS and ``(tier, distance, cost)`` for LAVA, whose lazy key may also
return a bare ``(tier, distance)`` (below).  ``best_host`` computes the
best-fit term only for a host whose prefix is at most the best prefix so
far; a greater prefix loses whatever its fit.  ``key_floor`` is a prefix
too, and ``Scheduler.score`` returns the full tuple.

``Scheduler.select_host`` is the one placement decision, for arrivals and
migration targets alike.  It builds each algorithm's VM-side terms (the VM's
predicted exit and LAVA class, both from one ``remaining`` call, and its
LA-Binary class) once per call through ``host_key`` and hands the host ->
prefix function to ``best_host``, one walk over the pool's free-capacity
index (``core.FreeIndex``).  Every host of a pool has the pool's capacity.
The index files every host with non-zero ``used`` in a bucket keyed by its
free CPU, and every host with zero ``used`` in one id-ordered list.  A VM
needing ``c`` milli-cores visits only the buckets with free CPU of at least
``c``; memory and ``unavailable_for_scheduling`` are tested at the visit.
``PoolState`` re-files a host each time it changes the host's ``used``, so
the walk scores exactly the hosts ``PoolState.fits`` accepts, except as
below.  The buckets come in ascending free CPU and the list after them; the
order within a bucket does not matter, because the host id ends every score
tuple.

Of the hosts in the list, only the lowest-id available one is scored.  This
is exact.  A host with zero ``used`` has no VMs, because ``VmRecord``
rejects zero shapes, and every algorithm scores a host with no VMs from its
VM set, ``used`` and ``id`` alone (tier "empty", temporal cost 0, best fit
from ``used``), so such hosts tie on every component but the final id, and
the lowest id wins among them.  A host with no VMs but non-zero ``used``
(incoming migration reservations, or the stranding packer's shapes) sits in
a bucket and scores as itself.

The walk stops once no unseen host can win.  Every host in the bucket of
free CPU ``k`` has the CPU term ``(k - c) / cap`` of ``best_fit_score``, with
``cap`` the pool's CPU capacity, and a host in a later bucket has free CPU
``k' > k``, so its CPU term is at least that: the numerators are exact
integers and correctly rounded division is monotone, so this holds in floats
too.  ``best_fit_score`` is the larger of the CPU and memory terms, so the
bucket's CPU term bounds it as well.  A scheduler whose prefix has a known
least value (``key_floor``) stops once the best host so far has that least
prefix and the CPU term of the next bucket is strictly greater than its best
fit: no host in a bucket still unseen can then beat it, while at equality
one might tie and win on a lower id.  The walk returns at once, skipping the
list too, because every ``key_floor`` starts with the tier of a host with
VMs and ranks strictly below the key of any host without them.

Best Fit declares ``(0,)``, NILAS ``(0, 0)`` (has VMs, temporal cost 0),
LAVA ``(0, 1, 0)`` (a recycling host one class above the VM, temporal cost
0) and LA-Binary ``(0,)`` (a host of the VM's binary class).  LAVA's key is
also lazy: a host whose ``(tier, distance)`` is worse than the least pair
the key has scored in full cannot win, and gets that bare pair without a
temporal cost.  The bare pair is greater than the prefix of the best host
so far, which starts with that least pair, so ``best_host`` skips it.  The
skips leave ``PredictionCache`` entries unfilled, which changes no output
under any predictor: an entry is a pure function of the host's residents
and the grid cell of the lookup, not of whether an earlier walk filled it.

LAVA's host lifecycle lives in ``LavaScheduler.state``, not in ``core``.  A
host without an entry there is empty or holds only VMs placed under another
scheduler.  LAVA hands each deadline it arms to ``deadline_armed``, also
those of a table it adopts, and a deadline event at time ``t`` acts only
while the host's entry still holds the deadline ``t``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set, Tuple

from .core import FreeIndex, HostRecord, LifetimeClass, PoolState, ResourceVec, VmRecord
from .predict import CLASS_UPPER_BOUND_S, OneShotModel, PredictionCache, lifetime_class


# LA-Binary's short/long cutoff; a remaining time of exactly the cutoff is long
BINARY_THRESHOLD_S = 7200.0
DEFAULT_BUCKETS_S = (0, 1800, 3600, 5400, 7200, 10800, 14400, 21600, 43200, 86400, 604800)


@dataclass(frozen=True)
class NilasConfig:
    bucket_boundaries_s: Tuple[int, ...] = DEFAULT_BUCKETS_S

    def __post_init__(self):
        b = self.bucket_boundaries_s
        if b[0] != 0 or list(b) != sorted(set(b)):
            raise ValueError("bucket boundaries must be strictly increasing and start at 0")


@dataclass(frozen=True)
class LavaConfig:
    recycle_threshold: float = 0.90
    deadline_factor: float = 1.1

    def __post_init__(self):
        if not 0.0 < self.recycle_threshold < 1.0:
            raise ValueError("recycle_threshold must be in (0,1)")
        if not self.deadline_factor >= 1.0:
            raise ValueError("deadline_factor must be >= 1")


def quantize_temporal_cost(delta_t_s: float, cfg: NilasConfig = NilasConfig()) -> int:
    """Bucket index of the host-exit-time extension; values past the last
    boundary land in the last bucket."""
    if delta_t_s < 0:
        raise ValueError(f"negative temporal delta {delta_t_s}")
    b = cfg.bucket_boundaries_s
    return min(bisect_right(b, delta_t_s) - 1, len(b) - 1)


def best_fit_score(host: HostRecord, shape: ResourceVec, capacity: ResourceVec) -> float:
    """Normalized leftover after placement, max over dimensions; lower is tighter."""
    cpu = (capacity.cpu_m - host.used_cpu_m - shape.cpu_m) / capacity.cpu_m
    mem = (capacity.mem_mib - host.used_mem_mib - shape.mem_mib) / capacity.mem_mib
    return cpu if cpu >= mem else mem


def best_host(index: FreeIndex, shape: ResourceVec, key: Callable[[HostRecord], tuple],
              floor: Optional[tuple]) -> Optional[HostRecord]:
    """The available host of ``index`` with room for ``shape`` and the least
    ``key(host) + (best_fit_score(host, shape, capacity), host.id)``, or None
    if no host has room.

    ``key`` returns the score's prefix; the best-fit term is computed here,
    only for hosts whose prefix is at most the best prefix so far.
    ``floor`` is the least prefix ``key`` can return, or None to score every
    candidate.  The walk ends once the best prefix so far is ``floor`` and
    the CPU term of the next bucket (see the module docstring) is strictly
    greater than its best-fit term."""
    cpu_m, mem_mib = shape.cpu_m, shape.mem_mib
    hosts, keys, buckets = index.hosts, index.keys, index.buckets
    cap_cpu_m, cap_mem_mib = index.cap_cpu_m, index.cap_mem_mib
    best = best_prefix = None
    best_fit = best_id = 0
    limit = None  # the best-fit term of ``best`` once its prefix is ``floor``
    for i in range(bisect_left(keys, cpu_m), len(keys)):
        free = keys[i]
        # the CPU term of best_fit_score for every host in this bucket
        cpu = (free - cpu_m) / cap_cpu_m
        if limit is not None and cpu > limit:
            return best
        for hid in buckets[free]:
            host = hosts[hid]
            used_mem_mib = host.used_mem_mib
            if used_mem_mib + mem_mib <= cap_mem_mib and not host.unavailable_for_scheduling:
                prefix = key(host)
                if best is not None and prefix > best_prefix:
                    continue
                # best_fit_score(host, shape, capacity), inlined
                mem = (cap_mem_mib - used_mem_mib - mem_mib) / cap_mem_mib
                fit = cpu if cpu >= mem else mem
                if (best is None or prefix != best_prefix or fit < best_fit
                        or (fit == best_fit and hid < best_id)):
                    best, best_prefix, best_fit, best_id = host, prefix, fit, hid
                    if prefix == floor:
                        limit = fit
    # hosts with zero used: the lowest-id available one
    if cpu_m <= cap_cpu_m and mem_mib <= cap_mem_mib:
        for hid in index.empty:
            host = hosts[hid]
            if not host.unavailable_for_scheduling:
                prefix = key(host)
                if best is None or prefix <= best_prefix:
                    # best_fit_score(host, shape, capacity) with zero used
                    cpu = (cap_cpu_m - cpu_m) / cap_cpu_m
                    mem = (cap_mem_mib - mem_mib) / cap_mem_mib
                    fit = cpu if cpu >= mem else mem
                    if best is None or (prefix, fit, hid) < (best_prefix, best_fit, best_id):
                        best = host
                break
    return best


class Scheduler:
    """Common surface: select a host for a VM, plus LAVA-style state hooks."""

    name = "base"
    # set by the simulator; called with (host id, deadline) per deadline armed or adopted,
    # and the simulator calls ``on_deadline`` at that time
    deadline_armed: Optional[Callable[[int, float], None]] = None
    # per-host state an evacuation replay carries over: LAVA's table
    state: Optional[Dict[int, LavaHost]] = None
    # the least prefix ``host_key`` can return; None scores every candidate
    # (see the module docstring)
    key_floor: Optional[tuple] = None

    def select_host(self, vm: VmRecord, pool: PoolState, now: float) -> Optional[int]:
        best = best_host(pool.index, vm.shape, self.host_key(vm, pool, now), self.key_floor)
        return None if best is None else best.id

    def host_key(self, vm: VmRecord, pool: PoolState,
                 now: float) -> Callable[[HostRecord], tuple]:
        """The score prefix of ``vm``'s placement at ``now``, host -> tuple;
        ``best_host`` appends the best-fit term and the host id.  Terms that
        depend only on the VM are computed here, once."""
        raise NotImplementedError

    def score(self, host, vm, pool, now):
        """The full score tuple of ``host``: prefix, best-fit term, host id."""
        return (self.host_key(vm, pool, now)(host)
                + (best_fit_score(host, vm.shape, pool.capacity), host.id))

    # state-machine hooks
    def after_place(self, pool: PoolState, vm: VmRecord, host: HostRecord, now: float) -> None:
        pass

    def on_exit(self, pool: PoolState, vm: VmRecord, host: HostRecord, now: float) -> None:
        pass

    def on_deadline(self, pool: PoolState, host: HostRecord, now: float) -> None:
        pass

    def on_adopt(self, pool: PoolState, now: float, state: Optional[Dict[int, LavaHost]]) -> None:
        """Continue ``pool``, placed by another scheduler, with a copy of its ``state``."""

    def check_invariants(self, pool: PoolState) -> None:
        """Raise ``AssertionError`` if this scheduler's state disagrees with ``pool``."""


def _has_vms_key(host: HostRecord) -> Tuple[int]:
    return (0 if host.vms else 1,)


class BestFitScheduler(Scheduler):
    """Multi-dimensional Best Fit; prefers already-started hosts over empty ones."""

    name = "baseline"
    key_floor = (0,)

    def host_key(self, vm, pool, now):
        return _has_vms_key


class NilasScheduler(Scheduler):
    """Best fit under a temporal cost driven by repredicted exits: hosts with
    VMs first, then the least temporal cost, then the tightest fit."""

    name = "nilas"
    key_floor = (0, 0)

    def __init__(self, model, cfg: NilasConfig = NilasConfig()):
        self.model = model
        self.cfg = cfg
        # a time-invariant model's predictions never move, so its cache needs no grid
        invariant = getattr(model, "time_invariant", False)
        self.cache = PredictionCache(math.inf) if invariant else PredictionCache()

    def temporal_key(self, vm_exit: float, pool, now) -> Callable[[HostRecord], int]:
        """Temporal cost of a VM exiting at ``vm_exit`` on a host with VMs, host -> bucket."""
        model, host_exit_time = self.model, self.cache.host_exit_time
        bounds = self.cfg.bucket_boundaries_s

        def temporal(host):
            delta = vm_exit - host_exit_time(host, pool, model, now)
            # quantize_temporal_cost(max(delta, 0.0), self.cfg): bounds[0] is 0
            return bisect_right(bounds, delta) - 1 if delta > 0 else 0
        return temporal

    def host_key(self, vm, pool, now):
        temporal = self.temporal_key(now + self.model.remaining(vm, now), pool, now)

        def key(host):
            empty = 0 if host.vms else 1
            cost = 0 if empty else temporal(host)
            return (empty, cost)
        return key

    def after_place(self, pool, vm, host, now):
        self.cache.invalidate(host.id)

    def on_exit(self, pool, vm, host, now):
        self.cache.invalidate(host.id)


class LaBinaryScheduler(NilasScheduler):
    """One-shot binary lifetime alignment (Barbalho et al., MLSys 2023):
    NILAS's host exits over ``OneShotModel(model)``, so the VM's class and
    each host's come from predictions made at VM creation only.  A VM, or a
    host by its latest exit, is long if at least ``BINARY_THRESHOLD_S``
    remain.  Hosts of the VM's class first, then hosts of the other class,
    then empty hosts."""

    name = "la-binary"
    key_floor = (0,)

    def __init__(self, model):
        super().__init__(OneShotModel(model))

    def host_key(self, vm, pool, now):
        model, host_exit_time = self.model, self.cache.host_exit_time
        vm_long = model.remaining(vm, now) >= BINARY_THRESHOLD_S

        def key(host):
            if not host.vms:
                return (2,)
            host_long = host_exit_time(host, pool, model, now) - now >= BINARY_THRESHOLD_S
            return (0 if host_long == vm_long else 1,)
        return key


@dataclass(slots=True)
class LavaHost:
    """LAVA's state of one host: its class, the deadline armed for it, whether
    it is recycling (otherwise open), and the residual VMs the drain waits for."""

    host_class: LifetimeClass
    deadline: float
    recycling: bool = False
    residual_vms: Set[int] = field(default_factory=set)


class LavaScheduler(NilasScheduler):
    """Lifetime-class host state machine with NILAS tie-breaking.

    Preference order: recycling hosts of a strictly higher class (closest
    class first), open hosts of the same class, any non-empty host, then
    empty hosts.

    ``state`` holds a ``LavaHost`` per host LAVA has placed on, until the host
    empties; a non-empty host without one (VMs placed under another scheduler)
    scores like an open host of no class.  ``on_deadline`` acts only while the
    entry still holds the deadline its event fires at: a re-arm, or the host
    emptying, makes the events of older deadlines stale.  ``host_key`` sets
    the VM's ``lifetime_class`` from the one prediction it makes, and
    ``after_place`` classifies a VM Best Fit placed in warm-up.  The temporal
    cost and cache are NILAS's; ``cfg`` is the ``NilasConfig`` and
    ``lava_cfg`` the ``LavaConfig``.
    """

    name = "lava"
    key_floor = (0, 1, 0)

    def __init__(self, model, lava_cfg: LavaConfig = LavaConfig(),
                 nilas_cfg: NilasConfig = NilasConfig()):
        super().__init__(model, nilas_cfg)
        self.lava_cfg = lava_cfg
        self.state: Dict[int, LavaHost] = {}

    def on_adopt(self, pool, now, state):
        self.state = {} if state is None else state
        # re-arm the live deadlines; one at ``now`` fired before the snapshot,
        # which a defrag check takes after the deadlines of its timestamp
        if self.deadline_armed:
            for hid, lava in self.state.items():
                if lava.deadline > now:
                    self.deadline_armed(hid, lava.deadline)

    def _tier(self, host: HostRecord, vm: VmRecord) -> Tuple[int, int]:
        if not host.vms:
            return (3, 0)
        lava = self.state.get(host.id)
        if lava is not None:
            if lava.recycling and lava.host_class > vm.lifetime_class:
                return (0, lava.host_class - vm.lifetime_class)
            if not lava.recycling and lava.host_class == vm.lifetime_class:
                return (1, 0)
        return (2, 0)

    def host_key(self, vm, pool, now):
        # one prediction: the VM's class, which ``after_place`` reads, and its exit
        remaining = self.model.remaining(vm, now)
        vm.lifetime_class = lifetime_class(remaining)
        temporal = self.temporal_key(now + remaining, pool, now)
        # the least (tier, distance) scored in full; it starts above every pair
        least = (4, 0)

        def key(host):
            nonlocal least
            pair = self._tier(host, vm)
            if pair > least:
                # a host scored in full has a better pair, so this one cannot win
                return pair
            least = pair
            tier, distance = pair
            cost = 0 if not host.vms else temporal(host)
            return (tier, distance, cost)
        return key

    def _arm_deadline(self, host_id: int, host_class: LifetimeClass, now: float) -> float:
        deadline = now + self.lava_cfg.deadline_factor * CLASS_UPPER_BOUND_S[host_class]
        if self.deadline_armed:
            self.deadline_armed(host_id, deadline)
        return deadline

    def _reclass(self, host: HostRecord, lava: LavaHost, host_class: int, now: float) -> None:
        lava.host_class = LifetimeClass(host_class)
        lava.residual_vms = set(host.vms)
        lava.deadline = self._arm_deadline(host.id, lava.host_class, now)

    def after_place(self, pool, vm, host, now):
        self.cache.invalidate(host.id)
        if vm.lifetime_class is None:  # a warm-up placement: Best Fit chose the host
            vm.lifetime_class = lifetime_class(self.model.remaining(vm, now))
        lava = self.state.get(host.id)
        if lava is None:
            # first LAVA placement on the host: its class follows the VM
            lava = self.state[host.id] = LavaHost(
                vm.lifetime_class, self._arm_deadline(host.id, vm.lifetime_class, now))
        elif lava.recycling and vm.lifetime_class >= lava.host_class:
            # last-resort placement onto a draining host: the VM extends the
            # drain and must be treated as residual, never silently absorbed
            lava.residual_vms.add(vm.id)
        if not lava.recycling and self._over_threshold(host, pool.capacity):
            lava.recycling = True
            lava.residual_vms = set(host.vms)

    def _over_threshold(self, host: HostRecord, capacity: ResourceVec) -> bool:
        t = self.lava_cfg.recycle_threshold
        return host.used_cpu_m > t * capacity.cpu_m or host.used_mem_mib > t * capacity.mem_mib

    def on_exit(self, pool, vm, host, now):
        self.cache.invalidate(host.id)
        lava = self.state.get(host.id)
        if lava is not None:
            lava.residual_vms.discard(vm.id)
            if host.is_empty():
                del self.state[host.id]
            elif host.vms and lava.recycling and not lava.residual_vms:
                # all residuals gone: everything left is from a lower class
                self._reclass(host, lava, max(lava.host_class - 1, LifetimeClass.LC1), now)

    def on_deadline(self, pool, host, now):
        lava = self.state.get(host.id)
        if lava is None or lava.deadline != now or not host.vms:
            return  # stale: the host was re-armed or emptied since
        # the host outlived its class: promote it and refresh the residual set
        self._reclass(host, lava, min(lava.host_class + 1, LifetimeClass.LC4), now)

    def check_invariants(self, pool):
        for hid, lava in self.state.items():
            host = pool.hosts[hid]
            if host.is_empty():
                raise AssertionError(f"host {hid} is empty but has a LAVA entry")
            if not lava.residual_vms <= host.vms:
                raise AssertionError(f"host {hid} residual set not subset of vms")


ALGORITHMS = ("baseline", "la-binary", "nilas", "lava")


def check_algorithm(name: str) -> None:
    """Raise ``ValueError``, naming the choices, unless ``name`` is in ``ALGORITHMS``."""
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r} (choose from {', '.join(ALGORITHMS)})")


def make_scheduler(name: str, model, nilas_cfg: NilasConfig = NilasConfig(),
                   lava_cfg: LavaConfig = LavaConfig()) -> Scheduler:
    check_algorithm(name)
    if name == "baseline":
        return BestFitScheduler()
    if name == "la-binary":
        return LaBinaryScheduler(model)
    if name == "nilas":
        return NilasScheduler(model, cfg=nilas_cfg)
    return LavaScheduler(model, lava_cfg=lava_cfg, nilas_cfg=nilas_cfg)
