"""Placement algorithms: Best Fit, LA-Binary, NILAS, and LAVA.

Every algorithm scores feasible hosts with a fixed-length tuple compared
lexicographically (lower is better) and picks the minimum; the host id is
always the final component, so ties resolve deterministically.

``Scheduler.select_host`` is the one placement decision, for arrivals and
migration targets alike.  It takes its candidates from the pool's
free-capacity index (``core.FreeIndex``) and builds each algorithm's
VM-side terms (the VM's predicted exit, its LA-Binary class) once per call
through ``host_key``.  The index files every host with non-zero ``used`` in
a bucket keyed by its free CPU, and every host with zero ``used`` in an
id-ordered list per capacity.  A VM needing ``c`` milli-cores visits only
the buckets with free CPU of at least ``c``; memory and
``unavailable_for_scheduling`` are tested at the visit.  Each write of
``host.used``, also a direct one, re-files the host, so the candidates are
exactly the hosts ``PoolState.fits`` accepts.  They come in no fixed order,
which is safe: the host id ends every score tuple, and scoring a host
touches caches and predictors only through that host.

Of the hosts with no VMs and zero ``used``, only the lowest-id available
one of each capacity is scored.  This is exact.  Every algorithm scores a
host with no VMs from its VM set, ``used``, ``capacity`` and ``id`` alone
(tier "empty", temporal cost 0, best fit from ``used`` and ``capacity``),
so such hosts of one capacity tie on every component but the final id, and
the lowest id wins among them.  The ``used == 0`` half matters: a host with
no VMs may still hold incoming migration reservations (or a hand-set
``used``), and it then scores as itself.  A NILAS ``extra_score`` may read
anything about a host, so with one set every feasible host is scored.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .core import HostRecord, HostState, LifetimeClass, PoolState, ResourceVec, VmRecord
from .predict import (
    BINARY_THRESHOLD_S,
    CLASS_UPPER_BOUND_S,
    PredictionCache,
    classify_binary,
    lifetime_class,
)


DEFAULT_BUCKETS_S = (0, 1800, 3600, 5400, 7200, 10800, 14400, 21600, 43200, 86400, 604800)


@dataclass(frozen=True)
class NilasConfig:
    bucket_boundaries_s: Tuple[int, ...] = DEFAULT_BUCKETS_S
    position: str = "above-binpacking"  # or "highest"

    def __post_init__(self):
        b = self.bucket_boundaries_s
        if b[0] != 0 or list(b) != sorted(set(b)):
            raise ValueError("bucket boundaries must be strictly increasing and start at 0")
        if self.position not in ("above-binpacking", "highest"):
            raise ValueError(f"unknown NILAS position {self.position!r}")


@dataclass(frozen=True)
class LavaConfig:
    recycle_threshold: float = 0.90
    deadline_factor: float = 1.1

    def __post_init__(self):
        if not 0.0 < self.recycle_threshold < 1.0:
            raise ValueError("recycle_threshold must be in (0,1)")
        if self.deadline_factor < 1.0:
            raise ValueError("deadline_factor must be >= 1")


def quantize_temporal_cost(delta_t_s: float, cfg: NilasConfig = NilasConfig()) -> int:
    """Bucket index of the host-exit-time extension; values past the last
    boundary land in the last bucket."""
    if delta_t_s < 0:
        raise ValueError(f"negative temporal delta {delta_t_s}")
    b = cfg.bucket_boundaries_s
    return min(bisect_right(b, delta_t_s) - 1, len(b) - 1)


def best_fit_score(host: HostRecord, shape: ResourceVec) -> float:
    """Normalized leftover after placement, max over dimensions; lower is tighter."""
    cap, used = host.capacity, host._used  # the slot behind ``used``: a plain read
    cpu = (cap.cpu_m - used.cpu_m - shape.cpu_m) / cap.cpu_m
    mem = (cap.mem_mib - used.mem_mib - shape.mem_mib) / cap.mem_mib
    return cpu if cpu >= mem else mem


class Scheduler:
    """Common surface: select a host for a VM, plus LAVA-style state hooks."""

    name = "base"
    # set by the simulator; LAVA calls it with each host whose deadline it arms
    deadline_armed: Optional[Callable[[HostRecord], None]] = None
    # score one empty host per capacity (see the module docstring)
    collapse_empty = True

    def select_host(self, vm: VmRecord, pool: PoolState, now: float) -> Optional[int]:
        best = min(pool.index.candidates(vm.shape, self.collapse_empty),
                   key=self.host_key(vm, pool, now), default=None)
        return None if best is None else best.id

    def host_key(self, vm: VmRecord, pool: PoolState,
                 now: float) -> Callable[[HostRecord], tuple]:
        """The score function of ``vm``'s placement at ``now``, host -> tuple;
        terms that depend only on the VM are computed here, once."""
        raise NotImplementedError

    def score(self, host, vm, pool, now):
        return self.host_key(vm, pool, now)(host)

    # state-machine hooks; only LAVA uses them
    def on_arrival(self, vm: VmRecord, now: float) -> None:
        pass

    def after_place(self, pool: PoolState, vm: VmRecord, host: HostRecord, now: float) -> None:
        pass

    def on_exit(self, pool: PoolState, vm: VmRecord, host: HostRecord, now: float) -> None:
        pass

    def on_deadline(self, pool: PoolState, host: HostRecord, now: float) -> None:
        pass

    def on_adopt(self, pool: PoolState, now: float) -> None:
        """A simulator continues ``pool``, whose VMs arrived before this scheduler saw them."""


class BestFitScheduler(Scheduler):
    """Multi-dimensional Best Fit; prefers already-started hosts over empty ones."""

    name = "baseline"

    def host_key(self, vm, pool, now):
        return lambda host: (0 if host.vms else 1, best_fit_score(host, vm.shape), host.id)


class NilasScheduler(Scheduler):
    """Temporal-cost tie-breaking over best fit, driven by repredicted exits.

    ``extra_score`` models a higher-ranked business scoring component; the
    position knob controls whether the temporal cost sits below it (the
    non-invasive deployment) or above it (the ideal-setting ablation).
    """

    name = "nilas"

    def __init__(self, model, cache: Optional[PredictionCache] = None,
                 cfg: NilasConfig = NilasConfig(),
                 extra_score: Optional[Callable[[HostRecord, VmRecord], float]] = None):
        self.model = model
        self.cache = cache if cache is not None else PredictionCache()
        self.cfg = cfg
        self.extra_score = extra_score

    @property
    def collapse_empty(self) -> bool:
        return self.extra_score is None

    def temporal_key(self, vm, pool, now) -> Callable[[HostRecord], int]:
        """Temporal cost of placing ``vm`` on a host with VMs, host -> bucket."""
        vm_exit = now + self.model.remaining(vm, now)
        bounds = self.cfg.bucket_boundaries_s

        def temporal(host):
            delta = vm_exit - self.cache.host_exit_time(host, pool, self.model, now)
            # quantize_temporal_cost(max(delta, 0.0), self.cfg): bounds[0] is 0
            return bisect_right(bounds, delta) - 1 if delta > 0 else 0
        return temporal

    def host_key(self, vm, pool, now):
        temporal = self.temporal_key(vm, pool, now)

        def key(host):
            empty = 0 if host.vms else 1
            cost = 0 if empty else temporal(host)
            packing = best_fit_score(host, vm.shape)
            extra = self.extra_score(host, vm) if self.extra_score else 0.0
            if self.cfg.position == "highest":
                return (empty, cost, extra, packing, host.id)
            return (extra, empty, cost, packing, host.id)
        return key

    def after_place(self, pool, vm, host, now):
        self.cache.invalidate(host.id)

    def on_exit(self, pool, vm, host, now):
        self.cache.invalidate(host.id)


class LaBinaryScheduler(Scheduler):
    """One-shot binary lifetime alignment: a VM's class is fixed at creation
    and the host class derives from initial predictions only."""

    name = "la-binary"

    def __init__(self, model, threshold_s: float = BINARY_THRESHOLD_S):
        self.model = model
        self.threshold_s = threshold_s

    def on_arrival(self, vm, now):
        if vm.initial_predicted_exit is None:
            vm.initial_predicted_exit = now + self.model.remaining(vm, now)

    def on_adopt(self, pool, now):
        # VMs placed under another algorithm carry no one-shot prediction yet
        for vm in pool.vms.values():
            self.on_arrival(vm, now)

    def host_is_long(self, host: HostRecord, pool: PoolState, now: float) -> bool:
        vms = pool.vms
        latest = max([vms[vid].initial_predicted_exit for vid in host.vms])
        return classify_binary(latest - now, self.threshold_s) == "Long"

    def host_key(self, vm, pool, now):
        vm_long = classify_binary(vm.initial_predicted_exit - now, self.threshold_s) == "Long"

        def key(host):
            if not host.vms:
                tier = 2
            else:
                tier = 0 if self.host_is_long(host, pool, now) == vm_long else 1
            return (tier, best_fit_score(host, vm.shape), host.id)
        return key


class LavaScheduler(Scheduler):
    """Lifetime-class host state machine with NILAS tie-breaking.

    Preference order: recycling hosts of a strictly higher class (closest
    class first), open hosts of the same class, any non-empty host, then
    empty hosts.
    """

    name = "lava"

    def __init__(self, model, cache: Optional[PredictionCache] = None,
                 cfg: LavaConfig = LavaConfig(), nilas_cfg: NilasConfig = NilasConfig()):
        self.model = model
        self.cfg = cfg
        self.nilas = NilasScheduler(model, cache, nilas_cfg)

    def on_arrival(self, vm, now):
        vm.lifetime_class = lifetime_class(self.model.remaining(vm, now))

    def _tier(self, host: HostRecord, vm: VmRecord) -> Tuple[int, int]:
        if not host.vms:
            return (3, 0)
        if (host.lava_state is HostState.RECYCLING and host.host_class is not None
                and host.host_class > vm.lifetime_class):
            return (0, host.host_class - vm.lifetime_class)
        if (host.lava_state is HostState.OPEN and host.host_class == vm.lifetime_class):
            return (1, 0)
        return (2, 0)

    def host_key(self, vm, pool, now):
        temporal = self.nilas.temporal_key(vm, pool, now)

        def key(host):
            tier, distance = self._tier(host, vm)
            cost = 0 if not host.vms else temporal(host)
            return (tier, distance, cost, best_fit_score(host, vm.shape), host.id)
        return key

    def _arm_deadline(self, host: HostRecord, now: float) -> None:
        bound = CLASS_UPPER_BOUND_S[host.host_class]
        host.deadline = now + self.cfg.deadline_factor * bound
        if self.deadline_armed:
            self.deadline_armed(host)

    def after_place(self, pool, vm, host, now):
        self.nilas.cache.invalidate(host.id)
        if host.host_class is None:
            # first VM on a previously empty host: class follows the VM
            host.host_class = vm.lifetime_class
            self._arm_deadline(host, now)
        if (host.lava_state is HostState.RECYCLING
                and vm.lifetime_class >= host.host_class):
            # last-resort placement onto a draining host: the VM extends the
            # drain and must be treated as residual, never silently absorbed
            host.residual_vms.add(vm.id)
            vm.is_residual = True
        if host.lava_state is HostState.OPEN and self._over_threshold(host):
            host.lava_state = HostState.RECYCLING
            host.residual_vms = set(host.vms)
            for vid in host.vms:
                pool.vms[vid].is_residual = True

    def _over_threshold(self, host: HostRecord) -> bool:
        t = self.cfg.recycle_threshold
        return (host.used.cpu_m > t * host.capacity.cpu_m
                or host.used.mem_mib > t * host.capacity.mem_mib)

    def on_exit(self, pool, vm, host, now):
        self.nilas.cache.invalidate(host.id)
        if not host.vms:
            return  # core.remove already reset the host to Empty
        if (host.lava_state is HostState.RECYCLING and not host.residual_vms):
            # all residuals gone: everything left is from a lower class
            host.host_class = LifetimeClass(max(host.host_class - 1, LifetimeClass.LC1))
            host.lava_state = HostState.RECYCLING
            host.residual_vms = set(host.vms)
            for vid in host.vms:
                pool.vms[vid].is_residual = True
            self._arm_deadline(host, now)

    def on_deadline(self, pool, host, now):
        if not host.vms or host.deadline is None or now < host.deadline:
            return
        # the host outlived its class: promote it and refresh the residual set
        host.host_class = LifetimeClass(min(host.host_class + 1, LifetimeClass.LC4))
        host.residual_vms = set(host.vms)
        for vid in host.vms:
            pool.vms[vid].is_residual = True
        self._arm_deadline(host, now)


ALGORITHMS = ("baseline", "la-binary", "nilas", "lava")


def make_scheduler(name: str, model, nilas_cfg: NilasConfig = NilasConfig(),
                   lava_cfg: LavaConfig = LavaConfig(),
                   cache: Optional[PredictionCache] = None) -> Scheduler:
    if name == "baseline":
        return BestFitScheduler()
    if name == "la-binary":
        return LaBinaryScheduler(model)
    if name == "nilas":
        return NilasScheduler(model, cache, nilas_cfg)
    if name == "lava":
        return LavaScheduler(model, cache, lava_cfg, nilas_cfg)
    raise ValueError(f"unknown algorithm {name!r}")
