"""Domain model: resource vectors, VMs, hosts, and pool state.

Resource quantities are fixed-point integers (milli-cores, MiB) so that
conservation invariants are bit-exact under placement/removal.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple


class CapacityExceeded(Exception):
    """Placement would overflow a host, or the VM is already placed or migrating."""


class UnknownVm(Exception):
    """Operation on a VM id that is not placed in the pool, or not migrating."""


class LifetimeClass(enum.IntEnum):
    LC1 = 1  # < 1h
    LC2 = 2  # 1-10h
    LC3 = 3  # 10-100h
    LC4 = 4  # >= 100h


@dataclass(frozen=True, slots=True)
class ResourceVec:
    """2-dimensional resource quantity: CPU in milli-cores, memory in MiB."""

    cpu_m: int
    mem_mib: int

    def __post_init__(self):
        if self.cpu_m < 0 or self.mem_mib < 0:
            raise ValueError(f"negative resource vector: {self}")

    def __add__(self, other: "ResourceVec") -> "ResourceVec":
        return ResourceVec(self.cpu_m + other.cpu_m, self.mem_mib + other.mem_mib)

    def __sub__(self, other: "ResourceVec") -> "ResourceVec":
        return ResourceVec(self.cpu_m - other.cpu_m, self.mem_mib - other.mem_mib)

    def fits_within(self, other: "ResourceVec") -> bool:
        """Componentwise partial order: self <= other."""
        return self.cpu_m <= other.cpu_m and self.mem_mib <= other.mem_mib


ZERO = ResourceVec(0, 0)


@dataclass(slots=True)
class VmRecord:
    id: int
    shape: ResourceVec
    features: "object"  # FeatureVec; typed loosely to avoid a cyclic import
    create_time: float
    true_exit_time: float
    host: Optional[int] = None
    initial_predicted_exit: Optional[float] = None
    lifetime_class: Optional[LifetimeClass] = None

    def __post_init__(self):
        if self.true_exit_time <= self.create_time:
            raise ValueError(f"vm {self.id}: exit {self.true_exit_time} <= create {self.create_time}")
        if not self.shape.cpu_m and not self.shape.mem_mib:
            raise ValueError(f"vm {self.id}: zero shape")


@dataclass(slots=True)
class HostRecord:
    id: int
    capacity: ResourceVec
    # the ``used`` vector as plain ints; only ``PoolState`` changes them, and it
    # re-files the host in its index each time
    used_cpu_m: int = 0
    used_mem_mib: int = 0
    vms: Set[int] = field(default_factory=set)
    unavailable_for_scheduling: bool = False

    @property
    def used(self) -> ResourceVec:
        return ResourceVec(self.used_cpu_m, self.used_mem_mib)

    def is_empty(self) -> bool:
        """Zero ``used``: no VMs (``VmRecord`` rejects zero shapes), no reservation."""
        return not self.used_cpu_m and not self.used_mem_mib


def has_room(host: HostRecord, shape: ResourceVec) -> bool:
    """``host.used + shape`` fits within ``host.capacity``, on plain ints."""
    cap = host.capacity
    return (host.used_cpu_m + shape.cpu_m <= cap.cpu_m
            and host.used_mem_mib + shape.mem_mib <= cap.mem_mib)


def free_key(host: HostRecord) -> Optional[int]:
    """Where ``FreeIndex`` files ``host``: its free CPU, or None if it is empty."""
    return None if host.is_empty() else host.capacity.cpu_m - host.used_cpu_m


class FreeIndex:
    """The hosts of one pool filed by free capacity, so that a placement
    visits only the hosts a shape fits on.

    A host with non-zero ``used`` sits in the bucket of its free CPU, and
    ``keys`` holds the bucket keys in ascending order.  A host with zero
    ``used``, and so no VMs, sits in the id-ordered list of its capacity,
    keyed by the capacity's ``(cpu_m, mem_mib)`` (a tuple hashes faster than
    a ``ResourceVec``).  ``filed`` maps each host id to its ``free_key``, and
    ``cap_max`` is the largest CPU capacity of a host added.  ``PoolState``
    is the one writer of ``used`` and re-files the host after each write;
    ``sched.best_host`` walks the index.
    """

    __slots__ = ("hosts", "keys", "buckets", "unused", "filed", "cap_max")

    def __init__(self, hosts: Dict[int, HostRecord]):
        self.hosts = hosts
        self.keys: List[int] = []
        self.buckets: Dict[int, Set[int]] = {}
        self.unused: Dict[Tuple[int, int], List[int]] = {}
        self.filed: Dict[int, Optional[int]] = {}
        self.cap_max = 0

    def add(self, host: HostRecord) -> None:
        self.cap_max = max(self.cap_max, host.capacity.cpu_m)
        self._file(host.id, host.capacity, free_key(host))

    def refile(self, host: HostRecord) -> None:
        used_cpu_m = host.used_cpu_m  # free_key(host) and _file, inlined: this runs on every write
        key = host.capacity.cpu_m - used_cpu_m if used_cpu_m or host.used_mem_mib else None
        hid, filed = host.id, self.filed
        old = filed[hid]
        if key == old:
            return
        if old is None:
            cap = host.capacity
            ids = self.unused[cap.cpu_m, cap.mem_mib]
            del ids[bisect_left(ids, hid)]
        else:
            ids = self.buckets[old]
            ids.discard(hid)
            if not ids:
                del self.buckets[old]
                del self.keys[bisect_left(self.keys, old)]
        filed[hid] = key
        if key is None:
            cap = host.capacity
            insort(self.unused.setdefault((cap.cpu_m, cap.mem_mib), []), hid)
        else:
            ids = self.buckets.get(key)
            if ids is None:
                self.buckets[key] = {hid}
                insort(self.keys, key)
            else:
                ids.add(hid)

    def _file(self, hid: int, capacity: ResourceVec, key: Optional[int]) -> None:
        self.filed[hid] = key
        if key is None:
            insort(self.unused.setdefault((capacity.cpu_m, capacity.mem_mib), []), hid)
        elif key in self.buckets:
            self.buckets[key].add(hid)
        else:
            self.buckets[key] = {hid}
            insort(self.keys, key)

    def check(self) -> None:
        """Every host of the pool is filed exactly once, under its current
        ``used``."""
        fresh = FreeIndex(self.hosts)
        for host in self.hosts.values():
            fresh._file(host.id, host.capacity, free_key(host))
        unused = {cap: ids for cap, ids in self.unused.items() if ids}
        if (self.keys, self.buckets, unused, self.filed) != (
                fresh.keys, fresh.buckets, fresh.unused, fresh.filed):
            raise AssertionError("free-capacity index does not match the hosts' used")
        if self.cap_max != max((h.capacity.cpu_m for h in self.hosts.values()), default=0):
            raise AssertionError("cap_max is not the largest host CPU capacity")


@dataclass
class PoolState:
    hosts: Dict[int, HostRecord] = field(default_factory=dict)
    vms: Dict[int, VmRecord] = field(default_factory=dict)
    now: float = 0.0
    # in-flight migrations, VM id -> target host id; a VM stays on its source until the commit
    incoming: Dict[int, int] = field(default_factory=dict)
    # the hosts filed by free capacity; each write of a host's ``used`` re-files
    # it, and a pool built from records (a clone) files them in an index of its own
    index: FreeIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.index = FreeIndex(self.hosts)
        for host in self.hosts.values():
            self.index.add(host)

    def add_host(self, capacity: ResourceVec) -> HostRecord:
        hid = len(self.hosts)
        host = HostRecord(id=hid, capacity=capacity)
        self.hosts[hid] = host
        self.index.add(host)
        return host

    def fits(self, shape: ResourceVec, host: HostRecord) -> bool:
        return not host.unavailable_for_scheduling and has_room(host, shape)

    def place(self, vm: VmRecord, host_id: int) -> None:
        host = self.hosts[host_id]
        if vm.host is not None:
            raise CapacityExceeded(f"vm {vm.id} already placed on host {vm.host}")
        shape, cap = vm.shape, host.capacity
        used_cpu_m = host.used_cpu_m + shape.cpu_m
        used_mem_mib = host.used_mem_mib + shape.mem_mib
        # not self.fits(shape, host), inlined
        if (host.unavailable_for_scheduling or used_cpu_m > cap.cpu_m
                or used_mem_mib > cap.mem_mib):
            raise CapacityExceeded(f"vm {vm.id} does not fit on host {host_id}")
        self.vms[vm.id] = vm
        vm.host = host_id
        host.used_cpu_m, host.used_mem_mib = used_cpu_m, used_mem_mib
        host.vms.add(vm.id)
        self.index.refile(host)

    def remove(self, vm_id: int) -> VmRecord:
        vm = self.vms.get(vm_id)
        if vm is None or vm.host is None:
            raise UnknownVm(f"vm {vm_id} is not placed")
        host, shape = self.hosts[vm.host], vm.shape
        host.used_cpu_m -= shape.cpu_m
        host.used_mem_mib -= shape.mem_mib
        host.vms.discard(vm_id)
        self.index.refile(host)
        vm.host = None
        del self.vms[vm_id]
        return vm

    # -- live migration bookkeeping -------------------------------------

    def reserve(self, host_id: int, shape: ResourceVec) -> None:
        """Add ``shape`` to the host's ``used`` without placing a VM, whether
        the host is available or not."""
        host = self.hosts[host_id]
        if not has_room(host, shape):
            raise CapacityExceeded(f"reserving {shape} overflows host {host_id}")
        host.used_cpu_m += shape.cpu_m
        host.used_mem_mib += shape.mem_mib
        self.index.refile(host)

    def reserve_incoming(self, vm: VmRecord, host_id: int) -> None:
        """Reserve the VM's shape on the migration target; the VM stays on its source."""
        if vm.id in self.incoming:
            raise CapacityExceeded(f"vm {vm.id} already migrates to host {self.incoming[vm.id]}")
        try:
            self.reserve(host_id, vm.shape)
        except CapacityExceeded:
            raise CapacityExceeded(
                f"migration reservation for vm {vm.id} overflows host {host_id}") from None
        self.incoming[vm.id] = host_id

    def commit_incoming(self, vm: VmRecord) -> int:
        """Migration finished: the source gives up the VM's share, and the
        target's reservation becomes the placement, so the target's ``used``
        does not change.  Returns the target's id."""
        host_id = self.incoming.pop(vm.id, None)
        if host_id is None:
            raise UnknownVm(f"vm {vm.id} is not migrating")
        source, shape = self.hosts[vm.host], vm.shape
        source.used_cpu_m -= shape.cpu_m
        source.used_mem_mib -= shape.mem_mib
        source.vms.discard(vm.id)
        self.index.refile(source)
        self.hosts[host_id].vms.add(vm.id)
        vm.host = host_id
        return host_id

    # -- invariants ------------------------------------------------------

    def check_invariants(self) -> None:
        reserved: Dict[int, ResourceVec] = {}  # host id -> the shapes migrating to it
        for vid, target in self.incoming.items():
            vm = self.vms.get(vid)
            if vm is None or vm.host is None or vm.host == target:
                raise AssertionError(f"vm {vid} migrates to host {target} from no other host")
            reserved[target] = reserved.get(target, ZERO) + vm.shape
        for host in self.hosts.values():
            if not host.used.fits_within(host.capacity):
                raise AssertionError(f"host {host.id} over capacity: {host.used} > {host.capacity}")
            acc = reserved.get(host.id, ZERO)
            for vid in host.vms:
                vm = self.vms[vid]
                if vm.host != host.id:
                    raise AssertionError(f"vm {vid} host pointer inconsistent")
                acc = acc + vm.shape
            if acc != host.used:
                raise AssertionError(f"host {host.id} used {host.used} != sum of shapes {acc}")
        self.index.check()
