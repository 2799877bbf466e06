"""Domain model: resource vectors, VMs, hosts, and pool state.

Resource quantities are fixed-point integers (milli-cores, MiB) so that
conservation invariants are bit-exact under placement/removal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Set


class CapacityExceeded(Exception):
    """Placement would overflow a host, or the VM is already placed."""


class UnknownVm(Exception):
    """Operation on a VM id that is not placed in the pool."""


class LifetimeClass(enum.IntEnum):
    LC1 = 1  # < 1h
    LC2 = 2  # 1-10h
    LC3 = 3  # 10-100h
    LC4 = 4  # >= 100h


class HostState(enum.Enum):
    EMPTY = "empty"
    OPEN = "open"
    RECYCLING = "recycling"


@dataclass(frozen=True, slots=True)
class ResourceVec:
    """2-dimensional resource quantity: CPU in milli-cores, memory in MiB."""

    cpu_m: int
    mem_mib: int

    def __post_init__(self):
        if self.cpu_m < 0 or self.mem_mib < 0:
            raise ValueError(f"negative resource vector: {self}")

    @classmethod
    def from_units(cls, cores: float, gib: float) -> "ResourceVec":
        return cls(round(cores * 1000), round(gib * 1024))

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
    is_residual: bool = False

    def __post_init__(self):
        if self.true_exit_time <= self.create_time:
            raise ValueError(f"vm {self.id}: exit {self.true_exit_time} <= create {self.create_time}")

    def uptime(self, now: float) -> float:
        return max(now - self.create_time, 0.0)


@dataclass(slots=True)
class HostRecord:
    id: int
    capacity: ResourceVec
    used: ResourceVec = ZERO
    vms: Set[int] = field(default_factory=set)
    lava_state: HostState = HostState.EMPTY
    host_class: Optional[LifetimeClass] = None
    residual_vms: Set[int] = field(default_factory=set)
    deadline: Optional[float] = None
    unavailable_for_scheduling: bool = False
    # shapes reserved by in-flight incoming live migrations, vm id -> shape
    incoming: Dict[int, ResourceVec] = field(default_factory=dict)

    @property
    def free(self) -> ResourceVec:
        return self.capacity - self.used

    def is_empty(self) -> bool:
        return not self.vms and not self.incoming


def has_room(host: HostRecord, shape: ResourceVec) -> bool:
    """``host.used + shape`` fits within ``host.capacity``, on plain ints."""
    used, cap = host.used, host.capacity
    return (used.cpu_m + shape.cpu_m <= cap.cpu_m
            and used.mem_mib + shape.mem_mib <= cap.mem_mib)


@dataclass
class PoolState:
    hosts: Dict[int, HostRecord] = field(default_factory=dict)
    vms: Dict[int, VmRecord] = field(default_factory=dict)
    now: float = 0.0

    def add_host(self, capacity: ResourceVec) -> HostRecord:
        hid = len(self.hosts)
        host = HostRecord(id=hid, capacity=capacity)
        self.hosts[hid] = host
        return host

    def fits(self, shape: ResourceVec, host: HostRecord) -> bool:
        return not host.unavailable_for_scheduling and has_room(host, shape)

    def place(self, vm: VmRecord, host_id: int) -> None:
        host = self.hosts[host_id]
        if vm.host is not None:
            raise CapacityExceeded(f"vm {vm.id} already placed on host {vm.host}")
        if not self.fits(vm.shape, host):
            raise CapacityExceeded(f"vm {vm.id} does not fit on host {host_id}")
        self.vms[vm.id] = vm
        vm.host = host_id
        host.used = host.used + vm.shape
        host.vms.add(vm.id)
        if host.lava_state is HostState.EMPTY:
            host.lava_state = HostState.OPEN

    def remove(self, vm_id: int) -> VmRecord:
        vm = self.vms.get(vm_id)
        if vm is None or vm.host is None:
            raise UnknownVm(f"vm {vm_id} is not placed")
        self.remove_keep(vm)
        vm.host = None
        del self.vms[vm_id]
        return vm

    # -- live migration bookkeeping -------------------------------------

    def reserve_incoming(self, vm: VmRecord, host_id: int) -> None:
        """Reserve the VM's shape on the migration target; the VM stays on its source."""
        host = self.hosts[host_id]
        if not has_room(host, vm.shape):
            raise CapacityExceeded(f"migration reservation for vm {vm.id} overflows host {host_id}")
        host.used = host.used + vm.shape
        host.incoming[vm.id] = vm.shape
        if host.lava_state is HostState.EMPTY:
            host.lava_state = HostState.OPEN

    def commit_incoming(self, vm: VmRecord, host_id: int) -> None:
        """Migration finished: the reservation becomes a normal placement."""
        host = self.hosts[host_id]
        shape = host.incoming.pop(vm.id)
        host.used = host.used - shape
        self.remove_keep(vm)
        vm.host = None
        self.place(vm, host_id)

    def remove_keep(self, vm: VmRecord) -> None:
        """Detach a live VM from its host without ending its life (migration source side)."""
        host = self.hosts[vm.host]
        host.used = host.used - vm.shape
        host.vms.discard(vm.id)
        host.residual_vms.discard(vm.id)
        if host.is_empty():
            host.lava_state = HostState.EMPTY
            host.host_class = None
            host.deadline = None
            host.residual_vms.clear()

    # -- invariants ------------------------------------------------------

    def check_invariants(self) -> None:
        total_used = ZERO
        total_shapes = ZERO
        for host in self.hosts.values():
            if not host.used.fits_within(host.capacity):
                raise AssertionError(f"host {host.id} over capacity: {host.used} > {host.capacity}")
            acc = ZERO
            for vid in host.vms:
                vm = self.vms[vid]
                if vm.host != host.id:
                    raise AssertionError(f"vm {vid} host pointer inconsistent")
                acc = acc + vm.shape
            for shape in host.incoming.values():
                acc = acc + shape
            if acc != host.used:
                raise AssertionError(f"host {host.id} used {host.used} != sum of shapes {acc}")
            if not host.residual_vms <= host.vms:
                raise AssertionError(f"host {host.id} residual set not subset of vms")
            if (host.lava_state is HostState.EMPTY) != host.is_empty():
                raise AssertionError(f"host {host.id} state {host.lava_state} vs emptiness")
            total_used = total_used + host.used
            total_shapes = total_shapes + acc
        if total_used != total_shapes:
            raise AssertionError("pool-wide conservation violated")
