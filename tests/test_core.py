"""Pool-state bookkeeping: placement, removal, conservation."""

import pytest
from hypothesis import given, strategies as st

from lavasim.core import (
    CapacityExceeded,
    HostRecord,
    PoolState,
    ResourceVec,
    UnknownVm,
    VmRecord,
)
from lavasim.predict import FeatureVec
from lavasim.sched import best_host


def make_vm(vm_id, cpu_m, mem_mib, create=0.0, exit_=100.0):
    return VmRecord(id=vm_id, shape=ResourceVec(cpu_m, mem_mib),
                    features=FeatureVec(), create_time=create, true_exit_time=exit_)


def scanned(pool, shape):
    """The hosts the placement walk scores for ``shape`` when it scores every
    candidate, in walk order."""
    seen = []
    best_host(pool.index, shape, lambda h: seen.append(h) or (h.id,), None)
    return seen


def pool_with_host(cpu_m=96_000, mem_mib=393_216):
    pool = PoolState()
    pool.add_host(ResourceVec(cpu_m, mem_mib))
    return pool


class TestResourceVec:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ResourceVec(-1, 0)

    def test_partial_order(self):
        assert ResourceVec(4, 16).fits_within(ResourceVec(96, 384))
        assert not ResourceVec(97, 16).fits_within(ResourceVec(96, 384))
        # incomparable pair: neither fits within the other
        assert not ResourceVec(4, 400).fits_within(ResourceVec(96, 384))

    def test_add_sub_roundtrip(self):
        a, b = ResourceVec(5, 7), ResourceVec(3, 2)
        assert a + b - b == a


class TestVmRecord:
    def test_zero_shape_rejected(self):
        with pytest.raises(ValueError, match="zero shape"):
            make_vm(0, 0, 0)

    def test_one_zero_dimension_accepted(self):
        assert make_vm(0, 0, 512).shape == ResourceVec(0, 512)


class TestFits:
    def test_empty_host(self):
        pool = pool_with_host()
        assert pool.fits(ResourceVec(4000, 16384), pool.hosts[0])

    def test_cpu_exhausted(self):
        pool = pool_with_host()
        pool.reserve(0, ResourceVec(96_000, 100))
        assert not pool.fits(ResourceVec(4000, 16384), pool.hosts[0])

    def test_unavailable_host(self):
        pool = pool_with_host()
        pool.hosts[0].unavailable_for_scheduling = True
        assert not pool.fits(ResourceVec(4000, 16384), pool.hosts[0])


class TestPlaceRemove:
    def test_place_opens_host(self):
        pool = pool_with_host()
        pool.place(make_vm(1, 4000, 16384), 0)
        host = pool.hosts[0]
        assert host.used == ResourceVec(4000, 16384)
        assert not host.is_empty()
        assert pool.vms[1].host == 0

    def test_place_on_full_host(self):
        pool = pool_with_host(cpu_m=4000, mem_mib=16384)
        pool.place(make_vm(1, 4000, 16384), 0)
        with pytest.raises(CapacityExceeded):
            pool.place(make_vm(2, 1000, 1), 0)

    def test_place_already_placed(self):
        pool = pool_with_host()
        vm = make_vm(1, 1000, 1024)
        pool.place(vm, 0)
        with pytest.raises(CapacityExceeded):
            pool.place(vm, 0)

    def test_remove_last_vm_resets_host(self):
        pool = pool_with_host()
        pool.place(make_vm(1, 4000, 16384), 0)
        pool.remove(1)
        host = pool.hosts[0]
        assert host.used == ResourceVec(0, 0)
        assert host.is_empty()

    def test_remove_unknown(self):
        pool = pool_with_host()
        with pytest.raises(UnknownVm):
            pool.remove(99)


class TestMigrationBookkeeping:
    def test_reserve_then_commit(self):
        pool = PoolState()
        pool.add_host(ResourceVec(10_000, 10_000))
        pool.add_host(ResourceVec(10_000, 10_000))
        vm = make_vm(1, 4000, 4000)
        pool.place(vm, 0)
        pool.reserve_incoming(vm, 1)
        # double reservation: shape counted on both hosts while in flight
        assert pool.hosts[0].used == ResourceVec(4000, 4000)
        assert pool.hosts[1].used == ResourceVec(4000, 4000)
        assert not pool.hosts[1].is_empty()
        assert pool.incoming == {1: 1}
        pool.check_invariants()
        assert pool.commit_incoming(vm) == 1
        assert not pool.incoming
        assert pool.hosts[0].used == ResourceVec(0, 0)
        assert pool.hosts[0].is_empty()
        assert pool.hosts[1].used == ResourceVec(4000, 4000)
        assert vm.host == 1
        pool.check_invariants()

    def test_reservation_overflow(self):
        pool = PoolState()
        pool.add_host(ResourceVec(10_000, 10_000))
        pool.add_host(ResourceVec(3000, 3000))
        vm = make_vm(1, 4000, 4000)
        pool.place(vm, 0)
        with pytest.raises(CapacityExceeded, match="vm 1"):
            pool.reserve_incoming(vm, 1)
        pool.reserve(1, ResourceVec(2000, 2000))
        with pytest.raises(CapacityExceeded):
            pool.reserve(1, ResourceVec(1000, 1001))
        assert pool.hosts[1].used == ResourceVec(2000, 2000)
        assert not pool.incoming
        pool.index.check()

    def test_second_reservation_refused(self):
        """A VM reserves one target at a time: a second reservation would
        overwrite the first target and orphan its ``used``."""
        pool = PoolState()
        for _ in range(3):
            pool.add_host(ResourceVec(10_000, 10_000))
        vm = make_vm(1, 4000, 4000)
        pool.place(vm, 0)
        pool.reserve_incoming(vm, 1)
        with pytest.raises(CapacityExceeded, match="already migrates to host 1"):
            pool.reserve_incoming(vm, 2)
        assert pool.incoming == {1: 1}
        assert pool.hosts[2].is_empty()
        pool.check_invariants()

    def test_commit_without_reservation(self):
        pool = PoolState()
        pool.add_host(ResourceVec(10_000, 10_000))
        vm = make_vm(1, 4000, 4000)
        pool.place(vm, 0)
        with pytest.raises(UnknownVm, match="not migrating"):
            pool.commit_incoming(vm)
        assert vm.host == 0 and pool.hosts[0].used == ResourceVec(4000, 4000)

    def test_invariants_check_the_in_flight_map(self):
        pool = PoolState()
        pool.add_host(ResourceVec(10_000, 10_000))
        pool.add_host(ResourceVec(10_000, 10_000))
        vm = make_vm(1, 4000, 4000)
        pool.place(vm, 0)
        pool.reserve(1, vm.shape)
        with pytest.raises(AssertionError, match="used"):
            pool.check_invariants()  # a reservation no migration accounts for
        pool.incoming[1] = 0
        with pytest.raises(AssertionError, match="from no other host"):
            pool.check_invariants()  # migrating to its own host
        pool.incoming = {2: 1}
        with pytest.raises(AssertionError, match="from no other host"):
            pool.check_invariants()
        pool.incoming = {1: 1}
        pool.check_invariants()


@given(st.lists(st.tuples(st.integers(1, 8000), st.integers(1, 32768)),
                min_size=1, max_size=30))
def test_conservation_place_remove(shapes):
    """Placing then removing every VM restores a zero used vector exactly."""
    pool = PoolState()
    for _ in range(4):
        pool.add_host(ResourceVec(96_000, 393_216))
    placed = []
    for i, (cpu, mem) in enumerate(shapes):
        vm = make_vm(i, cpu, mem)
        for host in pool.hosts.values():
            if pool.fits(vm.shape, host):
                pool.place(vm, host.id)
                placed.append(i)
                break
        pool.check_invariants()
    for i in placed:
        pool.remove(i)
        pool.check_invariants()
    assert all(h.used == ResourceVec(0, 0) for h in pool.hosts.values())


@given(st.integers(1, 96_000), st.integers(1, 393_216))
def test_place_remove_exact_restore(cpu, mem):
    pool = pool_with_host()
    before = pool.hosts[0].used
    pool.place(make_vm(7, cpu, mem), 0)
    pool.remove(7)
    assert pool.hosts[0].used == before


class TestIndexInvariant:
    def test_direct_write_refused(self):
        """``used`` is read-only; ``reserve`` writes it and re-files the host."""
        pool = pool_with_host()
        host = pool.hosts[0]
        with pytest.raises(AttributeError):
            host.used = ResourceVec(96_000, 100)
        assert scanned(pool, ResourceVec(1000, 100)) == [host]
        pool.reserve(0, ResourceVec(96_000, 100))
        assert scanned(pool, ResourceVec(1000, 100)) == []
        pool.index.check()

    def test_unfiled_write_detected(self):
        pool = pool_with_host()
        pool.hosts[0].used_cpu_m = 4000  # bypasses the re-file
        with pytest.raises(AssertionError, match="index"):
            pool.index.check()

    def test_invariants_check_the_index(self):
        pool = pool_with_host()
        pool.place(make_vm(0, 4000, 100), 0)
        pool.check_invariants()
        pool.index.filed[0] = None
        with pytest.raises(AssertionError, match="index"):
            pool.check_invariants()

    def test_hosts_passed_to_the_constructor_are_filed(self):
        cap = ResourceVec(8000, 16_384)
        pool = PoolState(hosts={0: HostRecord(0, cap, used_cpu_m=1000),
                                1: HostRecord(1, cap)})
        pool.index.check()
        assert sorted(h.id for h in scanned(pool, ResourceVec(500, 512))) == [0, 1]
