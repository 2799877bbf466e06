"""Placement algorithms: quantization, score vectors, LAVA state machine."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from lavasim.core import (
    LifetimeClass,
    PoolState,
    ResourceVec,
    VmRecord,
)
from lavasim.predict import (
    EmpiricalLifetimeModel,
    FeatureVec,
    OneShotModel,
    OracleModel,
    make_predictor,
)
from lavasim.sched import (
    ALGORITHMS,
    BestFitScheduler,
    DEFAULT_BUCKETS_S,
    LaBinaryScheduler,
    LavaConfig,
    LavaHost,
    LavaScheduler,
    NilasConfig,
    NilasScheduler,
    best_fit_score,
    best_host,
    make_scheduler,
    quantize_temporal_cost,
)

H = 3600.0


def make_vm(vm_id, cpu_m=1000, mem_mib=4096, create=0.0, exit_=100.0):
    return VmRecord(id=vm_id, shape=ResourceVec(cpu_m, mem_mib),
                    features=FeatureVec(), create_time=create, true_exit_time=exit_)


def make_pool(n_hosts=4, cpu_m=96_000, mem_mib=393_216):
    pool = PoolState(ResourceVec(cpu_m, mem_mib))
    for _ in range(n_hosts):
        pool.add_host()
    return pool


class TestQuantization:
    def test_70_minutes_is_bucket_2(self):
        assert quantize_temporal_cost(70 * 60.0) == 2

    def test_boundary_table(self):
        # (delta seconds, expected bucket) for the default boundaries
        table = [
            (0, 0), (1, 0), (1799, 0),
            (1800, 1), (3599, 1),
            (3600, 2), (5399, 2),
            (5400, 3), (7199, 3),
            (7200, 4), (10799, 4),
            (10800, 5), (14399, 5),
            (14400, 6), (21599, 6),
            (21600, 7), (43199, 7),
            (43200, 8), (86399, 8),
            (86400, 9), (604799, 9),
            (604800, 10), (10**9, 10),
        ]
        for delta, expected in table:
            assert quantize_temporal_cost(float(delta)) == expected, delta

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            quantize_temporal_cost(-1.0)

    def test_bad_boundaries(self):
        with pytest.raises(ValueError):
            NilasConfig(bucket_boundaries_s=(10, 20))
        with pytest.raises(ValueError):
            NilasConfig(bucket_boundaries_s=(0, 20, 20))

    @given(st.floats(0, 1e9))
    def test_monotone_and_bounded(self, delta):
        cost = quantize_temporal_cost(delta)
        assert 0 <= cost <= len(DEFAULT_BUCKETS_S) - 1
        assert quantize_temporal_cost(delta + 1.0) >= cost


class TestBestFit:
    def test_prefers_tightest_fit(self):
        pool = make_pool(3)
        pool.reserve(0, ResourceVec(50_000, 100_000))
        pool.reserve(1, ResourceVec(90_000, 300_000))
        vm = make_vm(1, 4000, 16384)
        assert BestFitScheduler().select_host(vm, pool, 0.0) == 1

    def test_nonempty_preferred_over_empty(self):
        pool = make_pool(2)
        pool.place(make_vm(1), 1)
        assert BestFitScheduler().select_host(make_vm(2), pool, 0.0) == 1

    def test_no_feasible_host(self):
        pool = make_pool(1, cpu_m=1000, mem_mib=1000)
        assert BestFitScheduler().select_host(make_vm(1, 2000, 500), pool, 0.0) is None

    def test_tie_breaks_by_host_id(self):
        pool = make_pool(3)
        assert BestFitScheduler().select_host(make_vm(1), pool, 0.0) == 0

    def test_score_is_max_leftover_fraction(self):
        pool = make_pool(1, cpu_m=10_000, mem_mib=10_000)
        host = pool.hosts[0]
        # leftover fractions differ across dimensions; max governs
        assert best_fit_score(host, ResourceVec(5000, 1000), pool.capacity) == pytest.approx(0.9)


PREFIX_CAPS = ((8000, 16_384), (16_000, 32_768))
PREFIX_SHAPES = ((1000, 2048), (2000, 4096), (4000, 4096))
PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


@settings(deadline=None, max_examples=300)
@given(data=st.data(), use_floor=st.booleans())
def test_best_host_takes_least_prefix_then_fit_then_id(data, use_floor):
    """``best_host`` with a random prefix key returns the feasible host with
    the least ``(prefix, best_fit_score, id)``, on pools of each capacity.
    Prefixes, fits and ids tie often.  Hosts without VMs share one prefix, as
    every algorithm's do; with the floor ``(0, 0)`` it is above the floor."""
    pool = PoolState(ResourceVec(*data.draw(st.sampled_from(PREFIX_CAPS))))
    for _ in range(data.draw(st.integers(1, 9))):
        pool.add_host()
    vm_id = 0
    for host in pool.hosts.values():
        for _ in range(data.draw(st.integers(0, 3))):
            cpu_m, mem_mib = data.draw(st.sampled_from(PREFIX_SHAPES))
            if pool.fits(ResourceVec(cpu_m, mem_mib), host):
                pool.place(make_vm(vm_id, cpu_m, mem_mib), host.id)
                vm_id += 1
        host.unavailable_for_scheduling = data.draw(st.sampled_from((False, False, True)))
    empty_prefix = data.draw(st.sampled_from(PAIRS[1:] if use_floor else PAIRS))
    prefix = {h.id: data.draw(st.sampled_from(PAIRS)) if h.vms else empty_prefix
              for h in pool.hosts.values()}
    shape = ResourceVec(*data.draw(st.sampled_from(PREFIX_SHAPES)))
    scores = [(prefix[h.id], best_fit_score(h, shape, pool.capacity), h.id)
              for h in pool.hosts.values() if pool.fits(shape, h)]
    best = best_host(pool.index, shape, lambda h: prefix[h.id],
                     (0, 0) if use_floor else None)
    assert (None if best is None else best.id) == (min(scores)[2] if scores else None)


class TestNilas:
    def setup_method(self):
        self.pool = make_pool(3)
        # host 0: drains at t=600; host 1: drains at t=1e6; host 2 empty
        self.pool.place(make_vm(1, exit_=600.0), 0)
        self.pool.place(make_vm(2, exit_=1e6), 1)
        self.sched = NilasScheduler(OracleModel())

    def test_long_vm_prefers_long_horizon_host(self):
        vm = make_vm(3, exit_=900_000.0)
        assert self.sched.select_host(vm, self.pool, 0.0) == 1

    def test_short_vm_zero_cost_everywhere_falls_to_best_fit(self):
        self.pool.reserve(0, ResourceVec(49_000, 195_904))  # used (50_000, 200_000)
        vm = make_vm(3, exit_=100.0)
        assert self.sched.select_host(vm, self.pool, 0.0) == 0

    def test_empty_host_ranked_last(self):
        vm = make_vm(3, exit_=10**9)  # cost 10 on both non-empty hosts
        assert self.sched.select_host(vm, self.pool, 0.0) != 2

    def test_empty_host_used_when_nothing_fits(self):
        pool = make_pool(2, cpu_m=4000, mem_mib=16_384)
        pool.place(make_vm(1, 4000, 16_384), 0)
        vm = make_vm(2, 4000, 16_384)
        assert NilasScheduler(OracleModel()).select_host(vm, pool, 0.0) == 1

    def test_brute_force_equivalence(self):
        """On small instances the chosen host equals the argmin over
        exhaustively computed score vectors."""
        import random
        rng = random.Random(11)
        for trial in range(30):
            pool = make_pool(4, cpu_m=10_000, mem_mib=10_000)
            sched = NilasScheduler(OracleModel())
            vms = []
            for i in range(8):
                vm = make_vm(i, rng.choice([1000, 2000, 4000]),
                             rng.choice([1000, 2000, 4000]),
                             exit_=rng.uniform(100, 1e6))
                hosts = [h for h in pool.hosts.values() if pool.fits(vm.shape, h)]
                if hosts:
                    pool.place(vm, rng.choice(hosts).id)
            probe = make_vm(99, 1000, 1000, exit_=rng.uniform(100, 1e6))
            feasible = [h for h in pool.hosts.values() if pool.fits(probe.shape, h)]
            if not feasible:
                continue
            expected = min(feasible,
                           key=lambda h: sched.score(h, probe, pool, 0.0)).id
            for host in pool.hosts.values():
                sched.cache.invalidate(host.id)
            assert sched.select_host(probe, pool, 0.0) == expected


class TestLaBinary:
    def test_one_shot_prediction(self):
        """LA-Binary predicts through ``OneShotModel``: a VM's exit is fixed
        at its first prediction, made at creation."""
        sched = LaBinaryScheduler(OracleModel())
        assert isinstance(sched.model, OneShotModel)
        vm = make_vm(1, exit_=50_000.0)
        assert sched.model.remaining(vm, 0.0) == 50_000.0 == vm.initial_predicted_exit
        assert sched.model.remaining(vm, 1000.0) == 50_000.0 - 1000.0

    def test_matches_vm_to_host_class(self):
        pool = make_pool(3)
        sched = LaBinaryScheduler(OracleModel())
        pool.place(make_vm(1, exit_=100 * H), 0)
        pool.place(make_vm(2, exit_=600.0), 1)
        incoming_long = make_vm(3, exit_=50 * H)
        assert sched.select_host(incoming_long, pool, 0.0) == 0
        incoming_short = make_vm(4, exit_=300.0)
        assert sched.select_host(incoming_short, pool, 0.0) == 1

    def test_boundary_is_long(self):
        """A VM, or a host by its latest exit, with exactly 2 h remaining is
        long; a second less is short."""
        pool = make_pool(3)
        sched = LaBinaryScheduler(OracleModel())
        pool.place(make_vm(1, exit_=2 * H), 0)
        pool.place(make_vm(2, exit_=2 * H - 1.0), 1)
        key = sched.host_key(make_vm(3, exit_=2 * H), pool, 0.0)
        assert [key(h) for h in pool.hosts.values()] == [(0,), (1,), (2,)]
        key = sched.host_key(make_vm(4, exit_=2 * H - 1.0), pool, 0.0)
        assert [key(h) for h in pool.hosts.values()] == [(1,), (0,), (2,)]

    def test_host_class_not_refreshed(self):
        """A host's class comes from its residents' predictions at creation,
        counted down: a repredicting model that later says 100 h does not
        keep a host Long once less than 2 h of its one-shot exit remain."""
        class Repredicting(OracleModel):
            def remaining(self, vm, now):
                return super().remaining(vm, now) if now == vm.create_time else 100 * H

        pool = make_pool(3)
        sched = LaBinaryScheduler(Repredicting())
        pool.place(make_vm(1, cpu_m=2000, exit_=3 * H), 0)  # Long at 0, Short after 1 h
        pool.place(make_vm(2, exit_=100 * H), 1)  # Long throughout
        # at 0 both hosts are Long; host 0 fits the long probe tighter
        probe = make_vm(3, create=0.0, exit_=50 * H)
        assert sched.select_host(probe, pool, 0.0) == 0
        # at 2.5 h host 0 is Short by its fixed initial exit, so the long probe
        # goes to host 1, and a short one to host 0
        probe = make_vm(4, create=2.5 * H, exit_=52.5 * H)
        assert sched.select_host(probe, pool, 2.5 * H) == 1
        probe = make_vm(5, create=2.5 * H, exit_=2.5 * H + 600.0)
        assert sched.select_host(probe, pool, 2.5 * H) == 0


class TestLavaStateMachine:
    def setup_method(self):
        self.pool = make_pool(4, cpu_m=10_000, mem_mib=10_000)
        self.sched = LavaScheduler(OracleModel())

    def place(self, vm, host_id, now=0.0):
        self.pool.place(vm, host_id)
        self.sched.after_place(self.pool, vm, self.pool.hosts[host_id], now)

    def exit(self, vm_id, now):
        host = self.pool.hosts[self.pool.vms[vm_id].host]
        self.sched.on_exit(self.pool, self.pool.remove(vm_id), host, now)

    def test_place_opens_host(self):
        self.place(make_vm(1, 4000, 4096, exit_=5 * H), 0)
        lava = self.sched.state[0]
        assert not lava.recycling and lava.residual_vms == set()
        assert set(self.sched.state) == {0}  # no entry for the empty hosts
        self.sched.check_invariants(self.pool)

    def test_first_vm_sets_class_and_deadline(self):
        vm = make_vm(1, exit_=5 * H)  # LC2
        self.place(vm, 0)
        lava = self.sched.state[0]
        assert lava.host_class is LifetimeClass.LC2
        assert lava.deadline == pytest.approx(1.1 * 10 * H)

    def test_remove_last_vm_resets_host(self):
        self.place(make_vm(1, 4000, 4096, exit_=5 * H), 0)
        self.exit(1, 60.0)
        assert 0 not in self.sched.state
        self.sched.check_invariants(self.pool)

    def test_remove_prunes_residuals(self):
        self.place(make_vm(1, 1000, 1024, exit_=5 * H), 0)
        self.place(make_vm(2, 1000, 1024, exit_=5 * H), 0)
        self.sched.state[0].residual_vms = {1}
        self.exit(1, 60.0)
        assert self.sched.state[0].residual_vms == set()
        assert 2 in self.pool.hosts[0].vms

    def test_reserve_then_commit(self):
        """A migration moves the VM's entry: the source keeps its entry while
        it holds only an incoming reservation and drops it when it empties;
        the target gets one when the VM lands."""
        first, second = make_vm(1, 4000, 4000, exit_=5 * H), make_vm(2, 4000, 4000, exit_=50 * H)
        self.place(first, 0)
        self.place(second, 1)
        self.pool.reserve_incoming(second, 0)
        self.exit(1, 60.0)
        assert self.pool.incoming == {2: 0} and 0 in self.sched.state  # reserved, so kept
        self.sched.check_invariants(self.pool)
        assert self.pool.commit_incoming(second) == 0
        self.sched.on_exit(self.pool, second, self.pool.hosts[1], 120.0)
        self.sched.after_place(self.pool, second, self.pool.hosts[0], 120.0)
        assert set(self.sched.state) == {0}
        assert self.sched.state[0].host_class is LifetimeClass.LC2  # armed by the first VM
        self.pool.check_invariants()
        self.sched.check_invariants(self.pool)

    def test_check_invariants(self):
        self.place(make_vm(1, 1000, 1024, exit_=5 * H), 0)
        self.sched.state[0].residual_vms = {7}
        with pytest.raises(AssertionError, match=r"^host 0 residual set not subset of vms$"):
            self.sched.check_invariants(self.pool)
        self.sched.state[0].residual_vms = set()
        self.sched.state[1] = LavaHost(LifetimeClass.LC1, 1.0)
        with pytest.raises(AssertionError, match=r"^host 1 is empty but has a LAVA entry$"):
            self.sched.check_invariants(self.pool)

    def test_recycling_at_90_percent(self):
        self.place(make_vm(1, 9100, 1000, exit_=5 * H), 0)
        lava = self.sched.state[0]
        assert lava.recycling
        assert lava.residual_vms == {1}

    def test_89_percent_stays_open(self):
        self.place(make_vm(1, 8900, 1000, exit_=5 * H), 0)
        assert not self.sched.state[0].recycling

    def test_recycling_on_either_dimension(self):
        self.place(make_vm(1, 1000, 9100, exit_=5 * H), 0)
        assert self.sched.state[0].recycling

    def test_lower_class_vm_on_recycling_not_residual(self):
        self.place(make_vm(1, 9100, 1000, exit_=50 * H), 0)  # LC3, recycles
        vm2 = make_vm(2, 500, 500, exit_=600.0)  # LC1
        self.place(vm2, 0)
        assert self.sched.state[0].residual_vms == {1}

    def test_same_or_higher_class_vm_on_recycling_is_residual(self):
        self.place(make_vm(1, 9100, 1000, exit_=50 * H), 0)  # LC3, recycles
        vm2 = make_vm(2, 500, 500, exit_=60 * H)  # LC3: extends the drain
        self.place(vm2, 0)
        assert self.sched.state[0].residual_vms == {1, 2}

    def test_demotion_when_residuals_exit(self):
        self.place(make_vm(1, 5000, 1000, exit_=50 * H), 0)   # LC3 opener
        self.place(make_vm(2, 4500, 1000, exit_=49 * H), 0)   # recycles host
        lava = self.sched.state[0]
        assert lava.recycling and lava.residual_vms == {1, 2}
        self.place(make_vm(3, 500, 500, exit_=600.0), 0)  # LC1 filler
        self.exit(1, 100.0)
        assert lava.host_class is LifetimeClass.LC3  # a residual is left
        self.exit(2, 100.0)
        assert lava.host_class is LifetimeClass.LC2  # one step down
        assert lava.recycling and lava.residual_vms == {3}
        assert lava.deadline == pytest.approx(100.0 + 1.1 * 10 * H)

    def test_demotion_floors_at_lc1(self):
        self.place(make_vm(1, 9100, 1000, exit_=600.0), 0)  # LC1, recycles
        self.place(make_vm(2, 500, 500, exit_=500.0), 0)
        lava = self.sched.state[0]
        lava.residual_vms = {1}
        self.exit(1, 50.0)
        assert lava.host_class is LifetimeClass.LC1
        assert lava.residual_vms == {2}

    def test_promotion_on_deadline(self):
        vm = make_vm(1, exit_=600.0)  # LC1: deadline 1.1h
        self.place(vm, 0)
        host, lava = self.pool.hosts[0], self.sched.state[0]
        deadline = lava.deadline
        self.sched.on_deadline(self.pool, host, deadline)
        assert lava.host_class is LifetimeClass.LC2
        assert lava.residual_vms == {1}
        assert lava.deadline == pytest.approx(deadline + 1.1 * 10 * H)

    def test_promotion_caps_at_lc4(self):
        vm = make_vm(1, exit_=2000 * H)
        self.place(vm, 0)
        lava = self.sched.state[0]
        lava.host_class = LifetimeClass.LC4
        deadline = lava.deadline
        self.sched.on_deadline(self.pool, self.pool.hosts[0], deadline)
        assert lava.host_class is LifetimeClass.LC4
        assert lava.deadline > deadline

    def test_deadline_before_time_ignored(self):
        vm = make_vm(1, exit_=600.0)
        self.place(vm, 0)
        lava = self.sched.state[0]
        before = (lava.host_class, lava.deadline)
        early = lava.deadline - 1.0
        self.sched.on_deadline(self.pool, self.pool.hosts[0], early)
        assert (lava.host_class, lava.deadline) == before

    def test_stale_deadline_events(self):
        """The event of a deadline superseded by a re-arm (a demotion, or the
        host emptying and reopening) fires at its old time and promotes
        nothing, whether that time is after the current deadline or before
        it; the current one promotes."""
        fired = []
        self.sched.deadline_armed = lambda hid, deadline: fired.append((hid, deadline))
        host = self.pool.hosts[0]
        # re-armed by demotion
        self.place(make_vm(1, 5000, 1000, exit_=50 * H), 0)   # LC3, deadline 110h
        self.place(make_vm(2, 4500, 1000, exit_=49 * H), 0)   # recycles
        self.place(make_vm(3, 500, 500, exit_=600.0), 0)      # LC1 filler
        self.exit(1, 100.0)
        self.exit(2, 100.0)                                   # demoted to LC2
        (_, old), (_, current) = fired
        lava = self.sched.state[0]
        assert lava.host_class is LifetimeClass.LC2 and old >= current == lava.deadline
        self.sched.on_deadline(self.pool, host, old)
        assert lava.host_class is LifetimeClass.LC2 and lava.deadline == current
        self.sched.on_deadline(self.pool, host, current)
        assert lava.host_class is LifetimeClass.LC3
        # re-armed by emptying and reopening
        fired.clear()
        self.place(make_vm(4, exit_=600.0), 1)                # LC1, deadline 1.1h
        self.exit(4, 0.5 * H)
        assert 1 not in self.sched.state
        self.place(make_vm(5, create=0.6 * H, exit_=0.6 * H + 600.0), 1, now=0.6 * H)  # 1.7h
        (_, old), (_, current) = fired
        assert old < current == self.sched.state[1].deadline
        self.sched.on_deadline(self.pool, self.pool.hosts[1], old)
        assert self.sched.state[1].host_class is LifetimeClass.LC1
        self.sched.on_deadline(self.pool, self.pool.hosts[1], current)
        assert self.sched.state[1].host_class is LifetimeClass.LC2


class TestLavaTiers:
    def make(self, n=5):
        pool = make_pool(n, cpu_m=10_000, mem_mib=10_000)
        sched = LavaScheduler(OracleModel())
        return pool, sched

    def seed_host(self, pool, sched, host_id, recycling, klass, exit_=50 * H):
        vm = make_vm(100 + host_id, 500, 500, exit_=exit_)
        pool.place(vm, host_id)
        sched.state[host_id] = LavaHost(klass, 0.0, recycling)
        return pool.hosts[host_id]

    def test_recycling_closest_class_first(self):
        pool, sched = self.make()
        self.seed_host(pool, sched, 0, True, LifetimeClass.LC2)
        self.seed_host(pool, sched, 1, True, LifetimeClass.LC4)
        vm = make_vm(1, exit_=600.0)  # LC1
        assert sched.select_host(vm, pool, 0.0) == 0

    def test_open_same_class_when_no_recycling(self):
        pool, sched = self.make()
        self.seed_host(pool, sched, 0, False, LifetimeClass.LC1)
        self.seed_host(pool, sched, 1, False, LifetimeClass.LC3)
        vm = make_vm(1, exit_=50 * H)  # LC3
        assert sched.select_host(vm, pool, 0.0) == 1

    def test_nonempty_before_empty(self):
        pool, sched = self.make()
        self.seed_host(pool, sched, 0, False, LifetimeClass.LC1)
        vm = make_vm(1, exit_=5 * H)  # LC2: no matching tier 0/1 host
        assert sched.select_host(vm, pool, 0.0) == 0

    def test_tier_discipline_property(self):
        """Whenever a feasible recycling host with a strictly higher class
        exists, the choice comes from that tier."""
        import random
        rng = random.Random(23)
        for _ in range(40):
            pool, sched = self.make(6)
            for hid in range(5):
                recycling = rng.choice([False, True])
                klass = LifetimeClass(rng.randint(1, 4))
                self.seed_host(pool, sched, hid, recycling, klass)
            vm = make_vm(1, exit_=rng.choice([600.0, 5 * H, 50 * H]))
            chosen = sched.select_host(vm, pool, 0.0)
            tier0 = [hid for hid, lava in sched.state.items()
                     if lava.recycling and lava.host_class > vm.lifetime_class
                     and pool.fits(vm.shape, pool.hosts[hid])]
            if tier0:
                assert chosen in tier0

    def test_zero_promotions_on_quantized_trace(self):
        """Oracle predictions with class-exact lifetimes and no recycling
        arrivals outliving residuals never trigger a promotion."""
        pool, sched = self.make(2)
        fired = []
        sched.deadline_armed = lambda hid, deadline: fired.append((hid, deadline))
        vm = make_vm(1, exit_=0.9 * H)  # LC1, exits before the 1.1h deadline
        pool.place(vm, 0)
        sched.after_place(pool, vm, pool.hosts[0], 0.0)
        pool.now = vm.true_exit_time
        host = pool.hosts[0]
        pool.remove(1)
        sched.on_exit(pool, vm, host, pool.now)
        # the armed deadline fires on an empty host: promotion must not occur
        (hid, deadline), = fired
        sched.on_deadline(pool, pool.hosts[hid], deadline)
        assert hid not in sched.state and len(fired) == 1


class TestLavaConfigValidation:
    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            LavaConfig(recycle_threshold=1.5)

    def test_bad_deadline_factor(self):
        with pytest.raises(ValueError):
            LavaConfig(deadline_factor=0.5)


class TestFactory:
    def test_all_algorithms(self):
        for name in ALGORITHMS:
            assert make_scheduler(name, OracleModel()).name == name

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_scheduler("firstfit", OracleModel())

    @pytest.mark.parametrize("cache_of", [lambda model: NilasScheduler(model).cache,
                                          lambda model: LavaScheduler(model).cache],
                             ids=["nilas", "lava"])
    def test_cache_refresh_follows_time_invariance(self, cache_of):
        """The cache a scheduler builds has an infinite time grid under a
        time-invariant model, so its entries refresh only on membership
        changes, and the 60 s default grid under a model that makes no such
        promise."""
        assert cache_of(OracleModel()).grid_s == math.inf
        assert cache_of(make_predictor("noisy:0.5")).grid_s == math.inf
        assert cache_of(OneShotModel(EmpiricalLifetimeModel())).grid_s == math.inf
        assert not hasattr(EmpiricalLifetimeModel(), "time_invariant")
        assert cache_of(EmpiricalLifetimeModel()).grid_s == 60.0
