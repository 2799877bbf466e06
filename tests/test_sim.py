"""Replay engine: metrics, stranding, event ordering, determinism."""

import copy
import dataclasses
import heapq
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from lavasim.core import LifetimeClass, PoolState, ResourceVec, VmRecord
from lavasim.defrag import EvacuationOutcome, compare_orderings, simulate_evacuation
from lavasim.predict import (
    EmpiricalLifetimeModel,
    OneShotModel,
    OracleModel,
    PredictionCache,
    lifetime_class,
    make_predictor,
)
from lavasim.sched import ALGORITHMS, LavaConfig, Scheduler, make_scheduler
from lavasim.sim import (
    EV_ARRIVAL,
    EV_DEFRAG,
    EV_EXIT,
    EV_SAMPLE,
    DefragConfig,
    SimConfig,
    Simulator,
    TraceNotSorted,
    clone_pool,
    inflation_stranding,
    metrics_snapshot,
    order_evacuation,
    trace_shape_mix,
)
from lavasim.workload import (
    GeneratorConfig,
    TraceRecord,
    bimodal_config,
    generate,
    training_examples,
    vm_terms,
)

CAP = ResourceVec(1000, 4096)


def make_vm(vm_id, shape, create=0.0, exit_time=100.0):
    return VmRecord(id=vm_id, shape=shape, features=None,
                    create_time=create, true_exit_time=exit_time)


def rec(vm_id, create_s, life_s, cpu=1000, mem=4096):
    return TraceRecord(vm_id, create_s, life_s, *vm_terms(cpu, mem))


class TestMetricsSnapshot:
    def test_all_empty(self):
        pool = PoolState(CAP)
        for _ in range(4):
            pool.add_host()
        assert metrics_snapshot(pool) == (100.0, 1.0, 1.0, 0, 0.0, 0.0)

    def test_hand_computed(self):
        pool = PoolState(CAP)
        pool.add_host()
        pool.add_host()
        pool.place(make_vm(0, ResourceVec(600, 1024)), 0)
        assert metrics_snapshot(pool) == (50.0, 1000 / (400 + 1000), 600 / 1000, 1,
                                          600 / 2000, 1024 / 8192)

    def test_no_hosts(self):
        assert metrics_snapshot(PoolState(CAP)) == (0.0, 0.0, 1.0, 0, 0.0, 0.0)

    def test_replay_without_hosts(self):
        """A pool of no hosts drops every arrival and samples zero utilisation."""
        trace = [rec(i, 300 * i, 600) for i in range(4)]
        result = Simulator(trace, 0, CAP, "baseline", OracleModel(),
                           cfg=SimConfig(warmup=False)).run()
        assert result.summary["scheduling_failures"] == 4
        assert [row[1:] for row in result.series] == [(0.0, 0.0, 1.0, 0, 0.0, 0.0)] * 4


class TestInflationStranding:
    def test_nothing_fits(self):
        pool = PoolState(CAP)
        pool.add_host()
        pool.place(make_vm(0, ResourceVec(500, 2048)), 0)
        cpu_s, mem_s = inflation_stranding(
            pool, [(ResourceVec(600, 1024), 1.0)], random.Random(0))
        assert (cpu_s, mem_s) == (0.5, 0.5)

    def test_perfectly_packable(self):
        pool = PoolState(CAP)
        pool.add_host()
        cpu_s, mem_s = inflation_stranding(
            pool, [(ResourceVec(500, 2048), 1.0)], random.Random(0))
        assert (cpu_s, mem_s) == (0.0, 0.0)

    def test_does_not_mutate_pool(self):
        pool = PoolState(CAP)
        pool.add_host()
        inflation_stranding(pool, [(ResourceVec(500, 2048), 1.0)], random.Random(0))
        assert pool.hosts[0].used == ResourceVec(0, 0)


class TestClonePool:
    def test_clone_is_independent(self):
        pool = PoolState(CAP)
        pool.add_host()
        pool.place(make_vm(0, ResourceVec(100, 512)), 0)
        clone = clone_pool(pool)
        clone.remove(0)
        assert 0 in pool.vms
        assert pool.hosts[0].used == ResourceVec(100, 512)
        assert clone.hosts[0].used == ResourceVec(0, 0)

    def test_every_field_survives(self):
        """Every field of every host and VM record is copied, and the
        containers a host or the pool owns are copied rather than shared."""
        pool = PoolState(CAP, now=42.0)
        pool.add_host()
        pool.add_host()
        vm0, vm1 = make_vm(0, ResourceVec(100, 512)), make_vm(1, ResourceVec(100, 512))
        pool.place(vm0, 0)
        pool.place(vm1, 1)
        pool.reserve_incoming(vm1, 0)
        host = pool.hosts[0]
        host.unavailable_for_scheduling = True
        vm0.initial_predicted_exit, vm0.lifetime_class = 90.0, LifetimeClass.LC2
        clone = clone_pool(pool)
        assert (clone.now, clone.capacity) == (pool.now, pool.capacity)
        pairs = ([(h, clone.hosts[h.id]) for h in pool.hosts.values()]
                 + [(vm, clone.vms[vm.id]) for vm in pool.vms.values()])
        for src, dst in pairs:
            assert dst is not src
            for f in dataclasses.fields(src):
                if src is host or src is vm0:
                    default = (f.default_factory() if f.default_factory is not dataclasses.MISSING
                               else f.default)
                    assert getattr(src, f.name) != default, f"set {f.name} in this test"
                assert getattr(dst, f.name) == getattr(src, f.name), f.name
        assert clone.hosts[0].vms is not host.vms
        assert clone.incoming == pool.incoming == {1: 0}
        assert clone.incoming is not pool.incoming


class TestTraceShapeMix:
    def test_counts_and_order(self):
        trace = [rec(0, 0, 60, cpu=2000, mem=8192), rec(1, 0, 60),
                 rec(2, 1, 60)]
        mix = trace_shape_mix(trace)
        assert mix == [(ResourceVec(1000, 4096), 2), (ResourceVec(2000, 8192), 1)]


class TestSimulatorBasics:
    def test_unsorted_trace_rejected(self):
        with pytest.raises(TraceNotSorted):
            Simulator([rec(0, 100, 60), rec(1, 0, 60)], 1, CAP,
                      "baseline", OracleModel())

    def test_empty_trace(self):
        result = Simulator([], 2, CAP, "baseline", OracleModel()).run()
        assert result.summary["samples"] == 0
        assert result.series == []

    def test_sequential_vms_fit_one_host(self):
        sim = Simulator([rec(0, 0, 100), rec(1, 200, 100)], 1, CAP,
                        "baseline", OracleModel(), cfg=SimConfig(warmup=False))
        sim.run()
        assert sim.scheduling_failures == 0

    def test_overlapping_vms_overflow_one_host(self):
        sim = Simulator([rec(0, 0, 100), rec(1, 50, 100)], 1, CAP,
                        "baseline", OracleModel(), cfg=SimConfig(warmup=False))
        sim.run()
        assert sim.scheduling_failures == 1

    def test_exit_frees_capacity_before_same_time_arrival(self):
        sim = Simulator([rec(0, 0, 100), rec(1, 100, 100)], 1, CAP,
                        "baseline", OracleModel(), cfg=SimConfig(warmup=False))
        sim.run()
        assert sim.scheduling_failures == 0

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_scheduler_instance_replays_like_its_name(self, algo):
        """A ``Scheduler`` passed in place of an algorithm name replays the
        same, LAVA's deadlines included, and reports the same name."""
        trace = generate(GeneratorConfig(num_vms=600, seed=3))
        cfg = SimConfig(warmup_s=3600.0, check_invariants=True, record_placements=True)

        def run(algorithm):
            return Simulator(trace, 8, ResourceVec(16000, 65536), algorithm,
                             make_predictor("noisy:0.5", seed=3), cfg=cfg).run()
        by_name = run(algo)
        by_instance = run(make_scheduler(algo, make_predictor("noisy:0.5", seed=3)))
        assert by_instance.series == by_name.series
        assert by_instance.summary == by_name.summary
        assert by_instance.placements == by_name.placements
        assert by_name.summary["algorithm"] == algo


class Recording(OracleModel):
    """The oracle, recording each VM it is asked about and counting its
    predictions per ``(vm id, now)``."""

    def __init__(self):
        self.seen = {}
        self.calls = Counter()

    def remaining(self, vm, now):
        self.seen[vm.id] = (vm.features, vm.shape)
        self.calls[vm.id, now] += 1
        return super().remaining(vm, now)


class TestWarmup:
    def test_warmup_placements_use_baseline(self):
        trace = [rec(0, 0, 7200), rec(1, 4000, 7200)]
        cfg = SimConfig(warmup=True, warmup_s=3600.0, record_placements=True)
        sim = Simulator(trace, 2, CAP, "lava", OracleModel(), cfg=cfg)
        result = sim.run()
        by_vm = {line.split("\t")[2]: line.split("\t")[4]
                 for line in result.placements}
        assert by_vm == {"0": "baseline", "1": "lava"}

    def test_samples_start_after_warmup(self):
        trace = [rec(0, 0, 7200), rec(1, 4000, 7200)]
        cfg = SimConfig(warmup=True, warmup_s=3600.0)
        result = Simulator(trace, 2, CAP, "baseline", OracleModel(), cfg=cfg).run()
        assert result.series
        assert all(row[0] >= 3600.0 for row in result.series)
        assert result.summary["measure_start_s"] == 3600.0

    def test_no_warmup_samples_from_start(self):
        trace = [rec(0, 0, 7200), rec(1, 4000, 7200)]
        result = Simulator(trace, 2, CAP, "baseline", OracleModel(),
                           cfg=SimConfig(warmup=False)).run()
        assert result.series[0][0] == 0.0

    @pytest.mark.parametrize("algo", ["lava", "la-binary"])
    def test_warmup_placements_are_predicted_at_creation(self, algo):
        """A VM Best Fit places in warm-up gets the LAVA class of its
        prediction at creation, as if LAVA had placed it.  LA-Binary fills
        no field at placement: its one-shot exit is computed when a host's
        exit is first asked for, and after the run each one filled is the
        prediction at creation."""
        trace = generate(GeneratorConfig(num_vms=600, seed=3))
        model = make_predictor("noisy:0.5", seed=3)
        sim = Simulator(trace, 8, ResourceVec(16000, 65536), algo, model,
                        cfg=SimConfig(warmup_s=7200.0))
        after_place, placed = sim.active.after_place, []

        def recording(pool, vm, host, now):
            after_place(pool, vm, host, now)
            if now < sim._measure_start:
                placed.append((vm, vm.lifetime_class, vm.initial_predicted_exit))
        sim.active.after_place = recording
        sim.run()
        assert len(placed) > 100
        for vm, klass, exit_at_placement in placed:
            remaining = model.remaining(vm, vm.create_time)
            if algo == "lava":
                assert klass == lifetime_class(remaining), vm.id
            else:
                assert exit_at_placement is None, vm.id
                if vm.initial_predicted_exit is not None:
                    assert vm.initial_predicted_exit == vm.create_time + remaining, vm.id
        if algo == "la-binary":  # 41 of the 313 on this trace
            assert sum(vm.initial_predicted_exit is not None for vm, _, _ in placed) > 20


class UnrecordedCache(PredictionCache):
    """A cache whose fills ask a plain oracle, so they leave no record."""

    def host_exit_time(self, host, pool, model, now):
        return super().host_exit_time(host, pool, OracleModel(), now)


def test_lava_predicts_each_arrival_once():
    """LAVA's class and its temporal cost come from one ``remaining`` call
    per placement decision, on a VM that carries its record's shape and
    features.  The cache's fills, which predict each resident at its
    creation under the oracle, are left out."""
    trace = generate(GeneratorConfig(num_vms=600, seed=3))
    model = Recording()
    sim = Simulator(trace, 8, ResourceVec(16000, 65536), "lava", model,
                    cfg=SimConfig(warmup=False))
    sim.active.cache = UnrecordedCache(sim.active.cache.grid_s)
    sim.run()
    assert [r.vm_id for r in trace if model.calls[r.vm_id, r.create_time_s] != 1] == []
    assert all(model.seen[r.vm_id][0] is r.features and model.seen[r.vm_id][1] is r.shape
               for r in trace)


class TestDeterminismAndInvariants:
    @pytest.mark.parametrize("algo", ["baseline", "la-binary", "nilas", "lava"])
    def test_repeat_run_identical(self, algo):
        trace = generate(GeneratorConfig(num_vms=800, seed=11))
        def run():
            return Simulator(trace, 10, ResourceVec(16000, 65536), algo,
                             OracleModel(), cfg=SimConfig(warmup=False)).run()
        a, b = run(), run()
        assert a.series == b.series
        assert a.summary == b.summary

    def test_invariants_hold_throughout(self):
        trace = generate(GeneratorConfig(num_vms=600, seed=3))
        sim = Simulator(trace, 8, ResourceVec(16000, 65536), "lava",
                        OracleModel(),
                        cfg=SimConfig(warmup=False, check_invariants=True))
        sim.run()  # raises on any conservation violation

    def test_invariants_catch_a_closed_host_with_nothing_to_move(self):
        """A closed host is a defrag candidate; with no migration queued or in
        flight, nothing would ever reopen it."""
        sim = Simulator([rec(0, 0, 100)], 2, CAP, "baseline", OracleModel(),
                        cfg=SimConfig(warmup=False))
        sim.pool.place(make_vm(0, CAP), 0)
        sim._check_invariants()
        sim._mig_queue.append(0)
        sim.pool.hosts[0].unavailable_for_scheduling = True
        sim._check_invariants()  # the VM still waits to move
        sim._mig_queue.clear()
        with pytest.raises(AssertionError, match=r"^host 0 is closed with no migration left$"):
            sim._check_invariants()

    def test_summary_matches_series_mean(self):
        trace = generate(GeneratorConfig(num_vms=400, seed=5))
        result = Simulator(trace, 8, ResourceVec(16000, 65536), "nilas",
                           OracleModel(), cfg=SimConfig(warmup=False)).run()
        mean_empty = sum(r[1] for r in result.series) / len(result.series)
        assert result.summary["avg_empty_hosts_pct"] == pytest.approx(mean_empty)


class TestStrandingWindow:
    def test_measured_on_the_pool_at_the_end_of_the_window(self):
        """VM 0 is resident at the last arrival (VM 1, which does not fit),
        and every VM has left once the heap drains.  At the end of the window
        one more 400 m VM fits and 200 m stay free; the drained pool, with
        this packer seed, takes a 1000 m VM first and strands nothing."""
        trace = [rec(0, 0, 1000, cpu=400, mem=2048), rec(1, 10, 1000)]
        cfg = SimConfig(warmup=False, measure_stranding=True, stranding_seed=0)
        sim = Simulator(trace, 1, CAP, "baseline", OracleModel(), cfg=cfg)
        summary = sim.run().summary
        assert sim.scheduling_failures == 1 and not sim.pool.vms
        drained = inflation_stranding(sim.pool, trace_shape_mix(trace), random.Random(0))
        assert drained == (0.0, 0.0)
        assert (summary["stranded_cpu_frac"], summary["stranded_mem_frac"]) == (
            pytest.approx(0.2), 0.0)


# -- the streamed loop against the loop that heaps every arrival --------------


class HeapEverything(Simulator):
    """The replay loop before arrivals and exits were streamed: every
    arrival, sample and defrag check is pushed onto the event heap before
    the loop starts, each placed VM's exit is pushed when it is placed, and
    one pop-and-dispatch loop runs arrivals and exits like any other heap
    event."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._handlers[EV_ARRIVAL] = self._handle_arrival
        self._handlers[EV_EXIT] = self._handle_exit

    def _handle_arrival(self, r, now):
        super()._handle_arrival(r, now)
        vm = self.pool.vms.get(r.vm_id)
        if vm is not None:
            self._push(vm.true_exit_time, EV_EXIT, vm.id)

    def run(self):
        trace = self.trace
        if not trace:
            return self._build_result([], 0.0, 0.0)
        t0 = trace[0].create_time_s
        t_end = trace[-1].create_time_s
        for r in trace:
            self._push(r.create_time_s, EV_ARRIVAL, r)
        t = t0
        while t <= t_end:
            self._push(t, EV_SAMPLE, None)
            t += self.cfg.sample_interval_s
        if self.cfg.defrag.enabled:
            t = t0 + self.cfg.defrag.check_interval_s
            while t <= t_end:
                self._push(t, EV_DEFRAG, None)
                t += self.cfg.defrag.check_interval_s
        while self._heap:
            t, kind, _, arg = heapq.heappop(self._heap)
            self.pool.now = t
            self._handlers[kind](arg, t)
            if self.cfg.check_invariants:
                self._check_invariants()
        return self._build_result(self._series, self._measure_start, t_end)


# every time is a multiple of 1800 s, and so are samples, defrag checks,
# migrations and (with deadline factor 1) LAVA deadlines: ties are common
GRID_S = 1800
LIFETIMES = (1, GRID_S, 2 * GRID_S, 3 * GRID_S, 20 * GRID_S, 200 * GRID_S)
TIE_SHAPES = ((1000, 4096), (2000, 8192), (4000, 16_384))
TIE_CAP = ResourceVec(4000, 16_384)


@st.composite
def tie_traces(draw):
    n = draw(st.integers(1, 14))
    times = sorted(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    trace = []
    for i, t in enumerate(times):
        cpu, mem = draw(st.sampled_from(TIE_SHAPES))
        trace.append(TraceRecord(i, t * GRID_S, draw(st.sampled_from(LIFETIMES)),
                                 *vm_terms(cpu, mem)))
    return trace


def tie_config(warmup=False, ordering="trace", max_concurrent=1, interval_s=GRID_S):
    """Samples and defrag checks every ``interval_s``; a defrag round runs
    whenever some host is not empty."""
    return SimConfig(warmup=warmup, warmup_s=GRID_S, sample_interval_s=interval_s,
                     check_invariants=True, record_placements=True,
                     record_defrag_instances=True,
                     defrag=DefragConfig(enabled=True, empty_host_trigger=1.0,
                                         check_interval_s=interval_s, candidates_per_round=1,
                                         ordering=ordering, max_concurrent=max_concurrent,
                                         migration_s=GRID_S))


def tie_run(cls, trace, algo, cfg, hosts=3):
    sim = cls(trace, hosts, TIE_CAP, algo, OracleModel(),
              lava_cfg=LavaConfig(deadline_factor=1.0), cfg=cfg)
    return sim, sim.run()


@settings(deadline=None, max_examples=300)
@given(trace=tie_traces(), algo=st.sampled_from(["baseline", "la-binary", "nilas", "lava"]),
       warmup=st.booleans(), ordering=st.sampled_from(["trace", "lars"]),
       max_concurrent=st.integers(1, 2))
def test_streamed_loop_matches_heap_everything(trace, algo, warmup, ordering, max_concurrent):
    cfg = tie_config(warmup, ordering, max_concurrent)
    _, got = tie_run(Simulator, trace, algo, cfg)
    _, want = tie_run(HeapEverything, trace, algo, cfg)
    assert got.series == want.series
    assert got.summary == want.summary
    assert got.placements == want.placements
    assert ([(d.time, d.candidate_hosts) for d in got.defrag_instances]
            == [(d.time, d.candidate_hosts) for d in want.defrag_instances])


class LogEvents:
    """Logs each handled event as (time, kind, argument)."""

    def __init__(self, *args, **kwargs):
        self.log = []
        super().__init__(*args, **kwargs)

    def _handle_exit(self, vm_id, now):
        self.log.append((now, "exit", vm_id))
        super()._handle_exit(vm_id, now)

    def _handle_deadline(self, host_id, now):
        self.log.append((now, "deadline", host_id))
        super()._handle_deadline(host_id, now)

    def _handle_defrag_check(self, arg, now):
        self.log.append((now, "defrag", None))
        super()._handle_defrag_check(arg, now)

    def _handle_arrival(self, r, now):
        self.log.append((now, "arrival", r.vm_id))
        super()._handle_arrival(r, now)

    def _handle_sample(self, arg, now):
        self.log.append((now, "sample", None))
        super()._handle_sample(arg, now)


class LoggedSimulator(LogEvents, Simulator):
    pass


class LoggedHeapEverything(LogEvents, HeapEverything):
    pass


def test_events_of_one_second_run_in_kind_order():
    """At 3600 s: VM 1 exits, the deadline LAVA armed for host 0 at 0 s
    (class LC1, factor 1) fires, the defrag check runs, VMs 2 and 3 arrive
    in trace order, and the sample is taken, in that order."""
    t = 2 * GRID_S
    trace = [rec(0, 0, 3000), rec(1, 600, 3000), rec(2, t, 3000), rec(3, t, 3000)]
    cfg = tie_config(interval_s=t)
    sim, got = tie_run(LoggedSimulator, trace, "lava", cfg, hosts=2)
    ref, want = tie_run(LoggedHeapEverything, trace, "lava", cfg, hosts=2)
    assert [e for e in sim.log if e[0] == t] == [
        (t, "exit", 1), (t, "deadline", 0), (t, "defrag", None),
        (t, "arrival", 2), (t, "arrival", 3), (t, "sample", None)]
    assert sim.log == ref.log
    assert (got.series, got.summary, got.placements) == (want.series, want.summary,
                                                         want.placements)


def test_exits_of_one_second_run_in_placement_order():
    """At 3600 s VMs 5 and 1 exit, placed in that order (trace order, not
    id order), before the deadline of host 0, the defrag check, the
    arrivals of VMs 2 and 3 and the sample of that second."""
    t = 2 * GRID_S
    trace = [rec(0, 0, 3000), rec(5, 600, 3000), rec(1, 1200, 2400),
             rec(2, t, 3000), rec(3, t, 3000)]
    cfg = tie_config(interval_s=t)
    sim, got = tie_run(LoggedSimulator, trace, "lava", cfg, hosts=2)
    ref, want = tie_run(LoggedHeapEverything, trace, "lava", cfg, hosts=2)
    assert [e for e in sim.log if e[0] == t] == [
        (t, "exit", 5), (t, "exit", 1), (t, "deadline", 0), (t, "defrag", None),
        (t, "arrival", 2), (t, "arrival", 3), (t, "sample", None)]
    assert sim.log == ref.log
    assert (got.series, got.summary, got.placements) == (want.series, want.summary,
                                                         want.placements)


def test_exit_of_an_unplaced_vm_changes_nothing():
    """VMs 1 and 3 find no room, so their exits are no events: VM 1's at
    150 s, before the next arrival, and VM 3's at 350 s, after the last
    arrival and the last exit.  The replay ends with ``pool.now`` at VM 2's
    exit, 300 s."""
    trace = [rec(0, 0, 100), rec(1, 50, 100), rec(2, 200, 100), rec(3, 250, 100)]
    cfg = SimConfig(warmup=False, check_invariants=True)
    sim = LoggedSimulator(trace, 1, CAP, "baseline", OracleModel(), cfg=cfg)
    ref = LoggedHeapEverything(trace, 1, CAP, "baseline", OracleModel(), cfg=cfg)
    got, want = sim.run(), ref.run()
    assert sim.scheduling_failures == 2
    assert [e for e in sim.log if e[1] == "exit"] == [(100, "exit", 0), (300, "exit", 2)]
    assert sim.log == ref.log
    assert sim.pool.now == ref.pool.now == 300
    assert (got.series, got.summary) == (want.series, want.summary)


class HeapOverPool(Simulator):
    """``_over_pool`` before exits were streamed: each resident's exit is a
    heap event."""

    @classmethod
    def _over_pool(cls, pool, algorithm, model, cfg, sched_state=None):
        sim = super()._over_pool(pool, algorithm, model, cfg, sched_state)
        sim._stream_exits(iter(()))
        sim._handlers[EV_EXIT] = sim._handle_exit
        for vm in pool.vms.values():
            if vm.true_exit_time > pool.now:
                sim._push(vm.true_exit_time, EV_EXIT, vm.id)
        return sim


def evacuate(cls, inst, host_id, ordering, algo, max_concurrent):
    """``defrag.simulate_evacuation`` on ``cls``; returns its outcome and the
    pool it leaves."""
    snap = clone_pool(inst.pool)
    host = snap.hosts[host_id]
    cfg = SimConfig(check_invariants=True,
                    defrag=DefragConfig(max_concurrent=max_concurrent, migration_s=GRID_S))
    sim = cls._over_pool(snap, algo, OracleModel(), cfg, copy.deepcopy(inst.sched_state))
    sim._evacuate(host, order_evacuation(snap, host, ordering, OracleModel(), snap.now))
    outcome = EvacuationOutcome(sim.migrations_done, sim.migrations_saved,
                                sim.migration_deferrals)
    hosts = [(h.id, h.used, sorted(h.vms)) for h in sim.pool.hosts.values()]
    return outcome, sim.pool.now, hosts


@settings(deadline=None, max_examples=150)
@given(trace=tie_traces(), algo=st.sampled_from(["baseline", "la-binary", "nilas", "lava"]),
       max_concurrent=st.integers(1, 2))
def test_streamed_evacuation_matches_heaped_exits(trace, algo, max_concurrent):
    """Evacuation replays of grid-time pools, where residents exit together
    and at migration ends: streaming the residents' exits runs the same
    events as heaping them, under both orderings."""
    _, result = tie_run(Simulator, trace, algo, tie_config(max_concurrent=max_concurrent))
    for inst in result.defrag_instances:
        for hid in inst.candidate_hosts:
            for ordering in ("trace", "lars"):
                got = evacuate(Simulator, inst, hid, ordering, algo, max_concurrent)
                want = evacuate(HeapOverPool, inst, hid, ordering, algo, max_concurrent)
                assert got == want
                assert simulate_evacuation(inst.pool, hid, ordering, OracleModel(), algo,
                                           max_concurrent, GRID_S,
                                           inst.sched_state) == got[0]


def score_every_candidate(self, vm, pool, now):
    """``Scheduler.select_host`` without floors or lazy tiers: the argmin of
    ``score`` over every host ``pool.fits`` accepts.  ``score`` builds a new
    key per host, so it scores each host in full."""
    best = best_score = None
    for host in pool.hosts.values():
        if pool.fits(vm.shape, host):
            score = self.score(host, vm, pool, now)
            if best_score is None or score < best_score:
                best, best_score = host.id, score
    return best


PRUNE_CAP = ResourceVec(8000, 32_768)
PRUNE_SHAPES = ((500, 2048), (1000, 4096), (1500, 2048), (2000, 8192), (4000, 16_384))
PRUNE_LIVES = (600.0, 3000.0, 7200.0, 40_000.0, 400_000.0)


def prune_empirical():
    """An empirical model fitted on VMs like those of ``prune_traces``."""
    rng = random.Random(7)
    return EmpiricalLifetimeModel(min_count=5).fit(
        (vm_terms(*rng.choice(PRUNE_SHAPES))[1], rng.choice(PRUNE_LIVES) * rng.uniform(0.5, 2.0))
        for _ in range(300))


# each replay builds its predictor afresh
PRUNE_PREDICTORS = {
    "oracle": lambda: make_predictor("oracle", seed=3),
    "noisy:0.5": lambda: make_predictor("noisy:0.5", seed=3),
    "empirical": prune_empirical,
    "oneshot:empirical": lambda: OneShotModel(prune_empirical()),
}


@st.composite
def prune_traces(draw):
    n = draw(st.integers(1, 50))
    times = sorted(draw(st.lists(st.floats(0.0, 20_000.0), min_size=n, max_size=n)))
    trace = []
    for i, t in enumerate(times):
        cpu, mem = draw(st.sampled_from(PRUNE_SHAPES))
        life = draw(st.sampled_from(PRUNE_LIVES))
        trace.append(TraceRecord(i, t, life * draw(st.floats(0.5, 2.0)), *vm_terms(cpu, mem)))
    return trace


def cell_trace():
    """NILAS under ``prune_empirical``, one skipped lookup and a later fill in
    the 60 s cell [360, 420).  Host 0 is packed at t = 0, host 1 holds a
    (1500, 2048) VM from t = 30 and host 2 a (4000, 16384) one.  At t = 370
    the walk stops at host 0 and skips host 1, whose VM's predicted exit
    jumps at uptime 346 s.  At t = 390 host 0 is full and the next VM goes
    to host 1 or host 2 by host 1's temporal cost, bucket 9 under the
    exit predicted at uptime 330 s (the cell's start) and bucket 8 under the
    one at 360 s: a cache that filled at the time of each lookup would place
    it on host 1 here and on host 2 when every candidate is scored."""
    rows = [(0.0, 500, 2048), (0.0, 4000, 16_384), (0.0, 2000, 8192), (0.0, 1000, 4096),
            (30.0, 1500, 2048), (30.0, 2000, 8192), (30.0, 2000, 8192), (30.0, 4000, 16_384),
            (370.0, 500, 2048), (390.0, 500, 2048)]
    return [TraceRecord(i, t, 40_000.0, *vm_terms(cpu, mem))
            for i, (t, cpu, mem) in enumerate(rows)]


@settings(deadline=None, max_examples=150)
@given(trace=prune_traces(), algo=st.sampled_from(["baseline", "la-binary", "nilas", "lava"]),
       predictor=st.sampled_from(sorted(PRUNE_PREDICTORS)), hosts=st.integers(2, 6),
       ordering=st.sampled_from(["trace", "lars"]))
@example(trace=cell_trace(), algo="nilas", predictor="empirical", hosts=3, ordering="trace")
def test_pruned_scan_matches_scoring_every_candidate(trace, algo, predictor, hosts, ordering):
    """Under every predictor NILAS and LAVA stop at their key floors and
    LAVA skips the temporal cost of hosts below its best tier; with defrag
    on, a whole run and its evacuation replays must match a run that scores
    every candidate."""
    cfg = SimConfig(warmup=False, sample_interval_s=1800.0, check_invariants=True,
                    record_placements=True, record_defrag_instances=True,
                    defrag=DefragConfig(enabled=True, empty_host_trigger=1.0,
                                        check_interval_s=1800.0, candidates_per_round=1,
                                        ordering=ordering, migration_s=600.0))

    def run():
        sim = Simulator(trace, hosts, PRUNE_CAP, algo, PRUNE_PREDICTORS[predictor](), cfg=cfg)
        result = sim.run()
        return result, compare_orderings(result.defrag_instances, algorithm=algo)

    got, got_report = run()
    with mock.patch.object(Scheduler, "select_host", score_every_candidate):
        want, want_report = run()
    assert got.series == want.series
    assert got.summary == want.summary
    assert got.placements == want.placements
    assert got_report == want_report


def bimodal_recipe(seed):
    """``bimodal_config`` with one 4-core shape: 8k VMs at 16 per hour."""
    return dataclasses.replace(bimodal_config(8000, seed), arrival_rate_per_h=16.0,
                               shape_catalog=((4000, 16384, 1.0),))


@pytest.mark.parametrize("algo, empty_pct, lookups", [
    ("nilas", 39.331356560415124, 14_974),
    ("lava", 38.0763528539659, 25_086),
])
def test_empirical_replay_pinned(algo, empty_pct, lookups):
    """NILAS and LAVA under a fitted empirical model, a path no benchmark
    digest covers: on 50 hosts of 40 cores and 160 GiB, the bimodal recipe
    of seed 11 with a model fitted on seed 11 + 10**6 of the same size.
    Pins the empty-host percentage and the host-exit lookups, so a change
    to the cache or the walk that moves either shows here."""
    trace = generate(bimodal_recipe(11))
    model = EmpiricalLifetimeModel().fit(training_examples(generate(bimodal_recipe(1_000_011))))
    calls = Counter()
    host_exit_time = PredictionCache.host_exit_time

    def counted(self, *args):
        calls["host_exit_time"] += 1
        return host_exit_time(self, *args)

    with mock.patch.object(PredictionCache, "host_exit_time", counted):
        summary = Simulator(trace, 50, ResourceVec(40_000, 163_840), algo, model,
                            cfg=SimConfig()).run().summary
    assert summary["avg_empty_hosts_pct"] == pytest.approx(empty_pct, abs=1e-9)
    assert calls["host_exit_time"] == lookups
