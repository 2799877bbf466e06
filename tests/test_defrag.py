"""Evacuation ordering: LARS vs trace order."""

import copy

import pytest

from lavasim.core import LifetimeClass, PoolState, ResourceVec, VmRecord
from lavasim.defrag import (
    EvacuationOutcome,
    MismatchedRuns,
    compare_orderings,
    count_saved_migrations,
    simulate_evacuation,
)
from lavasim.predict import CLASS_UPPER_BOUND_S, OracleModel, make_predictor
from lavasim.sched import LavaHost, LavaScheduler
from lavasim.sim import (
    DefragConfig,
    SimConfig,
    Simulator,
    clone_pool,
    lars_order,
    order_evacuation,
)
from lavasim.workload import GeneratorConfig, generate

CAP = ResourceVec(4000, 16384)
SHAPE = ResourceVec(1000, 4096)


def make_vm(vm_id, create, exit_time, shape=SHAPE):
    return VmRecord(id=vm_id, shape=shape, features=None,
                    create_time=create, true_exit_time=exit_time)


def hand_pool():
    """Host 0 holds one long VM and two short VMs; host 1 is empty."""
    pool = PoolState()
    pool.add_host(CAP)
    pool.add_host(CAP)
    pool.place(make_vm(0, 0.0, 600.0), 0)    # short, created first
    pool.place(make_vm(1, 10.0, 600.0), 0)   # short
    pool.place(make_vm(2, 20.0, 10_000.0), 0)  # long, created last
    return pool


class TestOrdering:
    def test_lars_longest_remaining_first(self):
        pool = hand_pool()
        order = lars_order(pool, pool.hosts[0], OracleModel(), now=0.0)
        assert order == [2, 0, 1]

    def test_trace_order_by_create_time(self):
        pool = hand_pool()
        order = order_evacuation(pool, pool.hosts[0], "trace", OracleModel(), 0.0)
        assert order == [0, 1, 2]

    def test_lars_ties_broken_by_id(self):
        pool = hand_pool()
        order = order_evacuation(pool, pool.hosts[0], "lars", OracleModel(), 0.0)
        assert order == [2, 0, 1]


class TestSimulateEvacuation:
    def test_lars_lets_short_vms_exit(self):
        """With one migration slot, moving the long VM first (20 min) gives
        both 10-minute VMs time to exit on their own."""
        out = simulate_evacuation(hand_pool(), 0, "lars", OracleModel(),
                                  max_concurrent=1)
        assert out.migrations == 1
        assert out.saved == 2

    def test_trace_order_migrates_short_vm(self):
        out = simulate_evacuation(hand_pool(), 0, "trace", OracleModel(),
                                  max_concurrent=1)
        assert out.migrations == 2
        assert out.saved == 1

    @pytest.mark.parametrize("exit_s", [600.0, 1200.0])
    def test_exit_during_own_migration(self, exit_s):
        """A VM whose exit falls inside its own migration, or exactly at its
        end, is migrated first and exits when the migration ends; it counts
        as migrated, not saved."""
        pool = PoolState()
        pool.add_host(CAP)
        pool.add_host(CAP)
        pool.place(make_vm(0, 0.0, exit_s), 0)
        assert simulate_evacuation(pool, 0, "trace", OracleModel()) == EvacuationOutcome(
            migrations=1, saved=0, deferrals=0)
        cfg = SimConfig(check_invariants=True, defrag=DefragConfig(migration_s=1200.0))
        sim = Simulator._over_pool(clone_pool(pool), "baseline", OracleModel(), cfg)
        sim._evacuate(sim.pool.hosts[0], [0])
        assert sim.pool.now == 1200.0
        assert not sim.pool.vms
        assert all(h.is_empty() and not h.unavailable_for_scheduling
                   for h in sim.pool.hosts.values())

    def test_adopted_deadline_fires(self):
        """A deadline of the adopted LAVA table that falls inside the
        evacuation promotes its host, as in the live run; one at ``pool.now``
        fired before the snapshot and does not fire again."""
        pool = PoolState()
        for _ in range(3):
            pool.add_host(CAP)
        for hid in range(3):
            pool.place(make_vm(hid, 0.0, 50_000.0), hid)
        state = {1: LavaHost(LifetimeClass.LC1, 600.0), 2: LavaHost(LifetimeClass.LC1, 0.0)}
        cfg = SimConfig(check_invariants=True, defrag=DefragConfig(migration_s=1200.0))
        sim = Simulator._over_pool(clone_pool(pool), "lava", OracleModel(), cfg, state)
        sim._evacuate(sim.pool.hosts[0], [0])
        assert sim.pool.now == 1200.0 and sim.migrations_done == 1
        assert state[1] == LavaHost(LifetimeClass.LC2,
                                    600.0 + 1.1 * CLASS_UPPER_BOUND_S[LifetimeClass.LC2], False,
                                    {1})
        assert state[2].host_class == LifetimeClass.LC1 and state[2].deadline == 0.0

    def test_original_pool_untouched(self):
        pool = hand_pool()
        simulate_evacuation(pool, 0, "lars", OracleModel(), max_concurrent=1)
        assert set(pool.hosts[0].vms) == {0, 1, 2}
        assert not pool.hosts[0].unavailable_for_scheduling


class TestCountSaved:
    def test_reduction(self):
        assert count_saved_migrations(100, 96) == pytest.approx(0.04)

    def test_zero_baseline(self):
        assert count_saved_migrations(0, 0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(MismatchedRuns):
            count_saved_migrations(-1, 0)


@pytest.fixture(scope="module")
def instances():
    trace = generate(GeneratorConfig(num_vms=3000, seed=9,
                                     arrival_rate_per_h=400.0))
    cfg = SimConfig(warmup=False, record_defrag_instances=True,
                    defrag=DefragConfig(enabled=True, empty_host_trigger=0.5,
                                        check_interval_s=1800.0))
    sim = Simulator(trace, 10, ResourceVec(16000, 65536), "baseline",
                    OracleModel(), cfg=cfg)
    sim.run()
    return sim.defrag_instances


class TestRecordedInstances:
    def test_instances_recorded(self, instances):
        assert instances

    def test_lars_never_worse_per_host(self, instances):
        report = compare_orderings(instances)
        for row in report["per_host"]:
            assert row["lars"] <= row["trace"]

    def test_reduction_nonnegative(self, instances):
        report = compare_orderings(instances)
        assert report["reduction"] >= 0.0
        assert report["baseline_migrations"] > 0

    def test_replay_under_another_algorithm(self, instances):
        """Instances recorded under Best Fit replay under LA-Binary, whose
        one-shot predictions the recorded VMs do not carry."""
        report = compare_orderings(instances, algorithm="la-binary")
        assert len(report["per_host"]) == len(compare_orderings(instances)["per_host"])
        assert report["baseline_migrations"] > 0


def lava_objects(table):
    """Ids of the ``LavaHost`` entries of a LAVA table and of their residual sets."""
    return {id(obj) for lava in table.values() for obj in (lava, lava.residual_vms)}


@pytest.fixture(scope="module", params=["oracle", "noisy:0.5"])
def lava_run(request):
    """A LAVA replay with defrag rounds, its recorded instances, and their
    replays under LAVA.  Each instance is checked against the live table when
    it is recorded, and each replay's table when the replay adopts it."""
    trace = generate(GeneratorConfig(num_vms=3000, seed=0, arrival_rate_per_h=400.0))
    cfg = SimConfig(warmup=False, record_defrag_instances=True, check_invariants=True,
                    defrag=DefragConfig(enabled=True, empty_host_trigger=0.5,
                                        check_interval_s=1800.0))
    recorded, adopted = [], []
    record, adopt = Simulator._handle_defrag_check, LavaScheduler.on_adopt

    def record_and_check(self, arg, now):
        count = len(self.defrag_instances)
        record(self, arg, now)
        if len(self.defrag_instances) > count:
            state = self.defrag_instances[-1].sched_state
            recorded.append((state == self.active.state,
                             lava_objects(state) & lava_objects(self.active.state)))

    def adopt_and_keep(self, pool, now, state):
        before = copy.deepcopy(state)
        adopt(self, pool, now, state)
        adopted.append((before, self.state is state, lava_objects(state)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulator, "_handle_defrag_check", record_and_check)
        sim = Simulator(trace, 10, ResourceVec(16000, 65536), "lava",
                        make_predictor(request.param, 0), cfg=cfg)
        sim.run()
        mp.setattr(LavaScheduler, "on_adopt", adopt_and_keep)
        report = compare_orderings(sim.defrag_instances, algorithm="lava")
    return request.param, sim, report, recorded, adopted


class TestLavaWithDefrag:
    PINNED = {"oracle": (24, 6, 4, 27, 25), "noisy:0.5": (17, 4, 3, 20, 20)}

    def test_pinned_counts(self, lava_run):
        spec, sim, report, _, _ = lava_run
        assert (sim.migrations_done, sim.migrations_saved, len(sim.defrag_instances),
                report["baseline_migrations"], report["lars_migrations"]) == self.PINNED[spec]

    def test_instances_copy_the_live_table(self, lava_run):
        _, sim, _, recorded, _ = lava_run
        assert len(recorded) == len(sim.defrag_instances)
        assert any(inst.sched_state for inst in sim.defrag_instances)
        for equal, shared in recorded:
            assert equal and not shared

    def test_replays_adopt_a_copy(self, lava_run):
        """Each replay starts from its instance's table, shares none of its
        objects, and leaves it as it was."""
        _, sim, _, _, adopted = lava_run
        expected = [inst for inst in sim.defrag_instances
                    for _ in inst.candidate_hosts for _ in ("trace", "lars")]
        assert len(adopted) == len(expected)
        for inst, (state, taken, objects) in zip(expected, adopted):
            assert state == inst.sched_state and taken
            assert not objects & lava_objects(inst.sched_state)
