"""Differential tests: the placement scan and the stranding packer against
naive references that score every feasible host with the score formulas
written out per dimension, as they read before the integer scan, and the
free-capacity index against the naive feasibility filter."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from lavasim.core import LifetimeClass, PoolState, ResourceVec, VmRecord
from lavasim.predict import (
    FeatureVec,
    OracleModel,
    PredictionCache,
    lifetime_class,
    make_predictor,
)
from lavasim.sched import (
    BestFitScheduler,
    LaBinaryScheduler,
    LavaHost,
    LavaScheduler,
    NilasScheduler,
    best_fit_score,
    best_host,
    quantize_temporal_cost,
)
from lavasim.sim import clone_pool, inflation_stranding, metrics_snapshot

CAPACITIES = ((8000, 16_384), (16_000, 32_768), (8000, 32_768))
SHAPES = ((500, 1024), (1000, 2048), (2000, 4096), (4000, 8192), (1000, 8192))


# -- reference ------------------------------------------------------------


def ref_has_room(host, shape, cap):
    used = host.used
    return used.cpu_m + shape.cpu_m <= cap.cpu_m and used.mem_mib + shape.mem_mib <= cap.mem_mib


def ref_best_fit(pool, host, shape):
    cap, used = pool.capacity, host.used
    free_cpu_m = cap.cpu_m - used.cpu_m - shape.cpu_m
    free_mem_mib = cap.mem_mib - used.mem_mib - shape.mem_mib
    return max(free_cpu_m / cap.cpu_m, free_mem_mib / cap.mem_mib)


def ref_temporal(sched, host, vm, pool, now):
    host_exit = sched.cache.host_exit_time(host, pool, sched.model, now)
    vm_exit = now + sched.model.remaining(vm, now)
    return quantize_temporal_cost(max(vm_exit - host_exit, 0.0), sched.cfg)


def ref_score(sched, host, vm, pool, now):
    if isinstance(sched, BestFitScheduler):
        return (0 if host.vms else 1, ref_best_fit(pool, host, vm.shape), host.id)
    if isinstance(sched, LaBinaryScheduler):
        if not host.vms:
            tier = 2
        else:
            inner = sched.model.model  # the model OneShotModel asks at creation

            def one_shot_exit(v):
                return v.create_time + inner.remaining(v, v.create_time)
            vm_long = one_shot_exit(vm) - now >= 7200.0
            latest = max(one_shot_exit(pool.vms[vid]) for vid in host.vms)
            host_long = latest - now >= 7200.0
            tier = 0 if host_long == vm_long else 1
        return (tier, ref_best_fit(pool, host, vm.shape), host.id)
    if isinstance(sched, LavaScheduler):
        lava = sched.state.get(host.id)
        vm_class = lifetime_class(sched.model.remaining(vm, now))
        if not host.vms:
            tier, distance = 3, 0
        elif lava is not None and lava.recycling and lava.host_class > vm_class:
            tier, distance = 0, lava.host_class - vm_class
        elif (lava is not None and not lava.recycling
              and lava.host_class == vm_class):
            tier, distance = 1, 0
        else:
            tier, distance = 2, 0
        temporal = 0 if not host.vms else ref_temporal(sched, host, vm, pool, now)
        return (tier, distance, temporal, ref_best_fit(pool, host, vm.shape), host.id)
    empty = 0 if host.vms else 1
    temporal = 0 if empty else ref_temporal(sched, host, vm, pool, now)
    return (empty, temporal, ref_best_fit(pool, host, vm.shape), host.id)


def ref_select(sched, vm, pool, now):
    """Argmin of the score over every host ``pool.fits``."""
    best = best_score = None
    for host in pool.hosts.values():
        if not pool.fits(vm.shape, host):
            continue
        score = ref_score(sched, host, vm, pool, now)
        if best_score is None or score < best_score:
            best, best_score = host.id, score
    return best


def ref_stranding(pool, vm_mix, rng, consecutive_failures=200):
    snap = clone_pool(pool)
    cap = snap.capacity
    shapes = [s for s, _ in vm_mix]
    weights = [w for _, w in vm_mix]
    smallest = min(shapes, key=lambda s: (s.cpu_m, s.mem_mib))

    def place_best_fit(shape):
        best, best_score = None, None
        for host in snap.hosts.values():
            if ref_has_room(host, shape, cap):
                score = (1 if host.is_empty() else 0, ref_best_fit(snap, host, shape), host.id)
                if best_score is None or score < best_score:
                    best, best_score = host, score
        if best is None:
            return False
        snap.reserve(best.id, shape)
        return True

    while True:
        fails = 0
        while fails < consecutive_failures:
            if place_best_fit(rng.choices(shapes, weights)[0]):
                fails = 0
            else:
                fails += 1
        if not any(ref_has_room(h, smallest, cap) for h in snap.hosts.values()):
            break
    total_cpu, total_mem = len(snap.hosts) * cap.cpu_m, len(snap.hosts) * cap.mem_mib
    free_cpu = sum(cap.cpu_m - h.used.cpu_m for h in snap.hosts.values())
    free_mem = sum(cap.mem_mib - h.used.mem_mib for h in snap.hosts.values())
    return free_cpu / total_cpu, free_mem / total_mem


# -- random pools -----------------------------------------------------------


SCHEDULERS = {
    "baseline": lambda m: BestFitScheduler(),
    "la-binary": lambda m: LaBinaryScheduler(m),
    "nilas": lambda m: NilasScheduler(m),
    "lava": lambda m: LavaScheduler(m),
}


def make_vm(vm_id, shape, exit_):
    return VmRecord(id=vm_id, shape=ResourceVec(*shape), features=FeatureVec(),
                    create_time=0.0, true_exit_time=exit_)


def random_pool(seed, sched, now):
    """One of the capacities, VMs placed through the scheduler's hooks,
    random LAVA entries and hosts with VMs but no entry, incoming
    reservations on hosts with and without VMs, closed hosts, and hosts with
    a reserved shape and no VMs, some of them holding memory only."""
    rng = random.Random(seed)
    pool = PoolState(ResourceVec(*rng.choice(CAPACITIES)))
    for _ in range(rng.randint(1, 14)):
        pool.add_host()
    hosts = list(pool.hosts.values())
    occupancy = rng.choice((0.0, 0.4, 0.8))
    vm_id = 0
    for host in hosts:
        for _ in range(rng.choice((1, 2, 4)) if rng.random() < occupancy else 0):
            vm = make_vm(vm_id, rng.choice(SHAPES), rng.uniform(1.0, 400_000.0))
            vm_id += 1
            if pool.fits(vm.shape, host):
                pool.place(vm, host.id)
                sched.after_place(pool, vm, host, 0.0)
        if host.vms and sched.state is not None and rng.random() < 0.4:
            if rng.random() < 0.25:
                del sched.state[host.id]  # as if its VMs were placed by another scheduler
            else:
                sched.state[host.id] = LavaHost(LifetimeClass(rng.randint(1, 4)), 0.0,
                                                recycling=rng.random() < 0.5)
    for vm in list(pool.vms.values()):
        if rng.random() < 0.2:
            target = rng.choice(hosts)
            if target.id != vm.host and pool.fits(vm.shape, target):
                pool.reserve_incoming(vm, target.id)
    for host in hosts:
        if host.is_empty() and rng.random() < 0.3:
            cpu_m, mem_mib = rng.choice(SHAPES)
            pool.reserve(host.id, ResourceVec(0 if rng.random() < 0.5 else cpu_m, mem_mib))
        if rng.random() < 0.15:
            host.unavailable_for_scheduling = True
    probe = make_vm(10_000, rng.choice(SHAPES), now + rng.uniform(1.0, 400_000.0))
    return pool, probe


def clear_cache(sched, pool):
    """Drop the host exits the reference cached, so the scan computes its own."""
    cache = getattr(sched, "cache", None)
    if cache is not None:
        for hid in pool.hosts:
            cache.invalidate(hid)


@settings(deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), algo=st.sampled_from(sorted(SCHEDULERS)),
       now=st.sampled_from((0.0, 600.0, 30_000.0)),
       spec=st.sampled_from(("oracle", "noisy:0.5")))
def test_select_host_matches_reference(seed, algo, now, spec):
    sched = SCHEDULERS[algo](make_predictor(spec, seed=seed))
    pool, probe = random_pool(seed, sched, now)
    expected = ref_select(sched, probe, pool, now)
    clear_cache(sched, pool)
    for host in pool.hosts.values():
        if pool.fits(probe.shape, host):
            assert sched.score(host, probe, pool, now) == ref_score(sched, host, probe, pool, now)
    clear_cache(sched, pool)
    assert sched.select_host(probe, pool, now) == expected


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_stranding_matches_reference(seed):
    pool, _ = random_pool(seed, BestFitScheduler(), 0.0)
    mix = [(ResourceVec(*s), w) for s, w in zip(SHAPES, (5.0, 3.0, 2.0, 1.0, 1.0))]
    expected = ref_stranding(pool, mix, random.Random(seed), consecutive_failures=20)
    assert inflation_stranding(pool, mix, random.Random(seed), consecutive_failures=20) == expected


# -- the bounded scan ---------------------------------------------------------

SMALL = ResourceVec(8000, 16_384)


def crafted_pool(capacity, used, vm_exit=400_000.0):
    """Hosts of ``capacity``, one per entry of ``used``: host ``i`` has one VM
    of shape ``used[i]``, or none where ``used[i]`` is None."""
    pool = PoolState(capacity)
    for hid, shape in enumerate(used):
        pool.add_host()
        if shape is not None:
            pool.place(make_vm(100 + hid, shape, vm_exit), hid)
    return pool


class Counting(BestFitScheduler):
    """Best Fit that records the hosts it scores."""

    def __init__(self):
        self.scored = []

    def host_key(self, vm, pool, now):
        key = super().host_key(vm, pool, now)

        def counted(host):
            self.scored.append(host.id)
            return key(host)
        return counted


def select_both(algo, pool, probe, expected):
    sched = SCHEDULERS[algo](OracleModel())
    sched.on_adopt(pool, 0.0, None)
    assert ref_select(sched, probe, pool, 0.0) == expected
    assert sched.select_host(probe, pool, 0.0) == expected


@pytest.mark.parametrize("algo", ["baseline", "la-binary"])
def test_bound_equal_to_best_fit_does_not_stop(algo):
    """Host 1 fits tightly on CPU and scores 0.5 by its memory term; host 0
    sits in the bucket whose CPU term is exactly 0.5 and scores 0.5 too.  The
    scan must visit that bucket: host 0 wins the tie on its lower id."""
    pool = crafted_pool(SMALL, ((3000, 7168), (6000, 7168)))
    probe = make_vm(1, (1000, 1024), 1000.0)
    hosts = pool.hosts
    assert (best_fit_score(hosts[0], probe.shape, SMALL)
            == best_fit_score(hosts[1], probe.shape, SMALL) == 0.5)
    assert (SMALL.cpu_m - hosts[0].used.cpu_m - 1000) / SMALL.cpu_m == 0.5
    select_both(algo, pool, probe, 0)


def ladder():
    """Six hosts whose free CPU climbs from 2000 to 7000 milli-cores, with
    long-lived VMs that leave 1024 MiB free, and two empty hosts.  The tightest
    host scores 0.125, and every later bucket is bounded above it."""
    used = [(6000 - 1000 * i, 14_336) for i in range(6)] + [None, None]
    return crafted_pool(SMALL, used)


def test_cutoff_skips_buckets():
    pool = ladder()
    probe = make_vm(1, (1000, 1024), 1000.0)
    sched = Counting()
    assert sched.select_host(probe, pool, 0.0) == 0 == ref_select(sched, probe, pool, 0.0)
    assert sched.scored == [0]  # the tightest host; no host without VMs can win after a stop
    assert sum(pool.fits(probe.shape, h) for h in pool.hosts.values()) == 8


class CountingCache(PredictionCache):
    def __init__(self):
        super().__init__()
        self.asked = Counter()

    def host_exit_time(self, host, pool, model, now):
        self.asked[host.id] += 1
        return super().host_exit_time(host, pool, model, now)


class TimedOracle(OracleModel):
    """The oracle without its ``time_invariant`` promise, so the cache fills
    it on the 60 s grid, as it does the empirical model."""

    time_invariant = False


def ladder_asks(algo, model, classes=None, probe_exit=1000.0):
    """Place a probe, short-lived by default, on the ladder; return the
    chosen host and the ``PredictionCache`` calls per host.  ``classes``
    gives LAVA each host with VMs as (class offset from the probe's,
    recycling); by default each is recycling one class above the probe."""
    pool = ladder()
    sched = SCHEDULERS[algo](model)
    sched.cache = cache = CountingCache()
    probe = make_vm(1, (1000, 1024), probe_exit)
    if algo == "lava":
        probe_class = lifetime_class(model.remaining(probe, 0.0))
        for host in pool.hosts.values():
            if host.vms:
                offset, recycling = (classes or {}).get(host.id, (1, True))
                sched.state[host.id] = LavaHost(LifetimeClass(probe_class + offset),
                                                0.0, recycling=recycling)
    chosen = sched.select_host(probe, pool, 0.0)
    asked = dict(cache.asked)
    assert chosen == ref_select(sched, probe, pool, 0.0)
    return chosen, asked


@pytest.mark.parametrize("algo", ["nilas", "lava"])
def test_cached_scorers_stop_under_timed_model(algo):
    """Under a model that is not ``time_invariant`` a cached host exit is a
    function of the host's residents and the grid cell, not of when a walk
    filled it, so NILAS and LAVA stop like Best Fit (on this pool Best Fit
    scores one host) and pick what scoring every candidate picks.  On the
    ladder every host with VMs would lose only on best fit: the probe is a
    short-lived VM, so the temporal cost is 0, and for LAVA each host is
    recycling one class above it."""
    chosen, asked = ladder_asks(algo, TimedOracle())
    assert chosen == 0
    assert asked == {0: 1}


@pytest.mark.parametrize("algo", ["nilas", "lava"])
def test_cached_scorers_stop_under_time_invariant_model(algo):
    """Under the oracle NILAS and LAVA stop like Best Fit: host 0 scores the
    least prefix their keys can have, and no later bucket can beat its
    fit."""
    chosen, asked = ladder_asks(algo, OracleModel())
    assert chosen == 0
    assert asked == {0: 1}


def test_lava_skips_the_cache_below_its_best_tier():
    """Hosts 0 and 2-5 are open hosts of another class (tier 2) and host 1
    an open host of the probe's class (tier 1).  No host reaches LAVA's
    floor, so the walk visits all six, but after host 1 the key answers the
    tier-2 hosts without their temporal cost, under every model."""
    classes = {hid: (1, False) for hid in range(6)}
    classes[1] = (0, False)
    for model in (OracleModel(), TimedOracle()):
        assert ladder_asks("lava", model, classes) == (1, {0: 1, 1: 1})


@pytest.mark.parametrize("model", [OracleModel(), TimedOracle()], ids=["oracle", "timed"])
def test_la_binary_stops_under_every_model(model):
    """LA-Binary's model is ``OneShotModel``, time-invariant whatever it
    wraps.  Every ladder host with VMs is Long.  A long-lived probe finds
    its class on host 0, the tightest, so the walk stops there and asks the
    cache about that host alone; a short-lived one matches no host, so the
    walk scores, and asks about, all six."""
    assert ladder_asks("la-binary", model, probe_exit=400_000.0) == (0, {0: 1})
    assert ladder_asks("la-binary", model) == (0, {hid: 1 for hid in range(6)})


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), algo=st.sampled_from(sorted(SCHEDULERS)),
       now=st.sampled_from((0.0, 600.0, 30_000.0)),
       model=st.sampled_from((OracleModel, TimedOracle)))
def test_key_floor_ranks_below_hosts_without_vms(seed, algo, now, model):
    """Under every model every scheduler has a ``key_floor``: no key starts
    below it, and every host without VMs (also one holding incoming
    reservations or a reserved shape) starts strictly above it, so a walk
    that stops need not score those hosts."""
    sched = SCHEDULERS[algo](model())
    floor = sched.key_floor
    assert floor is not None
    pool, probe = random_pool(seed, sched, now)
    for host in pool.hosts.values():
        prefix = sched.score(host, probe, pool, now)[:len(floor)]
        assert prefix > floor if not host.vms else prefix >= floor


# -- the free-capacity index ---------------------------------------------------


def naive_candidates(pool, shape):
    """Ids of ``[h for h in hosts if pool.fits(shape, h)]``, with only the
    lowest-id host among those with no VMs and zero ``used``."""
    ids, empty_seen = [], False
    for host in pool.hosts.values():
        if not pool.fits(shape, host):
            continue
        if not host.vms and host.used == ResourceVec(0, 0):
            if empty_seen:
                continue
            empty_seen = True
        ids.append(host.id)
    return ids


def naive_metrics(pool):
    """The number of hosts ``is_empty()`` accepts and ``metrics_snapshot``,
    from one loop that tests each host."""
    n, cap, cap_mem = len(pool.hosts), pool.capacity.cpu_m, pool.capacity.mem_mib
    empty_cpu = free_cpu = nonempty_used = nonempty_cap = n_empty = used_cpu = used_mem = 0
    for host in pool.hosts.values():
        free_cpu += cap - host.used_cpu_m
        used_cpu += host.used_cpu_m
        used_mem += host.used_mem_mib
        if host.is_empty():
            n_empty += 1
            empty_cpu += cap
        else:
            nonempty_used += host.used_cpu_m
            nonempty_cap += cap
    return n_empty, (100.0 * n_empty / n if n else 0.0,
                     empty_cpu / free_cpu if free_cpu > 0 else 0.0,
                     nonempty_used / nonempty_cap if nonempty_cap > 0 else 1.0,
                     len(pool.vms),
                     used_cpu / (n * cap) if n else 0.0,
                     used_mem / (n * cap_mem) if n else 0.0)


def scanned_ids(pool, shape):
    """Ids of the hosts the placement walk scores for ``shape`` when it
    scores every candidate, in walk order."""
    seen = []
    best_host(pool.index, shape, lambda h: seen.append(h.id) or (h.id,), None)
    return seen


def check_candidates(pool):
    """The walk scores, once each, exactly the hosts of the naive filter."""
    pool.index.check()
    out = []
    for shape in (ResourceVec(*s) for s in SHAPES):
        got = scanned_ids(pool, shape)
        assert len(got) == len(set(got)), shape
        got.sort()
        assert got == naive_candidates(pool, shape), shape
        out.append(got)
    return out


def snapshot(pool):
    hosts = [(h.id, h.used, set(h.vms), h.unavailable_for_scheduling)
             for h in pool.hosts.values()]
    return hosts, set(pool.vms), dict(pool.incoming), check_candidates(pool)


OPS = ("place", "remove", "reserve", "commit", "write", "write-mem", "toggle", "clone")


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1),
       ops=st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 2**16)), max_size=60))
def test_index_matches_naive_filter(seed, ops):
    """Random operation sequences on a pool of one of the capacities:
    placements, removals, migration reservations and commits, reserved
    shapes without a VM (some of memory only), availability toggles, and
    clones that later steps change while the pool they came from must stay
    as it was.  The empty count and ``metrics_snapshot``, which read the
    index, match a loop over the hosts."""
    rng = random.Random(seed)
    pool = PoolState(ResourceVec(*rng.choice(CAPACITIES)))
    for _ in range(rng.randint(1, 10)):
        pool.add_host()
    originals = []  # (pool a clone was taken from, its snapshot then)
    reservations = {}  # vm id -> target host id
    for vm_id, (op, k) in enumerate(ops):
        hosts = list(pool.hosts.values())
        host = hosts[k % len(hosts)]
        shape = ResourceVec(*SHAPES[k % len(SHAPES)])
        settled = sorted(set(pool.vms) - set(reservations))
        if op == "place" and pool.fits(shape, host):
            pool.place(make_vm(vm_id, SHAPES[k % len(SHAPES)], 100.0), host.id)
        elif op == "remove" and settled:
            pool.remove(settled[k % len(settled)])
        elif op == "reserve" and settled:
            vm = pool.vms[settled[k % len(settled)]]
            if vm.host != host.id and pool.fits(vm.shape, host):
                pool.reserve_incoming(vm, host.id)
                reservations[vm.id] = host.id
        elif op == "commit" and reservations:
            vid = sorted(reservations)[k % len(reservations)]
            assert pool.commit_incoming(pool.vms[vid]) == reservations.pop(vid)
        elif op == "write" and pool.fits(shape, host):
            pool.reserve(host.id, shape)
        elif op == "write-mem" and pool.fits(shape, host):
            pool.reserve(host.id, ResourceVec(0, shape.mem_mib))
        elif op == "toggle":
            host.unavailable_for_scheduling = not host.unavailable_for_scheduling
        elif op == "clone":
            originals.append((pool, snapshot(pool)))
            pool = clone_pool(pool)
        check_candidates(pool)
        assert pool.incoming == reservations
        # the two tests for "empty": a host is empty exactly when it is filed
        # among the hosts with zero ``used``, reserved shapes included
        for h in pool.hosts.values():
            assert h.is_empty() == (pool.index.filed[h.id] is None), h.id
        assert (len(pool.index.empty), metrics_snapshot(pool)) == naive_metrics(pool)
    for original, before in originals:
        assert snapshot(original) == before
