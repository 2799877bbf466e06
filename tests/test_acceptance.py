"""Acceptance suite: headline behavioral guarantees of the package.

These tests replay full traces and are slower than the unit suites; the
shared fixtures below run each (trace, algorithm) pair once and feed
several tests.  The scheduling experiments use single-shape traces on a
homogeneous 50-host pool: with packing scores tied, placement differences
come from the lifetime machinery alone, which is what the algorithm
ordering is about.
"""

import dataclasses
import math
import statistics

import numpy as np
import pytest
from scipy import stats

from lavasim.core import ResourceVec
from lavasim.defrag import compare_orderings
from lavasim.evaluate import uptime_quantile_f1
from lavasim.predict import EmpiricalLifetimeModel, OneShotModel, OracleModel, make_predictor
from lavasim.sched import quantize_temporal_cost
from lavasim.sim import DefragConfig, SimConfig, Simulator
from lavasim.theorem import (
    gap_regression,
    misprediction_probability,
    misprediction_probability_mc,
)
from lavasim.workload import (
    GeneratorConfig,
    bimodal_config,
    generate,
    split,
    training_examples,
)

HOSTS = 50
CAPACITY = ResourceVec(40_000, 163_840)
UNIFORM_SHAPES = ((4000, 16384, 1.0),)
SEEDS = range(10)
ALGOS = ("baseline", "la-binary", "nilas", "lava")


def lifetime_trace(seed):
    return generate(GeneratorConfig(num_vms=20_000, seed=seed,
                                    arrival_rate_per_h=200.0,
                                    shape_catalog=UNIFORM_SHAPES))


def run_summary(trace, algo, model, warmup=True, check_invariants=False):
    sim = Simulator(trace, HOSTS, CAPACITY, algo, model,
                    cfg=SimConfig(warmup=warmup, check_invariants=check_invariants))
    return sim.run().summary


@pytest.fixture(scope="module")
def ordering_summaries():
    """summary[algo][seed] for all four algorithms on ten shared traces."""
    out = {algo: {} for algo in ALGOS}
    for seed in SEEDS:
        trace = lifetime_trace(seed)
        for algo in ALGOS:
            out[algo][seed] = run_summary(trace, algo, OracleModel())
    return out


class TestQuantizationExactness:
    """Criterion 1: the temporal-cost bucket table, exactly."""

    BOUNDARY_TABLE = [
        (0, 0), (1, 0), (1799, 0),
        (1800, 1), (3599, 1),
        (3600, 2), (4200, 2), (5399, 2),   # 70 min -> 2
        (5400, 3), (7199, 3),
        (7200, 4), (10799, 4),
        (10800, 5), (14399, 5),
        (14400, 6), (21599, 6),
        (21600, 7), (43199, 7),
        (43200, 8), (86399, 8),
        (86400, 9), (604799, 9),
        (604800, 10), (10_000_000, 10),
    ]

    @pytest.mark.parametrize("delta_s,expected", BOUNDARY_TABLE)
    def test_boundaries(self, delta_s, expected):
        assert quantize_temporal_cost(float(delta_s)) == expected

    def test_seventy_minutes(self):
        assert quantize_temporal_cost(70 * 60.0) == 2


class TestAlgorithmOrdering:
    """Criterion 2: NILAS > LA-Binary and LAVA > NILAS at oracle accuracy,
    mean time-averaged empty-host % over ten traces."""

    def mean(self, summaries, algo):
        return statistics.mean(summaries[algo][s]["avg_empty_hosts_pct"]
                               for s in SEEDS)

    def test_nilas_beats_la_binary(self, ordering_summaries):
        assert self.mean(ordering_summaries, "nilas") > \
            self.mean(ordering_summaries, "la-binary")

    def test_lava_at_least_nilas(self, ordering_summaries):
        assert self.mean(ordering_summaries, "lava") > \
            self.mean(ordering_summaries, "nilas")

    def test_no_scheduling_failures(self, ordering_summaries):
        for algo in ALGOS:
            for seed in SEEDS:
                assert ordering_summaries[algo][seed]["scheduling_failures"] == 0


def time_averaged_bound_pct(trace):
    """Placement-independent empty-host upper bound: aggregate free resources
    over whole-host capacities, averaged over the sampling grid."""
    events = []
    for r in trace:
        events.append((r.create_time_s, r.cpu_m, r.shape.mem_mib))
        events.append((r.create_time_s + r.lifetime_s, -r.cpu_m, -r.shape.mem_mib))
    events.sort()
    total_cpu, total_mem = HOSTS * CAPACITY.cpu_m, HOSTS * CAPACITY.mem_mib
    t = trace[0].create_time_s
    t_end = trace[-1].create_time_s
    i = used_c = used_m = 0
    bounds = []
    while t <= t_end:
        while i < len(events) and events[i][0] <= t:
            used_c += events[i][1]
            used_m += events[i][2]
            i += 1
        free_hosts = min((total_cpu - used_c) // CAPACITY.cpu_m,
                         (total_mem - used_m) // CAPACITY.mem_mib)
        bounds.append(100.0 * free_hosts / HOSTS)
        t += 300.0
    return statistics.mean(bounds)


@pytest.fixture(scope="module")
def cold_runs():
    rows = []
    for seed in SEEDS:
        trace = lifetime_trace(seed)
        bound = time_averaged_bound_pct(trace)
        nilas = run_summary(trace, "nilas", OracleModel(), warmup=False)
        base = run_summary(trace, "baseline", OracleModel(), warmup=False)
        rows.append((bound, nilas["avg_empty_hosts_pct"],
                     base["avg_empty_hosts_pct"]))
    return rows


class TestNearOptimality:
    """Criterion 3: cold-start NILAS reaches >= 90% of the aggregate-resource
    bound; Best Fit achieves strictly less of it."""

    def test_nilas_within_ninety_percent_of_bound(self, cold_runs):
        ratios = [n / b for b, n, _ in cold_runs]
        assert statistics.mean(ratios) >= 0.90

    def test_baseline_strictly_below_nilas(self, cold_runs):
        nilas = statistics.mean(n / b for b, n, _ in cold_runs)
        base = statistics.mean(a / b for b, _, a in cold_runs)
        assert base < nilas


ACCURACY_GRID = (0.5, 0.7, 0.9, 1.0)


@pytest.fixture(scope="module")
def sweep():
    """Improvement over Best Fit per (algorithm, accuracy, seed) on the
    shared single-shape trace family used by the ordering tests.  NILAS and
    LAVA sweep the whole grid; LA-Binary, the one-shot prior art, runs at
    50% accuracy only."""
    grids = {"nilas": ACCURACY_GRID, "lava": ACCURACY_GRID, "la-binary": (0.5,)}
    imp = {algo: {acc: [] for acc in grid} for algo, grid in grids.items()}
    for seed in range(5):
        trace = lifetime_trace(seed)
        base = run_summary(trace, "baseline", OracleModel())
        base_pct = base["avg_empty_hosts_pct"]
        for algo, grid in grids.items():
            for acc in grid:
                model = (OracleModel() if acc == 1.0
                         else make_predictor(f"noisy:{acc}", seed=seed))
                s = run_summary(trace, algo, model)
                imp[algo][acc].append(s["avg_empty_hosts_pct"] - base_pct)
    return imp


class TestAccuracySweep:
    """Criterion 4: improvements are monotone in predictor accuracy, and
    LAVA, which re-evaluates VM lifetimes and host classes as they age,
    tolerates 50% accuracy better than LA-Binary, whose predictions are
    one-shot.  (LAVA does not beat NILAS at 50% on these pools; see the
    README, "Tests".)"""

    @pytest.mark.parametrize("algo", ["nilas", "lava"])
    def test_monotone_in_accuracy(self, sweep, algo):
        xs, ys = [], []
        for acc in ACCURACY_GRID:
            xs.extend([acc] * len(sweep[algo][acc]))
            ys.extend(sweep[algo][acc])
        rho, _ = stats.spearmanr(xs, ys)
        assert rho > 0

    def test_lava_tolerates_low_accuracy_better(self, sweep):
        assert statistics.mean(sweep["lava"][0.5]) > \
            statistics.mean(sweep["la-binary"][0.5])


@pytest.fixture(scope="module")
def report():
    instances = []
    for seed in (0, 1):
        trace = generate(GeneratorConfig(num_vms=8000, seed=seed,
                                         arrival_rate_per_h=200.0))
        assert any(r.lifetime_s < 20 * 60 for r in trace)
        cfg = SimConfig(warmup=False, record_defrag_instances=True,
                        defrag=DefragConfig(enabled=True,
                                            empty_host_trigger=0.9,
                                            check_interval_s=3600.0))
        sim = Simulator(trace, HOSTS, CAPACITY, "baseline", OracleModel(),
                        cfg=cfg)
        sim.run()
        instances.extend(sim.defrag_instances)
    assert instances
    return compare_orderings(instances)


class TestLars:
    """Criterion 5: LARS never migrates more than trace order on any
    candidate host and saves migrations overall."""

    def test_lars_never_worse_per_host(self, report):
        for row in report["per_host"]:
            assert row["lars"] <= row["trace"]

    def test_total_reduction_positive(self, report):
        assert report["baseline_migrations"] > 0
        assert report["reduction"] > 0.0


class TestTheorem:
    """Criterion 6: the learning gap grows with scale; the closed form
    matches Monte Carlo."""

    def test_gap_slope_positive(self, theorem_rows):
        reg = gap_regression(theorem_rows)
        assert reg.slope > 0
        assert reg.pvalue < 0.05

    def test_zero_epsilon_control(self, zero_epsilon_rows):
        gaps = [r[2] - r[3] for r in zero_epsilon_rows]
        assert all(abs(g) < 1e-9 for g in gaps)

    def test_closed_form_matches_monte_carlo(self):
        for eps, rho, rate, window in [(0.05, 0.1, 1.0, 50.0),
                                       (0.05, 0.1, 1.0, 100.0),
                                       (0.02, 0.3, 0.5, 80.0)]:
            closed = misprediction_probability(eps, rho, rate, window)
            mc = misprediction_probability_mc(eps, rho, rate, window,
                                              trials=200_000, seed=1)
            assert abs(closed - mc) < 0.02


class TestRepredictionValue:
    """Criterion 7: on a bimodal workload, classification F1 at the 8th
    uptime quantile strictly exceeds F1 at quantile 0."""

    def test_f1_rises_with_uptime(self):
        records = generate(bimodal_config(num_vms=8000, seed=1))
        train, test = split(records, 0.5)
        model = EmpiricalLifetimeModel().fit(training_examples(train))
        scores = uptime_quantile_f1(model, test, threshold_s=100 * 3600.0,
                                    quantiles=20)
        assert scores[8] > scores[0]


def bimodal_trace(seed):
    """``bimodal_config`` with one 4-core shape: 8k VMs at 16 per hour."""
    return generate(dataclasses.replace(bimodal_config(8000, seed), arrival_rate_per_h=16.0,
                                        shape_catalog=UNIFORM_SHAPES))


class TestRepredictionBeatsOneShot:
    """Criterion 7b, the paper's central claim: NILAS repredicting with a
    fitted empirical model keeps more hosts empty than NILAS given the same
    model's prediction at creation, counted down.  On the bimodal family the
    two lifetime modes share every feature, so only the uptime tells them
    apart.  The single and catalog families show no ordering between the
    two, so no test asserts one there (README, "Tests")."""

    def test_nilas_empirical_beats_one_shot(self):
        gaps = []
        for seed in range(10, 20):
            trace = bimodal_trace(seed)
            model = EmpiricalLifetimeModel().fit(
                training_examples(bimodal_trace(seed + 1_000_000)))
            repredicted = run_summary(trace, "nilas", model)
            one_shot = run_summary(trace, "nilas", OneShotModel(model))
            gaps.append(repredicted["avg_empty_hosts_pct"] - one_shot["avg_empty_hosts_pct"])
        assert statistics.mean(gaps) > 0


class TestConditionalExpectationOracle:
    """Criterion 8: E(T_r | T_u) equals the brute-force average remaining
    lifetime over surviving training rows."""

    def test_matches_brute_force(self):
        records = generate(GeneratorConfig(num_vms=4000, seed=6))
        model = EmpiricalLifetimeModel(min_count=1).fit(training_examples(records))
        rec = records[0]
        fv = rec.features
        key = model._collapse(fv)
        stratum = [r for r in records if model._collapse(r.features) == key]
        for uptime_h in (0.0, 0.5, 2.0, 20.0):
            uptime = uptime_h * 3600.0
            # apply the model's own rounding/cap to the raw lifetimes
            lives = [min(int(round(r.lifetime_s)), model.cap_s) for r in stratum]
            survivors = [l for l in lives if l > uptime]
            if not survivors:
                continue
            expected = sum(l - uptime for l in survivors) / len(survivors)
            got = model.predict_remaining(fv, uptime)
            assert got == pytest.approx(expected, rel=1e-9)


class TestWorkloadStatistics:
    """Criterion 9: 88 +- 3 pp of VMs live under an hour while VMs of at
    least an hour carry 98 +- 1 pp of core-hours, at 100 k VMs."""

    def test_default_generator_statistics(self):
        records = generate(GeneratorConfig(num_vms=100_000, seed=7))
        life = np.array([r.lifetime_s for r in records], dtype=float)
        core_h = np.array([r.cpu_m for r in records], dtype=float) * life
        assert abs((life < 3600).mean() - 0.88) <= 0.03
        assert abs(core_h[life >= 3600].sum() / core_h.sum() - 0.98) <= 0.01


class TestMetricCoMovement:
    """Criterion 10: empty-host %, empty-to-free ratio, and packing density
    move together for every algorithm pair on a shared trace."""

    def test_pairwise_sign_agreement(self, ordering_summaries):
        algos = list(ALGOS)
        agree = 0
        total = 0
        for i, a in enumerate(algos):
            for b in algos[i + 1:]:
                d_empty = d_ratio = d_density = 0.0
                for seed in SEEDS:
                    sa, sb = ordering_summaries[a][seed], ordering_summaries[b][seed]
                    d_empty += sa["avg_empty_hosts_pct"] - sb["avg_empty_hosts_pct"]
                    d_ratio += sa["avg_empty_to_free_ratio"] - sb["avg_empty_to_free_ratio"]
                    d_density += sa["avg_packing_density"] - sb["avg_packing_density"]
                total += 1
                if (math.copysign(1, d_empty) == math.copysign(1, d_ratio)
                        == math.copysign(1, d_density)):
                    agree += 1
        assert agree == total


class TestDeterminismAndConservation:
    """Criterion 11: byte-identical re-runs; invariants assert clean on a
    full debug-mode run."""

    def test_rerun_byte_identical_series(self, tmp_path):
        from lavasim.cli import write_series_csv
        trace = lifetime_trace(0)
        paths = []
        for i in range(2):
            sim = Simulator(trace, HOSTS, CAPACITY, "lava", OracleModel())
            result = sim.run()
            path = tmp_path / f"series{i}.csv"
            write_series_csv(path, result.series)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_invariants_clean_on_full_run(self):
        trace = lifetime_trace(1)
        run_summary(trace, "lava", OracleModel(), check_invariants=True)

    def test_generator_rerun_identical(self):
        assert lifetime_trace(3) == lifetime_trace(3)
