"""Regime checks of the benchmark workloads, so that a change to the
generator or to a default cannot silently turn a workload into a no-op.

Each workload is set up and replayed once, traced, on seed 0; the outputs
must match the recorded digests, which also shows that tracing changes no
simulated result.  Takes about a minute.
"""

import pytest
from lavasim.sched import ALGORITHMS

import bench
import spans
import workloads

SEED = 0


@pytest.fixture(scope="module")
def layers():
    """Per-layer metrics, summaries and failure count of one traced repetition
    of every workload."""
    out = {}
    for name, w in workloads.WORKLOADS.items():
        b = bench.Bench(w, SEED)
        tracer = spans.Tracer()
        elapsed = b.repetition(tracer)
        assert elapsed is not None
        out[name] = (b.per_layer(tracer, [elapsed], [elapsed]),
                     {o.key: o.summary for o in b.last_outputs}, b)
    return out


def test_outputs_match_recorded_digests(layers):
    for name, (_, summaries, b) in layers.items():
        assert set(b.recorded) == set(summaries), name
        assert b.failed == 0, name


def test_small_pool_runs_all_algorithms_without_failures(layers):
    _, summaries, _ = layers["small-pool-compare"]
    assert sorted(summaries) == sorted(f"{a}/oracle" for a in ALGORITHMS)
    for key, summary in summaries.items():
        assert summary["scheduling_failures"] == 0, key
        assert summary["samples"] > 0, key


def test_large_pool_reaches_utilisation_floor(layers):
    m, _, _ = layers["large-pool-lava"]
    assert m["model.util_cpu"] >= workloads.LARGE_POOL_UTIL_FLOOR


def test_defrag_workload_defragments_and_misses_the_cache(layers):
    m, _, _ = layers["defrag-empirical"]
    assert m["model.defrag_instances"] > 0
    assert m["model.migrations"] > 0
    assert m["defrag.evacuation.calls"] > 0
    assert m["predict.cache.hit_ratio"] < layers["large-pool-lava"][0]["predict.cache.hit_ratio"]


def test_defrag_layers_run_only_on_defrag_workload(layers):
    for name, (m, _, _) in layers.items():
        active = m["defrag.evacuation.self_s"] > 0 and m["sim.clone_pool.calls"] > 0
        assert active == (name == "defrag-empirical"), name


def test_select_host_share_grows_with_pool_size(layers):
    def share(name):
        m = layers[name][0]
        return m["sched.select_host.self_s"] / m["trace.replay_s"]
    assert share("large-pool-lava") > share("small-pool-compare")


def test_self_times_account_for_traced_replay(layers):
    for name, (m, _, _) in layers.items():
        assert 0.98 < m["trace.accounted_frac"] <= 1.0, name


def test_per_layer_report_covers_benchmark_json(layers):
    for name, (m, _, _) in layers.items():
        assert list(m) == list(bench.PER_LAYER_UNITS), name


def test_benchmark_json_lists_the_workloads():
    assert bench.SPEC["paths"] == [bench.HERE.name]
    assert [w["name"] for w in bench.SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert list(bench.END_TO_END_UNITS) == ["replay_s", "arrivals_per_s", "setup_s",
                                            "peak_rss_mib"]
