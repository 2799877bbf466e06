"""Predictors: oracle, noisy oracle, empirical survival model, cache."""

import dataclasses
import hashlib
import math
import random
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from lavasim.core import LifetimeClass, PoolState, ResourceVec, VmRecord
from lavasim.predict import (
    EmptyHost,
    EmptyTrainingSet,
    EmpiricalLifetimeModel,
    FeatureVec,
    NoisyOracleConfig,
    NoisyOracleModel,
    NonPositiveInput,
    OneShotModel,
    OracleModel,
    PredictionCache,
    classify_binary,
    lifetime_class,
    log_error,
    make_predictor,
)

H = 3600.0
GLOBAL_LINE = "__global__\t3600:10 360000:2"


def make_vm(vm_id=1, create=0.0, exit_=10_000.0, fv=FeatureVec()):
    return VmRecord(id=vm_id, shape=ResourceVec(1000, 4096), features=fv,
                    create_time=create, true_exit_time=exit_)


class TestPureHelpers:
    def test_log_error_exact(self):
        assert log_error(1234.0, 1234.0) == 0.0

    def test_log_error_decade(self):
        assert log_error(36_000.0, 3600.0) == pytest.approx(1.0)
        assert log_error(3600.0, 36.0) == pytest.approx(2.0)

    def test_log_error_nonpositive(self):
        with pytest.raises(NonPositiveInput):
            log_error(0.0, 100.0)

    def test_classify_binary(self):
        assert classify_binary(1800.0) == "Short"
        assert classify_binary(7200.0) == "Long"  # boundary is Long
        assert classify_binary(100 * H) == "Long"

    def test_lifetime_class(self):
        assert lifetime_class(0.5 * H) is LifetimeClass.LC1
        assert lifetime_class(1 * H) is LifetimeClass.LC2  # boundary up
        assert lifetime_class(10 * H) is LifetimeClass.LC3
        assert lifetime_class(100 * H) is LifetimeClass.LC4
        assert lifetime_class(5000 * H) is LifetimeClass.LC4

    def test_lifetime_class_negative(self):
        with pytest.raises(ValueError):
            lifetime_class(-1.0)

    @given(st.floats(0, 1e9))
    def test_lifetime_class_pure(self, x):
        assert lifetime_class(x) is lifetime_class(x)


class TestOracle:
    def test_remaining(self):
        vm = make_vm(exit_=10_000.0)
        assert OracleModel().remaining(vm, 4000.0) == 6000.0

    def test_clamped_at_exit(self):
        vm = make_vm(exit_=10_000.0)
        assert OracleModel().remaining(vm, 10_000.0) == 0.0
        assert OracleModel().remaining(vm, 20_000.0) == 0.0


class TestOneShotModel:
    class Repredicting:
        """Answers 3 h at a VM's creation and 100 h at any later uptime, and
        records each question."""

        def __init__(self):
            self.asked = []

        def remaining(self, vm, now):
            self.asked.append((vm.id, now))
            return 3 * H if now == vm.create_time else 100 * H

    def test_creation_prediction_counted_down(self):
        inner = self.Repredicting()
        model, vm = OneShotModel(inner), make_vm(create=100.0)
        assert model.remaining(vm, 100.0) == 3 * H
        assert model.remaining(vm, 100.0 + H) == 2 * H
        assert vm.initial_predicted_exit == 100.0 + 3 * H
        assert inner.asked == [(1, 100.0)]

    def test_asks_at_creation_once_even_when_first_asked_late(self):
        inner = self.Repredicting()
        model, vm = OneShotModel(inner), make_vm(create=100.0)
        assert model.remaining(vm, 100.0 + 2 * H) == H
        assert model.remaining(vm, 100.0 + 2.5 * H) == 0.5 * H
        assert inner.asked == [(1, 100.0)]

    def test_never_negative(self):
        model, vm = OneShotModel(self.Repredicting()), make_vm(create=100.0)
        assert model.remaining(vm, 100.0 + 3 * H) == 0.0
        assert model.remaining(vm, 100.0 + 50 * H) == 0.0

    def test_time_invariant_whatever_it_wraps(self):
        assert OneShotModel.time_invariant is True
        assert OneShotModel(self.Repredicting()).time_invariant is True


class TestNoisyOracle:
    def test_exact_mode_equals_oracle(self):
        noisy = NoisyOracleModel(NoisyOracleConfig(accuracy=1.0, sigma_correct=0.0))
        oracle = OracleModel()
        for i in range(50):
            vm = make_vm(vm_id=i, exit_=100.0 + 37.0 * i)
            for now in (0.0, 10.0, 99.0):
                assert noisy.remaining(vm, now) == oracle.remaining(vm, now)

    def test_sticky_draw(self):
        noisy = NoisyOracleModel(NoisyOracleConfig(accuracy=0.0, seed=3))
        vm = make_vm(vm_id=5, exit_=H)
        total0 = noisy.remaining(vm, 0.0)
        total1 = noisy.remaining(vm, 600.0)
        assert total0 == pytest.approx(total1 + 600.0) or total1 == 0.0

    def test_cap(self):
        noisy = NoisyOracleModel(NoisyOracleConfig(accuracy=0.0, sigma_wrong=5.0))
        for i in range(200):
            vm = make_vm(vm_id=i, exit_=H)
            assert noisy.remaining(vm, 0.0) <= 14 * 24 * H

    @pytest.mark.parametrize("cfg", [NoisyOracleConfig(accuracy=0.0, seed=2),
                                     NoisyOracleConfig(accuracy=0.5, seed=3),
                                     NoisyOracleConfig(accuracy=1.0, seed=4),
                                     NoisyOracleConfig(accuracy=0.5, sigma_correct=0.0)])
    def test_draws_match_a_fresh_random_per_vm(self, cfg):
        """The model re-seeds one ``random.Random`` per draw; every total
        equals a draw from a fresh ``Random`` of the VM's seed, whatever
        order the VMs are first asked about in."""
        def reference_total(vm):
            digest = hashlib.sha256(f"{cfg.seed}:{vm.id}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            sigma = cfg.sigma_correct if rng.random() < cfg.accuracy else cfg.sigma_wrong
            true_total = vm.true_exit_time - vm.create_time
            if sigma == 0:
                return true_total
            total = 10.0 ** (math.log10(true_total) + rng.gauss(0.0, sigma))
            return min(max(total, 0.0), cfg.cap_s)

        vms = [make_vm(vm_id=i, create=7.0 * i, exit_=7.0 * i + 60.0 * (1 + i % 97))
               for i in range(2000)]
        random.Random(5).shuffle(vms)
        noisy = NoisyOracleModel(cfg)
        for vm in vms:
            total = reference_total(vm)
            assert noisy.remaining(vm, vm.create_time) == total
            now = vm.create_time + 600.0
            assert noisy.remaining(vm, now) == max(total - 600.0, 0.0)
            assert noisy.remaining(vm, vm.create_time - 5.0) == total

    def test_accuracy_controls_error_rate(self):
        """With accuracy p, about (1-p) of VMs get the wide-sigma noise."""
        cfg = NoisyOracleConfig(accuracy=0.7, seed=1)
        noisy = NoisyOracleModel(cfg)
        wrong = 0
        n = 2000
        for i in range(n):
            vm = make_vm(vm_id=i, exit_=H)
            pred = noisy.remaining(vm, 0.0)
            # sigma_correct=0.001 keeps predictions within a few percent
            if abs(math.log10(max(pred, 1e-9)) - math.log10(H)) > 0.1:
                wrong += 1
        assert abs(wrong / n - 0.3) < 0.05

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            NoisyOracleConfig(accuracy=1.5)
        with pytest.raises(ValueError):
            NoisyOracleConfig(sigma_wrong=-1.0)


def fit_model(rows, **kw):
    return EmpiricalLifetimeModel(**kw).fit(rows)


class TestEmpiricalModel:
    def test_point_mass(self):
        fv = FeatureVec(vm_family="f")
        model = fit_model([(fv, H)] * 100)
        assert model.predict_remaining(fv, 0.0) == pytest.approx(H)

    def test_bimodal_mixture_at_zero(self):
        # 90 VMs at 1h + 10 VMs at 100h: E(T_r|0) = 10.9h
        fv = FeatureVec(vm_family="f")
        rows = [(fv, H)] * 90 + [(fv, 100 * H)] * 10
        model = fit_model(rows)
        assert model.predict_remaining(fv, 0.0) == pytest.approx(10.9 * H)

    def test_bimodal_mixture_conditional(self):
        # past the short mode only the 100h cohort survives: E(T_r|2h) = 98h
        fv = FeatureVec(vm_family="f")
        rows = [(fv, H)] * 90 + [(fv, 100 * H)] * 10
        model = fit_model(rows)
        assert model.predict_remaining(fv, 7200.0) == pytest.approx(352_800.0)

    def test_brute_force_equality(self):
        """E(T_r|T_u) equals the direct average of (l - T_u) over survivors."""
        import random
        rng = random.Random(4)
        fv = FeatureVec(vm_family="f")
        lifetimes = [rng.randint(60, 500_000) for _ in range(500)]
        model = fit_model([(fv, float(t)) for t in lifetimes])
        for uptime in (0.0, 59.0, 60.0, 1000.0, 250_000.0, 499_999.0):
            survivors = [t for t in lifetimes if t > uptime]
            if not survivors:
                continue
            expect = sum(t - uptime for t in survivors) / len(survivors)
            got = model.predict_remaining(fv, uptime)
            assert abs(got - expect) <= 1e-9 * max(expect, 1.0)

    def test_training_cap(self):
        fv = FeatureVec(vm_family="f")
        model = fit_model([(fv, 1000 * H)] * 20)
        assert model.predict_remaining(fv, 0.0) == pytest.approx(168 * H)

    def test_floor_beyond_all_lifetimes(self):
        fv = FeatureVec(vm_family="f")
        model = fit_model([(fv, H)] * 20)
        assert model.predict_remaining(fv, 2 * H) == pytest.approx(H)

    def test_rare_category_collapses(self):
        common = FeatureVec(vm_family="common")
        rare = FeatureVec(vm_family="rare")
        rows = [(common, H)] * 50 + [(rare, 50 * H)] * 3
        model = fit_model(rows, min_count=10)
        # the rare family falls into "Other"; its own stratum keeps its curve
        assert "rare" not in model._kept_values["vm_family"]
        assert model.predict_remaining(rare, 0.0) == pytest.approx(50 * H)

    def test_refit_recomputes_stratum_keys(self):
        fv = FeatureVec(zone="z1")
        model = fit_model([(fv, H)] * 10)
        assert model._collapse(fv).startswith("z1|")
        model.fit([(FeatureVec(zone="z2"), H)] * 10)
        assert model._collapse(fv).startswith("Other|")

    def test_unseen_features_use_global_curve(self):
        fv = FeatureVec(vm_family="f", zone="z0")
        rows = [(fv, H)] * 90 + [(fv, 100 * H)] * 10
        model = fit_model(rows)
        unseen = FeatureVec(vm_family="nope", zone="z9", vm_category="x")
        assert model.predict_remaining(unseen, 0.0) == pytest.approx(10.9 * H)

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            EmpiricalLifetimeModel().fit([])

    def test_unfitted_predict(self):
        with pytest.raises(EmptyTrainingSet):
            EmpiricalLifetimeModel().predict_remaining(FeatureVec(), 0.0)

    def test_serialization_roundtrip_bit_exact(self):
        import random
        rng = random.Random(9)
        rows = []
        for i in range(300):
            fv = FeatureVec(vm_family=f"fam{i % 7}", zone=f"z{i % 3}",
                            vm_shape_key="1000x4096", has_ssd=i % 2 == 0)
            rows.append((fv, float(rng.randint(60, 10_000_000))))
        model = fit_model(rows)
        text = model.dumps()
        clone = EmpiricalLifetimeModel.loads(text)
        assert clone.dumps() == text
        for fv, _ in rows[:40]:
            for uptime in (0.0, 3600.0, 100_000.0):
                assert clone.predict_remaining(fv, uptime) == model.predict_remaining(fv, uptime)

    def test_loads_rejects_garbage(self):
        with pytest.raises(ValueError):
            EmpiricalLifetimeModel.loads("not a model\n")

    @pytest.mark.parametrize("edit, line", [
        (lambda t: t.replace(" min_count=10", ""), 1),
        (lambda t: t.replace("v1 ", "v2 "), 1),
        (lambda t: t.replace("floor_s=3600", "floor_s=nan"), 1),
        (lambda t: t.replace("floor_s=3600", "floor_s=3600 extra"), 1),
        (lambda t: t.replace("#kept zone", "#kept region"), 2),
        (lambda t: t.replace(GLOBAL_LINE, "__global__\t"), 8),
        (lambda t: t.replace(GLOBAL_LINE, "__global__ 3600:10"), 8),
        (lambda t: t.replace(GLOBAL_LINE, "__global__\t3600:10 360000"), 8),
        (lambda t: t.replace(GLOBAL_LINE, "__global__\t3600:10 360000:0"), 8),
        (lambda t: t.replace(GLOBAL_LINE, "__global__\t3600:10 3600:2"), 8),
        (lambda t: t + "__global__\t60:1\n", 9),
    ])
    def test_loads_names_the_bad_line(self, edit, line):
        fv = FeatureVec(vm_family="f")
        text = fit_model([(fv, H)] * 10 + [(fv, 100 * H)] * 2).dumps()
        assert text.splitlines()[7] == GLOBAL_LINE
        with pytest.raises(ValueError, match=f"^line {line}: "):
            EmpiricalLifetimeModel.loads(edit(text))

    def test_loads_needs_global_curve(self):
        fv = FeatureVec(vm_family="f")
        text = fit_model([(fv, H)] * 10).dumps()
        with pytest.raises(ValueError, match="no __global__ curve"):
            EmpiricalLifetimeModel.loads(text.replace("__global__\t3600:10\n", ""))

    @pytest.mark.parametrize("floor_s", [3600.0, 3600.25, 0.1, 1234567.0])
    def test_floor_round_trips(self, floor_s):
        model = fit_model([(FeatureVec(), H)] * 10, floor_s=floor_s)
        clone = EmpiricalLifetimeModel.loads(model.dumps())
        assert clone.floor_s == floor_s
        assert clone.dumps() == model.dumps()

    def test_feature_without_kept_values_round_trips(self):
        """No ``vm_category`` value reaches ``min_count``, so none is kept and
        a z1 VM falls in the z1 stratum (100 s and 5 000 s, three each).
        Read back as the set holding the empty string, the category would
        split z1 and move the VM to the pooled curve."""
        def rows(zone, category, life):
            return [(FeatureVec(zone=zone, vm_category=category), life)] * 3

        model = fit_model(rows("z1", "a", 100.0) + rows("z1", "", 5000.0)
                          + rows("z2", "b", 100.0) + rows("z2", "c", 100.0), min_count=5)
        text = model.dumps()
        assert "#kept vm_category\n" in text
        clone = EmpiricalLifetimeModel.loads(text)
        probe = FeatureVec(zone="z1")
        assert model.predict_remaining(probe, 0.0) == 2550.0
        assert clone.predict_remaining(probe, 0.0) == 2550.0
        assert clone.dumps() == text
        # the old form, a tab after the name, still loads: as the set of ""
        old = EmpiricalLifetimeModel.loads(text.replace("#kept vm_category\n",
                                                        "#kept vm_category\t\n"))
        assert old._kept_values["vm_category"] == {""}

    def test_default_floor_header(self):
        text = fit_model([(FeatureVec(), H)] * 10).dumps()
        assert text.splitlines()[0].endswith(" floor_s=3600")

    @given(st.lists(st.integers(60, 600_000), min_size=1, max_size=200),
           st.floats(0, 700_000))
    def test_expected_total_monotone(self, lifetimes, uptime):
        """T_u + E(T_r|T_u) is non-decreasing in T_u."""
        fv = FeatureVec(vm_family="f")
        model = fit_model([(fv, float(t)) for t in lifetimes])
        lo = min(uptime, 30.0)
        total_lo = lo + model.predict_remaining(fv, lo)
        total_hi = uptime + model.predict_remaining(fv, uptime)
        capped = [min(t, model.cap_s) for t in lifetimes]
        if uptime < max(capped):  # beyond all lifetimes the floor takes over
            assert total_hi >= total_lo - 1e-6


def reference_fit_dumps(examples, min_count, cap_s):
    """``dumps()`` of a fit done one row at a time, each row with a fresh
    ``FeatureVec``."""
    rows = [(dataclasses.replace(fv), min(int(round(life)), cap_s)) for fv, life in examples]
    kept = {name: {v for v, c in Counter(getattr(fv, name) for fv, _ in rows).items()
                   if c >= min_count}
            for name in FeatureVec._CATEGORICAL}

    def stratum(fv):
        parts = [getattr(fv, name) if getattr(fv, name) in kept[name] else "Other"
                 for name in FeatureVec._CATEGORICAL]
        return "|".join(parts + ["1" if fv.has_ssd else "0",
                                 "1" if fv.provisioning_model else "0"])

    per_stratum, pooled = defaultdict(Counter), Counter()
    for fv, life in rows:
        per_stratum[stratum(fv)][life] += 1
        pooled[life] += 1
    lines = [f"lavasim-empirical-model v1 cap_s={cap_s} min_count={min_count} floor_s=3600"]
    lines += ["\t".join([f"#kept {name}"] + sorted(kept[name]))
              for name in FeatureVec._CATEGORICAL]
    for key in sorted(per_stratum) + ["__global__"]:
        counts = pooled if key == "__global__" else per_stratum[key]
        lines.append(f"{key}\t" + " ".join(f"{t}:{counts[t]}" for t in sorted(counts)))
    return "\n".join(lines) + "\n"


@st.composite
def training_sets(draw):
    """``(min_count, examples)``.  Family f0 has exactly ``min_count`` rows,
    all one ``FeatureVec`` object, and f1 one row fewer; zones, shapes and
    the other features vary by row, so counts near ``min_count`` are common
    there too.  Lifetimes are halves, some past the cap of 20."""
    min_count = draw(st.integers(2, 5))
    shared = FeatureVec(zone="za", vm_family="f0", vm_shape_key="1x1")
    sizes = [min_count, min_count - 1] + draw(
        st.lists(st.sampled_from([min_count - 1, min_count, min_count + 1]), max_size=3))
    rows = []
    for family, size in enumerate(sizes):
        for _ in range(size):
            fv = shared if family == 0 else FeatureVec(
                zone=draw(st.sampled_from(["za", "zb", "zc"])), vm_family=f"f{family}",
                vm_shape_key=draw(st.sampled_from(["1x1", "2x2"])),
                vm_category=draw(st.sampled_from(["", "web"])), has_ssd=draw(st.booleans()),
                priority=draw(st.sampled_from(["standard", "spot"])),
                provisioning_model=draw(st.booleans()))
            rows.append((fv, draw(st.integers(0, 60)) / 2))
    return min_count, draw(st.permutations(rows))


@settings(max_examples=150, deadline=None)
@given(training_sets())
def test_fit_matches_per_row_reference(case):
    min_count, examples = case
    expected = reference_fit_dumps(examples, min_count, cap_s=20)
    assert EmpiricalLifetimeModel(min_count=min_count, cap_s=20).fit(examples).dumps() == expected
    # a refit after a fit that kept every value must not reuse its stratum keys
    model = EmpiricalLifetimeModel(min_count=min_count, cap_s=20)
    model.fit([(fv, 1.0) for fv, _ in examples] * min_count)
    assert model.fit(examples).dumps() == expected
    reference = EmpiricalLifetimeModel.loads(expected)
    for fv, _ in examples:
        for uptime in (0.0, 7.0):
            assert model.predict_remaining(fv, uptime) == reference.predict_remaining(fv, uptime)


@settings(max_examples=100, deadline=None)
@given(training_sets(), training_sets(), st.sampled_from([0, 2, 7.5]))
def test_remaining_matches_predict_remaining(case, other, create):
    """``remaining`` and ``predict_remaining`` share one curve memo; both
    answer exactly what a copy of the model with an empty memo answers for
    the VM's uptime, before and after a refit on other data."""
    min_count, examples = case
    model = EmpiricalLifetimeModel(min_count=min_count, cap_s=20).fit(examples)
    trained = list({id(fv): fv for fv, _ in examples}.values())
    vectors = (trained + [dataclasses.replace(fv) for fv in trained]
               + [FeatureVec(), FeatureVec(zone="zq", vm_family="unseen", has_ssd=True)])
    lifetimes = sorted({min(int(round(life)), 20) for _, life in examples})
    # uptimes on, between and beyond the training lifetimes, ints and floats
    uptimes = [-3, -0.5, 0, 0.0] + lifetimes + [t + 0.25 for t in lifetimes] + [21, 1e6]
    vms = [make_vm(i, create=create, exit_=create + 1e9, fv=fv) for i, fv in enumerate(vectors)]

    def check():
        reference = EmpiricalLifetimeModel.loads(model.dumps())
        for vm in vms:
            for uptime in uptimes:
                now = create + uptime
                clamped = max(now - vm.create_time, 0.0)
                expected = reference.predict_remaining(vm.features, clamped)
                assert model.remaining(vm, now) == expected
                assert model.predict_remaining(vm.features, clamped) == expected

    check()
    model.fit([(fv, 30 - life) for fv, life in other[1]])
    check()


class TestPredictionCache:
    def test_empty_host_raises(self):
        pool = PoolState()
        host = pool.add_host(ResourceVec(96_000, 393_216))
        with pytest.raises(EmptyHost):
            PredictionCache().host_exit_time(host, pool, OracleModel(), 0.0)

    def test_max_over_vms(self):
        pool = PoolState()
        host = pool.add_host(ResourceVec(96_000, 393_216))
        pool.place(make_vm(1, exit_=100.0), 0)
        pool.place(make_vm(2, exit_=500.0), 0)
        cache = PredictionCache()
        assert cache.host_exit_time(host, pool, OracleModel(), 0.0) == 500.0

    def test_stale_value_within_interval(self):
        """A drifting model's update is hidden until the next grid cell or a
        membership change."""
        pool = PoolState()
        host = pool.add_host(ResourceVec(96_000, 393_216))
        pool.place(make_vm(1, exit_=10_000.0), 0)
        cache = PredictionCache(grid_s=60.0)

        class Drifting:
            offset = 0.0
            def remaining(self, vm, now):
                return max(vm.true_exit_time + self.offset - now, 0.0)

        model = Drifting()
        assert cache.host_exit_time(host, pool, model, 0.0) == 10_000.0
        model.offset = 5000.0
        assert cache.host_exit_time(host, pool, model, 59.5) == 10_000.0
        assert cache.host_exit_time(host, pool, model, 60.0) == 15_000.0
        model.offset = 7000.0
        assert cache.host_exit_time(host, pool, model, 70.0) == 15_000.0
        pool.place(make_vm(2, create=70.0, exit_=100.0), 0)
        cache.invalidate(0)
        assert cache.host_exit_time(host, pool, model, 70.0) == 17_000.0

    def test_refresh_calls_remaining_once_per_resident(self):
        """A fill predicts every resident once, at the later of the cell's
        start and the VM's creation, and a lookup in the same cell predicts
        none."""
        pool = PoolState()
        host = pool.add_host(ResourceVec(96_000, 393_216))
        for vid, create in enumerate((0.0, 70.0, 100.0)):
            pool.place(make_vm(vid, create=create, exit_=1000.0 * (vid + 1)), 0)
        calls = []

        class Counting:
            def remaining(self, vm, now):
                calls.append((vm.id, now))
                return max(vm.true_exit_time - now, 0.0)

        model, cache = Counting(), PredictionCache(grid_s=60.0)
        assert not getattr(model, "time_invariant", False)
        assert cache.host_exit_time(host, pool, model, 110.0) == 3000.0
        assert sorted(calls) == [(0, 60.0), (1, 70.0), (2, 100.0)]
        calls.clear()
        assert cache.host_exit_time(host, pool, model, 119.0) == 3000.0
        assert calls == []
        assert cache.host_exit_time(host, pool, model, 130.0) == 3000.0
        assert sorted(calls) == [(0, 120.0), (1, 120.0), (2, 120.0)]

    def test_invalidate_on_membership_change(self):
        pool = PoolState()
        host = pool.add_host(ResourceVec(96_000, 393_216))
        pool.place(make_vm(1, exit_=100.0), 0)
        cache = PredictionCache()
        assert cache.host_exit_time(host, pool, OracleModel(), 0.0) == 100.0
        pool.place(make_vm(2, exit_=900.0), 0)
        cache.invalidate(0)
        assert cache.host_exit_time(host, pool, OracleModel(), 0.0) == 900.0

    @pytest.mark.parametrize("grid_s", [60.0, math.inf])
    def test_passed_entry_answers_now(self, grid_s):
        """Past the stored exit a lookup in the same cell answers ``now``
        without predicting anything."""
        pool = PoolState()
        host = pool.add_host(ResourceVec(96_000, 393_216))
        pool.place(make_vm(1, exit_=100.0), 0)
        pool.place(make_vm(2, exit_=5000.0), 0)
        calls = []

        class Counting(OracleModel):
            def remaining(self, vm, now):
                calls.append(vm.id)
                return super().remaining(vm, now)

        model, cache = Counting(), PredictionCache(grid_s=grid_s)
        assert cache.host_exit_time(host, pool, model, 0.0) == 5000.0
        pool.remove(2)
        cache.invalidate(0)
        assert cache.host_exit_time(host, pool, model, 50.0) == 100.0
        calls.clear()
        assert cache.host_exit_time(host, pool, model, 59.0) == 100.0
        if grid_s == math.inf:
            assert cache.host_exit_time(host, pool, model, 150.0) == 150.0
        assert calls == []


def fitted_empirical():
    """Lifetimes dense enough that a resident's predicted exit often moves
    within one 60 s cell."""
    rng = random.Random(5)
    return fit_model([(FeatureVec(), rng.uniform(1.0, 20_000.0)) for _ in range(1000)])


# the predictors the cache serves, built fresh per example: the noisy
# oracle keeps each VM id's first draw
CACHE_MODELS = {
    "oracle": OracleModel,
    "noisy:0.5": lambda: make_predictor("noisy:0.5", seed=3),
    "empirical": fitted_empirical,
    "oneshot:empirical": lambda: OneShotModel(fitted_empirical()),
}
# lookups weighted up: each one is a check
CACHE_OPS = ("place", "remove", "invalidate", "lookup", "lookup", "lookup")


def reference_host_exit(host, pool, model, now, grid_s):
    """``max(now, latest t + remaining(vm, t))`` over the residents, with
    ``t`` the later of the grid cell's start and the VM's creation."""
    start = now // grid_s * grid_s if grid_s < math.inf else -math.inf
    exits = []
    for vid in host.vms:
        vm = pool.vms[vid]
        t = max(start, vm.create_time)
        exits.append(t + model.remaining(vm, t))
    return max([now] + exits)


@settings(deadline=None, max_examples=300)
@given(spec=st.sampled_from(sorted(CACHE_MODELS)),
       ops=st.lists(st.tuples(st.sampled_from(CACHE_OPS), st.integers(0, 2**16),
                              st.sampled_from((0.0, 0.5, 1.0, 30.0, 59.5, 60.0, 600.0, 7200.0))),
                    max_size=60))
def test_cache_matches_recomputing_every_lookup(spec, ops):
    """Random placements, removals (each invalidating its host, as the
    schedulers do), stray invalidations and lookups, with time moving
    forward: every lookup answers what a recomputation from the host's
    residents at that moment gives."""
    model = CACHE_MODELS[spec]()
    grid_s = math.inf if getattr(model, "time_invariant", False) else 60.0
    cache, pool = PredictionCache(grid_s), PoolState()
    for _ in range(3):
        pool.add_host(ResourceVec(96_000, 393_216))
    now = 0.0
    for vm_id, (op, k, dt) in enumerate(ops):
        now += dt
        host = pool.hosts[k % 3]
        if op == "place":
            create = max(now - (k % 5) * 45.0, 0.0)  # a migrated VM was created earlier
            life = (600.0, 3000.0, 7200.0, 40_000.0)[k % 4] * (1 + k % 7 / 7)
            pool.place(make_vm(vm_id, create=create, exit_=create + life), host.id)
            cache.invalidate(host.id)
        elif op == "remove" and host.vms:
            pool.remove(sorted(host.vms)[k % len(host.vms)])
            cache.invalidate(host.id)
        elif op == "invalidate":
            cache.invalidate(host.id)
        elif op == "lookup" and host.vms:
            assert cache.host_exit_time(host, pool, model, now) == reference_host_exit(
                host, pool, model, now, grid_s)


class TestMakePredictor:
    def test_specs(self):
        assert isinstance(make_predictor("oracle"), OracleModel)
        noisy = make_predictor("noisy:0.7", seed=4)
        assert isinstance(noisy, NoisyOracleModel)
        assert noisy.cfg.accuracy == 0.7 and noisy.cfg.seed == 4

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_predictor("gbdt")
