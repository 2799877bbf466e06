"""Self-time arithmetic of the tracer on synthetic nested spans."""

import pytest

from spans import Tracer, lavasim_targets, patched


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


@pytest.fixture
def traced():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(1)

    def middle():
        clock.advance(2)
        leaf_t()
        clock.advance(1)

    def sibling():
        clock.advance(2)

    def outer():
        clock.advance(5)
        middle_t()
        sibling_t()
        clock.advance(3)

    leaf_t = tracer.timed("leaf", leaf, keep=False)
    middle_t = tracer.timed("middle", middle)
    sibling_t = tracer.timed("sibling", sibling)
    outer_t = tracer.timed("outer", outer)
    return tracer, outer_t


def test_self_time_is_duration_minus_children(traced):
    tracer, outer = traced
    outer()
    s = tracer.stats
    assert (s["outer"].total_ns, s["outer"].self_ns) == (14, 8)
    assert (s["middle"].total_ns, s["middle"].self_ns) == (4, 3)
    assert (s["sibling"].total_ns, s["sibling"].self_ns) == (2, 2)
    assert (s["leaf"].total_ns, s["leaf"].self_ns) == (1, 1)
    # self times partition the root span
    assert sum(x.self_ns for x in s.values()) == s["outer"].total_ns


def test_leaf_calls_and_counts(traced):
    tracer, outer = traced
    outer()
    outer()
    s = tracer.stats
    assert s["outer"].calls == 2 and s["leaf"].calls == 2
    assert s["leaf"].leaf_calls == 2 and s["sibling"].leaf_calls == 2
    assert s["middle"].leaf_calls == 0 and s["outer"].leaf_calls == 0


def test_kept_spans_point_at_nearest_kept_parent():
    clock = FakeClock()
    tracer = Tracer(clock)
    inner = tracer.timed("inner", lambda: clock.advance(1))
    hidden = tracer.timed("hidden", lambda: inner(), keep=False)
    root = tracer.timed("root", lambda: hidden())
    tracer.replay = 7
    root()
    spans = [s for s in tracer.spans if s is not None]
    assert [s[0] for s in tracer.spans] == ["root", "inner"]
    (_, r_start, r_end, r_parent, r_replay), (_, i_start, i_end, i_parent, _) = spans
    assert r_parent == -1 and i_parent == 0 and r_replay == 7
    assert r_start <= i_start <= i_end <= r_end


def test_raising_span_is_closed_and_charged():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.advance(4)
        raise ValueError("x")

    boom_t = tracer.timed("boom", boom)

    def outer():
        clock.advance(1)
        with pytest.raises(ValueError):
            boom_t()

    tracer.timed("outer", outer)()
    assert tracer.stats["boom"].total_ns == 4
    assert tracer.stats["outer"].self_ns == 1
    assert len(tracer._stack) == 1


def test_counted_wrapper_only_counts():
    tracer = Tracer(FakeClock())
    double = tracer.counted("double", lambda x: 2 * x)
    assert [double(i) for i in range(3)] == [0, 2, 4]
    assert tracer.counts["double"] == 3 and "double" not in tracer.stats


def test_patched_restores_lavasim_on_error():
    from lavasim.core import PoolState
    from lavasim.sched import Scheduler
    fits, select = PoolState.__dict__["fits"], Scheduler.__dict__["select_host"]
    with pytest.raises(RuntimeError):
        with patched(lavasim_targets(Tracer())):
            assert PoolState.__dict__["fits"] is not fits
            raise RuntimeError
    assert PoolState.__dict__["fits"] is fits
    assert Scheduler.__dict__["select_host"] is select
