"""Two-lifetime Monte Carlo experiment: how many hosts a label-driven best
fit scheduler needs with and without on-line relabeling of hosts that turn
out to hold a long job, plus the closed-form misprediction-window probability.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from .core import PoolState, ResourceVec, VmRecord
from .sched import best_host


@dataclass(frozen=True)
class TheoremConfig:
    m: int = 20                    # host-count scale; load is proportional to it
    k: int = 10                    # job slots per host
    short_s: float = 50.0
    long_s: float = 5000.0
    rate_per_host: float = 0.02    # mean arrivals per second per unit of m
    rho: float = 0.1               # fraction of long jobs
    epsilon: float = 0.05          # misprediction rate
    horizon_s: float = 5000.0
    # demand arrives in on/off bursts; between bursts, short-job hosts drain
    # fully unless a mispredicted long job pins them
    burst_period_s: float = 1000.0
    burst_duty: float = 0.5

    def __post_init__(self):
        if self.short_s >= self.long_s:
            raise ValueError("short lifetime must be < long lifetime")
        if self.total_rate < 1.0 / self.short_s:
            raise ValueError(
                f"arrival rate {self.total_rate:g}/s must be >= 1/short ({1.0 / self.short_s:g}/s)")
        if not 0.0 <= self.epsilon <= 1.0 or not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho and epsilon must be probabilities")
        if not 0.0 < self.burst_duty <= 1.0:
            raise ValueError("burst_duty must be in (0,1]")

    @property
    def total_rate(self) -> float:
        return self.rate_per_host * self.m


def misprediction_probability(epsilon: float, rho: float, rate: float, window_s: float) -> float:
    """Probability of at least one mispredicted long arrival in a window."""
    return 1.0 - (1.0 - epsilon) ** (rho * rate * window_s)


def misprediction_probability_mc(epsilon: float, rho: float, rate: float,
                                 window_s: float, trials: int = 100_000,
                                 seed: int = 0) -> float:
    import numpy as np
    rng = np.random.default_rng(seed)
    n_long = rng.poisson(rho * rate * window_s, size=trials)
    errors = rng.binomial(n_long, epsilon)
    return float(np.mean(errors >= 1))


def _sample_jobs(cfg: TheoremConfig, seed: int):
    import numpy as np
    rng = np.random.default_rng(seed)
    n = rng.poisson(cfg.total_rate * cfg.horizon_s)
    # Poisson process restricted to the on-phase of each burst period: draw
    # uniformly over total on-time, then map back onto the burst windows
    on_per_period = cfg.burst_period_s * cfg.burst_duty
    on_total = cfg.horizon_s / cfg.burst_period_s * on_per_period
    u = np.sort(rng.uniform(0.0, on_total, size=n))
    arrivals = (u // on_per_period) * cfg.burst_period_s + (u % on_per_period)
    is_long = rng.random(n) < cfg.rho
    flipped = rng.random(n) < cfg.epsilon
    pred_long = is_long ^ flipped
    durations = np.where(is_long, cfg.long_s, cfg.short_s)
    return arrivals, durations, is_long, pred_long


def _run_policy(cfg: TheoremConfig, seed: int, learning: bool) -> float:
    """Time-averaged non-empty host count under one labeling policy.

    Each job is a unit shape on ``(k, k)`` hosts, placed by ``best_host``
    with a key that prefers a host holding jobs of its predicted label, then
    an empty host, then a host of the other label; the best fit then takes
    the fullest host, and the lowest id among equals."""
    arrivals, durations, is_long, pred_long = _sample_jobs(cfg, seed)
    capacity, unit = ResourceVec(cfg.k, cfg.k), ResourceVec(1, 1)
    pool = PoolState()
    pool.add_host(capacity)
    label: Dict[int, str] = {}  # host id -> "S" | "L", read only while the host holds jobs
    nonempty = 0
    # (time, priority, seq, kind, payload): exits before reveals before arrivals
    events: List[Tuple[float, int, int, str, int]] = []
    for i in range(len(arrivals)):
        events.append((arrivals[i], 2, i, "arrive", i))
    heapq.heapify(events)
    seq = len(arrivals)
    area = 0.0
    last_t = 0.0
    while events:
        t, _, _, kind, i = heapq.heappop(events)
        area += nonempty * (t - last_t)
        last_t = t
        if kind == "arrive":
            want = "L" if pred_long[i] else "S"
            host = best_host(pool.index, unit,
                             lambda h: (1,) if not h.vms else (0,) if label[h.id] == want else (2,),
                             (0,))
            if not host.vms:
                label[host.id] = want
                nonempty += 1
                if host.id == len(pool.hosts) - 1:  # keep an empty host to open
                    pool.add_host(capacity)
            pool.place(VmRecord(i, unit, None, t, t + durations[i]), host.id)
            heapq.heappush(events, (t + durations[i], 0, seq, "exit", i))
            seq += 1
            if learning and is_long[i]:
                heapq.heappush(events, (t + cfg.short_s, 1, seq, "reveal", i))
                seq += 1
        elif kind == "reveal":
            label[pool.vms[i].host] = "L"
        else:  # exit
            host = pool.hosts[pool.vms[i].host]
            pool.remove(i)
            if not host.vms:
                nonempty -= 1
    return area / last_t if last_t > 0 else 0.0


def two_class_experiment(cfg: TheoremConfig, seed: int) -> Tuple[float, float]:
    """(avg hosts without learning, avg hosts with learning) on one shared
    arrival sequence."""
    return _run_policy(cfg, seed, learning=False), _run_policy(cfg, seed, learning=True)


def gap_vs_m(base: TheoremConfig, ms: Sequence[int], seeds: Sequence[int]
             ) -> List[Tuple[int, int, float, float]]:
    """Rows of (m, seed, avg_hosts_no_learning, avg_hosts_learning)."""
    rows = []
    for m in ms:
        cfg = replace(base, m=m)
        for seed in seeds:
            no_learn, learn = two_class_experiment(cfg, seed)
            rows.append((m, seed, no_learn, learn))
    return rows


def gap_regression(rows: Sequence[Tuple[int, int, float, float]]):
    """Linear regression of the (no-learning - learning) gap on m."""
    from scipy import stats  # only here: at module level it doubles every lavasim process's RSS
    xs = [r[0] for r in rows]
    ys = [r[2] - r[3] for r in rows]
    return stats.linregress(xs, ys)
