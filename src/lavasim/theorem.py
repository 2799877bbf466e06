"""Two-lifetime Monte Carlo experiment: how many hosts a label-driven best
fit scheduler needs with and without on-line relabeling of hosts that turn
out to hold a long job, plus the closed-form misprediction-window probability.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np


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
    seed: int = 0

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
    rng = np.random.default_rng(seed)
    n_long = rng.poisson(rho * rate * window_s, size=trials)
    errors = rng.binomial(n_long, epsilon)
    return float(np.mean(errors >= 1))


def _sample_jobs(cfg: TheoremConfig, seed: int):
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


class _HostPool:
    """Labeled hosts with slot capacity k; best fit = fullest matching host."""

    def __init__(self, k: int):
        self.k = k
        self.label: Dict[int, str] = {}
        self.occupancy: Dict[int, int] = {}
        # (label, occupancy) -> set of host ids with free slots
        self.buckets: Dict[Tuple[str, int], set] = {}
        self.empty_ids: List[int] = []
        self.next_id = 0
        self.nonempty = 0

    def _bucket_add(self, hid):
        self.buckets.setdefault((self.label[hid], self.occupancy[hid]), set()).add(hid)

    def _bucket_remove(self, hid):
        key = (self.label[hid], self.occupancy[hid])
        b = self.buckets.get(key)
        if b is not None:
            b.discard(hid)

    def place(self, label: str) -> int:
        for occ in range(self.k - 1, 0, -1):
            b = self.buckets.get((label, occ))
            if b:
                hid = min(b)
                self._bucket_remove(hid)
                self.occupancy[hid] += 1
                if self.occupancy[hid] < self.k:
                    self._bucket_add(hid)
                return hid
        # open a host (reuse an empty one if possible)
        hid = heapq.heappop(self.empty_ids) if self.empty_ids else self._new_host()
        self.label[hid] = label
        self.occupancy[hid] = 1
        self._bucket_add(hid)
        self.nonempty += 1
        return hid

    def _new_host(self) -> int:
        hid = self.next_id
        self.next_id += 1
        return hid

    def depart(self, hid: int) -> None:
        self._bucket_remove(hid)
        self.occupancy[hid] -= 1
        if self.occupancy[hid] == 0:
            self.nonempty -= 1
            del self.label[hid]
            del self.occupancy[hid]
            heapq.heappush(self.empty_ids, hid)
        else:
            self._bucket_add(hid)

    def reveal_long(self, hid: int) -> None:
        if self.label[hid] != "L":
            self._bucket_remove(hid)
            self.label[hid] = "L"
            self._bucket_add(hid)


def _run_policy(cfg: TheoremConfig, seed: int, learning: bool) -> float:
    """Time-averaged non-empty host count under one labeling policy."""
    arrivals, durations, is_long, pred_long = _sample_jobs(cfg, seed)
    pool = _HostPool(cfg.k)
    # (time, priority, seq, kind, payload): exits before reveals before arrivals
    events: List[Tuple[float, int, int, str, int]] = []
    for i in range(len(arrivals)):
        events.append((arrivals[i], 2, i, "arrive", i))
    heapq.heapify(events)
    seq = len(arrivals)
    host_of: Dict[int, int] = {}
    area = 0.0
    last_t = 0.0
    while events:
        t, _, _, kind, i = heapq.heappop(events)
        area += pool.nonempty * (t - last_t)
        last_t = t
        if kind == "arrive":
            label = "L" if pred_long[i] else "S"
            hid = pool.place(label)
            host_of[i] = hid
            heapq.heappush(events, (t + durations[i], 0, seq, "exit", i))
            seq += 1
            if learning and is_long[i]:
                heapq.heappush(events, (t + cfg.short_s, 1, seq, "reveal", i))
                seq += 1
        elif kind == "reveal":
            if i in host_of:
                pool.reveal_long(host_of[i])
        else:  # exit
            pool.depart(host_of.pop(i))
    return area / last_t if last_t > 0 else 0.0


def two_class_experiment(cfg: TheoremConfig, seed: int = None) -> Tuple[float, float]:
    """(avg hosts without learning, avg hosts with learning) on one shared
    arrival sequence."""
    s = cfg.seed if seed is None else seed
    return _run_policy(cfg, s, learning=False), _run_policy(cfg, s, learning=True)


def gap_vs_m(base: TheoremConfig, ms: Sequence[int], seeds: Sequence[int]
             ) -> List[Tuple[int, int, float, float]]:
    """Rows of (m, seed, avg_hosts_no_learning, avg_hosts_learning)."""
    rows = []
    for m in ms:
        cfg = replace(base, m=m)
        for seed in seeds:
            no_learn, learn = two_class_experiment(cfg, seed=seed)
            rows.append((m, seed, no_learn, learn))
    return rows


def gap_regression(rows: Sequence[Tuple[int, int, float, float]]):
    """Linear regression of the (no-learning - learning) gap on m."""
    from scipy import stats  # only here: at module level it doubles every lavasim process's RSS
    xs = [r[0] for r in rows]
    ys = [r[2] - r[3] for r in rows]
    return stats.linregress(xs, ys)
