"""Two-lifetime Monte Carlo experiment: how many hosts a label-driven best
fit scheduler needs with and without on-line relabeling of hosts that turn
out to hold a long job, plus the closed-form misprediction-window probability.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .core import ResourceVec
from .sched import Scheduler
from .sim import SimConfig, Simulator
from .workload import TraceRecord, vm_terms


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


class _LabelPolicy(Scheduler):
    """The experiment's label policy as a scheduler.  A job goes to a host
    holding jobs of its predicted label, else to an empty host, else to a host
    of the other label; the best fit then takes the fullest host, and the
    lowest id among equals.  With ``reveal``, the jobs' true labels, a host is
    relabeled long once a long job on it outlives ``short_s``.  Each arrival,
    exit and relabeling first adds the non-empty host count times the time
    since the previous one to ``area``."""

    name = "label-policy"
    key_floor = (0,)

    def __init__(self, pred_long: List[bool], reveal: Optional[List[bool]], short_s: float):
        self.pred_long, self.reveal, self.short_s = pred_long, reveal, short_s
        self.label: Dict[int, bool] = {}  # host id -> long, read only while the host holds jobs
        self.nonempty = 0
        self.area = self.last_t = 0.0

    def _integrate(self, now: float) -> None:
        self.area += self.nonempty * (now - self.last_t)
        self.last_t = now

    def host_key(self, vm, pool, now):
        want, label = self.pred_long[vm.id], self.label
        return lambda h: (1,) if not h.vms else (0,) if label[h.id] == want else (2,)

    def after_place(self, pool, vm, host, now):
        self._integrate(now)
        if len(host.vms) == 1:  # the host has just opened
            self.label[host.id] = self.pred_long[vm.id]
            self.nonempty += 1
        if self.reveal and self.reveal[vm.id]:
            self.deadline_armed(host.id, now + self.short_s)

    def on_deadline(self, pool, host, now, deadline):
        self._integrate(now)
        self.label[host.id] = True

    def on_exit(self, pool, vm, host, now):
        self._integrate(now)
        if not host.vms:
            self.nonempty -= 1


def two_class_experiment(cfg: TheoremConfig, seed: int) -> Tuple[float, float]:
    """(avg hosts without learning, avg hosts with learning): the time-averaged
    non-empty host count of each policy, replayed by ``Simulator`` on one
    shared trace of unit-shape jobs over ``(k, k)`` hosts."""
    import numpy as np
    arrivals, durations, is_long, pred_long = _sample_jobs(cfg, seed)
    unit, features = vm_terms(1, 1)
    trace = [TraceRecord(i, t, d, unit, features)
             for i, (t, d) in enumerate(zip(arrivals.tolist(), durations.tolist()))]
    # a host per job alive at the peak, plus an empty one; at one time, exits
    # run before arrivals
    exited = np.searchsorted(np.sort(arrivals + durations), arrivals, side="right")
    hosts = int((np.arange(1, len(trace) + 1) - exited).max(initial=0)) + 1
    capacity, pred = ResourceVec(cfg.k, cfg.k), pred_long.tolist()
    sim_cfg = SimConfig(warmup=False, sample_interval_s=cfg.horizon_s)
    averages = []
    for reveal in (None, is_long.tolist()):
        policy = _LabelPolicy(pred, reveal, cfg.short_s)
        Simulator(trace, hosts, capacity, policy, None, cfg=sim_cfg).run()
        averages.append(policy.area / policy.last_t if policy.last_t > 0 else 0.0)
    return tuple(averages)


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
