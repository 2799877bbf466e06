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


# the experiment's jobs: two lifetimes, arrivals per second per unit of m,
# on hosts of K slots, over one horizon
K = 10
SHORT_S = 50.0
LONG_S = 5000.0
RATE_PER_HOST = 0.02
HORIZON_S = 5000.0
# demand arrives in on/off bursts; between bursts, short-job hosts drain
# fully unless a mispredicted long job pins them
BURST_PERIOD_S = 1000.0
BURST_DUTY = 0.5


@dataclass(frozen=True)
class TheoremConfig:
    m: int = 20                    # host-count scale; load is proportional to it
    rho: float = 0.1               # fraction of long jobs
    epsilon: float = 0.05          # misprediction rate

    def __post_init__(self):
        # m >= 1 keeps the arrival rate, RATE_PER_HOST * m, at least 1/SHORT_S
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not 0.0 <= self.epsilon <= 1.0 or not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho and epsilon must be probabilities")


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
    n = rng.poisson(RATE_PER_HOST * cfg.m * HORIZON_S)
    # Poisson process restricted to the on-phase of each burst period: draw
    # uniformly over total on-time, then map back onto the burst windows
    on_per_period = BURST_PERIOD_S * BURST_DUTY
    on_total = HORIZON_S / BURST_PERIOD_S * on_per_period
    u = np.sort(rng.uniform(0.0, on_total, size=n))
    arrivals = (u // on_per_period) * BURST_PERIOD_S + (u % on_per_period)
    is_long = rng.random(n) < cfg.rho
    flipped = rng.random(n) < cfg.epsilon
    pred_long = is_long ^ flipped
    durations = np.where(is_long, LONG_S, SHORT_S)
    return arrivals, durations, is_long, pred_long


class _LabelPolicy(Scheduler):
    """The experiment's label policy as a scheduler.  A job goes to a host
    holding jobs of its predicted label, else to an empty host, else to a host
    of the other label; the best fit then takes the fullest host, and the
    lowest id among equals.  With ``reveal``, the jobs' true labels, a host is
    relabeled long once a long job on it outlives ``SHORT_S``.  Each arrival,
    exit and relabeling first adds the non-empty host count times the time
    since the previous one to ``area``."""

    name = "label-policy"
    key_floor = (0,)

    def __init__(self, pred_long: List[bool], reveal: Optional[List[bool]]):
        self.pred_long, self.reveal = pred_long, reveal
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
            self.deadline_armed(host.id, now + SHORT_S)

    def on_deadline(self, pool, host, now):
        self._integrate(now)
        self.label[host.id] = True

    def on_exit(self, pool, vm, host, now):
        self._integrate(now)
        if not host.vms:
            self.nonempty -= 1


def two_class_experiment(cfg: TheoremConfig, seed: int) -> Tuple[float, float]:
    """(avg hosts without learning, avg hosts with learning): the time-averaged
    non-empty host count of each policy, replayed by ``Simulator`` on one
    shared trace of unit-shape jobs over ``(K, K)`` hosts."""
    import numpy as np
    arrivals, durations, is_long, pred_long = _sample_jobs(cfg, seed)
    unit, features = vm_terms(1, 1)
    trace = [TraceRecord(i, t, d, unit, features)
             for i, (t, d) in enumerate(zip(arrivals.tolist(), durations.tolist()))]
    # a host per job alive at the peak, plus an empty one; at one time, exits
    # run before arrivals
    exited = np.searchsorted(np.sort(arrivals + durations), arrivals, side="right")
    hosts = int((np.arange(1, len(trace) + 1) - exited).max(initial=0)) + 1
    capacity, pred = ResourceVec(K, K), pred_long.tolist()
    sim_cfg = SimConfig(warmup=False, sample_interval_s=HORIZON_S)
    averages = []
    for reveal in (None, is_long.tolist()):
        policy = _LabelPolicy(pred, reveal)
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
