"""Evacuation replay for defragmentation studies.

An evacuation replay evacuates one candidate host of a recorded instance --
a pool snapshot taken at a defrag round -- on a clone of that pool, with no
new arrivals and the VMs' true exit times.  It runs the simulator's own
migration path (``Simulator._evacuate``: the same queue, slot filling,
reprediction and deferred exits as a replay's defrag rounds), so
orderings are compared on identical candidate selections under the
simulator's semantics.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List

from .core import PoolState
from .predict import OracleModel
from .sim import DefragConfig, DefragInstance, SimConfig, Simulator, clone_pool, order_evacuation


class MismatchedRuns(Exception):
    pass


@dataclass
class EvacuationOutcome:
    migrations: int
    saved: int          # VMs that exited before their migration started
    deferrals: int


def simulate_evacuation(pool: PoolState, host_id: int, ordering: str, model,
                        algorithm: str = "baseline",
                        max_concurrent: int = DefragConfig.max_concurrent,
                        migration_s: float = DefragConfig.migration_s,
                        sched_state=None) -> EvacuationOutcome:
    """Evacuate one host on clones of ``pool`` and ``sched_state``; no arrivals, real exits."""
    snap = clone_pool(pool)
    host = snap.hosts[host_id]
    cfg = SimConfig(defrag=DefragConfig(max_concurrent=max_concurrent, migration_s=migration_s))
    sim = Simulator._over_pool(snap, algorithm, model, cfg, copy.deepcopy(sched_state))
    sim._evacuate(host, order_evacuation(snap, host, ordering, model, snap.now))
    return EvacuationOutcome(sim.migrations_done, sim.migrations_saved,
                             sim.migration_deferrals)


def compare_orderings(instances: List[DefragInstance], algorithm: str = "baseline",
                      max_concurrent: int = DefragConfig.max_concurrent,
                      migration_s: float = DefragConfig.migration_s) -> Dict[str, object]:
    """Replay every recorded evacuation instance under trace order and LARS
    order and aggregate migration counts.

    Orderings and placements use ``OracleModel`` whatever predictor the
    instances were recorded with."""
    model = OracleModel()
    per_host = []
    totals = {"trace": 0, "lars": 0}
    for inst in instances:
        for hid in inst.candidate_hosts:
            row = {"time": inst.time, "host": hid}
            for ordering in ("trace", "lars"):
                out = simulate_evacuation(inst.pool, hid, ordering, model, algorithm,
                                          max_concurrent, migration_s, inst.sched_state)
                row[ordering] = out.migrations
                row[f"{ordering}_saved"] = out.saved
                totals[ordering] += out.migrations
            per_host.append(row)
    reduction = count_saved_migrations(totals["trace"], totals["lars"])
    return {"per_host": per_host, "baseline_migrations": totals["trace"],
            "lars_migrations": totals["lars"], "reduction": reduction}


def count_saved_migrations(baseline_migrations: int, lars_migrations: int) -> float:
    if baseline_migrations < 0 or lars_migrations < 0:
        raise MismatchedRuns("migration counts must be non-negative")
    if baseline_migrations == 0:
        return 0.0
    return 1.0 - lars_migrations / baseline_migrations
