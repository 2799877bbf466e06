"""Lifetime-aware VM scheduling: simulator, predictors, and algorithms."""

from .core import (
    CapacityExceeded,
    HostRecord,
    LifetimeClass,
    PoolState,
    ResourceVec,
    UnknownVm,
    VmRecord,
)
from .predict import (
    EmpiricalLifetimeModel,
    FeatureVec,
    NoisyOracleModel,
    OracleModel,
    PredictionCache,
    lifetime_class,
    log_error,
)
from .sched import (
    ALGORITHMS,
    LavaConfig,
    NilasConfig,
    make_scheduler,
    quantize_temporal_cost,
)
from .sim import (
    DefragConfig,
    SimConfig,
    Simulator,
    inflation_stranding,
    metrics_snapshot,
)
from .workload import GeneratorConfig, TraceRecord, generate, parse_trace, split, vm_terms

__version__ = "0.1.0"
