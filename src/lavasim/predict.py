"""Lifetime predictors: oracle, sticky noisy oracle, and an empirical
conditional-distribution (survival) model, plus the per-host prediction cache.

All predictors answer the same question: given a VM that has been up for
``uptime_s`` seconds, what is its expected remaining lifetime in seconds?
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .core import HostRecord, LifetimeClass, PoolState, VmRecord

HOUR = 3600.0
LIFETIME_CAP_S = 168 * 3600  # empirical model training-time cap (7 days)
# the noisy oracle's log10 noise: narrow with probability ``accuracy``, else
# wide, on a total lifetime capped at 14 days
NOISY_SIGMA_NARROW = 0.001
NOISY_SIGMA_WIDE = 3.0
NOISY_CAP_S = 14 * 24 * 3600.0
CLASS_UPPER_BOUND_S = {
    LifetimeClass.LC1: 1 * HOUR,
    LifetimeClass.LC2: 10 * HOUR,
    LifetimeClass.LC3: 100 * HOUR,
    LifetimeClass.LC4: 1000 * HOUR,
}


class EmptyTrainingSet(ValueError):
    pass


class EmptyHost(Exception):
    pass


class NonPositiveInput(Exception):
    pass


@dataclass(frozen=True, slots=True)
class FeatureVec:
    zone: str = "z0"
    vm_family: str = "default"
    vm_shape_key: str = ""
    vm_category: str = ""
    has_ssd: bool = False
    priority: str = "standard"
    provisioning_model: bool = False

    _CATEGORICAL = ("zone", "vm_family", "vm_shape_key", "vm_category", "priority")


# -- pure scoring helpers ------------------------------------------------


def log_error(pred_s: float, true_s: float) -> float:
    """Absolute prediction error in the log10 domain."""
    if pred_s <= 0 or true_s <= 0:
        raise NonPositiveInput(f"log_error requires positive inputs, got {pred_s}, {true_s}")
    return abs(math.log10(pred_s) - math.log10(true_s))


def lifetime_class(remaining_s: float) -> LifetimeClass:
    if remaining_s < 0:
        raise ValueError(f"negative remaining lifetime {remaining_s}")
    for klass, bound in CLASS_UPPER_BOUND_S.items():
        if remaining_s < bound:
            return klass
    return LifetimeClass.LC4


# -- predictors ----------------------------------------------------------


class OracleModel:
    """Perfect predictor; reads the ground-truth exit time."""

    # a VM's predicted exit never moves, so ``PredictionCache`` needs no
    # time grid for it
    time_invariant = True

    def remaining(self, vm: VmRecord, now: float) -> float:
        return max(vm.true_exit_time - now, 0.0)


class NoisyOracleModel:
    """Oracle with a sticky per-VM error model.

    Each VM gets a single sticky draw: a coin that picks the narrow noise
    (``NOISY_SIGMA_NARROW``) with probability ``accuracy`` and the wide
    noise (``NOISY_SIGMA_WIDE``) otherwise, then Gaussian noise of that
    sigma on the total lifetime in the log10 domain, capped at
    ``NOISY_CAP_S``.  ``accuracy`` is therefore P(narrow-noise draw), not a
    binary accuracy: a wide draw often still lands on the right side of the
    2 h short/long cutoff.  On the single-shape acceptance traces the
    realised short/long accuracy at arrival is 0.83 at ``accuracy=0.5``,
    0.90 at 0.7 and 0.97 at 0.9.

    Repredictions at later uptimes reuse the same perturbed total, and
    ``remaining`` is 0 once a VM's uptime passes it, so the error model
    never grants reprediction power by itself.
    """

    time_invariant = True

    def __init__(self, accuracy: float, seed: int = 0):
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0,1], got {accuracy}")
        self.accuracy, self.seed = accuracy, seed
        self._totals: Dict[int, float] = {}
        # re-seeded per draw; ``seed`` also resets the Gaussian pair cache, so
        # each draw reads the stream a fresh ``random.Random`` of its seed would
        self._rng = random.Random()

    def _draw(self, vm: VmRecord) -> float:
        """Draw ``vm``'s perturbed total lifetime and keep it."""
        digest = hashlib.sha256(f"{self.seed}:{vm.id}".encode()).digest()
        rng = self._rng
        rng.seed(int.from_bytes(digest[:8], "big"))
        sigma = NOISY_SIGMA_NARROW if rng.random() < self.accuracy else NOISY_SIGMA_WIDE
        total = 10.0 ** (math.log10(vm.true_exit_time - vm.create_time) + rng.gauss(0.0, sigma))
        total = self._totals[vm.id] = min(total, NOISY_CAP_S)
        return total

    def remaining(self, vm: VmRecord, now: float) -> float:
        total = self._totals.get(vm.id)
        if total is None:
            total = self._draw(vm)
        return max(total - max(now - vm.create_time, 0.0), 0.0)


class OneShotModel:
    """One-shot prediction over ``model``: its answer at a VM's creation,
    counted down and never repredicted.  The creation-time exit is computed
    on first use and kept in ``vm.initial_predicted_exit``, so pool clones
    carry it."""

    time_invariant = True

    def __init__(self, model):
        self.model = model

    def remaining(self, vm: VmRecord, now: float) -> float:
        exit_time = vm.initial_predicted_exit
        if exit_time is None:
            create = vm.create_time
            exit_time = vm.initial_predicted_exit = create + self.model.remaining(vm, create)
        return max(exit_time - now, 0.0)


class _SurvivalCurve:
    """Empirical survival step function over a multiset of (capped) lifetimes."""

    __slots__ = ("lifetimes", "counts", "suffix_count", "suffix_sum")

    def __init__(self, samples: Counter):
        self.lifetimes = sorted(samples)
        self.counts = [samples[t] for t in self.lifetimes]
        n = len(self.lifetimes)
        self.suffix_count = [0] * (n + 1)
        self.suffix_sum = [0.0] * (n + 1)
        for i in range(n - 1, -1, -1):
            self.suffix_count[i] = self.suffix_count[i + 1] + self.counts[i]
            self.suffix_sum[i] = self.suffix_sum[i + 1] + self.counts[i] * self.lifetimes[i]

    def items(self) -> List[Tuple[int, int]]:
        return list(zip(self.lifetimes, self.counts))


class EmpiricalLifetimeModel:
    """Stratified empirical survival model.

    fit() builds one survival curve per collapsed feature stratum (plus a
    pooled global curve); predict_remaining() evaluates the conditional
    expectation E(remaining | uptime) on the stratum's step function.
    """

    FORMAT_VERSION = 1
    KEY_SEP = "|"
    GLOBAL_KEY = "__global__"
    CURVE_MEMO_MAX = 4096

    def __init__(self, min_count: int = 10, cap_s: int = LIFETIME_CAP_S,
                 floor_s: float = 3600.0):
        self.min_count = min_count
        self.cap_s = cap_s
        self.floor_s = floor_s
        self.strata: Dict[str, _SurvivalCurve] = {}
        self.global_curve: Optional[_SurvivalCurve] = None
        self._kept_values: Dict[str, set] = {}
        # predict_remaining()'s curve per FeatureVec object: id -> (the vector,
        # which keeps its id from being reused, lifetimes, suffix_count,
        # suffix_sum)
        self._curves: Dict[int, tuple] = {}

    @property
    def is_fitted(self) -> bool:
        return self.global_curve is not None

    def _collapse(self, fv: FeatureVec) -> str:
        parts = []
        for name in FeatureVec._CATEGORICAL:
            value = getattr(fv, name)
            kept = self._kept_values.get(name, ())
            parts.append(value if value in kept else "Other")
        parts.append("1" if fv.has_ssd else "0")
        parts.append("1" if fv.provisioning_model else "0")
        return self.KEY_SEP.join(parts)

    def fit(self, examples: Iterable[Tuple[FeatureVec, float]]) -> "EmpiricalLifetimeModel":
        # the capped lifetimes of each distinct feature vector: the work per
        # feature vector below runs once, not once per row
        lives: Dict[FeatureVec, List[int]] = {}
        cap_s = self.cap_s
        for fv, life in examples:
            rows = lives.get(fv)
            if rows is None:
                rows = lives[fv] = []
            rows.append(min(int(round(life)), cap_s))
        if not lives:
            raise EmptyTrainingSet("no training examples")
        self._curves.clear()
        for name in FeatureVec._CATEGORICAL:
            counts: Counter = Counter()
            for fv, rows in lives.items():
                counts[getattr(fv, name)] += len(rows)
            self._kept_values[name] = {v for v, c in counts.items() if c >= self.min_count}
        per_stratum: Dict[str, Counter] = {}
        pooled: Counter = Counter()
        for fv, rows in lives.items():
            key = self._collapse(fv)
            samples = per_stratum.get(key)
            if samples is None:
                samples = per_stratum[key] = Counter()
            samples.update(rows)
            pooled.update(rows)
        self.strata = {k: _SurvivalCurve(c) for k, c in per_stratum.items()}
        self.global_curve = _SurvivalCurve(pooled)
        return self

    def predict_remaining(self, features: FeatureVec, uptime_s: float) -> float:
        """E(remaining | survived to ``uptime_s``) on the survival curve of
        ``features``' stratum.  The curve is resolved once per ``FeatureVec``
        object rather than per call: every VM and record of one record key
        shares its vector, one per key and trace (``workload.vm_terms``), so
        a prediction is one dict hit and one bisect."""
        entry = self._curves.get(id(features))
        if entry is None:
            if not self.is_fitted:
                raise EmptyTrainingSet("model is not fitted")
            curve = self.strata.get(self._collapse(features), self.global_curve)
            if len(self._curves) >= self.CURVE_MEMO_MAX:
                # each new trace brings new vectors, so a model replayed
                # over many traces would otherwise hold every one of them
                self._curves.clear()
            entry = self._curves[id(features)] = (
                features, curve.lifetimes, curve.suffix_count, curve.suffix_sum)
        _, lifetimes, suffix_count, suffix_sum = entry
        i = bisect_right(lifetimes, uptime_s)
        n_surv = suffix_count[i]
        if n_surv == 0:
            # uptime beyond every training lifetime: return the floor rather
            # than 0 so mispredicted long-lived VMs don't look instantly dead
            return self.floor_s
        return suffix_sum[i] / n_surv - uptime_s

    def remaining(self, vm: VmRecord, now: float) -> float:
        # a conditional, not max(): the builtin call would add about a
        # quarter to the cost of each reprediction
        uptime = now - vm.create_time
        return self.predict_remaining(vm.features, uptime if uptime > 0.0 else 0.0)

    # -- serialization ---------------------------------------------------

    def dumps(self) -> str:
        if not self.is_fitted:
            raise EmptyTrainingSet("model is not fitted")
        lines = [f"lavasim-empirical-model v{self.FORMAT_VERSION} "
                 f"cap_s={self.cap_s} min_count={self.min_count} floor_s={self.floor_s:.17g}"]
        for name in FeatureVec._CATEGORICAL:
            # no tab after the name when nothing is kept: "#kept name\t" is the
            # set holding the empty string
            kept = sorted(self._kept_values.get(name, ()))
            lines.append("\t".join([f"#kept {name}"] + kept))
        keys = sorted(self.strata)
        for key in keys + [self.GLOBAL_KEY]:
            curve = self.global_curve if key == self.GLOBAL_KEY else self.strata[key]
            pairs = " ".join(f"{t}:{c}" for t, c in curve.items())
            lines.append(f"{key}\t{pairs}")
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "EmpiricalLifetimeModel":
        """Parse ``dumps()`` output; a malformed line raises ``ValueError``
        naming it, and so does a file without a ``__global__`` curve."""
        lines = text.splitlines()
        if not lines or not lines[0].startswith("lavasim-empirical-model"):
            raise ValueError("not an empirical model file")
        lineno = 1
        try:
            model = cls(**cls._parse_header(lines[0]))
            for lineno, line in enumerate(lines[1:], 2):
                if not line:
                    continue
                if line.startswith("#kept "):
                    name, *values = line[len("#kept "):].split("\t")
                    if name not in FeatureVec._CATEGORICAL:
                        raise ValueError(f"unknown feature {name!r}")
                    model._kept_values[name] = set(values)
                    continue
                key, tab, pairs = line.partition("\t")
                if not tab:
                    raise ValueError("expected '<stratum>\\t<lifetime>:<count> ...'")
                if key in model.strata or (key == cls.GLOBAL_KEY and model.is_fitted):
                    raise ValueError(f"curve {key!r} given twice")
                curve = _SurvivalCurve(cls._parse_samples(pairs))
                if key == cls.GLOBAL_KEY:
                    model.global_curve = curve
                else:
                    model.strata[key] = curve
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if not model.is_fitted:
            raise ValueError(f"no {cls.GLOBAL_KEY} curve")
        return model

    @classmethod
    def _parse_header(cls, line: str) -> Dict[str, object]:
        version, *tokens = line.split()[1:]
        if version != f"v{cls.FORMAT_VERSION}":
            raise ValueError(f"unsupported format version {version!r}")
        fields = {}
        for tok in tokens:
            name, eq, value = tok.partition("=")
            if not eq or name in fields:
                raise ValueError(f"bad header field {tok!r}")
            fields[name] = value
        expected = ("cap_s", "min_count", "floor_s")
        if sorted(fields) != sorted(expected):
            raise ValueError(f"header fields must be {', '.join(expected)}, got "
                             f"{', '.join(fields) or 'none'}")
        floor_s = float(fields["floor_s"])
        if not 0.0 <= floor_s < math.inf:
            raise ValueError(f"floor_s must be finite and non-negative, got {floor_s}")
        return {"cap_s": int(fields["cap_s"]), "min_count": int(fields["min_count"]),
                "floor_s": floor_s}

    @staticmethod
    def _parse_samples(pairs: str) -> Counter:
        samples: Counter = Counter()
        for tok in pairs.split():
            t, colon, c = tok.partition(":")
            if not colon:
                raise ValueError(f"expected <lifetime>:<count>, got {tok!r}")
            t, c = int(t), int(c)
            if t < 0 or c <= 0 or t in samples:
                raise ValueError(f"bad or repeated lifetime:count {tok!r}")
            samples[t] = c
        if not samples:
            raise ValueError("curve has no <lifetime>:<count> pairs")
        return samples

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path) -> "EmpiricalLifetimeModel":
        with open(path) as fh:
            text = fh.read()
        try:
            return cls.loads(text)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


# -- host-level prediction cache -----------------------------------------


@dataclass
class PredictionCache:
    """Caches each host's latest predicted exit on a fixed time grid.

    An entry is a pure function of the host's residents and the grid cell
    ``now // grid_s``: a fill predicts each resident at the later of the
    cell's start and its creation, ``t``, and stores the latest
    ``t + model.remaining(vm, t)``, which lookups in the same cell reuse.
    A lookup answers ``max(now, stored)``.  Placements and exits invalidate
    the host's entry; an infinite ``grid_s`` has one cell, so ``t`` is the
    VM's creation.
    """

    grid_s: float = 60.0
    _entries: Dict[int, Tuple[float, float]] = field(default_factory=dict)

    def invalidate(self, host_id: int) -> None:
        self._entries.pop(host_id, None)

    def host_exit_time(self, host: HostRecord, pool: PoolState, model, now: float) -> float:
        resident = host.vms
        if not resident:
            raise EmptyHost(f"host {host.id} has no resident VMs")
        grid = self.grid_s
        start = now - now % grid if grid < math.inf else -math.inf
        entry = self._entries.get(host.id)
        if entry is not None:
            latest, cell_start = entry
            if cell_start == start:
                return latest if latest > now else now
        # one remaining() call per resident; a plain loop, as a
        # comprehension costs a function call per fill
        vms = pool.vms
        latest = -math.inf
        for vid in resident:
            vm = vms[vid]
            t = vm.create_time
            if t < start:
                t = start
            t += model.remaining(vm, t)
            if t > latest:
                latest = t
        self._entries[host.id] = (latest, start)
        return latest if latest > now else now


PREDICTOR_SPECS = "oracle, noisy:<accuracy in [0,1]> or empirical:<model file>"


def make_predictor(spec: str, seed: int = 0):
    """Build a predictor from a CLI spec, one of ``PREDICTOR_SPECS``; any
    other spec raises ``ValueError`` naming it and the accepted forms."""
    kind, _, arg = spec.partition(":")
    if spec == "oracle":
        return OracleModel()
    if kind == "empirical" and arg:
        return EmpiricalLifetimeModel.load(arg)
    if kind == "noisy":
        try:
            return NoisyOracleModel(float(arg), seed)
        except ValueError:
            pass
    raise ValueError(f"bad predictor spec {spec!r}: expected {PREDICTOR_SPECS}")
