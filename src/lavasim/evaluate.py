"""Model accuracy reports: binary long/short metrics at the 7-day threshold,
log-domain error histograms, and the F1-vs-uptime-quantile curve."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .predict import log_error
from .workload import TraceRecord

WEEK_S = 604_800.0


def f1_score(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 1.0


def binary_metrics(pairs: Sequence[Tuple[bool, bool]]) -> Dict[str, float]:
    """pairs of (true_long, predicted_long)."""
    tp = sum(1 for t, p in pairs if t and p)
    fp = sum(1 for t, p in pairs if not t and p)
    fn = sum(1 for t, p in pairs if t and not p)
    tn = len(pairs) - tp - fp - fn
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn,
            "precision": precision, "recall": recall,
            "f1": f1_score(tp, fp, fn)}


def uptime_quantile_f1(model, records: Sequence[TraceRecord],
                       threshold_s: float = WEEK_S, quantiles: int = 20) -> List[float]:
    """F1 of the lives-beyond-threshold classification when the query uptime
    is q/quantiles of each VM's true lifetime, for q = 0..quantiles-1."""
    scores = []
    for q in range(quantiles):
        pairs = []
        for rec in records:
            uptime = q / quantiles * rec.lifetime_s
            remaining = model.predict_remaining(rec.features, uptime)
            pairs.append((rec.lifetime_s >= threshold_s,
                          uptime + remaining >= threshold_s))
        scores.append(binary_metrics(pairs)["f1"])
    return scores


def log_error_histogram(errors: Sequence[float], bin_width: float = 0.25,
                        max_error: float = 6.0) -> List[Tuple[float, int]]:
    nbins = int(max_error / bin_width) + 1
    counts = [0] * nbins
    for e in errors:
        counts[min(int(e / bin_width), nbins - 1)] += 1
    return [(i * bin_width, c) for i, c in enumerate(counts)]


def model_report(model, records: Sequence[TraceRecord],
                 threshold_s: float = WEEK_S) -> Dict[str, object]:
    pairs = []
    errors = []
    for rec in records:
        pred_total = model.predict_remaining(rec.features, 0.0)
        pairs.append((rec.lifetime_s >= threshold_s, pred_total >= threshold_s))
        if pred_total > 0 and rec.lifetime_s > 0:
            errors.append(log_error(pred_total, rec.lifetime_s))
    report = binary_metrics(pairs)
    report["mean_log_error"] = sum(errors) / len(errors) if errors else 0.0
    report["log_error_histogram"] = log_error_histogram(errors)
    report["f1_per_uptime_quantile"] = uptime_quantile_f1(model, records, threshold_s)
    return report
